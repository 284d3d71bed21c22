#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Builds the program (as run.py does) and runs a tiny configuration of every
workload in BENCHMARK.json, untraced and traced. Each run must pass and
emit every metric of its block with the unit BENCHMARK.json gives. Then
each workload runs once more against a deliberately perturbed reference
and must fail, which proves the correctness check fires. Exits non-zero
when any expectation breaks.
"""

import json
import os
import subprocess
import sys

import run

ROOT = os.path.dirname(run.HERE)


def launch(binary, workload, trace, extra=()):
    workdir = os.path.relpath(os.path.join(run.build_dir(), "selftest"))
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--tiny", "--workdir", workdir, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(workload, trace, result, expected):
    problems = []
    got = result["metrics"]
    for metric in expected:
        name = metric["name"]
        if name not in got:
            problems.append(f"{name} missing")
        elif got[name]["unit"] != metric["unit"]:
            problems.append(f"{name} unit {got[name]['unit']!r}, "
                            f"expected {metric['unit']!r}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    for p in problems:
        print(f"FAIL {workload} --trace {trace}: {p}")
    return not problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("FAIL: build failed")
        return 1
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, block in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = launch(binary, workload, trace)
            if code != 0 or result is None or not result["correct"] or \
                    result["failed"] != 0:
                print(f"FAIL {workload} --trace {trace}: exit {code}\n{err}")
                ok = False
                continue
            if check_metrics(workload, trace, result, spec[block]):
                print(f"ok   {workload} --trace {trace}: "
                      f"{len(result['metrics'])} metrics, "
                      f"{result['attempted']} operations")
            else:
                ok = False
        code, result, _ = launch(binary, workload, 0,
                                 ["--perturb-reference"])
        if code == 0 or result is None or result["correct"] or \
                result["failed"] == 0:
            print(f"FAIL {workload}: a perturbed reference went unnoticed")
            ok = False
        else:
            print(f"ok   {workload} --perturb-reference: failed "
                  f"{result['failed']} of {result['attempted']} as expected")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
