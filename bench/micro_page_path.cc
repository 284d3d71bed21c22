// The two per-page costs of the KNN page path, timed on their own: the
// CRC-32C that verifies every page the buffer pool reads (and stamps
// every page it writes back), and the decode of every leaf record the
// range scan visits (DESIGN.md §8, §11).
//
//   crc     4 KiB pages and 64-byte WAL-sized frames, the table
//           implementation against the dispatched Crc32c (SSE4.2 where
//           the CPU has it);
//   decode  ViTri::Deserialize (a fresh ViTri per record) against
//           ViTri::DeserializeInto (one reused ViTri), ns per record.
//
// Protocol: each variant is calibrated until one timed region lasts at
// least 100 ms, run once as warm-up, then timed kReps times; a row
// reports the median ns per operation with the min, quartiles and IQR
// of those repetitions. Before timing, every variant is checked to
// compute the same result as its reference, and the bench exits
// non-zero if one does not. Writes BENCH_micro_page_path.json.
//
//   micro_page_path

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/random.h"
#include "core/vitri.h"
#include "harness/bench_report.h"

namespace {

using namespace vitri;
using core::ViTri;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;
constexpr double kMinRegionSeconds = 0.1;

std::atomic<uint64_t> g_sink{0};

struct Timing {
  double p50 = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  uint64_t ops_per_rep = 0;
  double region_ms_min = 0.0;
};

// Quartile by linear interpolation over a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// `run(n)` performs n operations and returns a value folded into a sink
// so the work cannot be optimized away.
Timing Measure(const std::function<uint64_t(uint64_t)>& run) {
  auto seconds_for = [&](uint64_t n) {
    const Clock::time_point start = Clock::now();
    g_sink.fetch_add(run(n), std::memory_order_relaxed);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  uint64_t n = 1;
  double took = seconds_for(n);
  while (took < kMinRegionSeconds) {
    const double scale = took > 0.0 ? 1.3 * kMinRegionSeconds / took : 16.0;
    n = std::max(n + 1, static_cast<uint64_t>(static_cast<double>(n) *
                                               std::min(scale, 16.0)));
    took = seconds_for(n);
  }
  (void)seconds_for(n);  // Warm-up at the calibrated size.
  std::vector<double> ns_per_op;
  double min_region = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const double s = seconds_for(n);
    min_region = std::min(min_region, s);
    ns_per_op.push_back(s * 1e9 / static_cast<double>(n));
  }
  std::sort(ns_per_op.begin(), ns_per_op.end());
  Timing t;
  t.p50 = Quantile(ns_per_op, 0.5);
  t.min = ns_per_op.front();
  t.p25 = Quantile(ns_per_op, 0.25);
  t.p75 = Quantile(ns_per_op, 0.75);
  t.ops_per_rep = n;
  t.region_ms_min = min_region * 1e3;
  return t;
}

void AddRow(bench::BenchReport* report, const std::string& section,
            const std::string& variant, const std::string& impl,
            size_t bytes, const Timing& t) {
  std::printf("%-7s %-14s %-18s %10.1f ns/op  (min %.1f, IQR %.1f)\n",
              section.c_str(), variant.c_str(), impl.c_str(), t.p50, t.min,
              t.p75 - t.p25);
  report->AddRow()
      .Set("section", section)
      .Set("variant", variant)
      .Set("impl", impl)
      .Set("bytes", bytes)
      .Set("ns_per_op_p50", t.p50)
      .Set("ns_per_op_min", t.min)
      .Set("ns_per_op_p25", t.p25)
      .Set("ns_per_op_p75", t.p75)
      .Set("ns_per_op_iqr", t.p75 - t.p25)
      .Set("reps", kReps)
      .Set("ops_per_rep", t.ops_per_rep)
      .Set("region_ms_min", t.region_ms_min);
}

// Checksums `len`-byte messages cycling through `buffer`, one per op.
bool BenchCrc(bench::BenchReport* report, const std::vector<uint8_t>& buffer,
              size_t len, const std::string& variant) {
  const size_t count = buffer.size() / len;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* p = buffer.data() + i * len;
    if (Crc32cExtendPortable(0, p, len) != Crc32cExtend(0, p, len)) {
      std::fprintf(stderr, "crc mismatch on %s message %zu\n",
                   variant.c_str(), i);
      return false;
    }
  }
  using Fn = uint32_t (*)(uint32_t, const uint8_t*, size_t);
  const std::pair<std::string, Fn> impls[] = {
      {"portable", &Crc32cExtendPortable},
      {std::string("dispatched:") + Crc32cBackendName(), &Crc32cExtend}};
  for (const auto& [impl, fn] : impls) {
    const Timing t = Measure([&, fn = fn](uint64_t n) {
      uint64_t acc = 0;
      for (uint64_t op = 0; op < n; ++op) {
        acc += fn(0, buffer.data() + (op % count) * len, len);
      }
      return acc;
    });
    AddRow(report, "crc", variant, impl, len, t);
  }
  return true;
}

bool BenchDecode(bench::BenchReport* report, int dimension) {
  constexpr size_t kRecords = 20000;
  const size_t size = ViTri::SerializedSize(dimension);
  std::vector<uint8_t> bytes(kRecords * size);
  Rng rng(7);
  std::vector<uint8_t> one;
  for (size_t i = 0; i < kRecords; ++i) {
    ViTri v;
    v.video_id = static_cast<uint32_t>(rng.Index(100000));
    v.cluster_size = 1 + static_cast<uint32_t>(rng.Index(500));
    v.radius = rng.Uniform(0.0, 0.1);
    v.position.resize(static_cast<size_t>(dimension));
    for (double& x : v.position) x = rng.Uniform(-1.0, 1.0);
    v.Serialize(&one);
    std::memcpy(bytes.data() + i * size, one.data(), size);
  }
  auto record = [&](uint64_t i) {
    return std::span<const uint8_t>(bytes.data() + (i % kRecords) * size,
                                    size);
  };
  ViTri reused;
  for (size_t i = 0; i < kRecords; ++i) {
    auto fresh = ViTri::Deserialize(record(i), dimension);
    if (!fresh.ok() ||
        !ViTri::DeserializeInto(record(i), dimension, &reused).ok() ||
        fresh->video_id != reused.video_id ||
        fresh->cluster_size != reused.cluster_size ||
        fresh->radius != reused.radius ||
        fresh->position != reused.position) {
      std::fprintf(stderr, "decode mismatch on record %zu\n", i);
      return false;
    }
  }
  const std::string variant = "dim" + std::to_string(dimension);
  AddRow(report, "decode", variant, "Deserialize", size,
         Measure([&](uint64_t n) {
           uint64_t acc = 0;
           for (uint64_t i = 0; i < n; ++i) {
             auto v = ViTri::Deserialize(record(i), dimension);
             acc += v.ok() ? v->cluster_size : 0;
           }
           return acc;
         }));
  AddRow(report, "decode", variant, "DeserializeInto", size,
         Measure([&](uint64_t n) {
           uint64_t acc = 0;
           ViTri v;
           for (uint64_t i = 0; i < n; ++i) {
             if (ViTri::DeserializeInto(record(i), dimension, &v).ok()) {
               acc += v.cluster_size;
             }
           }
           return acc;
         }));
  return true;
}

}  // namespace

int main() {
  std::printf("micro_page_path: crc backend %s, %d reps of >= %.0f ms\n",
              Crc32cBackendName(), kReps, kMinRegionSeconds * 1e3);
  bench::BenchReport report("micro_page_path");
  // 64 distinct pages (256 KiB) so the checksum reads through L2 as the
  // pool's frames do, not one hot page.
  std::vector<uint8_t> buffer(64 * 4096);
  Rng rng(12345);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextU64());
  bool ok = BenchCrc(&report, buffer, 4096, "page_4k");
  ok = BenchCrc(&report, buffer, 64, "wal_frame_64") && ok;
  // The benchmark corpus's dimension and the paper's.
  ok = BenchDecode(&report, 16) && ok;
  ok = BenchDecode(&report, 64) && ok;
  if (!report.WriteArtifact()) return 1;
  std::printf("(sink %llu)\n",
              static_cast<unsigned long long>(g_sink.load()));
  return ok ? 0 : 1;
}
