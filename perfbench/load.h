// Closed- and open-loop load against an in-process vitrid server, with
// every KNN answer checked against its precomputed reference.

#ifndef VITRI_PERFBENCH_LOAD_H_
#define VITRI_PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/index.h"

namespace perfbench {

/// What a phase sends and what it expects back. Shared read-only by all
/// client threads.
struct LoadPlan {
  std::string socket_path;
  uint32_t k = 10;
  uint32_t dimension = 0;
  /// Query i is sent as one KNN request and must match references[i].
  std::vector<vitri::core::BatchQuery> queries;
  std::vector<std::vector<vitri::core::VideoMatch>> references;
  uint64_t seed = 0;
  SpanRecorder* spans = nullptr;
};

/// Outcome of one phase. Latencies are in milliseconds; knn_ms is in due
/// order (send order in a closed loop).
struct PhaseResult {
  double seconds = 0.0;
  std::vector<double> knn_ms;
  /// Traced runs record spans for half of the slots; these split knn_ms
  /// into the traced and untraced halves.
  std::vector<double> knn_traced_ms;
  std::vector<double> knn_plain_ms;
  /// Open loop only: how late each request was sent, microseconds.
  std::vector<double> lag_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// `connections` clients send back to back for `seconds`; latency is the
/// round trip.
PhaseResult RunClosedLoop(LoadPlan* plan, size_t connections, double seconds);

/// Requests are due at a fixed absolute rate for `seconds`; `senders`
/// client connections claim them in due order. Latency is measured from
/// each request's due time, so a stall also charges the requests queued
/// behind it.
PhaseResult RunOpenLoop(LoadPlan* plan, size_t senders, double rate_per_s,
                        double seconds);

}  // namespace perfbench

#endif  // VITRI_PERFBENCH_LOAD_H_
