#include "load.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "serving/client.h"

namespace perfbench {

namespace {

using vitri::serving::Client;
using vitri::serving::WireStatus;

/// One answered request; slots order requests by due time.
struct Sample {
  uint64_t slot;
  double ms;
  bool operator<(const Sample& other) const { return slot < other.slot; }
};

/// Per-thread tally merged into the phase result when the thread ends.
struct Tally {
  std::vector<Sample> knn;
  std::vector<double> knn_traced_ms;
  std::vector<double> knn_plain_ms;
  std::vector<double> lag_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Merger {
 public:
  explicit Merger(PhaseResult* out) : out_(out) {}
  void Merge(const Tally& t) {
    std::lock_guard<std::mutex> lock(mu_);
    knn_.insert(knn_.end(), t.knn.begin(), t.knn.end());
    out_->knn_traced_ms.insert(out_->knn_traced_ms.end(),
                               t.knn_traced_ms.begin(), t.knn_traced_ms.end());
    out_->knn_plain_ms.insert(out_->knn_plain_ms.end(), t.knn_plain_ms.begin(),
                              t.knn_plain_ms.end());
    out_->lag_us.insert(out_->lag_us.end(), t.lag_us.begin(), t.lag_us.end());
    out_->attempted += t.attempted;
    out_->failed += t.failed;
  }

  /// Writes the merged latencies to the result in due order; call once
  /// every thread has merged.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(knn_.begin(), knn_.end());
    for (const Sample& s : knn_) out_->knn_ms.push_back(s.ms);
  }

 private:
  std::mutex mu_;
  PhaseResult* out_;
  std::vector<Sample> knn_;
};

/// Sends request slot `slot`; `start` is when its latency clock starts
/// (send time in a closed loop, due time in an open one). Returns false
/// when the connection is broken.
bool Execute(LoadPlan* plan, Client* client, uint64_t slot,
             Clock::time_point start, uint64_t phase_span, Tally* tally) {
  // A traced run records spans for a hashed half of the slots, so the
  // traced and untraced halves share one load and their medians can be
  // compared.
  static SpanRecorder untraced(false);
  const bool traced =
      plan->spans->enabled() && (MixSeed(plan->seed, ~slot) & 1) == 0;
  SpanRecorder* spans = traced ? plan->spans : &untraced;
  ++tally->attempted;
  const Clock::time_point sent = Clock::now();
  const size_t qi = MixSeed(plan->seed, slot) % plan->queries.size();
  vitri::serving::KnnRequest req;
  req.request_id = slot;
  req.k = plan->k;
  req.method = vitri::core::KnnMethod::kComposed;
  req.dimension = plan->dimension;
  req.queries.push_back(plan->queries[qi]);
  const auto resp = client->Knn(req);
  const Clock::time_point done = Clock::now();
  const uint64_t span = spans->Record("knn", sent, done, phase_span, slot);
  if (!resp.ok()) {
    ++tally->failed;
    return false;
  }
  const bool correct = resp->head.status == WireStatus::kOk &&
                       resp->results.size() == 1 &&
                       MatchesReference(resp->results[0],
                                        plan->references[qi], plan->k);
  spans->Record("check", done, Clock::now(), span, slot);
  if (!correct) {
    ++tally->failed;
    return true;
  }
  const double ms = Seconds(start, done) * 1e3;
  tally->knn.push_back(Sample{slot, ms});
  (traced ? tally->knn_traced_ms : tally->knn_plain_ms).push_back(ms);
  return true;
}

}  // namespace

PhaseResult RunClosedLoop(LoadPlan* plan, size_t connections,
                          double seconds) {
  PhaseResult result;
  Merger merger(&result);
  std::atomic<uint64_t> next_slot{0};
  const Clock::time_point begin = Clock::now();
  const Clock::time_point end =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const uint64_t phase_span = plan->spans->NextId();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      Tally tally;
      auto client = Client::ConnectUnix(plan->socket_path);
      if (!client.ok()) {
        ++tally.attempted;
        ++tally.failed;
      } else {
        while (Clock::now() < end) {
          const uint64_t slot = next_slot.fetch_add(1);
          if (!Execute(plan, &*client, slot, Clock::now(), phase_span,
                       &tally)) {
            break;
          }
        }
      }
      merger.Merge(tally);
    });
  }
  for (std::thread& t : threads) t.join();
  merger.Finish();
  result.seconds = Seconds(begin, Clock::now());
  plan->spans->Record("closed_loop", begin, Clock::now(), 0, 0, phase_span);
  return result;
}

PhaseResult RunOpenLoop(LoadPlan* plan, size_t senders, double rate_per_s,
                        double seconds) {
  PhaseResult result;
  Merger merger(&result);
  std::atomic<uint64_t> next_slot{0};
  const uint64_t phase_span = plan->spans->NextId();
  const auto total = static_cast<uint64_t>(rate_per_s * seconds);
  // Connections are opened before the schedule starts, so connection
  // set-up is not charged to the first requests.
  std::vector<Client> clients;
  for (size_t s = 0; s < senders; ++s) {
    auto client = Client::ConnectUnix(plan->socket_path);
    if (!client.ok()) {
      result.attempted = result.failed = 1;
      return result;
    }
    clients.push_back(std::move(*client));
  }
  const Clock::time_point begin = Clock::now();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      Tally tally;
      for (;;) {
        const uint64_t slot = next_slot.fetch_add(1);
        if (slot >= total) break;
        const Clock::time_point due =
            begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(slot) / rate_per_s));
        std::this_thread::sleep_until(due);
        tally.lag_us.push_back(
            std::max(0.0, Seconds(due, Clock::now()) * 1e6));
        if (!Execute(plan, &clients[s], slot, due, phase_span, &tally)) {
          break;
        }
      }
      merger.Merge(tally);
    });
  }
  for (std::thread& t : threads) t.join();
  merger.Finish();
  result.seconds = Seconds(begin, Clock::now());
  plan->spans->Record("open_loop", begin, Clock::now(), 0, 0, phase_span);
  return result;
}

}  // namespace perfbench
