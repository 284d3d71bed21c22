#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/json.h"
#include "core/similarity.h"

namespace perfbench {

using vitri::core::BatchQuery;
using vitri::core::VideoMatch;
using vitri::core::ViTri;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double SlicedP99(const std::vector<double>& samples) {
  if (samples.size() < 2 * kSliceSamples) return Percentile(samples, 99.0);
  std::vector<double> p99s;
  for (size_t b = 0; b + kSliceSamples <= samples.size(); b += kSliceSamples) {
    p99s.push_back(Percentile(
        {samples.begin() + static_cast<long>(b),
         samples.begin() + static_cast<long>(b + kSliceSamples)},
        99.0));
  }
  return Median(p99s);
}

namespace {

/// A "<key>: <n> kB" line of /proc/self/status, in MiB; -1 when absent.
double StatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace

double MarkMemory() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) return -1.0;
  return StatusMb("VmRSS");
}

double PeakRssMb() { return StatusMb("VmHWM"); }

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back(Entry{name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  vitri::json::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Entry& e : entries_) {
    w.Key(e.name);
    w.BeginObject();
    w.Key("value");
    w.Double(e.value);
    w.Key("unit");
    w.String(e.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

uint64_t SpanRecorder::NextId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

uint64_t SpanRecorder::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, uint64_t parent,
                              uint64_t request_id, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NextId();
  const Span span{id, name, Seconds(epoch_, start) * 1e6,
                  Seconds(epoch_, end) * 1e6, parent, request_id};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return id;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    vitri::json::JsonWriter w;
    w.BeginObject();
    w.Key("id");
    w.Uint(s.id);
    w.Key("name");
    w.String(s.name);
    w.Key("start_us");
    w.Double(s.start_us);
    w.Key("end_us");
    w.Double(s.end_us);
    w.Key("parent");
    w.Uint(s.parent);
    w.Key("query");
    w.Uint(s.request_id);
    w.EndObject();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

bool ByRank(const VideoMatch& a, const VideoMatch& b) {
  return a.similarity > b.similarity ||
         (a.similarity == b.similarity && a.video_id < b.video_id);
}

}  // namespace

ReferenceTopK::ReferenceTopK(const std::vector<BatchQuery>& queries, size_t k,
                             vitri::ThreadPool* pool)
    : queries_(queries),
      keep_(k + kReferenceSlack),
      pool_(pool),
      best_(queries.size()) {}

void ReferenceTopK::Add(const std::vector<ViTri>& vitris,
                        const std::vector<uint32_t>& frame_counts) {
  if (vitris.empty()) return;
  uint32_t lo = vitris.front().video_id;
  uint32_t hi = lo;
  for (const ViTri& v : vitris) {
    lo = std::min(lo, v.video_id);
    hi = std::max(hi, v.video_id);
  }
  pool_->ParallelFor(queries_.size(), [&](size_t qi) {
    const BatchQuery& query = queries_[qi];
    std::vector<double> shared(hi - lo + 1, 0.0);
    for (const ViTri& candidate : vitris) {
      for (const ViTri& q : query.vitris) {
        const double est = vitri::core::EstimatedSharedFrames(q, candidate);
        if (est > 0.0) shared[candidate.video_id - lo] += est;
      }
    }
    std::vector<VideoMatch>& matches = best_[qi];
    for (uint32_t vid = lo; vid <= hi; ++vid) {
      const double s = shared[vid - lo];
      if (s <= 0.0 || frame_counts[vid] == 0) continue;
      const double sim = std::clamp(
          2.0 * s / static_cast<double>(query.num_frames + frame_counts[vid]),
          0.0, 1.0);
      matches.push_back(VideoMatch{vid, sim});
    }
    const size_t keep = std::min(matches.size(), keep_);
    std::partial_sort(matches.begin(),
                      matches.begin() + static_cast<long>(keep),
                      matches.end(), ByRank);
    matches.resize(keep);
  });
}

namespace {

bool SameAt6(double a, double b) {
  char fa[32];
  char fb[32];
  std::snprintf(fa, sizeof(fa), "%.6f", a);
  std::snprintf(fb, sizeof(fb), "%.6f", b);
  return std::string(fa) == fb || std::fabs(a - b) <= 1e-12;
}

}  // namespace

bool MatchesReference(const std::vector<VideoMatch>& got,
                      const std::vector<VideoMatch>& reference, size_t k) {
  const size_t expected = std::min(k, reference.size());
  if (got.size() != expected) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameAt6(got[i].similarity, reference[i].similarity)) return false;
    if (got[i].video_id == reference[i].video_id) continue;
    bool near_tie = false;
    for (const VideoMatch& r : reference) {
      if (r.video_id == got[i].video_id &&
          std::fabs(r.similarity - got[i].similarity) <= 1e-12 &&
          std::fabs(r.similarity - reference[i].similarity) <= 1e-12) {
        near_tie = true;
      }
    }
    if (!near_tie) return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (got[j].video_id == got[i].video_id) return false;
    }
  }
  return true;
}

std::vector<VideoMatch> Perturbed(std::vector<VideoMatch> reference) {
  if (!reference.empty()) reference.front().similarity += 1e-3;
  return reference;
}

}  // namespace perfbench
