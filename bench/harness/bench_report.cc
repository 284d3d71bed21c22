#include "harness/bench_report.h"

#include <cstdio>
#include <cstdlib>

#include "common/crc32c.h"
#include "common/json.h"
#include "common/os.h"
#include "common/thread_pool.h"
#include "linalg/kernels.h"

namespace vitri::bench {

namespace {

std::string RenderString(const std::string& value) {
  std::string out;
  out += '"';
  out += json::EscapeJson(value);
  out += '"';
  return out;
}

std::string RenderDouble(double value) {
  json::JsonWriter w;
  w.Double(value);
  return w.str();
}

std::string RenderUint(uint64_t value) {
  json::JsonWriter w;
  w.Uint(value);
  return w.str();
}

std::string RenderInt(int64_t value) {
  json::JsonWriter w;
  w.Int(value);
  return w.str();
}

}  // namespace

BenchReport::Row& BenchReport::Row::Set(const std::string& key,
                                        double value) {
  fields_.emplace_back(key, RenderDouble(value));
  return *this;
}

BenchReport::Row& BenchReport::Row::SetUint(const std::string& key,
                                            uint64_t value) {
  fields_.emplace_back(key, RenderUint(value));
  return *this;
}

BenchReport::Row& BenchReport::Row::SetInt(const std::string& key,
                                           int64_t value) {
  fields_.emplace_back(key, RenderInt(value));
  return *this;
}

BenchReport::Row& BenchReport::Row::Set(const std::string& key,
                                        bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

BenchReport::Row& BenchReport::Row::Set(const std::string& key,
                                        const std::string& value) {
  fields_.emplace_back(key, RenderString(value));
  return *this;
}

BenchReport::Row& BenchReport::Row::Set(const std::string& key,
                                        const char* value) {
  return Set(key, std::string(value));
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

BenchReport::Row& BenchReport::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

std::string BenchReport::ToJson() const {
  json::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name_);
  w.Key("backend");
  w.String(linalg::KernelBackendName(linalg::ActiveKernelBackend()));
  w.Key("crc_backend");
  w.String(Crc32cBackendName());
  w.Key("hardware_threads");
  w.Uint(ThreadPool::HardwareThreads());
  w.Key("results");
  w.BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    for (const auto& [key, rendered] : row.fields_) {
      w.Key(key);
      w.RawValue(rendered);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool BenchReport::WriteArtifact() const {
  const char* dir = GetEnv("VITRI_BENCH_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/"
                         : std::string();
  path += "BENCH_" + name_ + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string doc = ToJson();
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = written == doc.size() && std::fputc('\n', f) != EOF &&
                  std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return false;
  }
  std::printf("# artifact: %s (%zu rows)\n", path.c_str(), rows_.size());
  return true;
}

}  // namespace vitri::bench
