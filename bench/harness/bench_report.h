#ifndef VITRI_BENCH_HARNESS_BENCH_REPORT_H_
#define VITRI_BENCH_HARNESS_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vitri::bench {

/// Machine-readable artifact of one benchmark binary. Every fig/micro
/// bench builds one of these alongside its human-readable stdout and
/// writes `BENCH_<name>.json` on exit, so CI and regression tooling can
/// diff runs without scraping tables. Schema (see README):
///
///   {
///     "name": "<bench name>",
///     "backend": "<active distance-kernel backend>",
///     "crc_backend": "<active CRC-32C implementation>",
///     "hardware_threads": N,
///     "results": [ {"<key>": <value>, ...}, ... ]
///   }
///
/// Rows are free-form key/value objects in insertion order; by
/// convention throughput keys end in `_per_s`, latencies in `_ms`/`_us`
/// (with `p50`/`p95`/`p99` suffixes for percentiles), and I/O counts in
/// `pages`/`page_accesses`.
class BenchReport {
 public:
  /// One result row. Setters render the value immediately (JSON
  /// fragments), so a Row only ever appends.
  class Row {
   public:
    Row& Set(const std::string& key, double value);
    Row& Set(const std::string& key, bool value);
    Row& Set(const std::string& key, const std::string& value);
    Row& Set(const std::string& key, const char* value);
    /// Any integer type (int, size_t, uint64_t, ...); a template so the
    /// platform aliasing of size_t/uint64_t never creates a duplicate
    /// overload.
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Row& Set(const std::string& key, T value) {
      if constexpr (std::is_signed_v<T>) {
        return SetInt(key, static_cast<int64_t>(value));
      } else {
        return SetUint(key, static_cast<uint64_t>(value));
      }
    }

   private:
    Row& SetInt(const std::string& key, int64_t value);
    Row& SetUint(const std::string& key, uint64_t value);

    friend class BenchReport;
    /// key → pre-rendered JSON value.
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit BenchReport(std::string name);

  /// Appends an empty row; the reference stays valid until the next
  /// AddRow (rows live in a deque-free vector, so callers should finish
  /// one row before adding the next).
  Row& AddRow();

  const std::string& name() const { return name_; }
  size_t num_rows() const { return rows_.size(); }

  /// The full artifact document.
  std::string ToJson() const;

  /// Writes BENCH_<name>.json into $VITRI_BENCH_DIR (default: the
  /// current directory). Prints the path on success; returns false (and
  /// prints to stderr) on I/O failure.
  bool WriteArtifact() const;

 private:
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace vitri::bench

#endif  // VITRI_BENCH_HARNESS_BENCH_REPORT_H_
