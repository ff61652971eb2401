// Shared pieces of the mecoff benchmark: command-line options, the
// report every workload fills, and sample statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value rests on (1 for counts and single measurements).
  std::size_t samples = 1;
  /// Which statistic, e.g. "p50", "p90 of 180", "median of 3".
  std::string how;
};

/// What one run of one workload reports. `attempted`/`failed` count
/// operations (solves or requests); a failure is an error, an invalid
/// placement, a mismatch against the setup reference, or a request
/// slower than the wedge limit.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (tables, notes).
  std::vector<std::string> lines;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& how = "");
  void note(const std::string& line) { lines.push_back(line); }
  void fail(const std::string& why);
};

/// Nearest-rank quantile: the smallest sample with at least q·n samples
/// at or below it. Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it, so a tail figure never rests on a handful of points.
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
  [[nodiscard]] std::string label() const;
};
[[nodiscard]] Tail tail(const std::vector<double>& values);

/// Seconds on a monotonic clock since an arbitrary fixed origin.
[[nodiscard]] double now_seconds();
[[nodiscard]] std::int64_t now_ns();

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Heap allocations made by this process so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t allocations();

/// splitmix64 step: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Workload entry points.
[[nodiscard]] Report run_batch(const Options& options);
[[nodiscard]] Report run_serve_mix(const Options& options);

}  // namespace perfbench
