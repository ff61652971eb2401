// mecoff benchmark: entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints a human-readable table, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& how) {
  metrics.push_back({name, value, unit, samples, how});
}

void Report::fail(const std::string& why) {
  if (failed < 5) note("FAILED: " + why);
  ++failed;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::string Tail::label() const {
  return "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
         " of " + std::to_string(samples);
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  const auto n = static_cast<double>(values.size());
  for (const double q : {0.99, 0.9, 0.5}) {
    if (n - std::ceil(q * n) >= 10.0 || q == 0.5) {
      t.q = q;
      t.value = quantile(values, q);
      break;
    }
  }
  return t;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<distinct_users|weak_compression|crowd|serve_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

void print(const Options& options, const Report& report) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("  %-30s %16s %-6s %8s  %s\n", "metric", "value", "unit",
              "samples", "statistic");
  for (const perfbench::Metric& m : report.metrics)
    std::printf("  %-30s %16.6g %-6s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.how.c_str());

  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = report.failed == 0 && report.attempted > 0 && finite;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  const bool batch = perfbench::is_batch_workload(options.workload);
  if (!batch && options.workload != "serve_mix")
    return usage(("unknown workload " + options.workload).c_str());

  Report report;
  try {
    report = batch ? perfbench::run_batch(options)
                   : perfbench::run_serve_mix(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!options.trace) {
    report.add("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::size_t>(
                             report.attempted, 1)),
               "ratio", report.attempted, "operations that passed every check");
    report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB", 1,
               "getrusage ru_maxrss");
  }
  print(options, report);
  return 0;
}
