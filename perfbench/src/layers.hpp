// Per-layer measurements shared by every workload's traced run.
#pragma once

#include <vector>

#include "bench.hpp"
#include "mec/offloader.hpp"
#include "serve/solve_service.hpp"
#include "trace.hpp"

namespace perfbench {

/// Traced pipeline phase: for `seconds`, alternate a plain
/// PipelineOffloader::solve and a traced replay over `systems` in
/// order (at least one full pass), check both against `references`,
/// and report the graph / lpa / linalg / spectral / mec metrics plus
/// obs.trace_overhead and bench.alloc_per_solve. Returns the seconds
/// the benchmark itself spent checking each plain solve's output.
[[nodiscard]] std::vector<double> measure_pipeline_layers(
    const std::vector<mecoff::mec::MecSystem>& systems,
    const std::vector<mecoff::mec::OffloadingScheme>& references,
    const mecoff::mec::PipelineOptions& options, double seconds,
    Tracer& tracer, Report& report);

/// One answered request, as the serve metrics need it.
struct RequestSample {
  double latency_s = 0.0;  ///< due → response
  double service_s = 0.0;  ///< issue → response
  double solo_solve_s = 0.0;  ///< setup-time solve of the same app
  mecoff::serve::SolveSource source = mecoff::serve::SolveSource::kSolved;
};

/// serve.* metrics from answered requests, the service's counters and
/// a fingerprint_request probe over `apps`.
void report_serve_layers(const std::vector<RequestSample>& samples,
                         const mecoff::serve::SolveService::Stats& stats,
                         const std::vector<mecoff::serve::SolveRequest>& apps,
                         Report& report);

/// Append a request's spans: root "request" [due, done] with children
/// "serve.lag" [due, issue] and "serve.<source>" [issue, done].
void trace_request(Tracer& tracer, std::uint64_t id, std::int64_t due_ns,
                   std::int64_t issue_ns, std::int64_t done_ns,
                   mecoff::serve::SolveSource source);

}  // namespace perfbench
