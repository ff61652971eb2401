// Batch workloads (distinct_users, weak_compression, crowd): every
// operation is one serial PipelineOffloader::solve of one of the
// workload's systems, taken in turn; closed loop, single-threaded.
#include <cstdio>

#include "bench.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "mec/costs.hpp"
#include "serve/solve_service.hpp"

namespace perfbench {

using namespace mecoff;

namespace {

/// op_ms_p90 needs at least this many solves to have ten samples
/// beyond it; the loop runs past --seconds until it has them,
/// but never past kMaxSecondsFactor times --seconds.
constexpr std::size_t kMinSolves = 100;
constexpr double kMaxSecondsFactor = 3.0;
constexpr int kSetups = 3;

struct Setup {
  BatchInput input;
  std::vector<mec::OffloadingScheme> reference;  ///< one per system
  double objective = 0.0;   ///< Σ E+T of the reference schemes
  double all_local = 0.0;   ///< Σ E+T with every function on the device
};

/// Generate the inputs, solve each system once for its reference scheme
/// (which also warms every code path), and evaluate it.
Setup set_up(const Options& options) {
  Setup s;
  s.input = make_batch_input(options.workload, options.seed);
  mec::PipelineOffloader offloader(s.input.options);
  for (const mec::MecSystem& system : s.input.systems) {
    s.reference.push_back(offloader.solve(system));
    s.objective += mec::evaluate(system, s.reference.back()).objective();
    s.all_local +=
        mec::evaluate(system, mec::OffloadingScheme::all_local(system))
            .objective();
  }
  return s;
}

/// The serve layer on this workload's distinct apps, in the traced run:
/// one cold miss per app, then hits cycling over the apps.
void serve_probe(const Setup& setup, Tracer& tracer, Report& report) {
  mec::PipelineOptions solver = setup.input.options;
  const std::size_t period = solver.identical_user_period;
  solver.identical_user_period = 0;
  std::vector<serve::SolveRequest> requests;
  std::vector<std::vector<mec::Placement>> reference;
  std::vector<double> solo_s;
  for (const mec::MecSystem& system : setup.input.systems) {
    const std::size_t apps = period > 0 ? std::min(period, system.num_users())
                                        : system.num_users();
    for (std::size_t a = 0; a < apps; ++a) {
      requests.push_back({system.users[a], system.params});
      const mec::MecSystem single{system.params, {system.users[a]}};
      mec::PipelineOffloader offloader(solver);
      const double t0 = now_seconds();
      mec::OffloadingScheme scheme = offloader.solve(single);
      solo_s.push_back(now_seconds() - t0);
      reference.push_back(std::move(scheme.placement.front()));
    }
  }
  serve::SolveServiceOptions service_options;
  service_options.shards = 1;
  service_options.cache.capacity = 64;
  service_options.solver = solver;
  serve::SolveService service(service_options);

  constexpr std::size_t kHits = 1100;
  const std::size_t apps = requests.size();
  std::vector<RequestSample> samples;
  for (std::size_t i = 0; i < apps + kHits; ++i) {
    const std::size_t a = i % apps;
    const std::int64_t issue = now_ns();
    const Result<serve::SolveResponse> r = service.solve(requests[a]);
    const std::int64_t done = now_ns();
    ++report.attempted;
    if (!r.ok()) {
      report.fail("serve probe: request error");
      continue;
    }
    const serve::SolveResponse& response = r.value();
    if (!response.degraded && response.placement != reference[a])
      report.fail("serve probe: placement differs from the reference");
    trace_request(tracer, response.request_id, issue, issue, done,
                  response.source);
    const double seconds = static_cast<double>(done - issue) * 1e-9;
    samples.push_back({seconds, seconds, solo_s[a], response.source});
  }
  report_serve_layers(samples, service.stats(), requests, report);
}

}  // namespace

Report run_batch(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_seconds();
    Setup s = set_up(options);
    setup_s.push_back(now_seconds() - t0);
    if (i > 0) {
      ++report.attempted;
      if (s.objective != setup.objective)
        report.fail("setup references differ between repeated setups");
    }
    setup = std::move(s);
  }
  const std::vector<mec::MecSystem>& systems = setup.input.systems;
  for (std::size_t k = 0; k < systems.size(); ++k) {
    ++report.attempted;
    if (!setup.reference[k].valid_for(systems[k]))
      report.fail("reference scheme is not a valid placement");
  }

  if (options.trace) {
    Tracer tracer;
    Tracer serve_tracer;
    const std::vector<double> check_s =
        measure_pipeline_layers(systems, setup.reference, setup.input.options,
                                options.seconds, tracer, report);
    serve_probe(setup, serve_tracer, report);
    const Tail lag = tail(check_s);
    report.add("bench.generator_lag_ms_tail", 1e3 * lag.value, "ms",
               lag.samples, lag.label() + " of the check time between solves");
    for (const std::string& line : self_time_table({&serve_tracer}, "request"))
      report.note(line);
    if (!options.spans_path.empty() &&
        !write_spans({&tracer, &serve_tracer}, options.spans_path))
      report.note("WARNING: could not write spans to " + options.spans_path);
    return report;
  }

  // Solve the systems in turn. A round is one solve of each system; its
  // mean solve time averages over the generated inputs.
  mec::PipelineOffloader offloader(setup.input.options);
  std::vector<double> solve_ms;
  std::vector<double> round_ms;
  double round_sum = 0.0;
  const double start = now_seconds();
  double elapsed = 0.0;
  for (std::size_t op = 0;
       (elapsed < options.seconds || solve_ms.size() < kMinSolves ||
        op % systems.size() != 0) &&
       elapsed < kMaxSecondsFactor * options.seconds;
       ++op) {
    const std::size_t k = op % systems.size();
    const double t0 = now_seconds();
    const mec::OffloadingScheme scheme = offloader.solve(systems[k]);
    const double ms = 1e3 * (now_seconds() - t0);
    solve_ms.push_back(ms);
    round_sum += ms;
    if (k + 1 == systems.size()) {
      round_ms.push_back(round_sum / static_cast<double>(systems.size()));
      round_sum = 0.0;
    }
    ++report.attempted;
    if (scheme.placement != setup.reference[k].placement)
      report.fail("scheme differs from the setup reference");
    elapsed = now_seconds() - start;
  }
  const std::size_t n = solve_ms.size();
  // Drift check: a solve that slows as the run goes on shows here.
  const auto half = static_cast<long>(round_ms.size() / 2);
  char drift[120];
  std::snprintf(drift, sizeof drift,
                "  round mean first half p50 %.3f ms, second half p50 %.3f ms",
                median({round_ms.begin(), round_ms.begin() + half}),
                median({round_ms.begin() + half, round_ms.end()}));
  report.note(drift);
  const std::string per_system =
      std::to_string(systems.size()) + " system" +
      (systems.size() > 1 ? "s" : "");
  report.add("setup_s", median(setup_s), "s", setup_s.size(),
             "median of " + std::to_string(setup_s.size()) + " setups");
  report.add("op_ms_p50", median(round_ms), "ms", round_ms.size(),
             "p50 over " + std::to_string(round_ms.size()) +
                 " rounds of the mean solve time (" + per_system + ")");
  report.add("op_ms_p90", quantile(solve_ms, 0.9), "ms", n,
             "p90 of " + std::to_string(n) + " solves");
  report.add("goodput_per_s", static_cast<double>(n) / elapsed, "1/s", n,
             "solves per second, closed loop");
  report.add("objective_ratio", setup.objective / setup.all_local, "ratio",
             systems.size(), "E+T of the reference schemes / all-local E+T");
  return report;
}

}  // namespace perfbench
