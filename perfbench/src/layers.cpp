#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "linalg/laplacian.hpp"
#include "mec/costs.hpp"
#include "pipeline_replay.hpp"
#include "serve/fingerprint.hpp"

namespace perfbench {

using namespace mecoff;

namespace {

void add_counts(ReplayCounts& into, const ReplayCounts& c) {
  into.induce_calls += c.induce_calls;
  into.lpa_rounds += c.lpa_rounds;
  into.lpa_nodes_in += c.lpa_nodes_in;
  into.lpa_nodes_out += c.lpa_nodes_out;
  into.fiedler_calls += c.fiedler_calls;
  into.fiedler_converged += c.fiedler_converged;
  into.matvecs += c.matvecs;
  into.parts += c.parts;
  into.greedy_moves += c.greedy_moves;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Replay the matvecs each eigensolve of one solve performed, on the
/// same Laplacians, outside the solve: the SpMV part of fiedler time.
struct SpmvProbe {
  double laplacian_s = 0.0;
  double spmv_s = 0.0;
  std::size_t matvecs = 0;
};

SpmvProbe spmv_probe(const ReplayResult& replay, Tracer& tracer) {
  SpmvProbe probe;
  const std::size_t first = tracer.size();
  for (std::size_t i = 0; i < replay.eigen_graphs.size(); ++i) {
    const graph::WeightedGraph& g = replay.eigen_graphs[i];
    const std::int32_t lap_span = tracer.begin("linalg.laplacian");
    const linalg::SparseMatrix lap = linalg::laplacian(g);
    tracer.end(lap_span);
    linalg::Vec x(g.num_nodes());
    for (std::size_t k = 0; k < x.size(); ++k)
      x[k] = 1.0 / static_cast<double>(k + 1);
    linalg::Vec y(g.num_nodes(), 0.0);
    const std::int32_t spmv_span = tracer.begin("linalg.spmv");
    for (std::size_t m = 0; m < replay.eigen_matvecs[i]; ++m)
      lap.multiply_into(x, y);
    tracer.end(spmv_span);
    probe.matvecs += replay.eigen_matvecs[i];
  }
  const std::map<std::string, double> totals = tracer.totals_since(first);
  if (totals.count("linalg.laplacian"))
    probe.laplacian_s = totals.at("linalg.laplacian");
  if (totals.count("linalg.spmv")) probe.spmv_s = totals.at("linalg.spmv");
  return probe;
}

}  // namespace

std::vector<double> measure_pipeline_layers(
    const std::vector<mec::MecSystem>& systems,
    const std::vector<mec::OffloadingScheme>& references,
    const mec::PipelineOptions& options, double seconds, Tracer& tracer,
    Report& report) {
  const std::size_t units = systems.size();
  mec::PipelineOffloader offloader(options);
  std::vector<double> plain_s;
  std::vector<double> stats_greedy_s;
  std::vector<double> check_s;
  std::map<std::string, std::vector<double>> per_op;
  std::vector<double> compress_share;
  std::vector<double> cut_share;
  std::vector<double> greedy_share;
  std::vector<ReplayCounts> unit_counts(units);
  std::vector<std::uint64_t> unit_allocs(units, 0);
  ReplayCounts pass_counts;
  bool repeatable = true;
  std::size_t alloc_changes = 0;
  SpmvProbe probe;
  double probe_fiedler_s = 0.0;

  const auto check = [&](const mec::OffloadingScheme& scheme, std::size_t u,
                         const char* what) {
    ++report.attempted;
    if (!scheme.valid_for(systems[u]) ||
        scheme.placement != references[u].placement)
      report.fail(std::string(what) + " scheme differs from the reference");
  };

  const double start = now_seconds();
  for (std::size_t op = 0; op < units || now_seconds() - start < seconds;
       ++op) {
    const std::size_t u = op % units;
    const mec::MecSystem& system = systems[u];

    const std::uint64_t a0 = allocations();
    const double t0 = now_seconds();
    const mec::OffloadingScheme plain = offloader.solve(system);
    const double t1 = now_seconds();
    const std::uint64_t allocs = allocations() - a0;
    plain_s.push_back(t1 - t0);
    stats_greedy_s.push_back(offloader.last_stats().greedy_seconds);
    check(plain, u, "solve");
    check_s.push_back(now_seconds() - t1);

    const std::size_t first = tracer.size();
    const ReplayResult replay = replay_solve(system, options, tracer, op == 0);
    {
      SpanScope s(tracer, "mec.evaluate");
      const mec::SystemCost cost = mec::evaluate(system, replay.scheme);
      if (!(cost.objective() > 0.0)) report.fail("non-positive objective");
    }
    check(replay.scheme, u, "replayed");

    const std::map<std::string, double> totals = tracer.totals_since(first);
    const auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    for (const char* name :
         {"solve", "lpa.compress", "lpa.propagate", "lpa.merge",
          "spectral.cut", "spectral.fiedler", "spectral.split", "mec.greedy",
          "mec.evaluate"})
      per_op[name].push_back(total(name));
    per_op["graph.split"].push_back(total("graph.remove") +
                                    total("graph.components") +
                                    total("graph.induce"));
    compress_share.push_back(ratio(total("lpa.compress"), total("solve")));
    cut_share.push_back(ratio(total("spectral.cut"), total("solve")));
    greedy_share.push_back(ratio(total("mec.greedy"), total("solve")));

    if (op < units) {
      unit_counts[u] = replay.counts;
      unit_allocs[u] = allocs;
      add_counts(pass_counts, replay.counts);
    } else {
      if (unit_counts[u] != replay.counts) repeatable = false;
      if (unit_allocs[u] != allocs) ++alloc_changes;
      unit_allocs[u] = std::min(unit_allocs[u], allocs);
    }
    if (op == 0) {
      probe = spmv_probe(replay, tracer);
      probe_fiedler_s = total("spectral.fiedler");
    }
  }
  if (!repeatable)
    report.note("WARNING: work counters differ between solves of one input");
  // Long-lived containers in the program (metric windows, the flight
  // recorder) now and then allocate during a solve. The fewest
  // allocations seen per input is the solve's own count.
  std::uint64_t min_allocs = 0;
  for (const std::uint64_t a : unit_allocs) min_allocs += a;
  if (alloc_changes > 0)
    report.note("note: " + std::to_string(alloc_changes) +
                " later solves allocated differently from the first pass");

  const double n = static_cast<double>(units);
  const std::size_t ops = plain_s.size();
  const auto med = [&](const char* name) { return median(per_op[name]); };
  const std::string how = "median of " + std::to_string(ops) + " solves";
  const std::string per_solve = "per solve";
  report.add("graph.split_s", med("graph.split"), "s", ops, how);
  report.add("graph.induce_calls", pass_counts.induce_calls / n, "count", 1,
             per_solve);
  report.add("lpa.compress_s", med("lpa.compress"), "s", ops, how);
  report.add("lpa.compress_share", median(compress_share), "ratio", ops, how);
  report.add("lpa.propagate_s", med("lpa.propagate"), "s", ops, how);
  report.add("lpa.merge_s", med("lpa.merge"), "s", ops, how);
  report.add("lpa.rounds", pass_counts.lpa_rounds / n, "count", 1, per_solve);
  report.add("lpa.node_reduction",
             1.0 - ratio(static_cast<double>(pass_counts.lpa_nodes_out),
                         static_cast<double>(pass_counts.lpa_nodes_in)),
             "ratio");
  report.add("linalg.laplacian_s", probe.laplacian_s, "s", 1,
             "probe on the first solve's eigensolve graphs");
  report.add("linalg.spmv_us_per_matvec",
             1e6 * ratio(probe.spmv_s, static_cast<double>(probe.matvecs)),
             "us", probe.matvecs, "mean over the probe's matvecs");
  report.add("linalg.spmv_share", ratio(probe.spmv_s, probe_fiedler_s),
             "ratio", 1, "probe SpMV time / first solve's fiedler time");
  report.add("spectral.cut_s", med("spectral.cut"), "s", ops, how);
  report.add("spectral.cut_share", median(cut_share), "ratio", ops, how);
  report.add("spectral.fiedler_s", med("spectral.fiedler"), "s", ops, how);
  report.add("spectral.split_s", med("spectral.split"), "s", ops, how);
  report.add("spectral.matvecs", pass_counts.matvecs / n, "count", 1,
             per_solve);
  report.add("spectral.converged_ratio",
             ratio(static_cast<double>(pass_counts.fiedler_converged),
                   static_cast<double>(pass_counts.fiedler_calls)),
             "ratio");
  report.add("mec.greedy_s", med("mec.greedy"), "s", ops, how);
  report.add("mec.greedy_share", median(greedy_share), "ratio", ops, how);
  report.add("mec.greedy_moves", pass_counts.greedy_moves / n, "count", 1,
             per_solve);
  report.add("mec.parts", pass_counts.parts / n, "count", 1, per_solve);
  report.add("mec.evaluate_s", med("mec.evaluate"), "s", ops, how);
  report.add("mec.greedy_stats_ratio",
             ratio(med("mec.greedy"), median(stats_greedy_s)), "ratio", ops,
             "replay greedy / SolveStats::greedy_seconds, medians");
  report.add("obs.trace_overhead", ratio(med("solve"), median(plain_s)),
             "ratio", ops, "traced replay p50 / plain solve p50");
  report.add("bench.alloc_per_solve", static_cast<double>(min_allocs) / n,
             "count", ops, "per solve, fewest seen per input");
  for (const std::string& line : self_time_table({&tracer}, "solve"))
    report.note(line);
  return check_s;
}

void report_serve_layers(const std::vector<RequestSample>& samples,
                         const serve::SolveService::Stats& stats,
                         const std::vector<serve::SolveRequest>& apps,
                         Report& report) {
  std::vector<double> req_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> queue_ms;
  for (const RequestSample& s : samples) {
    req_ms.push_back(1e3 * s.latency_s);
    if (s.source == serve::SolveSource::kCacheHit) {
      hit_ms.push_back(1e3 * s.service_s);
    } else if (s.source == serve::SolveSource::kSolved) {
      miss_ms.push_back(1e3 * s.service_s);
      queue_ms.push_back(1e3 * (s.service_s - s.solo_solve_s));
    }
  }
  // fingerprint_request on the same apps, timed call by call.
  std::vector<double> fp_us;
  const double start = now_seconds();
  for (std::size_t i = 0; fp_us.size() < 200 || now_seconds() - start < 0.05;
       ++i) {
    const serve::SolveRequest& r = apps[i % apps.size()];
    const double t0 = now_seconds();
    (void)serve::fingerprint_request(r.user, r.params);
    fp_us.push_back(1e6 * (now_seconds() - t0));
  }

  const auto count = [](std::size_t n) { return std::to_string(n); };
  report.add("serve.fingerprint_us", median(fp_us), "us", fp_us.size(),
             "median of " + count(fp_us.size()) + " calls");
  report.add("serve.req_ms_p99", quantile(req_ms, 0.99), "ms", req_ms.size(),
             "p99 of " + count(req_ms.size()) + " requests, from due");
  report.add("serve.hit_ms_p50", quantile(hit_ms, 0.5), "ms", hit_ms.size(),
             "p50 of " + count(hit_ms.size()) + " hits");
  report.add("serve.hit_ms_p99", quantile(hit_ms, 0.99), "ms", hit_ms.size(),
             "p99 of " + count(hit_ms.size()) + " hits");
  report.add("serve.miss_ms_p50", quantile(miss_ms, 0.5), "ms",
             miss_ms.size(), "p50 of " + count(miss_ms.size()) + " misses");
  report.add("serve.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms",
             queue_ms.size(), "miss latency - solo solve, p50");
  report.add("serve.hit_ratio",
             ratio(static_cast<double>(hit_ms.size()),
                   static_cast<double>(samples.size())),
             "ratio", samples.size());
  report.add("serve.evictions", static_cast<double>(stats.cache.evictions),
             "count");
  report.add("serve.coalesced", static_cast<double>(stats.coalesced), "count");
  report.add("serve.shed",
             static_cast<double>(stats.shed + stats.brownout_shed), "count");
}

void trace_request(Tracer& tracer, std::uint64_t id, std::int64_t due_ns,
                   std::int64_t issue_ns, std::int64_t done_ns,
                   serve::SolveSource source) {
  const char* name = "serve.miss";
  switch (source) {
    case serve::SolveSource::kSolved: name = "serve.miss"; break;
    case serve::SolveSource::kCacheHit: name = "serve.hit"; break;
    case serve::SolveSource::kCoalesced: name = "serve.coalesced"; break;
    case serve::SolveSource::kShed: name = "serve.shed"; break;
    case serve::SolveSource::kHedged: name = "serve.hedged"; break;
    case serve::SolveSource::kDeadlineDegraded: name = "serve.degraded"; break;
  }
  const std::int32_t root = tracer.begin("request", id, due_ns);
  tracer.end(tracer.begin("serve.lag", id, due_ns), issue_ns);
  tracer.end(tracer.begin(name, id, issue_ns), done_ns);
  tracer.end(root, done_ns);
}

}  // namespace perfbench
