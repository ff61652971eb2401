// The traced twin of PipelineOffloader::solve: the same cold, serial,
// spectral-backend solve, rebuilt from each layer's public functions so
// the benchmark can put a span around every layer call. The scheme it
// returns must be byte-identical to PipelineOffloader::solve's; the
// caller checks that against the setup reference, which is what shows
// the replay measures the real pipeline.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.hpp"
#include "mec/offloader.hpp"
#include "trace.hpp"

namespace perfbench {

/// Deterministic work counts of one replayed solve.
struct ReplayCounts {
  std::size_t induce_calls = 0;
  std::size_t lpa_rounds = 0;
  std::size_t lpa_nodes_in = 0;   ///< component nodes before merging
  std::size_t lpa_nodes_out = 0;  ///< super-nodes after merging
  std::size_t fiedler_calls = 0;
  std::size_t fiedler_converged = 0;
  std::size_t matvecs = 0;
  std::size_t parts = 0;
  std::size_t greedy_moves = 0;

  [[nodiscard]] bool operator==(const ReplayCounts&) const = default;
};

struct ReplayResult {
  mecoff::mec::OffloadingScheme scheme;
  ReplayCounts counts;
  /// Graphs each eigensolve ran on and its matvec count, kept only when
  /// asked for (the SpMV probe replays exactly these matvecs).
  std::vector<mecoff::graph::WeightedGraph> eigen_graphs;
  std::vector<std::size_t> eigen_matvecs;
};

/// Replay one solve of `system`. Supports what the benchmark uses:
/// spectral backend, no pool, no deadline, no warm start, no declared
/// software components (throws std::invalid_argument otherwise).
[[nodiscard]] ReplayResult replay_solve(
    const mecoff::mec::MecSystem& system,
    const mecoff::mec::PipelineOptions& options, Tracer& tracer,
    bool keep_eigen_graphs);

}  // namespace perfbench
