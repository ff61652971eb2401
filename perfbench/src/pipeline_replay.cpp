#include "pipeline_replay.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "graph/components.hpp"
#include "graph/subgraph.hpp"
#include "kl/kernighan_lin.hpp"
#include "lpa/pipeline.hpp"
#include "mec/greedy.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/splitter.hpp"

namespace perfbench {

using namespace mecoff;

namespace {

/// SpectralBipartitioner::bipartition, one layer call per span.
graph::Bipartition spectral_cut(const graph::WeightedGraph& g,
                                const spectral::SpectralOptions& options,
                                Tracer& tracer, ReplayResult& result,
                                bool keep_eigen_graphs, bool& converged) {
  SpanScope span(tracer, "spectral.cut");
  converged = true;
  graph::Bipartition out;
  out.side.assign(g.num_nodes(), 0);
  out.cut_weight = 0.0;
  if (g.num_nodes() < 2) return out;
  // A disconnected graph already has a zero cut: the smallest
  // component goes to side 1.
  const graph::ComponentLabels comps = graph::connected_components(g);
  if (comps.count > 1) {
    std::vector<std::size_t> sizes(comps.count, 0);
    for (const std::uint32_t c : comps.component_of) ++sizes[c];
    const auto smallest = static_cast<std::uint32_t>(
        std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
      out.side[v] = comps.component_of[v] == smallest ? 1 : 0;
    return out;
  }
  spectral::FiedlerResult fiedler;
  {
    SpanScope s(tracer, "spectral.fiedler");
    fiedler = spectral::fiedler_pair(g, options.fiedler);
  }
  ++result.counts.fiedler_calls;
  result.counts.matvecs += fiedler.matvec_count;
  if (fiedler.converged) ++result.counts.fiedler_converged;
  if (keep_eigen_graphs) {
    result.eigen_graphs.push_back(g);
    result.eigen_matvecs.push_back(fiedler.matvec_count);
  }
  converged = fiedler.converged;
  SpanScope s(tracer, "spectral.split");
  return spectral::split_by_policy(g, fiedler.vector, options.split);
}

}  // namespace

ReplayResult replay_solve(const mec::MecSystem& system,
                          const mec::PipelineOptions& options, Tracer& tracer,
                          bool keep_eigen_graphs) {
  if (options.backend != mec::CutBackend::kSpectral ||
      options.pool != nullptr || !options.deadline.unlimited() ||
      options.spectral.fiedler.pool != nullptr ||
      options.spectral.fiedler.warm_start != nullptr)
    throw std::invalid_argument("replay_solve: unsupported options");
  ReplayResult result;
  SpanScope solve_span(tracer, "solve");

  const std::size_t num_users = system.num_users();
  const std::size_t period = options.identical_user_period;
  const std::size_t distinct =
      period > 0 ? std::min(period, num_users) : num_users;
  std::vector<std::vector<mec::Part>> user_parts(distinct);

  for (std::size_t u = 0; u < distinct; ++u) {
    const mec::UserApp& user = system.users[u];
    if (!user.components.empty())
      throw std::invalid_argument("replay_solve: declared components");
    const std::vector<bool> mask =
        user.unoffloadable.empty()
            ? std::vector<bool>(user.graph.num_nodes(), false)
            : user.unoffloadable;

    // Algorithm 1 (lpa::compress_application): remove, split, then
    // propagate and merge per component.
    lpa::CompressionPipelineResult pipeline;
    {
      SpanScope compress(tracer, "lpa.compress");
      {
        SpanScope s(tracer, "graph.remove");
        pipeline.offloadable = graph::remove_nodes(user.graph, mask);
      }
      std::vector<std::vector<graph::NodeId>> node_lists;
      {
        SpanScope s(tracer, "graph.components");
        node_lists = graph::component_node_lists(
            graph::connected_components(pipeline.offloadable.graph));
      }
      pipeline.components.resize(node_lists.size());
      for (std::size_t c = 0; c < node_lists.size(); ++c) {
        lpa::CompressedComponent& comp = pipeline.components[c];
        {
          SpanScope s(tracer, "graph.induce");
          comp.component = graph::induced_subgraph(pipeline.offloadable.graph,
                                                   node_lists[c]);
        }
        ++result.counts.induce_calls;
        {
          SpanScope s(tracer, "lpa.propagate");
          comp.propagation =
              lpa::propagate_labels(comp.component.graph, options.propagation);
        }
        result.counts.lpa_rounds += comp.propagation.rounds;
        {
          SpanScope s(tracer, "lpa.merge");
          comp.compression = lpa::compress_by_labels(comp.component.graph,
                                                     comp.propagation.labels);
        }
        result.counts.lpa_nodes_in += comp.component.graph.num_nodes();
        result.counts.lpa_nodes_out += comp.compression.compressed.num_nodes();
      }
    }

    // Cut every compressed component, then turn the cut sides into
    // greedy parts with Algorithm 2's initialization (as offloader.cpp).
    std::unique_ptr<kl::KernighanLinBipartitioner> kl_fallback;
    std::vector<mec::Part>& parts = user_parts[u];
    for (std::size_t c = 0; c < pipeline.components.size(); ++c) {
      const lpa::CompressedComponent& comp = pipeline.components[c];
      const graph::WeightedGraph& g = comp.compression.compressed;
      bool converged = true;
      graph::Bipartition cut = spectral_cut(g, options.spectral, tracer,
                                            result, keep_eigen_graphs,
                                            converged);
      if (!converged) {
        SpanScope s(tracer, "kl.cut");
        if (kl_fallback == nullptr)
          kl_fallback = std::make_unique<kl::KernighanLinBipartitioner>(
              options.kl);
        cut = kl_fallback->bipartition(g);
      }

      SpanScope s(tracer, "mec.parts");
      std::array<mec::Part, 2> sides;
      std::array<double, 2> pinned_boundary{0.0, 0.0};
      for (std::uint8_t side = 0; side <= 1; ++side) {
        mec::Part& part = sides[side];
        part.user = u;
        part.group = c;
        for (graph::NodeId super = 0; super < g.num_nodes(); ++super) {
          if (cut.side[super] != side) continue;
          for (const graph::NodeId orig : pipeline.original_members(c, super)) {
            part.nodes.push_back(orig);
            part.weight += user.graph.node_weight(orig);
            for (const graph::Adjacency& adj : user.graph.neighbors(orig))
              if (mask[adj.neighbor]) pinned_boundary[side] += adj.weight;
          }
        }
      }
      if (options.anchor_initial_parts) {
        const mec::SystemParams& params = system.params;
        const double lf = (options.greedy.time_weight +
                           options.greedy.energy_weight * params.mobile_power) /
                          params.mobile_capacity;
        const double cf =
            (options.greedy.time_weight +
             options.greedy.energy_weight * params.transmit_power) /
            params.bandwidth;
        const double mc = options.greedy.time_weight / params.server_capacity;
        const double wa = sides[0].weight;
        const double wb = sides[1].weight;
        const double pba = pinned_boundary[0];
        const double pbb = pinned_boundary[1];
        const double cost_rr = cf * (pba + pbb) + mc * (wa + wb);
        const double cost_a = lf * wa + cf * (pbb + cut.cut_weight) + mc * wb;
        const double cost_b = lf * wb + cf * (pba + cut.cut_weight) + mc * wa;
        if (cost_a < cost_rr && cost_a <= cost_b && !sides[0].nodes.empty())
          sides[0].initially_local = true;
        else if (cost_b < cost_rr && !sides[1].nodes.empty())
          sides[1].initially_local = true;
      }
      for (mec::Part& part : sides)
        if (!part.nodes.empty()) parts.push_back(std::move(part));
    }
  }

  // Replicated users take their prototype's parts, in user order.
  std::vector<mec::Part> all_parts;
  {
    SpanScope s(tracer, "mec.collect");
    for (std::size_t u = 0; u < num_users; ++u) {
      for (mec::Part part : user_parts[period > 0 ? u % period : u]) {
        part.user = u;
        all_parts.push_back(std::move(part));
      }
    }
  }
  result.counts.parts = all_parts.size();
  SpanScope s(tracer, "mec.greedy");
  mec::GreedyResult greedy =
      mec::generate_scheme(system, all_parts, options.greedy);
  result.counts.greedy_moves = greedy.moves;
  result.scheme = std::move(greedy.scheme);
  return result;
}

}  // namespace perfbench
