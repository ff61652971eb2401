// Workload inputs, generated from the run seed. The program under test
// only ever sees these generated systems and requests.
#pragma once

#include <cstdint>
#include <string>

#include "mec/model.hpp"
#include "mec/offloader.hpp"

namespace perfbench {

/// A NETGEN application of `nodes` functions and about `edges` edges,
/// with one pinned UI cluster per software component and amplified
/// UI-boundary traffic: the repository's paper-figure workload shape.
[[nodiscard]] mecoff::mec::UserApp make_app(std::size_t nodes,
                                            std::size_t edges,
                                            std::uint64_t seed);

/// Cost/channel parameters for single-user solves (a modest server
/// slice) and for the shared multi-user server.
[[nodiscard]] mecoff::mec::SystemParams single_user_params();
[[nodiscard]] mecoff::mec::SystemParams multiuser_params();

/// Serial spectral pipeline with LPA coupling threshold `w` (10 is the
/// NETGEN light/heavy edge boundary the paper figures use).
[[nodiscard]] mecoff::mec::PipelineOptions pipeline_options(double w);

/// One batch workload: the systems its operations solve in turn, and
/// how. Several systems per run average out how much any one generated
/// input happens to cost.
struct BatchInput {
  std::vector<mecoff::mec::MecSystem> systems;
  mecoff::mec::PipelineOptions options;
};

[[nodiscard]] bool is_batch_workload(const std::string& name);
[[nodiscard]] BatchInput make_batch_input(const std::string& name,
                                          std::uint64_t seed);

}  // namespace perfbench
