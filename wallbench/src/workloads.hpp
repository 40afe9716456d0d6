// The benchmark's workloads. Each runs its timed phase for
// RunConfig::seconds, checks every timed answer, and fills an Outcome with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run: an untraced and a traced phase of half that time each, back to back,
// then replays).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace wallbench {

/// Cold evaluations of a 512-stage pipeline; `cyclic` adds seeded back edges.
Outcome run_long_flow(const RunConfig& config, bool cyclic);

/// The serve daemon under a seeded eval/batch/write mix at 2 connections.
Outcome run_serve_mix(const RunConfig& config);

// -- replay shared by the workloads (traced run, after the timed phases) ------

/// json::parse and dsl::load_assembly of `spec` (spans json.parse and
/// dsl.load), 5 times. Sets json.spec_parse_ms and dsl.load_ms (medians).
void replay_spec_loads(const std::string& spec, Tracer& tracer, Outcome& outcome);

// -- shared by the workloads and the self-test -------------------------------

/// Stage count of the long-flow workloads.
inline constexpr std::size_t kLongStages = 512;

/// Seeded return probabilities of the cyclic pipeline: back[i] ∈ [0.05, 0.2]
/// for every stage i >= 1, back[0] = 0.
std::vector<double> cyclic_back_probabilities(std::size_t stages, std::uint64_t seed);

/// The cyclic pipeline as a spec document (JSON text): the stages of
/// scenarios::make_chain_assembly with its default rates, where stage
/// i >= 1 moves back to stage i−1 with probability back[i].
std::string cyclic_chain_spec(const std::vector<double>& back);

/// The default rates make_chain_assembly uses (φ, λ, s).
inline constexpr double kChainPhi = 1e-7;
inline constexpr double kChainLambda = 1e-9;
inline constexpr double kChainSpeed = 1e9;

}  // namespace wallbench
