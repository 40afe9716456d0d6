// Independent oracles for every answer the benchmark times. None of them
// calls the code path under test: the acyclic 512-stage chain is checked
// against its product form, the cyclic chain against an O(n) tridiagonal
// solve written here, and daemon responses against a fresh in-process
// server.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sorel/resil/client.hpp"

namespace wallbench::checks {

/// Closed-form agreement bound for the acyclic chain (the repository's
/// oracle tests use the same 1e-12).
inline constexpr double kClosedFormTolerance = 1e-12;

/// Bound on |engine − tridiagonal| for the cyclic chain. Dense LU and
/// Gauss–Seidel agree with each other to ~3e-14 on the 512-stage chain; the
/// tridiagonal elimination is diagonally dominant and stable, so 1e-12
/// leaves more than an order of magnitude of headroom.
inline constexpr double kTridiagonalTolerance = 1e-12;

/// |got − expected| <= tolerance, false for non-finite values.
bool agrees(double got, double expected, double tolerance);

/// log of one stage's success probability: cpu(work) with rate λ and speed
/// s, plus per-operation software failure φ over `work` operations
/// (eqs. 1 and 14): log((1−φ)^work · e^(−λ·work/s)).
double stage_log_success(double work, double phi, double lambda, double speed);

/// Pfail of `stages` such stages in series: 1 − (e^(−λ·work/s)·(1−φ)^work)^stages.
double chain_pfail(std::size_t stages, double work, double phi, double lambda,
                   double speed);

/// Pfail of the cyclic chain: Start → stage 0; stage i ≥ 1 returns to stage
/// i−1 with probability back[i] and moves on with 1 − back[i] (the last
/// stage moves on to End); every stage succeeds with exp(log_success).
/// back[0] is ignored. Solved by Thomas elimination in O(n).
double cyclic_chain_pfail(const std::vector<double>& back, double log_success);

/// A daemon answer passes when the transport delivered it, it says ok, and
/// it is byte-identical to the reference response.
bool response_matches(const sorel::resil::RequestOutcome& outcome,
                      const std::string& expected);

}  // namespace wallbench::checks
