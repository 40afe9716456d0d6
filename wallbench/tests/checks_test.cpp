// Self-test of the benchmark's correctness checks. For every check: the
// real answer passes, and a perturbed expected value (or a perturbed
// response) registers as a failure — so a check that could never fail is
// caught here. Exit 0 iff every case behaves as stated.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sorel/core/engine.hpp"
#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/scenarios/synthetic.hpp"
#include "sorel/serve/server.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

using wallbench::checks::agrees;

void acyclic_controls() {
  using namespace wallbench;
  const sorel::core::Assembly chain = sorel::scenarios::make_chain_assembly(kLongStages);
  sorel::core::ReliabilityEngine engine(chain);
  const double work = 2345.0;
  const double got = engine.pfail("pipeline", {work});
  const double expected = checks::chain_pfail(kLongStages, work, kChainPhi, kChainLambda, kChainSpeed);
  expect(agrees(got, expected, checks::kClosedFormTolerance),
         "acyclic: engine agrees with the closed form");
  expect(!agrees(got, expected * (1 + 1e-9), checks::kClosedFormTolerance),
         "acyclic: perturbed closed form fails");
  expect(!agrees(got, checks::chain_pfail(kLongStages - 1, work, kChainPhi, kChainLambda, kChainSpeed),
                 checks::kClosedFormTolerance),
         "acyclic: closed form of a 511-stage chain fails");
}

void cyclic_controls() {
  using namespace wallbench;
  const std::vector<double> back = cyclic_back_probabilities(kLongStages, 7);
  const sorel::core::Assembly chain =
      sorel::dsl::load_assembly(sorel::json::parse(cyclic_chain_spec(back)));
  sorel::core::ReliabilityEngine engine(chain);
  const double work = 1500.0;
  const double got = engine.pfail("pipeline", {work});
  const double log_success = checks::stage_log_success(work, kChainPhi, kChainLambda, kChainSpeed);
  const double expected = checks::cyclic_chain_pfail(back, log_success);
  std::printf("     cyclic |engine - tridiagonal| = %.3g\n", got - expected);
  expect(agrees(got, expected, checks::kTridiagonalTolerance),
         "cyclic: engine agrees with the tridiagonal solve");
  expect(!agrees(got, expected + 1e-9, checks::kTridiagonalTolerance),
         "cyclic: perturbed tridiagonal value fails");
  std::vector<double> moved = back;
  moved[kLongStages / 2] += 1e-3;
  expect(!agrees(got, checks::cyclic_chain_pfail(moved, log_success), checks::kTridiagonalTolerance),
         "cyclic: oracle of a flow with one moved back edge fails");
  expect(agrees(checks::cyclic_chain_pfail(std::vector<double>(kLongStages, 0.0), log_success),
                checks::chain_pfail(kLongStages, work, kChainPhi, kChainLambda, kChainSpeed),
                checks::kClosedFormTolerance),
         "cyclic: tridiagonal solve without back edges equals the acyclic closed form");
}

void serve_controls() {
  const sorel::json::Value spec =
      sorel::dsl::save_assembly(sorel::scenarios::make_partitioned_assembly(16, 16));
  const std::string line =
      "{\"op\":\"eval\",\"service\":\"app\",\"attributes\":{\"g0_s0.p\":0.0002,\"g3_s4.p\":0.00031}}";
  sorel::serve::Server reference(spec, sorel::serve::Server::Options{});
  const std::string expected = reference.handle_line(line);
  sorel::resil::RequestOutcome answer;
  answer.response = expected;
  answer.transport_ok = true;
  answer.ok = true;
  expect(wallbench::checks::response_matches(answer, expected), "serve: identical response passes");

  sorel::resil::RequestOutcome perturbed = answer;
  const std::size_t digit = perturbed.response.find_last_of("0123456789");
  perturbed.response[digit] = perturbed.response[digit] == '9' ? '8' : '9';
  expect(!wallbench::checks::response_matches(perturbed, expected),
         "serve: response with one changed digit fails");
  sorel::resil::RequestOutcome refused = answer;
  refused.ok = false;
  expect(!wallbench::checks::response_matches(refused, expected), "serve: non-ok response fails");
  sorel::resil::RequestOutcome gave_up;
  expect(!wallbench::checks::response_matches(gave_up, expected), "serve: client give-up fails");
}

}  // namespace

int main() {
  acyclic_controls();
  cyclic_controls();
  serve_controls();
  std::printf("%s: %d case(s) failed\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
