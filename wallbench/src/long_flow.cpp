// long_flow_acyclic / long_flow_cyclic: cold evaluations of a 512-stage
// pipeline. An op is a fresh engine plus pfail("pipeline", {work}) with a
// seeded work. The absorption solve is nearly all of each op, so markov and
// linalg dominate here and nowhere else. The two shapes sit on either side
// of any solver choice made by flow shape: the acyclic chain is
// scenarios::make_chain_assembly(512); the cyclic one adds a seeded back
// edge to every stage after the first and is loaded from a spec document.
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "checks.hpp"
#include "sorel/core/engine.hpp"
#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/markov/absorbing.hpp"
#include "sorel/scenarios/synthetic.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wallbench {

std::vector<double> cyclic_back_probabilities(std::size_t stages, std::uint64_t seed) {
  sorel::util::Rng rng(seed);
  std::vector<double> back(stages, 0.0);
  for (std::size_t i = 1; i < stages; ++i) back[i] = rng.uniform(0.05, 0.2);
  return back;
}

std::string cyclic_chain_spec(const std::vector<double>& back) {
  using sorel::json::Array;
  using sorel::json::Object;
  using sorel::json::Value;
  const auto stage = [](std::size_t i) { return "stage" + std::to_string(i); };
  const auto edge = [](std::string from, std::string to, double p) {
    return Value(Object{{"from", Value(std::move(from))}, {"to", Value(std::move(to))}, {"p", Value(p)}});
  };
  Array states;
  Array transitions{edge("Start", stage(0), 1.0)};
  for (std::size_t i = 0; i < back.size(); ++i) {
    Object internal{{"model", Value("per_operation")}, {"phi", Value(kChainPhi)}, {"count", Value("work")}};
    Object request{{"port", Value("cpu")}, {"actuals", Value(Array{Value("work")})},
                   {"internal", Value(std::move(internal))}};
    states.push_back(Value(Object{{"name", Value(stage(i))},
                                  {"completion", Value("AND")},
                                  {"dependency", Value("no_sharing")},
                                  {"requests", Value(Array{Value(std::move(request))})}}));
    const std::string next = i + 1 < back.size() ? stage(i + 1) : std::string("End");
    if (i == 0) {
      transitions.push_back(edge(stage(0), next, 1.0));
    } else {
      transitions.push_back(edge(stage(i), stage(i - 1), back[i]));
      transitions.push_back(edge(stage(i), next, 1.0 - back[i]));
    }
  }
  Object flow{{"states", Value(std::move(states))}, {"transitions", Value(std::move(transitions))}};
  Object cpu{{"type", Value("cpu")}, {"name", Value("cpu")}, {"speed", Value(kChainSpeed)},
             {"failure_rate", Value(kChainLambda)}};
  Object pipeline{{"type", Value("composite")}, {"name", Value("pipeline")},
                  {"formals", Value(Array{Value("work")})}, {"flow", Value(std::move(flow))}};
  Object binding{{"service", Value("pipeline")}, {"port", Value("cpu")}, {"target", Value("cpu")}};
  Object document{{"services", Value(Array{Value(std::move(cpu)), Value(std::move(pipeline))})},
                  {"bindings", Value(Array{Value(std::move(binding))})}};
  return Value(std::move(document)).dump();
}

namespace {

using sorel::core::Assembly;
using sorel::core::ReliabilityEngine;

struct PhaseResult {
  BlockStats blocks;
  std::uint64_t ops = 0;
  double evaluations = 0, memo_hits = 0, states = 0, expr_evals = 0;
};

double seeded_work(sorel::util::Rng& rng) { return rng.uniform(100.0, 5000.0); }

// Runs cold ops for `seconds` of op time. `after_block` runs between blocks,
// outside any op's timing.
PhaseResult run_phase(const Assembly& assembly, const std::vector<double>& back,
                      bool cyclic, sorel::util::Rng& rng, double seconds, Tracer& tracer,
                      const std::function<void()>& after_block, Outcome& outcome) {
  PhaseResult result;
  const auto token = std::make_shared<const sorel::guard::CancelToken>();
  std::vector<double> block_latencies;
  double block_seconds = 0.0;
  double elapsed = 0.0;
  for (std::uint64_t op = 0; elapsed < seconds; ++op) {
    const double work = seeded_work(rng);
    double answer = 0.0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope op_span(tracer, "long.op", op);
      std::optional<ReliabilityEngine> engine;
      {
        Tracer::Scope span(tracer, "core.engine_new", op);
        engine.emplace(assembly);
      }
      if (tracer.enabled()) engine->set_budget(sorel::guard::Budget{}, token);
      {
        Tracer::Scope span(tracer, "core.pfail", op);
        answer = engine->pfail("pipeline", {work});
      }
      if (tracer.enabled()) {
        result.evaluations += static_cast<double>(engine->stats().evaluations);
        result.memo_hits += static_cast<double>(engine->stats().memo_hits);
        result.states += static_cast<double>(engine->meter().states());
        result.expr_evals += static_cast<double>(engine->meter().expr_evaluations());
      }
    }
    const double took = seconds_between(t0, Clock::now());
    elapsed += took;
    block_seconds += took;
    block_latencies.push_back(took * 1e6);
    ++result.ops;
    if (block_seconds >= kBlockSeconds || elapsed >= seconds) {
      result.blocks.add(static_cast<double>(block_latencies.size()), block_seconds, block_latencies);
      block_seconds = 0.0;
      after_block();
    }

    const double log_success =
        checks::stage_log_success(work, kChainPhi, kChainLambda, kChainSpeed);
    const double expected =
        cyclic ? checks::cyclic_chain_pfail(back, log_success)
               : checks::chain_pfail(kLongStages, work, kChainPhi, kChainLambda, kChainSpeed);
    const double tolerance =
        cyclic ? checks::kTridiagonalTolerance : checks::kClosedFormTolerance;
    ++outcome.attempted;
    if (!checks::agrees(answer, expected, tolerance)) {
      outcome.fail("long flow work=" + std::to_string(work) + ": engine " +
                   std::to_string(answer) + " vs oracle " + std::to_string(expected));
    }
  }
  return result;
}

// Per seeded work, on a fresh engine: a cold pfail (span core.pfail), then
// AbsorptionAnalysis::compute on the root's augmented flow (span
// markov.solve), back to back, so the solve's share of an op is not skewed
// by load that changed since the timed phase. Sets markov.solve_us,
// markov.solve_share and markov.transient_states (medians over the works).
void replay_solves(const Assembly& assembly, const std::vector<double>& works, Tracer& tracer,
                   Outcome& outcome) {
  const std::size_t first = tracer.size();
  std::vector<double> transient;
  for (std::uint64_t op = 0; op < works.size(); ++op) {
    ReliabilityEngine engine(assembly);
    {
      Tracer::Scope span(tracer, "core.pfail", op);
      engine.pfail("pipeline", {works[op]});
    }
    const sorel::markov::Dtmc chain = engine.augmented_flow("pipeline", {works[op]});
    Tracer::Scope span(tracer, "markov.solve", op);
    const auto analysis = sorel::markov::AbsorptionAnalysis::compute(chain);
    transient.push_back(static_cast<double>(analysis.transient_states().size()));
  }
  const std::vector<double> pfail_us = tracer.durations_us("core.pfail", first);
  const std::vector<double> solve_us = tracer.durations_us("markov.solve", first);
  std::vector<double> share;
  for (std::size_t i = 0; i < solve_us.size(); ++i) share.push_back(solve_us[i] / pfail_us[i]);
  outcome.set("markov.solve_us", median(solve_us), "us");
  outcome.set("markov.solve_share", median(share), "ratio");
  outcome.set("markov.transient_states", median(transient), "count");
}

}  // namespace

Outcome run_long_flow(const RunConfig& config, bool cyclic) {
  Outcome outcome;
  sorel::util::Rng rng(config.seed);
  const std::vector<double> back =
      cyclic ? cyclic_back_probabilities(kLongStages, rng.next()) : std::vector<double>{};

  // Set-up: generate the flow (for the cyclic shape, write it as a spec
  // document and load it through the DSL). It is timed once before the timed
  // phase and again after each of its blocks: back-to-back repeats would all
  // sample one moment of host load, which swings set-up time by up to 1.5×.
  std::vector<double> setup_s;
  const auto build = [&] {
    const auto t0 = Clock::now();
    Assembly built = cyclic
                         ? sorel::dsl::load_assembly(sorel::json::parse(cyclic_chain_spec(back)))
                         : sorel::scenarios::make_chain_assembly(kLongStages);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const Assembly assembly = build();
  const std::function<void()> rebuild = [&] { build(); };

  Tracer untraced(false);
  const PhaseResult plain = run_phase(assembly, back, cyclic, rng, config.phase_seconds(),
                                      untraced, rebuild, outcome);
  const double plain_rate = plain.blocks.rate();
  if (!config.trace) {
    outcome.set("setup_s", median(setup_s), "s");
    outcome.set("peak_rss_mb", peak_rss_mb(0), "MB");
    outcome.set("ops_per_s", plain_rate, "1/s");
    outcome.set("latency_p50_us", plain.blocks.p50(), "us");
    outcome.set("latency_p99_us", plain.blocks.p99(), "us");
    std::fprintf(stderr,
                 "%s: %llu latency samples in %zu blocks; a block holds too few ops for a "
                 "true p99, so latency_p99_us is in effect the median per-block maximum\n",
                 config.workload.c_str(), static_cast<unsigned long long>(plain.ops),
                 plain.blocks.rates.size());
    return outcome;
  }

  Tracer tracer(true);
  const PhaseResult traced = run_phase(assembly, back, cyclic, rng, config.phase_seconds(),
                                       tracer, rebuild, outcome);
  const double ops = static_cast<double>(traced.ops);
  const double pfail_us = median(tracer.durations_us("core.pfail"));
  outcome.set("core.evaluations_per_op", traced.evaluations / ops, "count");
  outcome.set("core.memo_hits_per_op", traced.memo_hits / ops, "count");
  outcome.set("core.states_per_op", traced.states / ops, "count");
  outcome.set("expr.evals_per_op", traced.expr_evals / ops, "count");
  outcome.set("core.pfail_us", pfail_us, "us");
  outcome.set("latency_samples", ops, "count");
  outcome.set("trace.overhead_pct", (plain_rate / traced.blocks.rate() - 1.0) * 100.0, "%");
  std::vector<double> works;
  for (int point = 0; point < 5; ++point) works.push_back(seeded_work(rng));
  replay_solves(assembly, works, tracer, outcome);
  replay_spec_loads(cyclic ? cyclic_chain_spec(back) : sorel::dsl::save_assembly(assembly).dump(),
                    tracer, outcome);
  tracer.write_jsonl(config.work_dir + "/trace-" + config.workload + "-" +
                     std::to_string(config.seed) + ".jsonl");
  return outcome;
}

}  // namespace wallbench
