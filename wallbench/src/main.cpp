// sorel_wallbench — one run of one workload:
//
//   sorel_wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--cli <sorel_cli>]
//
// Prints one JSON object on stdout: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Diagnostics go to stderr. Exits 1
// when any timed answer failed its check, 2 on usage errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "sorel_wallbench: %s\nusage: sorel_wallbench --workload "
               "long_flow_acyclic|long_flow_cyclic|serve_mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--cli PATH]\n",
               message);
  return 2;
}

void print_result(const wallbench::Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  const char* separator = "";
  for (const auto& [name, metric] : outcome.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator, name.c_str(),
                value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  wallbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--cli") {
        config.cli = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || config.work_dir.empty() || !(config.seconds > 0)) {
    return usage("--seed, --seconds and --work-dir are required");
  }
  std::filesystem::create_directories(config.work_dir);

  wallbench::Outcome outcome;
  try {
    if (config.workload == "long_flow_acyclic") {
      outcome = wallbench::run_long_flow(config, false);
    } else if (config.workload == "long_flow_cyclic") {
      outcome = wallbench::run_long_flow(config, true);
    } else if (config.workload == "serve_mix") {
      if (config.cli.empty()) return usage("serve_mix needs --cli");
      outcome = wallbench::run_serve_mix(config);
    } else {
      return usage(("unknown workload '" + config.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sorel_wallbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::fprintf(stderr, "%s: %llu ops attempted, %llu failed\n", config.workload.c_str(),
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));
  print_result(outcome);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
