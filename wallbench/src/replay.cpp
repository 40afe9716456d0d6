#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "workloads.hpp"

namespace wallbench {

void replay_spec_loads(const std::string& spec, Tracer& tracer, Outcome& outcome) {
  const std::size_t first = tracer.size();
  for (std::uint64_t op = 0; op < 5; ++op) {
    sorel::json::Value document;
    {
      Tracer::Scope span(tracer, "json.parse", op);
      document = sorel::json::parse(spec);
    }
    Tracer::Scope span(tracer, "dsl.load", op);
    const sorel::core::Assembly loaded = sorel::dsl::load_assembly(document);
  }
  outcome.set("json.spec_parse_ms", median(tracer.durations_us("json.parse", first)) / 1e3, "ms");
  outcome.set("dsl.load_ms", median(tracer.durations_us("dsl.load", first)) / 1e3, "ms");
}

}  // namespace wallbench
