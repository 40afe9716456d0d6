#include "trace.hpp"

#include <cstdio>

namespace wallbench {

void Tracer::merge(const Tracer& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> Tracer::durations_us(const std::string& name, std::size_t first) const {
  std::vector<double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns != 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"op\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.op));
  }
  return std::fclose(out) == 0;
}

}  // namespace wallbench
