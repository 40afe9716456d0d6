// In-memory span recorder for the traced run. One span per call the
// benchmark makes into a sorel layer: name, start, end, parent span and op
// id. Spans are timed from outside the program (around public calls);
// nothing inside sorel is instrumented. A Tracer belongs to one thread;
// threads that trace keep their own and the workload merges them at the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace wallbench {

class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t op;
  };

  /// A disabled tracer records nothing; Scope on it costs one branch.
  explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now())
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened at construction, closed at destruction. Spans opened
  /// while another is open become its children.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<std::int32_t>(tracer_.spans_.size());
      tracer_.spans_.push_back(Span{name, tracer_.now_ns(), 0, tracer_.open_, op});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
      span.end_ns = tracer_.now_ns();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Append another thread's spans (parent indices are rebased).
  void merge(const Tracer& other);

  /// Number of spans recorded so far.
  std::size_t size() const noexcept { return spans_.size(); }

  /// Durations in microseconds, in recording order, of every closed span
  /// called `name` among the spans from index `first` on.
  std::vector<double> durations_us(const std::string& name, std::size_t first = 0) const;

  /// Write one JSON object per span. Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = kNoParent;
};

}  // namespace wallbench
