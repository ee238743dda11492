#pragma once

// Outside-in tracing for the benchmark: spans recorded by the benchmark's
// own code around the calls it makes into each library layer, never from
// inside src/. A span has a name, a start, an end and a parent; every span
// of one engine step (stream workloads) or one repetition (batch) shares a
// group id. Each thread keeps its spans in memory -- raw spans up to a
// bounded sample, per-name totals past it -- and the process writes them
// out once the run ends.
//
// Self time of a span is its duration minus the time its children cover,
// so per-layer self times of a well-covered run sum to (almost) the wall
// time; what they miss is reported as trace.residual_share.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "run/policies.hpp"

namespace rdcnbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dense process-wide id of an interned span or counter name.
using NameId = std::uint32_t;
NameId intern(const std::string& name);
const std::string& name_of(NameId id);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children
  std::int64_t self_ns() const { return total_ns - child_ns; }
};

/// One thread's span recorder. Not thread-safe by design: every thread
/// gets its own through local(), and the process-wide views below read
/// them only after the threads that wrote them were joined.
class Tracer {
 public:
  static Tracer& local();

  /// Starts a new group (one engine step or one batch repetition).
  void begin_group();
  void open(NameId name);
  /// Closes the innermost span, which must be `name`. A mismatch means the
  /// library called back in an order the harness does not expect: the open
  /// spans are dropped and take_mismatches() reports it.
  void close(NameId name) noexcept;
  /// Adds `value` to a named counter (work counts measured at the span).
  void count(NameId name, std::uint64_t value);

 private:
  friend std::vector<SpanTotals> merged_totals();
  friend std::vector<std::uint64_t> merged_counters();
  friend void write_chrome_trace(const std::string& path);
  friend void reset_traces();
  friend bool take_mismatches();

  struct Open {
    NameId name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t raw;  ///< index into raw_, -1 past the sample bound
  };
  struct Raw {
    NameId name;
    std::int32_t parent;
    std::uint64_t group;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  /// Raw spans kept per process; totals keep counting past it.
  static constexpr std::uint64_t kRawSpanBound = 100000;

  std::vector<Open> stack_;
  std::vector<SpanTotals> totals_;  ///< by NameId
  std::vector<std::uint64_t> counters_;  ///< by NameId
  std::vector<Raw> raw_;
  std::uint64_t group_ = 0;
  int thread_index_ = 0;
  bool mismatch_ = false;
};

/// RAII span on this thread's tracer; a null tracer records nothing, so
/// untraced code paths pay one pointer test.
class Scope {
 public:
  Scope(Tracer* tracer, NameId name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->open(name_);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(name_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  NameId name_;
};

/// Totals / counters summed over every thread's tracer, indexed by NameId.
std::vector<SpanTotals> merged_totals();
std::vector<std::uint64_t> merged_counters();
/// Writes every recorded raw span as a Chrome trace-event file
/// (chrome://tracing, Perfetto) with group and parent ids in args.
void write_chrome_trace(const std::string& path);
/// Clears every tracer (between the untraced and the traced pass).
void reset_traces();
/// True if any tracer saw a mismatched close() (or still has open spans)
/// since the last call; clears the open spans.
bool take_mismatches();

/// Wraps a registry policy so each dispatch and select call is a span
/// ("dispatch.<policy>", "select.<policy>") and select's work counts are
/// recorded ("select.<policy>.candidates", ".selected", ".capacity").
/// The wrapped objects see every call unchanged, so schedules are
/// bit-identical with and without the wrapper.
rdcn::PolicyFactory timed_policy(const rdcn::PolicyFactory& inner);

}  // namespace rdcnbench
