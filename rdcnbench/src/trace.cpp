#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/engine.hpp"
#include "util/atomic_file.hpp"

namespace rdcnbench {
namespace {

struct Registry {
  std::mutex mutex;  ///< guards everything below
  std::deque<std::string> names;  ///< deque: name_of references stay valid
  std::unordered_map<std::string, NameId> ids;
  std::vector<std::unique_ptr<Tracer>> tracers;
};

std::atomic<std::uint64_t> next_group{0};
std::atomic<std::uint64_t> raw_recorded{0};

Registry& registry() {
  static Registry instance;
  return instance;
}

template <typename T>
T& grow_at(std::vector<T>& values, NameId id) {
  if (values.size() <= id) values.resize(static_cast<std::size_t>(id) + 1);
  return values[id];
}

}  // namespace

NameId intern(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto found = r.ids.find(name);
  if (found != r.ids.end()) return found->second;
  const auto id = static_cast<NameId>(r.names.size());
  r.names.push_back(name);
  r.ids.emplace(name, id);
  return id;
}

const std::string& name_of(NameId id) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.names.at(id);
}

Tracer& Tracer::local() {
  // The registry owns every tracer, so a pool thread's spans outlive the
  // thread that recorded them.
  thread_local Tracer* mine = nullptr;
  if (mine == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.tracers.push_back(std::make_unique<Tracer>());
    mine = r.tracers.back().get();
    mine->thread_index_ = static_cast<int>(r.tracers.size());
  }
  return *mine;
}

void Tracer::begin_group() {
  group_ = next_group.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::open(NameId name) {
  std::int32_t raw = -1;
  // A relaxed check-then-add may overshoot the bound by a span per thread.
  if (raw_recorded.load(std::memory_order_relaxed) < kRawSpanBound) {
    raw_recorded.fetch_add(1, std::memory_order_relaxed);
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().raw;
    raw = static_cast<std::int32_t>(raw_.size());
    raw_.push_back(Raw{name, parent, group_, 0, 0});
  }
  // Timestamp last, so the bookkeeping above is charged to the parent.
  stack_.push_back(Open{name, now_ns(), 0, raw});
  if (raw >= 0) raw_[static_cast<std::size_t>(raw)].start_ns = stack_.back().start_ns;
}

void Tracer::close(NameId name) noexcept {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back().name != name) {
    mismatch_ = true;
    stack_.clear();
    return;
  }
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - top.start_ns;
  SpanTotals& totals = grow_at(totals_, name);
  ++totals.count;
  totals.total_ns += duration;
  totals.child_ns += top.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (top.raw >= 0) raw_[static_cast<std::size_t>(top.raw)].end_ns = end;
}


void Tracer::count(NameId name, std::uint64_t value) { grow_at(counters_, name) += value; }

std::vector<SpanTotals> merged_totals() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanTotals> merged(r.names.size());
  for (const auto& tracer : r.tracers) {
    for (std::size_t i = 0; i < tracer->totals_.size(); ++i) {
      merged[i].count += tracer->totals_[i].count;
      merged[i].total_ns += tracer->totals_[i].total_ns;
      merged[i].child_ns += tracer->totals_[i].child_ns;
    }
  }
  return merged;
}

std::vector<std::uint64_t> merged_counters() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::uint64_t> merged(r.names.size(), 0);
  for (const auto& tracer : r.tracers) {
    for (std::size_t i = 0; i < tracer->counters_.size(); ++i) {
      merged[i] += tracer->counters_[i];
    }
  }
  return merged;
}

void write_chrome_trace(const std::string& path) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::int64_t origin = INT64_MAX;
  for (const auto& tracer : r.tracers) {
    for (const Tracer::Raw& span : tracer->raw_) origin = std::min(origin, span.start_ns);
  }
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  for (const auto& tracer : r.tracers) {
    for (const Tracer::Raw& span : tracer->raw_) {
      if (span.end_ns == 0) continue;  // still open when the run ended
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"group\":%llu,\"parent\":%d}}",
                    first ? "" : ",\n", r.names[span.name].c_str(), tracer->thread_index_,
                    static_cast<double>(span.start_ns - origin) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                    static_cast<unsigned long long>(span.group), span.parent);
      out += line;
      first = false;
    }
  }
  out += "\n]}\n";
  rdcn::atomic_write_file(path, out);
}

void reset_traces() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& tracer : r.tracers) {
    tracer->stack_.clear();
    tracer->totals_.clear();
    tracer->counters_.clear();
    tracer->raw_.clear();
    tracer->mismatch_ = false;
  }
  raw_recorded.store(0, std::memory_order_relaxed);
}

bool take_mismatches() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  bool any = false;
  for (const auto& tracer : r.tracers) {
    any = any || tracer->mismatch_ || !tracer->stack_.empty();
    tracer->mismatch_ = false;
    tracer->stack_.clear();
  }
  return any;
}

namespace {

class TimedDispatch final : public rdcn::DispatchPolicy {
 public:
  TimedDispatch(std::unique_ptr<rdcn::DispatchPolicy> inner, NameId span)
      : inner_(std::move(inner)), span_(span), tracer_(&Tracer::local()) {}

  rdcn::RouteDecision dispatch(const rdcn::Engine& engine,
                               const rdcn::Packet& packet) override {
    const Scope scope(tracer_, span_);
    return inner_->dispatch(engine, packet);
  }

 private:
  std::unique_ptr<rdcn::DispatchPolicy> inner_;
  NameId span_;
  Tracer* tracer_;
};

struct SelectNames {
  NameId span, candidates, selected, capacity;
};

class TimedSchedule final : public rdcn::SchedulePolicy {
 public:
  TimedSchedule(std::unique_ptr<rdcn::SchedulePolicy> inner, SelectNames names,
                std::uint64_t capacity)
      : inner_(std::move(inner)), names_(names), capacity_(capacity),
        tracer_(&Tracer::local()) {}

  void select(const rdcn::Engine& engine, rdcn::Time now,
              const std::vector<rdcn::Candidate>& candidates,
              rdcn::Selection& out) override {
    {
      const Scope scope(tracer_, names_.span);
      inner_->select(engine, now, candidates, out);
    }
    tracer_->count(names_.candidates, candidates.size());
    tracer_->count(names_.selected, out.size());
    tracer_->count(names_.capacity, capacity_);
  }

 private:
  std::unique_ptr<rdcn::SchedulePolicy> inner_;
  SelectNames names_;
  std::uint64_t capacity_;
  Tracer* tracer_;
};

}  // namespace

rdcn::PolicyFactory timed_policy(const rdcn::PolicyFactory& inner) {
  const NameId dispatch_span = intern("dispatch." + inner.name);
  const std::string select = "select." + inner.name;
  const SelectNames names{intern(select), intern(select + ".candidates"),
                          intern(select + ".selected"), intern(select + ".capacity")};
  rdcn::PolicyFactory timed;
  timed.name = inner.name;
  timed.dispatcher = [make = inner.dispatcher, dispatch_span] {
    return std::make_unique<TimedDispatch>(make(), dispatch_span);
  };
  timed.scheduler = [make = inner.scheduler, names](const rdcn::Topology& topology) {
    // One chunk per transmitter and receiver per round: min(|T|, |R|) is
    // the most a round can move, the denominator of select.<policy>.fill.
    const auto capacity = static_cast<std::uint64_t>(
        std::min(topology.num_transmitters(), topology.num_receivers()));
    return std::make_unique<TimedSchedule>(make(topology), names, capacity);
  };
  return timed;
}

}  // namespace rdcnbench
