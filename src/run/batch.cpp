#include "run/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

namespace rdcn {

namespace {

/// Per-cell failure ledger shared by a run's tasks. Every failing
/// repetition records; the lowest repetition wins, so the reported error
/// is deterministic regardless of worker scheduling (which is also why
/// sibling repetitions of a failed cell keep running: skipping them would
/// make the winner a race).
class FailureLedger {
 public:
  explicit FailureLedger(std::size_t cells) : cells_(cells) {}

  void record(std::size_t cell, std::size_t rep, const std::exception_ptr& failure,
              int attempts) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = cells_[cell];
    if (slot.error.failed && slot.error.repetition <= rep) return;
    const FailureInfo info = describe_failure(failure);
    slot.error = CellError{true, info.type, info.message, rep, attempts};
    slot.exception = failure;
  }

  CellError error(std::size_t cell) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cells_[cell].error;
  }

  std::exception_ptr exception(std::size_t cell) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cells_[cell].exception;
  }

  /// Indices of failed cells, ascending (post-drain: no lock contention).
  std::vector<std::size_t> failed_cells() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> failed;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c].error.failed) failed.push_back(c);
    }
    return failed;
  }

 private:
  struct Slot {
    CellError error;
    std::exception_ptr exception;
  };
  mutable std::mutex mutex_;
  std::vector<Slot> cells_;
};

/// One repetition attempt loop: arm the deadline, run the fault hook and
/// the repetition, classify on throw, back off and re-run the same seed
/// while the failure is transient and budget remains. Returns true on
/// success; definitive failures land in the ledger.
template <typename RunFn>
bool run_with_retries(const RunPolicy& policy, DeadlineWatchdog* watchdog,
                      const std::string& cell_name, std::size_t cell,
                      std::size_t rep, FailureLedger& ledger, const RunFn& run_rep) {
  int attempt = 0;
  for (;;) {
    ++attempt;
    CancelToken token;
    try {
      DeadlineWatchdog::Guard guard;
      const CancelToken* cancel = nullptr;
      if (policy.deadline_ms > 0 && watchdog != nullptr) {
        guard = watchdog->arm(token, policy.deadline_ms);
        cancel = &token;
      }
      if (policy.fault_hook) policy.fault_hook(cell_name, rep, cancel);
      run_rep(cancel);
      return true;
    } catch (...) {
      const std::exception_ptr failure = std::current_exception();
      if (is_transient_failure(failure) && attempt < policy.max_attempts) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_delay_ms(policy.backoff_base_ms, attempt)));
        continue;  // same seed: a successful retry is bit-identical
      }
      ledger.record(cell, rep, failure, attempt);
      return false;
    }
  }
}

/// fail_fast post-drain reporting: logs every suppressed failure, then
/// rethrows the primary (lowest cell, lowest repetition) -- unwrapped
/// when it is the only one, wrapped in BatchError with the suppressed
/// count otherwise. `labels` is parallel to `failed`, materialized by the
/// caller before it clears the cell queue.
[[noreturn]] inline void throw_fail_fast(const FailureLedger& ledger,
                                         const std::vector<std::size_t>& failed,
                                         const std::vector<std::string>& labels) {
  for (std::size_t i = 1; i < failed.size(); ++i) {
    const CellError error = ledger.error(failed[i]);
    std::fprintf(stderr, "batch: suppressed failure in cell %s (rep %zu, %s): %s\n",
                 labels[i].c_str(), error.repetition, error.type.c_str(),
                 error.message.c_str());
  }
  if (failed.size() == 1) std::rethrow_exception(ledger.exception(failed.front()));
  const CellError primary = ledger.error(failed.front());
  const std::size_t more = failed.size() - 1;
  throw BatchError(primary.message + " (and " + std::to_string(more) + " more cell" +
                   (more > 1 ? "s" : "") + " failed)");
}

/// Scenario cells can share a repetition's instance; streamed cells build
/// none to share.
template <typename CellT>
constexpr bool kSharesInstances =
    requires(const CellT& cell) { cell.shares_instances(cell); };

/// Partitions cells into the groups that run one task per repetition.
/// Scenario cells that build the same instances (Cell::shares_instances)
/// form a group, in add() order, groups ordered by their first cell. Such
/// a run is one task per (group, repetition); when that is fewer tasks
/// than `workers`, grouping would idle workers that per-cell tasks keep
/// busy, so every cell runs alone instead, as streamed cells always do.
template <typename CellT>
std::vector<std::vector<std::size_t>> task_groups(const std::vector<CellT>& cells,
                                                  std::size_t workers) {
  std::vector<std::vector<std::size_t>> groups;
  if constexpr (kSharesInstances<CellT>) {
    std::size_t grouped_tasks = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto group =
          std::find_if(groups.begin(), groups.end(), [&](const auto& members) {
            return cells[members.front()].shares_instances(cells[c]);
          });
      if (group == groups.end()) {
        groups.push_back({c});
        grouped_tasks += cells[c].runner.spec().repetitions;
      } else {
        group->push_back(c);
      }
    }
    if (grouped_tasks >= workers) return groups;
    groups.clear();
  }
  for (std::size_t c = 0; c < cells.size(); ++c) groups.push_back({c});
  return groups;
}

}  // namespace

bool BatchRunner::Cell::shares_instances(const Cell& other) const {
  const ScenarioSpec& a = runner.spec();
  const ScenarioSpec& b = other.runner.spec();
  if (a.make_instance || b.make_instance) return false;  // functions do not compare
  WorkloadConfig workload = b.workload;
  workload.seed = a.workload.seed;  // overridden by the repetition seed
  return a.topology == b.topology && a.workload == workload &&
         a.base_seed == b.base_seed && a.repetitions == b.repetitions;
}

template <typename CellT, typename Result>
std::vector<Result> BatchRunner::run_cells(
    std::vector<CellT>& cells,
    const std::function<void(std::size_t, const Result&)>& on_cell_done) {
  using Outcome = typename decltype(Result::repetitions)::value_type;
  // Preassign every repetition a slot, then fan the (group, repetition)
  // tasks out; tasks only write their cells' own slots, so outcome writes
  // need no locking. The last repetition of a cell (acq_rel countdown)
  // folds the cell's aggregate in seed order -- deterministic regardless
  // of grouping and worker scheduling -- and fires the completion callback.
  const std::size_t num_cells = cells.size();
  std::vector<std::vector<Outcome>> outcomes(num_cells);
  std::vector<Result> results(num_cells);
  FailureLedger ledger(num_cells);
  const auto remaining = std::make_unique<std::atomic<std::size_t>[]>(num_cells);
  const bool isolate = policy_.failure == FailurePolicy::Isolate;
  if (policy_.deadline_ms > 0 && !watchdog_) {
    watchdog_ = std::make_unique<DeadlineWatchdog>();
  }

  const auto cell_label = [&cells](std::size_t c) {
    return cells[c].runner.spec().name + " x " + cells[c].policy.name;
  };
  const auto finalize_cell = [&](std::size_t c) {
    Result& result = results[c];
    CellError error = ledger.error(c);
    if (error.failed) {
      result.scenario = cells[c].runner.spec().name;
      result.policy = cells[c].policy.name;
      result.error = std::move(error);
    } else {
      result = cells[c].runner.aggregate(cells[c].policy, std::move(outcomes[c]));
    }
    if (on_cell_done && (!result.error.failed || isolate)) on_cell_done(c, result);
  };

  for (std::size_t c = 0; c < num_cells; ++c) {
    outcomes[c].resize(cells[c].runner.seeds().size());
    remaining[c].store(outcomes[c].size(), std::memory_order_relaxed);
  }
  const std::vector<std::vector<std::size_t>> groups =
      task_groups(cells, pool_.thread_count());

  struct Task {
    std::size_t group;
    std::size_t rep;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto seeds = cells[groups[g].front()].runner.seeds();
    for (std::size_t r = 0; r < seeds.size(); ++r) tasks.push_back(Task{g, r, seeds[r]});
  }

  // Pool tasks must not throw (std::terminate otherwise), but engines do
  // on documented paths (starvation guard, scheduler contract violations,
  // deadline cancellation): every definitive failure lands in the ledger
  // and the failure policy decides after the drain. The group's cells run
  // in add() order, each with its own attempt loop; the shared instance is
  // built inside the first attempt that needs it, so a build that throws
  // fails that attempt and is tried again by the next cell.
  for (const Task& task : tasks) {
    pool_.submit([this, task, &cells, &groups, &outcomes, &ledger, &remaining,
                  &finalize_cell, &cell_label] {
      std::optional<Instance> instance;
      for (const std::size_t c : groups[task.group]) {
        const std::string name = policy_.fault_hook ? cell_label(c) : std::string();
        run_with_retries(
            policy_, watchdog_.get(), name, c, task.rep, ledger,
            [&](const CancelToken* cancel) {
              if constexpr (kSharesInstances<CellT>) {
                outcomes[c][task.rep] = cells[c].run(task.seed, cancel, instance);
              } else {
                outcomes[c][task.rep] = cells[c].run(task.seed, cancel);
              }
            });
        if (remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) finalize_cell(c);
      }
    });
  }
  pool_.wait_idle();

  const std::vector<std::size_t> failed = ledger.failed_cells();
  if (!failed.empty() && !isolate) {
    std::vector<std::string> labels;
    labels.reserve(failed.size());
    for (const std::size_t c : failed) labels.push_back(cell_label(c));
    cells.clear();
    throw_fail_fast(ledger, failed, labels);
  }
  cells.clear();
  return results;
}

std::size_t BatchRunner::add(ScenarioSpec spec, PolicyFactory policy, RepMetric metric) {
  cells_.push_back(Cell{ScenarioRunner(std::move(spec)), std::move(policy),
                        std::move(metric)});
  return cells_.size() - 1;
}

void BatchRunner::add_grid(const ScenarioSpec& spec,
                           const std::vector<PolicyFactory>& policies) {
  for (const PolicyFactory& policy : policies) add(spec, policy);
}

std::vector<ScenarioResult> BatchRunner::run(const CellDone& on_cell_done) {
  return run_cells(cells_, on_cell_done);
}

std::size_t BatchRunner::add_stream(StreamSpec spec, PolicyFactory policy) {
  stream_cells_.push_back(StreamCell{StreamRunner(std::move(spec)), std::move(policy)});
  return stream_cells_.size() - 1;
}

void BatchRunner::add_stream_grid(const StreamSpec& spec,
                                  const std::vector<PolicyFactory>& policies) {
  for (const PolicyFactory& policy : policies) add_stream(spec, policy);
}

std::vector<StreamResult> BatchRunner::run_streams(const StreamCellDone& on_cell_done) {
  return run_cells(stream_cells_, on_cell_done);
}

}  // namespace rdcn
