#pragma once

// BatchRunner: fans a grid of (scenario x policy) cells out over the
// shared thread pool. Scenario cells whose repetitions build identical
// instances -- equal topology, workload (seed aside), base seed and
// repetition count; never a make_instance spec -- form a group, and each
// repetition of a group is one pool task: it builds the instance once and
// runs every cell of the group on it in turn, on one worker (an instance
// is never shared across workers). When a run's groups add up to fewer
// (group, repetition) tasks than the pool has workers, every cell runs one
// task per repetition instead, so small grids stay parallel; streamed
// cells always do. Results are
// deterministic and independent of grouping and worker scheduling: every
// repetition's outcome lands in its preassigned slot, and the cell's
// runner folds them in seed order (ScenarioRunner::aggregate /
// StreamRunner::aggregate, the same fold the sequential run() uses).
// Streamed (open-loop) cells queue separately via add_stream and drain
// via run_streams; both kinds go through one fan-out body (run_cells), so
// ledger, retry, deadline, finalize and fail-fast behave identically,
// and each run drains only its own queue.
//
// Fault tolerance (run/failure.hpp): set_policy configures what a
// throwing cell does to its siblings (fail_fast rethrows the first
// failure -- lowest cell, lowest repetition -- after the pool drains,
// counting and logging the suppressed ones; isolate turns each failed
// cell into a structured CellError on its result and leaves siblings
// bit-identical to a fault-free run), an optional per-repetition
// wall-clock deadline (cooperative: the engine cancels at the next step
// boundary), and bounded seed-preserving retry with exponential backoff
// for transient failures. All of it stays per cell inside a group: each
// cell runs its own attempt loop, fault hook and deadline, and an
// instance build that throws fails every cell of the group that tries it.
// The per-cell completion callbacks exist for crash-safe journaling:
// SuiteRunner appends each cell's row the moment its last repetition
// lands, not when the whole grid drains (a group's cells land together).

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "run/failure.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {

/// fail_fast terminal error when more than one cell failed: the primary
/// (lowest-cell, lowest-repetition) failure's message with the suppressed
/// count attached. A single failed cell rethrows its original exception
/// unwrapped, preserving the type.
class BatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BatchRunner {
 public:
  /// threads = 0 uses hardware concurrency.
  explicit BatchRunner(std::size_t threads = 0) : pool_(threads) {}

  /// Fault-tolerance configuration for subsequent run()/run_streams()
  /// calls (failure policy, deadline, retry budget, fault injection).
  void set_policy(RunPolicy policy) { policy_ = std::move(policy); }
  const RunPolicy& policy() const noexcept { return policy_; }

  /// Enqueues one cell; returns its index into run()'s result vector.
  std::size_t add(ScenarioSpec spec, PolicyFactory policy, RepMetric metric = nullptr);

  /// Convenience: one scenario against a whole policy grid.
  void add_grid(const ScenarioSpec& spec, const std::vector<PolicyFactory>& policies);

  std::size_t cells() const noexcept { return cells_.size(); }

  /// Invoked (from a worker thread) the moment a cell's last repetition
  /// lands, with its aggregated result -- the journaling hook. Calls for
  /// different cells may race; guard shared state. Failed cells are
  /// reported through it under isolate only (fail_fast is about to throw,
  /// and a journaled error row would wrongly survive a resume).
  using CellDone = std::function<void(std::size_t cell, const ScenarioResult&)>;
  using StreamCellDone = std::function<void(std::size_t cell, const StreamResult&)>;

  /// Runs every repetition of every queued cell on the pool and clears
  /// the queue. Results are in add() order.
  std::vector<ScenarioResult> run(const CellDone& on_cell_done = nullptr);

  // --- streamed cells ----------------------------------------------------

  /// Enqueues one streamed cell; returns its index into run_streams()'s
  /// result vector. Stream and scenario queues are independent.
  std::size_t add_stream(StreamSpec spec, PolicyFactory policy);

  /// Convenience: one stream against a whole policy grid.
  void add_stream_grid(const StreamSpec& spec, const std::vector<PolicyFactory>& policies);

  std::size_t stream_cells() const noexcept { return stream_cells_.size(); }

  /// Runs every repetition of every queued streamed cell on the pool and
  /// clears the stream queue. Results are in add_stream() order and are
  /// aggregated exactly like StreamRunner::run.
  std::vector<StreamResult> run_streams(const StreamCellDone& on_cell_done = nullptr);

 private:
  struct Cell {
    ScenarioRunner runner;
    PolicyFactory policy;
    RepMetric metric;
    /// True when this cell's repetitions build the same instances as
    /// `other`'s (the grouping key; engine options play no part).
    bool shares_instances(const Cell& other) const;
    /// Runs one repetition on `instance`, building it first when this is
    /// the first cell of its group's task to need it.
    RepetitionOutcome run(std::uint64_t seed, const CancelToken* cancel,
                          std::optional<Instance>& instance) const {
      if (!instance) instance.emplace(runner.instance(seed));
      return runner.run_repetition(policy, *instance, seed, metric, cancel);
    }
  };
  struct StreamCell {
    StreamRunner runner;
    PolicyFactory policy;
    StreamRepOutcome run(std::uint64_t seed, const CancelToken* cancel) const {
      return runner.run_repetition(policy, seed, cancel);
    }
  };

  /// The fan-out body behind run() and run_streams(): runs every
  /// repetition of every cell in `cells` on the pool, one task per
  /// repetition of each instance group, folds each cell's result the
  /// moment its last repetition lands, applies the failure policy after
  /// the drain, and clears `cells`.
  template <typename CellT, typename Result>
  std::vector<Result> run_cells(
      std::vector<CellT>& cells,
      const std::function<void(std::size_t, const Result&)>& on_cell_done);

  ThreadPool pool_;
  RunPolicy policy_;
  /// Lazily created on the first run with a deadline; shared across runs.
  std::unique_ptr<DeadlineWatchdog> watchdog_;
  std::vector<Cell> cells_;
  std::vector<StreamCell> stream_cells_;
};

}  // namespace rdcn
