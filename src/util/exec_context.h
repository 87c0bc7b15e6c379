#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/status.h"

/// \file exec_context.h
/// Cooperative cancellation / resource-budget context threaded through all
/// evaluators. This is what makes the paper's time-out and mem-out rows
/// (Tables 7-11) reproducible deterministically: every engine checks the
/// same context in its inner loops.

namespace sparqlog {

/// Execution limits for one query evaluation.
///
/// A default-constructed context is unlimited. `CheckBudget()` should be
/// called periodically from evaluation loops; it is cheap (a relaxed atomic
/// load, a thread-local counter and an occasional clock read).
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;

  /// Limits wall-clock time for the evaluation.
  void set_deadline_after(std::chrono::milliseconds budget) {
    deadline_ = Clock::now() + budget;
    has_deadline_ = true;
  }

  /// Limits the number of tuples any engine may materialize ("mem-out").
  void set_tuple_budget(uint64_t budget) { tuple_budget_ = budget; }

  uint64_t tuple_budget() const { return tuple_budget_; }
  uint64_t tuples_used() const {
    return tuples_used_.load(std::memory_order_relaxed);
  }

  /// Records `n` materialized tuples against the budget.
  void AddTuples(uint64_t n) {
    tuples_used_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Returns Timeout / ResourceExhausted when a limit has been crossed.
  /// The tuple budget is checked on every call. The deadline is sampled
  /// once per `kClockStride` units of work on each thread: every call
  /// advances the calling thread's stride phase by `advance` units and
  /// reads the clock only when that crosses a stride boundary. Callers
  /// that handle a batch per call (the barrier merge, the TC kernel's
  /// node expansions) pass the batch size, so the sampling cadence
  /// follows work done, not call count, whatever the fan-out width.
  ///
  /// Thread-safe: the phase is a `thread_local`, so concurrent workers
  /// each pace their own deadline checks. Limits must be configured
  /// before workers start (set_deadline_after / set_tuple_budget are not
  /// synchronized).
  Status CheckBudget(uint32_t advance = 1) const {
    if (tuples_used_.load(std::memory_order_relaxed) > tuple_budget_) {
      return Status::ResourceExhausted("tuple budget exceeded (mem-out)");
    }
    if (has_deadline_) {
      const uint32_t before = thread_phase_;
      thread_phase_ = before + advance;
      if (before / kClockStride != thread_phase_ / kClockStride &&
          Clock::now() > deadline_) {
        return Status::Timeout("deadline exceeded");
      }
    }
    return Status::OK();
  }

  /// Immediate deadline check (used at loop heads of outer phases).
  bool PastDeadline() const {
    return has_deadline_ && Clock::now() > deadline_;
  }

  /// Deadline checks are sampled once per this many work units (see
  /// CheckBudget); exposed for tests and pacing callers.
  static constexpr uint32_t kClockStride = 256;

  /// The calling thread's stride phase: work units charged by every
  /// CheckBudget this thread made under a deadline. Exposed for tests.
  static uint32_t thread_phase() { return thread_phase_; }

 private:
  // One counter per thread, shared by every context the thread checks:
  // pacing spans rule runs, strata and queries alike.
  static inline thread_local uint32_t thread_phase_ = 0;

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t tuple_budget_ = std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> tuples_used_{0};
};

/// Wall-clock stopwatch for the benchmark harness.
class Stopwatch {
 public:
  Stopwatch() : start_(ExecContext::Clock::now()) {}
  void Restart() { start_ = ExecContext::Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(ExecContext::Clock::now() - start_)
        .count();
  }

 private:
  ExecContext::Clock::time_point start_;
};

}  // namespace sparqlog
