#pragma once

#include <optional>
#include <string>

#include "answers.h"
#include "datalog/relation.h"
#include "datalog/stats.h"
#include "datalog/value.h"
#include "util.h"

/// \file replay.h
/// Stage replay for the traced run: one query at a time through the
/// library's stage functions — sparql::ParseQuery, ComputeQueryShape,
/// QueryTranslator::Translate (T_Q), datalog::PlanProgram,
/// Evaluator::Evaluate, SolutionTranslator::Translate (T_S) and
/// server::ResultToJson — on the benchmark's own dictionary, EDB and
/// EdbStats, with no caches. Each stage is timed and traced; the answer
/// is returned so the caller can compare it with the engine's.

namespace perfbench {

struct StageTimes {
  double parse_us = 0, shape_us = 0, translate_us = 0, plan_us = 0;
  double eval_ms = 0, solution_us = 0, json_us = 0;
  double qerror = 0;            ///< planner output estimate vs actual
  uint64_t tuples_derived = 0;  ///< EvalStats of the cache-free fixpoint
};

class Replayer {
 public:
  /// `reference` supplies the dataset copy and dictionary; it must
  /// outlive the replayer.
  Replayer(Reference* reference, Tracer* tracer)
      : reference_(reference), tracer_(tracer) {}

  /// Rebuilds the EDB (T_D) and its statistics when the reference moved
  /// to a new state since the last build; returns false on failure.
  bool Sync();

  /// Replays `text`; nullopt when a stage fails.
  std::optional<Canonical> Run(const std::string& text, StageTimes* times);

  /// T_D and EdbStats::Collect times of every rebuild, in ms.
  const std::vector<double>& td_ms() const { return td_ms_; }
  const std::vector<double>& stats_ms() const { return stats_ms_; }

 private:
  Reference* reference_;
  Tracer* tracer_;
  sparqlog::datalog::SkolemStore skolems_;
  sparqlog::datalog::Database edb_;
  sparqlog::datalog::EdbStats stats_;
  std::optional<uint64_t> built_state_;
  std::vector<double> td_ms_, stats_ms_;
};

}  // namespace perfbench
