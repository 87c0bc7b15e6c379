#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/value.h"

/// \file incremental.h
/// Delta types shared between the engine's `ApplyUpdate` (which produces
/// per-predicate EDB deltas) and the evaluator's incremental stratum path
/// (which consumes them as the seed of one extra semi-naive round, or as
/// the over-deletion frontier of a DRed pass).

namespace sparqlog::datalog {

/// The translated effect of one `ApplyUpdate` on the EDB, keyed by
/// predicate *name* (program-independent, like stratum fingerprints).
/// `ins` rows are tuples that became newly present, `del` rows tuples
/// that became absent — already net (a triple both deleted and
/// re-inserted appears in neither) and already deduplicated.
struct EdbDelta {
  struct PredicateDelta {
    uint32_t arity = 0;
    std::vector<Value> ins;  ///< flat, arity-strided
    std::vector<Value> del;  ///< flat, arity-strided
  };
  std::unordered_map<std::string, PredicateDelta> preds;

  bool empty() const { return preds.empty(); }
};

using EdbDeltaPtr = std::shared_ptr<const EdbDelta>;

}  // namespace sparqlog::datalog
