#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"

/// \file binding.h
/// Solution mappings for the reference evaluator and the shared result
/// format all engines in the repository produce (so the compliance harness
/// can compare them directly).

namespace sparqlog::eval {

/// Query-scoped variable table: maps variable names to dense slots.
class VarTable {
 public:
  uint32_t SlotOf(const std::string& name);
  /// Slot if known; UINT32_MAX otherwise.
  uint32_t Find(const std::string& name) const;
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// A solution mapping over a VarTable: kUndef = variable not in domain.
using Solution = std::vector<rdf::TermId>;

/// A multiset of solution mappings.
using Multiset = std::vector<Solution>;

/// True if the mappings agree on every variable bound in both.
bool Compatible(const Solution& a, const Solution& b);

/// True if dom(a) ∩ dom(b) is empty (used by MINUS).
bool DisjointDomains(const Solution& a, const Solution& b);

/// Uniform result representation across engines. Rows are tuples of
/// TermIds aligned with `columns`; kUndef marks unbound cells. ASK queries
/// set `is_ask` / `ask_value` and leave the table empty.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<rdf::TermId>> rows;
  bool is_ask = false;
  bool ask_value = false;

  /// Canonical form for multiset comparison: rows sorted lexicographically.
  /// TermIds are stable within a process-wide shared dictionary.
  std::vector<std::vector<rdf::TermId>> SortedRows() const;

  /// Multiset equality against another result (column order must match;
  /// row order is ignored).
  bool SameSolutions(const QueryResult& other) const;

  /// True if every row of this result also occurs in `other` with at least
  /// the same multiplicity (correctness in the BeSEPPI sense).
  bool SubsetOf(const QueryResult& other) const;

  /// Human-readable table for examples and debugging.
  std::string ToString(const rdf::TermDictionary& dict,
                       size_t max_rows = 25) const;
};

}  // namespace sparqlog::eval
