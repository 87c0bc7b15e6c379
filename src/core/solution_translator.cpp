#include "core/solution_translator.h"

#include <algorithm>
#include <map>
#include <set>

namespace sparqlog::core {

using datalog::Database;
using datalog::IsSkolemValue;
using datalog::Program;
using datalog::Relation;
using datalog::TermFromValue;
using datalog::Value;
using eval::QueryResult;
using rdf::TermDictionary;
using rdf::TermId;
using sparql::Query;

namespace {

/// Converts a Datalog value to a result term; Skolem values (tuple IDs)
/// never reach the output, but guard anyway.
TermId ToTerm(Value v) {
  return IsSkolemValue(v) ? TermDictionary::kUndef : TermFromValue(v);
}

/// Extracts the solution rows (visible + hidden columns, nulls mapped to
/// unbound) from the output relation.
std::vector<std::vector<TermId>> ExtractRows(const Program& program,
                                             const Relation* rel) {
  const datalog::OutputSpec& spec = program.output;
  std::vector<std::vector<TermId>> rows;
  if (rel == nullptr) return rows;
  size_t first = spec.has_tid_column ? 1 : 0;
  size_t ncols = spec.columns.size() + spec.hidden_columns.size();
  rows.reserve(rel->size());
  for (datalog::RowRef tuple : rel->rows()) {
    std::vector<TermId> row;
    row.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      row.push_back(ToTerm(tuple[first + c]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<TermId>> AggregateRows(
    const Query& q, const std::vector<std::string>& in_columns,
    const std::vector<std::vector<TermId>>& rows, TermDictionary* dict,
    std::vector<std::string>* out_columns) {
  auto col_of = [&](const std::string& name) -> int {
    for (size_t i = 0; i < in_columns.size(); ++i) {
      if (in_columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<int> group_cols;
  for (const auto& gname : q.group_by) group_cols.push_back(col_of(gname));

  std::map<std::vector<TermId>, std::vector<const std::vector<TermId>*>>
      groups;
  for (const auto& row : rows) {
    std::vector<TermId> key;
    for (int c : group_cols) {
      key.push_back(c < 0 ? TermDictionary::kUndef : row[c]);
    }
    groups[key].push_back(&row);
  }
  if (groups.empty() && group_cols.empty()) groups[{}] = {};

  out_columns->clear();
  for (const auto& item : q.select) {
    out_columns->push_back(item.is_aggregate ? item.alias : item.var);
  }

  std::vector<std::vector<TermId>> out;
  for (const auto& [key, members] : groups) {
    std::vector<TermId> row;
    for (const auto& item : q.select) {
      if (!item.is_aggregate) {
        // A plain variable in an aggregate query: take the group key value.
        int gpos = -1;
        for (size_t gi = 0; gi < q.group_by.size(); ++gi) {
          if (q.group_by[gi] == item.var) gpos = static_cast<int>(gi);
        }
        if (gpos >= 0) {
          row.push_back(key[gpos]);
        } else if (!members.empty()) {
          int c = col_of(item.var);
          row.push_back(c < 0 ? TermDictionary::kUndef : (*members[0])[c]);
        } else {
          row.push_back(TermDictionary::kUndef);
        }
        continue;
      }
      if (item.fn == sparql::AggregateFn::kCount && item.count_star) {
        if (item.agg_distinct) {
          std::set<std::vector<TermId>> distinct;
          for (const auto* m : members) distinct.insert(*m);
          row.push_back(
              dict->InternInteger(static_cast<int64_t>(distinct.size())));
        } else {
          row.push_back(
              dict->InternInteger(static_cast<int64_t>(members.size())));
        }
        continue;
      }
      int c = col_of(item.var);
      std::vector<TermId> values;
      for (const auto* m : members) {
        if (c >= 0 && (*m)[c] != TermDictionary::kUndef) {
          values.push_back((*m)[c]);
        }
      }
      if (item.agg_distinct) {
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
      }
      switch (item.fn) {
        case sparql::AggregateFn::kCount:
          row.push_back(
              dict->InternInteger(static_cast<int64_t>(values.size())));
          break;
        case sparql::AggregateFn::kSum: {
          bool all_int = true;
          int64_t isum = 0;
          double sum = 0;
          for (TermId v : values) {
            const rdf::Term& t = dict->get(v);
            if (!t.is_numeric()) continue;
            sum += t.AsDouble();
            if (t.numeric_kind == rdf::NumericKind::kInteger) {
              isum += t.int_value;
            } else {
              all_int = false;
            }
          }
          row.push_back(all_int ? dict->InternInteger(isum)
                                : dict->InternDouble(sum));
          break;
        }
        case sparql::AggregateFn::kAvg: {
          double sum = 0;
          size_t n = 0;
          for (TermId v : values) {
            const rdf::Term& t = dict->get(v);
            if (!t.is_numeric()) continue;
            sum += t.AsDouble();
            ++n;
          }
          row.push_back(n == 0 ? dict->InternInteger(0)
                               : dict->InternDouble(sum / double(n)));
          break;
        }
        case sparql::AggregateFn::kMin:
        case sparql::AggregateFn::kMax: {
          if (values.empty()) {
            row.push_back(TermDictionary::kUndef);
            break;
          }
          TermId best = values[0];
          for (TermId v : values) {
            int cmp = eval::CompareForOrder(*dict, v, best);
            if ((item.fn == sparql::AggregateFn::kMin && cmp < 0) ||
                (item.fn == sparql::AggregateFn::kMax && cmp > 0)) {
              best = v;
            }
          }
          row.push_back(best);
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Result<QueryResult> SolutionTranslator::Translate(const Program& program,
                                                  const Query& query,
                                                  const Database& idb,
                                                  TermDictionary* dict,
                                                  ExecContext* ctx) {
  const datalog::OutputSpec& spec = program.output;
  const Relation* rel = idb.Find(spec.predicate);

  QueryResult result;
  if (spec.is_ask) {
    result.is_ask = true;
    TermId true_term = dict->InternBoolean(true);
    result.ask_value = false;
    if (rel != nullptr) {
      for (datalog::RowRef row : rel->rows()) {
        if (ToTerm(row[0]) == true_term) {
          result.ask_value = true;
          break;
        }
      }
    }
    return result;
  }

  // Row extraction (drops TID + graph columns; maps null -> unbound).
  std::vector<std::string> columns = spec.columns;
  std::vector<std::string> all_columns = columns;
  all_columns.insert(all_columns.end(), spec.hidden_columns.begin(),
                     spec.hidden_columns.end());
  std::vector<std::vector<TermId>> rows = ExtractRows(program, rel);

  // Aggregation over the duplicate-preserving tuples.
  bool aggregated = query.HasAggregates() || !query.group_by.empty();
  if (aggregated) {
    std::vector<std::string> out_columns;
    rows = AggregateRows(query, all_columns, rows, dict, &out_columns);
    columns = out_columns;
    all_columns = out_columns;
  }

  SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());

  // ORDER BY (@post "orderby"): complex keys evaluated over the named
  // columns with the shared expression evaluator.
  if (!spec.order_by.empty()) {
    eval::ExprEvaluator expr_eval(dict);
    // Row ri's keys are keys[ri * nkeys, (ri + 1) * nkeys): one flat
    // array, so the sort allocates once rather than once per row.
    const size_t nkeys = spec.order_by.size();
    std::vector<TermId> keys;
    keys.reserve(rows.size() * nkeys);
    std::vector<uint32_t> order(rows.size());
    for (uint32_t ri = 0; ri < rows.size(); ++ri) {
      auto lookup = [&](const std::string& name) -> TermId {
        for (size_t c = 0; c < all_columns.size(); ++c) {
          if (all_columns[c] == name) return rows[ri][c];
        }
        return TermDictionary::kUndef;
      };
      order[ri] = ri;
      for (const auto& key : spec.order_by) {
        auto v = expr_eval.EvalTerm(*key.expr, lookup);
        keys.push_back(v.value_or(TermDictionary::kUndef));
      }
    }
    // Ties on the ORDER BY keys are broken by the visible output row
    // (ascending, same CompareForOrder order). SPARQL leaves tie order
    // undefined; making it a deterministic function of row *content*
    // keeps LIMIT/OFFSET pagination stable across storage layouts and
    // evaluation strategies — the reference evaluator applies the same
    // rule (see AlgebraEvaluator::Sort), so the differential and fuzz
    // harnesses can compare truncated results exactly. Visible columns
    // are the prefix of all_columns (hidden ones are stripped below).
    const size_t visible = columns.size();
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (size_t i = 0; i < nkeys; ++i) {
                         int c = eval::CompareForOrder(
                             *dict, keys[a * nkeys + i], keys[b * nkeys + i]);
                         if (spec.order_by[i].descending) c = -c;
                         if (c != 0) return c < 0;
                       }
                       const std::vector<TermId>& ra = rows[a];
                       const std::vector<TermId>& rb = rows[b];
                       for (size_t i = 0; i < visible; ++i) {
                         int c = eval::CompareForOrder(*dict, ra[i], rb[i]);
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    std::vector<std::vector<TermId>> sorted;
    sorted.reserve(rows.size());
    for (uint32_t ri : order) sorted.push_back(std::move(rows[ri]));
    rows = std::move(sorted);
  }

  // Strip hidden columns.
  if (all_columns.size() > columns.size()) {
    for (auto& row : rows) row.resize(columns.size());
  }

  // DISTINCT: set-semantics translation already deduplicates full
  // solutions, but stripping hidden columns can reintroduce duplicates.
  if (query.distinct) {
    std::set<std::vector<TermId>> seen;
    std::vector<std::vector<TermId>> dedup;
    for (auto& row : rows) {
      if (seen.insert(row).second) dedup.push_back(std::move(row));
    }
    rows = std::move(dedup);
  }

  uint64_t offset = spec.offset.value_or(0);
  if (offset > 0) {
    if (offset >= rows.size()) {
      rows.clear();
    } else {
      rows.erase(rows.begin(), rows.begin() + static_cast<long>(offset));
    }
  }
  if (spec.limit && rows.size() > *spec.limit) rows.resize(*spec.limit);

  result.columns = std::move(columns);
  result.rows = std::move(rows);
  return result;
}

}  // namespace sparqlog::core
