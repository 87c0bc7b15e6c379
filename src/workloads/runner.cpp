#include "workloads/runner.h"

#include <cstdio>

#include "util/string_util.h"

namespace sparqlog::workloads {

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kMemOut: return "memout";
    case Outcome::kNotSupported: return "notsupported";
    case Outcome::kError: return "error";
  }
  return "?";
}

Outcome ClassifyStatus(const Status& status) {
  if (status.ok()) return Outcome::kOk;
  if (status.IsTimeout()) return Outcome::kTimeout;
  if (status.IsResourceExhausted()) return Outcome::kMemOut;
  if (status.IsNotSupported()) return Outcome::kNotSupported;
  return Outcome::kError;
}

ComplianceClass Classify(const RunRecord& record,
                         const eval::QueryResult& expected) {
  ComplianceClass out;
  if (!record.ok()) {
    out.error = true;
    out.correct = false;
    out.complete = false;
    return out;
  }
  out.correct = record.result.SubsetOf(expected);
  out.complete = expected.SubsetOf(record.result);
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      cell.resize(widths[i], ' ');
      line += cell;
      if (i + 1 < widths.size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
  };
  print_row(headers_);
  std::string sep;
  for (size_t i = 0; i < widths.size(); ++i) {
    sep += std::string(widths[i], '-');
    if (i + 1 < widths.size()) sep += "  ";
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatTime(const RunRecord& r, bool total) {
  if (!r.ok()) return OutcomeName(r.outcome);
  return StringPrintf("%.4f", total ? r.total_seconds() : r.exec_seconds);
}

std::string FormatCacheStats(const RunRecord& r) {
  const core::Engine::EngineStats& e = r.engine;
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::string out = StringPrintf(
      "Tq %lluh/%llur/%llum · strata %lluh/%llum · %llu tuples restored",
      u(e.program_hits), u(e.program_rebinds), u(e.program_misses),
      u(e.stratum_hits), u(e.stratum_misses), u(e.tuples_restored));
  if (e.parallel_rounds > 0) {
    out += StringPrintf(
        " · par %llur/%llun · %llu merged ×%llu · %llu contended",
        u(e.parallel_rounds), u(e.naive_rounds_sharded),
        u(e.staged_tuples_merged), u(e.merge_fanout_width),
        u(e.interning_contention));
  }
  if (e.plans_computed > 0 || e.plan_cache_hits > 0) {
    out += StringPrintf(" · plan %lluc/%lluh q%.2g", u(e.plans_computed),
                        u(e.plan_cache_hits), r.plan_estimate_error);
  }
  if (e.tc_kernels_hit > 0) {
    out += StringPrintf(" · tc %lluk (%llud/%llus)", u(e.tc_kernels_hit),
                        u(e.tc_dense_frontiers), u(e.tc_sparse_frontiers));
  }
  return out;
}

}  // namespace sparqlog::workloads
