#pragma once

#include <string>
#include <vector>

#include "workloads/runner.h"

/// \file report.h
/// The generic performance/compliance comparison used by the Figure 7/8/9
/// reproductions: runs every system on every query of a workload, prints
/// the per-query table (the paper's Tables 9-11: loading time, execution
/// time, result-equality against a reference system) and the per-system
/// summary (Tables 7-8: #not supported, #time- and mem-outs, #incomplete
/// results, total).

namespace sparqlog::workloads {

struct SystemSummary {
  std::string name;
  int ok = 0;
  int not_supported = 0;
  int timeouts_and_memouts = 0;
  int incomplete_results = 0;  ///< ran fine but disagreed with reference
  int errors = 0;
  double total_exec_seconds = 0.0;
  double total_load_seconds = 0.0;

  int TotalFailed() const {
    return not_supported + timeouts_and_memouts + incomplete_results + errors;
  }
};

struct ComparisonOptions {
  /// Index into the systems vector whose results define correctness;
  /// negative disables result comparison.
  int reference = 0;
  /// Print the full per-query rows (Tables 9-11) in addition to the
  /// summary.
  bool per_query_rows = true;
  /// Print a figure-style series block (query id + exec time per system,
  /// log-scale friendly) for plotting.
  bool figure_series = true;
};

std::vector<SystemSummary> RunComparison(const Workload& workload,
                                         const std::vector<System*>& systems,
                                         const ComparisonOptions& options);

/// Prints the Tables 7/8-style summary.
void PrintSummary(const std::vector<SystemSummary>& summaries,
                  size_t total_queries);

/// Tiny argv helper for the bench binaries: --name=value.
int64_t FlagValue(int argc, char** argv, const std::string& name,
                  int64_t default_value);

}  // namespace sparqlog::workloads
