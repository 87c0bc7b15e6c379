#include "workloads/report.h"

#include <cstdio>
#include <cstring>

#include "util/string_util.h"

namespace sparqlog::workloads {

std::vector<SystemSummary> RunComparison(const Workload& workload,
                                         const std::vector<System*>& systems,
                                         const ComparisonOptions& options) {
  std::vector<SystemSummary> summaries(systems.size());
  for (size_t si = 0; si < systems.size(); ++si) {
    summaries[si].name = systems[si]->name();
  }

  std::vector<std::string> headers{"Query"};
  for (System* s : systems) {
    headers.push_back(s->name() + " load");
    headers.push_back(s->name() + " exec");
    headers.push_back(s->name() + " res");
  }
  TablePrinter table(headers);
  std::vector<std::vector<double>> series(workload.queries.size());

  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    std::vector<RunRecord> records;
    records.reserve(systems.size());
    for (System* s : systems) {
      records.push_back(s->Run(workload.queries[qi]));
    }

    const RunRecord* reference = nullptr;
    if (options.reference >= 0 &&
        records[static_cast<size_t>(options.reference)].ok()) {
      reference = &records[static_cast<size_t>(options.reference)];
    }

    std::vector<std::string> row{workload.query_names[qi]};
    for (size_t si = 0; si < systems.size(); ++si) {
      const RunRecord& r = records[si];
      SystemSummary& sum = summaries[si];
      std::string res_cell = "-";
      switch (r.outcome) {
        case Outcome::kOk: {
          sum.total_exec_seconds += r.exec_seconds;
          sum.total_load_seconds += r.load_seconds;
          bool agrees = true;
          if (reference != nullptr && &records[si] != reference) {
            agrees = r.result.SameSolutions(reference->result);
          }
          if (agrees) {
            ++sum.ok;
            res_cell = "eq";
          } else {
            ++sum.incomplete_results;
            res_cell = "DIFF";
          }
          break;
        }
        case Outcome::kTimeout:
        case Outcome::kMemOut:
          ++sum.timeouts_and_memouts;
          break;
        case Outcome::kNotSupported:
          ++sum.not_supported;
          break;
        case Outcome::kError:
          ++sum.errors;
          break;
      }
      row.push_back(r.ok() ? StringPrintf("%.4f", r.load_seconds)
                           : std::string("-"));
      row.push_back(FormatTime(r));
      row.push_back(res_cell);
      series[qi].push_back(r.ok() ? r.exec_seconds : -1.0);
    }
    table.AddRow(std::move(row));
  }

  if (options.per_query_rows) {
    std::printf("\n== %s: per-query results (load s / exec s / result) ==\n",
                workload.name.c_str());
    table.Print();
  }
  if (options.figure_series) {
    std::printf("\n== %s: figure series (exec seconds, -1 = failed) ==\n",
                workload.name.c_str());
    std::string head = "query";
    for (System* s : systems) head += "\t" + s->name();
    std::printf("%s\n", head.c_str());
    for (size_t qi = 0; qi < series.size(); ++qi) {
      std::string line = workload.query_names[qi];
      for (double v : series[qi]) line += StringPrintf("\t%.6f", v);
      std::printf("%s\n", line.c_str());
    }
  }
  return summaries;
}

void PrintSummary(const std::vector<SystemSummary>& summaries,
                  size_t total_queries) {
  std::printf("\n== summary (of %zu queries) ==\n", total_queries);
  TablePrinter table({"System", "#Not Supported", "#Time-/Mem-Outs",
                      "#Incomplete Results", "#Errors", "Total Failed",
                      "Sum exec (s)"});
  for (const auto& s : summaries) {
    table.AddRow({s.name, std::to_string(s.not_supported),
                  std::to_string(s.timeouts_and_memouts),
                  std::to_string(s.incomplete_results),
                  std::to_string(s.errors), std::to_string(s.TotalFailed()),
                  StringPrintf("%.3f", s.total_exec_seconds)});
  }
  table.Print();
}

int64_t FlagValue(int argc, char** argv, const std::string& name,
                  int64_t default_value) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      if (auto v = ParseInt64(argv[i] + prefix.size())) return *v;
    }
  }
  return default_value;
}

}  // namespace sparqlog::workloads
