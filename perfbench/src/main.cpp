// End-to-end benchmark of the SparqLog engine. See perfbench/README.md.
//
//   perfbench --workload <sp2b-cold|gmark-paths|serve-hot|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--quick] [--trace-dir <dir>] [--commit <id>]
//
// Prints a host record, one line per metric, and as its last line the
// JSON result object {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

const char* kWorkloads[] = {"sp2b-cold", "gmark-paths", "serve-hot",
                            "serve-mixed"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sp2b-cold|gmark-paths|serve-hot|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--quick] [--trace-dir <dir>] [--commit <id>]\n");
  return 2;
}

void AddEndToEnd(const Samples& s, const WorkPlan& plan, Sheet* sheet) {
  std::vector<double> medians;
  std::vector<std::pair<double, std::string>> slowest;
  for (const auto& [name, ms] : s.by_query_ms) {
    medians.push_back(Median(ms));
    slowest.emplace_back(medians.back(), name);
  }
  std::sort(slowest.rbegin(), slowest.rend());
  std::printf("slowest engine medians:");
  for (size_t i = 0; i < slowest.size() && i < 6; ++i) {
    std::printf(" %s=%.2fms", slowest[i].second.c_str(), slowest[i].first);
  }
  std::printf("\n");
  Tail query_tail = Percentile(s.query_ms, plan.query_percentile);
  Tail update_tail = Percentile(s.update_ms, plan.update_percentile);
  sheet->Add("setup_s", Median(s.setup_s), "s");
  sheet->Add("qps", s.measured_s > 0 ? s.queries / s.measured_s : 0, "1/s");
  sheet->Add("query_p50_ms", Median(s.query_ms), "ms");
  sheet->Add("query_tail_ms", query_tail.value, "ms");
  sheet->Add("query_geomean_ms", GeoMean(medians), "ms");
  sheet->Add("load_p50_ms", Median(s.load_ms), "ms");
  sheet->Add("update_p50_ms", Median(s.update_ms), "ms");
  sheet->Add("update_tail_ms", update_tail.value, "ms");
  sheet->Add("peak_rss_mb", s.peak_rss_mb, "MB");
  std::printf("tail query_tail_ms = p%g of %zu queries (%zu beyond); "
              "update_tail_ms = p%g of %zu updates (%zu beyond)\n",
              query_tail.percentile, query_tail.samples, query_tail.beyond,
              update_tail.percentile, update_tail.samples,
              update_tail.beyond);
  std::printf("samples setup=%zu loads=%zu queries=%zu (%zu distinct "
              "queries/templates) updates=%zu measured=%.3f s\n",
              s.setup_s.size(), s.load_ms.size(), s.query_ms.size(),
              s.by_query_ms.size(), s.update_ms.size(), s.measured_s);
}

void AddPerLayer(const Samples& s, const LayerData& l, const Tracer& tracer,
                 Sheet* sheet) {
  auto count = [&](const char* key) {
    auto it = l.engine.find(key);
    return it == l.engine.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double queries = count("queries");
  const double lookups = count("program_hits") + count("program_rebinds") +
                         count("program_misses");
  const double memo = count("stratum_hits") + count("stratum_misses");

  sheet->Add("rdf.parse_ms", Median(s.parse_ms), "ms");
  sheet->Add("rdf.update_parse_us", Median(l.update_parse_us), "us");
  sheet->Add("core.load_ms", Median(s.load_ms), "ms");
  sheet->Add("core.td_ms", Median(l.td_ms), "ms");
  sheet->Add("core.edb_bytes", l.edb_bytes, "bytes");
  sheet->Add("datalog.stats_ms", Median(l.stats_ms), "ms");
  sheet->Add("sparql.parse_us", Median(l.parse_us), "us");
  sheet->Add("sparql.shape_us", Median(l.shape_us), "us");
  sheet->Add("core.translate_us", Median(l.translate_us), "us");
  sheet->Add("core.program_hits", count("program_hits"), "count");
  sheet->Add("core.program_rebinds", count("program_rebinds"), "count");
  sheet->Add("core.program_misses", count("program_misses"), "count");
  sheet->Add("core.program_hit_ratio",
             ratio(count("program_hits") + count("program_rebinds"), lookups),
             "ratio");
  sheet->Add("datalog.plan_us", Median(l.plan_us), "us");
  sheet->Add("datalog.plans_per_query", ratio(count("plans_computed"), queries),
             "ratio");
  sheet->Add("datalog.plan_qerror_p50", Median(l.qerror), "ratio");
  sheet->Add("datalog.plan_qerror_tail", Percentile(l.qerror, 90).value,
             "ratio");
  sheet->Add("datalog.eval_ms", Median(l.eval_ms), "ms");
  sheet->Add("datalog.rounds", count("rounds"), "count");
  sheet->Add("datalog.tuples_derived", double(l.tuples_derived), "count");
  sheet->Add("datalog.parallel_rounds", count("parallel_rounds"), "count");
  sheet->Add("datalog.staged_merged", count("staged_tuples_merged"), "count");
  sheet->Add("datalog.tc_kernels_hit", count("tc_kernels_hit"), "count");
  sheet->Add("datalog.tc_dense", count("tc_dense_frontiers"), "count");
  sheet->Add("datalog.tc_sparse", count("tc_sparse_frontiers"), "count");
  sheet->Add("datalog.memo_hits", count("stratum_hits"), "count");
  sheet->Add("datalog.memo_misses", count("stratum_misses"), "count");
  sheet->Add("datalog.memo_hit_ratio", ratio(count("stratum_hits"), memo),
             "ratio");
  sheet->Add("datalog.tuples_restored", count("tuples_restored"), "count");
  sheet->Add("datalog.memo_evictions", count("stratum_evictions"), "count");
  sheet->Add("datalog.strata_incremental", count("strata_incremental"),
             "count");
  sheet->Add("datalog.strata_dred", count("strata_dred"), "count");
  sheet->Add("datalog.incremental_fallbacks", count("incremental_fallbacks"),
             "count");
  sheet->Add("datalog.tuples_overdeleted", count("tuples_overdeleted"),
             "count");
  sheet->Add("datalog.tuples_rederived", count("tuples_rederived"), "count");
  sheet->Add("core.update_publish_ms", Median(s.publish_ms), "ms");
  sheet->Add("core.teardown_ms", Median(s.teardown_ms), "ms");
  sheet->Add("core.solution_us", Median(l.solution_us), "us");
  sheet->Add("core.result_rows", double(s.result_rows), "count");
  sheet->Add("core.execute_ms", Median(s.execute_ms), "ms");
  sheet->Add("core.execute_cpu_ms", Median(s.execute_cpu_ms), "ms");
  sheet->Add("server.http_us", Median(l.http_us), "us");
  sheet->Add("server.json_us", Median(l.json_us), "us");
  std::map<std::string, double> self;
  for (const char* layer : {"bench", "rdf", "sparql", "core", "datalog",
                            "server"}) {
    self[layer] = 0;
  }
  for (const auto& [layer, ms] : tracer.SelfTimeByLayer()) self[layer] = ms;
  for (const auto& [layer, ms] : self) {
    sheet->Add("self." + layer + "_ms", ms, "ms");
  }
  sheet->Add("trace.overhead_p50_ms", l.traced_p50_ms - l.untraced_p50_ms,
             "ms");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      config.sizes.sp2b_triples = 2000;
      config.sizes.serve_triples = 3000;
      config.sizes.gmark_edges = 3000;
      config.trace_ops = 300;
      config.replay_ops = 120;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--trace-dir") {
      config.trace_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config.workload == w;
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    return Usage();
  }

  std::printf("host nproc=%u cpu=\"%s\" build=%s engine_threads=%u "
              "server_workers=%u client_connections=1 commit=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_BUILD_TYPE, kEngineThreads, kServerWorkers,
              commit.c_str());
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  const double calibration_start = CalibrationMs();

  Samples samples;
  LayerData layers;
  Tracer tracer(config.trace);
  Ledger ledger;
  if (config.workload == "sp2b-cold" || config.workload == "gmark-paths") {
    RunCold(config, &samples, &layers, &tracer, &ledger);
  } else {
    RunServe(config, &samples, &layers, &tracer, &ledger);
  }
  if (ledger.attempted == 0) {
    ledger.attempted = 1;  // the run itself, which failed before any
    ledger.Fail("no operation was attempted");
  }

  Gauge().Report();
  std::printf("calibration_ms start=%.1f end=%.1f (ungated host diagnostic)\n",
              calibration_start, CalibrationMs());
  std::printf("error_rate %.6f (%llu of %llu operations failed)\n",
              double(ledger.failed) / double(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  Sheet sheet;
  if (config.trace) {
    AddPerLayer(samples, layers, tracer, &sheet);
    std::string path = config.trace_dir + "/trace-" + config.workload +
                       "-seed" + std::to_string(config.seed) + ".json";
    std::printf("trace %zu spans -> %s%s\n", tracer.spans().size(),
                path.c_str(), tracer.WriteJson(path) ? "" : " (write failed)");
  } else {
    AddEndToEnd(samples, PlanFor(config.workload), &sheet);
  }
  sheet.Print(ledger);
  return 0;
}
