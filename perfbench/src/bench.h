#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "answers.h"
#include "core/engine.h"
#include "inputs.h"
#include "replay.h"
#include "server/http_server.h"
#include "util.h"

/// \file bench.h
/// Shared pieces of the four workloads: run configuration, the samples a
/// run collects, engine set-up, the failure ledger and the metric sheet.

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Sizes sizes;
  /// Traced runs: operations per phase on the serve workloads, and how
  /// many of the traced phase's first operations the stage replay covers.
  size_t trace_ops = 1000;
  size_t replay_ops = 300;
  std::string trace_dir = ".";
};

/// Thread budget: two fixpoint workers, one HTTP worker, one client.
inline constexpr uint32_t kEngineThreads = 2;
inline constexpr uint32_t kServerWorkers = 1;
/// Set-up is repeated this many times per run; setup_s is the median.
/// The first kStartSetups build the measured instance; the rest run on
/// a scratch instance spread over the measured phase, so that no single
/// moment of the host sets the figure.
inline constexpr size_t kSetupReps = 15;
inline constexpr size_t kStartSetups = 5;
/// Update probe of the workloads without inline updates: kWindow warm-up
/// updates (inserts only, they fill the delete window), then this many
/// measured updates (one insert and one delete each), on a second,
/// private instance so the measured one stays read-only.
inline constexpr size_t kProbeUpdates = 100;

/// Extra Engine::Load samples of the serve workloads, spread over the
/// measured phase (the cold workloads load once per pass).
inline constexpr size_t kServeLoads = 30;

/// Spreads `total` probe steps evenly over the measured phase, so a
/// short stall of the host cannot land on all of them.
class ProbeSchedule {
 public:
  explicit ProbeSchedule(size_t total) : total_(total) {}

  /// Number of updates due once `fraction` of the phase is done.
  size_t Due(double fraction) {
    size_t target = static_cast<size_t>(
        std::ceil(fraction * static_cast<double>(total_)));
    target = std::min(target, total_);
    size_t due = target > done_ ? target - done_ : 0;
    done_ += due;
    return due;
  }

 private:
  size_t total_;
  size_t done_ = 0;
};

/// How much work a run does and where its tails sit.
///
/// Work: a run measures a fixed number of passes (cold workloads) or
/// operations (serve workloads) that scales with --seconds, so every run
/// of a seed does identical work and, on the host the rates were set on,
/// takes about --seconds. Fixed work keeps every engine counter
/// deterministic, and it matters for updates: Engine::ApplyUpdate gets
/// slower with every update applied since Load, so a time-bounded run
/// would tie update latency to how fast the queries in between ran.
///
/// Tails: each is a fixed percentile that keeps at least ten samples
/// beyond it at the workload's minimum sample count. A fixed percentile
/// keeps the tail inside the same query group of a fixed query mix
/// whatever the number of passes. The update tail is p90 because
/// planner statistics are recollected on every third to fifth update
/// (Options::Update::stats_refresh_fraction); a lower percentile would
/// sit on the edge between the two update costs.
struct WorkPlan {
  double query_percentile = 99;
  double update_percentile = 90;
  double per_second = 0;  ///< passes or measured operations per second
  size_t minimum = 0;     ///< floor on passes or measured operations
  size_t Units(double seconds) const;
};
WorkPlan PlanFor(const std::string& workload);

/// Engine options: two fixpoint threads, every other option at its
/// default.
sparqlog::core::Engine::Options EngineOptions();

/// One loaded instance of the system under test. Members are declared
/// in dependency order, so destruction stops the server before the
/// engine and drops the engine before its dataset and dictionary.
struct Instance {
  std::unique_ptr<sparqlog::rdf::TermDictionary> dict;
  std::unique_ptr<sparqlog::rdf::Dataset> dataset;
  std::unique_ptr<sparqlog::core::Engine> engine;
  std::unique_ptr<sparqlog::server::HttpServer> server;

  /// Tears down in the same order as the destructor.
  void Reset() {
    server.reset();
    engine.reset();
    dataset.reset();
    dict.reset();
  }
};

/// Latency and timing samples of one run.
struct Samples {
  std::vector<double> setup_s;   ///< parse + load (+ server start)
  std::vector<double> parse_ms;  ///< rdf::ParseTurtle inside set-up
  std::vector<double> load_ms;   ///< Engine::Load: set-up and cold passes
  std::vector<double> query_ms;
  std::map<std::string, std::vector<double>> by_query_ms;  ///< per query
                                                           ///< or template
  /// Update operations: one inserts a new batch and deletes the batch
  /// kWindow older (two POST /update, or two ApplyUpdate calls).
  std::vector<double> update_ms;
  std::vector<double> publish_ms;  ///< Engine::UpdateStats::wall_seconds
  std::vector<double> execute_ms, execute_cpu_ms;  ///< engine-reported
  std::vector<double> teardown_ms;  ///< ~Engine: after a cold pass, or
                                    ///< of a serve-side extra load
  double measured_s = 0;  ///< client-busy time of the measured operations
  uint64_t queries = 0;   ///< measured queries completed
  uint64_t result_rows = 0;
  double peak_rss_mb = 0;  ///< taken right after the measured phase
};

/// Operations attempted and failed (errors, refusals, wrong answers).
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_errors;
  void Fail(const std::string& why) {
    ++failed;
    if (first_errors.size() < 8) first_errors.push_back(why);
  }
};

/// Parses `ntriples` into a fresh dataset and loads an engine over it;
/// with `serve`, also starts the HTTP endpoint. Returns false on failure.
bool SetUp(const std::string& ntriples, bool serve, Tracer* tracer,
           Instance* out, Samples* samples, Ledger* ledger);

/// Builds a fresh engine over `inst`'s dataset, times its Load() into
/// samples->load_ms and its destruction into samples->teardown_ms.
void TimeLoad(const Instance& inst, Samples* samples, Ledger* ledger);

/// Engine-side counters by their /stats names.
using Counters = std::map<std::string, double>;
Counters CountersOf(const sparqlog::core::Engine::EngineStats& s);
/// a - b per key.
Counters Delta(const Counters& a, const Counters& b);

/// Everything a traced run adds for the per-layer sheet.
struct LayerData {
  Counters engine;  ///< counter deltas over the traced phase
  double edb_bytes = 0;
  std::vector<double> update_parse_us;
  std::vector<double> http_us;  ///< GET /healthz round trips
  std::vector<double> parse_us, shape_us, translate_us, plan_us, eval_ms,
      solution_us, json_us, qerror;
  uint64_t tuples_derived = 0;
  std::vector<double> td_ms, stats_ms;
  double untraced_p50_ms = 0, traced_p50_ms = 0;

  /// Records one replayed query's stage times.
  void AddReplay(const StageTimes& t);
};

/// Times `probes` GET /healthz round trips against a running endpoint.
void ProbeHttp(uint16_t port, int probes, LayerData* layers, Ledger* ledger);

/// The metric sheet printed by a run.
class Sheet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Human-readable lines, then the final JSON line.
  void Print(const Ledger& ledger) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Workload entry points. Each fills samples (and, traced, layers).
void RunCold(const Config& config, Samples* samples, LayerData* layers,
             Tracer* tracer, Ledger* ledger);
void RunServe(const Config& config, Samples* samples, LayerData* layers,
              Tracer* tracer, Ledger* ledger);

}  // namespace perfbench
