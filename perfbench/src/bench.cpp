#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "http_client.h"
#include "rdf/turtle_parser.h"

namespace perfbench {

using namespace sparqlog;

core::Engine::Options EngineOptions() {
  core::Engine::Options options;
  options.parallelism.num_threads = kEngineThreads;
  return options;
}

size_t WorkPlan::Units(double seconds) const {
  return std::max(minimum, static_cast<size_t>(std::ceil(per_second * seconds)));
}

WorkPlan PlanFor(const std::string& workload) {
  WorkPlan plan;
  if (workload == "sp2b-cold") {
    // p95 of 17 queries x 12 passes keeps 10 samples beyond it, all q5a.
    plan.query_percentile = 95;
    plan.per_second = 0.8;
    plan.minimum = 12;
  } else if (workload == "gmark-paths") {
    // p95 of 50 queries x 4 passes keeps 10 beyond it, inside q31.
    plan.query_percentile = 95;
    plan.per_second = 0.45;
    plan.minimum = 4;
  } else if (workload == "serve-hot") {
    // p99 of this read-only mix sits in scheduling stalls of the host
    // (over ten runs its spread was twice the median's), p95 in the
    // slowest template.
    plan.query_percentile = 95;
    plan.per_second = 300;
    plan.minimum = 1000;
  } else {
    plan.per_second = 150;
    plan.minimum = 1250;  // 1125 queries, 125 updates (p90: 12 beyond)
  }
  return plan;
}

bool SetUp(const std::string& ntriples, bool serve, Tracer* tracer,
           Instance* out, Samples* samples, Ledger* ledger) {
  out->Reset();  // tear the previous instance down first
  Gauge().Read();
  const double scale = Gauge().Scale();
  Scope setup(tracer, "bench.setup", "bench");
  auto start = Clock::now();
  out->dict = std::make_unique<rdf::TermDictionary>();
  out->dataset = std::make_unique<rdf::Dataset>(out->dict.get());
  Status st;
  {
    Scope span(tracer, "rdf.ParseTurtle", "rdf");
    st = rdf::ParseTurtle(ntriples, out->dataset.get());
  }
  samples->parse_ms.push_back(SecondsSince(start) * 1e3 * scale);
  if (!st.ok()) {
    ledger->Fail("ParseTurtle: " + st.ToString());
    return false;
  }
  out->engine = std::make_unique<core::Engine>(
      out->dataset.get(), out->dict.get(), EngineOptions());
  auto load_start = Clock::now();
  {
    Scope span(tracer, "core.Engine::Load", "core");
    st = out->engine->Load();
  }
  samples->load_ms.push_back(SecondsSince(load_start) * 1e3 * scale);
  if (!st.ok()) {
    ledger->Fail("Load: " + st.ToString());
    return false;
  }
  if (serve) {
    server::HttpServerOptions options;
    options.num_workers = kServerWorkers;
    out->server = std::make_unique<server::HttpServer>(
        out->engine.get(), out->dict.get(), options);
    Scope span(tracer, "server.HttpServer::Start", "server");
    st = out->server->Start();
    if (!st.ok()) {
      ledger->Fail("HttpServer::Start: " + st.ToString());
      return false;
    }
  }
  samples->setup_s.push_back(SecondsSince(start) * scale);
  return true;
}

void TimeLoad(const Instance& inst, Samples* samples, Ledger* ledger) {
  auto engine = std::make_unique<core::Engine>(
      inst.dataset.get(), inst.dict.get(), EngineOptions());
  Gauge().Read();
  const double scale = Gauge().Scale();
  auto start = Clock::now();
  Status st = engine->Load();
  samples->load_ms.push_back(SecondsSince(start) * 1e3 * scale);
  if (!st.ok()) ledger->Fail("Load: " + st.ToString());
  auto teardown_start = Clock::now();
  engine.reset();
  samples->teardown_ms.push_back(SecondsSince(teardown_start) * 1e3 * scale);
}

Counters CountersOf(const core::Engine::EngineStats& s) {
  return {{"queries", double(s.queries)},
          {"program_hits", double(s.program_hits)},
          {"program_rebinds", double(s.program_rebinds)},
          {"program_misses", double(s.program_misses)},
          {"stratum_hits", double(s.stratum_hits)},
          {"stratum_misses", double(s.stratum_misses)},
          {"stratum_evictions", double(s.stratum_evictions)},
          {"tuples_restored", double(s.tuples_restored)},
          {"plans_computed", double(s.plans_computed)},
          {"rounds", double(s.rounds)},
          {"parallel_rounds", double(s.parallel_rounds)},
          {"staged_tuples_merged", double(s.staged_tuples_merged)},
          {"tc_kernels_hit", double(s.tc_kernels_hit)},
          {"tc_dense_frontiers", double(s.tc_dense_frontiers)},
          {"tc_sparse_frontiers", double(s.tc_sparse_frontiers)},
          {"strata_incremental", double(s.strata_incremental)},
          {"strata_dred", double(s.strata_dred)},
          {"incremental_fallbacks", double(s.incremental_fallbacks)},
          {"tuples_overdeleted", double(s.tuples_overdeleted)},
          {"tuples_rederived", double(s.tuples_rederived)}};
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters out;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    out[key] = value - (it == b.end() ? 0.0 : it->second);
  }
  return out;
}

void LayerData::AddReplay(const StageTimes& t) {
  parse_us.push_back(t.parse_us);
  shape_us.push_back(t.shape_us);
  translate_us.push_back(t.translate_us);
  plan_us.push_back(t.plan_us);
  eval_ms.push_back(t.eval_ms);
  solution_us.push_back(t.solution_us);
  json_us.push_back(t.json_us);
  qerror.push_back(t.qerror);
  tuples_derived += t.tuples_derived;
}

void ProbeHttp(uint16_t port, int probes, LayerData* layers, Ledger* ledger) {
  for (int i = 0; i < probes; ++i) {
    ++ledger->attempted;
    auto start = Clock::now();
    HttpReply reply = HttpCall(port, "GET", "/healthz");
    double us = SecondsSince(start) * 1e6;
    if (reply.status != 200) {
      ledger->Fail("GET /healthz -> " + std::to_string(reply.status));
      continue;
    }
    layers->http_us.push_back(us);
  }
}

void Sheet::Print(const Ledger& ledger) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : ledger.first_errors) {
    std::printf("error %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
