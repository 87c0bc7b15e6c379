// sp2b-cold and gmark-paths: a fixed query list over a fresh Engine per
// pass (the paper's reload methodology), driven through the library API.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "bench.h"
#include "rdf/turtle_parser.h"

namespace perfbench {

using namespace sparqlog;

namespace {

/// Queries between two host-gauge readings inside a pass.
constexpr size_t kQueriesPerGauge = 10;

/// One pass's answers, one entry per query (nullopt = the call failed).
using PassAnswers = std::vector<std::optional<Answer>>;

/// Runs `count` passes. Each pass builds a fresh engine over the set-up
/// dataset, loads it, runs every query and drops the engine; answers are
/// digested between passes, outside the timing, and then `after_pass` runs
/// with the fraction of passes done.
void RunPasses(const FixedInputs& in, Instance* inst, Digester* digester,
               Tracer* tracer, size_t count, Samples* samples,
               std::vector<PassAnswers>* passes, Counters* counters,
               double* edb_bytes, Ledger* ledger,
               const std::function<void(double)>& after_pass) {
  for (size_t made = 0; made < count; ++made) {
    std::vector<Result<core::Engine::Execution>> results;
    results.reserve(in.queries.size());
    // The pass's time is its load plus its queries; the host gauge reads
    // before the load and after every kQueriesPerGauge queries, between
    // the timed calls. Tearing the engine down happens after, untimed.
    int64_t pass_span = tracer->Begin("bench.pass", "bench");
    auto engine = std::make_unique<core::Engine>(
        inst->dataset.get(), inst->dict.get(), EngineOptions());
    Gauge().Read();
    double scale = Gauge().Scale();
    auto load_start = Clock::now();
    Status st;
    {
      Scope span(tracer, "core.Engine::Load", "core");
      st = engine->Load();
    }
    double pass_ms = SecondsSince(load_start) * 1e3 * scale;
    samples->load_ms.push_back(pass_ms);
    if (!st.ok()) ledger->Fail("Load: " + st.ToString());
    for (size_t i = 0; i < in.queries.size(); ++i) {
      if (i > 0 && i % kQueriesPerGauge == 0) {
        Gauge().Read();
        scale = Gauge().Scale();
      }
      tracer->set_op(i);
      auto start = Clock::now();
      {
        Scope span(tracer, "core.Engine::ExecuteText", "core");
        results.push_back(engine->ExecuteText(in.queries[i].second));
      }
      double ms = SecondsSince(start) * 1e3 * scale;
      pass_ms += ms;
      samples->query_ms.push_back(ms);
      samples->by_query_ms[in.queries[i].first].push_back(ms);
    }
    tracer->End(pass_span);
    samples->measured_s += pass_ms / 1e3;
    samples->queries += in.queries.size();
    *counters = CountersOf(engine->stats());
    *edb_bytes = static_cast<double>(engine->edb_storage().bytes);
    auto teardown_start = Clock::now();
    engine.reset();
    samples->teardown_ms.push_back(SecondsSince(teardown_start) * 1e3 *
                                   Gauge().Scale());

    PassAnswers answers;
    for (size_t i = 0; i < results.size(); ++i) {
      ++ledger->attempted;
      if (!results[i].ok()) {
        ledger->Fail(in.queries[i].first + ": " +
                     results[i].status().ToString());
        answers.push_back(std::nullopt);
        continue;
      }
      const core::Engine::QueryStats& qs = results[i]->stats;
      samples->execute_ms.push_back(qs.wall_seconds * 1e3);
      samples->execute_cpu_ms.push_back(qs.cpu_seconds * 1e3);
      samples->result_rows += results[i]->result.rows.size();
      answers.push_back(digester->Check(
          in.queries[i].second, FromResult(results[i]->result, *inst->dict)));
    }
    passes->push_back(std::move(answers));
    after_pass(static_cast<double>(made + 1) / static_cast<double>(count));
  }
}

/// Update probe through the library on a private instance: each body is
/// parsed with rdf::ParseTurtleIntoGraph and applied with
/// Engine::ApplyUpdate. The first kWindow updates only insert; each
/// measured update inserts a new batch and deletes the batch kWindow
/// older, and is one sample.
class LibraryProbe {
 public:
  LibraryProbe(const FixedInputs& in, uint64_t seed, Tracer* tracer,
               Samples* samples, LayerData* layers, Ledger* ledger)
      : batches_(in.ntriples, in.update_kinds, seed),
        tracer_(tracer),
        samples_(samples),
        layers_(layers),
        ledger_(ledger) {
    Samples scratch;
    Tracer off(false);
    ok_ = SetUp(in.ntriples, /*serve=*/false, &off, &inst_, &scratch, ledger);
  }

  /// Runs the next `count` updates.
  void Run(size_t count) {
    if (count > 0) Gauge().Read();
    const size_t w = UpdateBatches::kWindow;
    for (size_t k = 0; k < count && ok_; ++k, ++next_) {
      auto start = Clock::now();
      double publish = Apply(batches_.Batch(next_), /*insert=*/true);
      if (next_ < w) continue;
      double publish_delete = Apply(batches_.Batch(next_ - w), false);
      double ms = SecondsSince(start) * 1e3 * Gauge().Scale();
      if (publish < 0 || publish_delete < 0) continue;
      samples_->update_ms.push_back(ms);
      samples_->publish_ms.push_back(publish + publish_delete);
    }
  }

 private:
  /// Applies one body; returns its publish time in ms, or -1 on failure.
  double Apply(const std::string& body, bool insert) {
    ++ledger_->attempted;
    Scope span(tracer_, "bench.update", "bench");
    auto start = Clock::now();
    rdf::Graph staged;
    Status st;
    {
      Scope parse(tracer_, "rdf.ParseTurtleIntoGraph", "rdf");
      st = rdf::ParseTurtleIntoGraph(body, inst_.dict.get(), &staged);
    }
    layers_->update_parse_us.push_back(SecondsSince(start) * 1e6);
    core::Engine::UpdateStats us;
    if (st.ok()) {
      Scope apply(tracer_, "core.Engine::ApplyUpdate", "core");
      std::vector<rdf::Triple> none;
      st = insert ? inst_.engine->ApplyUpdate(staged.triples(), none, &us)
                  : inst_.engine->ApplyUpdate(none, staged.triples(), &us);
    }
    size_t changed = insert ? us.inserted : us.deleted;
    if (!st.ok() || changed != UpdateBatches::kBatchTriples) {
      ledger_->Fail(std::string("update ") + (insert ? "insert" : "delete") +
                    ": " + st.ToString() + ", changed " +
                    std::to_string(changed));
      return -1;
    }
    return us.wall_seconds * 1e3;
  }

  UpdateBatches batches_;
  Instance inst_;
  bool ok_ = false;
  size_t next_ = 0;
  Tracer* tracer_;
  Samples* samples_;
  LayerData* layers_;
  Ledger* ledger_;
};

}  // namespace

void RunCold(const Config& config, Samples* samples, LayerData* layers,
             Tracer* tracer, Ledger* ledger) {
  const bool gmark = config.workload == "gmark-paths";
  PhaseClock phases;
  FixedInputs in = gmark ? MakeGmarkInputs(config.sizes.gmark_edges,
                                           config.seed)
                         : MakeSp2bInputs(config.sizes.sp2b_triples,
                                          config.seed);
  std::vector<std::string> texts{in.ntriples};
  for (const auto& q : in.queries) texts.push_back(q.second);
  std::printf("inputs %s: %zu N-Triples bytes, %zu queries, digest %016llx\n",
              config.workload.c_str(), in.ntriples.size(), in.queries.size(),
              static_cast<unsigned long long>(InputDigest(texts)));

  phases.Mark("generate");
  Instance inst;
  for (size_t r = 0; r < kStartSetups; ++r) {
    if (!SetUp(in.ntriples, /*serve=*/false, tracer, &inst, samples, ledger)) {
      return;
    }
  }
  phases.Mark("setup");
  Digester digester;
  std::vector<PassAnswers> passes;
  Counters counters;
  LibraryProbe probe(in, config.seed, tracer, samples, layers, ledger);
  ProbeSchedule schedule(UpdateBatches::kWindow + kProbeUpdates);
  ProbeSchedule setups(kSetupReps - kStartSetups);
  auto probe_step = [&](double fraction) {
    for (size_t n = setups.Due(fraction); n > 0; --n) {
      Instance scratch;
      SetUp(in.ntriples, /*serve=*/false, tracer, &scratch, samples, ledger);
    }
    probe.Run(schedule.Due(fraction));
  };
  if (!config.trace) {
    RunPasses(in, &inst, &digester, tracer,
              PlanFor(config.workload).Units(config.seconds), samples,
              &passes, &counters, &layers->edb_bytes, ledger, probe_step);
  } else {
    // One untraced and one traced pass: the difference of their query
    // medians is the tracing overhead; counters come from the traced one.
    Tracer off(false);
    Samples untraced;
    RunPasses(in, &inst, &digester, &off, 1, &untraced, &passes, &counters,
              &layers->edb_bytes, ledger, [](double) {});
    layers->untraced_p50_ms = Median(untraced.query_ms);
    RunPasses(in, &inst, &digester, tracer, 1, samples, &passes, &counters,
              &layers->edb_bytes, ledger, probe_step);
    layers->traced_p50_ms = Median(samples->query_ms);
    layers->engine = counters;
  }
  samples->peak_rss_mb = PeakRssMb();
  std::printf("passes %zu over %.3f s\n", passes.size(), samples->measured_s);
  phases.Mark("passes");

  if (config.trace) {
    // The HTTP layer's fixed cost, measured on an endpoint over the
    // set-up engine.
    server::HttpServerOptions options;
    options.num_workers = kServerWorkers;
    server::HttpServer endpoint(inst.engine.get(), inst.dict.get(), options);
    if (endpoint.Start().ok()) {
      ProbeHttp(endpoint.port(), 200, layers, ledger);
    } else {
      ledger->Fail("HttpServer::Start for the /healthz probe");
    }
    phases.Mark("healthz");
  }

  // Oracle: every pass's every answer against the reference evaluator.
  Reference reference(in.ntriples);
  Replayer replayer(&reference, tracer);
  std::vector<std::pair<double, std::string>> reference_ms;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const auto& [name, text] = in.queries[i];
    auto reference_start = Clock::now();
    std::optional<Answer> expected = reference.Expect(text);
    reference_ms.emplace_back(SecondsSince(reference_start) * 1e3, name);
    if (!expected) {
      ledger->Fail(name + ": reference evaluator failed");
      continue;
    }
    for (size_t p = 0; p < passes.size(); ++p) {
      const std::optional<Answer>& got = passes[p][i];
      if (got && (got->digest != expected->digest ||
                  got->rows != expected->rows)) {
        ledger->Fail(name + " pass " + std::to_string(p) + ": " +
                     std::to_string(got->rows) + " rows, expected " +
                     std::to_string(expected->rows));
      }
    }
    if (!config.trace) continue;
    tracer->set_op(i);
    StageTimes t;
    ++ledger->attempted;
    std::optional<Canonical> replayed = replayer.Run(text, &t);
    const std::optional<Answer>& engine_answer = passes.back()[i];
    if (!replayed || !engine_answer ||
        reference.digester()->Check(text, *replayed).digest !=
            engine_answer->digest) {
      ledger->Fail(name + ": stage replay disagrees with the engine");
      continue;
    }
    layers->AddReplay(t);
  }
  layers->td_ms = replayer.td_ms();
  layers->stats_ms = replayer.stats_ms();
  std::sort(reference_ms.rbegin(), reference_ms.rend());
  std::printf("slowest reference evaluator (AlgebraEvaluator) times:");
  for (size_t i = 0; i < reference_ms.size() && i < 6; ++i) {
    std::printf(" %s=%.2fms", reference_ms[i].second.c_str(),
                reference_ms[i].first);
  }
  std::printf("\n");
  phases.Mark("oracle");
}

}  // namespace perfbench
