// serve-hot and serve-mixed: one closed-loop client against the HTTP
// endpoint (POST /sparql, POST /update), one connection at a time.

#include <cstdio>
#include <functional>
#include <optional>

#include "bench.h"
#include "http_client.h"
#include "rdf/turtle_parser.h"

namespace perfbench {

using namespace sparqlog;

namespace {

/// Operations before the measured ones: they fill the caches and, on
/// serve-mixed, the update delete window.
constexpr size_t kWarmupOps = 200;
/// Operations between two host-gauge readings.
constexpr size_t kOpsPerGauge = 50;

/// One client operation as the oracle walk needs it.
struct OpRecord {
  bool update = false;
  bool insert = false;  ///< updates: insert or delete
  size_t batch = 0;     ///< updates: UpdateBatches index
  size_t tmpl = 0;      ///< queries: template
  std::string text;     ///< queries: SPARQL text
  std::optional<Answer> got;  ///< queries: nullopt = failed request
};

/// The single closed-loop client: one request at a time, each answer
/// digested and logged for the oracle walk, measured samples recorded.
class Client {
 public:
  /// `parse_dict`, when set, is the dictionary each update body's parse
  /// is timed against (traced runs).
  Client(uint16_t port, UpdateBatches* batches, Digester* digester,
         Tracer* tracer, Samples* samples, LayerData* layers, Ledger* ledger,
         rdf::TermDictionary* parse_dict = nullptr)
      : port_(port),
        parse_dict_(parse_dict),
        batches_(batches),
        digester_(digester),
        tracer_(tracer),
        samples_(samples),
        layers_(layers),
        ledger_(ledger) {}

  void Query(const ServeOp& op, bool measured, std::vector<OpRecord>* log) {
    ++ledger_->attempted;
    OpRecord rec;
    rec.tmpl = op.tmpl;
    rec.text = op.text;
    auto start = Clock::now();
    int64_t span = tracer_->Begin("server.POST /sparql", "server");
    HttpReply reply = HttpCall(port_, "POST", "/sparql", op.text,
                               "application/sparql-query");
    tracer_->End(span);
    double ms = SecondsSince(start) * 1e3 * Gauge().Scale();
    std::optional<JsonValue> json = ParseJson(reply.body);
    std::optional<Canonical> answer;
    if (json) answer = FromJson(*json);
    if (reply.status != 200 || !answer) {
      ledger_->Fail(std::string(kTemplateNames[op.tmpl]) + ": HTTP " +
                    std::to_string(reply.status) + " " +
                    reply.body.substr(0, 200));
    } else {
      rec.got = digester_->Check(op.text, *answer);
      if (const JsonValue* stats = json->Find("stats")) {
        double wall = stats->Number("wall_seconds");
        samples_->execute_ms.push_back(wall * 1e3);
        samples_->execute_cpu_ms.push_back(stats->Number("cpu_seconds") * 1e3);
        tracer_->Reported(span, "core.Engine::Execute", "core", wall);
      }
      samples_->result_rows += answer->rows.size();
      if (measured) {
        samples_->query_ms.push_back(ms);
        samples_->by_query_ms[kTemplateNames[op.tmpl]].push_back(ms);
        samples_->measured_s += ms / 1e3;
        ++samples_->queries;
      }
    }
    log->push_back(std::move(rec));
  }

  /// Update j: inserts batch j and, once the window is full, deletes
  /// batch j - kWindow. A measured update is one sample: the sum of its
  /// two POST /update round trips.
  void Update(size_t j, bool measured, std::vector<OpRecord>* log) {
    double publish = 0;
    double ms = Post(j, /*insert=*/true, log, &publish);
    if (j < UpdateBatches::kWindow) return;
    ms += Post(j - UpdateBatches::kWindow, /*insert=*/false, log, &publish);
    if (!measured || ms < 0) return;
    samples_->update_ms.push_back(ms);
    samples_->publish_ms.push_back(publish);
    samples_->measured_s += ms / 1e3;
  }

 private:
  /// One POST /update; returns its round trip in ms (a large negative
  /// value on failure) and adds the engine's publish time to `publish`.
  double Post(size_t batch, bool insert, std::vector<OpRecord>* log,
              double* publish) {
    ++ledger_->attempted;
    const std::string& body = batches_->Batch(batch);
    if (parse_dict_ != nullptr) {
      // The parse cost of the body, on a dictionary that holds the
      // dataset's terms, as the endpoint's does.
      rdf::Graph staged;
      auto start = Clock::now();
      rdf::ParseTurtleIntoGraph(body, parse_dict_, &staged);
      layers_->update_parse_us.push_back(SecondsSince(start) * 1e6);
    }
    auto start = Clock::now();
    int64_t span = tracer_->Begin("server.POST /update", "server");
    HttpReply reply =
        HttpCall(port_, "POST",
                 insert ? "/update?op=insert" : "/update?op=delete", body,
                 "text/turtle");
    tracer_->End(span);
    double ms = SecondsSince(start) * 1e3 * Gauge().Scale();
    OpRecord rec;
    rec.update = true;
    rec.insert = insert;
    rec.batch = batch;
    log->push_back(std::move(rec));
    std::optional<JsonValue> json = ParseJson(reply.body);
    double changed =
        json ? json->Number(insert ? "inserted" : "deleted", -1) : -1;
    if (reply.status != 200 ||
        changed != static_cast<double>(UpdateBatches::kBatchTriples)) {
      ledger_->Fail(std::string("update ") + (insert ? "insert" : "delete") +
                    ": HTTP " + std::to_string(reply.status) + " " +
                    reply.body.substr(0, 200));
      return -1e9;
    }
    double wall_ms = json->Number("wall_ms");
    tracer_->Reported(span, "core.Engine::ApplyUpdate", "core", wall_ms / 1e3);
    *publish += wall_ms;
    return ms;
  }

  uint16_t port_;
  rdf::TermDictionary* parse_dict_;
  UpdateBatches* batches_;
  Digester* digester_;
  Tracer* tracer_;
  Samples* samples_;
  LayerData* layers_;
  Ledger* ledger_;
};

/// Runs the operation stream from its start: kWarmupOps unmeasured
/// operations, then the workload's measured operations (traced runs:
/// exactly trace_ops operations in total). After each measured operation
/// `after_op` runs with the fraction of measured operations done.
void RunStream(const Config& config, ServeInputs* stream, Client* client,
               std::vector<OpRecord>* log,
               const std::function<void(double)>& after_op) {
  const size_t total =
      config.trace ? config.trace_ops
                   : kWarmupOps + PlanFor(config.workload).Units(config.seconds);
  stream->Restart();
  size_t updates = 0;
  for (size_t i = 0; i < total; ++i) {
    ServeOp op = stream->Next();
    if (op.update) {
      client->Update(updates++, i >= kWarmupOps, log);
    } else {
      client->Query(op, i >= kWarmupOps, log);
    }
    if (i % kOpsPerGauge == 0) Gauge().Read();
    if (i >= kWarmupOps) {
      after_op(static_cast<double>(i + 1 - kWarmupOps) /
               static_cast<double>(total - kWarmupOps));
    }
  }
}

/// Engine counters from GET /stats, and the EDB's bytes when `edb_bytes`
/// is non-null.
std::optional<Counters> FetchStats(uint16_t port, double* edb_bytes) {
  HttpReply reply = HttpCall(port, "GET", "/stats");
  std::optional<JsonValue> json = ParseJson(reply.body);
  if (reply.status != 200 || !json) return std::nullopt;
  Counters c = CountersOf({});
  for (auto& [key, value] : c) value = json->Number(key);
  const JsonValue* storage = json->Find("storage");
  if (storage != nullptr && edb_bytes != nullptr) {
    *edb_bytes = storage->Number("bytes");
  }
  return c;
}

}  // namespace

void RunServe(const Config& config, Samples* samples, LayerData* layers,
              Tracer* tracer, Ledger* ledger) {
  const bool mixed = config.workload == "serve-mixed";
  PhaseClock phases;
  ServeInputs inputs(config.sizes.serve_triples, config.seed, mixed);
  UpdateBatches batches(inputs.ntriples(), inputs.update_kinds(), config.seed);
  {
    std::vector<std::string> texts{inputs.ntriples()};
    for (int i = 0; i < 100; ++i) texts.push_back(inputs.Next().text);
    std::printf("inputs %s: %zu N-Triples bytes, digest %016llx\n",
                config.workload.c_str(), inputs.ntriples().size(),
                static_cast<unsigned long long>(InputDigest(texts)));
  }

  phases.Mark("generate");
  Instance inst;
  for (size_t r = 0; r < kStartSetups; ++r) {
    if (!SetUp(inputs.ntriples(), /*serve=*/true, tracer, &inst, samples,
               ledger)) {
      return;
    }
  }
  phases.Mark("setup");

  Digester digester;
  std::vector<OpRecord> log, traced_log;
  // serve-hot's update probe runs on a second instance of its own,
  // interleaved with the reads, so the measured endpoint stays read-only.
  Instance probe_inst;
  Samples probe_setup;
  Tracer off(false);
  if (!mixed && !SetUp(inputs.ntriples(), /*serve=*/true, &off, &probe_inst,
                       &probe_setup, ledger)) {
    return;
  }
  std::vector<OpRecord> probe_log;
  ProbeSchedule schedule(UpdateBatches::kWindow + kProbeUpdates);
  ProbeSchedule loads(kServeLoads);
  ProbeSchedule setups(kSetupReps - kStartSetups);
  size_t probe_next = 0;
  // Probe updates are not part of the read mix: their own samples keep
  // them out of qps's measured time.
  Samples probe_samples;
  // Traced runs time each update body's parse against a dictionary
  // that already holds the dataset's terms.
  std::unique_ptr<rdf::TermDictionary> parse_dict;
  if (config.trace) {
    parse_dict = std::make_unique<rdf::TermDictionary>();
    rdf::Dataset terms(parse_dict.get());
    if (!rdf::ParseTurtle(inputs.ntriples(), &terms).ok()) {
      ledger->Fail("ParseTurtle of the dataset for the update-parse timer");
    }
  }
  Client prober(mixed ? 0 : probe_inst.server->port(), &batches, &digester,
                tracer, &probe_samples, layers, ledger, parse_dict.get());
  const std::function<void(double)> no_probe = [](double) {};
  // Between measured operations: the remaining set-ups, the extra Load
  // samples and, on serve-hot, the update probe.
  const std::function<void(double)> probe = [&](double fraction) {
    for (size_t n = setups.Due(fraction); n > 0; --n) {
      Instance scratch;
      SetUp(inputs.ntriples(), /*serve=*/true, tracer, &scratch, samples,
            ledger);
    }
    for (size_t n = loads.Due(fraction); n > 0; --n) {
      TimeLoad(inst, samples, ledger);
    }
    if (mixed) return;
    for (size_t n = schedule.Due(fraction); n > 0; --n, ++probe_next) {
      prober.Update(probe_next, probe_next >= UpdateBatches::kWindow,
                    &probe_log);
    }
  };
  if (!config.trace) {
    Client client(inst.server->port(), &batches, &digester, tracer, samples,
                  layers, ledger);
    RunStream(config, &inputs, &client, &log, probe);
  } else {
    // The same operation stream twice, each on a fresh instance: untraced
    // (its query median is the overhead baseline) and traced (counters
    // are /stats deltas over it).
    Samples untraced;
    Client plain(inst.server->port(), &batches, &digester, &off, &untraced,
                 layers, ledger);
    RunStream(config, &inputs, &plain, &log, no_probe);
    layers->untraced_p50_ms = Median(untraced.query_ms);
    Samples scratch;
    if (!SetUp(inputs.ntriples(), /*serve=*/true, tracer, &inst, &scratch,
               ledger)) {
      return;
    }
    std::optional<Counters> before = FetchStats(inst.server->port(), nullptr);
    Client traced(inst.server->port(), &batches, &digester, tracer, samples,
                  layers, ledger, parse_dict.get());
    RunStream(config, &inputs, &traced, &traced_log, probe);
    std::optional<Counters> after =
        FetchStats(inst.server->port(), &layers->edb_bytes);
    if (!before || !after) {
      ledger->Fail("GET /stats failed");
    } else {
      layers->engine = Delta(*after, *before);
    }
    layers->traced_p50_ms = Median(samples->query_ms);
    ProbeHttp(inst.server->port(), 200, layers, ledger);
  }
  samples->update_ms.insert(samples->update_ms.end(),
                            probe_samples.update_ms.begin(),
                            probe_samples.update_ms.end());
  samples->publish_ms.insert(samples->publish_ms.end(),
                             probe_samples.publish_ms.begin(),
                             probe_samples.publish_ms.end());
  samples->peak_rss_mb = PeakRssMb();
  phases.Mark("operations");

  // Oracle walk: the reference replays the stream's updates in order and
  // answers every query at the same dataset state. A traced run's second
  // phase repeats the first, so it is checked against the same answers.
  Reference reference(inputs.ntriples());
  Replayer replayer(&reference, tracer);
  for (size_t i = 0; i < log.size(); ++i) {
    const OpRecord& rec = log[i];
    if (rec.update) {
      if (!reference.Apply(batches.Batch(rec.batch), rec.insert)) {
        ledger->Fail("reference could not parse an update body");
      }
      continue;
    }
    std::optional<Answer> expected = reference.Expect(rec.text);
    if (!expected) {
      ledger->Fail(std::string(kTemplateNames[rec.tmpl]) +
                   ": reference evaluator failed");
      continue;
    }
    auto check = [&](const std::optional<Answer>& got, const char* phase) {
      if (got && (got->digest != expected->digest ||
                  got->rows != expected->rows)) {
        ledger->Fail(std::string(kTemplateNames[rec.tmpl]) + " op " +
                     std::to_string(i) + phase + ": " +
                     std::to_string(got->rows) + " rows, expected " +
                     std::to_string(expected->rows));
      }
    };
    check(rec.got, "");
    if (!config.trace || i >= traced_log.size()) continue;
    const OpRecord& traced = traced_log[i];
    check(traced.got, " (traced)");
    if (i >= config.replay_ops) continue;
    tracer->set_op(i);
    StageTimes t;
    ++ledger->attempted;
    std::optional<Canonical> replayed = replayer.Run(rec.text, &t);
    if (!replayed || !traced.got ||
        reference.digester()->Check(rec.text, *replayed).digest !=
            traced.got->digest) {
      ledger->Fail(std::string(kTemplateNames[rec.tmpl]) + " op " +
                   std::to_string(i) +
                   ": stage replay disagrees with the engine");
      continue;
    }
    layers->AddReplay(t);
  }
  layers->td_ms = replayer.td_ms();
  layers->stats_ms = replayer.stats_ms();
  phases.Mark("oracle");
  std::printf("operations %zu, reference states %llu\n", log.size(),
              static_cast<unsigned long long>(reference.state()));
}

}  // namespace perfbench
