#include "replay.h"

#include <algorithm>

#include "core/data_translator.h"
#include "core/query_translator.h"
#include "core/solution_translator.h"
#include "datalog/evaluator.h"
#include "datalog/planner.h"
#include "server/json.h"
#include "sparql/parser.h"
#include "sparql/shape.h"

namespace perfbench {

using namespace sparqlog;

namespace {

double Us(Clock::time_point start) { return SecondsSince(start) * 1e6; }

}  // namespace

bool Replayer::Sync() {
  if (built_state_ == reference_->state()) return true;
  Scope scope(tracer_, "bench.replay_rebuild", "bench");
  edb_ = datalog::Database();
  auto start = Clock::now();
  {
    Scope td(tracer_, "core.DataTranslator::Translate", "core");
    if (!core::DataTranslator::Translate(*reference_->dataset(),
                                         reference_->dict(), &edb_)
             .ok()) {
      return false;
    }
  }
  td_ms_.push_back(Us(start) / 1e3);
  start = Clock::now();
  {
    Scope collect(tracer_, "datalog.EdbStats::Collect", "datalog");
    datalog::PredicateTable scratch;
    core::EdbPredicates preds = core::InternEdbPredicates(&scratch);
    stats_ = datalog::EdbStats();
    stats_.Collect(edb_, preds.triple);
  }
  stats_ms_.push_back(Us(start) / 1e3);
  built_state_ = reference_->state();
  return true;
}

std::optional<Canonical> Replayer::Run(const std::string& text,
                                       StageTimes* t) {
  if (!Sync()) return std::nullopt;
  rdf::TermDictionary* dict = reference_->dict();
  Scope scope(tracer_, "bench.replay_query", "bench");

  auto start = Clock::now();
  int64_t span = tracer_->Begin("sparql.ParseQuery", "sparql");
  auto query = sparql::ParseQuery(text, dict);
  tracer_->End(span);
  t->parse_us = Us(start);
  if (!query.ok()) return std::nullopt;

  start = Clock::now();
  span = tracer_->Begin("sparql.ComputeQueryShape", "sparql");
  sparql::QueryShape shape = sparql::ComputeQueryShape(*query);
  tracer_->End(span);
  t->shape_us = Us(start);
  (void)shape;

  start = Clock::now();
  span = tracer_->Begin("core.QueryTranslator::Translate", "core");
  core::QueryTranslator translator(dict, &skolems_);
  auto program = translator.Translate(*query);
  tracer_->End(span);
  t->translate_us = Us(start);
  if (!program.ok()) return std::nullopt;

  start = Clock::now();
  span = tracer_->Begin("datalog.PlanProgram", "datalog");
  datalog::PlanProgram(&*program, stats_);
  tracer_->End(span);
  t->plan_us = Us(start);

  ExecContext ctx;
  datalog::Database idb;
  datalog::Evaluator evaluator(dict, &skolems_);
  evaluator.set_num_threads(2);
  start = Clock::now();
  span = tracer_->Begin("datalog.Evaluator::Evaluate", "datalog");
  Status st = evaluator.Evaluate(*program, &edb_, &idb, &ctx);
  tracer_->End(span);
  t->eval_ms = Us(start) / 1e3;
  if (!st.ok()) return std::nullopt;
  t->tuples_derived = evaluator.stats().tuples_derived;
  const datalog::Relation* out = idb.Find(program->output.predicate);
  double actual = std::max(out == nullptr ? 0.0 : double(out->size()), 1.0);
  double estimate = std::max(program->planned_estimate, 1.0);
  t->qerror = std::max(estimate / actual, actual / estimate);

  start = Clock::now();
  span = tracer_->Begin("core.SolutionTranslator::Translate", "core");
  auto result =
      core::SolutionTranslator::Translate(*program, *query, idb, dict, &ctx);
  tracer_->End(span);
  t->solution_us = Us(start);
  if (!result.ok()) return std::nullopt;

  start = Clock::now();
  span = tracer_->Begin("server.ResultToJson", "server");
  std::string json = server::ResultToJson(*result, *dict);
  tracer_->End(span);
  t->json_us = Us(start);

  return FromResult(*result, *dict);
}

}  // namespace perfbench
