// Ablation of the engine-side query planning DESIGN.md calls out: the
// constant-endpoint closure seeding (first table; the greedy
// join-reorder pass runs in both columns) and the cost-based join
// planner — EDB statistics + greedy/DP body ordering (second table).
// All are semantics-preserving (verified here by comparing solutions/row
// counts), so the only difference is cost — this binary quantifies it on
// SP2Bench's join-heavy queries, on seeded/unseeded reachability, on the
// plan-sensitive dense-first document star, and on a synthetic
// characteristic-set star.

#include <cstdio>

#include "core/engine.h"
#include "core/query_translator.h"
#include "core/solution_translator.h"
#include "datalog/evaluator.h"
#include "sparql/parser.h"
#include "util/exec_context.h"
#include "util/string_util.h"
#include "workloads/report.h"
#include "workloads/sp2bench.h"

using namespace sparqlog;
using namespace sparqlog::workloads;

namespace {

struct RunOutcome {
  double seconds = 0;
  size_t rows = 0;
  bool ok = false;
};

RunOutcome RunOnce(const rdf::Dataset& /*dataset*/, rdf::TermDictionary* dict,
                   datalog::Database* edb, const sparql::Query& query,
                   bool seed, int timeout_ms) {
  RunOutcome out;
  datalog::SkolemStore skolems;
  core::QueryTranslator translator(dict, &skolems);
  translator.set_seed_constants(seed);
  auto program = translator.Translate(query);
  if (!program.ok()) return out;

  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(timeout_ms));
  datalog::Database idb;
  datalog::Evaluator evaluator(dict, &skolems);
  Stopwatch watch;
  Status st = evaluator.Evaluate(*program, edb, &idb, &ctx);
  if (!st.ok()) return out;
  auto result =
      core::SolutionTranslator::Translate(*program, query, idb, dict, &ctx);
  out.seconds = watch.ElapsedSeconds();
  if (!result.ok()) return out;
  out.rows = result->rows.size();
  out.ok = true;
  return out;
}

/// Full-engine run with the cost-based join planner toggled; loading is
/// excluded from the timing (the planner's statistics collection rides
/// the load, so Load() is called up front for both configurations).
RunOutcome RunEngine(const rdf::Dataset& dataset, rdf::TermDictionary* dict,
                     const std::string& query, bool planner,
                     int timeout_ms) {
  RunOutcome out;
  core::Engine::Options options;
  options.planner.join_planner = planner;
  options.caching.program_cache = false;
  options.caching.stratum_memo = false;
  options.timeout = std::chrono::milliseconds(timeout_ms);
  core::Engine engine(&dataset, dict, options);
  if (!engine.Load().ok()) return out;
  Stopwatch watch;
  auto result = engine.ExecuteText(query);
  out.seconds = watch.ElapsedSeconds();
  if (!result.ok()) return out;
  out.rows = result->result.rows.size();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int timeout_ms = static_cast<int>(FlagValue(argc, argv, "timeout-ms", 30000));
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Sp2bOptions options;
  options.target_triples =
      static_cast<size_t>(FlagValue(argc, argv, "triples", 4000));
  GenerateSp2b(options, &dataset);

  datalog::Database edb;
  auto st = core::DataTranslator::Translate(dataset, &dict, &edb);
  if (!st.ok()) {
    std::printf("load error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Planner ablation on SP2Bench (%zu triples)\n",
              dataset.default_graph().size());

  struct Case {
    const char* name;
    std::string query;
  };
  const std::string articles =
      "http://localhost/publications/art";
  std::vector<Case> cases;
  for (auto& [name, text] : Sp2bQueries()) {
    if (name == "q4" || name == "q5a" || name == "q12a") {
      cases.push_back({name == "q4" ? "q4 (8-way join)"
                       : name == "q5a" ? "q5a (join+filter)"
                                       : "q12a (ASK join)",
                       text});
    }
  }
  cases.push_back(
      {"seeded reachability (const subject, references+)",
       Sp2bPrefixes() + "SELECT ?b WHERE { <" + articles +
           "5> dcterms:references+ ?b }"});
  cases.push_back(
      {"seeded reachability (const object, references+)",
       Sp2bPrefixes() + "SELECT ?a WHERE { ?a dcterms:references+ <" +
           articles + "5> }"});

  TablePrinter table({"Query", "unseeded (s)", "seeded (s)",
                      "speedup", "rows agree"});
  for (const Case& c : cases) {
    auto parsed = sparql::ParseQuery(c.query, &dict);
    if (!parsed.ok()) continue;
    RunOutcome off = RunOnce(dataset, &dict, &edb, *parsed, false,
                             timeout_ms);
    RunOutcome on = RunOnce(dataset, &dict, &edb, *parsed, true, timeout_ms);
    std::string speedup =
        (off.ok && on.ok && on.seconds > 0)
            ? StringPrintf("%.1fx", off.seconds / on.seconds)
            : "n/a";
    table.AddRow({c.name, off.ok ? StringPrintf("%.4f", off.seconds) : "fail",
                  on.ok ? StringPrintf("%.4f", on.seconds) : "fail", speedup,
                  off.ok && on.ok && off.rows == on.rows ? "yes" : "NO"});
  }
  table.Print();

  // --- Cost-based join planner (EDB statistics + greedy/DP ordering) ---
  // Queries written in deliberately bad atom order: planner-off executes
  // them as written (the runtime heuristic cannot separate patterns that
  // share the `triple` relation), planner-on reorders from statistics.
  std::printf("\nCost-based join planner ablation\n");
  std::vector<Case> planner_cases;
  planner_cases.push_back(
      {"document star, dense-first (histogram)",
       Sp2bPrefixes() +
           "SELECT ?yr ?t WHERE { ?d dcterms:issued ?yr . ?d dc:title ?t . "
           "?d rdf:type bench:Journal }"});
  planner_cases.push_back(
      {"creator chain, dense-first",
       Sp2bPrefixes() +
           "SELECT ?n WHERE { ?a dc:creator ?p . ?a rdf:type bench:Journal "
           ". ?p foaf:name ?n }"});
  for (auto& [name, text] : Sp2bQueries()) {
    if (name == "q4" || name == "q5a") {
      planner_cases.push_back({name == "q4" ? "q4 (8-way join)"
                                            : "q5a (join+filter)",
                               text});
    }
  }

  // Synthetic characteristic-set star on its own dataset: two dense
  // predicates on every subject, one rare predicate on 1/256 of them.
  rdf::TermDictionary star_dict;
  rdf::Dataset star(&star_dict);
  {
    rdf::TermId p1 = star_dict.InternIri("http://b.org/p1");
    rdf::TermId p2 = star_dict.InternIri("http://b.org/p2");
    rdf::TermId rare = star_dict.InternIri("http://b.org/rare");
    auto node = [&](const char* prefix, size_t i) {
      return star_dict.InternIri(std::string("http://b.org/") + prefix +
                                 std::to_string(i));
    };
    for (size_t i = 0; i < 8192; ++i) {
      rdf::TermId s = node("s", i);
      star.default_graph().Add(s, p1, node("a", i));
      star.default_graph().Add(s, p2, node("b", i));
      if (i % 256 == 0) star.default_graph().Add(s, rare, node("r", i));
    }
  }
  const std::string star_query =
      "PREFIX b: <http://b.org/> SELECT ?s ?v WHERE "
      "{ ?s b:p1 ?a . ?s b:p2 ?b . ?s b:rare ?v }";

  TablePrinter planner_table({"Query", "planner off (s)", "planner on (s)",
                              "speedup", "rows agree"});
  auto add_planner_row = [&](const std::string& name,
                             const rdf::Dataset& data,
                             rdf::TermDictionary* d,
                             const std::string& text) {
    RunOutcome off = RunEngine(data, d, text, false, timeout_ms);
    RunOutcome on = RunEngine(data, d, text, true, timeout_ms);
    std::string speedup =
        (off.ok && on.ok && on.seconds > 0)
            ? StringPrintf("%.1fx", off.seconds / on.seconds)
            : "n/a";
    planner_table.AddRow(
        {name, off.ok ? StringPrintf("%.4f", off.seconds) : "fail",
         on.ok ? StringPrintf("%.4f", on.seconds) : "fail", speedup,
         off.ok && on.ok && off.rows == on.rows ? "yes" : "NO"});
  };
  for (const Case& c : planner_cases) {
    add_planner_row(c.name, dataset, &dict, c.query);
  }
  add_planner_row("synthetic star (characteristic sets)", star, &star_dict,
                  star_query);
  planner_table.Print();
  return 0;
}
