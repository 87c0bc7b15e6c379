#include "answers.h"

#include <algorithm>

#include "eval/algebra_eval.h"
#include "rdf/turtle_parser.h"
#include "sparql/parser.h"
#include "util.h"

namespace perfbench {

using namespace sparqlog;

namespace {

uint64_t Cell(char kind, const std::string& value, const std::string& lang,
              const std::string& datatype) {
  uint64_t h = Fnv(std::string_view(&kind, 1));
  h = Fnv(value, h);
  h = Fnv("\x1f", h);
  h = Fnv(lang, h);
  h = Fnv("\x1f", h);
  h = Fnv(datatype, h);
  return h == 0 ? 1 : h;  // 0 marks unbound
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Canonical FromResult(const eval::QueryResult& result,
                     const rdf::TermDictionary& dict) {
  Canonical c;
  c.is_ask = result.is_ask;
  c.ask_value = result.ask_value;
  if (c.is_ask) return c;
  c.columns = result.columns;
  c.rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::vector<uint64_t> cells;
    cells.reserve(row.size());
    for (rdf::TermId id : row) {
      if (id == rdf::TermDictionary::kUndef) {
        cells.push_back(0);
        continue;
      }
      const rdf::Term& t = dict.get(id);
      char kind = t.is_iri() ? 'U' : t.is_blank() ? 'B' : 'L';
      cells.push_back(Cell(kind, t.lexical, t.is_literal() ? t.lang : "",
                           t.is_literal() ? t.datatype : ""));
    }
    c.rows.push_back(std::move(cells));
  }
  return c;
}

std::optional<Canonical> FromJson(const JsonValue& json) {
  Canonical c;
  if (const JsonValue* b = json.Find("boolean")) {
    c.is_ask = true;
    c.ask_value = b->boolean;
    return c;
  }
  const JsonValue* head = json.Find("head");
  const JsonValue* results = json.Find("results");
  const JsonValue* vars = head != nullptr ? head->Find("vars") : nullptr;
  const JsonValue* bindings =
      results != nullptr ? results->Find("bindings") : nullptr;
  if (vars == nullptr || bindings == nullptr) return std::nullopt;
  for (const JsonValue& v : vars->array) c.columns.push_back(v.string);
  for (const JsonValue& binding : bindings->array) {
    std::vector<uint64_t> cells;
    for (const std::string& col : c.columns) {
      const JsonValue* term = binding.Find(col);
      if (term == nullptr) {
        cells.push_back(0);
        continue;
      }
      const JsonValue* type = term->Find("type");
      const JsonValue* value = term->Find("value");
      if (type == nullptr || value == nullptr) return std::nullopt;
      const JsonValue* lang = term->Find("xml:lang");
      const JsonValue* datatype = term->Find("datatype");
      char kind = type->string == "uri" ? 'U'
                  : type->string == "bnode" ? 'B'
                                            : 'L';
      cells.push_back(Cell(kind, value->string,
                           lang != nullptr ? lang->string : "",
                           datatype != nullptr ? datatype->string : ""));
    }
    c.rows.push_back(std::move(cells));
  }
  return c;
}

uint64_t Digester::DigestOf(Canonical answer, const OrderKeys& keys) {
  if (answer.is_ask) return answer.ask_value ? 1 : 2;
  uint64_t h = Fnv("columns");
  for (const std::string& col : answer.columns) h = Fnv(col + "\x1d", h);
  auto& rows = answer.rows;
  if (keys.empty()) {
    std::sort(rows.begin(), rows.end());
  } else {
    // Sequence of key groups: rows tied on every key column form a group
    // whose internal order is free, so each group is sorted on its own.
    auto same_key = [&](const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
      for (size_t k : keys) {
        if (a[k] != b[k]) return false;
      }
      return true;
    };
    size_t begin = 0;
    while (begin < rows.size()) {
      size_t end = begin + 1;
      while (end < rows.size() && same_key(rows[begin], rows[end])) ++end;
      std::sort(rows.begin() + begin, rows.begin() + end);
      begin = end;
    }
  }
  for (const auto& row : rows) {
    for (uint64_t cell : row) h = Mix(h, cell);
    h = Mix(h, 0x1d);
  }
  return h;
}

Reference::Reference(const std::string& ntriples) {
  rdf::ParseTurtle(ntriples, &dataset_);
}

bool Reference::Apply(const std::string& body, bool insert) {
  rdf::Graph staged;
  if (!rdf::ParseTurtleIntoGraph(body, &dict_, &staged).ok()) return false;
  std::vector<rdf::Triple> none;
  if (insert) {
    dataset_.default_graph().ApplyDelta(staged.triples(), none);
  } else {
    dataset_.default_graph().ApplyDelta(none, staged.triples());
  }
  ++state_;
  cache_.clear();
  return true;
}

Answer Digester::Check(const std::string& text, const Canonical& answer) {
  return {DigestOf(answer, KeysFor(text, answer.columns)),
          answer.rows.size()};
}

const OrderKeys& Digester::KeysFor(const std::string& text,
                                   const std::vector<std::string>& columns) {
  auto it = keys_.find(text);
  if (it != keys_.end()) return it->second;
  OrderKeys keys;
  auto query = sparql::ParseQuery(text, &scratch_);
  if (query.ok()) {
    for (const sparql::OrderKey& key : query->order_by) {
      auto col = key.expr->kind == sparql::ExprKind::kVar
                     ? std::find(columns.begin(), columns.end(), key.expr->var)
                     : columns.end();
      if (col == columns.end()) {
        keys.clear();
        break;
      }
      keys.push_back(static_cast<size_t>(col - columns.begin()));
    }
  }
  return keys_.emplace(text, std::move(keys)).first->second;
}

std::optional<Answer> Reference::Expect(const std::string& text) {
  auto it = cache_.find(text);
  if (it != cache_.end()) return it->second;
  auto query = sparql::ParseQuery(text, &dict_);
  if (!query.ok()) return std::nullopt;
  ExecContext ctx;
  eval::AlgebraEvaluator evaluator(dataset_, &dict_, &ctx);
  auto result = evaluator.EvalQuery(*query);
  if (!result.ok()) return std::nullopt;
  Answer answer = digester_.Check(text, FromResult(*result, dict_));
  cache_.emplace(text, answer);
  return answer;
}

}  // namespace perfbench
