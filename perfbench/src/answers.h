#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/binding.h"
#include "rdf/graph.h"
#include "json_value.h"

/// \file answers.h
/// The correctness oracle. Answers from every surface — a library
/// QueryResult or the endpoint's SPARQL-results JSON — are reduced to a
/// dictionary-independent canonical form and a digest: rows compare as a
/// multiset, except that a query with ORDER BY over projected variables
/// compares as a sequence of key groups (rows tied on the sort key may
/// come in any order). The expected digests come from the reference
/// `eval::AlgebraEvaluator` over the benchmark's own copy of the dataset,
/// which replays the same updates.

namespace perfbench {

/// Canonical, dictionary-independent answer: every cell is a 64-bit
/// hash of the term's kind, lexical form, language tag and datatype.
struct Canonical {
  std::vector<std::string> columns;
  std::vector<std::vector<uint64_t>> rows;  ///< 0 = unbound
  bool is_ask = false;
  bool ask_value = false;
};

Canonical FromResult(const sparqlog::eval::QueryResult& result,
                     const sparqlog::rdf::TermDictionary& dict);
/// Reads the endpoint's results JSON; nullopt when malformed.
std::optional<Canonical> FromJson(const JsonValue& json);

/// Digest of a checked answer plus its row count.
struct Answer {
  uint64_t digest = 0;
  uint64_t rows = 0;
};

/// Positions of the ORDER BY key columns of a query text; empty when
/// the query is unordered (or orders by something it does not project,
/// in which case only the multiset is checked).
using OrderKeys = std::vector<size_t>;

/// Digests answers under each query text's ordering rules. Order keys
/// come from parsing the text into a private scratch dictionary, so
/// digesting touches no dictionary of the system under test.
class Digester {
 public:
  Answer Check(const std::string& text, const Canonical& answer);

  static uint64_t DigestOf(Canonical answer, const OrderKeys& keys);

 private:
  const OrderKeys& KeysFor(const std::string& text,
                           const std::vector<std::string>& columns);

  sparqlog::rdf::TermDictionary scratch_;
  std::map<std::string, OrderKeys> keys_;
};

/// Expected answers per query text, from the reference evaluator over a
/// private dataset copy. Dataset states are numbered by the updates
/// applied so far; answers are cached per text until the next update.
class Reference {
 public:
  /// Parses the benchmark's N-Triples into the private copy.
  explicit Reference(const std::string& ntriples);

  /// Applies one update body (N-Triples), insert or delete, advancing the
  /// state number. Returns false if the body does not parse.
  bool Apply(const std::string& body, bool insert);
  uint64_t state() const { return state_; }

  /// Expected answer of `text` at the current state; nullopt if the
  /// reference itself cannot answer.
  std::optional<Answer> Expect(const std::string& text);

  Digester* digester() { return &digester_; }
  sparqlog::rdf::TermDictionary* dict() { return &dict_; }
  sparqlog::rdf::Dataset* dataset() { return &dataset_; }

 private:
  sparqlog::rdf::TermDictionary dict_;
  sparqlog::rdf::Dataset dataset_{&dict_};
  Digester digester_;
  uint64_t state_ = 0;
  std::map<std::string, Answer> cache_;  ///< answers at the current state
};

}  // namespace perfbench
