#include "rdf/turtle_parser.h"

#include <cctype>
#include <map>

#include "rdf/term_scanner.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace sparqlog::rdf {

namespace {

SPARQLOG_FAILPOINT_DEFINE(g_fp_statement, "rdf.turtle.statement");
SPARQLOG_FAILPOINT_DEFINE(g_fp_intern, "rdf.intern.term");

/// Recursive-descent Turtle reader: statements, directives, GRAPH blocks
/// and predicate-object lists around the shared term scanner.
class TurtleReader {
 public:
  TurtleReader(std::string_view text, TermDictionary* dict, Dataset* dataset,
               Graph* single_graph)
      : in_(text, "turtle"),
        dict_(dict),
        dataset_(dataset),
        target_(single_graph) {}

  Status Run() {
    while (true) {
      in_.SkipWs();
      if (in_.AtEnd()) return Status::OK();
      SPARQLOG_FAILPOINT(g_fp_statement);
      SPARQLOG_RETURN_NOT_OK(Statement());
    }
  }

 private:
  using Kind = TermToken::Kind;

  /// Whether `c` may not continue a keyword.
  static bool EndsKeyword(char c) {
    return !std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
           c != '-' && c != ':';
  }

  /// Consumes `kw` (ASCII case-insensitive) unless it starts a longer name.
  bool ConsumeKeyword(std::string_view kw) {
    in_.SkipWs();
    std::string_view rest = in_.Rest();
    if (rest.size() < kw.size() ||
        !AsciiEqualsIgnoreCase(rest.substr(0, kw.size()), kw) ||
        !EndsKeyword(in_.Peek(kw.size()))) {
      return false;
    }
    in_.Advance(kw.size());
    return true;
  }

  bool ConsumeChar(char c) {
    in_.SkipWs();
    if (in_.AtEnd() || in_.Peek() != c) return false;
    in_.Advance();
    return true;
  }

  Status ExpectChar(char c) {
    if (ConsumeChar(c)) return Status::OK();
    return in_.Error(std::string("expected '") + c + "', got " +
                     (in_.AtEnd() ? "the end of the input"
                                  : "'" + std::string(1, in_.Peek()) + "'"));
  }

  /// Scans the next term, if one starts after the whitespace, into tok_.
  Status ScanTerm() {
    in_.SkipWs();
    return in_.Scan(&tok_);
  }

  Status Statement() {
    // The '@' forms end with '.', the SPARQL-style forms do not.
    if (ConsumeKeyword("@prefix")) return PrefixDirective(/*dotted=*/true);
    if (ConsumeKeyword("@base")) return BaseDirective(/*dotted=*/true);
    if (ConsumeKeyword("PREFIX")) return PrefixDirective(/*dotted=*/false);
    if (ConsumeKeyword("BASE")) return BaseDirective(/*dotted=*/false);
    if (ConsumeKeyword("GRAPH")) return GraphBlock();
    return TriplesStatement(CurrentGraph());
  }

  Status PrefixDirective(bool dotted) {
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    if (tok_.kind != Kind::kPName || !tok_.local().empty()) {
      return in_.Error("expected a prefix name ending in ':'");
    }
    std::string name(tok_.prefix());
    SPARQLOG_RETURN_NOT_OK(ReadIriRef());
    prefixes_[std::move(name)] = tok_.text;
    if (dotted) SPARQLOG_RETURN_NOT_OK(ExpectChar('.'));
    return Status::OK();
  }

  Status BaseDirective(bool dotted) {
    SPARQLOG_RETURN_NOT_OK(ReadIriRef());
    base_ = tok_.text;
    if (dotted) SPARQLOG_RETURN_NOT_OK(ExpectChar('.'));
    return Status::OK();
  }

  /// Reads an <IRI> into tok_.text, resolved against the base.
  Status ReadIriRef() {
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    if (tok_.kind != Kind::kIri) return in_.Error("expected <IRI>");
    ResolveAgainstBase(&tok_.text);
    return Status::OK();
  }

  /// Resolves a relative IRI against the base by concatenation; the
  /// workloads use only absolute IRIs or simple relative names.
  void ResolveAgainstBase(std::string* iri) const {
    if (!base_.empty() && iri->find("://") == std::string::npos &&
        !StartsWith(*iri, "urn:")) {
      iri->insert(0, base_);
    }
  }

  Graph* CurrentGraph() {
    if (target_ != nullptr) return target_;
    return &dataset_->default_graph();
  }

  Status GraphBlock() {
    if (target_ != nullptr) {
      return in_.Error("GRAPH blocks not allowed when loading a single graph");
    }
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    if (tok_.kind != Kind::kIri && tok_.kind != Kind::kPName) {
      return in_.Error("expected a graph IRI");
    }
    TermId name;
    SPARQLOG_RETURN_NOT_OK(InternToken(&name));
    SPARQLOG_RETURN_NOT_OK(ExpectChar('{'));
    Graph* g = &dataset_->named_graph(name);
    while (!ConsumeChar('}')) {
      if (in_.AtEnd()) return in_.Error("unterminated GRAPH block");
      SPARQLOG_RETURN_NOT_OK(TriplesStatement(g));
    }
    return Status::OK();
  }

  Status TriplesStatement(Graph* g) {
    TermId subject;
    SPARQLOG_RETURN_NOT_OK(ReadSubject(g, &subject));
    SPARQLOG_RETURN_NOT_OK(PredicateObjectList(g, subject));
    return ExpectChar('.');
  }

  Status PredicateObjectList(Graph* g, TermId subject) {
    while (true) {
      TermId predicate;
      SPARQLOG_RETURN_NOT_OK(ReadPredicate(&predicate));
      while (true) {
        TermId object;
        SPARQLOG_RETURN_NOT_OK(ReadObject(g, &object));
        g->Add(subject, predicate, object);
        if (!ConsumeChar(',')) break;
      }
      if (!ConsumeChar(';')) return Status::OK();
      in_.SkipWs();
      // Trailing ';' before '.' is legal Turtle.
      char c = in_.Peek();
      if (c == '.' || c == '}' || c == ']') return Status::OK();
    }
  }

  Status ReadSubject(Graph* g, TermId* out) {
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    switch (tok_.kind) {
      case Kind::kIri:
      case Kind::kPName:
      case Kind::kBlank:
        return InternToken(out);
      case Kind::kNone:
        if (in_.Peek() == '[') return ReadAnonBlank(g, out);
        [[fallthrough]];
      default:
        return in_.Error("expected subject");
    }
  }

  Status ReadPredicate(TermId* out) {
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    if (tok_.kind == Kind::kIri || tok_.kind == Kind::kPName) {
      return InternToken(out);
    }
    if (tok_.kind == Kind::kNone && in_.Peek() == 'a' &&
        EndsKeyword(in_.Peek(1))) {
      in_.Advance();
      *out = dict_->InternIri(rdfns::kType);
      return Status::OK();
    }
    return in_.Error("expected predicate");
  }

  Status ReadObject(Graph* g, TermId* out) {
    SPARQLOG_RETURN_NOT_OK(ScanTerm());
    switch (tok_.kind) {
      case Kind::kNone:
        if (in_.Peek() == '[') return ReadAnonBlank(g, out);
        if (in_.Peek() == '(') {
          return in_.Error("RDF collections are not supported");
        }
        if (ConsumeKeyword("true")) {
          *out = dict_->InternBoolean(true);
          return Status::OK();
        }
        if (ConsumeKeyword("false")) {
          *out = dict_->InternBoolean(false);
          return Status::OK();
        }
        return in_.Error("expected object");
      case Kind::kString:
        return ReadLiteral(out);
      case Kind::kLangTag:
        return in_.Error("expected object");
      default:
        return InternToken(out);
    }
  }

  Status ReadAnonBlank(Graph* g, TermId* out) {
    in_.Advance();  // '['
    TermId node = dict_->InternBlank(dict_->FreshBlankLabel());
    if (!ConsumeChar(']')) {
      SPARQLOG_RETURN_NOT_OK(PredicateObjectList(g, node));
      SPARQLOG_RETURN_NOT_OK(ExpectChar(']'));
    }
    *out = node;
    return Status::OK();
  }

  /// The string in tok_, then an optional @lang or ^^datatype.
  Status ReadLiteral(TermId* out) {
    lexical_.swap(tok_.text);
    if (in_.Peek() == '@') {
      SPARQLOG_RETURN_NOT_OK(in_.Scan(&tok_));
      *out = dict_->InternLiteral(lexical_, "", tok_.text);
      return Status::OK();
    }
    if (in_.Peek() == '^' && in_.Peek(1) == '^') {
      in_.Advance(2);
      SPARQLOG_RETURN_NOT_OK(ScanTerm());
      if (tok_.kind != Kind::kIri && tok_.kind != Kind::kPName) {
        return in_.Error("expected a datatype IRI after '^^'");
      }
      TermId dt;
      SPARQLOG_RETURN_NOT_OK(InternToken(&dt));
      *out = dict_->InternLiteral(lexical_, dict_->get(dt).lexical);
      return Status::OK();
    }
    *out = dict_->InternLiteral(lexical_);
    return Status::OK();
  }

  /// Interns the IRI, prefixed name, blank node or number in tok_.
  Status InternToken(TermId* out) {
    SPARQLOG_FAILPOINT(g_fp_intern);
    switch (tok_.kind) {
      case Kind::kIri:
        ResolveAgainstBase(&tok_.text);
        *out = dict_->InternIri(tok_.text);
        return Status::OK();
      case Kind::kPName: {
        auto it = prefixes_.find(tok_.prefix());
        if (it == prefixes_.end()) {
          return in_.Error("unknown prefix '" + std::string(tok_.prefix()) +
                           ":'");
        }
        iri_.assign(it->second).append(tok_.local());
        *out = dict_->InternIri(iri_);
        return Status::OK();
      }
      case Kind::kBlank:
        *out = dict_->InternBlank(tok_.text);
        return Status::OK();
      default:
        if (!tok_.is_number()) return in_.Error("expected a term");
        *out = dict_->InternLiteral(tok_.text, tok_.number_datatype());
        return Status::OK();
    }
  }

  TermScanner in_;
  TermDictionary* dict_;
  Dataset* dataset_;       // may be null when target_ is set
  Graph* target_;          // single-graph mode
  std::string base_;
  std::map<std::string, std::string, std::less<>> prefixes_;
  TermToken tok_;          // the term being read
  std::string lexical_;    // a literal's body while its suffix is scanned
  std::string iri_;        // a prefixed name's expansion
};

}  // namespace

Status ParseTurtle(std::string_view text, Dataset* dataset) {
  TurtleReader reader(text, dataset->dict(), dataset, nullptr);
  return reader.Run();
}

Status ParseTurtleIntoGraph(std::string_view text, TermDictionary* dict,
                            Graph* graph) {
  TurtleReader reader(text, dict, nullptr, graph);
  return reader.Run();
}

}  // namespace sparqlog::rdf
