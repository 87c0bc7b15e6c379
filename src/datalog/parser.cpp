#include "datalog/parser.h"

#include <cctype>

#include "rdf/term_scanner.h"
#include "util/string_util.h"

namespace sparqlog::datalog {

namespace {

/// Character-level reader for the rule syntax.
class ProgramReader {
 public:
  ProgramReader(std::string_view text, rdf::TermDictionary* dict,
                SkolemStore* skolems)
      : in_(text, "datalog"), dict_(dict), skolems_(skolems) {}

  Result<Program> Run() {
    while (true) {
      SkipWs();
      if (in_.AtEnd()) break;
      if (in_.Peek() == '@') {
        SPARQLOG_RETURN_NOT_OK(Directive());
      } else {
        SPARQLOG_RETURN_NOT_OK(Statement());
      }
    }
    SPARQLOG_RETURN_NOT_OK(program_.Validate());
    return std::move(program_);
  }

 private:
  /// Skips whitespace and `#`, `%` and `//` line comments.
  void SkipWs() {
    while (true) {
      in_.SkipWs();
      const char c = in_.Peek();
      if (c != '%' && !(c == '/' && in_.Peek(1) == '/')) return;
      while (!in_.AtEnd() && in_.Peek() != '\n') in_.Advance();
    }
  }
  Status Err(std::string_view what) const { return in_.Error(what); }

  bool ConsumeChar(char c) {
    SkipWs();
    if (in_.Peek() != c) return false;
    in_.Advance();
    return true;
  }
  Status ExpectChar(char c) {
    if (!ConsumeChar(c)) {
      return Err(std::string("expected '") + c + "', got '" + in_.Peek() + "'");
    }
    return Status::OK();
  }
  bool ConsumeToken(std::string_view tok) {
    SkipWs();
    if (in_.Rest().substr(0, tok.size()) != tok) return false;
    in_.Advance(tok.size());
    return true;
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  Result<std::string> Identifier() {
    SkipWs();
    if (!IsIdentStart(in_.Peek())) return Err("expected identifier");
    std::string out;
    while (!in_.AtEnd() && IsIdentChar(in_.Peek())) {
      out += in_.Peek();
      in_.Advance();
    }
    return out;
  }

  Result<std::string> QuotedString() {
    SkipWs();
    SPARQLOG_RETURN_NOT_OK(in_.Scan(&tok_));
    if (tok_.kind != rdf::TermToken::Kind::kString) {
      return Err("expected string");
    }
    return tok_.text;
  }

  /// Constant term: <iri>, "literal"(@lang|^^<dt>)?, number, boolean.
  Result<Value> ConstantTerm() {
    using Kind = rdf::TermToken::Kind;
    SkipWs();
    SPARQLOG_RETURN_NOT_OK(in_.Scan(&tok_));
    switch (tok_.kind) {
      case Kind::kIri:
        return ValueFromTerm(dict_->InternIri(tok_.text));
      case Kind::kString: {
        std::string lex = std::move(tok_.text);
        if (in_.Peek() == '@') {
          SPARQLOG_RETURN_NOT_OK(in_.Scan(&tok_));
          return ValueFromTerm(dict_->InternLiteral(lex, "", tok_.text));
        }
        if (in_.Peek() == '^' && in_.Peek(1) == '^') {
          in_.Advance(2);
          SPARQLOG_RETURN_NOT_OK(in_.Scan(&tok_));
          if (tok_.kind != Kind::kIri) {
            return Err("expected <datatype> after ^^");
          }
          return ValueFromTerm(dict_->InternLiteral(lex, tok_.text));
        }
        return ValueFromTerm(dict_->InternLiteral(lex));
      }
      default:
        if (tok_.is_number()) {
          return ValueFromTerm(
              dict_->InternLiteral(tok_.text, tok_.number_datatype()));
        }
    }
    if (ConsumeToken("true")) return ValueFromTerm(dict_->InternBoolean(true));
    if (ConsumeToken("false")) {
      return ValueFromTerm(dict_->InternBoolean(false));
    }
    return Err("expected constant term");
  }

  /// A rule term: variable (identifier) or constant.
  Result<RuleTerm> Term(RuleBuilder* rb) {
    SkipWs();
    if (IsIdentStart(in_.Peek()) && !StartsKeywordConstant()) {
      SPARQLOG_ASSIGN_OR_RETURN(std::string name, Identifier());
      return rb->Var(name);
    }
    SPARQLOG_ASSIGN_OR_RETURN(Value v, ConstantTerm());
    return RuleBuilder::Const(v);
  }

  bool StartsKeywordConstant() {
    std::string_view rest = in_.Rest();
    return rest.substr(0, 4) == "true" || rest.substr(0, 5) == "false";
  }

  struct ParsedAtom {
    std::string predicate;
    std::vector<RuleTerm> args;
  };

  Result<ParsedAtom> ParseAtom(RuleBuilder* rb) {
    ParsedAtom out;
    SPARQLOG_ASSIGN_OR_RETURN(out.predicate, Identifier());
    SPARQLOG_RETURN_NOT_OK(ExpectChar('('));
    SkipWs();
    if (in_.Peek() != ')') {
      while (true) {
        SPARQLOG_ASSIGN_OR_RETURN(RuleTerm t, Term(rb));
        out.args.push_back(t);
        if (!ConsumeChar(',')) break;
      }
    }
    SPARQLOG_RETURN_NOT_OK(ExpectChar(')'));
    return out;
  }

  /// Skolem list: ["fn" (, term)*].
  Status SkolemAssignment(RuleBuilder* rb, RuleTerm target) {
    SPARQLOG_RETURN_NOT_OK(ExpectChar('['));
    SPARQLOG_ASSIGN_OR_RETURN(std::string fn, QuotedString());
    std::vector<RuleTerm> args;
    while (ConsumeChar(',')) {
      SPARQLOG_ASSIGN_OR_RETURN(RuleTerm t, Term(rb));
      args.push_back(t);
    }
    SPARQLOG_RETURN_NOT_OK(ExpectChar(']'));
    rb->Skolem(target, skolems_->InternFunction(fn), std::move(args));
    return Status::OK();
  }

  Status Statement() {
    RuleBuilder rb(&program_.predicates);
    SPARQLOG_ASSIGN_OR_RETURN(ParsedAtom head, ParseAtom(&rb));

    SkipWs();
    if (ConsumeChar('.')) {
      // A ground fact.
      std::vector<Value> tuple;
      for (const RuleTerm& t : head.args) {
        if (t.is_var) return Err("facts must be ground");
        tuple.push_back(t.constant);
      }
      Fact fact;
      fact.predicate = program_.predicates.Intern(
          head.predicate, static_cast<uint32_t>(tuple.size()));
      fact.tuple = std::move(tuple);
      program_.facts.push_back(std::move(fact));
      return Status::OK();
    }

    if (!ConsumeToken(":-")) return Err("expected '.' or ':-'");
    rb.Head(head.predicate, std::move(head.args));

    while (true) {
      SkipWs();
      if (ConsumeToken("not ")) {
        SPARQLOG_ASSIGN_OR_RETURN(ParsedAtom atom, ParseAtom(&rb));
        rb.NegBody(atom.predicate, std::move(atom.args));
      } else if (IsIdentStart(in_.Peek()) && !StartsKeywordConstant() &&
                 LooksLikeAtom()) {
        SPARQLOG_ASSIGN_OR_RETURN(ParsedAtom atom, ParseAtom(&rb));
        rb.Body(atom.predicate, std::move(atom.args));
      } else {
        // Builtin: term (= | !=) (term | skolem-list).
        SPARQLOG_ASSIGN_OR_RETURN(RuleTerm lhs, Term(&rb));
        SkipWs();
        if (ConsumeToken("!=")) {
          SPARQLOG_ASSIGN_OR_RETURN(RuleTerm rhs, Term(&rb));
          rb.Ne(lhs, rhs);
        } else if (ConsumeChar('=')) {
          SkipWs();
          if (in_.Peek() == '[') {
            SPARQLOG_RETURN_NOT_OK(SkolemAssignment(&rb, lhs));
          } else {
            SPARQLOG_ASSIGN_OR_RETURN(RuleTerm rhs, Term(&rb));
            rb.Eq(lhs, rhs);
          }
        } else {
          return Err("expected '=' or '!=' in builtin literal");
        }
      }
      if (ConsumeChar(',')) continue;
      SPARQLOG_RETURN_NOT_OK(ExpectChar('.'));
      break;
    }
    program_.rules.push_back(rb.Build());
    return Status::OK();
  }

  /// Lookahead: identifier followed by '(' (atom) vs builtin operand.
  bool LooksLikeAtom() {
    size_t k = 0;
    while (IsIdentChar(in_.Peek(k))) ++k;
    while (std::isspace(static_cast<unsigned char>(in_.Peek(k)))) ++k;
    return in_.Peek(k) == '(';
  }

  Status Directive() {
    in_.Advance();  // '@'
    SPARQLOG_ASSIGN_OR_RETURN(std::string name, Identifier());
    SPARQLOG_RETURN_NOT_OK(ExpectChar('('));
    SPARQLOG_ASSIGN_OR_RETURN(std::string pred, QuotedString());
    auto id = program_.predicates.Lookup(pred);
    if (!id) return Err("unknown predicate in directive: " + pred);
    if (name == "output") {
      program_.output.predicate = *id;
      program_.output.has_graph_column = false;
      program_.output.has_tid_column = false;
      // Column names default to c0..cN over the full tuple.
      uint32_t arity = program_.predicates.Arity(*id);
      program_.output.columns.clear();
      for (uint32_t i = 0; i < arity; ++i) {
        program_.output.columns.push_back("c" + std::to_string(i));
      }
    } else if (name == "post") {
      SPARQLOG_RETURN_NOT_OK(ExpectChar(','));
      SPARQLOG_ASSIGN_OR_RETURN(std::string spec, QuotedString());
      if (StartsWith(spec, "limit(")) {
        program_.output.limit = static_cast<uint64_t>(
            ParseInt64(spec.substr(6, spec.size() - 7)).value_or(0));
      } else if (StartsWith(spec, "offset(")) {
        program_.output.offset = static_cast<uint64_t>(
            ParseInt64(spec.substr(7, spec.size() - 8)).value_or(0));
      } else if (spec == "distinct") {
        program_.output.distinct = true;
      } else if (StartsWith(spec, "orderby(")) {
        std::string arg = spec.substr(8, spec.size() - 9);
        OrderSpec key;
        if (StartsWith(arg, "-")) {
          key.descending = true;
          arg = arg.substr(1);
        }
        key.column =
            static_cast<uint32_t>(ParseInt64(arg).value_or(0));
        key.expr = sparql::Expr::MakeVar("c" + arg);
        program_.output.order_by.push_back(std::move(key));
      } else {
        return Err("unknown @post spec: " + spec);
      }
    } else {
      return Err("unknown directive @" + name);
    }
    SPARQLOG_RETURN_NOT_OK(ExpectChar(')'));
    return ExpectChar('.');
  }

  rdf::TermScanner in_;
  rdf::TermToken tok_;
  rdf::TermDictionary* dict_;
  SkolemStore* skolems_;
  Program program_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view text, rdf::TermDictionary* dict,
                             SkolemStore* skolems) {
  ProgramReader reader(text, dict, skolems);
  return reader.Run();
}

}  // namespace sparqlog::datalog
