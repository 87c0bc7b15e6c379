#include "sparql/lexer.h"

#include <cctype>
#include <iterator>

#include "rdf/term_scanner.h"
#include "util/string_util.h"

namespace sparqlog::sparql {

bool Token::IsKeyword(std::string_view kw) const {
  return kind == TokenKind::kName && AsciiEqualsIgnoreCase(text, kw);
}

namespace {

/// The token kind of each scanned term, indexed by rdf::TermToken::Kind.
constexpr TokenKind kTermKinds[] = {
    TokenKind::kEof,     TokenKind::kIri,    TokenKind::kPName,
    TokenKind::kBlank,   TokenKind::kString, TokenKind::kLangTag,
    TokenKind::kInteger, TokenKind::kDecimal, TokenKind::kDouble,
};
static_assert(std::size(kTermKinds) ==
              static_cast<size_t>(rdf::TermToken::Kind::kDouble) + 1);

/// SPARQL's own tokens (variables, keywords, operators) around the shared
/// term scanner.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : in_(text, "sparql") {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      in_.SkipWs();
      if (in_.AtEnd()) {
        out.push_back(Token{TokenKind::kEof, "", in_.line()});
        return out;
      }
      SPARQLOG_ASSIGN_OR_RETURN(Token tok, Next());
      out.push_back(std::move(tok));
    }
  }

 private:
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  // SPARQL's VARNAME has no '-': `?x-1` is `?x - 1`.
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  /// A '<' opens an IRI when a '>' closes it before any whitespace or
  /// quote; otherwise it is the comparison operator.
  bool AtIri() const {
    std::string_view rest = in_.Rest();
    for (size_t k = 1; k < rest.size(); ++k) {
      char d = rest[k];
      if (d == '>') return true;
      if (std::isspace(static_cast<unsigned char>(d)) || d == '"') break;
    }
    return false;
  }

  Token Take(TokenKind kind, size_t n, int line) {
    Token tok{kind, std::string(in_.Rest().substr(0, n)), line};
    in_.Advance(n);
    return tok;
  }

  Result<Token> Next() {
    const int line = in_.line();
    const char c = in_.Peek();

    if (c != '<' || AtIri()) {
      SPARQLOG_RETURN_NOT_OK(in_.Scan(&term_));
      if (term_.kind != rdf::TermToken::Kind::kNone) {
        return Token{kTermKinds[static_cast<int>(term_.kind)], term_.text,
                     line};
      }
    }

    // Variables.
    if ((c == '?' || c == '$') &&
        (IsNameStart(in_.Peek(1)) ||
         std::isdigit(static_cast<unsigned char>(in_.Peek(1))))) {
      in_.Advance();
      size_t n = 0;
      while (IsNameChar(in_.Peek(n))) ++n;
      return Take(TokenKind::kVar, n, line);
    }

    // Keywords and other bare names.
    if (IsNameStart(c)) {
      size_t n = 0;
      while (IsNameChar(in_.Peek(n))) ++n;
      return Take(TokenKind::kName, n, line);
    }

    // Operators and punctuation.
    for (std::string_view op : {"!=", "<=", ">=", "&&", "||", "^^"}) {
      if (in_.Rest().substr(0, 2) == op) return Take(TokenKind::kOp, 2, line);
    }
    static constexpr std::string_view kPunct = "{}()[],;.*+?/|^!=-<>";
    if (kPunct.find(c) != std::string_view::npos) {
      return Take(TokenKind::kPunct, 1, line);
    }
    return in_.Error(std::string("unexpected character '") + c + "'");
  }

  rdf::TermScanner in_;
  rdf::TermToken term_;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  return Lexer(text).Run();
}

}  // namespace sparqlog::sparql
