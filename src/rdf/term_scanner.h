#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/term.h"
#include "util/status.h"

/// \file term_scanner.h
/// The one reader of RDF term spellings. The Turtle reader, the SPARQL
/// tokenizer and the Datalog rule parser each drive a TermScanner as their
/// cursor: they keep their own grammar (directives, keywords, variables,
/// operators) and call Scan() where a term may start, so one spelling is
/// one term in data, in queries and in rules.
///
/// The forms are the terminals RDF 1.1 Turtle and SPARQL 1.1 share:
///   - IRIREF `<...>`, with `\uXXXX` / `\UXXXXXXXX` decoded;
///   - prefixed names `prefix:local`: the local part may contain `.` and
///     `:` but not end with `.`; `\`-escaped punctuation is decoded and
///     `%HH` is kept as spelled;
///   - blank-node labels `_:label`, with the same `.` rule;
///   - strings in `'`, `"`, `'''` or `"""`, with ECHAR (`\t \b \n \r \f
///     \" \' \\`) and UCHAR decoded to UTF-8;
///   - language tags `@[a-zA-Z]+(-[a-zA-Z0-9]+)*`;
///   - numbers with an optional sign: xsd:integer (digits only),
///     xsd:decimal (a `.` and digits after it, no exponent) or xsd:double
///     (an exponent).
/// A malformed term is a ParseError "<language> line L, column C: ...".
/// Lines and columns count from 1; a column counts bytes.

namespace sparqlog::rdf {

/// One scanned term. `text` keeps its capacity across Scan calls.
struct TermToken {
  enum class Kind : uint8_t {
    kNone,     ///< no term starts at the cursor; nothing was consumed
    kIri,      ///< text: the decoded IRI without brackets
    kPName,    ///< text: "prefix:local", local decoded
    kBlank,    ///< text: the label without "_:"
    kString,   ///< text: the decoded body without quotes
    kLangTag,  ///< text: the tag without '@'
    kInteger,  ///< numbers: text is the spelling, sign included
    kDecimal,
    kDouble,
  };
  Kind kind = Kind::kNone;
  std::string text;

  /// kPName: the parts before and after the first ':'.
  std::string_view prefix() const {
    return std::string_view(text).substr(0, text.find(':'));
  }
  std::string_view local() const {
    return std::string_view(text).substr(text.find(':') + 1);
  }
  bool is_number() const { return kind >= Kind::kInteger; }
  /// The xsd datatype IRI of a number.
  std::string_view number_datatype() const {
    return kind == Kind::kInteger   ? xsd::kInteger
           : kind == Kind::kDecimal ? xsd::kDecimal
                                    : xsd::kDouble;
  }
};

/// A byte cursor over one input text that tracks line and column.
class TermScanner {
 public:
  /// `language` names the input in error messages ("turtle", "sparql").
  TermScanner(std::string_view text, const char* language)
      : p_(text.data()),
        end_(text.data() + text.size()),
        line_start_(p_),
        language_(language) {}

  bool AtEnd() const { return p_ == end_; }
  /// The byte `k` places past the cursor, or '\0' past the end.
  char Peek(size_t k = 0) const {
    return k < static_cast<size_t>(end_ - p_) ? p_[k] : '\0';
  }
  std::string_view Rest() const {
    return {p_, static_cast<size_t>(end_ - p_)};
  }
  /// Moves past `n` bytes, stopping at the end.
  void Advance(size_t n = 1) {
    for (; n > 0 && p_ != end_; --n) {
      if (*p_++ == '\n') NewLine();
    }
  }
  /// Skips whitespace and `#` comments.
  void SkipWs();

  int line() const { return line_; }

  /// ParseError at the cursor.
  Status Error(std::string_view what) const { return ErrorAt(p_, what); }

  /// Reads the term that starts at the cursor into `tok`. Sets kNone and
  /// consumes nothing where no term form starts: a bare word that is not
  /// followed by ':' (a keyword), a sign or '.' without a digit after it,
  /// or any other byte. Callers decide for themselves whether a '<' opens
  /// an IRI before they call this.
  Status Scan(TermToken* tok);

 private:
  void NewLine() {
    ++line_;
    line_start_ = p_;
  }
  /// ParseError at `at`, which lies on the current line.
  Status ErrorAt(const char* at, std::string_view what) const;

  Status ScanIri(TermToken* tok);
  Status ScanString(TermToken* tok);
  Status ScanLangTag(TermToken* tok);
  Status ScanBlank(TermToken* tok);
  void ScanPName(TermToken* tok);
  void ScanNumber(TermToken* tok);
  /// Decodes the escape at `*q` (a '\') onto `out` and moves `*q` past it.
  /// ECHARs are accepted only when `echar` is set (strings, not IRIs).
  Status DecodeEscape(const char** q, bool echar, std::string* out) const;
  /// End of the name that starts at `q`: a prefix or blank label, or a
  /// prefixed name's local part when `local`. A trailing '.' is left out.
  const char* NameEnd(const char* q, bool local) const;

  const char* p_;
  const char* end_;
  const char* line_start_;
  int line_ = 1;
  const char* language_;
};

}  // namespace sparqlog::rdf
