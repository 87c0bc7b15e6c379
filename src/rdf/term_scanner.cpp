#include "rdf/term_scanner.h"

#include "util/string_util.h"

namespace sparqlog::rdf {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
int HexValue(char c) {
  if (IsDigit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
/// PN_CHARS_BASE. Every non-ASCII byte counts: a UTF-8 sequence passes
/// through whole.
bool IsPnBase(char c) {
  return IsAlpha(c) || static_cast<unsigned char>(c) >= 0x80;
}
/// PN_CHARS.
bool IsPnChar(char c) {
  return IsPnBase(c) || IsDigit(c) || c == '_' || c == '-';
}
/// The punctuation a prefixed name's local part may escape with '\'.
bool IsLocalEscape(char c) {
  return std::string_view("_~.-!$&'()*+,;=/?#@%").find(c) !=
         std::string_view::npos;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) return out->push_back(static_cast<char>(cp));
  // The lead byte carries the count of continuation bytes in its high bits.
  const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>((0xFF << (7 - tail)) | (cp >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out->push_back(static_cast<char>(0x80 | ((cp >> shift) & 0x3F)));
  }
}

}  // namespace

void TermScanner::SkipWs() {
  while (p_ != end_) {
    switch (*p_) {
      case '\n':
        ++p_;
        NewLine();
        break;
      case ' ':
      case '\t':
      case '\r':
      case '\f':
      case '\v':
        ++p_;
        break;
      case '#':
        while (p_ != end_ && *p_ != '\n') ++p_;
        break;
      default:
        return;
    }
  }
}

Status TermScanner::ErrorAt(const char* at, std::string_view what) const {
  return Status::ParseError(StringPrintf(
      "%s line %d, column %d: %.*s", language_, line_,
      static_cast<int>(at - line_start_) + 1, static_cast<int>(what.size()),
      what.data()));
}

Status TermScanner::Scan(TermToken* tok) {
  tok->kind = TermToken::Kind::kNone;
  if (p_ == end_) return Status::OK();
  const char c = *p_;
  switch (c) {
    case '<':
      return ScanIri(tok);
    case '"':
    case '\'':
      return ScanString(tok);
    case '@':
      return ScanLangTag(tok);
    case '_':
      return Peek(1) == ':' ? ScanBlank(tok) : Status::OK();
    case ':':
      ScanPName(tok);
      return Status::OK();
    default:
      if (IsPnBase(c)) {
        ScanPName(tok);
      } else if (IsDigit(c) || c == '+' || c == '-' || c == '.') {
        ScanNumber(tok);
      }
      return Status::OK();
  }
}

Status TermScanner::ScanIri(TermToken* tok) {
  std::string& out = tok->text;
  out.clear();
  const char* run = p_ + 1;
  for (const char* q = run;;) {
    if (q == end_) return ErrorAt(q, "unterminated IRI");
    const char c = *q;
    if (c == '>') {
      out.append(run, q);
      p_ = q + 1;
      tok->kind = TermToken::Kind::kIri;
      return Status::OK();
    }
    if (c == '\\') {
      out.append(run, q);
      SPARQLOG_RETURN_NOT_OK(DecodeEscape(&q, /*echar=*/false, &out));
      run = q;
      continue;
    }
    if (static_cast<unsigned char>(c) <= 0x20 || c == '<' || c == '"' ||
        c == '{' || c == '}' || c == '|' || c == '^' || c == '`') {
      return ErrorAt(q, "invalid character in IRI");
    }
    ++q;
  }
}

Status TermScanner::ScanString(TermToken* tok) {
  const char quote = *p_;
  const bool long_form = Peek(1) == quote && Peek(2) == quote;
  std::string& out = tok->text;
  out.clear();
  const char* run = p_ + (long_form ? 3 : 1);
  for (const char* q = run;;) {
    if (q == end_) return ErrorAt(q, "unterminated string");
    const char c = *q;
    if (c == quote &&
        (!long_form || (end_ - q >= 3 && q[1] == quote && q[2] == quote))) {
      out.append(run, q);
      p_ = q + (long_form ? 3 : 1);
      tok->kind = TermToken::Kind::kString;
      return Status::OK();
    }
    if (c == '\\') {
      out.append(run, q);
      SPARQLOG_RETURN_NOT_OK(DecodeEscape(&q, /*echar=*/true, &out));
      run = q;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (!long_form) return ErrorAt(q, "newline in string");
      if (c == '\n') {
        ++line_;
        line_start_ = q + 1;
      }
    }
    ++q;
  }
}

Status TermScanner::DecodeEscape(const char** q, bool echar,
                                 std::string* out) const {
  static constexpr std::string_view kEchars = "tbnrf\"'\\";
  static constexpr std::string_view kDecoded = "\t\b\n\r\f\"'\\";
  const char* at = *q;
  if (end_ - at < 2) return ErrorAt(at, "'\\' at the end of the input");
  const char e = at[1];
  if (e != 'u' && e != 'U') {
    const size_t i = kEchars.find(e);
    if (i == std::string_view::npos) {
      return ErrorAt(at, std::string("unknown escape '\\") + e + "'");
    }
    if (!echar) return ErrorAt(at, "an IRI allows only \\u and \\U escapes");
    out->push_back(kDecoded[i]);
    *q = at + 2;
    return Status::OK();
  }
  const int digits = e == 'u' ? 4 : 8;
  uint32_t cp = 0;
  for (int i = 0; i < digits; ++i) {
    const int h = 2 + i < end_ - at ? HexValue(at[2 + i]) : -1;
    if (h < 0) {
      return ErrorAt(
          at, StringPrintf("\\%c escape needs %d hex digits", e, digits));
    }
    cp = cp * 16 + static_cast<uint32_t>(h);
  }
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    return ErrorAt(
        at, StringPrintf("escape U+%X is not a Unicode scalar value", cp));
  }
  AppendUtf8(cp, out);
  *q = at + 2 + digits;
  return Status::OK();
}

Status TermScanner::ScanLangTag(TermToken* tok) {
  const char* q = p_ + 1;
  const char* subtag = q;
  while (q != end_ && IsAlpha(*q)) ++q;
  while (q != subtag && q != end_ && *q == '-') {
    subtag = ++q;
    while (q != end_ && (IsAlpha(*q) || IsDigit(*q))) ++q;
  }
  if (q == subtag) return ErrorAt(q, "malformed language tag");
  tok->text.assign(p_ + 1, q);
  p_ = q;
  tok->kind = TermToken::Kind::kLangTag;
  return Status::OK();
}

const char* TermScanner::NameEnd(const char* q, bool local) const {
  const char* good = q;  // end of the last unit that may end the name
  for (bool first = true; q != end_; first = false) {
    const char c = *q;
    if (c == '.') {
      if (first) break;
      ++q;
      continue;
    }
    if ((IsPnChar(c) && !(first && c == '-')) || (local && c == ':')) {
      q += 1;
    } else if (local && c == '%' && end_ - q >= 3 && HexValue(q[1]) >= 0 &&
               HexValue(q[2]) >= 0) {
      q += 3;
    } else if (local && c == '\\' && end_ - q >= 2 && IsLocalEscape(q[1])) {
      q += 2;
    } else {
      break;
    }
    good = q;
  }
  return good;
}

Status TermScanner::ScanBlank(TermToken* tok) {
  const char* label = p_ + 2;
  const char* end = NameEnd(label, /*local=*/false);
  if (end == label) return ErrorAt(label, "empty blank node label");
  tok->text.assign(label, end);
  p_ = end;
  tok->kind = TermToken::Kind::kBlank;
  return Status::OK();
}

void TermScanner::ScanPName(TermToken* tok) {
  const char* colon = *p_ == ':' ? p_ : NameEnd(p_, /*local=*/false);
  if (colon == end_ || *colon != ':') return;  // a bare word
  const char* end = NameEnd(colon + 1, /*local=*/true);
  std::string& out = tok->text;
  out.assign(p_, colon + 1);
  for (const char* q = colon + 1; q != end; ++q) {
    if (*q == '\\') ++q;
    out.push_back(*q);
  }
  p_ = end;
  tok->kind = TermToken::Kind::kPName;
}

void TermScanner::ScanNumber(TermToken* tok) {
  // After the mantissa's last digit, `q` may continue with an exponent.
  auto exponent_end = [this](const char* q) -> const char* {
    if (q == end_ || (*q != 'e' && *q != 'E')) return nullptr;
    ++q;
    if (q != end_ && (*q == '+' || *q == '-')) ++q;
    const char* digits = q;
    while (q != end_ && IsDigit(*q)) ++q;
    return q == digits ? nullptr : q;
  };
  const char* q = p_;
  if (*q == '+' || *q == '-') ++q;
  const char* whole = q;
  while (q != end_ && IsDigit(*q)) ++q;
  const bool has_whole = q != whole;
  TermToken::Kind kind = TermToken::Kind::kInteger;
  if (q != end_ && *q == '.') {
    const char* frac = q + 1;
    const char* f = frac;
    while (f != end_ && IsDigit(*f)) ++f;
    if (f != frac) {
      kind = TermToken::Kind::kDecimal;
      q = f;
    } else if (has_whole && exponent_end(frac) != nullptr) {
      q = frac;  // "1.e5": the '.' belongs to the double
    }
  }
  if (!has_whole && kind == TermToken::Kind::kInteger) return;  // no digits
  if (const char* e = exponent_end(q)) {
    kind = TermToken::Kind::kDouble;
    q = e;
  }
  tok->text.assign(p_, q);
  p_ = q;
  tok->kind = kind;
}

}  // namespace sparqlog::rdf
