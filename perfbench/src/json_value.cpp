#include "json_value.h"

#include <cstdlib>

namespace perfbench {

namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool Value(JsonValue* out, int depth) {
    if (depth > 64) return false;
    Skip();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  bool AtEnd() {
    Skip();
    return pos_ == text_.size();
  }

 private:
  void Skip() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Number(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return false;
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(digits.c_str(), &end);
    return end == digits.c_str() + digits.size();
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          pos_ += 4;
          // The endpoint escapes only control bytes this way; wider code
          // points are encoded back to UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;
    Skip();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth + 1)) return false;
      Skip();
      if (pos_ >= text_.size()) return false;
      char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;
    Skip();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Skip();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
      if (!Value(&out->object[key], depth + 1)) return false;
      Skip();
      if (pos_ >= text_.size()) return false;
      char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::Number(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::optional<JsonValue> ParseJson(std::string_view text) {
  Reader reader(text);
  JsonValue value;
  if (!reader.Value(&value, 0) || !reader.AtEnd()) return std::nullopt;
  return value;
}

}  // namespace perfbench
