#include "rdf/dictionary.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/hash.h"
#include "util/string_util.h"

namespace sparqlog::rdf {

/// A term's parts, normalized as Term::Literal normalizes them
/// (`xsd:string` is the simple literal; a language tag is lower-cased and
/// clears the datatype), viewing the caller's strings.
struct TermDictionary::Key {
  TermKind kind;
  std::string_view lexical, datatype, lang;
  std::string lower;  // backs `lang` when the tag has upper case
  uint64_t hash;

  Key(TermKind k, std::string_view lex, std::string_view dt,
      std::string_view tag)
      : kind(k), lexical(lex) {
    if (kind == TermKind::kLiteral) {
      datatype = tag.empty() && dt != xsd::kString ? dt : "";
      lang = tag;
      if (std::any_of(tag.begin(), tag.end(),
                      [](char c) { return c >= 'A' && c <= 'Z'; })) {
        lang = lower = AsciiToLower(tag);
      }
    }
    constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    uint64_t h = static_cast<uint64_t>(kind) + 1;
    for (std::string_view part : {lexical, datatype, lang}) {
      h = (std::rotl(h, 26) ^ std::hash<std::string_view>()(part)) * kMul;
    }
    hash = Fmix64(h);
  }

  uint32_t tag() const { return static_cast<uint32_t>(hash >> 32); }
  bool Matches(const Term& t) const {
    return t.kind == kind && t.lexical == lexical && t.datatype == datatype &&
           t.lang == lang;
  }
};

TermDictionary::TermDictionary() {
  // Slot 0: the undef/null term. Constructed serially, before any reader.
  Intern(Term());
}

TermId TermDictionary::Intern(TermKind kind, std::string_view lex,
                              std::string_view datatype,
                              std::string_view lang) {
  const Key key(kind, lex, datatype, lang);
  Stripe& stripe = stripes_[key.hash % kStripes];
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  size_t pos;
  const uint32_t found = stripe.index.Find(
      key.tag(), &pos, [&](uint32_t id) { return key.Matches(terms_[id]); });
  if (found != SlotTable::kAbsent) return found;
  // Only literals have a datatype or a tag, so this builds every kind.
  Term term = Term::Literal(std::string(lex), std::string(key.datatype),
                            std::string(key.lang));
  term.kind = kind;
  TermId id;
  {
    // The slot is fully written before the id escapes: threads learn ids
    // through this stripe's mutex (same term), another synchronizing
    // channel (relation publish, round barrier), or not at all — so the
    // lock-free get() below always reads a completed Term.
    auto alloc_lock = LockCounted(alloc_mu_, contention_);
    id = num_terms_.load(std::memory_order_relaxed);
    *terms_.Slot(id) = std::move(term);
    num_terms_.store(id + 1, std::memory_order_release);
  }
  stripe.index.Insert(pos, key.tag(), id);
  return id;
}

TermId TermDictionary::InternInteger(int64_t v) {
  return InternLiteral(std::to_string(v), xsd::kInteger);
}

TermId TermDictionary::InternDouble(double v) {
  // Canonical-ish rendering: integers print without exponent to keep test
  // output readable.
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    return InternLiteral(StringPrintf("%.1f", v), xsd::kDouble);
  }
  return InternLiteral(StringPrintf("%g", v), xsd::kDouble);
}

TermId TermDictionary::InternBoolean(bool v) {
  return InternLiteral(v ? "true" : "false", xsd::kBoolean);
}

std::optional<TermId> TermDictionary::Lookup(const Term& term) const {
  const Key key(term.kind, term.lexical, term.datatype, term.lang);
  Stripe& stripe = stripes_[key.hash % kStripes];
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  size_t pos;
  const uint32_t found = stripe.index.Find(
      key.tag(), &pos, [&](uint32_t id) { return key.Matches(terms_[id]); });
  if (found == SlotTable::kAbsent) return std::nullopt;
  return found;
}

std::string TermDictionary::FreshBlankLabel() {
  return "gen" + std::to_string(
                     blank_counter_.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace sparqlog::rdf
