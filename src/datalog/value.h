#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "util/bucket_array.h"
#include "util/slot_table.h"

/// \file value.h
/// Datalog values. A Value is either an interned RDF term (low 32 bits,
/// tag 0) or an interned Skolem term (tag 1). Skolem terms implement the
/// paper's duplicate-preservation model (§4.3, Appendix C): tuple IDs are
/// Skolem terms `f<ruleId>(positive body values...)`, so identical
/// derivations collapse (fixpoint terminates) while distinct derivations
/// stay distinguishable (bag semantics survives set semantics).

namespace sparqlog::datalog {

using Value = uint64_t;

inline constexpr uint64_t kSkolemTag = 1ULL << 32;

inline bool IsSkolemValue(Value v) { return (v & ~0xffffffffULL) != 0; }
inline Value ValueFromTerm(rdf::TermId t) { return t; }
inline rdf::TermId TermFromValue(Value v) {
  return static_cast<rdf::TermId>(v & 0xffffffffULL);
}

/// The distinguished SPARQL-null value: the undef term.
inline constexpr Value kNullValue = rdf::TermDictionary::kUndef;

/// A Skolem term viewed in place: function symbol + argument values.
/// `args` points into the store's arena and stays valid for the
/// store's lifetime.
struct SkolemTerm {
  uint32_t fn = 0;
  std::span<const Value> args;
};

/// Thread-safe interner for Skolem terms. Owned by the evaluation
/// session; TermIds in Skolem arguments refer to the session's
/// TermDictionary.
///
/// Layout: every term is stored once, as `[fn << 32 | arity, args...]`
/// in an append-only arena of chunks that never move; an id -> term
/// pointer table (a BucketArray) makes `get` lock-free and leaves the id
/// space unbounded by arena size; and the reverse index is 16 striped
/// SlotTables (`util/slot_table.h`), so a rehash never revisits the
/// arena. A probe compares the 32-bit tag first and the arena words only
/// on a tag match; neither hits nor misses allocate per term.
///
/// Same concurrency contract as rdf::TermDictionary: `get` /
/// `FunctionName` are lock-free over slots that never move, `Intern`
/// stripes its reverse index by term hash and serializes id allocation
/// (and arena appends) on one mutex, and a term is fully written before
/// its id escapes. Id numbering (not term identity) is the only thing
/// that can vary across runs when multiple workers intern. This is what
/// lets existential (Skolem-building) rules run on the sharded parallel
/// fixpoint path instead of falling back to serial.
class SkolemStore {
 public:
  /// Ids 0 .. 2^32-2: id + 1 must fit the Value's upper 32 bits.
  static constexpr uint32_t kMaxTerms = 0xffffffffu;
  /// Returned by Intern once the id space is exhausted. Never a valid
  /// Value: Skolem values have zero low bits, term values zero high bits.
  static constexpr Value kExhausted = ~0ULL;

  /// `max_terms` (at most kMaxTerms) caps the id space; tests lower it
  /// to reach exhaustion without minting 2^32 terms.
  explicit SkolemStore(uint32_t max_terms = kMaxTerms)
      : max_terms_(max_terms) {}
  SkolemStore(const SkolemStore&) = delete;
  SkolemStore& operator=(const SkolemStore&) = delete;

  /// Interns a function symbol name (e.g. "f3a"), returning its id.
  /// Called at translation time (serially); safe concurrently anyway.
  uint32_t InternFunction(const std::string& name);

  const std::string& FunctionName(uint32_t fn) const { return fn_names_[fn]; }

  /// Interns the Skolem term `fn(args[0..n))`, returning its Value
  /// (tagged handle), or kExhausted when a new term would need an id
  /// past the cap. `args` is only read during the call.
  Value Intern(uint32_t fn, const Value* args, size_t n);
  Value Intern(uint32_t fn, std::initializer_list<Value> args) {
    return Intern(fn, args.begin(), args.size());
  }

  SkolemTerm get(Value v) const {
    const Value* p = terms_[static_cast<uint32_t>((v >> 32) - 1)];
    return {static_cast<uint32_t>(p[0] >> 32),
            {p + 1, static_cast<uint32_t>(p[0])}};
  }

  size_t size() const { return num_terms_.load(std::memory_order_acquire); }

  /// Bytes held by the arena, the id table and the stripe tables.
  uint64_t resident_bytes() const {
    return bytes_.load(std::memory_order_relaxed) +
           BucketArray<const Value*>::AllocatedSlots(
               static_cast<uint32_t>(size())) *
               sizeof(const Value*);
  }

  /// Failed lock acquisitions since construction (see
  /// TermDictionary::intern_contention).
  uint64_t intern_contention() const {
    return contention_.load(std::memory_order_relaxed);
  }

  /// Debug rendering: ["f3", <iri>, ...].
  std::string Render(Value v, const rdf::TermDictionary& dict) const;

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    std::mutex mu;
    SlotTable index;
  };

  /// Appends `[header, args...]` to the arena. Under alloc_mu_.
  Value* AppendTerm(uint64_t header, const Value* args, size_t n);

  const uint32_t max_terms_;
  BucketArray<std::string, 6> fn_names_;
  std::atomic<uint32_t> num_fns_{0};
  std::unordered_map<std::string, uint32_t> fn_index_;  // under alloc_mu_
  BucketArray<const Value*> terms_;  // id -> term in the arena
  std::atomic<uint32_t> num_terms_{0};
  std::vector<std::unique_ptr<Value[]>> chunks_;  // under alloc_mu_
  Value* cursor_ = nullptr;                       // under alloc_mu_
  Value* chunk_end_ = nullptr;                    // under alloc_mu_
  std::atomic<uint64_t> bytes_{0};  // arena chunks + stripe tables
  mutable std::array<Stripe, kStripes> stripes_;
  std::mutex alloc_mu_;
  mutable std::atomic<uint64_t> contention_{0};
};

/// Renders any Value (term or Skolem) for diagnostics.
std::string RenderValue(Value v, const rdf::TermDictionary& dict,
                        const SkolemStore& skolems);

}  // namespace sparqlog::datalog
