#include "datalog/value.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"

namespace sparqlog::datalog {

namespace {

constexpr size_t kChunkValues = size_t{1} << 16;  // 512 KiB

/// Hash of fn(args[0..n)): a multiply-rotate fold finished with Fmix64,
/// so both the stripe bits (low) and the tag (high) are well mixed.
uint64_t HashTerm(uint64_t header, const Value* args, size_t n) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = header * kMul;
  for (size_t i = 0; i < n; ++i) h = (std::rotl(h, 26) ^ args[i]) * kMul;
  return Fmix64(h);
}

Value ValueOfId(uint32_t id) { return (static_cast<uint64_t>(id) + 1) << 32; }

}  // namespace

uint32_t SkolemStore::InternFunction(const std::string& name) {
  auto lock = LockCounted(alloc_mu_, contention_);
  auto it = fn_index_.find(name);
  if (it != fn_index_.end()) return it->second;
  uint32_t id = num_fns_.load(std::memory_order_relaxed);
  *fn_names_.Slot(id) = name;
  num_fns_.store(id + 1, std::memory_order_release);
  fn_index_.emplace(name, id);
  return id;
}

Value SkolemStore::Intern(uint32_t fn, const Value* args, size_t n) {
  const uint64_t header = static_cast<uint64_t>(fn) << 32 | n;
  const uint64_t h = HashTerm(header, args, n);
  const uint32_t tag = static_cast<uint32_t>(h >> 32);
  Stripe& stripe = stripes_[h % kStripes];
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  size_t pos;
  const uint32_t found = stripe.index.Find(tag, &pos, [&](uint32_t id) {
    const Value* term = terms_[id];
    return term[0] == header && std::equal(args, args + n, term + 1);
  });
  if (found != SlotTable::kAbsent) return ValueOfId(found);
  uint32_t id;
  {
    // The term is fully written before its id escapes via the stripe
    // mutex or the round barrier, so the lock-free get() reads it whole.
    auto alloc_lock = LockCounted(alloc_mu_, contention_);
    id = num_terms_.load(std::memory_order_relaxed);
    if (id >= max_terms_) return kExhausted;
    *terms_.Slot(id) = AppendTerm(header, args, n);
    num_terms_.store(id + 1, std::memory_order_release);
  }
  bytes_.fetch_add(stripe.index.Insert(pos, tag, id),
                   std::memory_order_relaxed);
  return ValueOfId(id);
}

Value* SkolemStore::AppendTerm(uint64_t header, const Value* args, size_t n) {
  const size_t need = n + 1;
  if (static_cast<size_t>(chunk_end_ - cursor_) < need) {
    // Terms never straddle chunks; the tail of the old chunk is waste.
    const size_t values = std::max(kChunkValues, need);
    chunks_.push_back(std::make_unique_for_overwrite<Value[]>(values));
    cursor_ = chunks_.back().get();
    chunk_end_ = cursor_ + values;
    bytes_.fetch_add(values * sizeof(Value), std::memory_order_relaxed);
  }
  Value* term = cursor_;
  cursor_ += need;
  term[0] = header;
  std::copy(args, args + n, term + 1);
  return term;
}

std::string SkolemStore::Render(Value v,
                                const rdf::TermDictionary& dict) const {
  const SkolemTerm t = get(v);
  std::string out = "[\"" + FunctionName(t.fn) + "\"";
  for (Value a : t.args) {
    out += ", ";
    out += RenderValue(a, dict, *this);
  }
  out += "]";
  return out;
}

std::string RenderValue(Value v, const rdf::TermDictionary& dict,
                        const SkolemStore& skolems) {
  if (IsSkolemValue(v)) return skolems.Render(v, dict);
  return dict.Render(TermFromValue(v));
}

}  // namespace sparqlog::datalog
