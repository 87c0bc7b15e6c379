#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file slot_table.h
/// The reverse index of the interners (rdf::TermDictionary,
/// datalog::SkolemStore): open addressing over `tag << 32 | id + 1`
/// slots (0 = empty), where the tag is the high half of the entry's hash
/// and also its probe start. The table holds no keys: a probe asks the
/// caller to compare the entry behind an id only on a tag match, and a
/// rehash re-places slots by their tags alone. Unsynchronized; each
/// interner guards its tables with stripe mutexes.

namespace sparqlog {

class SlotTable {
 public:
  static constexpr uint32_t kAbsent = ~0u;

  /// Returns the id of an entry tagged `tag` for which `same(id)` holds,
  /// or kAbsent; `*pos` is where the probe ended, the slot Insert fills.
  template <typename Same>
  uint32_t Find(uint32_t tag, size_t* pos, const Same& same) const {
    *pos = 0;
    if (slots_.empty()) return kAbsent;  // Insert allocates the table
    const size_t mask = slots_.size() - 1;
    uint64_t slot;
    for (*pos = tag & mask; (slot = slots_[*pos]) != 0;
         *pos = (*pos + 1) & mask) {
      const uint32_t id = static_cast<uint32_t>(slot) - 1;
      if ((slot >> 32) == tag && same(id)) return id;
    }
    return kAbsent;
  }

  /// Stores `id` at the `pos` of a Find for `tag` with no insert since,
  /// growing the table once it is half full. Returns the bytes it grew by.
  size_t Insert(size_t pos, uint32_t tag, uint32_t id) {
    size_t grown = 0;
    if (slots_.empty()) {
      grown = Grow();
      pos = tag & (slots_.size() - 1);
    }
    slots_[pos] = static_cast<uint64_t>(tag) << 32 | (uint64_t{id} + 1);
    if (++used_ * 2 > slots_.size()) grown += Grow();
    return grown;
  }

 private:
  size_t Grow() {
    const size_t old_size = slots_.size();
    std::vector<uint64_t> slots(old_size == 0 ? 16 : 2 * old_size, 0);
    const size_t mask = slots.size() - 1;
    for (uint64_t slot : slots_) {
      if (slot == 0) continue;
      size_t pos = (slot >> 32) & mask;
      while (slots[pos] != 0) pos = (pos + 1) & mask;
      slots[pos] = slot;
    }
    slots_.swap(slots);
    return (slots_.size() - old_size) * sizeof(uint64_t);
  }

  std::vector<uint64_t> slots_;
  size_t used_ = 0;
};

}  // namespace sparqlog
