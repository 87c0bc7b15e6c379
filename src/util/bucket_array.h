#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>

/// \file bucket_array.h
/// Lock-free-readable append-only array for the concurrent interners.
///
/// A fixed directory of doubling buckets (bucket *b* holds
/// `kBase << b` slots, so 23 buckets cover the whole 32-bit id space)
/// replaces a `std::vector`: growth allocates a new bucket and publishes
/// its pointer with a release-store instead of reallocating — element
/// addresses are stable for the array's lifetime and readers index with
/// one acquire-load and no lock. This is what lets
/// `TermDictionary::get` / `SkolemStore::get` stay on the hot join path
/// while parallel fixpoint workers intern concurrently.
///
/// Writers are *externally serialized* (the interners' allocation mutex):
/// `Slot(i)` may allocate, so only one thread may call it at a time, and
/// a slot's contents must be fully written before its index is published
/// to readers (the interners publish ids under their stripe mutexes, or
/// through the round barrier, both of which order the writes).

namespace sparqlog {

/// Locks `mu`, counting a contended acquisition into `counter` — the
/// shared contention-observability primitive of the striped interners
/// (TermDictionary, SkolemStore): the counters they accumulate surface
/// as the interning-contention stat in Engine::stats().
inline std::unique_lock<std::mutex> LockCounted(
    std::mutex& mu, std::atomic<uint64_t>& counter) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    counter.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

template <typename T, uint32_t kBaseBits = 10>
class BucketArray {
 public:
  // ((2^23 - 1) << kBaseBits) slots: covers every 32-bit index.
  static constexpr uint32_t kNumBuckets = 33 - kBaseBits;

  BucketArray() = default;
  BucketArray(const BucketArray&) = delete;
  BucketArray& operator=(const BucketArray&) = delete;

  ~BucketArray() {
    for (auto& bucket : buckets_) {
      delete[] bucket.load(std::memory_order_relaxed);
    }
  }

  /// Reader access to a published slot. Lock-free: one acquire-load of
  /// the bucket pointer. `i` must have been published by a writer (the
  /// release operation that handed `i` to this thread orders the write).
  const T& operator[](uint32_t i) const {
    const uint32_t b = BucketOf(i);
    return buckets_[b].load(std::memory_order_acquire)[i - StartOf(b)];
  }

  /// Slots held by the buckets that cover indices [0, n) — the array's
  /// footprint once `n` slots have been written.
  static size_t AllocatedSlots(uint32_t n) {
    if (n == 0) return 0;
    return ((size_t{2} << BucketOf(n - 1)) - 1) << kBaseBits;
  }

  /// Writer access to slot `i`, allocating its bucket on first touch.
  /// Must run under the owner's allocation mutex.
  T* Slot(uint32_t i) {
    const uint32_t b = BucketOf(i);
    T* bucket = buckets_[b].load(std::memory_order_relaxed);
    if (bucket == nullptr) {
      bucket = new T[SizeOf(b)]();
      buckets_[b].store(bucket, std::memory_order_release);
    }
    return bucket + (i - StartOf(b));
  }

 private:
  static uint32_t BucketOf(uint32_t i) {
    return std::bit_width((i >> kBaseBits) + 1u) - 1;
  }
  static uint32_t StartOf(uint32_t b) { return ((1u << b) - 1) << kBaseBits; }
  static size_t SizeOf(uint32_t b) {
    return static_cast<size_t>(1u << b) << kBaseBits;
  }

  std::array<std::atomic<T*>, kNumBuckets> buckets_{};
};

}  // namespace sparqlog
