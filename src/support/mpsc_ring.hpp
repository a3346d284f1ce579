// Bounded lock-free multi-producer ring (Vyukov-style sequenced slots).
//
// The mailbox hot path is many sender threads depositing into one receiver
// (MPSC). The classic mutex+condvar queue serializes every deposit against
// the consumer's matching scan; under node-coalesced exchanges a delegate
// rank takes one deposit per co-resident per phase and the lock becomes the
// contention point. This ring makes the deposit path a CAS on a slot ticket
// plus one store: producers never touch a mutex and never wait on the
// consumer (a full ring is reported to the caller, who falls back to an
// overflow queue — the mailbox keeps its unbounded-buffered-send contract).
//
// Each slot carries a sequence number (Vyukov's scheme): slot i is writable
// when seq == pos, readable when seq == pos + 1, and the wrap leaves seq ==
// pos + capacity. The algorithm is MPMC-safe; the mailbox uses it MPSC
// (pops are serialized by the consumer mutex it already holds for matching),
// which keeps the consumer side trivially FIFO per producer.
//
// T must be nothrow-move-constructible: a throwing move would lose the slot
// (its sequence is bumped before the payload is observed by anyone else).
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace stance::support {

// Fixed 64 rather than std::hardware_destructive_interference_size: the
// library constant varies with -mtune and is an ABI hazard (GCC warns under
// -Werror); 64 is the line size on every target this builds for.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class MpscRing {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "MpscRing requires nothrow-move payloads");

 public:
  /// `capacity` must be a power of two (the index mask relies on it).
  explicit MpscRing(std::size_t capacity) : mask_(capacity - 1), slots_(capacity) {
    STANCE_REQUIRE(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                   "MpscRing: capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  ~MpscRing() {
    T scratch;
    while (try_pop(scratch)) {
    }
  }

  /// Lock-free enqueue from any thread. Returns false when the ring is full
  /// (the value is untouched and stays with the caller).
  [[nodiscard]] bool try_push(T&& value) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff =
          static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        // Slot is free at this position; claim it by advancing head.
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          ::new (slot.storage()) T(std::move(value));
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh value.
      } else if (diff < 0) {
        return false;  // full: the slot still holds an unconsumed element
      } else {
        pos = head_.load(std::memory_order_relaxed);  // another producer won
      }
    }
  }

  /// Dequeue in ring order. Single consumer at a time (the mailbox holds its
  /// consumer mutex across pops). Returns false when empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos + 1);
    if (diff < 0) return false;  // empty (or producer mid-publish: not visible yet)
    T* item = std::launder(reinterpret_cast<T*>(slot.storage()));
    out = std::move(*item);
    item->~T();
    slot.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Positions producers have claimed so far. Every element whose push
  /// started its claim before this call sits below it, published or not.
  [[nodiscard]] std::size_t claimed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Positions popped so far. Consumer side.
  [[nodiscard]] std::size_t popped() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct Slot {
    alignas(kCacheLine) std::atomic<std::size_t> seq;
    alignas(alignof(T)) std::byte raw[sizeof(T)];
    void* storage() noexcept { return static_cast<void*>(raw); }
  };

  const std::size_t mask_;
  std::vector<Slot> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // producers
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // consumer
};

}  // namespace stance::support
