// Per-rank incoming message queue with (source, tag) matching — the one
// delivery queue every transport backend uses.
//
// Sends are buffered (deposit never blocks), mirroring P4's buffered send;
// receives block until a matching message arrives. The queue holds one FIFO
// lane per source rank: deposits append to the sender's lane and takes scan
// only that lane for the oldest message with the requested tag, so
// per-(source, tag) FIFO order follows from the structure. One mutex guards
// the lanes, the buffer pool and the failure state; a condvar parks takers.
// In-process senders deposit directly; the TCP backend's reader threads
// deposit frames received from remote nodes.
//
// Each lane is a vector with a head index: a take at the head advances the
// index, a take behind it shifts the few younger entries down, and a lane
// that would grow first compacts its consumed prefix. prefill() reserves
// every lane and the buffer pool for the executor's worst-case inbound
// pattern, so steady-state exchanges perform no heap allocations: senders
// acquire payload storage from the receiver's pool and the receiver recycles
// it after consuming a message.
//
// Failure surface: shutdown() releases blocked takers with ClusterAborted;
// poison() releases them with a structured FailNotice (mp::PeerFailed for
// a dead peer, mp::TransportError for a malformed frame or dead socket).
// Both are sticky until reset(). fence() is the recovery path's epoch
// fence: it purges queued messages, revives a poisoned queue, and raises the
// epoch floor so stale deposits — and stale notices — racing the fence are
// dropped instead of leaking into the recovered run.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "mp/buffer_pool.hpp"
#include "mp/errors.hpp"
#include "mp/message.hpp"

namespace stance::mp {

class Mailbox {
 public:
  /// A queue receiving from `nprocs` possible sources (ranks 0..nprocs-1).
  explicit Mailbox(int nprocs);

  /// Enqueue a message on its source's lane; never blocks (buffered send).
  /// Dropped after shutdown() or poison() — the taker side reports the
  /// failure. `epoch` is the wire epoch the message was sent in: deposits
  /// below the fence() floor are stale traffic from before a recovery and
  /// are dropped.
  void deposit(RawMessage msg, std::uint32_t epoch = 0);

  /// Block until a message with this (source, tag) is available and return
  /// it. Throws ClusterAborted after shutdown(); raises the stored notice
  /// after poison().
  RawMessage take(Rank source, Tag tag);

  /// Bounded-wait take: wait at most `timeout` for a match. Empty optional
  /// on timeout (the caller owns retry/backoff/liveness policy); the same
  /// exceptions as take() on shutdown/poison.
  std::optional<RawMessage> take_for(Rank source, Tag tag,
                                     std::chrono::milliseconds timeout);

  /// A payload buffer of exactly `size` bytes, reusing a recycled buffer's
  /// capacity when one is pooled. Senders to this queue call this so the
  /// buffer's storage round-trips instead of being reallocated per message.
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t size);

  /// Return a consumed payload buffer to the pool (bounded; excess buffers
  /// are simply freed).
  void recycle(std::vector<std::byte> buffer);

  /// Ensure the pool holds at least `count` buffers of capacity >= `bytes`
  /// and every lane has room for `count` queued messages. Executors call
  /// this (through Process::prefill_recv_buffers) with their schedule's
  /// worst-case inbound message pattern, which makes steady-state sends to
  /// this queue deterministically allocation-free. Returns false when the
  /// kMaxPooled cap truncated the request — the zero-alloc guarantee then
  /// degrades to best-effort and callers must not memoize the requirement
  /// as satisfied.
  [[nodiscard]] bool prefill(std::size_t count, std::size_t bytes);

  /// Number of queued messages across all lanes (diagnostics only).
  [[nodiscard]] std::size_t pending() const;

  /// Release all blocked takers with ClusterAborted; subsequent takes throw
  /// immediately and deposits are dropped. Sticky until reset(): a queue
  /// that released blocked takers stays down, so late deposits from a
  /// still-unwinding peer cannot be observed by the next run.
  void shutdown();

  /// Mark the queue failed: blocked and future takers raise `notice`.
  /// Sticky until reset() or fence(); the first poison wins. A notice whose
  /// epoch is below the fence floor describes a failure the last recovery
  /// already handled and is dropped.
  void poison(FailNotice notice);

  /// Recovery epoch fence: drop every queued message, clear poison, and
  /// only accept deposits and notices with epoch >= `floor` from now on.
  /// Does NOT clear shutdown (a down cluster stays down).
  void fence(std::uint32_t floor);

  /// Drop queued messages and revive the queue after an aborted run. The
  /// buffer pool and lane capacity survive: they are an optimization cache,
  /// not run state, and dropping them would void prior prefill() guarantees.
  /// The epoch floor resets to accept-everything.
  void reset();

 private:
  /// One source's queued messages in deposit order: live entries are
  /// [head, q.size()); slots before the head are moved-from.
  struct Lane {
    std::vector<RawMessage> q;
    std::size_t head = 0;
  };

  Lane& lane(Rank source);
  /// Remove and return the lane's oldest queued message with this tag, if
  /// any. Caller holds mutex_.
  std::optional<RawMessage> match_locked(Lane& l, Tag tag);
  /// Raise the poison notice / ClusterAborted if failed or down. Caller
  /// holds mutex_.
  void raise_if_failed_locked() const;
  /// Empty every lane, keeping capacity. Caller holds mutex_.
  void purge_locked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Lane> lanes_;  ///< indexed by source rank
  std::size_t pending_ = 0;
  BufferPool pool_;
  bool down_ = false;
  std::optional<FailNotice> poison_;
  std::uint32_t epoch_floor_ = 0;
};

}  // namespace stance::mp
