// Reusable all-to-all rendezvous used to implement collectives.
//
// Each participating rank deposits a byte blob and its current virtual time;
// when the last rank arrives, the round's blobs and the maximum deposit time
// are published and everyone is released with a *copy* of the result (the
// copy keeps a fast rank's next round from racing a slow rank's read).
// Collectives (barrier/bcast/allgather/allreduce) are byte-level folds over
// this primitive, computed identically on every rank in rank order — which
// makes floating-point reductions deterministic, unlike tree reductions
// whose association order depends on arrival order.
//
// Membership: ranks declared dead (mark_dead) are excluded from round
// completion — a round closes when every *live* rank has deposited, and a
// dead rank's blob slot is empty. mark_dead also posts a failure notice:
// blocked and future enter() calls raise it as mp::PeerFailed, driving the
// survivors into recovery. enter_recovery() is the recovery path's own
// entry: it ignores the pending notice (survivors must be able to rendezvous
// *about* the failure) and clears it when its round completes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "mp/errors.hpp"
#include "mp/message.hpp"

namespace stance::mp {

class Rendezvous {
 public:
  explicit Rendezvous(std::size_t nprocs);

  struct Round {
    std::vector<std::vector<std::byte>> blobs;  ///< indexed by rank; dead => empty
    double max_time = 0.0;                      ///< latest deposit time
  };

  /// Deposit `blob` for `rank` at virtual time `time`; blocks until all
  /// *live* ranks of the current round have deposited. Throws ClusterAborted
  /// after shutdown(), raises the pending FailNotice (as PeerFailed) after
  /// mark_dead(), and throws RankKilled when `rank` itself was declared
  /// dead.
  Round enter(Rank rank, double time, std::vector<std::byte> blob);

  /// Recovery-protocol entry: like enter(), but a pending failure notice
  /// does not throw — survivors use these rounds to agree on the member
  /// set. Completing a recovery round consumes the notice, re-arming
  /// ordinary enter() for the shrunken live set.
  Round enter_recovery(Rank rank, double time, std::vector<std::byte> blob);

  /// Declare `rank` dead: discard its deposit, shrink the live set, post
  /// `notice` for every blocked and future enter(), and wake all waiters.
  /// If the dead rank was the last straggler of an in-flight *recovery*
  /// round, the round completes without it. Idempotent per rank; the first
  /// notice wins.
  void mark_dead(Rank rank, FailNotice notice);

  /// Live participants, ascending rank order.
  [[nodiscard]] std::vector<Rank> live_ranks() const;

  /// Release all waiters with ClusterAborted.
  void shutdown();

  /// Drop round state. Shutdown is *sticky*: a rendezvous that released
  /// waiters stays down across clear() — only reset() revives it (as a
  /// shut-down Mailbox stays down). Dead-rank state also survives clear().
  void clear();

  /// Drop round state, revive all ranks, and clear the shutdown flag and any
  /// failure notice (cluster reuse after an aborted run).
  void reset();

 private:
  /// Close the current round under the lock: publish blobs/max_time, bump
  /// the generation, wake waiters. Consumes the failure notice when the
  /// round was a recovery round.
  void publish_locked();

  const std::size_t nprocs_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<std::byte>> current_;
  std::vector<char> deposited_;  ///< per rank: has a blob in the current round
  std::vector<char> live_;       ///< per rank: participates in rounds
  std::size_t nlive_;
  std::size_t arrived_ = 0;
  double max_time_ = 0.0;
  std::uint64_t generation_ = 0;
  Round published_;
  std::optional<FailNotice> failure_;
  bool recovery_round_ = false;  ///< current round was opened by enter_recovery
  bool down_ = false;
};

}  // namespace stance::mp
