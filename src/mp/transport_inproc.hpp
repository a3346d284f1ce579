// In-process transport backend: one Mailbox per rank plus the shared
// Rendezvous.
//
// InprocTransport serves two kinds. kVirtual is the deterministic oracle;
// its receives block forever by design, so hangs there are the watchdog's
// job. kShm is the co-resident half of the real transport run standalone
// and honors the peer receive deadline (a silent peer is declared dead).
// The two share every byte of queue plumbing; only name(), kind() and the
// receive deadline differ. TcpTransport derives from this class and reuses
// the same per-rank queues for its co-resident ranks and reader threads.
#pragma once

#include <deque>

#include "mp/mailbox.hpp"
#include "mp/transport.hpp"

namespace stance::mp {

class InprocTransport : public Transport {
 public:
  /// `kind` names the backend this instance reports (kVirtual or kShm; the
  /// TCP backend passes kTcp).
  InprocTransport(TransportKind kind, int nprocs);

  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] TransportKind kind() const noexcept override { return kind_; }
  [[nodiscard]] bool trusted() const noexcept override { return !injector_untrusts(); }

  void send(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
            double arrival) final;
  [[nodiscard]] RawMessage recv(Rank self, Rank from, Tag tag) final;
  void recycle(Rank self, std::vector<std::byte> buffer) final;
  [[nodiscard]] bool prefill(Rank self, std::size_t count, std::size_t bytes) final;
  [[nodiscard]] std::size_t pending(Rank self) const final;
  void shutdown() final;
  void reset() override;

 protected:
  void fail_local(const FailNotice& notice) final;
  void fence_local(Rank self, std::uint32_t floor) final;

  /// Move one frame that passed the send guard and the fault rules to `to`.
  /// The default deposits it into `to`'s mailbox; the TCP backend overrides
  /// this to put frames for other nodes on the wire. `wire_epoch` is the
  /// epoch the sender read before its guard.
  virtual void deliver(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
                       double arrival, std::uint32_t wire_epoch);

  [[nodiscard]] Mailbox& box(Rank rank) { return boxes_[static_cast<std::size_t>(rank)]; }

 private:
  const TransportKind kind_;
  std::deque<Mailbox> boxes_;  ///< deque: Mailbox is pinned (mutex/cv members)
};

}  // namespace stance::mp
