#include "mp/transport_inproc.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace stance::mp {

InprocTransport::InprocTransport(TransportKind kind, int nprocs)
    : Transport(nprocs), kind_(kind) {
  STANCE_REQUIRE(kind != TransportKind::kDefault,
                 "in-process transport: kind must be concrete");
  for (int r = 0; r < nprocs; ++r) boxes_.emplace_back(nprocs);
}

const char* InprocTransport::name() const noexcept {
  switch (kind_) {
    case TransportKind::kShm: return "shm";
    case TransportKind::kTcp: return "tcp";
    default: return "virtual";
  }
}

void InprocTransport::send(Rank from, Rank to, Tag tag,
                           std::span<const std::byte> data, double arrival) {
  // Epoch is read BEFORE the failure guard (see Transport::mark_dead): a
  // send racing a mark_dead either sees the failure here, or carries the
  // pre-bump epoch and is dropped by the receiver's fence floor.
  const std::uint32_t e = epoch();
  guard_send(from);
  std::vector<std::byte> scratch;
  if (!apply_frame_faults(from, to, data, arrival, scratch)) return;
  deliver(from, to, tag, data, arrival, e);
}

void InprocTransport::deliver(Rank from, Rank to, Tag tag,
                              std::span<const std::byte> data, double arrival,
                              std::uint32_t wire_epoch) {
  Mailbox& dest = box(to);
  std::vector<std::byte> payload = dest.acquire(data.size());
  std::copy(data.begin(), data.end(), payload.begin());
  dest.deposit(RawMessage{from, tag, std::move(payload), arrival}, wire_epoch);
}

RawMessage InprocTransport::recv(Rank self, Rank from, Tag tag) {
  heartbeat(self);
  if (kind_ == TransportKind::kVirtual) return box(self).take(from, tag);
  return deadline_take(box(self), self, from, tag);
}

void InprocTransport::recycle(Rank self, std::vector<std::byte> buffer) {
  box(self).recycle(std::move(buffer));
}

bool InprocTransport::prefill(Rank self, std::size_t count, std::size_t bytes) {
  return box(self).prefill(count, bytes);
}

std::size_t InprocTransport::pending(Rank self) const {
  return boxes_[static_cast<std::size_t>(self)].pending();
}

void InprocTransport::shutdown() {
  for (auto& b : boxes_) b.shutdown();
  rendezvous_.shutdown();
}

void InprocTransport::reset() {
  for (auto& b : boxes_) b.reset();
  reset_base();
}

void InprocTransport::fail_local(const FailNotice& notice) {
  for (auto& b : boxes_) b.poison(notice);
}

void InprocTransport::fence_local(Rank self, std::uint32_t floor) {
  box(self).fence(floor);
}

}  // namespace stance::mp
