#include "mp/mailbox.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace stance::mp {

Mailbox::Mailbox(int nprocs) : lanes_(static_cast<std::size_t>(nprocs)) {
  STANCE_REQUIRE(nprocs > 0, "mailbox needs at least one source");
  pool_.reserve();
}

Mailbox::Lane& Mailbox::lane(Rank source) {
  STANCE_REQUIRE(source >= 0 && static_cast<std::size_t>(source) < lanes_.size(),
                 "mailbox: source rank out of range");
  return lanes_[static_cast<std::size_t>(source)];
}

void Mailbox::deposit(RawMessage msg, std::uint32_t epoch) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (down_ || poison_ || epoch < epoch_floor_) return;
    Lane& l = lane(msg.source);
    if (l.head > 0 && l.q.size() == l.q.capacity()) {
      // Reuse the consumed prefix instead of growing.
      l.q.erase(l.q.begin(), l.q.begin() + static_cast<std::ptrdiff_t>(l.head));
      l.head = 0;
    }
    l.q.push_back(std::move(msg));
    ++pending_;
  }
  cv_.notify_all();
}

std::optional<RawMessage> Mailbox::match_locked(Lane& l, Tag tag) {
  for (std::size_t i = l.head; i < l.q.size(); ++i) {
    if (l.q[i].tag != tag) continue;
    RawMessage msg = std::move(l.q[i]);
    if (i == l.head) {
      ++l.head;
    } else {
      l.q.erase(l.q.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (l.head == l.q.size()) {
      l.q.clear();
      l.head = 0;
    }
    --pending_;
    return msg;
  }
  return std::nullopt;
}

void Mailbox::raise_if_failed_locked() const {
  if (poison_) poison_->raise();
  if (down_) throw ClusterAborted();
}

RawMessage Mailbox::take(Rank source, Tag tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  Lane& l = lane(source);
  for (;;) {
    raise_if_failed_locked();
    if (auto msg = match_locked(l, tag)) return std::move(*msg);
    cv_.wait(lock);
  }
}

std::optional<RawMessage> Mailbox::take_for(Rank source, Tag tag,
                                            std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  Lane& l = lane(source);
  for (;;) {
    raise_if_failed_locked();
    if (auto msg = match_locked(l, tag)) return msg;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Recheck once: the state may have changed while we timed out.
      raise_if_failed_locked();
      return match_locked(l, tag);
    }
  }
}

std::vector<std::byte> Mailbox::acquire(std::size_t size) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pool_.acquire(size);
}

void Mailbox::recycle(std::vector<std::byte> buffer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pool_.recycle(std::move(buffer));
}

bool Mailbox::prefill(std::size_t count, std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Past the pool cap the guarantee is best-effort anyway (payloads would
  // allocate), so lanes are not sized beyond it.
  const std::size_t depth = std::min(count, BufferPool::kMaxPooled);
  for (auto& l : lanes_) {
    if (l.q.capacity() < depth) l.q.reserve(depth);
  }
  return pool_.prefill(count, bytes);
}

std::size_t Mailbox::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

void Mailbox::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    down_ = true;
  }
  cv_.notify_all();
}

void Mailbox::poison(FailNotice notice) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (poison_ || notice.epoch < epoch_floor_) return;
    poison_ = std::move(notice);
  }
  cv_.notify_all();
}

void Mailbox::purge_locked() {
  for (auto& l : lanes_) {
    l.q.clear();  // keeps capacity: prefilled steady state survives the purge
    l.head = 0;
  }
  pending_ = 0;
}

void Mailbox::fence(std::uint32_t floor) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    purge_locked();
    poison_.reset();
    epoch_floor_ = std::max(epoch_floor_, floor);
    // down_ survives: the fence revives a *poisoned* queue for recovery, not
    // a shut-down cluster.
  }
  cv_.notify_all();
}

void Mailbox::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  purge_locked();
  down_ = false;
  poison_.reset();
  epoch_floor_ = 0;
}

}  // namespace stance::mp
