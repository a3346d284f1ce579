// Stress suite for the multi-producer, single-consumer delivery path of
// mp::Mailbox: multi-producer floods, shutdown/poison while a taker is
// blocked mid-flood, and fault-injector interleavings at cluster level. The
// whole file re-runs on the shm and tcp backends via the _shm/_tcp ctest
// variants, and the CI tsan leg runs it under ThreadSanitizer — the floods
// are the data-race oracle for the queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <span>
#include <thread>
#include <vector>

#include "mp/cluster.hpp"
#include "mp/errors.hpp"
#include "mp/fault.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"

namespace stance::mp {
namespace {

RawMessage make_msg(Rank src, Tag tag, std::initializer_list<int> vals, double arrival) {
  std::vector<int> v(vals);
  return RawMessage{src, tag, to_bytes(std::span<const int>(v)), arrival};
}

int value_of(const RawMessage& m) { return from_bytes<int>(m.payload)[0]; }

// --- Mailbox under concurrent flood -----------------------------------------

TEST(MailboxStress, ConcurrentProducersConsumerSeesEveryMessageInOrder) {
  // Each producer is a distinct source rank flooding one mailbox while the
  // consumer takes concurrently, so lanes grow, drain and compact under
  // contention.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  constexpr Tag kTag = 11;
  Mailbox box(kProducers);
  std::vector<std::thread> producers;
  for (int src = 0; src < kProducers; ++src) {
    producers.emplace_back([&, src] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.deposit(make_msg(src, kTag, {src * kPerProducer + i}, 0.0));
      }
    });
  }
  for (int i = 0; i < kPerProducer; ++i) {
    for (int src = 0; src < kProducers; ++src) {
      const auto m = box.take(src, kTag);
      ASSERT_EQ(value_of(m), src * kPerProducer + i)
          << "source " << src << " out of order at " << i;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxStress, ShutdownReleasesBlockedTakerDuringFlood) {
  // The taker waits on a tag the producers never send, so it is parked on
  // the condvar while every deposit wakes it for a futile rescan.
  // shutdown() from yet another thread must cut through.
  Mailbox box(2);
  std::atomic<bool> stop{false};
  std::atomic<bool> aborted{false};
  std::vector<std::thread> producers;
  for (int src = 0; src < 2; ++src) {
    producers.emplace_back([&, src] {
      // Bounded flood: enough to keep the taker waking for the whole test,
      // without letting a generous scheduler timeslice pile up an
      // unbounded backlog.
      for (int i = 0; i < 20000 && !stop.load(std::memory_order_acquire);
           ++i) {
        box.deposit(make_msg(src, /*tag=*/1, {i}, 0.0));
      }
    });
  }
  std::thread taker([&] {
    try {
      (void)box.take(0, /*tag=*/2);
    } catch (const ClusterAborted&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.shutdown();
  taker.join();
  EXPECT_TRUE(aborted.load());
  stop.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  // Pre-shutdown deposits stay queued (reset() owns discarding them), but
  // post-shutdown deposits are dropped.
  const std::size_t queued = box.pending();
  box.deposit(make_msg(0, 1, {0}, 0.0));
  EXPECT_EQ(box.pending(), queued);
}

TEST(MailboxStress, PoisonReleasesBlockedTakerDuringFlood) {
  Mailbox box(2);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    for (int i = 0; i < 20000 && !stop.load(std::memory_order_acquire); ++i) {
      box.deposit(make_msg(1, /*tag=*/1, {i}, 0.0));
    }
  });
  std::thread taker([&] {
    try {
      (void)box.take(1, /*tag=*/2);
    } catch (const PeerFailed& e) {
      EXPECT_EQ(e.peer(), 3);
      failed = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.poison(FailNotice{.what = "injected", .peer = 3, .peer_failed = true});
  taker.join();
  EXPECT_TRUE(failed.load());
  stop.store(true, std::memory_order_release);
  producer.join();
}

// --- fault-injector interleavings at cluster level --------------------------

TEST(MailboxStress, DelayedFramesStillMatchInSendOrder) {
  // A delay rule reshuffles virtual arrival stamps between two senders, so
  // the receiving mailbox sees interleavings that never occur fault-free.
  // Per-sender FIFO is a deposit-order property and must survive on every
  // backend.
  Cluster cluster(sim::MachineSpec::uniform(3));
  cluster.set_fault_plan(FaultPlan{
      .kills = {},
      .frames = {FrameRule{.from = 1, .to = 0, .after_nth = 0, .count = 50,
                           .fault = FrameFault::kDelay,
                           .delay_seconds = 0.25}}});
  constexpr int kRounds = 100;
  cluster.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_EQ(p.recv_value<int>(1, /*tag=*/7), 100 + i);
        EXPECT_EQ(p.recv_value<int>(2, /*tag=*/7), 200 + i);
      }
    } else {
      for (int i = 0; i < kRounds; ++i) {
        p.send_value(0, /*tag=*/7, static_cast<int>(p.rank()) * 100 + i);
      }
    }
  });
  cluster.set_fault_plan(FaultPlan{});
}

TEST(MailboxStress, KillDuringFloodReleasesReceiverWithPeerFailed) {
  // Rank 1 dies mid-flood; rank 0 is blocked in recv on it. The failure
  // must surface as PeerFailed through the mailbox poison path — never a
  // hang — on every backend.
  Cluster cluster(sim::MachineSpec::uniform(2));
  cluster.set_fault_plan(
      FaultPlan{.kills = {KillRule{.rank = 1, .after_sends = 25}}, .frames = {}});
  std::atomic<bool> observed{false};
  cluster.run([&](Process& p) {
    try {
      if (p.rank() == 0) {
        for (int i = 0; i < 100; ++i) {
          (void)p.recv_value<int>(1, /*tag=*/3);
        }
        FAIL() << "rank 0 outlived its dead peer's message stream";
      } else {
        for (int i = 0; i < 100; ++i) p.send_value(0, /*tag=*/3, i);
      }
    } catch (const PeerFailed& e) {
      EXPECT_EQ(e.peer(), 1);
      observed = true;
      // Recover: the survivor agreement fences this rank's queue, dropping
      // the dead peer's unconsumed backlog.
      const auto agreement = p.agree_on_survivors();
      EXPECT_EQ(agreement.survivors, (std::vector<Rank>{0}));
    }
    // Rank 1's own RankKilled propagates: Cluster::run records the death.
  });
  EXPECT_TRUE(observed.load());
  cluster.set_fault_plan(FaultPlan{});
}

}  // namespace
}  // namespace stance::mp
