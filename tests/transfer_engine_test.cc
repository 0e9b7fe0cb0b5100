#include "src/comm/transfer_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/check/testing.h"
#include "src/collective/collective.h"
#include "src/net/fabric.h"
#include "src/rdma/verbs.h"
#include "src/sim/trace.h"
#include "src/tensor/extent_cache.h"

namespace rdmadl {
namespace comm {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

// Two-host world with one sending device (4 QP lanes) and one receiving
// device, both with real memory so delivered bytes can be inspected.
struct World {
  World() : fabric(&simulator, cost, 2), rdma(&fabric), directory(&rdma) {}
  explicit World(const net::CostModel& custom_cost)
      : cost(custom_cost), fabric(&simulator, cost, 2), rdma(&fabric), directory(&rdma) {}

  std::unique_ptr<device::RdmaDevice> MakeDevice(int host, int num_qps = 4) {
    auto dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2, num_qps,
                                          Endpoint{host, 7000});
    CHECK(dev.ok()) << dev.status();
    return std::move(dev).value();
  }

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

// The §3.2 contract every engine route must preserve: whenever the flag byte
// reads 1, the full payload has already landed.
struct FlagInvariant {
  World* world = nullptr;
  const uint8_t* flag = nullptr;
  const uint8_t* dst = nullptr;
  const uint8_t* expected = nullptr;
  uint64_t bytes = 0;
  const bool* stop = nullptr;
  bool flag_observed = false;
};

// Polls the invariant every 500 ns of virtual time until *stop. Each queued
// event owns a shared_ptr to the state (no self-referencing cycle), so a
// simulator torn down mid-poll frees everything.
void SchedulePoll(std::shared_ptr<FlagInvariant> inv) {
  sim::Simulator* simulator = &inv->world->simulator;
  simulator->ScheduleAfter(500, [inv]() {
    if (*inv->stop) return;
    if (*inv->flag == 1) {
      inv->flag_observed = true;
      EXPECT_EQ(std::memcmp(inv->dst, inv->expected, inv->bytes), 0)
          << "flag visible before the payload fully landed";
    }
    SchedulePoll(inv);
  });
}

std::shared_ptr<FlagInvariant> WatchFlag(World* world, const uint8_t* flag,
                                         const uint8_t* dst, const uint8_t* expected,
                                         uint64_t bytes, const bool* stop) {
  auto inv = std::make_shared<FlagInvariant>();
  inv->world = world;
  inv->flag = flag;
  inv->dst = dst;
  inv->expected = expected;
  inv->bytes = bytes;
  inv->stop = stop;
  SchedulePoll(inv);
  return inv;
}

TEST(TransferEngineTest, StripedWriteReassemblesExactlyAndFlagTrailsPayload) {
  net::CostModel cost;
  cost.rdma_qp_engine_bytes_per_sec = 12e9;  // Striping engages only with a
                                             // finite per-QP engine rate.
  World world(cost);
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr uint64_t kBytes = 8ull << 20;
  auto src = src_dev->AllocateMemRegion(kBytes);
  auto dst = dst_dev->AllocateMemRegion(kBytes);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flag = dst_dev->AllocateMemRegion(1);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
  for (uint64_t i = 0; i < kBytes; ++i) src->data()[i] = static_cast<uint8_t>(i * 31 + 7);
  std::memset(dst->data(), 0, kBytes);
  src_flag->data()[0] = 1;
  dst_flag->data()[0] = 0;

  TransferEngineOptions options;
  options.stripe_threshold_bytes = 1 << 20;
  TransferEngine engine(src_dev.get(), options);

  TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr,
                                    dst->rkey(), kBytes, /*copy_bytes=*/true};
  TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(), dst_flag->Remote().addr,
                                 dst_flag->rkey(), 1, /*copy_bytes=*/true};

  bool done = false;
  bool stop = false;
  Status result = Internal("callback never fired");
  auto inv = WatchFlag(&world, dst_flag->data(), dst->data(), src->data(), kBytes, &stop);
  TransferEngine::Route route = engine.WriteWithFlag(
      dst_dev->endpoint(), payload, flag, /*lane_hint=*/0, [&](const Status& s) {
        done = true;
        result = s;
      });
  EXPECT_EQ(route, TransferEngine::Route::kStriped);
  ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
  // Let the poller observe the settled state, then stop it.
  ASSERT_TRUE(world.simulator.RunUntil(world.simulator.Now() + 1000).ok());
  stop = true;

  EXPECT_TRUE(result.ok()) << result;
  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kBytes), 0);
  EXPECT_EQ(dst_flag->data()[0], 1);
  EXPECT_TRUE(inv->flag_observed);
  EXPECT_EQ(engine.stats().striped_writes, 1);
  // 8 MiB over 4 lanes at 2 MiB per MTU-aligned stripe.
  EXPECT_EQ(engine.stats().stripe_lane_writes, 4);
}

TEST(TransferEngineTest, CoalescedBatchSharesOneDoorbellAndKeepsFlagSemantics) {
  World world;
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr int kWrites = 4;
  constexpr uint64_t kSmall = 256;
  auto src = src_dev->AllocateMemRegion(kWrites * kSmall);
  auto dst = dst_dev->AllocateMemRegion(kWrites * kSmall);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flags = dst_dev->AllocateMemRegion(kWrites);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flags.ok());
  for (uint64_t i = 0; i < kWrites * kSmall; ++i) {
    src->data()[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  std::memset(dst->data(), 0, kWrites * kSmall);
  std::memset(dst_flags->data(), 0, kWrites);
  src_flag->data()[0] = 1;

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  const uint64_t doorbells_before = src_dev->nic()->stats().doorbell_batches;

  int completions = 0;
  bool stop = false;
  std::vector<std::shared_ptr<FlagInvariant>> invariants;
  for (int i = 0; i < kWrites; ++i) {
    invariants.push_back(WatchFlag(&world, dst_flags->data() + i, dst->data() + i * kSmall,
                                   src->data() + i * kSmall, kSmall, &stop));
  }
  for (int i = 0; i < kWrites; ++i) {
    TransferEngine::WriteDesc payload{src->data() + i * kSmall, src->lkey(),
                                      dst->Remote().addr + i * kSmall, dst->rkey(), kSmall,
                                      /*copy_bytes=*/true};
    TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                   dst_flags->Remote().addr + i, dst_flags->rkey(), 1,
                                   /*copy_bytes=*/true};
    TransferEngine::Route route = engine.WriteWithFlag(
        dst_dev->endpoint(), payload, flag, /*lane_hint=*/i, [&](const Status& s) {
          EXPECT_TRUE(s.ok()) << s;
          ++completions;
        });
    EXPECT_EQ(route, TransferEngine::Route::kCoalesced);
  }
  ASSERT_TRUE(
      world.simulator.RunUntilPredicate([&] { return completions == kWrites; }).ok());
  ASSERT_TRUE(world.simulator.RunUntil(world.simulator.Now() + 1000).ok());
  stop = true;

  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kWrites * kSmall), 0);
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(dst_flags->data()[i], 1) << "flag " << i;
    EXPECT_TRUE(invariants[i]->flag_observed) << "flag " << i;
  }
  EXPECT_EQ(engine.stats().coalesced_writes, kWrites);
  EXPECT_EQ(engine.stats().coalesced_batches, 1);
  // All four payload+flag pairs rode one doorbell chain.
  EXPECT_EQ(src_dev->nic()->stats().doorbell_batches, doorbells_before + 1);
}

TEST(TransferEngineTest, CoalesceFlushesImmediatelyAtMaxBatch) {
  World world;
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);
  auto src = src_dev->AllocateMemRegion(1024);
  auto dst = dst_dev->AllocateMemRegion(1024);
  ASSERT_TRUE(src.ok() && dst.ok());
  src->data()[0] = 1;  // Doubles as the flag source.

  TransferEngineOptions options;
  options.max_coalesce_batch = 2;
  TransferEngine engine(src_dev.get(), options);

  for (int i = 0; i < 2; ++i) {
    TransferEngine::WriteDesc payload{src->data(), src->lkey(),
                                      dst->Remote().addr + i * 64, dst->rkey(), 64,
                                      /*copy_bytes=*/true};
    TransferEngine::WriteDesc flag{src->data(), src->lkey(), dst->Remote().addr + 512 + i,
                                   dst->rkey(), 1, /*copy_bytes=*/true};
    engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, 0, nullptr);
  }
  // The second enqueue hits max_coalesce_batch and flushes synchronously,
  // without waiting for the coalesce window.
  EXPECT_EQ(engine.stats().coalesced_batches, 1);
  ASSERT_TRUE(world.simulator.Run().ok());
  EXPECT_EQ(dst->data()[512], 1);
  EXPECT_EQ(dst->data()[513], 1);
}

TEST(TransferEngineTest, ResetTransientStateDropsQueuedWritesWithoutCallbacks) {
  World world;
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);
  auto src = src_dev->AllocateMemRegion(1024);
  auto dst = dst_dev->AllocateMemRegion(1024);
  ASSERT_TRUE(src.ok() && dst.ok());

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  bool fired = false;
  TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr, dst->rkey(),
                                    64, /*copy_bytes=*/true};
  TransferEngine::WriteDesc flag{src->data(), src->lkey(), dst->Remote().addr + 512,
                                 dst->rkey(), 1, /*copy_bytes=*/true};
  engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, 0,
                       [&](const Status&) { fired = true; });
  engine.ResetTransientState();
  ASSERT_TRUE(world.simulator.Run().ok());
  // The queued write was dropped before its window flush; the stale flush
  // event is a generation no-op and the callback never runs.
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.stats().coalesced_batches, 0);
}

TEST(TransferEngineTest, MrCacheHitsEvictsAndHonorsEpochPinning) {
  World world;
  auto dev = world.MakeDevice(0);
  TransferEngineOptions options;
  options.mr_cache_capacity = 2;
  TransferEngine engine(dev.get(), options);

  // Page-separated buffers carved out of one backing block so extents never
  // share a page.
  std::vector<uint8_t> backing(1 << 20);
  uint8_t* a = backing.data();
  uint8_t* b = backing.data() + (64 << 10);
  uint8_t* c = backing.data() + (128 << 10);

  engine.BeginEpoch(1);
  auto ha = engine.GetOrRegisterMr(a, 4096);
  auto hb = engine.GetOrRegisterMr(b, 4096);
  ASSERT_TRUE(ha.ok() && hb.ok());
  EXPECT_FALSE(ha->hit);
  EXPECT_GT(ha->register_ns, 0);
  auto ha2 = engine.GetOrRegisterMr(a, 4096);
  ASSERT_TRUE(ha2.ok());
  EXPECT_TRUE(ha2->hit);
  EXPECT_EQ(ha2->register_ns, 0);
  EXPECT_EQ(ha2->lkey, ha->lkey);

  // Same-epoch entries are pinned: capacity pressure must not evict a region
  // that may be the target of an in-flight remote read.
  auto hc = engine.GetOrRegisterMr(c, 4096);
  ASSERT_TRUE(hc.ok());
  EXPECT_EQ(hc->evictions, 0);
  EXPECT_EQ(engine.mr_cache_size(), 3);

  // Next epoch: the same registration pressure now evicts the LRU entry (b:
  // a was re-touched after b).
  engine.BeginEpoch(2);
  uint8_t* d = backing.data() + (192 << 10);
  auto hd = engine.GetOrRegisterMr(d, 4096);
  ASSERT_TRUE(hd.ok());
  EXPECT_GT(hd->evictions, 0);
  EXPECT_LE(engine.mr_cache_size(), 3);
  auto hb2 = engine.GetOrRegisterMr(b, 4096);
  ASSERT_TRUE(hb2.ok());
  EXPECT_FALSE(hb2->hit);  // b was the eviction victim.

  EXPECT_EQ(engine.stats().mr_cache_hits, 1);
  EXPECT_GT(engine.stats().mr_cache_evictions, 0);
}

TEST(TransferEngineTest, MrCacheRespectsNicRegionLimit) {
  net::CostModel cost;
  cost.max_memory_regions = 8;
  World world(cost);
  auto dev = world.MakeDevice(0);
  TransferEngineOptions options;
  options.mr_cache_capacity = 64;  // Larger than the NIC limit allows.
  TransferEngine engine(dev.get(), options);

  std::vector<uint8_t> backing(4 << 20);
  for (int i = 0; i < 32; ++i) {
    engine.BeginEpoch(i);  // Each round's entries are evictable next round.
    auto handle = engine.GetOrRegisterMr(backing.data() + i * (64 << 10), 4096);
    ASSERT_TRUE(handle.ok()) << handle.status();
    EXPECT_LE(dev->nic()->num_registered_regions(), 8) << "round " << i;
  }
  EXPECT_GT(engine.stats().mr_cache_evictions, 0);
}

TEST(TransferEngineTest, TeardownDeregistersCachedRegions) {
  World world;
  auto dev = world.MakeDevice(0);
  std::vector<uint8_t> backing(1 << 20);
  const int regions_before = dev->nic()->num_registered_regions();
  {
    TransferEngine engine(dev.get(), TransferEngineOptions{});
    engine.BeginEpoch(1);
    ASSERT_TRUE(engine.GetOrRegisterMr(backing.data(), 4096).ok());
    ASSERT_TRUE(engine.GetOrRegisterMr(backing.data() + (64 << 10), 4096).ok());
    EXPECT_EQ(dev->nic()->num_registered_regions(), regions_before + 2);
  }
  // Engine teardown returns the NIC to its prior region count, so cached MRs
  // never surface as RdmaCheck teardown leaks.
  EXPECT_EQ(dev->nic()->num_registered_regions(), regions_before);
}

// ---------------------------------------------------------------------------
// WriteGather: multi-extent postings as scatter/gather WRs.
// ---------------------------------------------------------------------------

TEST(TransferEngineTest, WriteGatherRidesOneSgWrAndFlagTrailsEveryExtent) {
  World world;
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr int kExtents = 4;
  constexpr uint64_t kExtentBytes = 256 << 10;
  constexpr uint64_t kBytes = kExtents * kExtentBytes;
  auto src = src_dev->AllocateMemRegion(kBytes);
  auto dst = dst_dev->AllocateMemRegion(kBytes);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flag = dst_dev->AllocateMemRegion(1);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
  for (uint64_t i = 0; i < kBytes; ++i) src->data()[i] = static_cast<uint8_t>(i * 17 + 3);
  std::memset(dst->data(), 0, kBytes);
  src_flag->data()[0] = 1;
  dst_flag->data()[0] = 0;

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  std::vector<TransferEngine::WriteDesc> extents;
  for (int i = 0; i < kExtents; ++i) {
    extents.push_back({src->data() + i * kExtentBytes, src->lkey(),
                       dst->Remote().addr + i * kExtentBytes, dst->rkey(), kExtentBytes,
                       /*copy_bytes=*/true});
  }
  TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(), dst_flag->Remote().addr,
                                 dst_flag->rkey(), 1, /*copy_bytes=*/true};

  bool done = false;
  bool stop = false;
  Status result = Internal("callback never fired");
  // The §3.2 contract, per extent: a visible flag means the whole payload
  // (every extent) already landed.
  auto inv = WatchFlag(&world, dst_flag->data(), dst->data(), src->data(), kBytes, &stop);
  TransferEngine::Route route =
      engine.WriteGather(dst_dev->endpoint(), extents, flag, /*lane_hint=*/0,
                         [&](const Status& s) {
                           done = true;
                           result = s;
                         });
  EXPECT_EQ(route, TransferEngine::Route::kScatterGather);
  ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
  ASSERT_TRUE(world.simulator.RunUntil(world.simulator.Now() + 1000).ok());
  stop = true;

  EXPECT_TRUE(result.ok()) << result;
  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kBytes), 0);
  EXPECT_EQ(dst_flag->data()[0], 1);
  EXPECT_TRUE(inv->flag_observed);
  EXPECT_EQ(engine.stats().gather_writes, 1);
  EXPECT_EQ(engine.stats().sg_wrs_posted, 1);  // Below the stripe threshold.
  EXPECT_EQ(engine.stats().sg_extents_posted, kExtents);
  EXPECT_EQ(src_dev->nic()->stats().sg_writes, 1u);
  EXPECT_EQ(src_dev->nic()->stats().sg_extents, static_cast<uint64_t>(kExtents));
}

TEST(TransferEngineTest, WriteGatherStripesSgWrsAcrossLanesWhenEngineRateModeled) {
  net::CostModel cost;
  cost.rdma_qp_engine_bytes_per_sec = 12e9;  // Striping gate needs a finite rate.
  World world(cost);
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr int kExtents = 8;
  constexpr uint64_t kExtentBytes = 1 << 20;
  constexpr uint64_t kBytes = kExtents * kExtentBytes;  // 8 MiB: clears the gate.
  auto src = src_dev->AllocateMemRegion(kBytes);
  auto dst = dst_dev->AllocateMemRegion(kBytes);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flag = dst_dev->AllocateMemRegion(1);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
  for (uint64_t i = 0; i < kBytes; ++i) src->data()[i] = static_cast<uint8_t>(i * 29 + 1);
  std::memset(dst->data(), 0, kBytes);
  src_flag->data()[0] = 1;
  dst_flag->data()[0] = 0;

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  std::vector<TransferEngine::WriteDesc> extents;
  for (int i = 0; i < kExtents; ++i) {
    extents.push_back({src->data() + i * kExtentBytes, src->lkey(),
                       dst->Remote().addr + i * kExtentBytes, dst->rkey(), kExtentBytes,
                       /*copy_bytes=*/true});
  }
  TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(), dst_flag->Remote().addr,
                                 dst_flag->rkey(), 1, /*copy_bytes=*/true};

  bool done = false;
  bool stop = false;
  auto inv = WatchFlag(&world, dst_flag->data(), dst->data(), src->data(), kBytes, &stop);
  TransferEngine::Route route = engine.WriteGather(
      dst_dev->endpoint(), extents, flag, /*lane_hint=*/0,
      [&](const Status& s) { done = s.ok(); });
  EXPECT_EQ(route, TransferEngine::Route::kScatterGather);
  ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
  ASSERT_TRUE(world.simulator.RunUntil(world.simulator.Now() + 1000).ok());
  stop = true;

  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kBytes), 0);
  EXPECT_TRUE(inv->flag_observed);
  // 8 extents over 4 lanes: one SG-WR per lane, extents never split.
  EXPECT_EQ(engine.stats().gather_writes, 1);
  EXPECT_EQ(engine.stats().sg_wrs_posted, 4);
  EXPECT_EQ(engine.stats().sg_extents_posted, kExtents);
  EXPECT_EQ(src_dev->nic()->stats().sg_writes, 4u);
}

TEST(TransferEngineTest, GatherPostingMatchesMultiWrPostingByteForByte) {
  // The SG-WR path must be a pure posting optimization: the delivered bytes
  // are identical to posting each extent as its own WR, and two same-seed
  // gather runs emit byte-identical traces.
  constexpr int kExtents = 8;
  constexpr uint64_t kExtentBytes = 64 << 10;
  constexpr uint64_t kBytes = kExtents * kExtentBytes;

  // |mode| 0: one WriteGather posting. |mode| 1: one WR per extent, flag
  // last. Returns the delivered payload; |json| (optional) gets the trace.
  auto run = [&](int mode, std::string* json) {
    sim::Tracer tracer;
    if (json != nullptr) sim::Tracer::Install(&tracer);
    std::vector<uint8_t> out(kBytes);
    {
      World world;
      auto src_dev = world.MakeDevice(0);
      auto dst_dev = world.MakeDevice(1);
      auto src = src_dev->AllocateMemRegion(kBytes);
      auto dst = dst_dev->AllocateMemRegion(kBytes);
      auto src_flag = src_dev->AllocateMemRegion(1);
      auto dst_flag = dst_dev->AllocateMemRegion(1);
      CHECK(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
      for (uint64_t i = 0; i < kBytes; ++i) {
        src->data()[i] = static_cast<uint8_t>(i * 41 + 9);
      }
      std::memset(dst->data(), 0, kBytes);
      src_flag->data()[0] = 1;
      dst_flag->data()[0] = 0;

      bool done = false;
      int landed = 0;  // Outlives the branch: completions fire in RunUntilPredicate.
      if (mode == 0) {
        TransferEngine engine(src_dev.get(), TransferEngineOptions{});
        std::vector<TransferEngine::WriteDesc> extents;
        for (int i = 0; i < kExtents; ++i) {
          extents.push_back({src->data() + i * kExtentBytes, src->lkey(),
                             dst->Remote().addr + i * kExtentBytes, dst->rkey(),
                             kExtentBytes, /*copy_bytes=*/true});
        }
        TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                       dst_flag->Remote().addr, dst_flag->rkey(), 1,
                                       /*copy_bytes=*/true};
        engine.WriteGather(dst_dev->endpoint(), extents, flag, /*lane_hint=*/0,
                           [&](const Status& s) { done = s.ok(); });
      } else {
        auto chan = src_dev->GetChannel(dst_dev->endpoint(), /*qp_idx=*/0);
        CHECK(chan.ok()) << chan.status();
        for (int i = 0; i < kExtents; ++i) {
          (*chan)->Memcpy(src->data() + i * kExtentBytes, src->lkey(),
                          dst->Remote().addr + i * kExtentBytes, dst->rkey(), kExtentBytes,
                          device::Direction::kLocalToRemote,
                          [&](const Status& s) { CHECK_OK(s); ++landed; });
        }
        (*chan)->Memcpy(src_flag->data(), src_flag->lkey(), dst_flag->Remote().addr,
                        dst_flag->rkey(), 1, device::Direction::kLocalToRemote,
                        [&](const Status& s) {
                          CHECK_OK(s);
                          done = landed == kExtents;  // FIFO: flag lands last.
                        });
      }
      CHECK_OK(world.simulator.RunUntilPredicate([&] { return done; }));
      CHECK(done);
      CHECK_EQ(dst_flag->data()[0], 1);
      std::memcpy(out.data(), dst->data(), kBytes);
    }
    if (json != nullptr) {
      sim::Tracer::Install(nullptr);
      *json = tracer.ToJson();
    }
    return out;
  };

  std::string first_trace;
  std::string second_trace;
  const std::vector<uint8_t> gathered = run(0, &first_trace);
  const std::vector<uint8_t> gathered_again = run(0, &second_trace);
  const std::vector<uint8_t> multi_wr = run(1, nullptr);
  EXPECT_EQ(gathered, multi_wr);
  EXPECT_EQ(gathered, gathered_again);
  EXPECT_GT(first_trace.size(), 0u);
  EXPECT_EQ(first_trace, second_trace);  // Same seed, same schedule.
}

TEST(TransferEngineTest, WriteGatherRejectsMixedRegistrationKeys) {
  World world;
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);
  auto src_a = src_dev->AllocateMemRegion(4096);
  auto src_b = src_dev->AllocateMemRegion(4096);
  auto dst = dst_dev->AllocateMemRegion(8192);
  auto flag_mr = src_dev->AllocateMemRegion(1);
  ASSERT_TRUE(src_a.ok() && src_b.ok() && dst.ok() && flag_mr.ok());

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  // Distinct MemRegions carry distinct lkeys: the SG list shares one
  // registration domain by contract, so the posting must fail async.
  std::vector<TransferEngine::WriteDesc> extents = {
      {src_a->data(), src_a->lkey(), dst->Remote().addr, dst->rkey(), 4096, true},
      {src_b->data(), src_b->lkey(), dst->Remote().addr + 4096, dst->rkey(), 4096, true}};
  TransferEngine::WriteDesc flag{flag_mr->data(), flag_mr->lkey(), dst->Remote().addr,
                                 dst->rkey(), 1, true};
  bool done = false;
  Status result = OkStatus();
  engine.WriteGather(dst_dev->endpoint(), extents, flag, 0, [&](const Status& s) {
    done = true;
    result = s;
  });
  ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
  EXPECT_EQ(result.code(), StatusCode::kInvalidArgument);
}

// The routes a write with a null completion callback can take. on_done may
// be null on every one of them: the bytes still land and nothing invokes the
// empty callback.
enum class NullDoneRoute { kFlagOnly, kPayloadOnly, kStriped, kGather };

class TransferEngineTest : public ::testing::TestWithParam<NullDoneRoute> {};

INSTANTIATE_TEST_SUITE_P(Routes, TransferEngineTest,
                         ::testing::Values(NullDoneRoute::kFlagOnly, NullDoneRoute::kPayloadOnly,
                                           NullDoneRoute::kStriped, NullDoneRoute::kGather),
                         [](const ::testing::TestParamInfo<NullDoneRoute>& info) {
                           switch (info.param) {
                             case NullDoneRoute::kFlagOnly:
                               return "FlagOnly";
                             case NullDoneRoute::kPayloadOnly:
                               return "PayloadOnly";
                             case NullDoneRoute::kStriped:
                               return "Striped";
                             case NullDoneRoute::kGather:
                               return "Gather";
                           }
                           return "?";
                         });

TEST_P(TransferEngineTest, NullDoneIsAcceptedOnEveryRoute) {
  net::CostModel cost;
  cost.rdma_qp_engine_bytes_per_sec = 12e9;  // Striping gate needs a finite rate.
  World world(cost);
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr uint64_t kBytes = 1 << 20;
  auto src = src_dev->AllocateMemRegion(kBytes);
  auto dst = dst_dev->AllocateMemRegion(kBytes);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flag = dst_dev->AllocateMemRegion(1);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
  for (uint64_t i = 0; i < kBytes; ++i) src->data()[i] = static_cast<uint8_t>(i * 7 + 1);
  std::memset(dst->data(), 0, kBytes);
  src_flag->data()[0] = 1;
  dst_flag->data()[0] = 0;

  TransferEngineOptions options;
  options.stripe_threshold_bytes = 256 << 10;
  TransferEngine engine(src_dev.get(), options);
  TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr,
                                    dst->rkey(), kBytes, /*copy_bytes=*/true};
  TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(), dst_flag->Remote().addr,
                                 dst_flag->rkey(), 1, /*copy_bytes=*/true};

  TransferEngine::Route route = TransferEngine::Route::kCoalesced;
  TransferEngine::Route expected = TransferEngine::Route::kDirect;
  switch (GetParam()) {
    case NullDoneRoute::kFlagOnly:
      payload.bytes = 0;
      route = engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, 0, nullptr);
      break;
    case NullDoneRoute::kPayloadOnly:
      // Above the coalescing threshold, below the striping one.
      payload.bytes = 64 << 10;
      flag.bytes = 0;
      route = engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, 0, nullptr);
      break;
    case NullDoneRoute::kStriped:
      expected = TransferEngine::Route::kStriped;
      route = engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, 0, nullptr);
      break;
    case NullDoneRoute::kGather: {
      expected = TransferEngine::Route::kScatterGather;
      std::vector<TransferEngine::WriteDesc> extents;
      for (uint64_t off = 0; off < kBytes; off += kBytes / 4) {
        extents.push_back({src->data() + off, src->lkey(), dst->Remote().addr + off,
                           dst->rkey(), kBytes / 4, /*copy_bytes=*/true});
      }
      route = engine.WriteGather(dst_dev->endpoint(), extents, flag, 0, nullptr);
      break;
    }
  }
  EXPECT_EQ(route, expected);
  ASSERT_TRUE(world.simulator.Run().ok());

  EXPECT_EQ(std::memcmp(dst->data(), src->data(), payload.bytes), 0);
  EXPECT_EQ(dst_flag->data()[0], flag.bytes);
}

TEST(ExtentLruCacheTest, CoversLookupsAndEvictsLeastRecentlyUsed) {
  tensor::ExtentLruCache<int> cache;
  cache.Insert(4096, 8192, 1);
  cache.Insert(32768, 4096, 2);

  ASSERT_NE(cache.Lookup(4096, 8192), nullptr);
  auto* interior = cache.Lookup(8000, 100);  // Interior slice.
  ASSERT_NE(interior, nullptr);
  EXPECT_EQ(interior->value, 1);
  EXPECT_EQ(cache.Lookup(4000, 10), nullptr);     // Before the extent.
  EXPECT_EQ(cache.Lookup(12000, 1000), nullptr);  // Runs past the end.
  EXPECT_EQ(cache.Lookup(20000, 16), nullptr);    // Gap between extents.

  // Entry 2 is now least recently used (every hit above touched entry 1).
  auto victim = cache.EvictLru([](const auto&) { return true; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->value, 2);
  EXPECT_EQ(cache.size(), 1u);

  // A predicate that rejects everything evicts nothing.
  EXPECT_FALSE(cache.EvictLru([](const auto&) { return false; }).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

// Same seed, same schedule: the striping and coalescing paths must not
// introduce any pointer- or wall-clock-dependent ordering. Two fresh worlds
// running an identical striped collective must emit byte-identical traces.
TEST(TransferEngineTest, PooledLaneEvictionIsTransparentToTheEngine) {
  // One RPC QP plus at most two data lanes fit per NIC, but the engine
  // rotates over four lanes: every few writes the pool must evict the LRU
  // idle lane and transparently reconnect it on the next acquire. The engine
  // notices nothing — its channel cache is invalidated by the pool
  // generation bump and re-resolves through the pool.
  net::CostModel cost;
  cost.max_queue_pairs = 3;
  World world(cost);
  auto src_dev = world.MakeDevice(0);
  auto dst_dev = world.MakeDevice(1);

  constexpr int kWrites = 6;
  constexpr uint64_t kBytes = 16 << 10;  // Above the coalesce threshold: direct.
  auto src = src_dev->AllocateMemRegion(kWrites * kBytes);
  auto dst = dst_dev->AllocateMemRegion(kWrites * kBytes);
  auto src_flag = src_dev->AllocateMemRegion(1);
  auto dst_flags = dst_dev->AllocateMemRegion(kWrites);
  ASSERT_TRUE(src.ok() && dst.ok() && src_flag.ok() && dst_flags.ok());
  for (uint64_t i = 0; i < kWrites * kBytes; ++i) {
    src->data()[i] = static_cast<uint8_t>(i * 23 + 11);
  }
  std::memset(dst->data(), 0, kWrites * kBytes);
  std::memset(dst_flags->data(), 0, kWrites);
  src_flag->data()[0] = 1;

  TransferEngine engine(src_dev.get(), TransferEngineOptions{});
  rdma::QpPool* pool = src_dev->qp_pool();
  for (int i = 0; i < kWrites; ++i) {
    TransferEngine::WriteDesc payload{src->data() + i * kBytes, src->lkey(),
                                      dst->Remote().addr + i * kBytes, dst->rkey(), kBytes,
                                      /*copy_bytes=*/true};
    TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                   dst_flags->Remote().addr + i, dst_flags->rkey(), 1,
                                   /*copy_bytes=*/true};
    bool done = false;
    Status result = Internal("callback never fired");
    TransferEngine::Route route =
        engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, /*lane_hint=*/i,
                             [&](const Status& s) {
                               done = true;
                               result = s;
                             });
    EXPECT_EQ(route, TransferEngine::Route::kDirect);
    ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
    ASSERT_TRUE(result.ok()) << "write " << i << ": " << result;
    // The cap held at every step, RPC QPs included.
    EXPECT_LE(world.rdma.nic(0)->num_queue_pairs(), 3);
    EXPECT_LE(world.rdma.nic(1)->num_queue_pairs(), 3);
  }
  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kWrites * kBytes), 0);
  for (int i = 0; i < kWrites; ++i) EXPECT_EQ(dst_flags->data()[i], 1);
  // Four lanes through two slots: evictions and reconnects actually happened.
  EXPECT_GT(pool->stats().evictions, 0u);
  EXPECT_GT(pool->stats().reconnects, 0u);

  // After a recovery-style reset the engine drops its lane cache and the
  // next write re-acquires from the pool.
  engine.ResetTransientState();
  bool done = false;
  Status result = Internal("callback never fired");
  TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr,
                                    dst->rkey(), kBytes, /*copy_bytes=*/true};
  TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                 dst_flags->Remote().addr, dst_flags->rkey(), 1,
                                 /*copy_bytes=*/true};
  engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, /*lane_hint=*/3,
                       [&](const Status& s) {
                         done = true;
                         result = s;
                       });
  ASSERT_TRUE(world.simulator.RunUntilPredicate([&] { return done; }).ok());
  EXPECT_TRUE(result.ok()) << result;
}

TEST(TransferEngineDeterminismTest, StripedCollectiveTracesAreByteIdentical) {
  auto run_once = [](std::string* json) {
    sim::Tracer tracer;
    sim::Tracer::Install(&tracer);
    sim::Simulator simulator;
    net::CostModel cost;
    cost.rdma_qp_engine_bytes_per_sec = 12e9;  // Makes lane timing observable.
    net::Fabric fabric(&simulator, cost, 4);
    rdma::RdmaFabric rdma(&fabric);
    device::DeviceDirectory directory(&rdma);

    collective::CollectiveOptions options;
    options.engine.stripe_threshold_bytes = 64 << 10;
    const uint64_t count = 1 << 20;  // 4 MiB of floats: chunks stripe.
    auto group =
        collective::CollectiveGroup::Create(&directory, {0, 1, 2, 3}, count, options);
    CHECK(group.ok()) << group.status();
    for (int r = 0; r < 4; ++r) {
      float* data = (*group)->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        data[i] = static_cast<float>((r + 1) * (i % 7 + 1));
      }
    }
    bool fired = false;
    Status status = Internal("done never ran");
    (*group)->AllReduce(count, [&](const Status& s) {
      fired = true;
      status = s;
    });
    CHECK_OK(simulator.Run());
    CHECK(fired);
    CHECK_OK(status);
    for (int r = 0; r < 4; ++r) {
      const float* data = (*group)->data(r);
      for (uint64_t i = 0; i < count; i += 997) {
        CHECK(data[i] == static_cast<float>((i % 7 + 1) * 10))
            << "rank " << r << " i " << i;
      }
    }
    sim::Tracer::Install(nullptr);
    *json = tracer.ToJson();
  };

  std::string first;
  std::string second;
  run_once(&first);
  run_once(&second);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace comm
}  // namespace rdmadl
