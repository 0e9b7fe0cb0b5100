#include "src/collective/collective.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/testing.h"
#include "src/device/zeroed_bytes.h"
#include "src/net/fabric.h"
#include "src/rdma/verbs.h"

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

namespace rdmadl {
namespace collective {
namespace {

// A self-contained simulated cluster sized for one test.
struct World {
  explicit World(int num_hosts, const net::CostModel& cost_model = {})
      : cost(cost_model), fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}

  std::unique_ptr<CollectiveGroup> MakeGroup(int n, uint64_t max_elements,
                                             CollectiveOptions options = {}) {
    std::vector<int> hosts;
    for (int i = 0; i < n; ++i) hosts.push_back(i);
    auto group = CollectiveGroup::Create(&directory, hosts, max_elements, options);
    CHECK(group.ok()) << group.status();
    return std::move(group).value();
  }

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

// Integer-valued per-rank inputs so float sums are exact: rank r element i
// holds (r + 1) * ((i % 7) + 1).
void FillInputs(CollectiveGroup* group, uint64_t count) {
  for (int r = 0; r < group->size(); ++r) {
    float* data = group->data(r);
    ASSERT_NE(data, nullptr);
    for (uint64_t i = 0; i < group->max_elements(); ++i) {
      data[i] = i < count ? static_cast<float>((r + 1) * (i % 7 + 1)) : -1.0f;
    }
  }
}

float ExpectedSum(int n, uint64_t i) {
  return static_cast<float>((i % 7 + 1) * n * (n + 1) / 2);
}

Status RunOp(World* world, const std::function<void(DoneCallback)>& op) {
  bool fired = false;
  Status status = Internal("done callback never ran");
  op([&](const Status& s) {
    fired = true;
    status = s;
  });
  Status run = world->simulator.Run();
  CHECK_OK(run);
  CHECK(fired);
  return status;
}

TEST(CollectiveTest, RingAllReduceSumsExactlyAcrossGroupSizes) {
  for (int n : {2, 4, 8}) {
    World world(n);
    const uint64_t count = 1024;
    auto group = world.MakeGroup(n, count);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < n; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(n, i)) << "n=" << n << " rank=" << r << " i=" << i;
      }
    }
    EXPECT_EQ(group->stats().allreduces, 1);
    EXPECT_GT(world.simulator.Now(), 0);
  }
}

TEST(CollectiveTest, RingAllReduceHandlesUnevenAndTinyCounts) {
  // Counts that are not divisible by N, smaller than N (empty ring chunks),
  // and not divisible by the lane count all must still sum exactly.
  for (uint64_t count : {1031ull, 10ull, 3ull, 1ull}) {
    World world(4);
    auto group = world.MakeGroup(4, 2048);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok())
        << "count=" << count;
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "count=" << count << " rank=" << r;
      }
      // Elements beyond |count| are untouched.
      EXPECT_EQ(data[count], -1.0f);
    }
  }
}

TEST(CollectiveTest, RingAllReduceAcrossPipelineDepths) {
  for (int depth : {1, 3, 8}) {
    World world(4);
    CollectiveOptions options;
    options.pipeline_depth = depth;
    const uint64_t count = 997;  // Prime: uneven against every lane count.
    auto group = world.MakeGroup(4, count, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "depth=" << depth << " rank=" << r;
      }
    }
  }
}

TEST(CollectiveTest, NaiveGatherAlgorithmSumsExactly) {
  World world(4);
  CollectiveOptions options;
  options.algorithm = Algorithm::kNaiveGather;
  const uint64_t count = 513;
  auto group = world.MakeGroup(4, count, options);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedSum(4, i)) << "rank=" << r << " i=" << i;
    }
  }
}

TEST(CollectiveTest, TcpStagingTransportSumsExactly) {
  World world(4);
  CollectiveOptions options;
  options.transport = Transport::kTcpStaging;
  const uint64_t count = 777;
  auto group = world.MakeGroup(4, count, options);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 4; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedSum(4, i)) << "rank=" << r << " i=" << i;
    }
  }
}

TEST(CollectiveTest, TcpStagingIsSlowerThanZeroCopyRing) {
  const uint64_t count = 1u << 20;  // 4 MB.
  int64_t elapsed[2] = {0, 0};
  const Transport transports[2] = {Transport::kRdmaZeroCopy, Transport::kTcpStaging};
  for (int i = 0; i < 2; ++i) {
    World world(8);
    CollectiveOptions options;
    options.transport = transports[i];
    options.materialize = false;
    auto group = world.MakeGroup(8, count, options);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    elapsed[i] = world.simulator.Now();
  }
  EXPECT_LT(elapsed[0], elapsed[1]);
}

TEST(CollectiveTest, RingBeatsNaiveGatherOnLargeTensors) {
  const uint64_t count = 1u << 20;
  int64_t elapsed[2] = {0, 0};
  const Algorithm algorithms[2] = {Algorithm::kRing, Algorithm::kNaiveGather};
  for (int i = 0; i < 2; ++i) {
    World world(8);
    CollectiveOptions options;
    options.algorithm = algorithms[i];
    options.materialize = false;
    auto group = world.MakeGroup(8, count, options);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    elapsed[i] = world.simulator.Now();
  }
  EXPECT_LT(elapsed[0], elapsed[1]);
}

TEST(CollectiveTest, VirtualModeRunsWithoutMaterializing) {
  World world(8);
  CollectiveOptions options;
  options.materialize = false;
  const uint64_t count = 1u << 22;  // 16 MB per rank, never allocated.
  auto group = world.MakeGroup(8, count, options);
  EXPECT_EQ(group->data(0), nullptr);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  // Ring traffic: every rank sends 2(N-1) chunks of ~count/N elements.
  const uint64_t expected = 2ull * 7 * count * 4;  // Sum over the 8 ranks.
  EXPECT_NEAR(static_cast<double>(group->stats().bytes_sent),
              static_cast<double>(expected), static_cast<double>(expected) / 100);
  EXPECT_GT(world.simulator.Now(), 0);
}

// The page-backed blocks of device::AllocateZeroed in this process: an
// anonymous read-write mapping followed directly by a one-page PROT_NONE
// guard. Keyed by start address; the value is the block's length.
std::map<uintptr_t, uintptr_t> ZeroedBlocks() {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  std::map<uintptr_t, uintptr_t> blocks;
  FILE* maps = std::fopen("/proc/self/maps", "r");
  CHECK(maps != nullptr);
  char line[512];
  uintptr_t rw_start = 0, rw_end = 0;
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    uintptr_t start = 0, end = 0;
    char perms[5] = {};
    uint64_t inode = 0;
    int path = 0;
    if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR " %4s %*s %*s %" SCNu64 " %n", &start, &end,
                    perms, &inode, &path) < 4) {
      continue;
    }
    const bool anonymous = inode == 0 && (line[path] == '\0' || line[path] == '\n');
    if (std::string(perms) == "---p" && start == rw_end && end - start == page) {
      blocks[rw_start] = rw_end - rw_start;
    }
    rw_start = rw_end = 0;
    if (anonymous && std::string(perms) == "rw-p") {
      rw_start = start;
      rw_end = end;
    }
  }
  std::fclose(maps);
  return blocks;
}

// A 64-host all-reduce over virtual payloads maps no page-backed block: its
// payloads and slot areas are virtual, and each connection's RPC buffers are
// one block under a page, which comes from calloc.
TEST(CollectiveTest, VirtualAllReduceMapsNoPageBackedStorage) {
  const std::map<uintptr_t, uintptr_t> before = ZeroedBlocks();
  World world(64);
  CollectiveOptions options;
  options.materialize = false;
  const uint64_t count = 1u << 20;
  auto group = world.MakeGroup(64, count, options);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  auto new_blocks = [&] {
    uint64_t blocks = 0;
    for (const auto& [start, length] : ZeroedBlocks()) blocks += before.count(start) == 0;
    return blocks;
  };
  EXPECT_EQ(new_blocks(), 0u);
  // The scan does see a page-backed block.
  device::ZeroedBytes probe = device::AllocateZeroed(1 << 20);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(new_blocks(), 1u);
}

TEST(CollectiveTest, TrivialAndInvalidOps) {
  World world(4);
  auto group = world.MakeGroup(4, 128);

  // Zero-element op completes immediately.
  EXPECT_TRUE(
      RunOp(&world, [&](DoneCallback done) { group->AllReduce(0, std::move(done)); }).ok());

  // Count above capacity is rejected.
  Status status = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(4096, std::move(done));
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // A second collective while one is in flight is rejected.
  Status second = OkStatus();
  bool first_done = false;
  group->AllReduce(128, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    first_done = true;
  });
  group->AllReduce(128, [&](const Status& s) { second = s; });
  CHECK_OK(world.simulator.Run());
  EXPECT_TRUE(first_done);
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
}

TEST(CollectiveTest, SingleRankGroupIsImmediate) {
  World world(1);
  auto group = world.MakeGroup(1, 64);
  float* data = group->data(0);
  for (int i = 0; i < 64; ++i) data[i] = static_cast<float>(i);
  EXPECT_TRUE(
      RunOp(&world, [&](DoneCallback done) { group->AllReduce(64, std::move(done)); }).ok());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(data[i], static_cast<float>(i));
}

TEST(CollectiveTest, CreateValidatesArguments) {
  World world(4);
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {}, 16).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 1}, 0).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 9}, 16).ok());
  EXPECT_FALSE(CollectiveGroup::Create(&world.directory, {0, 1, 1}, 16).ok());
}

// The flag pollers' idle backoff needs 0 < interval <= max: a zero interval
// never advances virtual time, and a max below the base is not a backoff.
TEST(CollectiveTest, CreateRejectsUnrunnableIdlePollSchedule) {
  net::CostModel cost;
  cost.idle_poll_interval_ns = 3'000;
  cost.idle_poll_max_interval_ns = 1'000;
  World capped_below_base(2, cost);
  EXPECT_EQ(CollectiveGroup::Create(&capped_below_base.directory, {0, 1}, 16).status().code(),
            StatusCode::kInvalidArgument);
  cost.idle_poll_interval_ns = 0;
  World zero_interval(2, cost);
  EXPECT_EQ(CollectiveGroup::Create(&zero_interval.directory, {0, 1}, 16).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectiveTest, BackToBackCollectivesReuseTheGroup) {
  World world(4);
  const uint64_t count = 256;
  auto group = world.MakeGroup(4, count);
  for (int round = 0; round < 3; ++round) {
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    for (int r = 0; r < 4; ++r) {
      const float* data = group->data(r);
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[i], ExpectedSum(4, i)) << "round=" << round;
      }
    }
  }
  EXPECT_EQ(group->stats().allreduces, 3);
  // Address distribution ran exactly once, at the first collective, and only
  // over the ring-successor pairs the schedules write on (one per rank) —
  // not all n*(n-1) pairs.
  EXPECT_EQ(group->stats().setup_rpcs, 4);
}

}  // namespace
}  // namespace collective
}  // namespace rdmadl
