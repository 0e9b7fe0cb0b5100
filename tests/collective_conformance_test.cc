// Collective conformance suite (ISSUE 7): every all-reduce schedule — flat
// ring, topology-aware hierarchical, in-network switch reduction, naive
// gather — must produce byte-for-byte the result of a scalar reference
// reduction, across topology shapes (flat, even racks, uneven fills, odd
// host counts, single-rack degenerate) and tensor sizes (including counts
// not aligned to chunks, lanes, or aggregation windows). Same-seed runs must
// also be byte-identical end to end: the suite compares full Chrome-trace
// captures and completion times across repeated runs.
//
// `ctest -L conformance` runs this binary plain and with RDMADL_CHECK=1
// (the protocol checker installed per test); any checker diagnostic fails
// the run via the listener below.
#include "src/collective/collective.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/explore.h"
#include "src/check/testing.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {
namespace {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

// A self-contained simulated cluster over an arbitrary topology.
struct World {
  World(int num_hosts, const net::TopologyConfig& topo)
      : fabric(&simulator, cost, num_hosts, topo), rdma(&fabric), directory(&rdma) {}

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

// Integer-valued inputs so float sums are exact and order-independent:
// rank r element i holds (r + 1) * ((i % 7) + 1).
void FillInputs(CollectiveGroup* group, uint64_t count) {
  for (int r = 0; r < group->size(); ++r) {
    float* data = group->data(r);
    ASSERT_NE(data, nullptr);
    for (uint64_t i = 0; i < group->max_elements(); ++i) {
      data[i] = i < count ? static_cast<float>((r + 1) * (i % 7 + 1)) : -1.0f;
    }
  }
}

// Scalar reference: what a plain serial loop over all ranks computes.
float ReferenceSum(int n, uint64_t i) {
  float sum = 0.0f;
  for (int r = 0; r < n; ++r) sum += static_cast<float>((r + 1) * (i % 7 + 1));
  return sum;
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

struct Shape {
  const char* name;
  int hosts;
  int hosts_per_rack;  // 0 = flat fabric (no topology object).
};

// Topology matrix: flat, even fills, uneven last rack, odd host count with
// odd rack sizes, and the single-rack degenerate (rack larger than the
// group).
const Shape kShapes[] = {
    {"flat", 8, 0},            //
    {"even-4x2", 8, 4},        // Two full racks.
    {"uneven-4/4/2", 10, 4},   // Last rack half full.
    {"odd-3/3/1", 7, 3},       // Odd members per rack, one singleton rack.
    {"single-rack", 5, 8},     // Degenerate: one (partial) rack.
};

net::TopologyConfig MakeTopo(const Shape& shape, bool switch_reduce) {
  net::TopologyConfig config;
  config.hosts_per_rack = shape.hosts_per_rack;
  config.oversubscription = 4.0;
  config.switch_reduce = switch_reduce;
  // Tiny aggregation windows (256 floats) so even small tensors exercise
  // multi-round streaming with a ragged tail.
  config.switch_reduce_window_bytes = 1024;
  return config;
}

void ExpectExact(CollectiveGroup* group, uint64_t count, const std::string& label) {
  for (int r = 0; r < group->size(); ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ReferenceSum(group->size(), i))
          << label << " rank=" << r << " i=" << i;
    }
    if (count < group->max_elements()) {
      ASSERT_EQ(data[count], -1.0f) << label << " rank=" << r << " wrote past count";
    }
  }
}

// The full equivalence matrix: algorithms x topology shapes x tensor sizes.
// 1031 is prime (never divides chunks, lanes, or windows); 3 leaves most
// lanes and ring chunks empty; 4096 is every power-of-two boundary at once;
// 255/257 straddle the 256-float aggregation window.
TEST(CollectiveConformanceTest, AllAlgorithmsMatchScalarReferenceAcrossShapes) {
  const Algorithm algorithms[] = {Algorithm::kRing, Algorithm::kHierarchical,
                                  Algorithm::kInNetwork, Algorithm::kNaiveGather};
  const char* algorithm_names[] = {"ring", "hierarchical", "in-network", "naive"};
  const uint64_t counts[] = {4096, 1031, 257, 255, 3};
  for (const Shape& shape : kShapes) {
    for (size_t a = 0; a < 4; ++a) {
      const Algorithm algorithm = algorithms[a];
      if (algorithm == Algorithm::kInNetwork && shape.hosts_per_rack == 0) {
        continue;  // Requires a switch-reduce stage; covered below.
      }
      for (uint64_t count : counts) {
        World world(shape.hosts, MakeTopo(shape, algorithm == Algorithm::kInNetwork));
        CollectiveOptions options;
        options.algorithm = algorithm;
        auto group = world.MakeGroup(shape.hosts, 4096, options);
        FillInputs(group.get(), count);
        const std::string label =
            StrCat(shape.name, " ", algorithm_names[a], " count=", count);
        ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                      group->AllReduce(count, std::move(done));
                    }).ok())
            << label;
        ExpectExact(group.get(), count, label);
        EXPECT_EQ(group->stats().allreduces, 1) << label;
      }
    }
  }
}

// Congested variant of the topology: tiny queue budgets so even the 4-16KB
// conformance tensors overflow them, PFC-style pauses instead of drops (the
// schedules must finish, just later), and DCQCN reacting to the marks. Data
// integrity must be unaffected: congestion moves bytes in time, never in
// space.
net::TopologyConfig MakeCongestedTopo(const Shape& shape, bool switch_reduce) {
  net::TopologyConfig config = MakeTopo(shape, switch_reduce);
  config.congestion.queue_capacity_bytes = 16 << 10;
  config.congestion.ecn_threshold_bytes = 2 << 10;
  config.congestion.pause_on_overflow = true;
  config.congestion.dcqcn = true;
  return config;
}

// ISSUE 8: the full equivalence matrix again with congestion control live.
// Every algorithm on every topology shape must still match the scalar
// reference bit-for-bit while queues fill, ECN marks flow, and DCQCN
// throttles the lanes. The aggregate mark count proves the run was not
// vacuously uncongested.
TEST(CollectiveConformanceTest, AllAlgorithmsStayExactUnderCongestion) {
  const Algorithm algorithms[] = {Algorithm::kRing, Algorithm::kHierarchical,
                                  Algorithm::kInNetwork, Algorithm::kNaiveGather};
  const char* algorithm_names[] = {"ring", "hierarchical", "in-network", "naive"};
  const uint64_t counts[] = {4096, 1031, 257, 255, 3};
  uint64_t total_marks = 0;
  uint64_t total_drops = 0;
  for (const Shape& shape : kShapes) {
    for (size_t a = 0; a < 4; ++a) {
      const Algorithm algorithm = algorithms[a];
      if (algorithm == Algorithm::kInNetwork && shape.hosts_per_rack == 0) {
        continue;
      }
      for (uint64_t count : counts) {
        World world(shape.hosts,
                    MakeCongestedTopo(shape, algorithm == Algorithm::kInNetwork));
        CollectiveOptions options;
        options.algorithm = algorithm;
        auto group = world.MakeGroup(shape.hosts, 4096, options);
        FillInputs(group.get(), count);
        const std::string label = StrCat("congested ", shape.name, " ",
                                         algorithm_names[a], " count=", count);
        ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                      group->AllReduce(count, std::move(done));
                    }).ok())
            << label;
        ExpectExact(group.get(), count, label);
        total_marks += world.fabric.congestion_totals().ecn_marks;
        total_drops += world.fabric.congestion_totals().overflow_drops;
      }
    }
  }
  EXPECT_GT(total_marks, 0u);   // The queues genuinely filled somewhere.
  EXPECT_EQ(total_drops, 0u);   // Pause mode never drops.
}

// Same-seed determinism holds with congestion control in the loop: pauses,
// marks, and DCQCN rate state are all pure functions of the event order.
TEST(CollectiveConformanceTest, CongestedSameSeedRunsAreByteIdentical) {
  for (Algorithm algorithm : {Algorithm::kRing, Algorithm::kHierarchical,
                              Algorithm::kInNetwork}) {
    std::string first_trace;
    int64_t first_now = -1;
    std::vector<float> first_data;
    for (int run = 0; run < 2; ++run) {
      Shape shape{"uneven-4/4/2", 10, 4};
      World world(shape.hosts,
                  MakeCongestedTopo(shape, algorithm == Algorithm::kInNetwork));
      sim::Tracer tracer;
      sim::Tracer::Install(&tracer);
      CollectiveOptions options;
      options.algorithm = algorithm;
      const uint64_t count = 1031;
      auto group = world.MakeGroup(shape.hosts, count, options);
      FillInputs(group.get(), count);
      ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                    group->AllReduce(count, std::move(done));
                  }).ok());
      sim::Tracer::Install(nullptr);
      std::vector<float> data(group->data(0), group->data(0) + count);
      if (run == 0) {
        first_trace = tracer.ToJson();
        first_now = world.simulator.Now();
        first_data = std::move(data);
      } else {
        EXPECT_EQ(tracer.ToJson(), first_trace);
        EXPECT_EQ(world.simulator.Now(), first_now);
        EXPECT_EQ(data, first_data);
      }
    }
  }
}

// Pipeline depth changes the lane partition but never the result.
TEST(CollectiveConformanceTest, HierarchicalExactAcrossPipelineDepths) {
  for (int depth : {1, 3, 8}) {
    Shape shape{"uneven-4/4/2", 10, 4};
    World world(shape.hosts, MakeTopo(shape, false));
    CollectiveOptions options;
    options.algorithm = Algorithm::kHierarchical;
    options.pipeline_depth = depth;
    const uint64_t count = 997;  // Prime: uneven against every lane count.
    auto group = world.MakeGroup(shape.hosts, count, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok())
        << "depth=" << depth;
    ExpectExact(group.get(), count, StrCat("depth=", depth));
  }
}

// Tiny and boundary counts through both multi-level schedules: a count of 1
// leaves every lane but one empty; W and W+1 straddle the in-network window.
TEST(CollectiveConformanceTest, MultiLevelSchedulesHandleDegenerateCounts) {
  for (uint64_t count : {1ull, 2ull, 256ull, 511ull}) {
    for (Algorithm algorithm : {Algorithm::kHierarchical, Algorithm::kInNetwork}) {
      Shape shape{"odd-3/3/1", 7, 3};
      World world(shape.hosts, MakeTopo(shape, algorithm == Algorithm::kInNetwork));
      CollectiveOptions options;
      options.algorithm = algorithm;
      auto group = world.MakeGroup(shape.hosts, 1024, options);
      FillInputs(group.get(), count);
      ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                    group->AllReduce(count, std::move(done));
                  }).ok())
          << "count=" << count;
      ExpectExact(group.get(), count, StrCat("degenerate count=", count));
    }
  }
}

// Number of trace events in a Chrome-trace capture whose name starts with
// |prefix|.
int SpanCount(const std::string& trace, const std::string& prefix) {
  const std::string needle = "{\"name\":\"" + prefix;
  int count = 0;
  for (size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// Same-seed determinism: two fresh worlds running the identical schedule
// must agree byte-for-byte — results, completion time, and the full
// Chrome-trace capture (every span on every track at every timestamp).
// The capture also pins the schedule-span contract that perfbench's trace
// gate reads: each algorithm emits only its own span families, one per
// (rank, lane, phase) it runs.
TEST(CollectiveConformanceTest, SameSeedRunsAreByteIdentical) {
  struct Families {
    Algorithm algorithm;
    int rs, ag, tree, ring, innet;
  };
  // Ring and tree: one span per (rank, lane, phase), 10 ranks x 4 lanes; the
  // leader ring runs on the 3 rack leaders; in-network emits one span per
  // (lane, aggregation window), 4 lanes x 2 windows.
  for (const Families& expect : {Families{Algorithm::kRing, 40, 40, 0, 0, 0},
                                 Families{Algorithm::kHierarchical, 0, 0, 40, 12, 0},
                                 Families{Algorithm::kInNetwork, 0, 0, 0, 0, 8}}) {
    const Algorithm algorithm = expect.algorithm;
    std::string first_trace;
    int64_t first_now = -1;
    std::vector<float> first_data;
    for (int run = 0; run < 2; ++run) {
      Shape shape{"uneven-4/4/2", 10, 4};
      World world(shape.hosts, MakeTopo(shape, algorithm == Algorithm::kInNetwork));
      sim::Tracer tracer;
      sim::Tracer::Install(&tracer);
      CollectiveOptions options;
      options.algorithm = algorithm;
      const uint64_t count = 1031;
      auto group = world.MakeGroup(shape.hosts, count, options);
      FillInputs(group.get(), count);
      ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                    group->AllReduce(count, std::move(done));
                  }).ok());
      sim::Tracer::Install(nullptr);
      std::vector<float> data(group->data(0), group->data(0) + count);
      if (run == 0) {
        first_trace = tracer.ToJson();
        first_now = world.simulator.Now();
        first_data = std::move(data);
      } else {
        EXPECT_EQ(tracer.ToJson(), first_trace);
        EXPECT_EQ(world.simulator.Now(), first_now);
        EXPECT_EQ(data, first_data);
      }
    }
    const std::string label = AlgorithmName(algorithm);
    EXPECT_EQ(SpanCount(first_trace, "rs l"), expect.rs) << label;
    EXPECT_EQ(SpanCount(first_trace, "ag l"), expect.ag) << label;
    EXPECT_EQ(SpanCount(first_trace, "h-tree l"), expect.tree) << label;
    EXPECT_EQ(SpanCount(first_trace, "h-ring l"), expect.ring) << label;
    EXPECT_EQ(SpanCount(first_trace, "innet l"), expect.innet) << label;
  }
}

// kAuto resolves from topology shape and tensor size: flat fabrics stay on
// the ring, multi-rack fabrics go hierarchical, and small tensors take the
// switch path when the fabric offers one.
TEST(CollectiveConformanceTest, AutoSelectsByTopologyShapeAndTensorSize) {
  {
    World world(8, net::TopologyConfig());  // Flat.
    CollectiveOptions options;
    options.algorithm = Algorithm::kAuto;
    auto group = world.MakeGroup(8, 1024, options);
    EXPECT_EQ(group->algorithm(), Algorithm::kRing);
  }
  {
    Shape shape{"even-4x2", 8, 4};
    World world(shape.hosts, MakeTopo(shape, false));  // No switch stage.
    CollectiveOptions options;
    options.algorithm = Algorithm::kAuto;
    auto group = world.MakeGroup(shape.hosts, 1024, options);
    EXPECT_EQ(group->algorithm(), Algorithm::kHierarchical);
  }
  {
    Shape shape{"even-4x2", 8, 4};
    World world(shape.hosts, MakeTopo(shape, true));  // Small tensor + stage.
    CollectiveOptions options;
    options.algorithm = Algorithm::kAuto;
    auto group = world.MakeGroup(shape.hosts, 1024, options);
    EXPECT_EQ(group->algorithm(), Algorithm::kInNetwork);
  }
  {
    Shape shape{"even-4x2", 8, 4};
    World world(shape.hosts, MakeTopo(shape, true));  // Big tensor + stage.
    CollectiveOptions options;
    options.algorithm = Algorithm::kAuto;
    options.materialize = false;  // 16 MiB per rank: selection-only test.
    auto group = world.MakeGroup(shape.hosts, 4ull << 20, options);
    EXPECT_EQ(group->algorithm(), Algorithm::kHierarchical);
  }
  // The resolved choice still reduces exactly.
  {
    Shape shape{"even-4x2", 8, 4};
    World world(shape.hosts, MakeTopo(shape, true));
    CollectiveOptions options;
    options.algorithm = Algorithm::kAuto;
    const uint64_t count = 1031;
    auto group = world.MakeGroup(shape.hosts, 2048, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    ExpectExact(group.get(), count, "auto resolved");
  }
}

// Asking for the switch path on a fabric without one is a configuration
// error, reported at group creation — not a silent fallback.
TEST(CollectiveConformanceTest, InNetworkWithoutSwitchStageIsRejected) {
  World world(8, net::TopologyConfig());
  CollectiveOptions options;
  options.algorithm = Algorithm::kInNetwork;
  std::vector<int> hosts{0, 1, 2, 3};
  auto group = CollectiveGroup::Create(&world.directory, hosts, 1024, options);
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(group.status().code(), StatusCode::kInvalidArgument);
}

// The hierarchical schedule on one rack degenerates to tree + broadcast with
// no spine traffic; with exactly one member per rack it degenerates to the
// pure leader ring. Both ends of the spectrum must stay exact.
TEST(CollectiveConformanceTest, HierarchicalDegeneratesCleanly) {
  {
    Shape shape{"single-rack", 5, 8};
    World world(shape.hosts, MakeTopo(shape, false));
    CollectiveOptions options;
    options.algorithm = Algorithm::kHierarchical;
    const uint64_t count = 1031;
    auto group = world.MakeGroup(shape.hosts, 2048, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    ExpectExact(group.get(), count, "single rack");
  }
  {
    Shape shape{"one-per-rack", 6, 1};  // Six racks of one: pure leader ring.
    World world(shape.hosts, MakeTopo(shape, false));
    CollectiveOptions options;
    options.algorithm = Algorithm::kHierarchical;
    const uint64_t count = 997;
    auto group = world.MakeGroup(shape.hosts, 2048, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    ExpectExact(group.get(), count, "one per rack");
  }
}

// Back-to-back ops on one group (flag reuse, declared-flag teardown, engine
// lane caps) stay exact and deterministic.
// The op budget is enforced across level handoffs: a multi-level op whose
// timeout expires mid-schedule (tree still feeding the spine ring, or an
// in-network round mid-stream) fails kDeadlineExceeded promptly instead of
// letting later levels keep polling virtual time forever. 1000ns is far
// below either schedule's completion time, so the cut always lands inside
// the op.
TEST(CollectiveConformanceTest, DeadlineCutsMultiLevelOpsTyped) {
  const Algorithm algorithms[] = {Algorithm::kHierarchical, Algorithm::kInNetwork};
  for (Algorithm algorithm : algorithms) {
    World world(8, MakeTopo(kShapes[1], /*switch_reduce=*/true));
    CollectiveOptions options;
    options.algorithm = algorithm;
    options.op_timeout_ns = 1'000;
    auto group = world.MakeGroup(8, 65536, options);
    FillInputs(group.get(), 65536);
    const int64_t start = world.simulator.Now();
    const Status failed = RunOp(&world, [&](DoneCallback done) {
      group->AllReduce(65536, std::move(done));
    });
    ASSERT_FALSE(failed.ok()) << "algorithm=" << static_cast<int>(algorithm);
    EXPECT_EQ(failed.code(), StatusCode::kDeadlineExceeded) << failed;
    // The failure lands at the deadline and nothing reschedules past it by
    // more than the pollers' bounded backoff drain.
    EXPECT_LE(world.simulator.Now(), start + 100 * options.op_timeout_ns);

    // A fresh group on the same fabric recovers: an op with a sane budget is
    // exact. (Release the endpoints before rebinding them.)
    group.reset();
    options.op_timeout_ns = 0;
    group = world.MakeGroup(8, 65536, options);
    FillInputs(group.get(), 1024);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(1024, std::move(done));
                }).ok());
    ExpectExact(group.get(), 1024, "post-deadline recovery");
  }
}

TEST(CollectiveConformanceTest, RepeatedOpsOnOneGroupStayExact) {
  Shape shape{"even-4x2", 8, 4};
  World world(shape.hosts, MakeTopo(shape, false));
  CollectiveOptions options;
  options.algorithm = Algorithm::kHierarchical;
  auto group = world.MakeGroup(shape.hosts, 2048, options);
  for (int iter = 0; iter < 3; ++iter) {
    const uint64_t count = 1031;
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok())
        << "iter=" << iter;
    ExpectExact(group.get(), count, StrCat("iter=", iter));
  }
  EXPECT_EQ(group->stats().allreduces, 3);
}

// Schedule-space exploration harness (ISSUE 9). With RDMADL_EXPLORE=16 (the
// collective_conformance_test_explore ctest entry) the body is replayed
// across tie permutations and timing perturbations, each replay under a
// fresh RdmaCheck. Exactness is asserted inside the body, so every explored
// schedule — not just the canonical one — must reduce to the scalar
// reference.
TEST(ExploreHarnessTest, ExploreFlatRingAllReduceStaysExact) {
  sim::ExploreResult result = check::ExploreForTest(
      "conformance.flat-ring", [](sim::Simulator& simulator) -> Status {
        constexpr uint64_t kCount = 1000;
        net::CostModel cost;
        net::Fabric fabric(&simulator, cost, /*num_hosts=*/3);
        rdma::RdmaFabric rdma(&fabric);
        device::DeviceDirectory directory(&rdma);
        CollectiveOptions options;
        options.pipeline_depth = 2;
        auto group = CollectiveGroup::Create(&directory, {0, 1, 2}, kCount, options);
        if (!group.ok()) return group.status();
        for (int r = 0; r < (*group)->size(); ++r) {
          float* data = (*group)->data(r);
          for (uint64_t i = 0; i < kCount; ++i) {
            data[i] = static_cast<float>((r + 1) * (i % 7 + 1));
          }
        }
        auto done = std::make_shared<bool>(false);
        auto status = std::make_shared<Status>(OkStatus());
        (*group)->AllReduce(kCount, [done, status](const Status& s) {
          *status = s;
          *done = true;
        });
        Status run = simulator.RunUntilPredicate([done] { return *done; });
        if (!run.ok()) return run;
        if (!status->ok()) return *status;
        for (int r = 0; r < (*group)->size(); ++r) {
          const float* data = (*group)->data(r);
          for (uint64_t i = 0; i < kCount; ++i) {
            if (data[i] != ReferenceSum(3, i)) {
              return Internal(StrCat("rank ", r, " element ", i,
                                     " diverged from the scalar reference"));
            }
          }
        }
        return OkStatus();
      });
  EXPECT_FALSE(result.failure_found) << result.Summary();
  EXPECT_GE(result.stats.schedules_run, 1);
}

}  // namespace
}  // namespace collective
}  // namespace rdmadl
