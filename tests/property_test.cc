// Parameterized property tests: protocol invariants swept across mechanisms,
// tensor sizes, directions and fabric planes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <tuple>

#include "src/collective/collective.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"
#include "src/sim/fault.h"

namespace rdmadl {
namespace {

using graph::Graph;
using graph::Node;
using runtime::Cluster;
using runtime::ClusterOptions;
using runtime::DistributedSession;
using runtime::SessionOptions;
using tensor::Tensor;
using tensor::TensorShape;

enum class MechKind { kTcp, kRdmaRpc, kCp, kZeroCp, kZeroCpDynamic };

std::string MechName(MechKind kind) {
  switch (kind) {
    case MechKind::kTcp:
      return "grpc_tcp";
    case MechKind::kRdmaRpc:
      return "grpc_rdma";
    case MechKind::kCp:
      return "rdma_cp";
    case MechKind::kZeroCp:
      return "rdma_zerocp";
    case MechKind::kZeroCpDynamic:
      return "rdma_zerocp_dyn";
  }
  return "?";
}

std::unique_ptr<runtime::TransferMechanism> MakeMechanism(MechKind kind, Cluster* cluster) {
  switch (kind) {
    case MechKind::kTcp:
      return std::make_unique<comm::RpcMechanism>(cluster, net::Plane::kTcp);
    case MechKind::kRdmaRpc:
      return std::make_unique<comm::RpcMechanism>(cluster, net::Plane::kRdma);
    case MechKind::kCp: {
      comm::ZeroCopyOptions options;
      options.graph_analysis = false;
      return std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster, options);
    }
    case MechKind::kZeroCp:
      return std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster, comm::ZeroCopyOptions{});
    case MechKind::kZeroCpDynamic: {
      comm::ZeroCopyOptions options;
      options.force_dynamic = true;
      return std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster, options);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Property 1: any mechanism delivers exact bytes, for any size, repeatedly.
// ---------------------------------------------------------------------------

class TransferIntegrityTest
    : public ::testing::TestWithParam<std::tuple<MechKind, int64_t>> {};

TEST_P(TransferIntegrityTest, ChecksumSurvivesThreeSteps) {
  const auto [kind, elements] = GetParam();
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.process_defaults.rdma_arena_bytes = 32ull << 20;
  options.process_defaults.seed = 5 + elements;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  ops::RegisterStandardOps();

  Graph graph;
  Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{elements});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  Node* consume = *graph.AddNode("consume", "ReduceSum", {w});
  consume->set_device("worker:0");

  auto mechanism = MakeMechanism(kind, &cluster);
  DistributedSession session(&cluster, mechanism.get(), &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  for (int step = 0; step < 3; ++step) {
    ASSERT_TRUE(session.RunStep().ok()) << MechName(kind) << " step " << step;
    const Tensor& source = cluster.host("ps:0")->resources()->GetVariable("w");
    double expected = 0;
    for (int64_t i = 0; i < source.num_elements(); ++i) expected += source.at<float>(i);
    const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
    ASSERT_NE(out, nullptr);
    EXPECT_NEAR(out->at<float>(0), expected, std::abs(expected) * 1e-5 + 1e-3)
        << MechName(kind) << " elements=" << elements << " step=" << step;
    // Mutate the source so each step transfers different bytes.
    source.at<float>(0) += 1.0f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanismsAndSizes, TransferIntegrityTest,
    ::testing::Combine(::testing::Values(MechKind::kTcp, MechKind::kRdmaRpc, MechKind::kCp,
                                         MechKind::kZeroCp, MechKind::kZeroCpDynamic),
                       ::testing::Values<int64_t>(1, 63, 1024, 100'000)),
    [](const ::testing::TestParamInfo<std::tuple<MechKind, int64_t>>& info) {
      return MechName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Property 2: fabric transfers conserve bytes and deliver ascending offsets
// for every plane and size.
// ---------------------------------------------------------------------------

class FabricConservationTest
    : public ::testing::TestWithParam<std::tuple<net::Plane, uint64_t>> {};

TEST_P(FabricConservationTest, ChunksSumAndAscend) {
  const auto [plane, bytes] = GetParam();
  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric(&simulator, cost, 2);
  uint64_t delivered = 0;
  uint64_t last_end = 0;
  bool complete = false;
  fabric.Transfer(
      0, 1, bytes, plane, 0,
      [&](uint64_t offset, uint64_t length) {
        EXPECT_EQ(offset, last_end) << "gap or reorder in delivery";
        last_end = offset + length;
        delivered += length;
      },
      [&](Status s) { complete = s.ok(); });
  ASSERT_TRUE(simulator.Run().ok());
  EXPECT_TRUE(complete);
  EXPECT_EQ(delivered, bytes);
}

INSTANTIATE_TEST_SUITE_P(
    PlanesAndSizes, FabricConservationTest,
    ::testing::Combine(::testing::Values(net::Plane::kRdma, net::Plane::kTcp),
                       ::testing::Values<uint64_t>(1, 4095, 4096, 4097, 1 << 20,
                                                   (1 << 24) + 7)),
    [](const ::testing::TestParamInfo<std::tuple<net::Plane, uint64_t>>& info) {
      return std::string(std::get<0>(info.param) == net::Plane::kRdma ? "rdma" : "tcp") +
             "_" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Property 3: the arena allocator never hands out overlapping blocks and
// always restores full capacity, for any allocation-size distribution.
// ---------------------------------------------------------------------------

class ArenaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArenaPropertyTest, NoOverlapAndFullRecovery) {
  const uint64_t max_alloc = GetParam();
  std::vector<uint8_t> storage(4 << 20);
  tensor::ArenaAllocator arena(storage.data(), storage.size(), "prop");
  sim::Rng rng(max_alloc);
  struct Block {
    uint8_t* ptr;
    size_t size;
  };
  std::vector<Block> live;
  for (int round = 0; round < 3000; ++round) {
    if (live.empty() || rng.UniformDouble() < 0.55) {
      const size_t size = 1 + rng.Uniform(max_alloc);
      auto* p = static_cast<uint8_t*>(arena.Allocate(size));
      if (p == nullptr) continue;
      // Overlap check against all live blocks.
      for (const Block& b : live) {
        const bool disjoint = p + size <= b.ptr || b.ptr + b.size <= p;
        ASSERT_TRUE(disjoint) << "overlapping allocation";
      }
      live.push_back({p, size});
    } else {
      const size_t idx = rng.Uniform(live.size());
      arena.Deallocate(live[idx].ptr);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (const Block& b : live) arena.Deallocate(b.ptr);
  EXPECT_EQ(arena.largest_free_block(), storage.size());
  EXPECT_EQ(arena.stats().bytes_in_use, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArenaPropertyTest,
                         ::testing::Values<uint64_t>(64, 4096, 65536, 500'000));

// ---------------------------------------------------------------------------
// Property 4: virtual time is deterministic — identical runs give identical
// step durations, for every mechanism.
// ---------------------------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<MechKind> {};

TEST_P(DeterminismTest, TwoRunsIdenticalTiming) {
  auto run_once = [&]() {
    ClusterOptions options;
    options.num_machines = 2;
    options.mode = ops::ComputeMode::kReal;
    options.process_defaults.rdma_arena_bytes = 16ull << 20;
    Cluster cluster(options);
    CHECK_OK(cluster.AddProcess("ps:0", 0).status());
    CHECK_OK(cluster.AddProcess("worker:0", 1).status());
    ops::RegisterStandardOps();
    Graph graph;
    Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
    w->SetAttr("shape", TensorShape{50'000});
    w->set_device("ps:0");
    Node* consume = *graph.AddNode("consume", "ReduceMax", {w});
    consume->set_device("worker:0");
    auto mechanism = MakeMechanism(GetParam(), &cluster);
    DistributedSession session(&cluster, mechanism.get(), &graph, SessionOptions{});
    CHECK_OK(session.Setup());
    std::vector<int64_t> durations;
    for (int i = 0; i < 3; ++i) {
      CHECK_OK(session.RunStep());
      durations.push_back(session.last_step_duration_ns());
    }
    return durations;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, DeterminismTest,
                         ::testing::Values(MechKind::kTcp, MechKind::kRdmaRpc, MechKind::kCp,
                                           MechKind::kZeroCp, MechKind::kZeroCpDynamic),
                         [](const ::testing::TestParamInfo<MechKind>& info) {
                           return MechName(info.param);
                         });

// ---------------------------------------------------------------------------
// Property 5: for any fault schedule that eventually heals, a ring all-reduce
// retried over recovered channels produces the exact reduced tensor. The
// schedule is generated from the parameter seed: random per-link drop
// probabilities and forced-drop bursts plus a random flapping port, all of
// which are finite — forced drops are consumed, flap windows end, and the
// probabilistic drops are kept low enough that the bounded retry loop always
// reaches a clean pass.
// ---------------------------------------------------------------------------

class HealingFaultAllReduceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HealingFaultAllReduceTest, RetriedAllReduceConvergesToExactSums) {
  // scripts/check.sh --sweep sets RDMADL_FAULT_SEED; fold it into the
  // parameter seed so every sweep iteration exercises fresh schedules.
  uint64_t seed = GetParam();
  if (const char* env = std::getenv("RDMADL_FAULT_SEED")) {
    seed = seed * 7919 + std::strtoull(env, nullptr, 10);
  }
  const int n = 4;
  const uint64_t count = 768;

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric(&simulator, cost, n);
  rdma::RdmaFabric rdma(&fabric);
  device::DeviceDirectory directory(&rdma);

  // Derive a fault schedule from the seed. Every component heals: forced
  // drops are a finite burst, flap cycles end, and background drop
  // probability is small.
  sim::Rng schedule_rng(seed);
  sim::FaultInjector injector(seed);
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      sim::LinkFaultSpec spec;
      spec.drop_probability = 0.005 * schedule_rng.UniformDouble();
      spec.drop_first_n = static_cast<int>(schedule_rng.Uniform(3));
      spec.spike_probability = 0.25 * schedule_rng.UniformDouble();
      spec.spike_min_ns = 5'000;
      spec.spike_max_ns = 5'000 + static_cast<int64_t>(schedule_rng.Uniform(100'000));
      injector.SetLinkFault(src, dst, spec);
    }
  }
  injector.FlapLink(static_cast<int>(schedule_rng.Uniform(n)),
                    /*first_down_ns=*/10'000 + static_cast<int64_t>(schedule_rng.Uniform(50'000)),
                    /*down_ns=*/100'000, /*up_ns=*/80'000, /*cycles=*/2);
  fabric.SetFaultInjector(&injector);

  collective::CollectiveOptions options;
  options.op_timeout_ns = 2'000'000'000;
  std::vector<int> hosts;
  for (int i = 0; i < n; ++i) hosts.push_back(i);
  auto created = collective::CollectiveGroup::Create(&directory, hosts, count, options);
  ASSERT_TRUE(created.ok()) << created.status();
  auto group = std::move(created).value();

  bool succeeded = false;
  for (int attempt = 0; attempt < 6 && !succeeded; ++attempt) {
    // The ring reduces in place: re-seed every rank's vector per attempt.
    for (int r = 0; r < n; ++r) {
      float* data = group->data(r);
      ASSERT_NE(data, nullptr);
      for (uint64_t i = 0; i < count; ++i) {
        data[i] = static_cast<float>((r + 1) * (i % 5 + 1));
      }
    }
    bool fired = false;
    Status status = Internal("done callback never ran");
    group->AllReduce(count, [&](const Status& s) {
      fired = true;
      status = s;
    });
    ASSERT_TRUE(simulator.Run().ok());
    ASSERT_TRUE(fired);
    if (status.ok()) {
      for (int r = 0; r < n; ++r) {
        const float* data = group->data(r);
        for (uint64_t i = 0; i < count; ++i) {
          const float expected = static_cast<float>((i % 5 + 1) * n * (n + 1) / 2);
          ASSERT_EQ(data[i], expected)
              << "seed=" << seed << " attempt=" << attempt << " rank=" << r << " i=" << i;
        }
      }
      succeeded = true;
    } else {
      // Typed transport failure, then recover the channels and go again.
      EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||
                  status.code() == StatusCode::kAborted ||
                  status.code() == StatusCode::kDeadlineExceeded)
          << "seed=" << seed << ": " << status;
      ASSERT_TRUE(group->ResetTransport().ok());
    }
  }
  EXPECT_TRUE(succeeded) << "seed=" << seed << " never converged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealingFaultAllReduceTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 17, 42));

}  // namespace
}  // namespace rdmadl
