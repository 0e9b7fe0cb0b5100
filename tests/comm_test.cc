// Detailed transfer-mechanism tests: protocol selection, GPU staging vs
// GPUDirect, RPC fragmentation, arena hygiene, and failure modes.
#include <gtest/gtest.h>

#include <memory>

#include "src/check/testing.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

namespace rdmadl {
namespace comm {
namespace {

using graph::Graph;
using graph::Node;
using runtime::Cluster;
using runtime::ClusterOptions;
using runtime::DistributedSession;
using runtime::SessionOptions;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

std::unique_ptr<Cluster> MakeCluster(int machines, ops::ComputeMode mode,
                                     bool workers_on_gpu = false, bool gdr = false) {
  ClusterOptions options;
  options.num_machines = machines;
  options.mode = mode;
  options.process_defaults.rdma_arena_bytes =
      mode == ops::ComputeMode::kReal ? (16ull << 20) : (4ull << 30);
  options.process_defaults.seed = 7;
  options.worker_tensors_on_gpu = workers_on_gpu;
  options.worker_gpudirect = gdr;
  auto cluster = std::make_unique<Cluster>(options);
  CHECK_OK(cluster->AddProcess("ps:0", 0).status());
  for (int m = 1; m < machines; ++m) {
    CHECK_OK(cluster->AddProcess(StrCat("worker:", m - 1), m).status());
  }
  return cluster;
}

// ps:0 variable -> consumer on worker:0; returns the graph.
std::unique_ptr<Graph> WeightConsumerGraph(uint64_t elements) {
  ops::RegisterStandardOps();
  auto graph = std::make_unique<Graph>();
  Node* w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{static_cast<int64_t>(elements)});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  Node* consume = *graph->AddNode("consume", "ReduceSum", {w});
  consume->set_device("worker:0");
  return graph;
}

// worker:0 produces -> ps:0 consumes (gradient direction).
std::unique_ptr<Graph> GradientGraph(uint64_t elements) {
  ops::RegisterStandardOps();
  auto graph = std::make_unique<Graph>();
  Node* g = *graph->AddNode("g", "Const", std::vector<Node*>{});
  g->SetAttr("shape", TensorShape{static_cast<int64_t>(elements)});
  g->SetAttr("fill_value", 0.5);
  g->set_device("worker:0");
  Node* consume = *graph->AddNode("consume", "ReduceSum", {g});
  consume->set_device("ps:0");
  return graph;
}

TEST(ZeroCopyProtocolTest, StaticShapeUsesStaticProtocol) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(1024);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().static_transfers, 1);
  EXPECT_EQ(mech.stats().dynamic_transfers, 0);
}

TEST(ZeroCopyProtocolTest, RealModeBytesArriveIntact) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(4096);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  // Checksum: sum at the consumer must equal the sum of the source variable.
  const Tensor& w = cluster->host("ps:0")->resources()->GetVariable("w");
  double expected = 0;
  for (int64_t i = 0; i < w.num_elements(); ++i) expected += w.at<float>(i);
  const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
  EXPECT_NEAR(out->at<float>(0), expected, 1e-2);
}

TEST(ZeroCopyProtocolTest, StagingBuffersReturnToArenaEachStep) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = GradientGraph(8192);
  ZeroCopyOptions options;
  options.graph_analysis = false;  // Force a staging copy every step.
  ZeroCopyRdmaMechanism mech(cluster.get(), options);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  auto arena = cluster->host("worker:0")->rdma_arena();
  ASSERT_TRUE(arena.ok());
  for (int step = 0; step < 4; ++step) {
    const int64_t before = (*arena)->allocator->stats().bytes_in_use;
    ASSERT_TRUE(session.RunStep().ok());
    // Static staging is freed when its write completes; usage must not grow
    // step over step.
    EXPECT_LE((*arena)->allocator->stats().bytes_in_use, before + 1);
  }
  EXPECT_EQ(mech.stats().staged_sends, 4);
}

TEST(ZeroCopyProtocolTest, ForceDynamicCarriesRealMetadata) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(2048);
  ZeroCopyOptions options;
  options.force_dynamic = true;
  ZeroCopyRdmaMechanism mech(cluster.get(), options);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.RunStep().ok());
  }
  EXPECT_EQ(mech.stats().dynamic_transfers, 3);
  // Dynamic receive allocates fresh storage per step from the RDMA arena and
  // frees it at step end: no monotonic growth.
  auto arena = cluster->host("worker:0")->rdma_arena();
  ASSERT_TRUE(arena.ok());
  EXPECT_LT((*arena)->allocator->stats().bytes_in_use, 64 * 1024);
}

TEST(ZeroCopyProtocolTest, GpuWithoutGdrPaysPcieStaging) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, /*gpu=*/true, /*gdr=*/false);
  auto graph = GradientGraph(1 << 20);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GT(mech.stats().pcie_copies, 0);
  EXPECT_GT(mech.stats().pcie_bytes, 0u);
}

TEST(ZeroCopyProtocolTest, GdrSkipsPcieAndUsesDynamicProtocol) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, /*gpu=*/true, /*gdr=*/true);
  auto graph = GradientGraph(1 << 20);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().pcie_copies, 0);
  // §3.5: GPUDirect edges always use the dynamic protocol.
  EXPECT_EQ(mech.stats().static_transfers, 0);
  EXPECT_EQ(mech.stats().dynamic_transfers, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 1);  // Straight from GPU memory.
}

TEST(ZeroCopyProtocolTest, GdrIsFasterThanStaging) {
  auto time_one = [](bool gdr) {
    auto cluster = MakeCluster(2, ops::ComputeMode::kSimulated, true, gdr);
    auto graph = GradientGraph(16 << 20);
    ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
    DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_LT(time_one(true), time_one(false));
}

TEST(ZeroCopyProtocolTest, ManyWorkersShareOnePs) {
  auto cluster = MakeCluster(4, ops::ComputeMode::kReal);
  ops::RegisterStandardOps();
  Graph graph;
  Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{512});
  w->SetAttr("init", std::string("uniform"));
  w->set_device("ps:0");
  for (int i = 0; i < 3; ++i) {
    Node* consume = *graph.AddNode(StrCat("consume", i), "ReduceSum", {w});
    consume->set_device(StrCat("worker:", i));
  }
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_EQ(session.transfer_edges().size(), 3u);  // One edge per destination.
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().static_transfers, 3);
  // All three workers computed the same checksum.
  const Tensor* out0 = session.executor_for("worker:0")->OutputOf("consume0");
  const Tensor* out1 = session.executor_for("worker:1")->OutputOf("consume1");
  const Tensor* out2 = session.executor_for("worker:2")->OutputOf("consume2");
  EXPECT_EQ(out0->at<float>(0), out1->at<float>(0));
  EXPECT_EQ(out1->at<float>(0), out2->at<float>(0));
}

TEST(ZeroCopyProtocolTest, SetupRegistersFewMemoryRegions) {
  // §3.4: one big registration, not one per tensor. After setup + steps, the
  // NIC should hold only a handful of MRs (arena, meta arena, RPC slabs).
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(65536);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(session.RunStep().ok());
  EXPECT_LE(cluster->host("ps:0")->rdma_device()->nic()->num_registered_regions(), 8);
  EXPECT_LE(cluster->host("worker:0")->rdma_device()->nic()->num_registered_regions(), 8);
}

TEST(ZeroCopyProtocolTest, AddressQueryRejectsMalformedEdgeIds) {
  // The zc_addr request is the edge id as a u32. A short request or an id
  // past the last edge gets an empty response (the caller's error), not an
  // abort, and the edge keeps working.
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = WeightConsumerGraph(1024);
  ZeroCopyRdmaMechanism mech(cluster.get(), ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const runtime::HostRuntime* receiver = cluster->host("worker:0");
  const std::vector<std::vector<uint8_t>> requests = {{1, 0, 0}, {7, 0, 0, 0}};
  int answered = 0;
  for (const std::vector<uint8_t>& request : requests) {
    cluster->host("ps:0")->rdma_device()->Call(
        receiver->endpoint(), "zc_addr", request,
        [&answered](const Status& status, const std::vector<uint8_t>& response) {
          EXPECT_TRUE(status.ok()) << status;
          EXPECT_TRUE(response.empty());
          ++answered;
        });
  }
  ASSERT_TRUE(cluster->simulator()
                  ->RunUntilPredicate([&] { return answered == 2; }, 1'000'000)
                  .ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().static_transfers, 1);
}

TEST(ZeroCopyProtocolTest, FailedSetupReturnsTheFailedEdgesBuffer) {
  // Two MRs per NIC: worker:0's RDMA and meta arenas fill its table, so the
  // edge's channel cannot register its RPC block and Setup fails after the
  // receive buffer was carved. Dropping the failed edge gives it back.
  ClusterOptions options;
  options.num_machines = 2;
  options.process_defaults.rdma_arena_bytes = 16ull << 20;
  options.cost.max_memory_regions = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  auto graph = WeightConsumerGraph(1024);
  {
    ZeroCopyRdmaMechanism mech(&cluster, ZeroCopyOptions{});
    DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
    EXPECT_EQ(session.Setup().code(), StatusCode::kResourceExhausted);
  }
  auto arena = cluster.host("worker:0")->rdma_arena();
  ASSERT_TRUE(arena.ok());
  EXPECT_EQ((*arena)->allocator->stats().bytes_in_use, 0);
}

TEST(RpcMechanismDetailTest, LargeMessagesFragmentOnRingBuffer) {
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.cost.rpc_ring_buffer_bytes = 64 * 1024;  // Small ring for the test.
  options.process_defaults.rdma_arena_bytes = 16ull << 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  auto graph = GradientGraph(1 << 16);  // 256 KB message over a 64 KB ring.
  RpcMechanism mech(&cluster, net::Plane::kTcp);
  DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().messages, 1);
  EXPECT_EQ(mech.stats().fragments, 4);
  // Fragmentation copies on both sides: > one message's worth.
  EXPECT_GT(mech.stats().copied_bytes, uint64_t{1} << 18);
  // Data integrity across fragmentation.
  const Tensor* out = session.executor_for("ps:0")->OutputOf("consume");
  EXPECT_NEAR(out->at<float>(0), 0.5 * (1 << 16), 1.0);
}

TEST(RpcMechanismDetailTest, SmallMessageSingleFragment) {
  auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
  auto graph = GradientGraph(64);
  RpcMechanism mech(cluster.get(), net::Plane::kRdma);
  DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mech.stats().fragments, 1);
}

TEST(RpcMechanismDetailTest, TcpHasNoSizeLimit) {
  // Only the gRPC.RDMA transport crashed on >1 GB; TCP carried them (slowly).
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kSimulated;  // 2 GB tensor: virtual memory.
  options.cost.rpc_rdma_max_message_bytes = 1ull << 30;
  options.process_defaults.rdma_arena_bytes = 16ull << 30;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());
  auto graph = GradientGraph(1ull << 29);  // 2 GB of float32.
  RpcMechanism mech(&cluster, net::Plane::kTcp);
  DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  EXPECT_TRUE(session.RunStep().ok());
}

TEST(MechanismTimingTest, DynamicProtocolSlowerThanStatic) {
  // The §3.3 path pays metadata write + allocation + read round trip.
  auto time_one = [](bool force_dynamic) {
    auto cluster = MakeCluster(2, ops::ComputeMode::kReal);
    auto graph = WeightConsumerGraph(1 << 18);
    ZeroCopyOptions options;
    options.force_dynamic = force_dynamic;
    ZeroCopyRdmaMechanism mech(cluster.get(), options);
    DistributedSession session(cluster.get(), &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_GT(time_one(true), time_one(false));
}

TEST(MechanismTimingTest, LoopbackFasterThanCrossMachine) {
  // Worker and PS on the same machine (the 1-server distributed case of
  // Figure 11) short-cuts through loopback.
  auto time_one = [](int machines) {
    ClusterOptions options;
    options.num_machines = machines;
    options.mode = ops::ComputeMode::kReal;
    options.process_defaults.rdma_arena_bytes = 32ull << 20;
    Cluster cluster(options);
    CHECK_OK(cluster.AddProcess("ps:0", 0).status());
    CHECK_OK(cluster.AddProcess("worker:0", machines - 1).status());
    auto graph = WeightConsumerGraph(1 << 20);
    ZeroCopyRdmaMechanism mech(&cluster, ZeroCopyOptions{});
    DistributedSession session(&cluster, &mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };
  EXPECT_LT(time_one(1), time_one(2));
}

}  // namespace
}  // namespace comm
}  // namespace rdmadl
