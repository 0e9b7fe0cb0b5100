// End-to-end tests of the distributed runtime: executor scheduling, session
// step loop, and all transfer mechanisms in real-memory mode (bytes actually
// cross the simulated wire and numerics must survive).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/check/testing.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

namespace rdmadl {
namespace runtime {
namespace {

using graph::Graph;
using graph::Node;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

std::unique_ptr<Cluster> MakeCluster(int machines) {
  ClusterOptions options;
  options.num_machines = machines;
  options.mode = ops::ComputeMode::kReal;
  options.process_defaults.rdma_arena_bytes = 8ull << 20;
  options.process_defaults.seed = 99;
  return std::make_unique<Cluster>(options);
}

// Builds the canonical PS/worker graph of Figure 3, small enough for real
// math:  ps:0 holds w [4,4]; worker computes g = Identity(MatMul(w, x)) and
// ships it back; ps applies SGD. The Identity exercises the allocation-site
// tracer (the transferred buffer is allocated by MatMul, not by _Send's
// direct predecessor).
struct PsWorkerGraph {
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  Node* w = nullptr;
  Node* apply = nullptr;
};

PsWorkerGraph BuildPsWorkerGraph() {
  ops::RegisterStandardOps();
  PsWorkerGraph g;
  Graph* graph = g.graph.get();
  g.w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
  g.w->SetAttr("shape", TensorShape{4, 4});
  g.w->SetAttr("init", std::string("uniform"));
  g.w->SetAttr("init_scale", 0.5);
  g.w->set_device("ps:0");

  Node* x = *graph->AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{4, 4});
  x->set_device("worker:0");

  Node* h = *graph->AddNode("h", "MatMul", {g.w, x});
  h->set_device("worker:0");
  Node* pass = *graph->AddNode("pass", "Identity", {h});
  pass->set_device("worker:0");

  g.apply = *graph->AddNode("apply", "ApplySgd", {g.w, pass});
  g.apply->SetAttr("learning_rate", 0.25);
  g.apply->set_device("ps:0");
  return g;
}

Tensor Ones(const TensorShape& shape) {
  Tensor t(tensor::CpuAllocator::Get(), DType::kFloat32, shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) t.at<float>(i) = 1.0f;
  return t;
}

// Runs |steps| steps of the PS/worker graph under |mechanism|, returning the
// final weights.
StatusOr<std::vector<float>> RunTraining(Cluster* cluster, TransferMechanism* mechanism,
                                         int steps) {
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster, mechanism, g.graph.get(), SessionOptions{});
  RDMADL_RETURN_IF_ERROR(session.Setup());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});
  for (int i = 0; i < steps; ++i) {
    RDMADL_RETURN_IF_ERROR(session.RunStep(feeds));
  }
  const Tensor& w = cluster->host("ps:0")->resources()->GetVariable("w");
  std::vector<float> out(w.num_elements());
  for (int64_t i = 0; i < w.num_elements(); ++i) out[i] = w.at<float>(i);
  return out;
}

TEST(SessionTest, SingleDeviceGraphRuns) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  ops::RegisterStandardOps();
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{8});
  a->SetAttr("fill_value", 3.0);
  a->set_device("worker:0");
  Node* b = *graph.AddNode("b", "ReduceSum", {a});
  b->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  const Tensor* out = session.executor_for("worker:0")->OutputOf("b");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->at<float>(0), 24.0f);
  EXPECT_GT(session.last_step_duration_ns(), 0);
}

TEST(SessionTest, StepDurationReflectsCostAnnotations) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  a->SetAttr("cost_ns", 5'000'000.0);  // 5 ms of simulated compute.
  a->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GE(session.last_step_duration_ns(), 5'000'000);
  EXPECT_LT(session.last_step_duration_ns(), 6'000'000);
}

TEST(SessionTest, BatchMultiplierScalesCompute) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  a->SetAttr("cost_ns", 1'000'000.0);
  a->set_device("worker:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  SessionOptions options;
  options.executor.batch_multiplier = 4.0;
  DistributedSession session(cluster.get(), &mech, &graph, options);
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GE(session.last_step_duration_ns(), 4'000'000);
}

TEST(SessionTest, ComputeSerializesOnDevice) {
  // Cost-annotated ops model GPU kernels: they run one at a time on the
  // host's single device, even with idle executor workers to dispatch them.
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  for (int i = 0; i < 4; ++i) {
    Node* n = *graph.AddNode(StrCat("c", i), "Const", std::vector<Node*>{});
    n->SetAttr("shape", TensorShape{1});
    n->SetAttr("cost_ns", 1'000'000.0);
    n->set_device("worker:0");
  }
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_GE(session.last_step_duration_ns(), 4'000'000);  // Serial on the device.
}

TEST(SessionTest, MissingPlacementFailsSetup) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->AddProcess("worker:0", 0).ok());
  Graph graph;
  Node* a = *graph.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{1});
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  EXPECT_FALSE(session.Setup().ok());
}

class MechanismEquivalenceTest : public ::testing::Test {};

TEST_F(MechanismEquivalenceTest, AllMechanismsProduceIdenticalTraining) {
  // The acid test: four transport stacks, byte-identical results. Any copy,
  // flag, ordering, or rendezvous bug shows up as weight divergence.
  std::vector<std::vector<float>> results;
  std::vector<std::string> names;

  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
    EXPECT_GT(mech.stats().static_transfers, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions opts;
    opts.graph_analysis = false;  // RDMA.cp
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), opts);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
    EXPECT_GT(mech.stats().staged_sends, 0);
    EXPECT_EQ(mech.stats().zero_copy_sends, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions opts;
    opts.force_dynamic = true;  // §3.3 protocol on static shapes.
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), opts);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back("RDMA.zerocp-dynamic");
    EXPECT_GT(mech.stats().dynamic_transfers, 0);
    EXPECT_EQ(mech.stats().static_transfers, 0);
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism mech(cluster.get(), net::Plane::kTcp);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
  }
  {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism mech(cluster.get(), net::Plane::kRdma);
    auto r = RunTraining(cluster.get(), &mech, 5);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
    names.push_back(mech.name());
  }

  // Training must have moved the weights at all.
  bool moved = false;
  for (float v : results[0]) {
    if (std::abs(v) > 1e-6) moved = true;
  }
  EXPECT_TRUE(moved);

  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    for (size_t j = 0; j < results[0].size(); ++j) {
      EXPECT_EQ(results[i][j], results[0][j])
          << names[i] << " diverged from " << names[0] << " at weight " << j;
    }
  }
}

TEST_F(MechanismEquivalenceTest, ZeroCopyIsFasterThanBaselines) {
  // Figure 8/9 shape at miniature scale: zerocp < cp < gRPC.RDMA < gRPC.TCP
  // in per-step time. Use a larger weight so transfer time dominates.
  auto build = [](Cluster* cluster) {
    ops::RegisterStandardOps();
    auto graph = std::make_unique<Graph>();
    Node* w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
    w->SetAttr("shape", TensorShape{512, 512});  // 1 MB
    w->SetAttr("init", std::string("zeros"));
    w->set_device("ps:0");
    Node* g = *graph->AddNode("g", "Identity", {w});
    g->set_device("worker:0");
    Node* apply = *graph->AddNode("apply", "ApplySgd", {w, g});
    apply->SetAttr("learning_rate", 0.0);
    apply->set_device("ps:0");
    return graph;
  };
  auto time_with = [&](TransferMechanism* mech, Cluster* cluster) -> int64_t {
    auto graph = build(cluster);
    DistributedSession session(cluster, mech, graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    CHECK_OK(session.RunStep());  // Warm-up (tracing step for zerocp).
    CHECK_OK(session.RunStep());
    return session.last_step_duration_ns();
  };

  int64_t t_zerocp, t_cp, t_rpc_rdma, t_rpc_tcp;
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyRdmaMechanism m(c.get(), comm::ZeroCopyOptions{});
    t_zerocp = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions o;
    o.graph_analysis = false;
    comm::ZeroCopyRdmaMechanism m(c.get(), o);
    t_cp = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism m(c.get(), net::Plane::kRdma);
    t_rpc_rdma = time_with(&m, c.get());
  }
  {
    auto c = MakeCluster(2);
    ASSERT_TRUE(c->AddProcess("ps:0", 0).ok() && c->AddProcess("worker:0", 1).ok());
    comm::RpcMechanism m(c.get(), net::Plane::kTcp);
    t_rpc_tcp = time_with(&m, c.get());
  }
  EXPECT_LT(t_zerocp, t_cp);
  EXPECT_LT(t_cp, t_rpc_rdma);
  EXPECT_LT(t_rpc_rdma, t_rpc_tcp);
}

TEST(ZeroCopyAnalysisTest, TracerPromotesAllocationSiteAfterFirstStep) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});

  // Step 0: the worker's gradient buffer (allocated by MatMul, hidden behind
  // Identity) is not yet known to be hot -> staged copy. The PS's weight is a
  // static producer -> zero-copy from the start.
  ASSERT_TRUE(session.RunStep(feeds).ok());
  EXPECT_EQ(mech.stats().staged_sends, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 1);

  // Step 1+: the tracer promoted MatMul's allocation site into set S; the
  // gradient is now allocated in the RDMA arena -> both directions zero-copy.
  ASSERT_TRUE(session.RunStep(feeds).ok());
  EXPECT_EQ(mech.stats().staged_sends, 1);
  EXPECT_EQ(mech.stats().zero_copy_sends, 3);
}

TEST(ZeroCopyAnalysisTest, TracerRecordsOnlyTheFirstStep) {
  for (bool graph_analysis : {true, false}) {
    auto cluster = MakeCluster(2);
    ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
    ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
    comm::ZeroCopyOptions options;
    options.graph_analysis = graph_analysis;
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), options);
    PsWorkerGraph g = BuildPsWorkerGraph();
    DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
    ASSERT_TRUE(session.Setup().ok());
    std::unordered_map<std::string, Tensor> feeds;
    feeds["x"] = Ones(TensorShape{4, 4});
    HostRuntime* worker = cluster->host("worker:0");

    ASSERT_TRUE(session.RunStep(feeds).ok());
    const size_t traced = mech.traced_addresses(worker);
    // RDMA.cp never traces; RDMA.zerocp traces MatMul's step-0 buffer.
    EXPECT_EQ(traced > 0, graph_analysis);
    // From step 1 MatMul allocates from the RDMA arena, at an address the
    // trace has never seen: recording it would grow the map.
    ASSERT_TRUE(session.RunStep(feeds).ok());
    ASSERT_TRUE(session.RunStep(feeds).ok());
    EXPECT_EQ(mech.traced_addresses(worker), traced);
  }
}

TEST(ZeroCopyAnalysisTest, DynamicShapeUsesDynamicProtocol) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  ops::RegisterStandardOps();
  Graph graph;
  // x has an unknown batch dimension -> h's shape is dynamic -> §3.3 path.
  Node* x = *graph.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{tensor::kUnknownDim, 4});
  x->set_device("worker:0");
  Node* w = *graph.AddNode("w", "Const", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{4, 2});
  w->SetAttr("fill_value", 1.0);
  w->set_device("worker:0");
  Node* h = *graph.AddNode("h", "MatMul", {x, w});
  h->set_device("worker:0");
  Node* sum = *graph.AddNode("sum", "ReduceSum", {h});
  sum->set_device("ps:0");

  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(cluster.get(), &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());

  // Vary the batch size across steps, as an RNN with variable-length
  // sequences would (§3.3's motivation).
  for (int batch : {2, 5, 3}) {
    std::unordered_map<std::string, Tensor> feeds;
    feeds["x"] = Ones(TensorShape{batch, 4});
    ASSERT_TRUE(session.RunStep(feeds).ok());
    const Tensor* out = session.executor_for("ps:0")->OutputOf("sum");
    ASSERT_NE(out, nullptr);
    // sum(ones[batch,4] x ones[4,2]) = batch * 2 * 4.
    EXPECT_EQ(out->at<float>(0), static_cast<float>(batch * 8));
  }
  EXPECT_EQ(mech.stats().dynamic_transfers, 3);
  EXPECT_EQ(mech.stats().static_transfers, 0);
}

TEST(RpcMechanismTest, RdmaVariantCrashesAboveOneGigabyte) {
  // Reproduces TF r1.2's documented gRPC.RDMA failure (missing Figure 8
  // point) without allocating a real gigabyte: shrink the limit.
  ClusterOptions options;
  options.num_machines = 2;
  options.mode = ops::ComputeMode::kReal;
  options.cost.rpc_rdma_max_message_bytes = 1024;  // Scaled-down limit.
  options.process_defaults.rdma_arena_bytes = 8ull << 20;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster.AddProcess("worker:0", 1).ok());

  ops::RegisterStandardOps();
  Graph graph;
  Node* w = *graph.AddNode("w", "Const", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{1024});  // 4 KB > the shrunken limit.
  w->set_device("worker:0");
  Node* sum = *graph.AddNode("sum", "ReduceSum", {w});
  sum->set_device("ps:0");

  comm::RpcMechanism mech(&cluster, net::Plane::kRdma);
  DistributedSession session(&cluster, &mech, &graph, SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  Status status = session.RunStep();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1 GB"), std::string::npos);
}

TEST(ExecutorStatsTest, PollingAsyncRecvPollsMoreThanOnce) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(cluster->AddProcess("ps:0", 0).ok());
  ASSERT_TRUE(cluster->AddProcess("worker:0", 1).ok());
  comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
  PsWorkerGraph g = BuildPsWorkerGraph();
  DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  std::unordered_map<std::string, Tensor> feeds;
  feeds["x"] = Ones(TensorShape{4, 4});
  ASSERT_TRUE(session.RunStep(feeds).ok());
  const ExecutorStats& stats = session.executor_for("worker:0")->stats();
  // The weight tensor takes ~microseconds to arrive; the polling-async recv
  // must have re-polled (failed polls re-enqueue at the queue tail, §4).
  EXPECT_GT(stats.poll_attempts, 1);
  EXPECT_GT(stats.failed_polls, 0);
}

// Picks the canonical order and never perturbs: every poll tick is an event
// and every idle kick runs its pass, so nothing is replayed.
class PassThroughPolicy : public sim::SchedulePolicy {
 public:
  uint32_t PickTied(const std::vector<uint64_t>& /*seqs*/) override { return 0; }
};

// A 2-machine zero-copy session with latency spikes and a worker compute
// long enough for the PS's idle kick to reach its backoff cap, where its
// misses repeat and the simulator replays them. Replayed or ticked, the run
// is the same.
TEST(ExecutorStatsTest, ReplayedIdleKicksMatchTickedOnes) {
  struct Run {
    std::vector<int64_t> step_end_ns;
    std::vector<float> weights;
    std::vector<int64_t> stats;  // Per executor: steps, nodes, polls, failed polls.
    bool operator==(const Run&) const = default;
  };
  auto run = [](bool policy) {
    auto cluster = MakeCluster(2);
    CHECK_OK(cluster->AddProcess("ps:0", 0).status());
    CHECK_OK(cluster->AddProcess("worker:0", 1).status());
    sim::FaultInjector injector(/*seed=*/7);
    sim::LinkFaultSpec spikes;
    spikes.spike_probability = 0.3;
    spikes.spike_min_ns = 1'000;
    spikes.spike_max_ns = 20'000;
    injector.SetDefaultLinkFault(spikes);
    cluster->fabric()->SetFaultInjector(&injector);
    PassThroughPolicy pass_through;
    if (policy) cluster->simulator()->set_schedule_policy(&pass_through);
    comm::ZeroCopyRdmaMechanism mech(cluster.get(), comm::ZeroCopyOptions{});
    PsWorkerGraph g = BuildPsWorkerGraph();
    g.graph->FindNode("h")->SetAttr("cost_ns", 200'000.0);
    DistributedSession session(cluster.get(), &mech, g.graph.get(), SessionOptions{});
    CHECK_OK(session.Setup());
    std::unordered_map<std::string, Tensor> feeds;
    feeds["x"] = Ones(TensorShape{4, 4});
    Run r;
    for (int i = 0; i < 5; ++i) {
      CHECK_OK(session.RunStep(feeds));
      r.step_end_ns.push_back(cluster->simulator()->Now());
    }
    const Tensor& w = cluster->host("ps:0")->resources()->GetVariable("w");
    for (int64_t i = 0; i < w.num_elements(); ++i) r.weights.push_back(w.at<float>(i));
    for (const char* device : {"ps:0", "worker:0"}) {
      const ExecutorStats& st = session.executor_for(device)->stats();
      r.stats.insert(r.stats.end(),
                     {st.steps, st.nodes_executed, st.poll_attempts, st.failed_polls});
    }
    cluster->simulator()->set_schedule_policy(nullptr);
    return r;
  };
  const Run replayed = run(false);
  const Run ticked = run(true);
  EXPECT_EQ(replayed.step_end_ns, ticked.step_end_ns);
  EXPECT_EQ(replayed.weights, ticked.weights);
  EXPECT_EQ(replayed.stats, ticked.stats);
  // The PS waited out the worker's compute at the backoff cap, polling once
  // per kick: many more polls than the 12 kicks a 200 us wait needs below it.
  EXPECT_GT(replayed.stats[2], 5 * 12);
}

}  // namespace
}  // namespace runtime
}  // namespace rdmadl
