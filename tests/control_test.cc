// Unit + property tests for the elastic-recovery control plane (ISSUE 3):
//
//   * MembershipService confirms a fail-stop crash within its advertised
//     detection bound, and — the property test — latency spikes kept under
//     the lease timeout never cause even a suspicion, across a seed sweep;
//   * CheckpointManager round-trips variable bytes (snapshot -> clobber ->
//     restore) and retargets shards to a different device;
//   * CollectiveGroup::Reconfigure shrinks the ring and the next all-reduce
//     computes exact sums among the survivors;
//   * the zero-copy mechanism's per-edge degradation ladder demotes an edge
//     after repeated zero-copy failures, serves it over the staged RPC path,
//     and re-promotes after a clean probation span.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/collective/collective.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/control/checkpoint.h"
#include "src/control/membership.h"
#include "src/ops/kernel.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"

namespace rdmadl {
namespace {

using collective::CollectiveGroup;
using collective::CollectiveOptions;
using collective::DoneCallback;
using control::CheckpointManager;
using control::CheckpointOptions;
using control::MembershipOptions;
using control::MembershipService;
using control::MemberState;
using graph::Node;
using runtime::Cluster;
using runtime::ClusterOptions;
using runtime::DistributedSession;
using runtime::SessionOptions;
using sim::FaultInjector;
using sim::LinkFaultSpec;
using tensor::Tensor;
using tensor::TensorShape;

uint64_t FaultSeedFromEnv(uint64_t default_seed) {
  const char* env = std::getenv("RDMADL_FAULT_SEED");
  if (env == nullptr || *env == '\0') return default_seed;
  return std::strtoull(env, nullptr, 10);
}

// Bare fabric world (no HostRuntimes) for membership + collective tests.
struct World {
  explicit World(int num_hosts)
      : fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

std::unique_ptr<MembershipService> MakeMembership(World* world, int n,
                                                  MembershipOptions options = {}) {
  std::vector<int> hosts;
  for (int i = 0; i < n; ++i) hosts.push_back(i);
  auto service = MembershipService::Create(&world->directory, hosts, options);
  CHECK(service.ok()) << service.status();
  return std::move(service).value();
}

// ---------------------------------------------------------------------------
// Detection: a fail-stop crash is confirmed within the advertised bound, and
// nobody else is even suspected.
// ---------------------------------------------------------------------------

TEST(MembershipTest, CrashConfirmedWithinDetectionBound) {
  const int n = 4;
  World world(n);
  FaultInjector injector(FaultSeedFromEnv(21));
  const int64_t t_crash = sim::Milliseconds(2);
  injector.CrashHost(2, t_crash);
  world.fabric.SetFaultInjector(&injector);

  auto membership = MakeMembership(&world, n);
  membership->Start();

  const int64_t deadline = t_crash + membership->detection_bound_ns();
  Status wait = world.simulator.RunUntilPredicateOrDeadline(
      [&] { return membership->any_dead(); }, deadline);
  ASSERT_TRUE(wait.ok() || wait.code() == StatusCode::kDeadlineExceeded) << wait;

  ASSERT_TRUE(membership->any_dead())
      << "crash not confirmed within the detection bound";
  EXPECT_EQ(membership->state(2), MemberState::kDead);
  EXPECT_EQ(membership->dead_hosts(), std::vector<int>{2});
  const int64_t confirmed = membership->confirmed_dead_at_ns(2);
  EXPECT_GE(confirmed, t_crash);
  EXPECT_LE(confirmed - t_crash, membership->detection_bound_ns());
  // The survivors stay clean.
  EXPECT_EQ(membership->alive_hosts(), (std::vector<int>{0, 1, 3}));
  for (int h : {0, 1, 3}) EXPECT_EQ(membership->state(h), MemberState::kAlive);
  EXPECT_EQ(membership->stats().deaths_confirmed, 1);
}

// ---------------------------------------------------------------------------
// Pause/Resume: a paused detector lets the simulator drain, and detection
// still works after resuming.
// ---------------------------------------------------------------------------

TEST(MembershipTest, PauseDrainsResumeStillDetects) {
  const int n = 3;
  World world(n);
  FaultInjector injector(FaultSeedFromEnv(22));
  world.fabric.SetFaultInjector(&injector);

  auto membership = MakeMembership(&world, n);
  membership->Start();
  ASSERT_TRUE(world.simulator
                  .RunUntil(world.simulator.Now() + sim::Milliseconds(1))
                  .ok());

  membership->Pause();
  // With the probe loop frozen, a full drain terminates.
  ASSERT_TRUE(world.simulator.Run().ok());
  EXPECT_FALSE(membership->any_dead());

  injector.CrashHost(1, world.simulator.Now() + sim::Microseconds(50));
  membership->Resume();
  const int64_t deadline =
      world.simulator.Now() + sim::Microseconds(50) + membership->detection_bound_ns();
  Status wait = world.simulator.RunUntilPredicateOrDeadline(
      [&] { return membership->any_dead(); }, deadline);
  ASSERT_TRUE(wait.ok() || wait.code() == StatusCode::kDeadlineExceeded) << wait;
  EXPECT_EQ(membership->state(1), MemberState::kDead);
}

// ---------------------------------------------------------------------------
// Property (seed sweep): latency spikes strictly below the lease timeout
// never produce a false positive — not even a suspicion.
// ---------------------------------------------------------------------------

TEST(MembershipPropertyTest, SpikesUnderLeaseTimeoutNeverCauseFalsePositives) {
  const uint64_t base_seed = FaultSeedFromEnv(23);
  for (uint64_t s = 0; s < 5; ++s) {
    const uint64_t seed = base_seed * 100 + s;
    World world(4);
    FaultInjector injector(seed);
    LinkFaultSpec spec;
    // Every message spikes, but the worst-case round trip stays well under
    // the 100 us lease: two frames x 30 us extra each leaves headroom for
    // the transfer itself.
    spec.spike_probability = 1.0;
    spec.spike_min_ns = sim::Microseconds(5);
    spec.spike_max_ns = sim::Microseconds(30);
    injector.SetDefaultLinkFault(spec);
    world.fabric.SetFaultInjector(&injector);

    auto membership = MakeMembership(&world, 4);
    membership->Start();
    ASSERT_TRUE(world.simulator
                    .RunUntil(world.simulator.Now() + sim::Milliseconds(20))
                    .ok());

    EXPECT_EQ(membership->stats().suspicions, 0)
        << "seed=" << seed << ": spiky-but-alive member suspected";
    EXPECT_FALSE(membership->any_dead()) << "seed=" << seed;
    EXPECT_GT(membership->stats().pongs_received, 0) << "seed=" << seed;
    membership->Pause();
    ASSERT_TRUE(world.simulator.Run().ok());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint: snapshot -> clobber -> restore round-trips real bytes, and a
// shard can be retargeted to a surviving device.
// ---------------------------------------------------------------------------

struct CheckpointWorld {
  CheckpointWorld() {
    ClusterOptions options;
    options.num_machines = 2;
    options.mode = ops::ComputeMode::kReal;
    options.process_defaults.rdma_arena_bytes = 8ull << 20;
    cluster = std::make_unique<Cluster>(options);
    CHECK_OK(cluster->AddProcess("ps:0", 0).status());
    CHECK_OK(cluster->AddProcess("ps:1", 1).status());
    ops::RegisterStandardOps();
  }

  Tensor MakeVariable(const std::string& device, const std::string& name, int64_t n,
                      float fill) {
    runtime::HostRuntime* host = cluster->host(device);
    Tensor t(host->default_allocator(), tensor::DType::kFloat32, TensorShape{n});
    for (int64_t i = 0; i < n; ++i) t.at<float>(i) = fill + i;
    Tensor copy = t.Clone(host->default_allocator());
    host->resources()->PutVariable(name, std::move(t));
    return copy;
  }

  std::unique_ptr<Cluster> cluster;
};

TEST(CheckpointTest, SnapshotRestoreRoundTripsBytes) {
  CheckpointWorld world;
  Tensor golden_a = world.MakeVariable("ps:0", "var_a", 256, 1.0f);
  Tensor golden_b = world.MakeVariable("ps:1", "var_b", 128, 100.0f);

  CheckpointManager checkpoint(world.cluster.get(), CheckpointOptions{});
  ASSERT_TRUE(checkpoint.Snapshot(/*step=*/3, /*samples=*/96).ok());
  EXPECT_TRUE(checkpoint.has_checkpoint());
  EXPECT_EQ(checkpoint.step(), 3);
  EXPECT_EQ(checkpoint.stats().variables_captured, 2);
  EXPECT_EQ(checkpoint.stats().last_snapshot_bytes, (256 + 128) * sizeof(float));

  // Clobber both variables, then roll back.
  for (const char* dev : {"ps:0", "ps:1"}) {
    auto* rm = world.cluster->host(dev)->resources();
    for (const auto& [name, var] : rm->variables()) {
      for (int64_t i = 0; i < var.num_elements(); ++i) var.at<float>(i) = -7.0f;
    }
  }
  ASSERT_TRUE(checkpoint.Restore().ok());

  const Tensor& a = world.cluster->host("ps:0")->resources()->GetVariable("var_a");
  const Tensor& b = world.cluster->host("ps:1")->resources()->GetVariable("var_b");
  for (int64_t i = 0; i < 256; ++i) ASSERT_EQ(a.at<float>(i), golden_a.at<float>(i));
  for (int64_t i = 0; i < 128; ++i) ASSERT_EQ(b.at<float>(i), golden_b.at<float>(i));
}

TEST(CheckpointTest, RestoreRetargetsShardToSurvivor) {
  CheckpointWorld world;
  Tensor golden = world.MakeVariable("ps:0", "shard", 64, 5.0f);
  CheckpointManager checkpoint(world.cluster.get(), CheckpointOptions{});
  ASSERT_TRUE(checkpoint.Snapshot(/*step=*/1, /*samples=*/32).ok());

  // "ps:0 died": restore its shard onto ps:1, which has never held it.
  ASSERT_TRUE(checkpoint.Restore({{"shard", "ps:1"}}).ok());
  auto* rm = world.cluster->host("ps:1")->resources();
  ASSERT_TRUE(rm->HasVariable("shard"));
  const Tensor& restored = rm->GetVariable("shard");
  ASSERT_EQ(restored.num_elements(), 64);
  for (int64_t i = 0; i < 64; ++i)
    ASSERT_EQ(restored.at<float>(i), golden.at<float>(i));

  // Captured entries absent from the map are skipped, not an error.
  ASSERT_TRUE(checkpoint.Restore(std::map<std::string, std::string>{}).ok());
}

// ---------------------------------------------------------------------------
// Reconfigure: the ring shrinks to the survivors and the next all-reduce is
// exact among them (the chunk capacity grew; slots were reallocated).
// ---------------------------------------------------------------------------

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

void FillInputs(CollectiveGroup* group, uint64_t count) {
  for (int r = 0; r < group->size(); ++r) {
    float* data = group->data(r);
    ASSERT_NE(data, nullptr);
    for (uint64_t i = 0; i < group->max_elements(); ++i) {
      data[i] = i < count ? static_cast<float>((r + 1) * (i % 7 + 1)) : -1.0f;
    }
  }
}

float ExpectedRankSum(int n, uint64_t i) {
  return static_cast<float>((i % 7 + 1) * n * (n + 1) / 2);
}

TEST(ReconfigureTest, RingShrinksAndSurvivorSumsAreExact) {
  const uint64_t count = 1000;  // Not divisible by 3: survivor chunks uneven.
  World world(4);
  std::vector<int> hosts{0, 1, 2, 3};
  auto group_or = CollectiveGroup::Create(&world.directory, hosts, count);
  ASSERT_TRUE(group_or.ok()) << group_or.status();
  auto group = std::move(group_or).value();

  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());

  // Host 2 is confirmed dead; the group rebuilds over the survivors.
  ASSERT_TRUE(group->Reconfigure({0, 1, 3}).ok());
  EXPECT_EQ(group->size(), 3);
  EXPECT_EQ(group->hosts(), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(group->stats().reconfigurations, 1);

  // The next collective re-runs the address exchange and is exact over the
  // new 3-way chunking.
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 3; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedRankSum(3, i)) << "rank=" << r << " i=" << i;
    }
  }

  // Shrinking further still works (repeat reconfigurations compose).
  ASSERT_TRUE(group->Reconfigure({0, 3}).ok());
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 2; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedRankSum(2, i)) << "rank=" << r << " i=" << i;
    }
  }
}

TEST(ReconfigureTest, RejectsNonSubsetAndBusyGroups) {
  World world(3);
  auto group_or = CollectiveGroup::Create(&world.directory, {0, 1, 2}, 64);
  ASSERT_TRUE(group_or.ok()) << group_or.status();
  auto group = std::move(group_or).value();
  EXPECT_FALSE(group->Reconfigure({0, 1, 5}).ok());  // 5 was never a member.
  EXPECT_FALSE(group->Reconfigure({}).ok());
  EXPECT_FALSE(group->Reconfigure({0, 0, 1}).ok());  // Duplicate.
  EXPECT_EQ(group->size(), 3);  // Failed validation left the group intact.
}

// ---------------------------------------------------------------------------
// Degradation ladder: repeated zero-copy failures demote the edge to the
// staged RPC path; a clean probation span re-promotes it.
// ---------------------------------------------------------------------------

struct LadderWorld {
  explicit LadderWorld(int64_t elements) {
    ClusterOptions options;
    options.num_machines = 2;
    options.mode = ops::ComputeMode::kReal;
    options.process_defaults.rdma_arena_bytes = 32ull << 20;
    cluster = std::make_unique<Cluster>(options);
    CHECK_OK(cluster->AddProcess("ps:0", 0).status());
    CHECK_OK(cluster->AddProcess("worker:0", 1).status());
    ops::RegisterStandardOps();
    Node* w = *graph.AddNode("w", "Variable", std::vector<Node*>{});
    w->SetAttr("shape", TensorShape{elements});
    w->SetAttr("init", std::string("uniform"));
    w->set_device("ps:0");
    Node* consume = *graph.AddNode("consume", "ReduceSum", {w});
    consume->set_device("worker:0");
  }

  Status QuiesceAndRecover(comm::ZeroCopyRdmaMechanism* mechanism) {
    RDMADL_RETURN_IF_ERROR(cluster->simulator()->Run());
    for (const std::string& device : cluster->device_names()) {
      RDMADL_RETURN_IF_ERROR(cluster->host(device)->rdma_device()->RecoverChannels());
    }
    mechanism->ResetTransientState();
    return OkStatus();
  }

  std::unique_ptr<Cluster> cluster;
  graph::Graph graph;
};

TEST(LadderTest, RepeatedFailuresDemoteThenCleanProbationPromotes) {
  LadderWorld world(50'000);
  auto mechanism = std::make_unique<comm::ZeroCopyRdmaMechanism>(world.cluster.get(),
                                                                 comm::ZeroCopyOptions{});
  DistributedSession session(world.cluster.get(), mechanism.get(), &world.graph,
                             SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());  // Tracing step.
  ASSERT_TRUE(session.RunStep().ok());  // First zero-copy transfer.
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const std::string edge_key = session.transfer_edges()[0].key;
  EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kZeroCopy);

  // Burn the transport retry budget twice: enough forced drops that two
  // consecutive steps exhaust their 7-retry budget and fail the send.
  FaultInjector injector(FaultSeedFromEnv(24));
  LinkFaultSpec spec;
  spec.drop_first_n = 40;
  injector.SetLinkFault(0, 1, spec);
  world.cluster->fabric()->SetFaultInjector(&injector);

  int failed_steps = 0;
  for (int i = 0; i < 8 && mechanism->edge_path(edge_key) != comm::EdgePath::kDegraded;
       ++i) {
    Status s = session.RunStep();
    if (!s.ok()) {
      ++failed_steps;
      ASSERT_TRUE(world.QuiesceAndRecover(mechanism.get()).ok());
    }
  }
  ASSERT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kDegraded)
      << "edge never demoted after " << failed_steps << " failed steps";
  EXPECT_GE(mechanism->stats().ladder_demotions, 1);

  // Degraded service: steps now complete over the staged path with exact
  // bytes, and after a clean probation span the edge is promoted back.
  int promoted_at = -1;
  for (int i = 0; i < 40; ++i) {
    Status s = session.RunStep();
    if (!s.ok()) {
      // Residual forced drops also hit the degraded (TCP) path; they reset
      // the probation streak but never fail the edge back to zero-copy.
      ASSERT_TRUE(world.QuiesceAndRecover(mechanism.get()).ok());
      continue;
    }
    const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
    ASSERT_NE(out, nullptr);
    const Tensor& source = world.cluster->host("ps:0")->resources()->GetVariable("w");
    double expected = 0;
    for (int64_t j = 0; j < source.num_elements(); ++j) expected += source.at<float>(j);
    EXPECT_NEAR(out->at<float>(0), expected, std::abs(expected) * 1e-5 + 1e-3);
    if (mechanism->edge_path(edge_key) == comm::EdgePath::kZeroCopy) {
      promoted_at = i;
      break;
    }
  }
  ASSERT_GE(promoted_at, 0) << "edge never promoted back to zero-copy";
  EXPECT_GE(mechanism->stats().degraded_sends, comm::kLadderProbationAfter);
  EXPECT_GE(mechanism->stats().ladder_promotions, 1);
  EXPECT_GE(mechanism->stats().probation_probes, 1);

  // And the promoted edge keeps working zero-copy.
  ASSERT_TRUE(session.RunStep().ok());
  EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kZeroCopy);
}

// A probe that fails while the link is still dropping sends the edge back to
// kDegraded with its probation count reset: it takes kLadderProbationAfter
// fresh clean degraded sends before the next probe, which then promotes.
TEST(LadderTest, FailedProbationProbeRedemotesAndRestartsProbation) {
  LadderWorld world(50'000);
  auto mechanism = std::make_unique<comm::ZeroCopyRdmaMechanism>(world.cluster.get(),
                                                                 comm::ZeroCopyOptions{});
  DistributedSession session(world.cluster.get(), mechanism.get(), &world.graph,
                             SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());  // Tracing step.
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const std::string edge_key = session.transfer_edges()[0].key;
  const comm::ZeroCopyStats& stats = mechanism->stats();

  FaultInjector injector(FaultSeedFromEnv(24));
  LinkFaultSpec drop_all;
  drop_all.drop_probability = 1.0;
  world.cluster->fabric()->SetFaultInjector(&injector);
  auto run_clean_step = [&] {
    ASSERT_TRUE(session.RunStep().ok());
    const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
    ASSERT_NE(out, nullptr);
    const Tensor& source = world.cluster->host("ps:0")->resources()->GetVariable("w");
    double expected = 0;
    for (int64_t j = 0; j < source.num_elements(); ++j) expected += source.at<float>(j);
    EXPECT_NEAR(out->at<float>(0), expected, std::abs(expected) * 1e-5 + 1e-3);
  };
  auto run_failing_step = [&] {
    EXPECT_FALSE(session.RunStep().ok());
    ASSERT_TRUE(world.QuiesceAndRecover(mechanism.get()).ok());
  };

  // Demote: kLadderDemoteAfter zero-copy sends fail in a row.
  injector.SetLinkFault(0, 1, drop_all);
  for (int i = 0; i < comm::kLadderDemoteAfter; ++i) run_failing_step();
  ASSERT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kDegraded);
  ASSERT_EQ(stats.ladder_demotions, 1);

  // A clean degraded span opens probation, but the drops are back when the
  // probe goes out: the probe fails and the edge falls back to kDegraded.
  injector.SetLinkFault(0, 1, LinkFaultSpec{});
  for (int i = 0; i < comm::kLadderProbationAfter; ++i) run_clean_step();
  ASSERT_EQ(stats.probation_probes, 0);
  injector.SetLinkFault(0, 1, drop_all);
  run_failing_step();
  EXPECT_EQ(stats.probation_probes, 1);
  EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kDegraded);
  EXPECT_EQ(stats.ladder_promotions, 0);

  // Probation restarted from zero: the next kLadderProbationAfter clean
  // sends are all served degraded without a probe...
  injector.SetLinkFault(0, 1, LinkFaultSpec{});
  const int64_t degraded_before = stats.degraded_sends;
  for (int i = 0; i < comm::kLadderProbationAfter; ++i) {
    run_clean_step();
    EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kDegraded);
  }
  EXPECT_EQ(stats.degraded_sends, degraded_before + comm::kLadderProbationAfter);
  EXPECT_EQ(stats.probation_probes, 1);

  // ...and the probe after that span succeeds and promotes the edge.
  run_clean_step();
  EXPECT_EQ(stats.probation_probes, 2);
  EXPECT_EQ(stats.ladder_promotions, 1);
  EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kZeroCopy);
  EXPECT_EQ(stats.degraded_sends, degraded_before + comm::kLadderProbationAfter);
}

// Parameterized on ZeroCopyOptions::force_dynamic: the degraded path must
// deliver exact bytes on the static protocol (preallocated tensor + flag) and
// on the dynamic one (receiver-side tensor materialized directly).
class LadderProtocolTest : public ::testing::TestWithParam<bool> {};

TEST_P(LadderProtocolTest, ArenaExhaustionDemotesImmediatelyAndServesDegraded) {
  // RDMA.cp (graph analysis off) stages every send through the sender's RDMA
  // arena. An arena too small for the payload would fail the send outright —
  // with the ladder it is served over the staged RPC path instead.
  LadderWorld world(200'000);  // 800 KB payload.
  comm::ZeroCopyOptions options;
  options.graph_analysis = false;
  options.force_dynamic = GetParam();
  auto mechanism =
      std::make_unique<comm::ZeroCopyRdmaMechanism>(world.cluster.get(), options);
  DistributedSession session(world.cluster.get(), mechanism.get(), &world.graph,
                             SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const std::string edge_key = session.transfer_edges()[0].key;

  // Exhaust the ps:0 RDMA staging arena (64 KB chunks leave no hole big
  // enough for the 800 KB payload) so the staging copy cannot be placed.
  // This happens before the first step: a dynamic edge keeps each step's
  // staging copy until the next step boundary, whose release would reopen
  // a hole of exactly the payload's size.
  runtime::HostRuntime* ps = world.cluster->host("ps:0");
  auto arena_or = ps->rdma_arena();
  ASSERT_TRUE(arena_or.ok()) << arena_or.status();
  while ((*arena_or)->allocator->Allocate(64ull << 10) != nullptr) {
  }

  const auto before = mechanism->stats().ladder_demotions;
  ASSERT_TRUE(session.RunStep().ok())
      << "send should be served degraded, not failed";
  EXPECT_EQ(mechanism->edge_path(edge_key), comm::EdgePath::kDegraded);
  EXPECT_EQ(mechanism->stats().ladder_demotions, before + 1);
  EXPECT_GE(mechanism->stats().degraded_sends, 1);

  const Tensor* out = session.executor_for("worker:0")->OutputOf("consume");
  ASSERT_NE(out, nullptr);
  const Tensor& source = ps->resources()->GetVariable("w");
  double expected = 0;
  for (int64_t j = 0; j < source.num_elements(); ++j) expected += source.at<float>(j);
  EXPECT_NEAR(out->at<float>(0), expected, std::abs(expected) * 1e-5 + 1e-3);
  EXPECT_EQ(mechanism->stats().dynamic_transfers, GetParam() ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, LadderProtocolTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Dynamic" : "Static";
                         });

}  // namespace
}  // namespace rdmadl
