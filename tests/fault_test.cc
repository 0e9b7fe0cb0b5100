// Seeded chaos suite for the fault-injection subsystem (ISSUE 2).
//
// Crosses the injector's fault classes {segment drops, latency spikes,
// flapping links, fail-stop host crashes} with the stack's transfer paths
// {fabric transfer, zero-copy session step, RPC mechanism step, ring
// all-reduce, PS training step} and asserts the typed failure/recovery
// contract everywhere:
//
//   * transient faults (drops, spikes, flaps) are absorbed by IB-style
//     transport retry / reservation queueing and the operation completes
//     with bit-exact payloads;
//   * unrecoverable faults (dead host, exhausted retry budget) surface as a
//     typed Status within the configured virtual-time budget — the
//     simulator never hangs;
//   * everything is deterministic: two runs with the same fault seed produce
//     byte-identical traces.
//
// The seed is RDMADL_FAULT_SEED when set (scripts/check.sh --sweep runs
// seeds 1..10, plain and checked), else a fixed default so plain ctest runs
// are reproducible.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/check/explore.h"
#include "src/check/testing.h"
#include "src/collective/collective.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/models/model_spec.h"
#include "src/net/topology.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/train/ps_training.h"
#include "src/util/strings.h"

namespace rdmadl {

// `ctest -L check` runs this suite with RDMADL_CHECK=1: every test executes
// under a fresh RdmaCheck and fails on any protocol diagnostic.
RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

namespace {

using collective::CollectiveGroup;
using collective::CollectiveOptions;
using collective::DoneCallback;
using graph::Graph;
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

bool IsTypedTransportFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kAborted ||
         status.code() == StatusCode::kDeadlineExceeded;
}

// ---------------------------------------------------------------------------
// Session-level helpers: a 2-process cluster moving one variable ps -> worker.
// ---------------------------------------------------------------------------

struct SessionWorld {
  explicit SessionWorld(int64_t elements) {
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

  // The source-side checksum the worker's ReduceSum must reproduce.
  double ExpectedSum() const {
    const Tensor& source = cluster->host("ps:0")->resources()->GetVariable("w");
    double expected = 0;
    for (int64_t i = 0; i < source.num_elements(); ++i) expected += source.at<float>(i);
    return expected;
  }

  void CheckStepDeliveredExactBytes(DistributedSession* session) {
    const double expected = ExpectedSum();
    const Tensor* out = session->executor_for("worker:0")->OutputOf("consume");
    ASSERT_NE(out, nullptr);
    EXPECT_NEAR(out->at<float>(0), expected, std::abs(expected) * 1e-5 + 1e-3);
  }

  std::unique_ptr<Cluster> cluster;
  Graph graph;
};

// ---------------------------------------------------------------------------
// Collective-level helpers (mirrors collective_test's World).
// ---------------------------------------------------------------------------

struct World {
  explicit World(int num_hosts)
      : fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}
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

// ---------------------------------------------------------------------------
// Drop x zero-copy transfer: the dropped segments are retransmitted by the
// QP's transport retry and the step completes with correct bytes (acceptance
// criterion a).
// ---------------------------------------------------------------------------

// Wiring check for the checker CI mode: when RDMADL_CHECK=1 the listener
// must have installed a process-wide RdmaCheck before this body runs (a
// silently-inert listener would make every `ctest -L check` pass vacuously).
TEST(ProtocolCheckListenerTest, CheckerInstalledExactlyWhenEnvSet) {
  EXPECT_EQ(check::RdmaCheck::Current() != nullptr, check::CheckEnabledFromEnv());
}

TEST(FaultMatrixTest, DroppedSegmentsAreRetriedAndZeroCopyStepDeliversExactBytes) {
  SessionWorld world(100'000);
  auto mechanism =
      std::make_unique<comm::ZeroCopyRdmaMechanism>(world.cluster.get(), comm::ZeroCopyOptions{});
  DistributedSession session(world.cluster.get(), mechanism.get(), &world.graph,
                             SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  // Step 0 traces allocations, step 1 runs the first static-protocol
  // transfer; both clean so the protocol is established before faults start.
  ASSERT_TRUE(session.RunStep().ok());
  ASSERT_TRUE(session.RunStep().ok());

  FaultInjector injector(FaultSeedFromEnv(11));
  LinkFaultSpec spec;
  spec.drop_first_n = 2;  // Lose the first two wire segments ps -> worker.
  injector.SetLinkFault(0, 1, spec);
  world.cluster->fabric()->SetFaultInjector(&injector);

  ASSERT_TRUE(session.RunStep().ok());
  world.CheckStepDeliveredExactBytes(&session);
  // Both forced drops were actually injected (and therefore retried).
  EXPECT_EQ(injector.stats().forced_drops, 2u);

  // With the forced drops consumed the link is healthy again.
  ASSERT_TRUE(session.RunStep().ok());
  world.CheckStepDeliveredExactBytes(&session);
}

// ---------------------------------------------------------------------------
// Drop x RPC mechanism: the RPC path has no transport retry below it in TCP
// mode, so a dropped segment surfaces as a typed step failure — and the next
// step recovers cleanly.
// ---------------------------------------------------------------------------

TEST(FaultMatrixTest, DroppedRpcTransferFailsStepTypedThenRecovers) {
  SessionWorld world(50'000);
  auto mechanism = std::make_unique<comm::RpcMechanism>(world.cluster.get(), net::Plane::kTcp);
  DistributedSession session(world.cluster.get(), mechanism.get(), &world.graph,
                             SessionOptions{});
  ASSERT_TRUE(session.Setup().ok());
  ASSERT_TRUE(session.RunStep().ok());

  FaultInjector injector(FaultSeedFromEnv(12));
  LinkFaultSpec spec;
  spec.drop_first_n = 1;
  injector.SetLinkFault(0, 1, spec);
  world.cluster->fabric()->SetFaultInjector(&injector);

  const Status failed = session.RunStep();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTypedTransportFailure(failed)) << failed;
  EXPECT_EQ(injector.stats().forced_drops, 1u);

  // The forced drop is consumed; the mechanism's per-step state reset lets
  // the very next step succeed.
  ASSERT_TRUE(world.cluster->simulator()->Run().ok());
  ASSERT_TRUE(session.RunStep().ok());
  world.CheckStepDeliveredExactBytes(&session);
}

// ---------------------------------------------------------------------------
// Spike x fabric transfer: a latency spike delays completion by exactly the
// configured amount and never fails the transfer.
// ---------------------------------------------------------------------------

TEST(FaultMatrixTest, LatencySpikeDelaysTransferWithoutFailingIt) {
  const uint64_t bytes = 1 << 20;
  auto run_transfer = [&](FaultInjector* injector) {
    sim::Simulator simulator;
    net::CostModel cost;
    net::Fabric fabric(&simulator, cost, 2);
    if (injector != nullptr) fabric.SetFaultInjector(injector);
    int64_t completed_at = -1;
    bool ok = false;
    fabric.Transfer(0, 1, bytes, net::Plane::kRdma, 0, nullptr, [&](Status s) {
      ok = s.ok();
      completed_at = simulator.Now();
    });
    CHECK_OK(simulator.Run());
    CHECK(ok);
    return completed_at;
  };

  const int64_t baseline = run_transfer(nullptr);

  FaultInjector injector(FaultSeedFromEnv(13));
  LinkFaultSpec spec;
  spec.spike_probability = 1.0;
  spec.spike_min_ns = 2'000'000;  // Degenerate range: the spike is exactly 2 ms
  spec.spike_max_ns = 2'000'000;  // regardless of what the rng draws.
  injector.SetLinkFault(0, 1, spec);
  const int64_t spiked = run_transfer(&injector);

  EXPECT_EQ(spiked - baseline, 2'000'000);
  EXPECT_GE(injector.stats().latency_spikes, 1u);
}

// ---------------------------------------------------------------------------
// Flap x ring all-reduce: down windows queue reservations instead of failing
// them, so a flapping NIC port slows the collective but the sums stay exact.
// ---------------------------------------------------------------------------

TEST(FaultMatrixTest, FlappingLinkSlowsRingAllReduceButSumsStayExact) {
  const int n = 4;
  const uint64_t count = 1024;

  int64_t baseline_ns = 0;
  {
    World world(n);
    auto group = world.MakeGroup(n, count);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    baseline_ns = world.simulator.Now();
  }

  World world(n);
  FaultInjector injector(FaultSeedFromEnv(14));
  injector.FlapLink(/*host=*/1, /*first_down_ns=*/20'000, /*down_ns=*/300'000,
                    /*up_ns=*/150'000, /*cycles=*/3);
  world.fabric.SetFaultInjector(&injector);
  auto group = world.MakeGroup(n, count);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < n; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedRankSum(n, i)) << "rank=" << r << " i=" << i;
    }
  }
  EXPECT_GT(world.simulator.Now(), baseline_ns);
}

// ---------------------------------------------------------------------------
// Crash x ring all-reduce: a peer that fail-stops mid-group turns the next
// collective into a typed error within the op's virtual-time budget.
// ---------------------------------------------------------------------------

TEST(FaultMatrixTest, CrashedPeerFailsCollectiveTypedWithinBudget) {
  World world(2);
  CollectiveOptions options;
  options.op_timeout_ns = 20'000'000;  // 20 ms budget.
  auto group = world.MakeGroup(2, 512, options);
  FillInputs(group.get(), 512);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(512, std::move(done));
              }).ok());

  FaultInjector injector(FaultSeedFromEnv(15));
  injector.CrashHost(1, world.simulator.Now() + 1'000);
  world.fabric.SetFaultInjector(&injector);

  const int64_t start = world.simulator.Now();
  FillInputs(group.get(), 512);
  const Status failed = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(512, std::move(done));
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTypedTransportFailure(failed)) << failed;
  // The failure surfaced within the op budget (plus quiesce slack); the
  // simulator did not hang virtual time waiting for a flag byte that will
  // never arrive.
  EXPECT_LE(world.simulator.Now(), start + 4 * options.op_timeout_ns);
}

// ---------------------------------------------------------------------------
// Crash x PS training step: RunStep surfaces a typed error naming the dead
// host within the configured step timeout (acceptance criterion b).
// ---------------------------------------------------------------------------

TEST(FaultMatrixTest, CrashedPsHostYieldsTypedErrorFromRunStepWithinTimeout) {
  train::TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.mechanism = train::MechanismKind::kRdmaZeroCopy;
  config.step_timeout_ns = 200'000'000;  // 200 ms virtual budget per step.
  config.max_step_retries = 2;
  train::TrainingDriver driver(config);
  ASSERT_TRUE(driver.Initialize().ok());
  ASSERT_TRUE(driver.RunStep().ok());  // Healthy step before the crash.

  // Machine 1 (its worker and PS processes) fail-stops just after now. The
  // injector is attached after Initialize so warm-up ran fault-free.
  FaultInjector injector(FaultSeedFromEnv(16));
  const int64_t t_crash = driver.cluster()->simulator()->Now() + 10'000;
  injector.CrashHost(1, t_crash);
  driver.cluster()->fabric()->SetFaultInjector(&injector);

  const Status failed = driver.RunStep();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << failed;
  EXPECT_NE(failed.message().find("crashed"), std::string::npos) << failed;
  // Bounded virtual time: one step budget to detect, plus quiesce drain.
  EXPECT_LE(driver.cluster()->simulator()->Now(), t_crash + 4 * config.step_timeout_ns);
}

// ---------------------------------------------------------------------------
// Determinism: the same fault seed produces a byte-identical trace
// (acceptance criterion c).
// ---------------------------------------------------------------------------

TEST(FaultDeterminismTest, SameSeedProducesByteIdenticalTrace) {
  const uint64_t seed = FaultSeedFromEnv(7);
  auto run_once = [&](std::string* trace_json, std::string* status_str, int64_t* end_ns) {
    sim::Tracer tracer;
    sim::Tracer::Install(&tracer);
    {
      World world(4);
      FaultInjector injector(seed);
      LinkFaultSpec spec;
      spec.drop_probability = 0.02;
      spec.spike_probability = 0.5;
      spec.spike_min_ns = 10'000;
      spec.spike_max_ns = 100'000;
      injector.SetDefaultLinkFault(spec);
      world.fabric.SetFaultInjector(&injector);
      CollectiveOptions options;
      options.op_timeout_ns = 1'000'000'000;
      auto group = world.MakeGroup(4, 2048, options);
      FillInputs(group.get(), 2048);
      const Status status = RunOp(&world, [&](DoneCallback done) {
        group->AllReduce(2048, std::move(done));
      });
      *status_str = status.ToString();
      *end_ns = world.simulator.Now();
      *trace_json = tracer.ToJson();
    }
    sim::Tracer::Install(nullptr);
  };

  std::string trace1, trace2, status1, status2;
  int64_t end1 = 0, end2 = 0;
  run_once(&trace1, &status1, &end1);
  run_once(&trace2, &status2, &end2);

  EXPECT_GT(trace1.size(), 2u) << "trace should not be empty";
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(status1, status2);
  EXPECT_EQ(end1, end2);
}

// ---------------------------------------------------------------------------
// Seeded chaos sweep: drops + spikes + a flapping port, seed from
// RDMADL_FAULT_SEED (scripts/check.sh --sweep runs seeds 1..10). The
// invariant: every attempt either completes with exact sums or fails with a
// typed transport error, and a bounded number of retries always converges
// once the flap schedule has drained.
// ---------------------------------------------------------------------------

TEST(ChaosSweepTest, RandomFaultsEitherCompleteExactlyOrFailTyped) {
  const uint64_t seed = FaultSeedFromEnv(1);
  const int n = 4;
  const uint64_t count = 1024;

  World world(n);
  FaultInjector injector(seed);
  LinkFaultSpec spec;
  spec.drop_probability = 0.01;
  spec.spike_probability = 0.3;
  spec.spike_min_ns = 10'000;
  spec.spike_max_ns = 200'000;
  injector.SetDefaultLinkFault(spec);
  injector.FlapLink(static_cast<int>(seed % n), /*first_down_ns=*/50'000,
                    /*down_ns=*/150'000, /*up_ns=*/100'000, /*cycles=*/2);
  world.fabric.SetFaultInjector(&injector);

  CollectiveOptions options;
  options.op_timeout_ns = 2'000'000'000;
  auto group = world.MakeGroup(n, count, options);

  bool succeeded = false;
  for (int attempt = 0; attempt < 5 && !succeeded; ++attempt) {
    // Re-seed rank data every attempt: the ring reduces in place, so a failed
    // attempt leaves partially reduced vectors behind.
    FillInputs(group.get(), count);
    const Status status = RunOp(&world, [&](DoneCallback done) {
      group->AllReduce(count, std::move(done));
    });
    if (status.ok()) {
      for (int r = 0; r < n; ++r) {
        const float* data = group->data(r);
        for (uint64_t i = 0; i < count; ++i) {
          ASSERT_EQ(data[i], ExpectedRankSum(n, i))
              << "seed=" << seed << " attempt=" << attempt << " rank=" << r << " i=" << i;
        }
      }
      succeeded = true;
    } else {
      EXPECT_TRUE(IsTypedTransportFailure(status)) << "seed=" << seed << ": " << status;
      ASSERT_TRUE(group->ResetTransport().ok());
    }
  }
  EXPECT_TRUE(succeeded) << "seed=" << seed << " never converged in 5 attempts";
}

// ---------------------------------------------------------------------------
// Device-resident chaos (ISSUE 10): a model whose tensors live in GPU arenas
// with GPUDirect device routes on obeys the same fault contract as the host
// paths — transient drops and spikes are absorbed by transport retry (the
// SG-WR cursor restarts every extent of the WQE), failures surface typed,
// and the same seed replays byte-identically. Link chaos must never push a
// device-resident send off the D2D route onto a PCIe staging hop.
// scripts/check.sh --sweep runs this suite checked over RDMADL_FAULT_SEED=1..10,
// each seed twice with stdout diffed.
// ---------------------------------------------------------------------------

train::TrainingConfig DeviceResidentConfig() {
  train::TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.mechanism = train::MechanismKind::kRdmaZeroCopy;
  config.tensors_on_gpu = true;
  config.gpudirect = true;  // gdr_device_routes defaults on: D2D zero-copy.
  config.step_timeout_ns = 500'000'000;
  config.max_step_retries = 3;
  return config;
}

TEST(GdrChaosSweepTest, DeviceResidentStepsAbsorbChaosOrFailTypedStayingOnD2d) {
  const uint64_t seed = FaultSeedFromEnv(1);
  train::TrainingDriver driver(DeviceResidentConfig());
  ASSERT_TRUE(driver.Initialize().ok());
  ASSERT_TRUE(driver.RunStep().ok());  // Healthy device-resident step first.
  // The warm-up already rides the D2D route — no PCIe staging hop.
  ASSERT_NE(driver.zerocopy_mechanism(), nullptr);
  const comm::ZeroCopyStats& stats = driver.zerocopy_mechanism()->stats();
  EXPECT_GT(stats.device_zero_copy_sends, 0);
  EXPECT_EQ(stats.pcie_copies, 0);

  FaultInjector injector(seed);
  LinkFaultSpec spec;
  spec.drop_probability = 0.01;
  spec.spike_probability = 0.3;
  spec.spike_min_ns = 10'000;
  spec.spike_max_ns = 200'000;
  injector.SetDefaultLinkFault(spec);
  driver.cluster()->fabric()->SetFaultInjector(&injector);

  int completed = 0;
  for (int step = 0; step < 5; ++step) {
    const int64_t device_sends_before = stats.device_zero_copy_sends;
    const Status status = driver.RunStep();
    if (status.ok()) {
      ++completed;
      // Chaos must not demote the route: the device buffers stay registered,
      // so every completed step keeps sending zero-copy from the GPU arena.
      EXPECT_GT(stats.device_zero_copy_sends, device_sends_before)
          << "seed=" << seed << " step=" << step;
    } else {
      EXPECT_TRUE(IsTypedTransportFailure(status)) << "seed=" << seed << ": " << status;
    }
  }
  EXPECT_GT(completed, 0) << "seed=" << seed << " completed no step under chaos";
  EXPECT_EQ(stats.pcie_copies, 0) << "seed=" << seed;
}

TEST(GdrChaosSweepTest, SameSeedReplaysDeviceResidentTraceByteIdentically) {
  const uint64_t seed = FaultSeedFromEnv(5);
  auto run_once = [&](std::string* trace_json, std::string* statuses, int64_t* end_ns) {
    sim::Tracer tracer;
    sim::Tracer::Install(&tracer);
    {
      train::TrainingDriver driver(DeviceResidentConfig());
      CHECK_OK(driver.Initialize());
      FaultInjector injector(seed);
      LinkFaultSpec spec;
      spec.drop_probability = 0.01;
      spec.spike_probability = 0.4;
      spec.spike_min_ns = 5'000;
      spec.spike_max_ns = 100'000;
      injector.SetDefaultLinkFault(spec);
      driver.cluster()->fabric()->SetFaultInjector(&injector);
      statuses->clear();
      for (int step = 0; step < 3; ++step) {
        statuses->append(driver.RunStep().ToString());
        statuses->append(";");
      }
      *end_ns = driver.cluster()->simulator()->Now();
      *trace_json = tracer.ToJson();
    }
    sim::Tracer::Install(nullptr);
  };

  std::string trace1, trace2, status1, status2;
  int64_t end1 = 0, end2 = 0;
  run_once(&trace1, &status1, &end1);
  run_once(&trace2, &status2, &end2);

  EXPECT_GT(trace1.size(), 2u) << "trace should not be empty";
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(status1, status2);
  EXPECT_EQ(end1, end2);
}

// ---------------------------------------------------------------------------
// Hierarchical / in-network chaos (ISSUE 7): the multi-level schedules obey
// the same contract as the flat ring — transient fabric faults are absorbed
// with bit-exact results, fail-stop crashes surface as typed errors within
// the op budget, and nothing ever hangs virtual time.
// ---------------------------------------------------------------------------

net::TopologyConfig RackTopo(int hosts_per_rack, bool switch_reduce = false) {
  net::TopologyConfig config;
  config.hosts_per_rack = hosts_per_rack;
  config.oversubscription = 4.0;
  config.switch_reduce = switch_reduce;
  config.switch_reduce_window_bytes = 1024;  // Many rounds even when small.
  return config;
}

// Rack-leader crash: the leader is on the critical path of all three levels
// (tree root, spine ring member, broadcast source). A dead leader must fail
// the op typed within the budget, not stall the pollers forever.
TEST(HierarchicalChaosTest, RackLeaderCrashFailsHierarchicalTypedWithinBudget) {
  World world(8, RackTopo(4));
  CollectiveOptions options;
  options.algorithm = collective::Algorithm::kHierarchical;
  options.op_timeout_ns = 20'000'000;  // 20 ms budget.
  auto group = world.MakeGroup(8, 2048, options);
  FillInputs(group.get(), 2048);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(2048, std::move(done));
              }).ok());

  // Host 4 leads the second rack (ranks 4..7).
  FaultInjector injector(FaultSeedFromEnv(41));
  injector.CrashHost(4, world.simulator.Now() + 1'000);
  world.fabric.SetFaultInjector(&injector);

  const int64_t start = world.simulator.Now();
  FillInputs(group.get(), 2048);
  const Status failed = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(2048, std::move(done));
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTypedTransportFailure(failed)) << failed;
  EXPECT_LE(world.simulator.Now(), start + 4 * options.op_timeout_ns);
}

// Spine-link flap: scheduled down windows on every spine link stall the
// leader ring's cross-rack steps; reservations queue behind the window, the
// op completes exactly, and completion moves later by at least the outage.
// The tensor is sized so every cross-rack ring chunk exceeds the MTU —
// sub-MTU control messages bypass the shared-hop reservations by design.
TEST(HierarchicalChaosTest, SpineLinkDownWindowDelaysHierarchicalButSumsStayExact) {
  const uint64_t count = 262144;  // 1 MB.
  int64_t baseline_ns = 0;
  {
    World world(8, RackTopo(4));
    CollectiveOptions options;
    options.algorithm = collective::Algorithm::kHierarchical;
    auto group = world.MakeGroup(8, count, options);
    FillInputs(group.get(), count);
    ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                  group->AllReduce(count, std::move(done));
                }).ok());
    baseline_ns = world.simulator.Now();
  }

  World world(8, RackTopo(4));
  net::Topology* topo = world.fabric.topology();
  ASSERT_NE(topo, nullptr);
  for (int i = 0; i < topo->num_spine_links(); ++i) {
    topo->spine_link(i)->AddDownWindow(0, 2 * baseline_ns);
  }
  CollectiveOptions options;
  options.algorithm = collective::Algorithm::kHierarchical;
  auto group = world.MakeGroup(8, count, options);
  FillInputs(group.get(), count);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(count, std::move(done));
              }).ok());
  for (int r = 0; r < 8; ++r) {
    const float* data = group->data(r);
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_EQ(data[i], ExpectedRankSum(8, i)) << "rank=" << r << " i=" << i;
    }
  }
  EXPECT_GT(world.simulator.Now(), 2 * baseline_ns);
}

// Mid-handoff death: a non-leader that dies after the op started (during the
// tree -> ring -> broadcast window) poisons a write some poller is waiting
// on; the transfer refusal must fail the op typed within the budget.
TEST(HierarchicalChaosTest, MidOpHostDeathFailsHierarchicalTypedWithinBudget) {
  World world(8, RackTopo(4));
  CollectiveOptions options;
  options.algorithm = collective::Algorithm::kHierarchical;
  options.op_timeout_ns = 20'000'000;
  auto group = world.MakeGroup(8, 4096, options);
  FillInputs(group.get(), 4096);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(4096, std::move(done));
              }).ok());

  // Host 6 (a mid-tree member of rack 1) dies 20 us into the next op: after
  // the first tree posts, before the broadcast completes.
  FaultInjector injector(FaultSeedFromEnv(42));
  const int64_t start = world.simulator.Now();
  injector.CrashHost(6, start + 20'000);
  world.fabric.SetFaultInjector(&injector);

  FillInputs(group.get(), 4096);
  const Status failed = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(4096, std::move(done));
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTypedTransportFailure(failed)) << failed;
  EXPECT_LE(world.simulator.Now(), start + 4 * options.op_timeout_ns);
}

// In-network + fail-stop: the switch stage refuses the window whose
// contributor is dead, naming the host; the failure is typed and the
// simulator never hangs between aggregation rounds.
TEST(HierarchicalChaosTest, ContributorCrashFailsInNetworkTypedNamingHost) {
  World world(8, RackTopo(4, /*switch_reduce=*/true));
  CollectiveOptions options;
  options.algorithm = collective::Algorithm::kInNetwork;
  options.op_timeout_ns = 50'000'000;
  auto group = world.MakeGroup(8, 4096, options);
  FillInputs(group.get(), 4096);
  ASSERT_TRUE(RunOp(&world, [&](DoneCallback done) {
                group->AllReduce(4096, std::move(done));
              }).ok());

  FaultInjector injector(FaultSeedFromEnv(43));
  const int64_t start = world.simulator.Now();
  injector.CrashHost(3, start + 10'000);
  world.fabric.SetFaultInjector(&injector);

  FillInputs(group.get(), 4096);
  const Status failed = RunOp(&world, [&](DoneCallback done) {
    group->AllReduce(4096, std::move(done));
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTypedTransportFailure(failed)) << failed;
  EXPECT_NE(failed.ToString().find("host3"), std::string::npos) << failed;
  EXPECT_LE(world.simulator.Now(), start + 4 * options.op_timeout_ns);
}

// Schedule-space exploration harness (ISSUE 9). `ctest -R fault_test_explore`
// runs Explore* with RDMADL_EXPLORE=16: the body below is replayed across tie
// permutations and bounded timing perturbations, each replay under a fresh
// RdmaCheck, and must stay clean on every schedule. Payload integrity is
// asserted inside the body so a retry path that corrupted bytes under some
// reordering would fail even though the canonical schedule passes.
TEST(ExploreHarnessTest, ExploreDroppedSegmentsRetryToCleanDelivery) {
  sim::ExploreResult result = check::ExploreForTest(
      "fault.drop-retry", [](sim::Simulator& simulator) -> Status {
        // Declared before the fabric so it outlives the raw pointer the
        // fabric keeps.
        sim::FaultInjector injector(/*seed=*/5);
        sim::LinkFaultSpec spec;
        spec.drop_first_n = 2;
        injector.SetLinkFault(0, 1, spec);
        net::CostModel cost;
        net::Fabric fabric(&simulator, cost, /*num_hosts=*/2);
        fabric.SetFaultInjector(&injector);
        rdma::RdmaFabric rdma(&fabric);
        device::DeviceDirectory directory(&rdma);
        auto src_dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2,
                                                  /*num_qps_per_peer=*/2, Endpoint{0, 7000});
        auto dst_dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2,
                                                  /*num_qps_per_peer=*/2, Endpoint{1, 7000});
        if (!src_dev.ok()) return src_dev.status();
        if (!dst_dev.ok()) return dst_dev.status();
        constexpr uint64_t kBytes = 256 << 10;
        auto src = (*src_dev)->AllocateMemRegion(kBytes);
        auto dst = (*dst_dev)->AllocateMemRegion(kBytes);
        if (!src.ok()) return src.status();
        if (!dst.ok()) return dst.status();
        std::memset(src->data(), 0xa5, kBytes);
        std::memset(dst->data(), 0, kBytes);
        auto channel = (*src_dev)->GetChannel((*dst_dev)->endpoint(), /*qp_idx=*/0);
        if (!channel.ok()) return channel.status();
        auto done = std::make_shared<bool>(false);
        auto status = std::make_shared<Status>(OkStatus());
        (*channel)->Memcpy(src->data(), src->lkey(), dst->Remote().addr, dst->rkey(), kBytes,
                           device::Direction::kLocalToRemote,
                           [done, status](const Status& s) {
                             *status = s;
                             *done = true;
                           });
        Status run = simulator.RunUntilPredicate([done] { return *done; });
        if (!run.ok()) return run;
        if (!status->ok()) return *status;
        const uint8_t* bytes = dst->data();
        for (uint64_t i = 0; i < kBytes; ++i) {
          if (bytes[i] != 0xa5) {
            return Internal(StrCat("byte ", i, " corrupt after transport retry"));
          }
        }
        return OkStatus();
      });
  EXPECT_FALSE(result.failure_found) << result.Summary();
  EXPECT_GE(result.stats.schedules_run, 1);
}

}  // namespace
}  // namespace rdmadl
