#include <gtest/gtest.h>

#include <cmath>

#include "src/models/model_spec.h"
#include "src/train/ps_training.h"

namespace rdmadl {
namespace train {
namespace {

using models::ModelSpec;

TEST(ModelSpecTest, Table2SizesMatchWithinHalfPercent) {
  for (const ModelSpec& model : models::AllBenchmarkModels()) {
    const double err =
        std::abs(model.SizeMb() - model.table_size_mb) / model.table_size_mb;
    EXPECT_LT(err, 0.005) << model.name << ": built " << model.SizeMb() << " MB, Table 2 says "
                          << model.table_size_mb << " MB";
  }
}

TEST(ModelSpecTest, Table2VariableCountsMatchExactly) {
  for (const ModelSpec& model : models::AllBenchmarkModels()) {
    EXPECT_EQ(model.NumVariables(), model.table_num_vars) << model.name;
  }
}

TEST(ModelSpecTest, LstmAndGruMatchExactly) {
  EXPECT_EQ(models::Lstm().TotalParamBytes(), 9'417'704u * 4);
  EXPECT_EQ(models::Gru().TotalParamBytes(), 7'319'528u * 4);
}

TEST(ModelSpecTest, SentenceEmbeddingHasTensorOverOneGigabyte) {
  // The variable that crashed TF's gRPC.RDMA in the paper (Figure 10c).
  bool found = false;
  for (const auto& var : models::SentenceEmbedding().AllVariables()) {
    if (var.bytes() > (1ull << 30)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModelSpecTest, CostSharesSumToOne) {
  for (const ModelSpec& model : models::AllBenchmarkModels()) {
    double total = 0;
    for (const auto& layer : model.layers) total += layer.cost_share;
    EXPECT_NEAR(total, 1.0, 1e-9) << model.name;
  }
}

TEST(BuildGraphTest, VariableAndTransferStructure) {
  ModelSpec model = models::Fcn5();
  graph::Graph graph;
  ASSERT_TRUE(BuildDataParallelGraph(model, 2, 2, 8, false, &graph).ok());
  // 10 variables + per worker: input + 5 fwd + top + 4 dx + 10 grads, plus
  // 10 applies per worker on the PS side.
  int variables = 0, applies = 0, grads = 0;
  for (const auto& node : graph.nodes()) {
    if (node->op() == "Variable") ++variables;
    if (node->op() == "ApplySgd") ++applies;
    if (node->name().find("grad/") != std::string::npos) ++grads;
  }
  EXPECT_EQ(variables, 10);
  EXPECT_EQ(applies, 2 * 10);
  EXPECT_EQ(grads, 2 * 10);
}

TEST(BuildGraphTest, LocalModeHasNoCrossDeviceEdges) {
  ModelSpec model = models::Fcn5();
  graph::Graph graph;
  ASSERT_TRUE(BuildDataParallelGraph(model, 4, 4, 8, /*local_only=*/true, &graph).ok());
  for (const auto& node : graph.nodes()) {
    EXPECT_EQ(node->device(), "worker:0");
  }
}

TEST(BuildGraphTest, VariablesShardedRoundRobin) {
  ModelSpec model = models::Fcn5();
  graph::Graph graph;
  ASSERT_TRUE(BuildDataParallelGraph(model, 4, 4, 8, false, &graph).ok());
  int on_ps[4] = {0, 0, 0, 0};
  for (const auto& node : graph.nodes()) {
    if (node->op() != "Variable") continue;
    for (int p = 0; p < 4; ++p) {
      if (node->device() == StrCat("ps:", p)) ++on_ps[p];
    }
  }
  // 10 variables over 4 PSes: 3,3,2,2.
  EXPECT_EQ(on_ps[0] + on_ps[1] + on_ps[2] + on_ps[3], 10);
  for (int p = 0; p < 4; ++p) {
    EXPECT_GE(on_ps[p], 2);
    EXPECT_LE(on_ps[p], 3);
  }
}

TEST(TrainingDriverTest, SmokeTestTwoMachines) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.mechanism = MechanismKind::kRdmaZeroCopy;
  TrainingDriver driver(config);
  ASSERT_TRUE(driver.Initialize().ok());
  auto ms = driver.MeasureStepTimeMs(3);
  ASSERT_TRUE(ms.ok()) << ms.status();
  EXPECT_GT(*ms, 1.0);     // At least the compute time.
  EXPECT_LT(*ms, 10'000);  // And sane.
}

TEST(TrainingDriverTest, MechanismOrderingOnFcn5) {
  // FCN-5 is communication-bound: the Figure 9 ordering must hold.
  auto step_ms = [](MechanismKind kind) {
    TrainingConfig config;
    config.model = models::Fcn5();
    config.num_machines = 2;
    config.batch_size = 8;
    config.mechanism = kind;
    TrainingDriver driver(config);
    CHECK_OK(driver.Initialize());
    auto ms = driver.MeasureStepTimeMs(3);
    CHECK(ms.ok()) << ms.status();
    return *ms;
  };
  const double zerocp = step_ms(MechanismKind::kRdmaZeroCopy);
  const double cp = step_ms(MechanismKind::kRdmaCp);
  const double rpc_rdma = step_ms(MechanismKind::kGrpcRdma);
  const double rpc_tcp = step_ms(MechanismKind::kGrpcTcp);
  EXPECT_LT(zerocp, cp);
  EXPECT_LT(cp, rpc_rdma);
  EXPECT_LT(rpc_rdma, rpc_tcp);
}

TEST(TrainingDriverTest, LocalModeFasterSmallClusterSlower) {
  // With 1 machine the distributed setup still pays loopback communication;
  // local mode does not (Figure 11's Local line vs 1-server distributed).
  TrainingConfig local;
  local.model = models::Fcn5();
  local.num_machines = 1;
  local.batch_size = 32;
  local.local_only = true;
  TrainingDriver local_driver(local);
  ASSERT_TRUE(local_driver.Initialize().ok());
  auto local_ms = local_driver.MeasureStepTimeMs(3);
  ASSERT_TRUE(local_ms.ok());

  TrainingConfig dist = local;
  dist.local_only = false;
  dist.mechanism = MechanismKind::kRdmaZeroCopy;
  TrainingDriver dist_driver(dist);
  ASSERT_TRUE(dist_driver.Initialize().ok());
  auto dist_ms = dist_driver.MeasureStepTimeMs(3);
  ASSERT_TRUE(dist_ms.ok());
  EXPECT_LT(*local_ms, *dist_ms);
}

TEST(TrainingDriverTest, GpuDirectReducesStepTime) {
  auto step_ms = [](bool gdr) {
    TrainingConfig config;
    config.model = models::Fcn5();
    config.num_machines = 2;
    config.batch_size = 8;
    config.mechanism = MechanismKind::kRdmaZeroCopy;
    config.tensors_on_gpu = true;
    config.gpudirect = gdr;
    TrainingDriver driver(config);
    CHECK_OK(driver.Initialize());
    auto ms = driver.MeasureStepTimeMs(3);
    CHECK(ms.ok()) << ms.status();
    return *ms;
  };
  const double without_gdr = step_ms(false);
  const double with_gdr = step_ms(true);
  EXPECT_LT(with_gdr, without_gdr);
}

TEST(BuildGraphTest, AllReduceGraphHasPerWorkerReplicasAndNoPs) {
  ModelSpec model = models::Fcn5();
  graph::Graph graph;
  ASSERT_TRUE(BuildAllReduceGraph(model, {0, 1}, 8, &graph).ok());
  int variables = 0, applies = 0;
  for (const auto& node : graph.nodes()) {
    // Everything lives on a worker — no PS devices, no cross-device edges.
    EXPECT_EQ(node->device().rfind("worker:", 0), 0u) << node->device();
    if (node->op() == "Variable") ++variables;
    if (node->op() == "ApplySgd") ++applies;
  }
  // Each worker holds its own replica of all 10 variables and applies locally.
  EXPECT_EQ(variables, 2 * 10);
  EXPECT_EQ(applies, 2 * 10);
}

TEST(TrainingDriverTest, AllReduceModeSmokeTest) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.mechanism = MechanismKind::kRdmaZeroCopy;
  config.mode = TrainingMode::kAllReduce;
  TrainingDriver driver(config);
  ASSERT_TRUE(driver.Initialize().ok());
  ASSERT_NE(driver.collective(), nullptr);
  auto ms = driver.MeasureStepTimeMs(3);
  ASSERT_TRUE(ms.ok()) << ms.status();
  EXPECT_GT(*ms, 1.0);
  EXPECT_LT(*ms, 10'000);
  // One all-reduce per step: 2 warmups + 3 measured.
  EXPECT_EQ(driver.collective()->stats().allreduces, 5u);
}

TEST(TrainingDriverTest, GrpcRdmaFailsOnSentenceEmbedding) {
  // Figure 10(c): no gRPC.RDMA curve because TF crashed on the >1 GB tensor.
  TrainingConfig config;
  config.model = models::SentenceEmbedding();
  config.num_machines = 2;
  config.batch_size = 8;
  config.mechanism = MechanismKind::kGrpcRdma;
  TrainingDriver driver(config);
  Status status = driver.Initialize();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1 GB"), std::string::npos) << status;
}

// A bad config or call order comes back as a typed Status, never a CHECK-abort.
TEST(TrainingDriverTest, NoMachinesIsInvalidArgument) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 0;
  TrainingDriver driver(config);
  EXPECT_EQ(driver.Initialize().code(), StatusCode::kInvalidArgument);
}

TEST(TrainingDriverTest, NonPositiveOversubscriptionIsInvalidArgument) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 4;
  config.topology.hosts_per_rack = 2;
  config.topology.oversubscription = 0.0;
  TrainingDriver driver(config);
  EXPECT_EQ(driver.Initialize().code(), StatusCode::kInvalidArgument);
}

// A zero idle poll interval never advances virtual time (the pollers would
// spin until the step deadline), and a max below the base is not a backoff.
TEST(TrainingDriverTest, UnrunnableIdlePollScheduleIsInvalidArgument) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.cost.idle_poll_interval_ns = 3'000;
  config.cost.idle_poll_max_interval_ns = 1'000;
  {
    TrainingDriver driver(config);
    ASSERT_EQ(driver.Initialize().code(), StatusCode::kInvalidArgument);
  }
  config.cost.idle_poll_interval_ns = 0;
  TrainingDriver driver(config);
  EXPECT_EQ(driver.Initialize().code(), StatusCode::kInvalidArgument);
}

TEST(TrainingDriverTest, MeasureZeroStepsIsInvalidArgument) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  TrainingDriver driver(config);
  ASSERT_TRUE(driver.Initialize().ok());
  EXPECT_EQ(driver.MeasureStepTimeMs(0).status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainingDriverTest, ElasticZeroStepsIsInvalidArgument) {
  TrainingConfig config;
  config.model = models::Fcn5();
  config.num_machines = 2;
  config.batch_size = 8;
  config.elastic = true;
  TrainingDriver driver(config);
  ASSERT_TRUE(driver.Initialize().ok());
  EXPECT_EQ(driver.RunElastic(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(driver.RunElastic(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainingDriverTest, RunStepBeforeInitializeIsFailedPrecondition) {
  TrainingConfig config;
  config.model = models::Fcn5();
  TrainingDriver driver(config);
  EXPECT_EQ(driver.RunStep().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace train
}  // namespace rdmadl
