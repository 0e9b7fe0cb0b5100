#include <gtest/gtest.h>

#include "src/analyzer/allocation_tracer.h"
#include "src/analyzer/shape_inference.h"
#include "src/graph/graph.h"
#include "src/ops/kernel.h"

namespace rdmadl {
namespace analyzer {
namespace {

using graph::Graph;
using graph::Node;
using tensor::kUnknownDim;
using tensor::TensorShape;

class ShapeInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override { ops::RegisterStandardOps(); }
  Graph g_;
};

TEST_F(ShapeInferenceTest, PropagatesStaticShapesThroughChain) {
  Node* w = *g_.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{64, 32});
  Node* x = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{16, 64});
  Node* h = *g_.AddNode("h", "MatMul", {x, w});
  Node* a = *g_.AddNode("a", "Sigmoid", {h});
  ASSERT_TRUE(RunShapeInference(&g_).ok());
  EXPECT_EQ(h->output_shape(), TensorShape({16, 32}));
  EXPECT_EQ(a->output_shape(), TensorShape({16, 32}));
  EXPECT_TRUE(a->has_static_shape());
}

TEST_F(ShapeInferenceTest, UnknownBatchDimStaysUnknown) {
  Node* x = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{kUnknownDim, 64});
  Node* w = *g_.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{64, 32});
  Node* h = *g_.AddNode("h", "MatMul", {x, w});
  ASSERT_TRUE(RunShapeInference(&g_).ok());
  EXPECT_FALSE(h->has_static_shape());
  EXPECT_EQ(h->output_shape().dim(1), 32);
  // But the weight itself is static: exactly the §3.2/§3.3 split.
  EXPECT_TRUE(w->has_static_shape());
}

TEST_F(ShapeInferenceTest, ReductionCollapsesUnknownToScalar) {
  Node* x = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{kUnknownDim, 64});
  Node* r = *g_.AddNode("r", "ReduceMax", {x});
  ASSERT_TRUE(RunShapeInference(&g_).ok());
  EXPECT_TRUE(r->has_static_shape());
  EXPECT_EQ(r->output_shape().num_dims(), 0);
}

TEST_F(ShapeInferenceTest, FailsOnUnregisteredOp) {
  ASSERT_TRUE(g_.AddNode("weird", "NotAnOp", std::vector<Node*>{}).ok());
  EXPECT_EQ(RunShapeInference(&g_).code(), StatusCode::kNotFound);
}

TEST_F(ShapeInferenceTest, StatsCountStaticAndDynamic) {
  Node* x = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  x->SetAttr("shape", TensorShape{kUnknownDim, 8});
  Node* w = *g_.AddNode("w", "Variable", std::vector<Node*>{});
  w->SetAttr("shape", TensorShape{8, 8});
  Node* h = *g_.AddNode("h", "MatMul", {x, w});
  (void)h;
  ASSERT_TRUE(RunShapeInference(&g_).ok());
  ShapeInferenceStats stats = ComputeShapeStats(g_);
  EXPECT_EQ(stats.total_nodes, 3);
  EXPECT_EQ(stats.static_nodes, 1);
  EXPECT_EQ(stats.dynamic_nodes, 2);
}

TEST(AllocationTracerTest, RecordsLatestAllocationPerAddress) {
  AllocationSiteTracer tracer;
  int dummy1 = 0, dummy2 = 0;
  const void* node1[] = {&dummy1};
  tracer.RecordAllocations(1, node1);
  // Same address reused by node 2: latest info wins (the paper's overwrite
  // rule).
  const void* node2[] = {&dummy1, &dummy2};
  tracer.RecordAllocations(2, node2);
  EXPECT_EQ(tracer.RecordTransfer(&dummy1), AllocationSiteTracer::Site(2, 0));
  EXPECT_TRUE(tracer.InHotSet(2));
  EXPECT_FALSE(tracer.InHotSet(1));
}

TEST(AllocationTracerTest, UnknownAddressNotPromoted) {
  AllocationSiteTracer tracer;
  int dummy = 0;
  EXPECT_FALSE(tracer.RecordTransfer(&dummy));
  EXPECT_EQ(tracer.hot_set_size(), 0u);
}

TEST(AllocationTracerTest, NodeWithoutAllocationsRecordsNothing) {
  AllocationSiteTracer tracer;
  int dummy = 0;
  tracer.RecordAllocations(1, {});
  EXPECT_EQ(tracer.traced_addresses(), 0u);
  EXPECT_FALSE(tracer.RecordTransfer(&dummy));
}

TEST(AllocationTracerTest, TransferAfterTheTracedStepStillPromotes) {
  AllocationSiteTracer tracer;
  int dummy = 0;
  const void* node7[] = {&dummy};
  tracer.RecordAllocations(7, node7);
  // The mechanism records only the first step, but transfers keep resolving
  // against the recorded map after it.
  EXPECT_EQ(tracer.RecordTransfer(&dummy), AllocationSiteTracer::Site(7, 0));
  EXPECT_TRUE(tracer.InHotSet(7));
}

TEST(AllocationTracerTest, AllocationIndexDistinguishesSites) {
  AllocationSiteTracer tracer;
  int a = 0, b = 0;
  const void* node3[] = {&a, &b};  // Sites (3, 0) and (3, 1).
  tracer.RecordAllocations(3, node3);
  EXPECT_EQ(tracer.RecordTransfer(&b), AllocationSiteTracer::Site(3, 1));
  EXPECT_TRUE(tracer.InHotSet(3));
  EXPECT_EQ(tracer.hot_set_size(), 1u);
}

TEST(AllocationTracerTest, MarkHotSeedsTheHotSetByNodeId) {
  AllocationSiteTracer tracer;
  tracer.MarkHot(5);
  EXPECT_TRUE(tracer.InHotSet(5));
  EXPECT_FALSE(tracer.InHotSet(4));
  EXPECT_FALSE(tracer.InHotSet(6));
  EXPECT_FALSE(tracer.InHotSet(1000));
  EXPECT_EQ(tracer.traced_addresses(), 0u);
}

}  // namespace
}  // namespace analyzer
}  // namespace rdmadl
