#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/graph/graph.h"
#include "src/ops/kernel.h"
#include "src/tensor/tensor.h"

namespace rdmadl {
namespace ops {
namespace {

using graph::Graph;
using graph::Node;
using tensor::CpuAllocator;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorShape;

class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardOps(); }

  Tensor MakeTensor(const TensorShape& shape, std::vector<float> values) {
    Tensor t(CpuAllocator::Get(), DType::kFloat32, shape);
    CHECK_EQ(static_cast<int64_t>(values.size()), t.num_elements());
    for (int64_t i = 0; i < t.num_elements(); ++i) t.at<float>(i) = values[i];
    return t;
  }

  // Runs one kernel standalone.
  StatusOr<Tensor> Run(Node* node, std::vector<Tensor> inputs,
                       ComputeMode mode = ComputeMode::kReal) {
    auto kernel = KernelRegistry::Global()->Create(*node);
    RDMADL_RETURN_IF_ERROR(kernel.status());
    OpKernelContext ctx(node, std::move(inputs), CpuAllocator::Get(), mode, &resources_,
                        &feeds_);
    RDMADL_RETURN_IF_ERROR((*kernel)->Compute(&ctx));
    return ctx.output();
  }

  Graph g_;
  ResourceManager resources_{42};
  std::unordered_map<std::string, Tensor> feeds_;
};

TEST_F(OpsTest, ConstFillsValue) {
  Node* n = *g_.AddNode("c", "Const", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{3});
  n->SetAttr("fill_value", 2.5);
  auto out = Run(n, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at<float>(0), 2.5f);
  EXPECT_EQ(out->at<float>(2), 2.5f);
}

TEST_F(OpsTest, ContextReportsAllocationsInCallOrder) {
  Node* n = *g_.AddNode("n", "Identity", std::vector<Node*>{});
  OpKernelContext ctx(n, {}, CpuAllocator::Get(), ComputeMode::kReal, &resources_, &feeds_);
  EXPECT_TRUE(ctx.allocations().empty());
  Tensor scratch = ctx.Allocate(DType::kFloat32, TensorShape{2});
  const void* output = ctx.AllocateOutput(DType::kFloat32, TensorShape{3})->raw_data();
  ctx.set_output(scratch);  // Forwarding a buffer allocates nothing.
  ASSERT_EQ(ctx.allocations().size(), 2u);
  EXPECT_EQ(ctx.allocations()[0], scratch.raw_data());
  EXPECT_EQ(ctx.allocations()[1], output);
}

TEST_F(OpsTest, VariableReportsItsBufferOnlyWhenItAllocates) {
  Node* n = *g_.AddNode("v", "Variable", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{4});
  auto kernel = KernelRegistry::Global()->Create(*n);
  ASSERT_TRUE(kernel.ok());
  OpKernelContext first(n, {}, CpuAllocator::Get(), ComputeMode::kReal, &resources_, &feeds_);
  ASSERT_TRUE((*kernel)->Compute(&first).ok());
  ASSERT_EQ(first.allocations().size(), 1u);
  EXPECT_EQ(first.allocations()[0], first.output().raw_data());
  // Later steps share the persistent buffer through set_output.
  OpKernelContext second(n, {}, CpuAllocator::Get(), ComputeMode::kReal, &resources_, &feeds_);
  ASSERT_TRUE((*kernel)->Compute(&second).ok());
  EXPECT_TRUE(second.allocations().empty());
  EXPECT_EQ(second.output().raw_data(), first.output().raw_data());
}

TEST_F(OpsTest, PlaceholderReadsFeed) {
  Node* n = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{tensor::kUnknownDim, 2});
  feeds_["x"] = MakeTensor(TensorShape{1, 2}, {5, 6});
  auto out = Run(n, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at<float>(1), 6.0f);
}

TEST_F(OpsTest, PlaceholderRejectsBadShape) {
  Node* n = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{tensor::kUnknownDim, 3});
  feeds_["x"] = MakeTensor(TensorShape{1, 2}, {5, 6});
  EXPECT_EQ(Run(n, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OpsTest, PlaceholderWithoutFeedFails) {
  Node* n = *g_.AddNode("x", "Placeholder", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{2});
  EXPECT_EQ(Run(n, {}).status().code(), StatusCode::kNotFound);
}

TEST_F(OpsTest, VariablePersistsAcrossExecutions) {
  Node* n = *g_.AddNode("w", "Variable", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{4});
  n->SetAttr("init", std::string("zeros"));
  auto first = Run(n, {});
  ASSERT_TRUE(first.ok());
  first->at<float>(0) = 7.0f;  // Mutate the persistent buffer.
  auto second = Run(n, {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->at<float>(0), 7.0f);
  EXPECT_EQ(first->raw_data(), second->raw_data());
}

TEST_F(OpsTest, VariableUniformInitWithinScale) {
  Node* n = *g_.AddNode("w", "Variable", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{100});
  n->SetAttr("init", std::string("uniform"));
  n->SetAttr("init_scale", 0.5);
  auto out = Run(n, {});
  ASSERT_TRUE(out.ok());
  bool nonzero = false;
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(std::abs(out->at<float>(i)), 0.5f);
    if (out->at<float>(i) != 0.0f) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST_F(OpsTest, IdentityAliasesInput) {
  Node* n = *g_.AddNode("id", "Identity", std::vector<Node*>{});
  Tensor in = MakeTensor(TensorShape{2}, {1, 2});
  auto out = Run(n, {in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->raw_data(), in.raw_data());
}

TEST_F(OpsTest, MatMulComputesProduct) {
  Node* n = *g_.AddNode("mm", "MatMul", std::vector<Node*>{});
  Tensor a = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(TensorShape{3, 2}, {7, 8, 9, 10, 11, 12});
  auto out = Run(n, {a, b});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({2, 2}));
  EXPECT_EQ(out->at<float>(0), 58.0f);   // 1*7+2*9+3*11
  EXPECT_EQ(out->at<float>(1), 64.0f);
  EXPECT_EQ(out->at<float>(2), 139.0f);
  EXPECT_EQ(out->at<float>(3), 154.0f);
}

TEST_F(OpsTest, MatMulTransposeVariantsAgree) {
  Tensor a = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(TensorShape{3, 2}, {7, 8, 9, 10, 11, 12});
  Node* plain = *g_.AddNode("mm", "MatMul", std::vector<Node*>{});
  auto expected = Run(plain, {a, b});
  ASSERT_TRUE(expected.ok());

  // a^T stored transposed: compute (a^T)^T * b with transpose_a.
  Tensor at = MakeTensor(TensorShape{3, 2}, {1, 4, 2, 5, 3, 6});
  Node* ta = *g_.AddNode("mm_ta", "MatMul", std::vector<Node*>{});
  ta->SetAttr("transpose_a", true);
  auto got_a = Run(ta, {at, b});
  ASSERT_TRUE(got_a.ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got_a->at<float>(i), expected->at<float>(i));

  Tensor bt = MakeTensor(TensorShape{2, 3}, {7, 9, 11, 8, 10, 12});
  Node* tb = *g_.AddNode("mm_tb", "MatMul", std::vector<Node*>{});
  tb->SetAttr("transpose_b", true);
  auto got_b = Run(tb, {a, bt});
  ASSERT_TRUE(got_b.ok());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got_b->at<float>(i), expected->at<float>(i));
}

TEST_F(OpsTest, MatMulRejectsMismatch) {
  Node* n = *g_.AddNode("mm", "MatMul", std::vector<Node*>{});
  Tensor a = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(TensorShape{2, 2}, {1, 2, 3, 4});
  EXPECT_FALSE(Run(n, {a, b}).ok());
}

TEST_F(OpsTest, BinaryOps) {
  Tensor a = MakeTensor(TensorShape{3}, {1, 2, 3});
  Tensor b = MakeTensor(TensorShape{3}, {10, 20, 30});
  auto add = Run(*g_.AddNode("add", "Add", std::vector<Node*>{}), {a, b});
  auto sub = Run(*g_.AddNode("sub", "Sub", std::vector<Node*>{}), {a, b});
  auto mul = Run(*g_.AddNode("mul", "Mul", std::vector<Node*>{}), {a, b});
  ASSERT_TRUE(add.ok() && sub.ok() && mul.ok());
  EXPECT_EQ(add->at<float>(2), 33.0f);
  EXPECT_EQ(sub->at<float>(2), -27.0f);
  EXPECT_EQ(mul->at<float>(2), 90.0f);
}

TEST_F(OpsTest, BiasAddBroadcastsOverRows) {
  Tensor x = MakeTensor(TensorShape{2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = MakeTensor(TensorShape{3}, {10, 20, 30});
  auto out = Run(*g_.AddNode("ba", "BiasAdd", std::vector<Node*>{}), {x, b});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at<float>(0), 10.0f);
  EXPECT_EQ(out->at<float>(4), 21.0f);
}

TEST_F(OpsTest, ActivationsAndTheirGradients) {
  Tensor x = MakeTensor(TensorShape{3}, {-1, 0, 2});
  auto sig = Run(*g_.AddNode("sig", "Sigmoid", std::vector<Node*>{}), {x});
  ASSERT_TRUE(sig.ok());
  EXPECT_NEAR(sig->at<float>(1), 0.5f, 1e-6);
  EXPECT_NEAR(sig->at<float>(2), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);

  auto relu = Run(*g_.AddNode("relu", "Relu", std::vector<Node*>{}), {x});
  ASSERT_TRUE(relu.ok());
  EXPECT_EQ(relu->at<float>(0), 0.0f);
  EXPECT_EQ(relu->at<float>(2), 2.0f);

  auto tanh_out = Run(*g_.AddNode("tanh", "Tanh", std::vector<Node*>{}), {x});
  ASSERT_TRUE(tanh_out.ok());
  EXPECT_NEAR(tanh_out->at<float>(2), std::tanh(2.0f), 1e-6);

  // Sigmoid gradient check against finite differences at x=2.
  Tensor dy = MakeTensor(TensorShape{3}, {1, 1, 1});
  auto dsig = Run(*g_.AddNode("dsig", "SigmoidGrad", std::vector<Node*>{}), {*sig, dy});
  ASSERT_TRUE(dsig.ok());
  const float eps = 1e-3f;
  const float f1 = 1.0f / (1.0f + std::exp(-(2.0f + eps)));
  const float f0 = 1.0f / (1.0f + std::exp(-(2.0f - eps)));
  EXPECT_NEAR(dsig->at<float>(2), (f1 - f0) / (2 * eps), 1e-3);
}

TEST_F(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 0, 0, 0});
  auto out = Run(*g_.AddNode("sm", "Softmax", std::vector<Node*>{}), {x});
  ASSERT_TRUE(out.ok());
  float row0 = out->at<float>(0) + out->at<float>(1) + out->at<float>(2);
  float row1 = out->at<float>(3) + out->at<float>(4) + out->at<float>(5);
  EXPECT_NEAR(row0, 1.0f, 1e-6);
  EXPECT_NEAR(row1, 1.0f, 1e-6);
  EXPECT_NEAR(out->at<float>(3), 1.0f / 3, 1e-6);
  EXPECT_GT(out->at<float>(2), out->at<float>(1));
}

TEST_F(OpsTest, SoftmaxXentLossMatchesHandComputation) {
  // Uniform logits, one-hot label: loss = log(C).
  Tensor logits = MakeTensor(TensorShape{1, 4}, {0, 0, 0, 0});
  Tensor labels = MakeTensor(TensorShape{1, 4}, {0, 1, 0, 0});
  auto loss = Run(*g_.AddNode("l", "SoftmaxXentLoss", std::vector<Node*>{}), {logits, labels});
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(loss->at<float>(0), std::log(4.0f), 1e-5);
}

TEST_F(OpsTest, SoftmaxXentGradIsProbsMinusLabelsOverBatch) {
  Tensor logits = MakeTensor(TensorShape{1, 2}, {0, 0});
  Tensor labels = MakeTensor(TensorShape{1, 2}, {1, 0});
  auto grad = Run(*g_.AddNode("g", "SoftmaxXentGrad", std::vector<Node*>{}), {logits, labels});
  ASSERT_TRUE(grad.ok());
  EXPECT_NEAR(grad->at<float>(0), 0.5f - 1.0f, 1e-6);
  EXPECT_NEAR(grad->at<float>(1), 0.5f, 1e-6);
}

TEST_F(OpsTest, BiasAddGradSumsOverBatch) {
  Tensor dy = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  auto out = Run(*g_.AddNode("bg", "BiasAddGrad", std::vector<Node*>{}), {dy});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({3}));
  EXPECT_EQ(out->at<float>(0), 5.0f);
  EXPECT_EQ(out->at<float>(2), 9.0f);
}

TEST_F(OpsTest, Reductions) {
  Tensor x = MakeTensor(TensorShape{4}, {3, -1, 7, 1});
  auto max = Run(*g_.AddNode("max", "ReduceMax", std::vector<Node*>{}), {x});
  auto sum = Run(*g_.AddNode("sum", "ReduceSum", std::vector<Node*>{}), {x});
  auto mean = Run(*g_.AddNode("mean", "ReduceMean", std::vector<Node*>{}), {x});
  ASSERT_TRUE(max.ok() && sum.ok() && mean.ok());
  EXPECT_EQ(max->at<float>(0), 7.0f);
  EXPECT_EQ(sum->at<float>(0), 10.0f);
  EXPECT_EQ(mean->at<float>(0), 2.5f);
}

TEST_F(OpsTest, ReshapeResolvesWildcard) {
  Node* n = *g_.AddNode("rs", "Reshape", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{tensor::kUnknownDim, 2});
  Tensor x = MakeTensor(TensorShape{2, 3}, {1, 2, 3, 4, 5, 6});
  auto out = Run(n, {x});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({3, 2}));
  EXPECT_EQ(out->raw_data(), x.raw_data());
}

TEST_F(OpsTest, ApplySgdUpdatesInPlace) {
  Node* n = *g_.AddNode("sgd", "ApplySgd", std::vector<Node*>{});
  n->SetAttr("learning_rate", 0.5);
  Tensor var = MakeTensor(TensorShape{2}, {1.0f, 2.0f});
  Tensor grad = MakeTensor(TensorShape{2}, {2.0f, 2.0f});
  auto out = Run(n, {var, grad});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(var.at<float>(0), 0.0f);
  EXPECT_EQ(var.at<float>(1), 1.0f);
  EXPECT_EQ(out->raw_data(), var.raw_data());
}

TEST_F(OpsTest, Conv2DIdentityFilterPreservesInput) {
  // 1x1 filter with a single 1.0: convolution is identity.
  Node* n = *g_.AddNode("conv", "Conv2D", std::vector<Node*>{});
  n->SetAttr("stride", int64_t{1});
  n->SetAttr("padding", std::string("same"));
  Tensor x = MakeTensor(TensorShape{1, 2, 2, 1}, {1, 2, 3, 4});
  Tensor f = MakeTensor(TensorShape{1, 1, 1, 1}, {1});
  auto out = Run(n, {x, f});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({1, 2, 2, 1}));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out->at<float>(i), x.at<float>(i));
}

TEST_F(OpsTest, Conv2DSumFilter) {
  // 2x2 valid convolution with all-ones filter sums each window.
  Node* n = *g_.AddNode("conv", "Conv2D", std::vector<Node*>{});
  n->SetAttr("stride", int64_t{1});
  n->SetAttr("padding", std::string("valid"));
  Tensor x = MakeTensor(TensorShape{1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor f = MakeTensor(TensorShape{2, 2, 1, 1}, {1, 1, 1, 1});
  auto out = Run(n, {x, f});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({1, 2, 2, 1}));
  EXPECT_EQ(out->at<float>(0), 12.0f);  // 1+2+4+5
  EXPECT_EQ(out->at<float>(3), 28.0f);  // 5+6+8+9
}

TEST_F(OpsTest, MaxPoolPicksWindowMax) {
  Node* n = *g_.AddNode("pool", "MaxPool", std::vector<Node*>{});
  n->SetAttr("ksize", int64_t{2});
  n->SetAttr("stride", int64_t{2});
  Tensor x = MakeTensor(TensorShape{1, 2, 2, 1}, {1, 9, 3, 4});
  auto out = Run(n, {x});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({1, 1, 1, 1}));
  EXPECT_EQ(out->at<float>(0), 9.0f);
}

TEST_F(OpsTest, SimOpProducesAttrShape) {
  Node* n = *g_.AddNode("sim", "SimOp", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{8, 16});
  auto out = Run(n, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({8, 16}));
}

TEST_F(OpsTest, SimOpInheritsBatchDimFromInput) {
  Node* n = *g_.AddNode("sim", "SimOp", std::vector<Node*>{});
  n->SetAttr("shape", TensorShape{tensor::kUnknownDim, 16});
  Tensor in = MakeTensor(TensorShape{4, 2}, {0, 0, 0, 0, 0, 0, 0, 0});
  auto out = Run(n, {in});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({4, 16}));
}

TEST_F(OpsTest, SimulatedModeSkipsMathButAllocates) {
  Node* n = *g_.AddNode("mm", "MatMul", std::vector<Node*>{});
  Tensor a = MakeTensor(TensorShape{64, 64}, std::vector<float>(64 * 64, 1.0f));
  auto out = Run(n, {a, a}, ComputeMode::kSimulated);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), TensorShape({64, 64}));
  EXPECT_TRUE(out->valid());  // Buffer exists even though math was skipped.
}

TEST_F(OpsTest, UnknownOpHasNoKernel) {
  Node* n = *g_.AddNode("weird", "NoSuchOp", std::vector<Node*>{});
  EXPECT_EQ(KernelRegistry::Global()->Create(*n).status().code(), StatusCode::kNotFound);
}

TEST_F(OpsTest, SendRecvHaveNoRegisteredKernels) {
  // Transfer ops are handled by the runtime's transfer mechanism directly.
  EXPECT_FALSE(KernelRegistry::Global()->Has("_Send"));
  EXPECT_FALSE(KernelRegistry::Global()->Has("_Recv"));
}

}  // namespace
}  // namespace ops
}  // namespace rdmadl
