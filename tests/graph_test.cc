#include <gtest/gtest.h>

#include "src/graph/graph.h"
#include "src/graph/op_registry.h"
#include "src/graph/partition.h"
#include "src/ops/kernel.h"

namespace rdmadl {
namespace graph {
namespace {

using tensor::DType;
using tensor::TensorShape;

// Edge ids are 0..n-1 in transfers order, and each edge's _Send/_Recv pair
// carries its id.
void ExpectDenseEdgeIds(const PartitionResult& result) {
  for (size_t i = 0; i < result.transfers.size(); ++i) {
    const TransferEdge& edge = result.transfers[i];
    EXPECT_EQ(edge.id, static_cast<int>(i));
    int found = 0;
    for (const GraphPartition& part : result.partitions) {
      for (const std::string& name : {edge.send_node, edge.recv_node}) {
        const Node* node = part.graph->FindNode(name);
        if (node == nullptr) continue;
        ++found;
        EXPECT_EQ(part.device, name == edge.send_node ? edge.src_device : edge.dst_device);
        EXPECT_EQ(node->GetAttr<int64_t>("transfer_id"), edge.id) << name;
      }
    }
    EXPECT_EQ(found, 2) << edge.key;
  }
}

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override { ops::RegisterStandardOps(); }
  Graph g_;
};

TEST_F(GraphTest, AddNodeAndFind) {
  auto a = g_.AddNode("a", "Const", std::vector<Node*>{});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(g_.FindNode("a"), *a);
  EXPECT_EQ(g_.FindNode("missing"), nullptr);
  EXPECT_EQ((*a)->id(), 0);
  EXPECT_EQ((*a)->op(), "Const");
}

TEST_F(GraphTest, DuplicateNameRejected) {
  ASSERT_TRUE(g_.AddNode("a", "Const", std::vector<Node*>{}).ok());
  EXPECT_EQ(g_.AddNode("a", "Const", std::vector<Node*>{}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GraphTest, EmptyNameRejected) {
  EXPECT_FALSE(g_.AddNode("", "Const", std::vector<Node*>{}).ok());
}

TEST_F(GraphTest, InputsRecordConsumers) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Identity", {a});
  ASSERT_EQ(a->consumers().size(), 1u);
  EXPECT_EQ(a->consumers()[0], b);
  ASSERT_EQ(b->inputs().size(), 1u);
  EXPECT_EQ(b->inputs()[0].node, a);
}

TEST_F(GraphTest, TopologicalOrderRespectsEdges) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Identity", {a});
  Node* c = *g_.AddNode("c", "Identity", {b});
  Node* d = *g_.AddNode("d", "Add", {a, c});
  auto order = g_.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  std::vector<Node*> nodes = *order;
  auto pos = [&](Node* n) {
    return std::find(nodes.begin(), nodes.end(), n) - nodes.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
  EXPECT_LT(pos(c), pos(d));
}

TEST_F(GraphTest, ControlEdgesCountForOrdering) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Const", std::vector<Node*>{});
  ASSERT_TRUE(g_.AddControlEdge(a, b).ok());
  auto order = g_.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ((*order)[0], a);
  EXPECT_EQ((*order)[1], b);
}

TEST_F(GraphTest, ControlEdgeValidation) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  EXPECT_FALSE(g_.AddControlEdge(a, a).ok());
  EXPECT_FALSE(g_.AddControlEdge(nullptr, a).ok());
}

TEST_F(GraphTest, AttrRoundTrip) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  a->SetAttr("shape", TensorShape{3, 4});
  a->SetAttr("fill_value", 2.5);
  a->SetAttr("label", std::string("hello"));
  a->SetAttr("count", int64_t{7});
  a->SetAttr("flag", true);
  EXPECT_EQ(a->GetAttr<TensorShape>("shape"), TensorShape({3, 4}));
  EXPECT_EQ(a->GetAttr<double>("fill_value"), 2.5);
  EXPECT_EQ(a->GetAttr<std::string>("label"), "hello");
  EXPECT_EQ(a->GetAttr<int64_t>("count"), 7);
  EXPECT_TRUE(a->GetAttr<bool>("flag"));
  EXPECT_EQ(a->GetAttrOr<int64_t>("missing", 42), 42);
  EXPECT_TRUE(a->HasAttr("shape"));
  EXPECT_FALSE(a->HasAttr("nope"));
}

TEST_F(GraphTest, OpRegistryFindsStandardOps) {
  OpRegistry* reg = OpRegistry::Global();
  EXPECT_NE(reg->Find("MatMul"), nullptr);
  EXPECT_NE(reg->Find("Variable"), nullptr);
  EXPECT_NE(reg->Find("_Send"), nullptr);
  EXPECT_NE(reg->Find("_Recv"), nullptr);
  EXPECT_EQ(reg->Find("NoSuchOp"), nullptr);
  EXPECT_TRUE(reg->Find("Variable")->is_stateful);
  EXPECT_FALSE(reg->Find("MatMul")->is_stateful);
}

TEST_F(GraphTest, MatMulShapeInference) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Const", std::vector<Node*>{});
  Node* mm = *g_.AddNode("mm", "MatMul", {a, b});
  const OpDef* def = OpRegistry::Global()->Find("MatMul");
  TensorShape out;
  ASSERT_TRUE(def->shape_fn(*mm, {TensorShape{4, 8}, TensorShape{8, 16}}, &out).ok());
  EXPECT_EQ(out, TensorShape({4, 16}));

  // Transposes.
  mm->SetAttr("transpose_a", true);
  ASSERT_TRUE(def->shape_fn(*mm, {TensorShape{8, 4}, TensorShape{8, 16}}, &out).ok());
  EXPECT_EQ(out, TensorShape({4, 16}));

  // Unknown batch dim propagates.
  mm->SetAttr("transpose_a", false);
  ASSERT_TRUE(
      def->shape_fn(*mm, {TensorShape{tensor::kUnknownDim, 8}, TensorShape{8, 16}}, &out)
          .ok());
  EXPECT_EQ(out.dim(0), tensor::kUnknownDim);
  EXPECT_EQ(out.dim(1), 16);

  // Mismatched inner dims rejected.
  EXPECT_FALSE(def->shape_fn(*mm, {TensorShape{4, 8}, TensorShape{9, 16}}, &out).ok());
}

TEST_F(GraphTest, Conv2DShapeInference) {
  Node* conv = *g_.AddNode("conv", "Conv2D", std::vector<Node*>{});
  conv->SetAttr("stride", int64_t{2});
  conv->SetAttr("padding", std::string("same"));
  const OpDef* def = OpRegistry::Global()->Find("Conv2D");
  TensorShape out;
  ASSERT_TRUE(
      def->shape_fn(*conv, {TensorShape{32, 224, 224, 3}, TensorShape{7, 7, 3, 64}}, &out)
          .ok());
  EXPECT_EQ(out, TensorShape({32, 112, 112, 64}));
}

TEST_F(GraphTest, PartitionSingleDeviceNoTransfers) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Identity", {a});
  a->set_device("worker:0");
  b->set_device("worker:0");
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partitions.size(), 1u);
  EXPECT_TRUE(result->transfers.empty());
  EXPECT_EQ(result->partitions[0].graph->num_nodes(), 2);
}

TEST_F(GraphTest, PartitionInsertsSendRecvOnCrossDeviceEdge) {
  Node* w = *g_.AddNode("weight", "Variable", std::vector<Node*>{});
  Node* use = *g_.AddNode("use", "Identity", {w});
  w->set_device("ps:0");
  w->set_output_shape(TensorShape{128, 128});
  use->set_device("worker:0");
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->partitions.size(), 2u);
  ASSERT_EQ(result->transfers.size(), 1u);
  const TransferEdge& edge = result->transfers[0];
  EXPECT_EQ(edge.src_device, "ps:0");
  EXPECT_EQ(edge.dst_device, "worker:0");
  EXPECT_EQ(edge.shape, TensorShape({128, 128}));

  // The send node lives in the ps partition and consumes the weight copy.
  Graph* ps = nullptr;
  Graph* worker = nullptr;
  for (auto& part : result->partitions) {
    if (part.device == "ps:0") ps = part.graph.get();
    if (part.device == "worker:0") worker = part.graph.get();
  }
  ASSERT_NE(ps, nullptr);
  ASSERT_NE(worker, nullptr);
  Node* send = ps->FindNode(edge.send_node);
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->op(), "_Send");
  EXPECT_EQ(send->inputs()[0].node->name(), "weight");
  // The producer is named by its id in the source partition.
  EXPECT_EQ(edge.producer_id, ps->FindNode("weight")->id());
  Node* recv = worker->FindNode(edge.recv_node);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(recv->op(), "_Recv");
  EXPECT_EQ(recv->output_shape(), TensorShape({128, 128}));
  // The consumer reads from the recv node.
  Node* use_copy = worker->FindNode("use");
  ASSERT_NE(use_copy, nullptr);
  EXPECT_EQ(use_copy->inputs()[0].node, recv);
  ExpectDenseEdgeIds(*result);
}

TEST_F(GraphTest, PartitionProducerIdIsTheSendInputsIdInTheSourcePartition) {
  // "scale" precedes the producer in the ps partition, so its id is not 0.
  Node* scale = *g_.AddNode("scale", "Const", std::vector<Node*>{});
  Node* w = *g_.AddNode("weight", "Variable", std::vector<Node*>{});
  Node* use = *g_.AddNode("use", "Identity", {w});
  scale->set_device("ps:0");
  w->set_device("ps:0");
  use->set_device("worker:0");
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->transfers.size(), 1u);
  const TransferEdge& edge = result->transfers[0];
  Graph* ps = nullptr;
  for (auto& part : result->partitions) {
    if (part.device == "ps:0") ps = part.graph.get();
  }
  ASSERT_NE(ps, nullptr);
  const Node* weight = ps->FindNode("weight");
  ASSERT_NE(weight, nullptr);
  EXPECT_EQ(weight->id(), 1);
  EXPECT_EQ(edge.producer_id, weight->id());
  EXPECT_EQ(ps->FindNode(edge.send_node)->inputs()[0].node, weight);
}

TEST_F(GraphTest, PartitionSharesRecvAcrossConsumersOnSameDevice) {
  Node* w = *g_.AddNode("weight", "Variable", std::vector<Node*>{});
  Node* u1 = *g_.AddNode("u1", "Identity", {w});
  Node* u2 = *g_.AddNode("u2", "Identity", {w});
  w->set_device("ps:0");
  u1->set_device("worker:0");
  u2->set_device("worker:0");
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->transfers.size(), 1u);  // One transfer feeds both consumers.
  ExpectDenseEdgeIds(*result);
}

TEST_F(GraphTest, PartitionSeparateTransfersPerDestinationDevice) {
  Node* w = *g_.AddNode("weight", "Variable", std::vector<Node*>{});
  Node* u1 = *g_.AddNode("u1", "Identity", {w});
  Node* u2 = *g_.AddNode("u2", "Identity", {w});
  w->set_device("ps:0");
  u1->set_device("worker:0");
  u2->set_device("worker:1");
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->transfers.size(), 2u);
  ExpectDenseEdgeIds(*result);
}

TEST_F(GraphTest, PartitionRequiresPlacement) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  (void)a;
  EXPECT_EQ(PartitionGraph(g_).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(GraphTest, PartitionRejectsCrossDeviceControlEdge) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  Node* b = *g_.AddNode("b", "Const", std::vector<Node*>{});
  a->set_device("ps:0");
  b->set_device("worker:0");
  ASSERT_TRUE(g_.AddControlEdge(a, b).ok());
  EXPECT_EQ(PartitionGraph(g_).status().code(), StatusCode::kUnimplemented);
}

TEST_F(GraphTest, PartitionRoundTripPreservesAttrs) {
  Node* a = *g_.AddNode("a", "Const", std::vector<Node*>{});
  a->set_device("worker:0");
  a->SetAttr("shape", TensorShape{2});
  a->SetAttr("fill_value", 3.0);
  auto result = PartitionGraph(g_);
  ASSERT_TRUE(result.ok());
  Node* copy = result->partitions[0].graph->FindNode("a");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->GetAttr<double>("fill_value"), 3.0);
  EXPECT_EQ(copy->GetAttr<TensorShape>("shape"), TensorShape({2}));
}

}  // namespace
}  // namespace graph
}  // namespace rdmadl
