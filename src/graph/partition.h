// Graph partitioning (§2.1 / Figure 2): splits a placed graph into one
// subgraph per device and inserts paired _Send/_Recv nodes on every edge that
// crosses devices — exactly how TensorFlow materializes cross-server data
// flow. The returned TransferEdge records are what the RDMA-aware analyzer
// consumes to plan buffer preallocation and address distribution. Each edge
// is identified by its index in PartitionResult::transfers, which its
// _Send/_Recv pair carries as the "transfer_id" attribute; the session, the
// executor and the transfer mechanisms index their per-edge state by it.
#ifndef RDMADL_SRC_GRAPH_PARTITION_H_
#define RDMADL_SRC_GRAPH_PARTITION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/status.h"

namespace rdmadl {
namespace graph {

struct GraphPartition {
  std::string device;
  std::unique_ptr<Graph> graph;
};

// One cross-device tensor edge, after partitioning.
struct TransferEdge {
  int id = 0;               // Index in PartitionResult::transfers.
  std::string key;          // "<src>-><dst>:<producer>"; a label for traces and logs.
  std::string src_device;
  std::string dst_device;
  std::string send_node;    // _Send node name in the source partition.
  std::string recv_node;    // _Recv node name in the destination partition.
  int producer_id = 0;      // Id of the node feeding the _Send, in the source partition.
  tensor::DType dtype = tensor::DType::kFloat32;
  tensor::TensorShape shape;  // Static shape if the analyzer inferred one.
};

struct PartitionResult {
  std::vector<GraphPartition> partitions;
  std::vector<TransferEdge> transfers;
};

// Every node must have a device assigned. Control edges may not cross
// devices (the training drivers never create such edges; step-level
// synchronization is the session's job).
StatusOr<PartitionResult> PartitionGraph(const Graph& graph);

}  // namespace graph
}  // namespace rdmadl

#endif  // RDMADL_SRC_GRAPH_PARTITION_H_
