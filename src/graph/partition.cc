#include "src/graph/partition.h"

#include <map>
#include <unordered_map>

#include "src/util/strings.h"

namespace rdmadl {
namespace graph {

namespace {

// Copies a node's metadata (attrs, placement, inference results) onto a node
// freshly added to a partition.
void CopyNodeMeta(const Node& src, Node* dst) {
  dst->set_device(src.device());
  dst->set_output_dtype(src.output_dtype());
  dst->set_output_shape(src.output_shape());
  for (const auto& [key, value] : src.attrs()) {
    dst->SetAttr(key, value);
  }
}

}  // namespace

StatusOr<PartitionResult> PartitionGraph(const Graph& graph) {
  RDMADL_ASSIGN_OR_RETURN(std::vector<Node*> order, graph.TopologicalOrder());

  for (Node* node : order) {
    if (node->device().empty()) {
      return FailedPrecondition(StrCat("node ", node->name(), " has no device assignment"));
    }
    for (Node* ctrl : node->control_inputs()) {
      if (ctrl->device() != node->device()) {
        return Unimplemented(StrCat("control edge crosses devices: ", ctrl->name(), " -> ",
                                    node->name()));
      }
    }
  }

  PartitionResult result;
  std::map<std::string, Graph*> partition_by_device;
  auto get_partition = [&](const std::string& device) -> Graph* {
    auto it = partition_by_device.find(device);
    if (it != partition_by_device.end()) return it->second;
    result.partitions.push_back(GraphPartition{device, std::make_unique<Graph>()});
    Graph* g = result.partitions.back().graph.get();
    partition_by_device[device] = g;
    return g;
  };

  // Original node id -> its copy (in its own device's partition).
  std::unordered_map<int, Node*> copies;
  // (producer id, dst device) -> _Recv copy in the dst partition.
  std::map<std::pair<int, std::string>, Node*> recv_cache;

  for (Node* node : order) {
    Graph* part = get_partition(node->device());
    std::vector<NodeInput> inputs;
    inputs.reserve(node->inputs().size());

    for (const NodeInput& in : node->inputs()) {
      Node* producer = in.node;
      if (producer->device() == node->device()) {
        inputs.push_back(NodeInput{copies.at(producer->id()), in.index});
        continue;
      }
      // Cross-device edge: route through a _Send/_Recv pair, shared by all
      // consumers of |producer| on this device.
      auto cache_key = std::make_pair(producer->id(), node->device());
      auto cached = recv_cache.find(cache_key);
      if (cached != recv_cache.end()) {
        inputs.push_back(NodeInput{cached->second, 0});
        continue;
      }

      Graph* src_part = get_partition(producer->device());
      Node* producer_copy = copies.at(producer->id());
      RDMADL_ASSIGN_OR_RETURN(
          Node * send,
          src_part->AddNode(StrCat("_send_", producer->name(), "_to_", node->device()),
                            "_Send", std::vector<Node*>{producer_copy}));
      send->set_device(producer->device());
      send->set_output_dtype(producer->output_dtype());
      send->set_output_shape(producer->output_shape());
      const int64_t id = static_cast<int64_t>(result.transfers.size());
      send->SetAttr("transfer_id", id);

      RDMADL_ASSIGN_OR_RETURN(
          Node * recv, part->AddNode(StrCat("_recv_", producer->name(), "_at_",
                                            node->device()),
                                     "_Recv", std::vector<Node*>{}));
      recv->set_device(node->device());
      recv->set_output_dtype(producer->output_dtype());
      recv->set_output_shape(producer->output_shape());
      recv->SetAttr("transfer_id", id);

      TransferEdge edge;
      edge.id = static_cast<int>(id);
      edge.key = StrCat(producer->device(), "->", node->device(), ":", producer->name());
      edge.src_device = producer->device();
      edge.dst_device = node->device();
      edge.send_node = send->name();
      edge.recv_node = recv->name();
      edge.producer_id = producer_copy->id();
      edge.dtype = producer->output_dtype();
      edge.shape = producer->output_shape();
      result.transfers.push_back(std::move(edge));

      recv_cache[cache_key] = recv;
      inputs.push_back(NodeInput{recv, 0});
    }

    RDMADL_ASSIGN_OR_RETURN(Node * copy, part->AddNodeWithInputs(node->name(), node->op(), inputs));
    CopyNodeMeta(*node, copy);
    copies[node->id()] = copy;
  }

  // Control edges (same-device by the check above).
  for (Node* node : order) {
    for (Node* ctrl : node->control_inputs()) {
      Graph* part = partition_by_device.at(node->device());
      RDMADL_RETURN_IF_ERROR(
          part->AddControlEdge(copies.at(ctrl->id()), copies.at(node->id())));
    }
  }

  return result;
}

}  // namespace graph
}  // namespace rdmadl
