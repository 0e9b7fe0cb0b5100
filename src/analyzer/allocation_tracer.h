// Dynamic allocation-site analysis (§3.4, "Decide tensor allocation site").
//
// During the first mini-batch iteration every node's allocations are
// recorded: buffer address -> allocating graph node, latest write wins. The
// kernels report them (ops::OpKernelContext::allocations) and the transfer
// mechanism decides which step is traced. When a _Send node transfers a
// tensor, the address map reveals which node actually allocated that buffer
// — which is not necessarily the _Send's direct predecessor, because ops
// like Identity, Reshape and ApplySgd pass buffers through without
// allocating. Those allocation sites form the set S; in subsequent
// iterations the runtime redirects allocations by nodes in S to the
// RDMA-registered arena, making every to-be-transferred tensor
// RDMA-accessible with no extra copy.
#ifndef RDMADL_SRC_ANALYZER_ALLOCATION_TRACER_H_
#define RDMADL_SRC_ANALYZER_ALLOCATION_TRACER_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rdmadl {
namespace analyzer {

class AllocationSiteTracer {
 public:
  // An allocation site: (graph node id, i-th allocation within one execution
  // of that node). Our kernels allocate exactly one output, so the index is
  // almost always 0, but the pair is kept for fidelity to the paper.
  using Site = std::pair<int, int>;

  // Records the buffers one execution of |node_id| allocated, in call order:
  // the i-th is site (node_id, i).
  void RecordAllocations(int node_id, std::span<const void* const> buffers) {
    for (size_t i = 0; i < buffers.size(); ++i) {
      by_addr_[buffers[i]] = Site{node_id, static_cast<int>(i)};  // Latest info wins.
    }
  }

  // Called when a tensor at |ptr| is about to be transferred: promotes its
  // allocation site into set S and returns it, or nullopt when the address
  // was never recorded.
  std::optional<Site> RecordTransfer(const void* ptr) {
    auto it = by_addr_.find(ptr);
    if (it == by_addr_.end()) return std::nullopt;
    MarkHot(it->second.first);
    return it->second;
  }

  // Puts every allocation of |node_id| in set S (static producers: nodes
  // known to feed a _Send before any step runs).
  void MarkHot(int node_id) {
    if (node_id >= static_cast<int>(hot_.size())) hot_.resize(node_id + 1, false);
    hot_[node_id] = true;
  }

  // Whether allocations of |node_id| should come from the RDMA arena. Any
  // allocation index of the node qualifies (kernels allocate once).
  bool InHotSet(int node_id) const {
    return node_id < static_cast<int>(hot_.size()) && hot_[node_id];
  }

  size_t hot_set_size() const { return std::count(hot_.begin(), hot_.end(), true); }
  size_t traced_addresses() const { return by_addr_.size(); }

 private:
  std::unordered_map<const void*, Site> by_addr_;
  std::vector<bool> hot_;  // By node id.
};

}  // namespace analyzer
}  // namespace rdmadl

#endif  // RDMADL_SRC_ANALYZER_ALLOCATION_TRACER_H_
