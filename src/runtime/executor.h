// Executor: runs one graph partition on one process, one mini-batch step at
// a time, over simulated worker contexts.
//
// Scheduling model (mirrors TensorFlow's, §4 of the paper):
//   * nodes whose inputs are all ready sit in a ready queue; a fixed pool of
//     worker contexts pops and executes them;
//   * synchronous ops occupy a worker for their compute cost (from the node's
//     "cost_ns" annotation, scaled by the batch multiplier);
//   * _Send is asynchronous: the worker is held only for the mechanism's
//     synchronous CPU portion; the node completes when the transfer does;
//   * _Recv under a polling mechanism uses the paper's *polling-async* mode:
//     a poll attempt (TryRecv, one check::PollFlag) is cheap; on failure the
//     node is re-enqueued at the TAIL of the ready queue so polling never
//     starves ready work. If only failed polls remain, the next pass waits
//     net::IdlePollBackoffNs (this both models a polling thread yielding and
//     keeps the discrete-event simulation live). That idle kick is a
//     sim::Poller tick: a pass that would only fail every poll again is
//     charged to the stats without running, and costs no event. At the
//     backoff cap (and with no RdmaCheck installed) that miss repeats: the
//     simulator replays the kicks that follow, until something else runs,
//     without calling Tick, and Skipped charges them.
#ifndef RDMADL_SRC_RUNTIME_EXECUTOR_H_
#define RDMADL_SRC_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/ops/kernel.h"
#include "src/runtime/host_runtime.h"
#include "src/runtime/transfer.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace rdmadl {
namespace runtime {

struct ExecutorOptions {
  // Compute-time scale: node cost = kOpDispatchNs + cost_ns_attr * batch_multiplier
  // (executor.cc). The training driver sets the multiplier from the model's
  // GPU-saturation law (flat until the saturation batch, then linear).
  double batch_multiplier = 1.0;
};

struct ExecutorStats {
  int64_t steps = 0;
  int64_t nodes_executed = 0;
  int64_t poll_attempts = 0;
  int64_t failed_polls = 0;
};

class Executor : private sim::Poller {
 public:
  // |edges| is indexed by TransferEdge::id and must outlive the executor.
  Executor(HostRuntime* host, const graph::Graph* graph, TransferMechanism* mechanism,
           const std::vector<graph::TransferEdge>& edges, ExecutorOptions options);

  // Runs the partition once. |feeds| must outlive the step. |on_done| fires
  // in virtual time when every node has completed (or on first error).
  void RunStepAsync(const std::unordered_map<std::string, tensor::Tensor>* feeds,
                    std::function<void(Status)> on_done);

  // Cancels the in-flight step: on_done fires immediately with |status| and
  // every already-scheduled event of the step becomes a no-op (the step epoch
  // advances). Needed when a peer executor fails or a step deadline expires —
  // otherwise late events would touch the dead step's state.
  void Abort(const Status& status);

  bool step_in_flight() const { return in_flight_; }
  const ExecutorStats& stats() const { return stats_; }

  // Tensor produced by |node| during the current/most recent step. |node|
  // must belong to this executor's partition graph.
  const tensor::Tensor* OutputOf(const graph::Node* node) const;
  // Looks the node up by name in the partition graph.
  const tensor::Tensor* OutputOf(const std::string& node_name) const;

 private:
  int64_t CostOf(const graph::Node& node) const;
  const graph::TransferEdge& EdgeOf(const graph::Node& node) const;

  void MaybeDispatch();
  // The idle kick, tagged with its step epoch. A missed kick at the backoff
  // cap repeats; Skipped charges |n| repeats as Tick would.
  Result Tick(uint64_t epoch) override;
  void Skipped(uint64_t epoch, uint64_t n) override;
  // Whether the pass an idle kick starts would fail every poll and re-arm
  // the kick: every queued node is a polling receive that would miss.
  bool IdlePassMisses() const;
  void StartNode(graph::Node* node);
  void StartCompute(graph::Node* node);
  void StartSend(graph::Node* node);
  void StartRecv(graph::Node* node);
  void PollRecv(graph::Node* node);
  void FinishNode(graph::Node* node, tensor::Tensor output);
  void FailStep(const Status& status);
  void ReleaseWorker();

  HostRuntime* host_;
  const graph::Graph* graph_;
  TransferMechanism* mechanism_;
  ExecutorOptions options_;
  ExecutorStats stats_;

  // Immutable after construction.
  enum class NodeKind : uint8_t { kCompute, kSend, kRecv };
  std::vector<std::unique_ptr<ops::OpKernel>> kernels_;  // By node id (null for _Send/_Recv).
  std::vector<int> total_deps_;                          // Inputs + control inputs per node.
  std::vector<NodeKind> kind_;                           // By node id.
  std::vector<const graph::TransferEdge*> edge_of_node_;  // By node id (transfer ops only).
  std::vector<double> cost_ns_;                          // "cost_ns" attr by node id.
  // Trace track names, built once: TraceSpan's arguments are evaluated even
  // when no tracer is installed.
  std::string compute_track_;
  std::string send_track_;

  // Per-step state.
  // Step epoch: advanced by RunStepAsync and Abort. Scheduled closures and
  // mechanism callbacks capture the epoch they were created in and return
  // early if the step has since completed/aborted, so stale events cannot
  // corrupt a later step.
  uint64_t epoch_ = 0;
  bool in_flight_ = false;
  const std::unordered_map<std::string, tensor::Tensor>* feeds_ = nullptr;
  std::function<void(Status)> on_done_;
  std::vector<tensor::Tensor> outputs_;
  std::vector<int> pending_;
  std::deque<graph::Node*> ready_;
  int remaining_ = 0;
  int free_workers_ = 0;
  bool failed_ = false;
  int failed_polls_in_row_ = 0;
  bool delayed_kick_scheduled_ = false;
  int idle_kicks_ = 0;  // Idle kicks since the last successful poll.
};

}  // namespace runtime
}  // namespace rdmadl

#endif  // RDMADL_SRC_RUNTIME_EXECUTOR_H_
