// HostRuntime: the per-process execution environment of one simulated server
// process (a worker or a parameter server). It owns the process's allocators,
// its persistent variable state, and its handle to the RDMA device library.
//
// Memory fidelity has two modes, tied to the compute mode:
//   * kReal      — tensor buffers are real memory; RDMA verbs move real bytes
//                  (unit tests, examples, the Figure 8 micro-benchmark).
//   * kSimulated — tensor buffers are *virtual*: allocators hand out addresses
//                  from reserved, never-dereferenced ranges, so an 8-server
//                  VGG-16 run does not materialize gigabytes. All allocator
//                  arithmetic, registration bookkeeping, transfer timing and
//                  protocol state machines run identically; only payload
//                  memcpys are elided (CostModel::copy_payload == false).
#ifndef RDMADL_SRC_RUNTIME_HOST_RUNTIME_H_
#define RDMADL_SRC_RUNTIME_HOST_RUNTIME_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/device/rdma_device.h"
#include "src/ops/kernel.h"
#include "src/tensor/arena_allocator.h"
#include "src/util/endpoint.h"
#include "src/util/status.h"

namespace rdmadl {
namespace runtime {

// An RDMA-registered allocation arena: the §3.4 "preallocate a large enough
// memory buffer to register once" pattern, with key material for one-sided
// access.
struct RdmaArena {
  std::unique_ptr<tensor::ArenaAllocator> allocator;
  uint64_t base_addr = 0;
  uint64_t size = 0;
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  device::MemRegion region;  // Keeps real-mode storage alive (invalid when virtual).
  // Raw NIC registration for arenas that bypass MemRegion (virtual-mode and
  // meta arenas); deregistered by ~HostRuntime. lkey == 0 when unused.
  rdma::MemoryRegion raw_mr;

  bool Contains(const void* ptr) const { return allocator && allocator->Contains(ptr); }
};

struct HostRuntimeOptions {
  std::string device_name;                      // e.g. "worker:0", "ps:1".
  Endpoint endpoint;
  ops::ComputeMode mode = ops::ComputeMode::kReal;
  int num_worker_contexts = 4;                  // Inter-op parallelism.
  uint64_t seed = 1;
  uint64_t rdma_arena_bytes = 256ull << 20;     // Sized by the memory planner.
  bool tensors_on_gpu = false;                  // Worker tensors in GPU memory.
  bool gpudirect = false;                       // GDR enabled (§3.5).
  // Device-library parallelism (§3.1; the paper uses 4 CQs / 4 QPs per peer).
  int num_cqs = 4;
  int num_qps_per_peer = 4;
};

class HostRuntime {
 public:
  // |index| is this process's rank among all processes (used to carve
  // disjoint virtual address ranges).
  static StatusOr<std::unique_ptr<HostRuntime>> Create(device::DeviceDirectory* directory,
                                                       const HostRuntimeOptions& options,
                                                       int index);
  ~HostRuntime();

  const std::string& device_name() const { return options_.device_name; }
  const Endpoint& endpoint() const { return options_.endpoint; }
  const HostRuntimeOptions& options() const { return options_; }
  ops::ComputeMode mode() const { return options_.mode; }
  bool real_memory() const { return options_.mode == ops::ComputeMode::kReal; }

  device::RdmaDevice* rdma_device() const { return rdma_device_.get(); }
  sim::Simulator* simulator() const { return rdma_device_->simulator(); }
  const net::CostModel& cost() const { return rdma_device_->cost(); }
  ops::ResourceManager* resources() { return &resources_; }

  // Default allocator for tensors that never leave the process.
  tensor::Allocator* default_allocator() { return default_allocator_; }
  // The pre-registered RDMA arena (created on first use).
  StatusOr<RdmaArena*> rdma_arena();
  // GPU-memory arena (registered to the NIC only under GPUDirect).
  StatusOr<RdmaArena*> gpu_arena();

  // Ensures the RDMA arena exists and can hold at least |min_bytes| (the
  // memory planner calls this with the analyzer's sizing before first use).
  StatusOr<RdmaArena*> EnsureRdmaArena(uint64_t min_bytes);

  // Small always-real, always-registered arena for protocol control state:
  // dynamic-transfer metadata blocks and flag bytes (§3.2/§3.3). Kept real
  // even in virtual-memory mode so flag polling and metadata parsing run on
  // actual bytes in every configuration.
  StatusOr<RdmaArena*> meta_arena();

  // A communication-side CPU thread (RPC serialization/deserialization,
  // staging memcpys). gRPC runs several such threads per process; each call
  // returns the next lane round-robin — callers keep the returned pointer for
  // all work belonging to one message so intra-message work stays ordered.
  net::Link* comm_cpu() {
    net::Link* lane = &comm_cpu_[next_comm_lane_];
    next_comm_lane_ = (next_comm_lane_ + 1) % kCommCpuLanes;
    return lane;
  }
  static constexpr int kCommCpuLanes = 2;
  // The receive-side completion thread: TF's gRPC/RDMA path drained inbound
  // messages on a single thread per process, so receive-side copies and
  // deserialization serialize here.
  net::Link* comm_cpu_rx() { return &comm_cpu_[0]; }

  // Serialization point for the process's accelerator: annotated compute ops
  // (GPU kernels) execute one at a time on the device, while CPU-side ops
  // (sends, receives, bookkeeping) overlap freely on the worker contexts.
  net::Link* compute_unit() { return &compute_unit_; }

  // Stable TracingAllocator wrapper around |base|, owned by this runtime so
  // it outlives every tensor allocated through it (tensors deallocate via
  // the wrapper). The executor installs/clears the allocation hook.
  tensor::TracingAllocator* tracing_allocator(tensor::Allocator* base);

  // Translates a pointer inside one of the registered arenas into the
  // (lkey, rkey) needed for one-sided verbs; fails for unregistered memory.
  StatusOr<const RdmaArena*> ArenaFor(const void* ptr) const;

 private:
  HostRuntime(device::DeviceDirectory* directory, const HostRuntimeOptions& options, int index);

  StatusOr<RdmaArena> MakeArena(uint64_t size, uint64_t virtual_base, const char* label);

  // NOTE: declaration order is destruction-critical. Members are destroyed
  // in reverse order, and tensor Buffers deallocate through their allocator
  // at destruction: resources_ (variable tensors) must die before the arenas
  // and wrappers they allocate from, and the wrappers before their base
  // arenas would be wrong — hence wrappers first, arenas next, resources last.
  device::DeviceDirectory* directory_;
  HostRuntimeOptions options_;
  int index_;
  std::unique_ptr<device::RdmaDevice> rdma_device_;
  std::unordered_map<tensor::Allocator*, std::unique_ptr<tensor::TracingAllocator>>
      tracing_wrappers_;

  tensor::Allocator* default_allocator_ = nullptr;
  std::unique_ptr<tensor::ArenaAllocator> virtual_default_allocator_;
  RdmaArena rdma_arena_;
  RdmaArena gpu_arena_;
  RdmaArena meta_arena_;
  std::unique_ptr<uint8_t[]> gpu_storage_;  // Real-mode non-GDR GPU backing.
  std::unique_ptr<uint8_t[]> meta_storage_;
  bool rdma_arena_init_ = false;
  bool gpu_arena_init_ = false;
  bool meta_arena_init_ = false;
  net::Link comm_cpu_[kCommCpuLanes] = {net::Link("comm-cpu0"), net::Link("comm-cpu1")};
  int next_comm_lane_ = 0;
  net::Link compute_unit_{"gpu"};
  ops::ResourceManager resources_;
};

}  // namespace runtime
}  // namespace rdmadl

#endif  // RDMADL_SRC_RUNTIME_HOST_RUNTIME_H_
