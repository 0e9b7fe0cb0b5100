// Tensor memory allocators.
//
// The runtime uses two allocator kinds, mirroring §3.4 of the paper:
//   * a normal allocator (CpuAllocator) for tensors that never cross servers;
//   * an ArenaAllocator carving tensors out of one large pre-registered
//     RDMA-accessible region, so to-be-transferred tensors need no extra copy
//     and no per-tensor NIC registration.
// The allocators know nothing of graph nodes: a kernel allocates through its
// ops::OpKernelContext, which records each buffer, and the executor reports a
// node's allocations to the transfer mechanism. That is the dynamic
// allocation-site analysis (analyzer::AllocationSiteTracer): the first
// training iteration maps buffer addresses to the graph node that allocated
// them, and the mechanism then hands those nodes the RDMA arena.
#ifndef RDMADL_SRC_TENSOR_ALLOCATOR_H_
#define RDMADL_SRC_TENSOR_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace rdmadl {
namespace tensor {

enum class MemorySpace { kHost, kGpu };

struct AllocatorStats {
  int64_t allocations = 0;
  int64_t deallocations = 0;
  int64_t bytes_in_use = 0;
  int64_t peak_bytes_in_use = 0;
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  // Returns 64-byte-aligned storage or nullptr when exhausted.
  virtual void* Allocate(size_t bytes) = 0;
  virtual void Deallocate(void* ptr) = 0;

  virtual std::string name() const = 0;
  virtual MemorySpace memory_space() const { return MemorySpace::kHost; }
  virtual const AllocatorStats& stats() const = 0;

  static constexpr size_t kAlignment = 64;
};

// Malloc-backed allocator for tensors that stay local.
class CpuAllocator : public Allocator {
 public:
  void* Allocate(size_t bytes) override;
  void Deallocate(void* ptr) override;
  std::string name() const override { return "cpu"; }
  const AllocatorStats& stats() const override { return stats_; }

  // Process-wide default instance.
  static CpuAllocator* Get();

 private:
  AllocatorStats stats_;
};

}  // namespace tensor
}  // namespace rdmadl

#endif  // RDMADL_SRC_TENSOR_ALLOCATOR_H_
