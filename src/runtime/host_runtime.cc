#include "src/runtime/host_runtime.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"

namespace rdmadl {
namespace runtime {

namespace {

// Virtual address layout for kSimulated mode: each process gets a disjoint
// 1 TB window starting at (index + 2) << 40, carved into sub-ranges. These
// addresses are never dereferenced — allocators only do arithmetic on them —
// and a stray dereference faults loudly instead of corrupting state.
constexpr uint64_t kVirtualWindowBits = 40;
constexpr uint64_t kVirtualDefaultArenaBytes = 512ull << 30;  // 512 GB
constexpr uint64_t kVirtualRdmaOffset = 512ull << 30;
constexpr uint64_t kVirtualGpuOffset = 768ull << 30;

uint64_t VirtualWindowBase(int index) {
  return static_cast<uint64_t>(index + 2) << kVirtualWindowBits;
}

}  // namespace

HostRuntime::HostRuntime(device::DeviceDirectory* directory, const HostRuntimeOptions& options,
                         int index)
    : directory_(directory), options_(options), index_(index), resources_(options.seed) {}

HostRuntime::~HostRuntime() {
  // This body runs before member destruction. Callbacks abandoned inside the
  // device by an aborted step may own tensors whose buffers deallocate
  // through the arenas owned below — drop them while those allocators are
  // still alive.
  if (rdma_device_ != nullptr) rdma_device_->DropPendingCallbacks();
}

StatusOr<std::unique_ptr<HostRuntime>> HostRuntime::Create(device::DeviceDirectory* directory,
                                                           const HostRuntimeOptions& options,
                                                           int index) {
  auto runtime = std::unique_ptr<HostRuntime>(new HostRuntime(directory, options, index));
  RDMADL_ASSIGN_OR_RETURN(
      runtime->rdma_device_,
      device::RdmaDevice::Create(directory, options.num_cqs, options.num_qps_per_peer,
                                 options.endpoint));
  if (runtime->real_memory()) {
    runtime->default_allocator_ = tensor::CpuAllocator::Get();
  } else {
    runtime->virtual_default_allocator_ = std::make_unique<tensor::ArenaAllocator>(
        reinterpret_cast<void*>(VirtualWindowBase(index)), kVirtualDefaultArenaBytes,
        StrCat("virt-host-mem:", options.device_name));
    runtime->default_allocator_ = runtime->virtual_default_allocator_.get();
  }
  return runtime;
}

StatusOr<RdmaArena> HostRuntime::MakeArena(uint64_t size, uint64_t virtual_base,
                                           const char* label) {
  RdmaArena arena;
  RDMADL_ASSIGN_OR_RETURN(arena.region, real_memory()
                                            ? rdma_device_->AllocateMemRegion(size)
                                            : rdma_device_->RegisterMemRegion(virtual_base, size));
  arena.allocator = std::make_unique<tensor::ArenaAllocator>(
      reinterpret_cast<void*>(arena.region.addr()), size,
      StrCat(label, ":", options_.device_name));
  return arena;
}

StatusOr<RdmaArena*> HostRuntime::rdma_arena() { return EnsureRdmaArena(0); }

StatusOr<RdmaArena*> HostRuntime::EnsureRdmaArena(uint64_t min_bytes) {
  if (rdma_arena_.allocator == nullptr) {
    // Headroom over the planner's minimum: transient staging buffers and
    // fragmentation.
    const uint64_t size = std::max(options_.rdma_arena_bytes, min_bytes + min_bytes / 2);
    RDMADL_ASSIGN_OR_RETURN(
        rdma_arena_, MakeArena(size, VirtualWindowBase(index_) + kVirtualRdmaOffset, "rdma"));
  } else if (rdma_arena_.region.size() < min_bytes) {
    return FailedPrecondition(StrCat("RDMA arena of ", rdma_arena_.region.size(),
                                     " bytes already created; planner now needs ", min_bytes));
  }
  return &rdma_arena_;
}

StatusOr<RdmaArena*> HostRuntime::meta_arena() {
  if (meta_arena_.allocator == nullptr) {
    constexpr uint64_t kMetaArenaBytes = 8ull << 20;
    RDMADL_ASSIGN_OR_RETURN(meta_arena_.region, rdma_device_->AllocateMemRegion(kMetaArenaBytes));
    meta_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
        meta_arena_.region.data(), kMetaArenaBytes, StrCat("meta:", options_.device_name));
  }
  return &meta_arena_;
}

StatusOr<RdmaArena*> HostRuntime::gpu_arena() {
  if (gpu_arena_.allocator == nullptr) {
    // GPU memory is a tagged arena. Under GPUDirect it is registered with the
    // NIC exactly like host memory (§3.5: allocate in mapped pinned mode and
    // register); without GDR it stays unregistered and transfers stage
    // through host memory over PCIe.
    const uint64_t size = options_.rdma_arena_bytes;
    const uint64_t vbase = VirtualWindowBase(index_) + kVirtualGpuOffset;
    if (options_.gpudirect) {
      RDMADL_ASSIGN_OR_RETURN(gpu_arena_, MakeArena(size, vbase, "gpu-gdr"));
    } else {
      if (real_memory()) {
        device::ZeroedBytes storage = device::AllocateZeroed(size);
        if (storage == nullptr) {
          return ResourceExhausted(StrCat("GPU arena: cannot allocate ", size, " bytes"));
        }
        gpu_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
            storage.get(), size, StrCat("gpu:", options_.device_name),
            tensor::MemorySpace::kGpu);
        gpu_storage_ = std::move(storage);
      } else {
        gpu_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
            reinterpret_cast<void*>(vbase), size, StrCat("gpu:", options_.device_name),
            tensor::MemorySpace::kGpu);
      }
    }
  }
  return &gpu_arena_;
}

StatusOr<const RdmaArena*> HostRuntime::ArenaFor(const void* ptr) const {
  if (rdma_arena_.Contains(ptr)) return &rdma_arena_;
  if (gpu_arena_.Contains(ptr) && gpu_arena_.region.valid()) return &gpu_arena_;
  if (meta_arena_.Contains(ptr)) return &meta_arena_;
  return FailedPrecondition("pointer is not inside a registered RDMA arena");
}

}  // namespace runtime
}  // namespace rdmadl
