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
  // Arenas registered with the NIC directly (virtual-mode data arenas, the
  // meta arena) bypass MemRegion's RAII deregistration — undo them here, or
  // the NIC keeps rkeys naming memory about to be freed (found by RdmaCheck).
  if (rdma_device_ != nullptr) {
    for (RdmaArena* arena : {&rdma_arena_, &gpu_arena_, &meta_arena_}) {
      if (arena->raw_mr.lkey != 0) {
        (void)rdma_device_->nic()->DeregisterMemory(arena->raw_mr);
        arena->raw_mr = rdma::MemoryRegion();
      }
    }
  }
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
  arena.size = size;
  if (real_memory()) {
    RDMADL_ASSIGN_OR_RETURN(arena.region, rdma_device_->AllocateMemRegion(size));
    arena.base_addr = reinterpret_cast<uint64_t>(arena.region.data());
    arena.lkey = arena.region.lkey();
    arena.rkey = arena.region.rkey();
    arena.allocator = std::make_unique<tensor::ArenaAllocator>(
        arena.region.data(), size, StrCat(label, ":", options_.device_name));
  } else {
    void* base = reinterpret_cast<void*>(virtual_base);
    RDMADL_ASSIGN_OR_RETURN(rdma::MemoryRegion mr,
                            rdma_device_->nic()->RegisterMemory(base, size));
    arena.base_addr = virtual_base;
    arena.lkey = mr.lkey;
    arena.rkey = mr.rkey;
    arena.raw_mr = mr;
    arena.allocator = std::make_unique<tensor::ArenaAllocator>(
        base, size, StrCat(label, ":", options_.device_name));
  }
  return arena;
}

StatusOr<RdmaArena*> HostRuntime::rdma_arena() { return EnsureRdmaArena(0); }

StatusOr<RdmaArena*> HostRuntime::EnsureRdmaArena(uint64_t min_bytes) {
  if (!rdma_arena_init_) {
    // Headroom over the planner's minimum: transient staging buffers and
    // fragmentation.
    const uint64_t size = std::max(options_.rdma_arena_bytes, min_bytes + min_bytes / 2);
    RDMADL_ASSIGN_OR_RETURN(
        rdma_arena_, MakeArena(size, VirtualWindowBase(index_) + kVirtualRdmaOffset, "rdma"));
    rdma_arena_init_ = true;
  } else if (rdma_arena_.size < min_bytes) {
    return FailedPrecondition(
        StrCat("RDMA arena of ", rdma_arena_.size, " bytes already created; planner now needs ",
               min_bytes));
  }
  return &rdma_arena_;
}

StatusOr<RdmaArena*> HostRuntime::meta_arena() {
  if (!meta_arena_init_) {
    constexpr uint64_t kMetaArenaBytes = 8ull << 20;
    device::ZeroedBytes storage = device::AllocateZeroed(kMetaArenaBytes);
    if (storage == nullptr) {
      return ResourceExhausted(StrCat("meta arena: cannot allocate ", kMetaArenaBytes, " bytes"));
    }
    RDMADL_ASSIGN_OR_RETURN(rdma::MemoryRegion mr,
                            rdma_device_->nic()->RegisterMemory(storage.get(), kMetaArenaBytes));
    meta_arena_.size = kMetaArenaBytes;
    meta_arena_.base_addr = reinterpret_cast<uint64_t>(storage.get());
    meta_arena_.lkey = mr.lkey;
    meta_arena_.rkey = mr.rkey;
    meta_arena_.raw_mr = mr;
    meta_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
        storage.get(), kMetaArenaBytes, StrCat("meta:", options_.device_name));
    meta_storage_ = std::move(storage);
    meta_arena_init_ = true;
  }
  return &meta_arena_;
}

StatusOr<RdmaArena*> HostRuntime::gpu_arena() {
  if (!gpu_arena_init_) {
    // GPU memory is a tagged arena. Under GPUDirect it is registered with the
    // NIC exactly like host memory (§3.5: allocate in mapped pinned mode and
    // register); without GDR it stays unregistered and transfers stage
    // through host memory over PCIe.
    const uint64_t size = options_.rdma_arena_bytes;
    const uint64_t vbase = VirtualWindowBase(index_) + kVirtualGpuOffset;
    if (options_.gpudirect) {
      RDMADL_ASSIGN_OR_RETURN(gpu_arena_, MakeArena(size, vbase, "gpu-gdr"));
    } else {
      gpu_arena_.size = size;
      if (real_memory()) {
        gpu_arena_.region = device::MemRegion();
        device::ZeroedBytes storage = device::AllocateZeroed(size);
        if (storage == nullptr) {
          return ResourceExhausted(StrCat("GPU arena: cannot allocate ", size, " bytes"));
        }
        gpu_arena_.base_addr = reinterpret_cast<uint64_t>(storage.get());
        gpu_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
            storage.get(), size, StrCat("gpu:", options_.device_name),
            tensor::MemorySpace::kGpu);
        gpu_storage_ = std::move(storage);
      } else {
        gpu_arena_.base_addr = vbase;
        gpu_arena_.allocator = std::make_unique<tensor::ArenaAllocator>(
            reinterpret_cast<void*>(vbase), size, StrCat("gpu:", options_.device_name),
            tensor::MemorySpace::kGpu);
      }
    }
    gpu_arena_init_ = true;
  }
  return &gpu_arena_;
}

StatusOr<const RdmaArena*> HostRuntime::ArenaFor(const void* ptr) const {
  if (rdma_arena_init_ && rdma_arena_.Contains(ptr)) return &rdma_arena_;
  if (gpu_arena_init_ && gpu_arena_.Contains(ptr) && gpu_arena_.lkey != 0) return &gpu_arena_;
  if (meta_arena_init_ && meta_arena_.Contains(ptr)) return &meta_arena_;
  return FailedPrecondition("pointer is not inside a registered RDMA arena");
}

}  // namespace runtime
}  // namespace rdmadl
