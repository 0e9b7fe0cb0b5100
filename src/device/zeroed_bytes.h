// device::AllocateZeroed, the one allocator behind simulated host memory.
#ifndef RDMADL_SRC_DEVICE_ZEROED_BYTES_H_
#define RDMADL_SRC_DEVICE_ZEROED_BYTES_H_

#include <cstdint>
#include <memory>

namespace rdmadl {
namespace device {

// Zeroed byte storage for simulated host memory: region storage, RPC blocks
// and the runtime's real-memory arenas.
//
// A block of a page or more is its own anonymous mapping, returned to the
// OS when the block is freed. Its pages come zero from the OS and are
// faulted in one at a time on first touch, so nothing is ever memset, a
// page the simulation never writes (a virtual payload's) is never resident,
// and a set-up that follows a free costs the same as the first. The block
// ends at a PROT_NONE guard page, or at most kZeroedAlignment - 1 bytes
// before it, so a write past its end faults, under ASan too (ASan puts no
// redzones around mapped memory). Smaller blocks come from calloc.
//
// Null when the memory cannot be had; callers turn that into
// kResourceExhausted.
struct ZeroedFree {
  uint64_t size = 0;
  void operator()(uint8_t* p) const;
};
using ZeroedBytes = std::unique_ptr<uint8_t, ZeroedFree>;
ZeroedBytes AllocateZeroed(uint64_t size);

// Alignment of a page-backed block's first byte: the 64 bytes every
// tensor::Allocator promises, since arena allocators carve from these blocks
// at aligned offsets.
inline constexpr uint64_t kZeroedAlignment = 64;

}  // namespace device
}  // namespace rdmadl

#endif  // RDMADL_SRC_DEVICE_ZEROED_BYTES_H_
