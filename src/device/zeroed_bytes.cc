#include "src/device/zeroed_bytes.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <limits>

namespace rdmadl {
namespace device {
namespace {

uint64_t PageBytes() {
  static const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return page;
}

uint64_t RoundUp(uint64_t n, uint64_t to) { return (n + to - 1) / to * to; }

// Bytes a page-backed block of |size| maps: its pages plus the guard page.
uint64_t MappedBytes(uint64_t size) { return RoundUp(size, PageBytes()) + PageBytes(); }

}  // namespace

ZeroedBytes AllocateZeroed(uint64_t size) {
  const uint64_t page = PageBytes();
  if (size < page) return ZeroedBytes(static_cast<uint8_t*>(std::calloc(size, 1)));
  if (size > std::numeric_limits<uint64_t>::max() / 2) return nullptr;
  const uint64_t mapped = MappedBytes(size);
  void* base = mmap(nullptr, mapped, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) return nullptr;
  uint8_t* guard = static_cast<uint8_t*>(base) + mapped - page;
  if (mprotect(guard, page, PROT_NONE) != 0) {
    munmap(base, mapped);
    return nullptr;
  }
  // Simulated memory is written sparsely (flags, headers, touched slots): a
  // transparent huge page would make one written byte cost 2 MiB.
  madvise(base, mapped - page, MADV_NOHUGEPAGE);
  return ZeroedBytes(guard - RoundUp(size, kZeroedAlignment), ZeroedFree{size});
}

void ZeroedFree::operator()(uint8_t* p) const {
  if (size < PageBytes()) {
    std::free(p);
    return;
  }
  // The block starts less than a page past its mapping's base.
  const uintptr_t base = reinterpret_cast<uintptr_t>(p) / PageBytes() * PageBytes();
  munmap(reinterpret_cast<void*>(base), MappedBytes(size));
}

}  // namespace device
}  // namespace rdmadl
