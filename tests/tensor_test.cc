#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/sim/rng.h"
#include "src/tensor/arena_allocator.h"
#include "src/tensor/tensor.h"

namespace rdmadl {
namespace tensor {
namespace {

TEST(DTypeTest, SizesAndNames) {
  EXPECT_EQ(DTypeSize(DType::kFloat32), 4u);
  EXPECT_EQ(DTypeSize(DType::kFloat64), 8u);
  EXPECT_EQ(DTypeSize(DType::kInt32), 4u);
  EXPECT_EQ(DTypeSize(DType::kInt64), 8u);
  EXPECT_EQ(DTypeSize(DType::kUInt8), 1u);
  EXPECT_EQ(DTypeSize(DType::kInvalid), 0u);
  EXPECT_STREQ(DTypeName(DType::kFloat32), "float32");
}

TEST(ShapeTest, BasicProperties) {
  TensorShape s{2, 3, 4};
  EXPECT_EQ(s.num_dims(), 3);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_TRUE(s.IsFullyDefined());
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.ToString(), "[2,3,4]");
}

TEST(ShapeTest, ScalarShape) {
  TensorShape s;
  EXPECT_EQ(s.num_dims(), 0);
  EXPECT_TRUE(s.IsFullyDefined());
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(ShapeTest, UnknownDims) {
  TensorShape s{kUnknownDim, 128};
  EXPECT_FALSE(s.IsFullyDefined());
  EXPECT_EQ(s.ToString(), "[?,128]");
  s.set_dim(0, 32);
  EXPECT_TRUE(s.IsFullyDefined());
  EXPECT_EQ(s.num_elements(), 32 * 128);
}

TEST(ShapeTest, Compatibility) {
  TensorShape partial{kUnknownDim, 128};
  TensorShape full{32, 128};
  TensorShape wrong{32, 64};
  TensorShape other_rank{32};
  EXPECT_TRUE(partial.IsCompatibleWith(full));
  EXPECT_TRUE(full.IsCompatibleWith(partial));
  EXPECT_FALSE(full.IsCompatibleWith(wrong));
  EXPECT_FALSE(partial.IsCompatibleWith(wrong));  // Known dims still must match.
  EXPECT_TRUE(TensorShape({kUnknownDim, 64}).IsCompatibleWith(wrong));
  EXPECT_FALSE(partial.IsCompatibleWith(other_rank));
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(TensorShape({1, 2}), TensorShape({1, 2}));
  EXPECT_NE(TensorShape({1, 2}), TensorShape({2, 1}));
  EXPECT_NE(TensorShape({kUnknownDim}), TensorShape({1}));
}

TEST(CpuAllocatorTest, AllocatesAlignedMemory) {
  CpuAllocator* alloc = CpuAllocator::Get();
  void* p = alloc->Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Allocator::kAlignment, 0u);
  alloc->Deallocate(p);
}

TEST(CpuAllocatorTest, TracksStats) {
  CpuAllocator alloc;
  void* a = alloc.Allocate(1000);
  void* b = alloc.Allocate(2000);
  EXPECT_EQ(alloc.stats().allocations, 2);
  EXPECT_EQ(alloc.stats().bytes_in_use, 3000);
  alloc.Deallocate(a);
  EXPECT_EQ(alloc.stats().bytes_in_use, 2000);
  EXPECT_EQ(alloc.stats().peak_bytes_in_use, 3000);
  alloc.Deallocate(b);
  EXPECT_EQ(alloc.stats().bytes_in_use, 0);
}

class ArenaTest : public ::testing::Test {
 protected:
  ArenaTest() : storage_(1 << 20), arena_(storage_.data(), storage_.size(), "test") {}
  std::vector<uint8_t> storage_;
  ArenaAllocator arena_;
};

TEST_F(ArenaTest, AllocationsComeFromArena) {
  void* p = arena_.Allocate(4096);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(arena_.Contains(p));
  EXPECT_GE(p, storage_.data());
  EXPECT_LT(p, storage_.data() + storage_.size());
}

TEST_F(ArenaTest, ExhaustionReturnsNull) {
  void* p = arena_.Allocate(storage_.size());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena_.Allocate(64), nullptr);
  arena_.Deallocate(p);
  EXPECT_NE(arena_.Allocate(64), nullptr);
}

TEST_F(ArenaTest, FreeCoalescingAllowsFullReuse) {
  // Allocate the whole arena in pieces, free in a scattered order, then
  // allocate the whole arena again — only possible if coalescing works.
  std::vector<void*> blocks;
  const size_t piece = 1 << 14;
  while (void* p = arena_.Allocate(piece)) blocks.push_back(p);
  EXPECT_GT(blocks.size(), 10u);
  for (size_t i = 0; i < blocks.size(); i += 2) arena_.Deallocate(blocks[i]);
  for (size_t i = 1; i < blocks.size(); i += 2) arena_.Deallocate(blocks[i]);
  EXPECT_EQ(arena_.largest_free_block(), storage_.size());
  void* all = arena_.Allocate(storage_.size());
  EXPECT_NE(all, nullptr);
}

TEST_F(ArenaTest, BestFitPrefersSmallestBlock) {
  void* a = arena_.Allocate(1 << 18);  // 256 KB
  void* b = arena_.Allocate(64);       // Splits off after a.
  arena_.Deallocate(a);                // Now free: 256 KB hole + tail.
  void* c = arena_.Allocate(1 << 10);  // 1 KB: should land in the 256 KB hole.
  EXPECT_EQ(c, a);
  arena_.Deallocate(b);
  arena_.Deallocate(c);
}

TEST_F(ArenaTest, OffsetOf) {
  void* p = arena_.Allocate(128);
  EXPECT_EQ(arena_.OffsetOf(p),
            reinterpret_cast<uintptr_t>(p) - reinterpret_cast<uintptr_t>(storage_.data()));
  arena_.Deallocate(p);
}

TEST_F(ArenaTest, StatsTrackUsage) {
  void* p = arena_.Allocate(100);  // Rounded to 128.
  EXPECT_EQ(arena_.stats().bytes_in_use, 128);
  arena_.Deallocate(p);
  EXPECT_EQ(arena_.stats().bytes_in_use, 0);
  EXPECT_EQ(arena_.stats().allocations, 1);
  EXPECT_EQ(arena_.stats().deallocations, 1);
}

TEST_F(ArenaTest, ManyRandomAllocationsConserveSpace) {
  // Property: after freeing everything, the arena is one free block again.
  sim::Rng rng(99);
  std::vector<void*> live;
  for (int round = 0; round < 2000; ++round) {
    if (live.empty() || rng.UniformDouble() < 0.6) {
      void* p = arena_.Allocate(64 + rng.Uniform(8192));
      if (p != nullptr) live.push_back(p);
    } else {
      size_t idx = rng.Uniform(live.size());
      arena_.Deallocate(live[idx]);
      live.erase(live.begin() + idx);
    }
  }
  for (void* p : live) arena_.Deallocate(p);
  EXPECT_EQ(arena_.stats().bytes_in_use, 0);
  EXPECT_EQ(arena_.largest_free_block(), storage_.size());
}

TEST(TensorTest, AllocatesAndAccesses) {
  Tensor t(CpuAllocator::Get(), DType::kFloat32, TensorShape{2, 3});
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.num_elements(), 6);
  EXPECT_EQ(t.TotalBytes(), 24u);
  for (int i = 0; i < 6; ++i) t.at<float>(i) = static_cast<float>(i);
  EXPECT_EQ(t.at<float>(4), 4.0f);
}

TEST(TensorTest, CopySharesBuffer) {
  Tensor a(CpuAllocator::Get(), DType::kFloat32, TensorShape{4});
  a.at<float>(0) = 1.0f;
  Tensor b = a;
  b.at<float>(0) = 2.0f;
  EXPECT_EQ(a.at<float>(0), 2.0f);
  EXPECT_EQ(a.raw_data(), b.raw_data());
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a(CpuAllocator::Get(), DType::kFloat32, TensorShape{4});
  a.at<float>(0) = 1.0f;
  Tensor b = a.Clone(CpuAllocator::Get());
  b.at<float>(0) = 2.0f;
  EXPECT_EQ(a.at<float>(0), 1.0f);
  EXPECT_NE(a.raw_data(), b.raw_data());
}

TEST(TensorTest, ReshapedAliasesStorage) {
  Tensor a(CpuAllocator::Get(), DType::kFloat32, TensorShape{2, 6});
  Tensor b = a.Reshaped(TensorShape{3, 4});
  EXPECT_EQ(a.raw_data(), b.raw_data());
  EXPECT_EQ(b.shape(), TensorShape({3, 4}));
}

TEST(TensorTest, BufferLargerThanTensorAllowed) {
  // Receiver-side tensors of the zero-copy protocol reserve a tail flag byte.
  auto buffer = std::make_shared<Buffer>(CpuAllocator::Get(), 4 * 10 + 1);
  Tensor t(buffer, DType::kFloat32, TensorShape{10});
  EXPECT_EQ(t.TotalBytes(), 40u);
  EXPECT_EQ(t.buffer()->size(), 41u);
}

TEST(TensorTest, DebugString) {
  Tensor t(CpuAllocator::Get(), DType::kFloat32, TensorShape{8});
  EXPECT_EQ(t.DebugString(), "Tensor<float32[8], 32 B>");
  EXPECT_EQ(Tensor().DebugString(), "Tensor<invalid>");
}

TEST(TensorTest, ExternalBufferNotFreed) {
  std::vector<uint8_t> storage(64);
  {
    auto buffer = std::make_shared<Buffer>(storage.data(), storage.size());
    Tensor t(buffer, DType::kUInt8, TensorShape{64});
    t.at<uint8_t>(0) = 0x55;
  }
  EXPECT_EQ(storage[0], 0x55);  // Still alive and written.
}

}  // namespace
}  // namespace tensor
}  // namespace rdmadl
