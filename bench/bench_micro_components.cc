// Wall-clock microbenchmarks of the library's hot components, using
// google-benchmark. These measure the *implementation* (how fast the
// simulator and allocators run on the build machine), complementing the
// paper-reproduction benches which measure *virtual* time.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"
#include "src/graph/graph.h"
#include "src/net/fabric.h"
#include "src/ops/kernel.h"
#include "src/rdma/verbs.h"
#include "src/sim/simulator.h"
#include "src/tensor/arena_allocator.h"
#include "src/tensor/tensor.h"

namespace rdmadl {
namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int64_t counter = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.ScheduleAt(i, [&counter]() { ++counter; });
    }
    benchmark::DoNotOptimize(simulator.Run());
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_ArenaAllocateFree(benchmark::State& state) {
  std::vector<uint8_t> storage(64 << 20);
  tensor::ArenaAllocator arena(storage.data(), storage.size(), "bench");
  const size_t size = state.range(0);
  for (auto _ : state) {
    // const: GCC under ASan miscompiles DoNotOptimize's read-write asm
    // operand on a non-const lvalue, handing Deallocate a stack address.
    void* const p = arena.Allocate(size);
    benchmark::DoNotOptimize(p);
    arena.Deallocate(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaAllocateFree)->Arg(256)->Arg(64 << 10)->Arg(4 << 20);

void BM_ArenaFragmentationChurn(benchmark::State& state) {
  std::vector<uint8_t> storage(64 << 20);
  tensor::ArenaAllocator arena(storage.data(), storage.size(), "bench");
  sim::Rng rng(11);
  std::vector<void*> live;
  for (auto _ : state) {
    if (live.size() < 256 && (live.empty() || rng.UniformDouble() < 0.6)) {
      void* p = arena.Allocate(64 + rng.Uniform(32 << 10));
      if (p != nullptr) live.push_back(p);
    } else if (!live.empty()) {
      size_t idx = rng.Uniform(live.size());
      arena.Deallocate(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) arena.Deallocate(p);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaFragmentationChurn);

// Wall-clock of the fabric bulk-transfer path: one large transfer is split
// into per-MTU segments, each a scheduled delivery event. This is the bench
// behind the Fabric::Transfer allocation rework — it counts segment events
// processed per second, so per-segment heap churn shows up directly.
void BM_FabricBulkTransfer(benchmark::State& state) {
  const uint64_t bytes = state.range(0);
  net::CostModel cost;
  uint64_t segments = 0;  // Segments of the last transfer (all are identical).
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Fabric fabric(&simulator, cost, 2);
    bool done = false;
    segments = 0;
    fabric.Transfer(0, 1, bytes, net::Plane::kRdma, 0,
                    [&segments](uint64_t, uint64_t) { ++segments; },
                    [&done](const Status& status) { done = status.ok(); });
    benchmark::DoNotOptimize(simulator.Run());
    CHECK(done);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(segments));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FabricBulkTransfer)->Arg(1 << 20)->Arg(32 << 20);

void BM_MatMulKernel(benchmark::State& state) {
  ops::RegisterStandardOps();
  const int64_t n = state.range(0);
  graph::Graph graph;
  graph::Node* node = *graph.AddNode("mm", "MatMul", std::vector<graph::Node*>{});
  auto kernel = ops::KernelRegistry::Global()->Create(*node);
  tensor::Tensor a(tensor::CpuAllocator::Get(), tensor::DType::kFloat32,
                   tensor::TensorShape{n, n});
  tensor::Tensor b(tensor::CpuAllocator::Get(), tensor::DType::kFloat32,
                   tensor::TensorShape{n, n});
  ops::ResourceManager resources(1);
  for (auto _ : state) {
    ops::OpKernelContext ctx(node, {a, b}, tensor::CpuAllocator::Get(),
                             ops::ComputeMode::kReal, &resources, nullptr);
    benchmark::DoNotOptimize((*kernel)->Compute(&ctx));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
}
BENCHMARK(BM_MatMulKernel)->Arg(16)->Arg(64);

// Wall-clock of the scatter/gather posting path: one WriteGather call with N
// extents, run to completion. The engine keeps its flattening scratch
// (gather_scratch_) and stripe plan (pieces_) hoisted as members —
// cleared, never shrunk — so steady-state iterations allocate nothing per
// extent while planning. Per-extent heap churn in the posting path shows up
// directly as a drop in extents/second here.
void BM_TransferEngineGatherPost(benchmark::State& state) {
  const int num_extents = static_cast<int>(state.range(0));
  // Small extents keep the wire simulation (one segment per extent) cheap, so
  // the posting-path overhead dominates the measurement.
  constexpr uint64_t kExtentBytes = 1 << 10;

  net::CostModel cost;
  sim::Simulator simulator;
  net::Fabric fabric(&simulator, cost, 2);
  rdma::RdmaFabric rdma(&fabric);
  device::DeviceDirectory directory(&rdma);
  auto src_dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2, /*num_qps=*/4,
                                            Endpoint{0, 7000});
  auto dst_dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2, /*num_qps=*/4,
                                            Endpoint{1, 7000});
  CHECK(src_dev.ok() && dst_dev.ok());

  const uint64_t total = kExtentBytes * static_cast<uint64_t>(num_extents);
  auto src = (*src_dev)->AllocateMemRegion(total);
  auto dst = (*dst_dev)->AllocateMemRegion(total);
  auto src_flag = (*src_dev)->AllocateMemRegion(1);
  auto dst_flag = (*dst_dev)->AllocateMemRegion(1);
  CHECK(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
  src_flag->data()[0] = 1;

  comm::TransferEngine engine(src_dev->get(), comm::TransferEngineOptions{});

  std::vector<comm::TransferEngine::WriteDesc> extents(num_extents);
  for (int i = 0; i < num_extents; ++i) {
    const uint64_t off = static_cast<uint64_t>(i) * kExtentBytes;
    extents[i] = {src->data() + off, src->lkey(), dst->Remote().addr + off,
                  dst->rkey(), kExtentBytes, /*copy_bytes=*/true};
  }
  comm::TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                       dst_flag->Remote().addr, dst_flag->rkey(), 1,
                                       /*copy_bytes=*/true};

  for (auto _ : state) {
    dst_flag->data()[0] = 0;
    bool done = false;
    comm::TransferEngine::Route route = engine.WriteGather(
        (*dst_dev)->endpoint(), extents, flag, /*lane_hint=*/0,
        [&done](const Status& status) { done = status.ok(); });
    CHECK(route == comm::TransferEngine::Route::kScatterGather);
    CHECK(simulator.RunUntilPredicate([&] { return done; }).ok());
    CHECK(done);
  }
  state.SetItemsProcessed(state.iterations() * num_extents);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(total));
}
BENCHMARK(BM_TransferEngineGatherPost)->Arg(16)->Arg(256);

void BM_GraphTopologicalSort(benchmark::State& state) {
  ops::RegisterStandardOps();
  graph::Graph graph;
  graph::Node* prev = *graph.AddNode("n0", "Const", std::vector<graph::Node*>{});
  for (int i = 1; i < 500; ++i) {
    // Built in two steps: GCC 12's -Wrestrict misfires on the rvalue
    // `const char* + std::string&&` concatenation here.
    std::string name = "n";
    name += std::to_string(i);
    prev = *graph.AddNode(name, "Identity", {prev});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.TopologicalOrder());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_GraphTopologicalSort);

}  // namespace
}  // namespace rdmadl

BENCHMARK_MAIN();
