// Operator kernel interface.
//
// Kernels are instantiated per node by the executor. Every kernel allocates
// through OpKernelContext::AllocateOutput or OpKernelContext::Allocate, which
// route through the allocator the runtime chose for that node — this is how
// the RDMA-aware analyzer redirects to-be-transferred tensors into the
// pre-registered RDMA arena (§3.4, "Decide tensor allocation site") — and
// record each buffer, so the executor can hand the node's allocations to the
// analyzer's first-step trace.
//
// Kernels run in one of two compute modes:
//   kReal      — full numeric computation (unit tests, examples);
//   kSimulated — allocation and data-flow only, math elided (paper-scale
//                benchmarks, where time comes from the executor's cost model).
#ifndef RDMADL_SRC_OPS_KERNEL_H_
#define RDMADL_SRC_OPS_KERNEL_H_

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/sim/rng.h"
#include "src/tensor/allocator.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace rdmadl {
namespace ops {

enum class ComputeMode { kReal, kSimulated };

// Per-device persistent state: variable storage and an init RNG. Lives for
// the whole training session, across mini-batch iterations.
class ResourceManager {
 public:
  explicit ResourceManager(uint64_t seed) : rng_(seed) {}

  bool HasVariable(const std::string& name) const { return variables_.count(name) > 0; }
  const tensor::Tensor& GetVariable(const std::string& name) const {
    auto it = variables_.find(name);
    CHECK(it != variables_.end()) << "unknown variable " << name;
    return it->second;
  }
  void PutVariable(const std::string& name, tensor::Tensor tensor) {
    variables_[name] = std::move(tensor);
  }
  // Drops a variable (no-op when absent). Elastic reconfiguration uses this
  // to purge copies whose shard was reassigned to another device.
  void RemoveVariable(const std::string& name) { variables_.erase(name); }
  sim::Rng& rng() { return rng_; }
  const std::unordered_map<std::string, tensor::Tensor>& variables() const {
    return variables_;
  }

 private:
  std::unordered_map<std::string, tensor::Tensor> variables_;
  sim::Rng rng_;
};

class OpKernelContext {
 public:
  OpKernelContext(const graph::Node* node, std::vector<tensor::Tensor> inputs,
                  tensor::Allocator* allocator, ComputeMode mode, ResourceManager* resources,
                  const std::unordered_map<std::string, tensor::Tensor>* feeds)
      : node_(node),
        inputs_(std::move(inputs)),
        allocator_(allocator),
        mode_(mode),
        resources_(resources),
        feeds_(feeds) {}

  const graph::Node& node() const { return *node_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const tensor::Tensor& input(int i) const {
    CHECK_GE(i, 0);
    CHECK_LT(i, num_inputs());
    return inputs_[i];
  }

  bool real_compute() const { return mode_ == ComputeMode::kReal; }
  ComputeMode mode() const { return mode_; }
  ResourceManager* resources() const { return resources_; }

  // Allocates a tensor through the node's allocator and records its buffer.
  tensor::Tensor Allocate(tensor::DType dtype, const tensor::TensorShape& shape) {
    CHECK_LT(num_allocations_, allocations_.size())
        << node_->name() << " allocates more than " << allocations_.size() << " tensors";
    tensor::Tensor t(allocator_, dtype, shape);
    allocations_[num_allocations_++] = t.raw_data();
    return t;
  }
  // Allocates a tensor as Allocate does and sets it as the output.
  tensor::Tensor* AllocateOutput(tensor::DType dtype, const tensor::TensorShape& shape) {
    output_ = Allocate(dtype, shape);
    return &output_;
  }
  // The buffers Allocate and AllocateOutput returned, in call order: the
  // i-th is the node's §3.4 allocation site (node, i).
  std::span<const void* const> allocations() const {
    return {allocations_.data(), num_allocations_};
  }
  // Forwards an existing tensor (buffer sharing; used by Identity, Variable,
  // in-place updates) — no new allocation happens.
  void set_output(tensor::Tensor t) { output_ = std::move(t); }
  const tensor::Tensor& output() const { return output_; }

  // Session feed for Placeholder nodes (keyed by node name).
  StatusOr<tensor::Tensor> feed(const std::string& name) const {
    if (feeds_ != nullptr) {
      auto it = feeds_->find(name);
      if (it != feeds_->end()) return it->second;
    }
    return NotFound("no feed for placeholder " + name);
  }

 private:
  const graph::Node* node_;
  std::vector<tensor::Tensor> inputs_;
  tensor::Allocator* allocator_;
  ComputeMode mode_;
  ResourceManager* resources_;
  const std::unordered_map<std::string, tensor::Tensor>* feeds_;
  tensor::Tensor output_;
  // Inline, so recording never allocates; the built-in kernels allocate at
  // most one tensor per execution.
  std::array<const void*, 4> allocations_{};
  size_t num_allocations_ = 0;
};

class OpKernel {
 public:
  virtual ~OpKernel() = default;
  virtual Status Compute(OpKernelContext* ctx) = 0;
};

using KernelFactory = std::function<std::unique_ptr<OpKernel>(const graph::Node&)>;

class KernelRegistry {
 public:
  static KernelRegistry* Global();

  Status Register(const std::string& op, KernelFactory factory);
  StatusOr<std::unique_ptr<OpKernel>> Create(const graph::Node& node) const;
  bool Has(const std::string& op) const { return factories_.count(op) > 0; }

 private:
  std::unordered_map<std::string, KernelFactory> factories_;
};

class KernelRegistrar {
 public:
  KernelRegistrar(const std::string& op, KernelFactory factory) {
    CHECK_OK(KernelRegistry::Global()->Register(op, std::move(factory)));
  }
};

// Forces registration of all built-in ops and kernels (safe to call more than
// once). Call before building graphs.
void RegisterStandardOps();

}  // namespace ops
}  // namespace rdmadl

#endif  // RDMADL_SRC_OPS_KERNEL_H_
