// Built-in operator definitions (shape inference) and CPU kernels.
//
// Math kernels implement real float32 computation, used by the unit tests and
// the runnable examples; in ComputeMode::kSimulated the executor elides the
// math loops and only the allocation/data-flow side effects happen.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/graph/op_registry.h"
#include "src/ops/kernel.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace ops {
namespace {

using graph::Node;
using graph::OpDef;
using graph::OpRegistry;
using tensor::DType;
using tensor::kUnknownDim;
using tensor::Tensor;
using tensor::TensorShape;

// ---------------------------------------------------------------------------
// Shape functions
// ---------------------------------------------------------------------------

Status MatMulShape(const Node& node, const std::vector<TensorShape>& in, TensorShape* out) {
  if (in.size() != 2 || in[0].num_dims() != 2 || in[1].num_dims() != 2) {
    return InvalidArgument(StrCat("MatMul ", node.name(), " expects two rank-2 inputs"));
  }
  const bool ta = node.GetAttrOr<bool>("transpose_a", false);
  const bool tb = node.GetAttrOr<bool>("transpose_b", false);
  const int64_t m = ta ? in[0].dim(1) : in[0].dim(0);
  const int64_t ka = ta ? in[0].dim(0) : in[0].dim(1);
  const int64_t kb = tb ? in[1].dim(1) : in[1].dim(0);
  const int64_t n = tb ? in[1].dim(0) : in[1].dim(1);
  if (ka >= 0 && kb >= 0 && ka != kb) {
    return InvalidArgument(StrCat("MatMul ", node.name(), " inner dims mismatch: ", ka,
                                  " vs ", kb));
  }
  *out = TensorShape{m, n};
  return OkStatus();
}

Status Conv2DShape(const Node& node, const std::vector<TensorShape>& in, TensorShape* out) {
  if (in.size() != 2 || in[0].num_dims() != 4 || in[1].num_dims() != 4) {
    return InvalidArgument("Conv2D expects NHWC input and KKCF filter");
  }
  const int64_t stride = node.GetAttrOr<int64_t>("stride", 1);
  const std::string padding = node.GetAttrOr<std::string>("padding", "same");
  const int64_t n = in[0].dim(0);
  const int64_t h = in[0].dim(1);
  const int64_t w = in[0].dim(2);
  const int64_t kh = in[1].dim(0);
  const int64_t kw = in[1].dim(1);
  const int64_t f = in[1].dim(3);
  auto out_dim = [&](int64_t size, int64_t k) -> int64_t {
    if (size < 0) return kUnknownDim;
    if (padding == "same") return (size + stride - 1) / stride;
    return (size - k) / stride + 1;
  };
  *out = TensorShape{n, out_dim(h, kh), out_dim(w, kw), f};
  return OkStatus();
}

Status MaxPoolShape(const Node& node, const std::vector<TensorShape>& in, TensorShape* out) {
  if (in.size() != 1 || in[0].num_dims() != 4) {
    return InvalidArgument("MaxPool expects one NHWC input");
  }
  const int64_t k = node.GetAttrOr<int64_t>("ksize", 2);
  const int64_t stride = node.GetAttrOr<int64_t>("stride", 2);
  auto out_dim = [&](int64_t size) -> int64_t {
    if (size < 0) return kUnknownDim;
    return (size - k) / stride + 1;
  };
  *out = TensorShape{in[0].dim(0), out_dim(in[0].dim(1)), out_dim(in[0].dim(2)), in[0].dim(3)};
  return OkStatus();
}

Status BiasAddGradShape(const Node& node, const std::vector<TensorShape>& in,
                        TensorShape* out) {
  if (in.size() != 1 || in[0].num_dims() < 1) {
    return InvalidArgument("BiasAddGrad expects one input of rank >= 1");
  }
  *out = TensorShape{in[0].dim(in[0].num_dims() - 1)};
  return OkStatus();
}

Status ReshapeShape(const Node& node, const std::vector<TensorShape>& in, TensorShape* out) {
  if (in.size() != 1) return InvalidArgument("Reshape expects one input");
  TensorShape target = node.GetAttr<TensorShape>("shape");
  // Resolve a single -1 dimension if the input element count is known.
  int unknown_index = -1;
  int64_t known_product = 1;
  for (int i = 0; i < target.num_dims(); ++i) {
    if (target.dim(i) == kUnknownDim) {
      if (unknown_index >= 0) return InvalidArgument("Reshape with multiple -1 dims");
      unknown_index = i;
    } else {
      known_product *= target.dim(i);
    }
  }
  if (unknown_index >= 0 && in[0].IsFullyDefined() && known_product > 0) {
    target.set_dim(unknown_index, in[0].num_elements() / known_product);
  }
  *out = target;
  return OkStatus();
}

// _Recv: the partitioner annotated the node with the producer's shape.
Status RecvShape(const Node& node, const std::vector<TensorShape>& in, TensorShape* out) {
  *out = node.output_shape();
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

class ConstKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const TensorShape shape = ctx->node().GetAttr<TensorShape>("shape");
    const double fill = ctx->node().GetAttrOr<double>("fill_value", 0.0);
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, shape);
    if (ctx->real_compute()) {
      float* data = out->data<float>();
      std::fill(data, data + out->num_elements(), static_cast<float>(fill));
    }
    return OkStatus();
  }
};

class PlaceholderKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    RDMADL_ASSIGN_OR_RETURN(Tensor fed, ctx->feed(ctx->node().name()));
    const TensorShape declared = ctx->node().GetAttr<TensorShape>("shape");
    if (!declared.IsCompatibleWith(fed.shape())) {
      return InvalidArgument(StrCat("feed for ", ctx->node().name(), " has shape ",
                                    fed.shape().ToString(), ", expected ",
                                    declared.ToString()));
    }
    ctx->set_output(std::move(fed));
    return OkStatus();
  }
};

class VariableKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    ResourceManager* rm = ctx->resources();
    const std::string& name = ctx->node().name();
    if (!rm->HasVariable(name)) {
      const TensorShape shape = ctx->node().GetAttr<TensorShape>("shape");
      Tensor var = ctx->Allocate(DType::kFloat32, shape);
      if (ctx->real_compute()) {
        const std::string init = ctx->node().GetAttrOr<std::string>("init", "zeros");
        float* data = var.data<float>();
        const int64_t n = var.num_elements();
        if (init == "zeros") {
          std::fill(data, data + n, 0.0f);
        } else if (init == "uniform") {
          const double scale = ctx->node().GetAttrOr<double>("init_scale", 0.1);
          for (int64_t i = 0; i < n; ++i) {
            data[i] = static_cast<float>(rm->rng().UniformDouble(-scale, scale));
          }
        } else if (init == "normal") {
          const double scale = ctx->node().GetAttrOr<double>("init_scale", 0.1);
          for (int64_t i = 0; i < n; ++i) {
            data[i] = static_cast<float>(rm->rng().Normal(0.0, scale));
          }
        } else {
          return InvalidArgument(StrCat("unknown variable init: ", init));
        }
      }
      rm->PutVariable(name, std::move(var));
    }
    ctx->set_output(rm->GetVariable(name));  // Shares the persistent buffer.
    return OkStatus();
  }
};

class IdentityKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    // Pass-through: the output aliases the input buffer. This is exactly the
    // in-place behaviour that defeats naive "allocated by my predecessor"
    // reasoning and motivates the dynamic allocation-site analysis (§3.4).
    ctx->set_output(ctx->input(0));
    return OkStatus();
  }
};

class MatMulKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    const Tensor& b = ctx->input(1);
    const bool ta = ctx->node().GetAttrOr<bool>("transpose_a", false);
    const bool tb = ctx->node().GetAttrOr<bool>("transpose_b", false);
    const int64_t m = ta ? a.shape().dim(1) : a.shape().dim(0);
    const int64_t k = ta ? a.shape().dim(0) : a.shape().dim(1);
    const int64_t kb = tb ? b.shape().dim(1) : b.shape().dim(0);
    const int64_t n = tb ? b.shape().dim(0) : b.shape().dim(1);
    if (k != kb) {
      return InvalidArgument(StrCat("MatMul inner dimension mismatch: ", k, " vs ", kb));
    }
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, TensorShape{m, n});
    if (!ctx->real_compute()) return OkStatus();
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* po = out->data<float>();
    const int64_t lda = a.shape().dim(1);
    const int64_t ldb = b.shape().dim(1);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0;
        for (int64_t x = 0; x < k; ++x) {
          const float va = ta ? pa[x * lda + i] : pa[i * lda + x];
          const float vb = tb ? pb[j * ldb + x] : pb[x * ldb + j];
          acc += va * vb;
        }
        po[i * n + j] = acc;
      }
    }
    return OkStatus();
  }
};

class Conv2DKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);   // [N,H,W,C]
    const Tensor& f = ctx->input(1);   // [KH,KW,C,F]
    const int64_t stride = ctx->node().GetAttrOr<int64_t>("stride", 1);
    const std::string padding = ctx->node().GetAttrOr<std::string>("padding", "same");
    std::vector<TensorShape> in_shapes{x.shape(), f.shape()};
    TensorShape out_shape;
    RDMADL_RETURN_IF_ERROR(Conv2DShape(ctx->node(), in_shapes, &out_shape));
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, out_shape);
    if (!ctx->real_compute()) return OkStatus();

    const int64_t n = x.shape().dim(0), h = x.shape().dim(1), w = x.shape().dim(2),
                  c = x.shape().dim(3);
    const int64_t kh = f.shape().dim(0), kw = f.shape().dim(1), nf = f.shape().dim(3);
    const int64_t oh = out_shape.dim(1), ow = out_shape.dim(2);
    const int64_t pad_h = (padding == "same") ? ((oh - 1) * stride + kh - h) / 2 : 0;
    const int64_t pad_w = (padding == "same") ? ((ow - 1) * stride + kw - w) / 2 : 0;
    const float* px = x.data<float>();
    const float* pf = f.data<float>();
    float* po = out->data<float>();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          for (int64_t of = 0; of < nf; ++of) {
            float acc = 0;
            for (int64_t ki = 0; ki < kh; ++ki) {
              const int64_t yi = i * stride + ki - pad_h;
              if (yi < 0 || yi >= h) continue;
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t xj = j * stride + kj - pad_w;
                if (xj < 0 || xj >= w) continue;
                for (int64_t ci = 0; ci < c; ++ci) {
                  acc += px[((b * h + yi) * w + xj) * c + ci] *
                         pf[((ki * kw + kj) * c + ci) * nf + of];
                }
              }
            }
            po[((b * oh + i) * ow + j) * nf + of] = acc;
          }
        }
      }
    }
    return OkStatus();
  }
};

class MaxPoolKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    const int64_t k = ctx->node().GetAttrOr<int64_t>("ksize", 2);
    const int64_t stride = ctx->node().GetAttrOr<int64_t>("stride", 2);
    std::vector<TensorShape> in_shapes{x.shape()};
    TensorShape out_shape;
    RDMADL_RETURN_IF_ERROR(MaxPoolShape(ctx->node(), in_shapes, &out_shape));
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, out_shape);
    if (!ctx->real_compute()) return OkStatus();
    const int64_t n = x.shape().dim(0), h = x.shape().dim(1), w = x.shape().dim(2),
                  c = x.shape().dim(3);
    const int64_t oh = out_shape.dim(1), ow = out_shape.dim(2);
    const float* px = x.data<float>();
    float* po = out->data<float>();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          for (int64_t ci = 0; ci < c; ++ci) {
            float best = -1e30f;
            for (int64_t ki = 0; ki < k; ++ki) {
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t yi = i * stride + ki;
                const int64_t xj = j * stride + kj;
                if (yi >= h || xj >= w) continue;
                best = std::max(best, px[((b * h + yi) * w + xj) * c + ci]);
              }
            }
            po[((b * oh + i) * ow + j) * c + ci] = best;
          }
        }
      }
    }
    return OkStatus();
  }
};

enum class BinaryOp { kAdd, kSub, kMul };

template <BinaryOp kOp>
class BinaryKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    const Tensor& b = ctx->input(1);
    if (a.shape() != b.shape()) {
      return InvalidArgument(StrCat("elementwise op shape mismatch: ", a.shape().ToString(),
                                    " vs ", b.shape().ToString()));
    }
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, a.shape());
    if (!ctx->real_compute()) return OkStatus();
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* po = out->data<float>();
    const int64_t n = a.num_elements();
    for (int64_t i = 0; i < n; ++i) {
      if constexpr (kOp == BinaryOp::kAdd) po[i] = pa[i] + pb[i];
      if constexpr (kOp == BinaryOp::kSub) po[i] = pa[i] - pb[i];
      if constexpr (kOp == BinaryOp::kMul) po[i] = pa[i] * pb[i];
    }
    return OkStatus();
  }
};

class BiasAddKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    const Tensor& bias = ctx->input(1);
    const int64_t c = x.shape().dim(x.shape().num_dims() - 1);
    if (bias.shape().num_dims() != 1 || bias.shape().dim(0) != c) {
      return InvalidArgument("BiasAdd: bias must be rank-1 matching the last dim");
    }
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, x.shape());
    if (!ctx->real_compute()) return OkStatus();
    const float* px = x.data<float>();
    const float* pb = bias.data<float>();
    float* po = out->data<float>();
    const int64_t n = x.num_elements();
    for (int64_t i = 0; i < n; ++i) po[i] = px[i] + pb[i % c];
    return OkStatus();
  }
};

enum class UnaryOp { kSigmoid, kTanh, kRelu };

template <UnaryOp kOp>
class UnaryKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, x.shape());
    if (!ctx->real_compute()) return OkStatus();
    const float* px = x.data<float>();
    float* po = out->data<float>();
    const int64_t n = x.num_elements();
    for (int64_t i = 0; i < n; ++i) {
      if constexpr (kOp == UnaryOp::kSigmoid) po[i] = 1.0f / (1.0f + std::exp(-px[i]));
      if constexpr (kOp == UnaryOp::kTanh) po[i] = std::tanh(px[i]);
      if constexpr (kOp == UnaryOp::kRelu) po[i] = px[i] > 0 ? px[i] : 0.0f;
    }
    return OkStatus();
  }
};

class SoftmaxKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    if (x.shape().num_dims() != 2) return InvalidArgument("Softmax expects rank-2 input");
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, x.shape());
    if (!ctx->real_compute()) return OkStatus();
    const int64_t rows = x.shape().dim(0), cols = x.shape().dim(1);
    const float* px = x.data<float>();
    float* po = out->data<float>();
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = px + r * cols;
      float* orow = po + r * cols;
      float max_v = row[0];
      for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
      float sum = 0;
      for (int64_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(row[c] - max_v);
        sum += orow[c];
      }
      for (int64_t c = 0; c < cols; ++c) orow[c] /= sum;
    }
    return OkStatus();
  }
};

// Mean cross-entropy of softmax(logits) against one-hot (or soft) labels.
class SoftmaxXentLossKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& logits = ctx->input(0);
    const Tensor& labels = ctx->input(1);
    if (logits.shape() != labels.shape() || logits.shape().num_dims() != 2) {
      return InvalidArgument("SoftmaxXentLoss expects matching rank-2 inputs");
    }
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, TensorShape{});
    if (!ctx->real_compute()) return OkStatus();
    const int64_t rows = logits.shape().dim(0), cols = logits.shape().dim(1);
    const float* pl = logits.data<float>();
    const float* py = labels.data<float>();
    double total = 0;
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = pl + r * cols;
      float max_v = row[0];
      for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
      double sum = 0;
      for (int64_t c = 0; c < cols; ++c) sum += std::exp(row[c] - max_v);
      const double log_sum = std::log(sum) + max_v;
      for (int64_t c = 0; c < cols; ++c) {
        total += py[r * cols + c] * (log_sum - row[c]);
      }
    }
    out->data<float>()[0] = static_cast<float>(total / rows);
    return OkStatus();
  }
};

// d(mean xent)/d(logits) = (softmax(logits) - labels) / batch.
class SoftmaxXentGradKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& logits = ctx->input(0);
    const Tensor& labels = ctx->input(1);
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, logits.shape());
    if (!ctx->real_compute()) return OkStatus();
    const int64_t rows = logits.shape().dim(0), cols = logits.shape().dim(1);
    const float* pl = logits.data<float>();
    const float* py = labels.data<float>();
    float* po = out->data<float>();
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = pl + r * cols;
      float max_v = row[0];
      for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
      double sum = 0;
      for (int64_t c = 0; c < cols; ++c) sum += std::exp(row[c] - max_v);
      for (int64_t c = 0; c < cols; ++c) {
        const float p = static_cast<float>(std::exp(row[c] - max_v) / sum);
        po[r * cols + c] = (p - py[r * cols + c]) / static_cast<float>(rows);
      }
    }
    return OkStatus();
  }
};

// Activation gradients: dx from (activation output y or input x, upstream dy).
enum class GradOp { kSigmoid, kTanh, kRelu };

template <GradOp kOp>
class ActivationGradKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& y = ctx->input(0);
    const Tensor& dy = ctx->input(1);
    if (y.shape() != dy.shape()) return InvalidArgument("activation grad shape mismatch");
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, y.shape());
    if (!ctx->real_compute()) return OkStatus();
    const float* py = y.data<float>();
    const float* pd = dy.data<float>();
    float* po = out->data<float>();
    const int64_t n = y.num_elements();
    for (int64_t i = 0; i < n; ++i) {
      if constexpr (kOp == GradOp::kSigmoid) po[i] = pd[i] * py[i] * (1.0f - py[i]);
      if constexpr (kOp == GradOp::kTanh) po[i] = pd[i] * (1.0f - py[i] * py[i]);
      if constexpr (kOp == GradOp::kRelu) po[i] = py[i] > 0 ? pd[i] : 0.0f;
    }
    return OkStatus();
  }
};

class BiasAddGradKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& dy = ctx->input(0);
    const int64_t c = dy.shape().dim(dy.shape().num_dims() - 1);
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, TensorShape{c});
    if (!ctx->real_compute()) return OkStatus();
    const float* pd = dy.data<float>();
    float* po = out->data<float>();
    std::fill(po, po + c, 0.0f);
    const int64_t n = dy.num_elements();
    for (int64_t i = 0; i < n; ++i) po[i % c] += pd[i];
    return OkStatus();
  }
};

enum class ReduceOp { kMax, kSum, kMean };

template <ReduceOp kOp>
class ReduceKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, TensorShape{});
    if (!ctx->real_compute()) return OkStatus();
    const float* px = x.data<float>();
    const int64_t n = x.num_elements();
    if (n == 0) return InvalidArgument("reduction over empty tensor");
    double acc = (kOp == ReduceOp::kMax) ? px[0] : 0.0;
    for (int64_t i = 0; i < n; ++i) {
      if constexpr (kOp == ReduceOp::kMax) {
        acc = std::max(acc, static_cast<double>(px[i]));
      } else {
        acc += px[i];
      }
    }
    if constexpr (kOp == ReduceOp::kMean) acc /= n;
    out->data<float>()[0] = static_cast<float>(acc);
    return OkStatus();
  }
};

class ReshapeKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    std::vector<TensorShape> in_shapes{x.shape()};
    TensorShape out_shape;
    RDMADL_RETURN_IF_ERROR(ReshapeShape(ctx->node(), in_shapes, &out_shape));
    if (!out_shape.IsFullyDefined() || out_shape.num_elements() != x.num_elements()) {
      return InvalidArgument(StrCat("Reshape cannot map ", x.shape().ToString(), " to ",
                                    out_shape.ToString()));
    }
    ctx->set_output(x.Reshaped(out_shape));  // Buffer alias, no copy.
    return OkStatus();
  }
};

// In-place SGD update: var -= lr * grad. Mutates the variable's persistent
// buffer; outputs the variable tensor.
class ApplySgdKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& var = ctx->input(0);
    const Tensor& grad = ctx->input(1);
    if (var.shape() != grad.shape()) {
      return InvalidArgument(StrCat("ApplySgd shape mismatch: ", var.shape().ToString(),
                                    " vs ", grad.shape().ToString()));
    }
    if (ctx->real_compute()) {
      const double lr = ctx->node().GetAttrOr<double>("learning_rate", 0.01);
      float* pv = var.data<float>();
      const float* pg = grad.data<float>();
      const int64_t n = var.num_elements();
      for (int64_t i = 0; i < n; ++i) pv[i] -= static_cast<float>(lr) * pg[i];
    }
    ctx->set_output(var);
    return OkStatus();
  }
};

// Generic benchmark-only node: produces a tensor of the attr-given shape
// after consuming its inputs; the executor charges its "flops" attr to the
// virtual clock. Real mode fills zeros (the examples never use it).
class SimOpKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TensorShape shape = ctx->node().GetAttr<TensorShape>("shape");
    // An unknown leading (batch) dimension takes the first input's.
    if (!shape.IsFullyDefined() && shape.num_dims() > 0 && ctx->num_inputs() > 0 &&
        shape.dim(0) == kUnknownDim) {
      shape.set_dim(0, ctx->input(0).shape().dim(0));
    }
    Tensor* out = ctx->AllocateOutput(DType::kFloat32, shape);
    if (ctx->real_compute()) {
      float* data = out->data<float>();
      std::fill(data, data + out->num_elements(), 0.0f);
    }
    return OkStatus();
  }
};

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

template <typename KernelT>
KernelFactory MakeFactory() {
  return [](const Node&) -> std::unique_ptr<OpKernel> { return std::make_unique<KernelT>(); };
}

void RegisterAll() {
  OpRegistry* ops = OpRegistry::Global();
  KernelRegistry* kernels = KernelRegistry::Global();
  auto reg = [&](OpDef def, KernelFactory factory) {
    CHECK_OK(ops->Register(def));
    if (factory) CHECK_OK(kernels->Register(def.name, std::move(factory)));
  };

  reg({"Const", 0, 0, false, graph::ShapeFromAttr}, MakeFactory<ConstKernel>());
  reg({"Placeholder", 0, 0, false, graph::ShapeFromAttr}, MakeFactory<PlaceholderKernel>());
  reg({"Variable", 0, 0, true, graph::ShapeFromAttr}, MakeFactory<VariableKernel>());
  reg({"Identity", 1, 1, false, graph::SameAsFirstInputShape}, MakeFactory<IdentityKernel>());
  reg({"MatMul", 2, 2, false, MatMulShape}, MakeFactory<MatMulKernel>());
  reg({"Conv2D", 2, 2, false, Conv2DShape}, MakeFactory<Conv2DKernel>());
  reg({"MaxPool", 1, 1, false, MaxPoolShape}, MakeFactory<MaxPoolKernel>());
  reg({"Add", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<BinaryKernel<BinaryOp::kAdd>>());
  reg({"Sub", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<BinaryKernel<BinaryOp::kSub>>());
  reg({"Mul", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<BinaryKernel<BinaryOp::kMul>>());
  reg({"BiasAdd", 2, 2, false, graph::SameAsFirstInputShape}, MakeFactory<BiasAddKernel>());
  reg({"Sigmoid", 1, 1, false, graph::SameAsFirstInputShape},
      MakeFactory<UnaryKernel<UnaryOp::kSigmoid>>());
  reg({"Tanh", 1, 1, false, graph::SameAsFirstInputShape},
      MakeFactory<UnaryKernel<UnaryOp::kTanh>>());
  reg({"Relu", 1, 1, false, graph::SameAsFirstInputShape},
      MakeFactory<UnaryKernel<UnaryOp::kRelu>>());
  reg({"Softmax", 1, 1, false, graph::SameAsFirstInputShape}, MakeFactory<SoftmaxKernel>());
  reg({"SoftmaxXentLoss", 2, 2, false, graph::ScalarShape},
      MakeFactory<SoftmaxXentLossKernel>());
  reg({"SoftmaxXentGrad", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<SoftmaxXentGradKernel>());
  reg({"SigmoidGrad", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<ActivationGradKernel<GradOp::kSigmoid>>());
  reg({"TanhGrad", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<ActivationGradKernel<GradOp::kTanh>>());
  reg({"ReluGrad", 2, 2, false, graph::SameAsFirstInputShape},
      MakeFactory<ActivationGradKernel<GradOp::kRelu>>());
  reg({"BiasAddGrad", 1, 1, false, BiasAddGradShape}, MakeFactory<BiasAddGradKernel>());
  reg({"ReduceMax", 1, 1, false, graph::ScalarShape},
      MakeFactory<ReduceKernel<ReduceOp::kMax>>());
  reg({"ReduceSum", 1, 1, false, graph::ScalarShape},
      MakeFactory<ReduceKernel<ReduceOp::kSum>>());
  reg({"ReduceMean", 1, 1, false, graph::ScalarShape},
      MakeFactory<ReduceKernel<ReduceOp::kMean>>());
  reg({"Reshape", 1, 1, false, ReshapeShape}, MakeFactory<ReshapeKernel>());
  reg({"ApplySgd", 2, 2, true, graph::SameAsFirstInputShape}, MakeFactory<ApplySgdKernel>());
  reg({"SimOp", 0, -1, false, graph::ShapeFromAttr}, MakeFactory<SimOpKernel>());

  // Framework transfer ops: kernels are provided by the runtime's transfer
  // mechanism, not the kernel registry.
  reg({"_Send", 1, 1, false, graph::SameAsFirstInputShape}, nullptr);
  reg({"_Recv", 0, 0, false, RecvShape}, nullptr);
}

}  // namespace

void RegisterStandardOps() {
  static std::once_flag once;
  std::call_once(once, RegisterAll);
}

}  // namespace ops
}  // namespace rdmadl
