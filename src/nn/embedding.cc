#include "nn/embedding.h"

#include <cmath>

#include "nn/arena.h"
#include "nn/init.h"
#include "nn/kernels.h"

namespace ehna {

Embedding::Embedding(int64_t num_rows, int64_t dim, Rng* rng)
    : table_(num_rows, dim),
      grad_map_ptr_(std::make_shared<SparseRowGrads>()),
      grad_map_(*grad_map_ptr_) {
  EHNA_CHECK_GT(num_rows, 0);
  EHNA_CHECK_GT(dim, 0);
  const float scale = 0.5f / static_cast<float>(dim);
  UniformInit(&table_, -scale, scale, rng);
}

Var Embedding::Gather(const std::vector<int64_t>& ids,
                      const std::shared_ptr<SparseRowGrads>& sink) {
  EHNA_CHECK(!ids.empty());
  const int64_t d = dim();
  Tensor out = Tensor::Uninit(static_cast<int64_t>(ids.size()), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    EHNA_DCHECK(ids[i] >= 0 && ids[i] < num_rows());
    kernels::Copy(table_.Row(ids[i]), out.Row(static_cast<int64_t>(i)), d);
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  auto map = sink ? sink : grad_map_ptr_;
  std::vector<int64_t> ids_copy = ids;
  // A "leaf with a hook": no parents, but a backward closure that scatters
  // the incoming gradient rows into the sparse accumulator.
  return Var::Op(std::move(out), {},
                 [map, ids_copy, d](const Tensor& g, const Tensor&) {
                   // The accumulator outlives the tape (it is consumed by
                   // the sparse optimizer after backward); never allocate
                   // its rows from the batch arena.
                   TensorArena::Bypass no_arena;
                   for (size_t i = 0; i < ids_copy.size(); ++i) {
                     Tensor& acc = (*map)[ids_copy[i]];
                     if (acc.numel() == 0) acc = Tensor(d);
                     kernels::Axpy(d, 1.0f, g.Row(static_cast<int64_t>(i)),
                                   acc.data());
                   }
                 },
                 "embedding_gather");
}

Var Embedding::GatherRow(int64_t id,
                         const std::shared_ptr<SparseRowGrads>& sink) {
  EHNA_CHECK(id >= 0 && id < num_rows());
  const int64_t d = dim();
  Tensor out = Tensor::Uninit(d);
  kernels::Copy(table_.Row(id), out.data(), d);
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  auto map = sink ? sink : grad_map_ptr_;
  return Var::Op(std::move(out), {},
                 [map, id, d](const Tensor& g, const Tensor&) {
                   TensorArena::Bypass no_arena;
                   Tensor& acc = (*map)[id];
                   if (acc.numel() == 0) acc = Tensor(d);
                   kernels::Axpy(d, 1.0f, g.data(), acc.data());
                 },
                 "embedding_gather_row");
}

Var Embedding::GatherDeferred(const std::vector<int64_t>& ids) const {
  EHNA_CHECK(!ids.empty());
  const int64_t d = dim();
  Tensor out = Tensor::Uninit(static_cast<int64_t>(ids.size()), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    EHNA_DCHECK(ids[i] >= 0 && ids[i] < num_rows());
    kernels::Copy(table_.Row(ids[i]), out.Row(static_cast<int64_t>(i)), d);
  }
  return Var::Leaf(std::move(out), /*requires_grad=*/true);
}

Var Embedding::GatherRowDeferred(int64_t id) const {
  EHNA_CHECK(id >= 0 && id < num_rows());
  const int64_t d = dim();
  Tensor out = Tensor::Uninit(d);
  kernels::Copy(table_.Row(id), out.data(), d);
  return Var::Leaf(std::move(out), /*requires_grad=*/true);
}

void Embedding::ScatterGrads(const std::vector<int64_t>& ids, const Tensor& g,
                             const std::shared_ptr<SparseRowGrads>& sink) {
  SparseRowGrads* map = sink ? sink.get() : grad_map_ptr_.get();
  const int64_t d = dim();
  EHNA_CHECK_EQ(g.rows(), static_cast<int64_t>(ids.size()));
  EHNA_CHECK_EQ(g.cols(), d);
  TensorArena::Bypass no_arena;  // mirror the Gather hook: rows outlive the tape
  for (size_t i = 0; i < ids.size(); ++i) {
    Tensor& acc = (*map)[ids[i]];
    if (acc.numel() == 0) acc = Tensor(d);
    kernels::Axpy(d, 1.0f, g.Row(static_cast<int64_t>(i)), acc.data());
  }
}

void Embedding::ScatterRowGrad(int64_t id, const Tensor& g,
                               const std::shared_ptr<SparseRowGrads>& sink) {
  SparseRowGrads* map = sink ? sink.get() : grad_map_ptr_.get();
  const int64_t d = dim();
  EHNA_CHECK_EQ(g.numel(), d);
  TensorArena::Bypass no_arena;
  Tensor& acc = (*map)[id];
  if (acc.numel() == 0) acc = Tensor(d);
  kernels::Axpy(d, 1.0f, g.data(), acc.data());
}

void Embedding::SetRow(int64_t id, const float* values) {
  EHNA_CHECK(id >= 0 && id < num_rows());
  kernels::Copy(values, table_.Row(id), dim());
}

void Embedding::EnsureRows(int64_t num_rows, Rng* rng) {
  EHNA_CHECK(rng != nullptr);
  const int64_t old_rows = table_.rows();
  if (num_rows <= old_rows) return;
  TensorArena::Bypass no_arena;  // the table outlives any batch tape.
  const int64_t d = dim();
  Tensor grown = Tensor::Uninit(num_rows, d);
  kernels::Copy(table_.data(), grown.data(), old_rows * d);
  const float scale = 0.5f / static_cast<float>(d);
  for (int64_t i = old_rows * d; i < num_rows * d; ++i) {
    grown.data()[i] = static_cast<float>(
        rng->Uniform(-static_cast<double>(scale), static_cast<double>(scale)));
  }
  table_ = std::move(grown);
}

void Embedding::ApplyAdam(float lr, float beta1, float beta2, float eps) {
  if (grad_map_.empty()) return;
  TensorArena::Bypass no_arena;  // Adam moments persist across batches.
  ++adam_step_;
  const float bc1 =
      1.0f - std::pow(beta1, static_cast<float>(adam_step_));
  const float bc2 =
      1.0f - std::pow(beta2, static_cast<float>(adam_step_));
  const int64_t d = dim();
  for (auto& [row, grad] : grad_map_) {
    Tensor& m = adam_m_[row];
    Tensor& v = adam_v_[row];
    if (m.numel() == 0) m = Tensor(d);
    if (v.numel() == 0) v = Tensor(d);
    kernels::AdamUpdate(d, lr, beta1, beta2, eps, bc1, bc2, grad.data(),
                        m.data(), v.data(), table_.Row(row));
  }
  grad_map_.clear();
}

void Embedding::ApplySgd(float lr) {
  const int64_t d = dim();
  for (auto& [row, grad] : grad_map_) {
    kernels::Axpy(d, -lr, grad.data(), table_.Row(row));
  }
  grad_map_.clear();
}

void Embedding::AccumulateSparse(const SparseRowGrads& grads) {
  TensorArena::Bypass no_arena;  // the master accumulator is long-lived.
  const int64_t d = dim();
  for (const auto& [row, grad] : grads) {
    Tensor& acc = grad_map_[row];
    if (acc.numel() == 0) acc = Tensor(d);
    acc.AddInPlace(grad);
  }
}

void Embedding::ClearGradients() { grad_map_.clear(); }

Status Embedding::SetState(const Tensor& table, int64_t adam_step,
                           std::unordered_map<int64_t, Tensor> adam_m,
                           std::unordered_map<int64_t, Tensor> adam_v) {
  if (!table.SameShape(table_)) {
    return Status::InvalidArgument("embedding table shape mismatch");
  }
  if (adam_step < 0) {
    return Status::InvalidArgument("negative embedding Adam step count");
  }
  for (const auto* moments : {&adam_m, &adam_v}) {
    for (const auto& [row, m] : *moments) {
      if (row < 0 || row >= num_rows() || m.numel() != dim()) {
        return Status::InvalidArgument("embedding Adam moment mismatch");
      }
    }
  }
  table_ = table;
  adam_step_ = adam_step;
  adam_m_ = std::move(adam_m);
  adam_v_ = std::move(adam_v);
  grad_map_.clear();
  return Status::OK();
}

}  // namespace ehna
