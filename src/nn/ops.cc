#include "nn/ops.h"

#include <cmath>
#include <memory>
#include <utility>

#include "nn/kernels.h"
#include "util/metrics.h"

namespace ehna::ag {

// Every dense loop below routes through nn/kernels.h (DESIGN.md §9); op
// code only does shape checks, graph wiring, and kernel dispatch. Outputs
// that a kernel fully overwrites are created with Tensor::Uninit so arena
// allocation stays a pure pointer bump. Under a NoGradScope each op returns
// its forward value as a leaf before building any capture or closure.

namespace {

/// Uninitialized tensor with the same shape as `like` (about to be fully
/// overwritten by a kernel).
Tensor UninitLike(const Tensor& like) {
  return like.rank() == 1 ? Tensor::Uninit(like.rows())
                          : Tensor::Uninit(like.rows(), like.cols());
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  EHNA_CHECK(a.value().SameShape(b.value()));
  Tensor out = UninitLike(a.value());
  kernels::Add(out.numel(), a.value().data(), b.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b](const Tensor& g, const Tensor&) {
                   a.AccumulateGrad(g);
                   b.AccumulateGrad(g);
                 },
                 "add");
}

Var SumN(const std::vector<Var>& terms) {
  EHNA_CHECK(!terms.empty());
  if (terms.size() == 1) return terms[0];
  const Tensor& first = terms[0].value();
  for (const Var& t : terms) EHNA_CHECK(t.value().SameShape(first));
  Tensor out = UninitLike(first);
  kernels::Copy(first.data(), out.data(), out.numel());
  for (size_t i = 1; i < terms.size(); ++i) {
    kernels::Add(out.numel(), out.data(), terms[i].value().data(), out.data());
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  std::vector<Var> parents = terms;
  return Var::Op(std::move(out), std::move(parents),
                 [terms](const Tensor& g, const Tensor&) {
                   for (const Var& t : terms) t.AccumulateGrad(g);
                 },
                 "sum_n");
}

Var AddRowBroadcast(const Var& mat, const Var& row) {
  const Tensor& m = mat.value();
  const Tensor& r = row.value();
  EHNA_CHECK_EQ(r.rank(), 1);
  EHNA_CHECK_EQ(m.cols(), r.rows());
  Tensor out = Tensor::Uninit(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::Add(m.cols(), m.Row(i), r.data(), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat, row},
                 [mat, row](const Tensor& g, const Tensor&) {
                   mat.AccumulateGrad(g);
                   Tensor gr(row.value().rows());
                   for (int64_t i = 0; i < g.rows(); ++i) {
                     kernels::Axpy(g.cols(), 1.0f, g.Row(i), gr.data());
                   }
                   row.AccumulateGrad(gr);
                 },
                 "add_row_broadcast");
}

Var Sub(const Var& a, const Var& b) {
  EHNA_CHECK(a.value().SameShape(b.value()));
  Tensor out = UninitLike(a.value());
  kernels::Sub(out.numel(), a.value().data(), b.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b](const Tensor& g, const Tensor&) {
                   a.AccumulateGrad(g);
                   Tensor gb = UninitLike(g);
                   kernels::ScaledCopy(g.numel(), -1.0f, g.data(), gb.data());
                   b.AccumulateGrad(gb);
                 },
                 "sub");
}

Var SubRowBroadcast(const Var& mat, const Var& row) {
  const Tensor& m = mat.value();
  const Tensor& r = row.value();
  EHNA_CHECK_EQ(r.rank(), 1);
  EHNA_CHECK_EQ(m.cols(), r.rows());
  Tensor out = Tensor::Uninit(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::Sub(m.cols(), m.Row(i), r.data(), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat, row},
                 [mat, row](const Tensor& g, const Tensor&) {
                   mat.AccumulateGrad(g);
                   Tensor gr(row.value().rows());
                   for (int64_t i = 0; i < g.rows(); ++i) {
                     kernels::Axpy(g.cols(), -1.0f, g.Row(i), gr.data());
                   }
                   row.AccumulateGrad(gr);
                 },
                 "sub_row_broadcast");
}

Var Mul(const Var& a, const Var& b) {
  EHNA_CHECK(a.value().SameShape(b.value()));
  Tensor out = UninitLike(a.value());
  kernels::Mul(out.numel(), a.value().data(), b.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(g);
                   kernels::Mul(g.numel(), g.data(), b.value().data(),
                                ga.data());
                   a.AccumulateGrad(ga);
                   Tensor gb = UninitLike(g);
                   kernels::Mul(g.numel(), g.data(), a.value().data(),
                                gb.data());
                   b.AccumulateGrad(gb);
                 },
                 "mul");
}

Var ScalarMul(const Var& a, float c) {
  Tensor out = UninitLike(a.value());
  kernels::ScaledCopy(out.numel(), c, a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a, c](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(g);
                   kernels::ScaledCopy(g.numel(), c, g.data(), ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "scalar_mul");
}

Var AddScalar(const Var& a, float c) {
  Tensor out = UninitLike(a.value());
  kernels::AddScalar(out.numel(), a.value().data(), c, out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor&) { a.AccumulateGrad(g); },
                 "add_scalar");
}

Var MatMul(const Var& a, const Var& b) {
  EHNA_TRACE_PHASE("kernels.phase.gemm");
  Tensor out = ehna::MatMul(a.value(), b.value());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b](const Tensor& g, const Tensor&) {
                   EHNA_TRACE_PHASE("kernels.phase.gemm");
                   a.AccumulateGrad(MatMulTransposeB(g, b.value()));
                   b.AccumulateGrad(MatMulTransposeA(a.value(), g));
                 },
                 "matmul");
}

Var MatVec(const Var& mat, const Var& vec) {
  const Tensor& m = mat.value();
  const Tensor& v = vec.value();
  EHNA_CHECK_EQ(v.rank(), 1);
  EHNA_CHECK_EQ(m.cols(), v.rows());
  EHNA_TRACE_PHASE("kernels.phase.gemm");
  Tensor out = Tensor::Uninit(m.rows());
  kernels::Gemv(m.rows(), m.cols(), m.data(), v.data(), out.data(),
                /*accumulate=*/false);
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(
      std::move(out), {mat, vec},
      [mat, vec](const Tensor& g, const Tensor&) {
        EHNA_TRACE_PHASE("kernels.phase.gemm");
        const Tensor& m = mat.value();
        const Tensor& v = vec.value();
        Tensor gm = Tensor::Uninit(m.rows(), m.cols());
        for (int64_t i = 0; i < m.rows(); ++i) {
          kernels::ScaledCopy(m.cols(), g[i], v.data(), gm.Row(i));
        }
        Tensor gv = Tensor::Uninit(v.rows());
        kernels::GemvT(m.rows(), m.cols(), m.data(), g.data(), gv.data(),
                       /*accumulate=*/false);
        mat.AccumulateGrad(gm);
        vec.AccumulateGrad(gv);
      },
      "matvec");
}

Var Sigmoid(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::SigmoidForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor& y) {
                   Tensor ga = UninitLike(g);
                   kernels::SigmoidBackward(g.numel(), g.data(), y.data(),
                                            ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "sigmoid");
}

Var Tanh(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::TanhForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor& y) {
                   Tensor ga = UninitLike(g);
                   kernels::TanhBackward(g.numel(), g.data(), y.data(),
                                         ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "tanh");
}

Var Relu(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::ReluForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor& y) {
                   Tensor ga = UninitLike(g);
                   kernels::ReluBackward(g.numel(), g.data(), y.data(),
                                         ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "relu");
}

Var Exp(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::ExpForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor& y) {
                   Tensor ga = UninitLike(g);
                   kernels::ExpBackward(g.numel(), g.data(), y.data(),
                                        ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "exp");
}

Var Log(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::LogForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(g);
                   kernels::LogBackward(g.numel(), g.data(), a.value().data(),
                                        ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "log");
}

Var Softmax(const Var& vec) {
  const Tensor& x = vec.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  Tensor out = Tensor::Uninit(x.rows());
  kernels::SoftmaxForward(x.numel(), x.data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {vec},
                 [vec](const Tensor& g, const Tensor& y) {
                   Tensor gx = Tensor::Uninit(y.rows());
                   kernels::SoftmaxBackward(y.numel(), g.data(), y.data(),
                                            gx.data());
                   vec.AccumulateGrad(gx);
                 },
                 "softmax");
}

Var Sum(const Var& a) {
  Tensor out(1);
  out[0] = kernels::Sum(a.value().data(), a.value().numel());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(a.value());
                   kernels::Fill(ga.data(), ga.numel(), g[0]);
                   a.AccumulateGrad(ga);
                 },
                 "sum");
}

Var Mean(const Var& a) {
  const int64_t n = a.value().numel();
  EHNA_CHECK_GT(n, 0);
  Tensor out(1);
  out[0] = kernels::Sum(a.value().data(), n) / static_cast<float>(n);
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a, n](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(a.value());
                   kernels::Fill(ga.data(), ga.numel(),
                                 g[0] / static_cast<float>(n));
                   a.AccumulateGrad(ga);
                 },
                 "mean");
}

Var SumSquares(const Var& a) {
  const Tensor& x = a.value();
  Tensor out(1);
  out[0] = static_cast<float>(kernels::SumSquares(x.data(), x.numel()));
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(a.value());
                   kernels::ScaledCopy(ga.numel(), 2.0f * g[0],
                                       a.value().data(), ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "sum_squares");
}

Var RowSumSquares(const Var& mat) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  Tensor out = Tensor::Uninit(m.rows());
  for (int64_t i = 0; i < m.rows(); ++i) {
    out[i] = kernels::Dot(m.Row(i), m.Row(i), m.cols());
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat](const Tensor& g, const Tensor&) {
                   const Tensor& m = mat.value();
                   Tensor gm = Tensor::Uninit(m.rows(), m.cols());
                   for (int64_t i = 0; i < m.rows(); ++i) {
                     kernels::ScaledCopy(m.cols(), 2.0f * g[i], m.Row(i),
                                         gm.Row(i));
                   }
                   mat.AccumulateGrad(gm);
                 },
                 "row_sum_squares");
}

Var Dot(const Var& a, const Var& b) {
  const Tensor& x = a.value();
  const Tensor& y = b.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  EHNA_CHECK(x.SameShape(y));
  Tensor out(1);
  out[0] = kernels::Dot(x.data(), y.data(), x.numel());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(b.value());
                   kernels::ScaledCopy(ga.numel(), g[0], b.value().data(),
                                       ga.data());
                   a.AccumulateGrad(ga);
                   Tensor gb = UninitLike(a.value());
                   kernels::ScaledCopy(gb.numel(), g[0], a.value().data(),
                                       gb.data());
                   b.AccumulateGrad(gb);
                 },
                 "dot");
}

Var Row(const Var& mat, int64_t i) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK(i >= 0 && i < m.rows());
  Tensor out = Tensor::Uninit(m.cols());
  kernels::Copy(m.Row(i), out.data(), m.cols());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat, i](const Tensor& g, const Tensor&) {
                   const Tensor& m = mat.value();
                   Tensor gm(m.rows(), m.cols());
                   kernels::Copy(g.data(), gm.Row(i), m.cols());
                   mat.AccumulateGrad(gm);
                 },
                 "row");
}

Var ConcatRows(const std::vector<Var>& rows) {
  EHNA_CHECK(!rows.empty());
  const int64_t n = rows[0].value().numel();
  for (const Var& r : rows) {
    EHNA_CHECK_EQ(r.value().rank(), 1);
    EHNA_CHECK_EQ(r.value().numel(), n);
  }
  Tensor out = Tensor::Uninit(static_cast<int64_t>(rows.size()), n);
  for (size_t i = 0; i < rows.size(); ++i) {
    kernels::Copy(rows[i].value().data(), out.Row(static_cast<int64_t>(i)), n);
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  std::vector<Var> parents = rows;
  return Var::Op(std::move(out), std::move(parents),
                 [rows, n](const Tensor& g, const Tensor&) {
                   for (size_t i = 0; i < rows.size(); ++i) {
                     Tensor gr = Tensor::Uninit(n);
                     kernels::Copy(g.Row(static_cast<int64_t>(i)), gr.data(),
                                   n);
                     rows[i].AccumulateGrad(gr);
                   }
                 },
                 "concat_rows");
}

Var Concat(const Var& a, const Var& b) {
  const Tensor& x = a.value();
  const Tensor& y = b.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  EHNA_CHECK_EQ(y.rank(), 1);
  Tensor out = Tensor::Uninit(x.numel() + y.numel());
  kernels::Copy(x.data(), out.data(), x.numel());
  kernels::Copy(y.data(), out.data() + x.numel(), y.numel());
  const int64_t na = x.numel();
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, b},
                 [a, b, na](const Tensor& g, const Tensor&) {
                   Tensor ga = Tensor::Uninit(na);
                   kernels::Copy(g.data(), ga.data(), na);
                   a.AccumulateGrad(ga);
                   Tensor gb = Tensor::Uninit(g.numel() - na);
                   kernels::Copy(g.data() + na, gb.data(), g.numel() - na);
                   b.AccumulateGrad(gb);
                 },
                 "concat");
}

Var SliceCols(const Var& mat, int64_t start, int64_t len) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK(start >= 0 && len > 0 && start + len <= m.cols());
  Tensor out = Tensor::Uninit(m.rows(), len);
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::Copy(m.Row(i) + start, out.Row(i), len);
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat, start, len](const Tensor& g, const Tensor&) {
                   const Tensor& m = mat.value();
                   Tensor gm(m.rows(), m.cols());
                   for (int64_t i = 0; i < m.rows(); ++i) {
                     kernels::Copy(g.Row(i), gm.Row(i) + start, len);
                   }
                   mat.AccumulateGrad(gm);
                 },
                 "slice_cols");
}

Var ScaleRows(const Var& mat, const Var& scale) {
  const Tensor& m = mat.value();
  const Tensor& s = scale.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK_EQ(s.rank(), 1);
  EHNA_CHECK_EQ(m.rows(), s.rows());
  Tensor out = Tensor::Uninit(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::ScaledCopy(m.cols(), s[i], m.Row(i), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(
      std::move(out), {mat, scale},
      [mat, scale](const Tensor& g, const Tensor&) {
        const Tensor& m = mat.value();
        const Tensor& s = scale.value();
        Tensor gm = Tensor::Uninit(m.rows(), m.cols());
        Tensor gs = Tensor::Uninit(s.rows());
        for (int64_t i = 0; i < m.rows(); ++i) {
          kernels::ScaledCopy(m.cols(), s[i], g.Row(i), gm.Row(i));
          gs[i] = kernels::Dot(g.Row(i), m.Row(i), m.cols());
        }
        mat.AccumulateGrad(gm);
        scale.AccumulateGrad(gs);
      },
      "scale_rows");
}

Var ScaleRowsConst(const Var& mat, const Tensor& scale) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK_EQ(scale.rank(), 1);
  EHNA_CHECK_EQ(m.rows(), scale.rows());
  Tensor out = Tensor::Uninit(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::ScaledCopy(m.cols(), scale[i], m.Row(i), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  Tensor scale_copy = scale;
  return Var::Op(std::move(out), {mat},
                 [mat, scale_copy](const Tensor& g, const Tensor&) {
                   const Tensor& m = mat.value();
                   Tensor gm = Tensor::Uninit(m.rows(), m.cols());
                   for (int64_t i = 0; i < m.rows(); ++i) {
                     kernels::ScaledCopy(m.cols(), scale_copy[i], g.Row(i),
                                         gm.Row(i));
                   }
                   mat.AccumulateGrad(gm);
                 },
                 "scale_rows_const");
}

Var MaskRows(const Var& a, const Var& b, const Tensor& mask) {
  const Tensor& x = a.value();
  const Tensor& y = b.value();
  EHNA_CHECK(x.SameShape(y));
  EHNA_CHECK_EQ(x.rank(), 2);
  EHNA_CHECK_EQ(mask.rank(), 1);
  EHNA_CHECK_EQ(mask.rows(), x.rows());
  Tensor out = Tensor::Uninit(x.rows(), x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    kernels::Lerp(x.cols(), mask[i], x.Row(i), y.Row(i), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  Tensor mask_copy = mask;
  return Var::Op(
      std::move(out), {a, b},
      [a, b, mask_copy](const Tensor& g, const Tensor&) {
        const Tensor& x = a.value();
        Tensor ga = Tensor::Uninit(x.rows(), x.cols());
        Tensor gb = Tensor::Uninit(x.rows(), x.cols());
        for (int64_t i = 0; i < x.rows(); ++i) {
          const float mi = mask_copy[i];
          kernels::ScaledCopy(x.cols(), mi, g.Row(i), ga.Row(i));
          kernels::ScaledCopy(x.cols(), 1.0f - mi, g.Row(i), gb.Row(i));
        }
        a.AccumulateGrad(ga);
        b.AccumulateGrad(gb);
      },
      "mask_rows");
}

Var L2Normalize(const Var& vec, float eps) {
  const Tensor& x = vec.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  const float norm = x.Norm();
  const bool degenerate = norm < eps;
  const float denom = degenerate ? eps : norm;
  Tensor out = Tensor::Uninit(x.rows());
  kernels::ScaledCopy(x.numel(), 1.0f / denom, x.data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {vec},
                 [vec, denom, degenerate](const Tensor& g, const Tensor& y) {
                   Tensor gx = Tensor::Uninit(y.rows());
                   if (degenerate) {
                     // Below the clamp the map is linear: y = x / eps.
                     kernels::ScaledCopy(y.numel(), 1.0f / denom, g.data(),
                                         gx.data());
                   } else {
                     const float dot = kernels::Dot(g.data(), y.data(),
                                                    y.numel());
                     kernels::Copy(g.data(), gx.data(), y.numel());
                     kernels::Axpy(y.numel(), -dot, y.data(), gx.data());
                     kernels::Scale(y.numel(), 1.0f / denom, gx.data());
                   }
                   vec.AccumulateGrad(gx);
                 },
                 "l2_normalize");
}

Var Hinge(const Var& scalar) {
  EHNA_CHECK_EQ(scalar.value().numel(), 1);
  return Relu(scalar);
}

Var LogSigmoid(const Var& a) {
  Tensor out = UninitLike(a.value());
  kernels::LogSigmoidForward(out.numel(), a.value().data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(g);
                   kernels::LogSigmoidBackward(g.numel(), g.data(),
                                               a.value().data(), ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "log_sigmoid");
}

Var BroadcastScalar(const Var& scalar, int64_t n) {
  EHNA_CHECK_EQ(scalar.value().numel(), 1);
  EHNA_CHECK_GT(n, 0);
  Tensor out = Tensor::Full(n, scalar.value()[0]);
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {scalar},
                 [scalar](const Tensor& g, const Tensor&) {
                   Tensor gs(1);
                   gs[0] = kernels::Sum(g.data(), g.numel());
                   scalar.AccumulateGrad(gs);
                 },
                 "broadcast_scalar");
}

Var MulConst(const Var& a, const Tensor& c) {
  EHNA_CHECK(a.value().SameShape(c));
  Tensor out = UninitLike(a.value());
  kernels::Mul(out.numel(), a.value().data(), c.data(), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  Tensor c_copy = c;
  return Var::Op(std::move(out), {a},
                 [a, c_copy](const Tensor& g, const Tensor&) {
                   Tensor ga = UninitLike(g);
                   kernels::Mul(g.numel(), g.data(), c_copy.data(), ga.data());
                   a.AccumulateGrad(ga);
                 },
                 "mul_const");
}

Var ColMean(const Var& mat) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK_GT(m.rows(), 0);
  Tensor out(m.cols());
  for (int64_t i = 0; i < m.rows(); ++i) {
    kernels::Axpy(m.cols(), 1.0f, m.Row(i), out.data());
  }
  kernels::Scale(m.cols(), 1.0f / static_cast<float>(m.rows()), out.data());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat](const Tensor& g, const Tensor&) {
                   const Tensor& m = mat.value();
                   const float inv = 1.0f / static_cast<float>(m.rows());
                   Tensor gm = Tensor::Uninit(m.rows(), m.cols());
                   kernels::ScaledCopy(m.cols(), inv, g.data(), gm.Row(0));
                   for (int64_t i = 1; i < m.rows(); ++i) {
                     kernels::Copy(gm.Row(0), gm.Row(i), m.cols());
                   }
                   mat.AccumulateGrad(gm);
                 },
                 "col_mean");
}

Var AsMatrix(const Var& vec) {
  const Tensor& x = vec.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  Tensor out = x.Reshape(1, x.numel());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {vec},
                 [vec](const Tensor& g, const Tensor&) {
                   Tensor gv = Tensor::Uninit(g.numel());
                   kernels::Copy(g.data(), gv.data(), g.numel());
                   vec.AccumulateGrad(gv);
                 },
                 "as_matrix");
}

Var AsVector(const Var& mat) {
  const Tensor& x = mat.value();
  EHNA_CHECK_EQ(x.rank(), 2);
  EHNA_CHECK_EQ(x.rows(), 1);
  Tensor out = Tensor::Uninit(x.cols());
  kernels::Copy(x.data(), out.data(), x.cols());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat](const Tensor& g, const Tensor&) {
                   Tensor gm = g.Reshape(1, g.numel());
                   mat.AccumulateGrad(gm);
                 },
                 "as_vector");
}

// ---------------------------------------------------------------- fused ops

Var LstmPreact(const Var& x, const Var& w_ih, const Var& h, const Var& w_hh,
               const Var& bias) {
  const Tensor& xv = x.value();
  const Tensor& wi = w_ih.value();
  const Tensor& hv = h.value();
  const Tensor& wh = w_hh.value();
  const Tensor& bv = bias.value();
  EHNA_CHECK_EQ(xv.rank(), 2);
  EHNA_CHECK_EQ(hv.rank(), 2);
  EHNA_CHECK_EQ(xv.rows(), hv.rows());
  EHNA_CHECK_EQ(xv.cols(), wi.rows());
  EHNA_CHECK_EQ(hv.cols(), wh.rows());
  EHNA_CHECK_EQ(wi.cols(), wh.cols());
  EHNA_CHECK_EQ(bv.rank(), 1);
  EHNA_CHECK_EQ(bv.rows(), wi.cols());
  EHNA_TRACE_PHASE("kernels.phase.lstm_step");
  const int64_t b = xv.rows();
  const int64_t four_h = wi.cols();
  Tensor out = Tensor::Uninit(b, four_h);
  kernels::GemmNN(b, four_h, xv.cols(), xv.data(), wi.data(), out.data(),
                  /*accumulate=*/false);
  kernels::GemmNN(b, four_h, hv.cols(), hv.data(), wh.data(), out.data(),
                  /*accumulate=*/true);
  for (int64_t i = 0; i < b; ++i) {
    kernels::Add(four_h, out.Row(i), bv.data(), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(
      std::move(out), {x, w_ih, h, w_hh, bias},
      [x, w_ih, h, w_hh, bias](const Tensor& g, const Tensor&) {
        EHNA_TRACE_PHASE("kernels.phase.lstm_step");
        const Tensor& xv = x.value();
        const Tensor& wi = w_ih.value();
        const Tensor& hv = h.value();
        const Tensor& wh = w_hh.value();
        const int64_t b = g.rows();
        const int64_t four_h = g.cols();
        Tensor gx = Tensor::Uninit(xv.rows(), xv.cols());
        kernels::GemmNT(b, xv.cols(), four_h, g.data(), wi.data(), gx.data(),
                        /*accumulate=*/false);
        x.AccumulateGrad(gx);
        Tensor gwi = Tensor::Uninit(wi.rows(), wi.cols());
        kernels::GemmTN(wi.rows(), four_h, b, xv.data(), g.data(), gwi.data(),
                        /*accumulate=*/false);
        w_ih.AccumulateGrad(gwi);
        Tensor gh = Tensor::Uninit(hv.rows(), hv.cols());
        kernels::GemmNT(b, hv.cols(), four_h, g.data(), wh.data(), gh.data(),
                        /*accumulate=*/false);
        h.AccumulateGrad(gh);
        Tensor gwh = Tensor::Uninit(wh.rows(), wh.cols());
        kernels::GemmTN(wh.rows(), four_h, b, hv.data(), g.data(), gwh.data(),
                        /*accumulate=*/false);
        w_hh.AccumulateGrad(gwh);
        Tensor gb(four_h);
        for (int64_t i = 0; i < b; ++i) {
          kernels::Axpy(four_h, 1.0f, g.Row(i), gb.data());
        }
        bias.AccumulateGrad(gb);
      },
      "lstm_preact");
}

Var LstmGates(const Var& z, const Var& c_prev) {
  const Tensor& zv = z.value();
  const Tensor& cv = c_prev.value();
  EHNA_CHECK_EQ(zv.rank(), 2);
  EHNA_CHECK_EQ(cv.rank(), 2);
  EHNA_CHECK_EQ(zv.rows(), cv.rows());
  EHNA_CHECK_EQ(zv.cols(), 4 * cv.cols());
  EHNA_TRACE_PHASE("kernels.phase.lstm_step");
  const int64_t b = zv.rows();
  const int64_t hsize = cv.cols();
  // Stashed forward intermediates the fused backward kernel needs. The
  // shared_ptr keeps them alive exactly as long as the graph node; under a
  // NoGradScope they are only kernel scratch, freed on return.
  struct Stash {
    Tensor ifgo;
    Tensor tanh_c;
  };
  auto stash = std::make_shared<Stash>();
  stash->ifgo = Tensor::Uninit(b, 4 * hsize);
  stash->tanh_c = Tensor::Uninit(b, hsize);
  Tensor hc = Tensor::Uninit(b, 2 * hsize);
  kernels::LstmGateForward(b, hsize, zv.data(), cv.data(), stash->ifgo.data(),
                           stash->tanh_c.data(), hc.data());
  if (!GradEnabled()) return Var::Leaf(std::move(hc));
  return Var::Op(
      std::move(hc), {z, c_prev},
      [z, c_prev, stash, b, hsize](const Tensor& g, const Tensor&) {
        EHNA_TRACE_PHASE("kernels.phase.lstm_step");
        Tensor gz = Tensor::Uninit(b, 4 * hsize);
        Tensor gc = Tensor::Uninit(b, hsize);
        kernels::LstmGateBackward(b, hsize, g.data(), stash->ifgo.data(),
                                  stash->tanh_c.data(), c_prev.value().data(),
                                  gz.data(), gc.data());
        z.AccumulateGrad(gz);
        c_prev.AccumulateGrad(gc);
      },
      "lstm_gates");
}

Var AttentionSoftmax(const Var& emb, const Var& target,
                     const Tensor& neg_coeffs) {
  const Tensor& e = emb.value();
  const Tensor& t = target.value();
  EHNA_CHECK_EQ(e.rank(), 2);
  EHNA_CHECK_EQ(t.rank(), 1);
  EHNA_CHECK_EQ(e.cols(), t.rows());
  EHNA_CHECK_EQ(neg_coeffs.rank(), 1);
  EHNA_CHECK_EQ(neg_coeffs.rows(), e.rows());
  EHNA_TRACE_PHASE("kernels.phase.attention");
  const int64_t l = e.rows();
  const int64_t d = e.cols();
  Tensor alpha = Tensor::Uninit(l);
  kernels::AttentionSoftmaxForward(l, d, e.data(), t.data(),
                                   neg_coeffs.data(), alpha.data());
  if (!GradEnabled()) return Var::Leaf(std::move(alpha));
  Tensor nc_copy = neg_coeffs;
  return Var::Op(
      std::move(alpha), {emb, target},
      [emb, target, nc_copy, l, d](const Tensor& g, const Tensor& y) {
        EHNA_TRACE_PHASE("kernels.phase.attention");
        Tensor ge(l, d);
        Tensor gt(d);
        kernels::AttentionSoftmaxBackward(l, d, g.data(), y.data(),
                                          emb.value().data(),
                                          target.value().data(),
                                          nc_copy.data(), ge.data(),
                                          gt.data());
        emb.AccumulateGrad(ge);
        target.AccumulateGrad(gt);
      },
      "attention_softmax");
}

// ---------------------------------------------------- packed/segment ops

Var SegmentRows(const Var& mat, int64_t row_start, int64_t rows) {
  const Tensor& m = mat.value();
  EHNA_CHECK_EQ(m.rank(), 2);
  EHNA_CHECK(row_start >= 0 && rows > 0 && row_start + rows <= m.rows());
  Tensor out = Tensor::Uninit(rows, m.cols());
  kernels::Copy(m.Row(row_start), out.data(), rows * m.cols());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {mat},
                 [mat, row_start](const Tensor& g, const Tensor&) {
                   mat.AccumulateGradRows(row_start, g);
                 },
                 "segment_rows");
}

Var PackRows(const std::vector<Var>& sources,
             const std::vector<PackedRowRef>& refs, int64_t cols) {
  EHNA_CHECK(!refs.empty());
  Tensor out = Tensor::Uninit(static_cast<int64_t>(refs.size()), cols);
  for (size_t i = 0; i < refs.size(); ++i) {
    const PackedRowRef& r = refs[i];
    float* dst = out.Row(static_cast<int64_t>(i));
    if (r.source < 0) {
      kernels::Fill(dst, cols, 0.0f);
    } else {
      const Tensor& src = sources[r.source].value();
      EHNA_DCHECK(src.cols() == cols && r.row >= 0 && r.row < src.rows());
      kernels::Copy(src.Row(r.row), dst, cols);
    }
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  std::vector<Var> parents = sources;
  return Var::Op(std::move(out), std::move(parents),
                 [sources, refs](const Tensor& g, const Tensor&) {
                   for (size_t i = 0; i < refs.size(); ++i) {
                     const PackedRowRef& r = refs[i];
                     if (r.source < 0) continue;  // padding row.
                     sources[r.source].AccumulateGradRow(
                         r.row, g.Row(static_cast<int64_t>(i)));
                   }
                 },
                 "pack_rows");
}

std::vector<Var> FanInUses(const Var& src, int n) {
  EHNA_CHECK_GT(n, 1);
  // Without a backward there is no fan-in to order: every use is `src`.
  if (!GradEnabled()) return std::vector<Var>(n, src);
  // Shared countdown: each use parks its gradient in a private slot; the
  // last-executed use sums the slots in slot order, so the total fed to
  // `src` is independent of the engine's closure schedule.
  struct Junction {
    std::vector<Tensor> slots;
    int remaining;
  };
  auto junction = std::make_shared<Junction>();
  junction->slots.resize(n);
  junction->remaining = n;
  std::vector<Var> uses;
  uses.reserve(n);
  for (int i = 0; i < n; ++i) {
    Tensor value = src.value();  // alias-by-copy of the forward value.
    uses.push_back(Var::Op(
        std::move(value), {src},
        [src, junction, i](const Tensor& g, const Tensor&) {
          junction->slots[i] = g;
          if (--junction->remaining > 0) return;
          Tensor total = junction->slots[0];
          for (size_t s = 1; s < junction->slots.size(); ++s) {
            EHNA_CHECK(!junction->slots[s].empty());
            total.AddInPlace(junction->slots[s]);
          }
          src.AccumulateGrad(total);
        },
        "fan_in_use"));
  }
  return uses;
}

Var LstmPreactNoWeightGrad(const Var& x, const Var& h, const Var& w_ih,
                           const Var& w_hh, const Var& bias) {
  const Tensor& xv = x.value();
  const Tensor& wi = w_ih.value();
  const Tensor& hv = h.value();
  const Tensor& wh = w_hh.value();
  const Tensor& bv = bias.value();
  EHNA_CHECK_EQ(xv.rank(), 2);
  EHNA_CHECK_EQ(hv.rank(), 2);
  EHNA_CHECK_EQ(xv.rows(), hv.rows());
  EHNA_CHECK_EQ(xv.cols(), wi.rows());
  EHNA_CHECK_EQ(hv.cols(), wh.rows());
  EHNA_CHECK_EQ(wi.cols(), wh.cols());
  EHNA_CHECK_EQ(bv.rank(), 1);
  EHNA_CHECK_EQ(bv.rows(), wi.cols());
  EHNA_TRACE_PHASE("kernels.phase.lstm_step");
  const int64_t b = xv.rows();
  const int64_t four_h = wi.cols();
  Tensor out = Tensor::Uninit(b, four_h);
  kernels::GemmNN(b, four_h, xv.cols(), xv.data(), wi.data(), out.data(),
                  /*accumulate=*/false);
  kernels::GemmNN(b, four_h, hv.cols(), hv.data(), wh.data(), out.data(),
                  /*accumulate=*/true);
  for (int64_t i = 0; i < b; ++i) {
    kernels::Add(four_h, out.Row(i), bv.data(), out.Row(i));
  }
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(
      std::move(out), {x, h},
      [x, h, w_ih, w_hh](const Tensor& g, const Tensor&) {
        EHNA_TRACE_PHASE("kernels.phase.lstm_step");
        const Tensor& xv = x.value();
        const Tensor& wi = w_ih.value();
        const Tensor& hv = h.value();
        const Tensor& wh = w_hh.value();
        const int64_t b = g.rows();
        const int64_t four_h = g.cols();
        Tensor gx = Tensor::Uninit(xv.rows(), xv.cols());
        kernels::GemmNT(b, xv.cols(), four_h, g.data(), wi.data(), gx.data(),
                        /*accumulate=*/false);
        x.AccumulateGrad(gx);
        Tensor gh = Tensor::Uninit(hv.rows(), hv.cols());
        kernels::GemmNT(b, hv.cols(), four_h, g.data(), wh.data(), gh.data(),
                        /*accumulate=*/false);
        h.AccumulateGrad(gh);
      },
      "lstm_preact_nwg");
}

Var MatMulNoWeightGrad(const Var& a, const Var& w) {
  EHNA_TRACE_PHASE("kernels.phase.gemm");
  Tensor out = ehna::MatMul(a.value(), w.value());
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a},
                 [a, w](const Tensor& g, const Tensor&) {
                   EHNA_TRACE_PHASE("kernels.phase.gemm");
                   a.AccumulateGrad(MatMulTransposeB(g, w.value()));
                 },
                 "matmul_nwg");
}

Var ConcatDeferredB(const Var& a, const Tensor& b_value,
                    std::shared_ptr<Tensor> b_grad, const Var& order_tether) {
  const Tensor& x = a.value();
  EHNA_CHECK_EQ(x.rank(), 1);
  EHNA_CHECK_EQ(b_value.rank(), 1);
  EHNA_CHECK(b_grad != nullptr);
  Tensor out = Tensor::Uninit(x.numel() + b_value.numel());
  kernels::Copy(x.data(), out.data(), x.numel());
  kernels::Copy(b_value.data(), out.data() + x.numel(), b_value.numel());
  const int64_t na = x.numel();
  // `order_tether` only forces the traversal to reach the replay sentinel
  // through this node's subtree; no gradient is routed to it here.
  if (!GradEnabled()) return Var::Leaf(std::move(out));
  return Var::Op(std::move(out), {a, order_tether},
                 [a, b_grad, na](const Tensor& g, const Tensor&) {
                   Tensor ga = Tensor::Uninit(na);
                   kernels::Copy(g.data(), ga.data(), na);
                   a.AccumulateGrad(ga);
                   kernels::Axpy(g.numel() - na, 1.0f, g.data() + na,
                                 b_grad->data());
                 },
                 "concat_deferred_b");
}

Var AttentionSoftmaxDeferredTarget(const Var& emb, const Tensor& target_value,
                                   const Tensor& neg_coeffs,
                                   std::shared_ptr<Tensor> gtarget,
                                   const Var& order_tether) {
  const Tensor& e = emb.value();
  EHNA_CHECK_EQ(e.rank(), 2);
  EHNA_CHECK_EQ(target_value.rank(), 1);
  EHNA_CHECK_EQ(e.cols(), target_value.rows());
  EHNA_CHECK_EQ(neg_coeffs.rank(), 1);
  EHNA_CHECK_EQ(neg_coeffs.rows(), e.rows());
  EHNA_CHECK(gtarget != nullptr);
  EHNA_TRACE_PHASE("kernels.phase.attention");
  const int64_t l = e.rows();
  const int64_t d = e.cols();
  Tensor alpha = Tensor::Uninit(l);
  kernels::AttentionSoftmaxForward(l, d, e.data(), target_value.data(),
                                   neg_coeffs.data(), alpha.data());
  if (!GradEnabled()) return Var::Leaf(std::move(alpha));
  Tensor t_copy = target_value;
  Tensor nc_copy = neg_coeffs;
  return Var::Op(
      std::move(alpha), {emb, order_tether},
      [emb, t_copy, nc_copy, gtarget, l, d](const Tensor& g, const Tensor& y) {
        EHNA_TRACE_PHASE("kernels.phase.attention");
        Tensor ge(l, d);
        kernels::AttentionSoftmaxBackward(l, d, g.data(), y.data(),
                                          emb.value().data(), t_copy.data(),
                                          nc_copy.data(), ge.data(),
                                          gtarget->data());
        emb.AccumulateGrad(ge);
      },
      "attention_softmax_dt");
}

}  // namespace ehna::ag
