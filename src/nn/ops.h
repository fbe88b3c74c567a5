#ifndef EHNA_NN_OPS_H_
#define EHNA_NN_OPS_H_

#include <memory>
#include <vector>

#include "nn/autograd.h"

namespace ehna::ag {

// Differentiable operations over `Var`. Every function returns a new graph
// node whose backward closure routes gradients to its inputs — or, under a
// NoGradScope (autograd.h), the bit-identical forward value as a plain
// leaf. Shape conventions: "vec" is rank-1 [n]; "mat" is rank-2 [m,n].

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);

/// Σ terms[i] over n same-shape terms in a single graph node. Replaces
/// O(n)-deep chains of Add for batch-loss accumulation: one node, one
/// backward closure, and a left-to-right accumulation order identical to
/// the chained form.
Var SumN(const std::vector<Var>& terms);

/// mat [m,n] + row-broadcast vec [n] (bias add).
Var AddRowBroadcast(const Var& mat, const Var& row);

/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);

/// Each row of mat [m,n] minus vec [n].
Var SubRowBroadcast(const Var& mat, const Var& row);

/// Elementwise a * b (same shape).
Var Mul(const Var& a, const Var& b);

/// a * c for a compile-time-constant scalar c.
Var ScalarMul(const Var& a, float c);

/// a + c elementwise.
Var AddScalar(const Var& a, float c);

/// Matrix product [m,k] @ [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);

/// Matrix-vector product [m,k] @ [k] -> [m].
Var MatVec(const Var& mat, const Var& vec);

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);  ///< Natural log; inputs must be positive.

/// Softmax over a rank-1 vector (numerically stabilized).
Var Softmax(const Var& vec);

/// Sum of all elements -> scalar [1].
Var Sum(const Var& a);

/// Mean of all elements -> scalar [1].
Var Mean(const Var& a);

/// Sum of squared elements -> scalar [1] (i.e. squared L2 norm).
Var SumSquares(const Var& a);

/// Per-row squared L2 norm of mat [m,n] -> vec [m].
Var RowSumSquares(const Var& mat);

/// Dot product of two rank-1 vectors -> scalar [1].
Var Dot(const Var& a, const Var& b);

/// Row i of mat [m,n] -> vec [n].
Var Row(const Var& mat, int64_t i);

/// Stacks rank-1 vectors (all length n) into a [m,n] matrix.
Var ConcatRows(const std::vector<Var>& rows);

/// Concatenation of two rank-1 vectors -> [na+nb].
Var Concat(const Var& a, const Var& b);

/// Columns [start, start+len) of mat -> [m,len].
Var SliceCols(const Var& mat, int64_t start, int64_t len);

/// Scales row i of mat [m,n] by scale[i]; gradients flow to both.
Var ScaleRows(const Var& mat, const Var& scale);

/// Scales row i by the constant scale[i] (no gradient to the scales).
Var ScaleRowsConst(const Var& mat, const Tensor& scale);

/// Per-row select between two same-shape matrices:
/// out_i = mask[i] * a_i + (1 - mask[i]) * b_i. `mask` is constant. Used to
/// freeze LSTM state on padded timesteps of shorter walks.
Var MaskRows(const Var& a, const Var& b, const Tensor& mask);

/// vec / max(||vec||, eps): the L2 normalization applied to aggregated
/// embeddings (Algorithm 1 line 8).
Var L2Normalize(const Var& vec, float eps = 1e-12f);

/// max(0, x) on a scalar — the hinge [.]_+ of Eq. 5. (Alias of Relu with a
/// scalar check.)
Var Hinge(const Var& scalar);

/// Numerically stable elementwise log(sigmoid(x)).
Var LogSigmoid(const Var& a);

/// Replicates a scalar [1] into a rank-1 vector of length n; the gradient
/// sums back.
Var BroadcastScalar(const Var& scalar, int64_t n);

/// Elementwise product with a constant tensor (no gradient to `c`).
Var MulConst(const Var& a, const Tensor& c);

/// Column means of mat [m,n] -> vec [n] (mean over the batch dimension).
Var ColMean(const Var& mat);

/// Reinterprets a rank-1 [n] as a single-row matrix [1,n].
Var AsMatrix(const Var& vec);

/// Reinterprets a single-row matrix [1,n] as a rank-1 [n].
Var AsVector(const Var& mat);

// ------------------------------------------------------------- fused ops
// Thin autodiff wrappers over the fused kernels in nn/kernels.h. These
// collapse what used to be 10+ graph nodes per LSTM step / attention head
// into one node each, with a single allocation-light backward closure.

/// Fused LSTM pre-activation: x @ w_ih + h @ w_hh + bias (row-broadcast).
/// x [b,in], w_ih [in,4h], h [b,h], w_hh [h,4h], bias [4h] -> [b,4h].
Var LstmPreact(const Var& x, const Var& w_ih, const Var& h, const Var& w_hh,
               const Var& bias);

/// Fused LSTM gate + cell update over pre-activations z [b,4h] (column
/// blocks i|f|g|o) and c_prev [b,h]. Returns [b,2h] packing the new hidden
/// state h' in columns [0,h) and the new cell state c' in [h,2h); extract
/// with SliceCols. The activated gates and tanh(c') are stashed for the
/// backward pass, which is a single fused kernel call.
Var LstmGates(const Var& z, const Var& c_prev);

/// Fused attention weights (Eqs. 3-4): softmax over
/// neg_coeffs[i] * ||emb_i - target||^2 for the l rows of emb [l,d].
/// `neg_coeffs` (the negated temporal coefficients) is constant — no
/// gradient flows to it. Returns the weights alpha [l].
Var AttentionSoftmax(const Var& emb, const Var& target,
                     const Tensor& neg_coeffs);

// ----------------------------------------------------- packed/segment ops
// Ops for the minibatch-packed aggregation path (DESIGN.md §10). They route
// row-block gradients with AccumulateGradRows/AccumulateGradRow instead of
// materializing full-size zero tensors, and several variants defer
// order-sensitive parameter accumulations to a replay sentinel so the
// packed path produces bitwise-identical gradients regardless of how many
// aggregations share one tape.

/// Rows [row_start, row_start + rows) of mat -> [rows, cols]. The backward
/// routes the block gradient into the matching rows of `mat`'s gradient.
Var SegmentRows(const Var& mat, int64_t row_start, int64_t rows);

/// One row of a packed timestep input: which source matrix (index into the
/// `sources` of PackRows) and which row of it. `source == -1` emits a zero
/// row (padding past the end of a short walk).
struct PackedRowRef {
  int32_t source = -1;
  int32_t row = 0;
};

/// Gathers rows from several source matrices (all with `cols` columns) into
/// one [refs.size(), cols] pack. Backward scatters row gradients back in
/// ascending output-row order via AccumulateGradRow; padding rows drop
/// their gradient.
Var PackRows(const std::vector<Var>& sources,
             const std::vector<PackedRowRef>& refs, int64_t cols);

/// Deterministic n-way fan-in junction. Returns n "use" nodes that all
/// alias `src`'s value. Each use's backward parks its incoming gradient in
/// a private slot; the last-executed use sums the slots in slot order and
/// feeds one AccumulateGrad into `src`. This makes the total gradient
/// independent of the engine's closure schedule when three or more
/// consumers feed one node and their relative order is not topologically
/// forced. Every returned use MUST be consumed by exactly one downstream
/// op, or `src` never receives its gradient.
std::vector<Var> FanInUses(const Var& src, int n);

/// LstmPreact variant for the packed path: same forward, but the graph
/// node's parents are {x, h} only and the backward computes just gx/gh.
/// The weight gradients (order-sensitive GemmTN accumulations) are
/// replayed later, per aggregation row-slice, by the pack's sentinel; the
/// weight Vars are captured here only to read their values.
Var LstmPreactNoWeightGrad(const Var& x, const Var& h, const Var& w_ih,
                           const Var& w_hh, const Var& bias);

/// MatMul variant whose node has parent {a} only; the backward computes
/// just the input gradient dL/da = g @ w^T. The weight gradient is
/// replayed by the pack's sentinel from this node's retained grad.
Var MatMulNoWeightGrad(const Var& a, const Var& w);

/// Concat of `a` with the constant vector `b_value`, with the b-side
/// gradient written into `*b_grad` (pre-zeroed, owned by the caller's
/// replay record) instead of a Var. `order_tether` is a traversal-ordering
/// parent only (no gradient is routed to it): it guarantees the node's
/// subtree reaches the replay sentinel even when `a` is a constant leaf.
Var ConcatDeferredB(const Var& a, const Tensor& b_value,
                    std::shared_ptr<Tensor> b_grad, const Var& order_tether);

/// AttentionSoftmax variant whose target is the constant `target_value`;
/// the target gradient accumulates into `*gtarget` (pre-zeroed, one buffer
/// per call) for the replay sentinel to scatter later. `order_tether` is a
/// traversal-ordering parent only, as in ConcatDeferredB.
Var AttentionSoftmaxDeferredTarget(const Var& emb, const Tensor& target_value,
                                   const Tensor& neg_coeffs,
                                   std::shared_ptr<Tensor> gtarget,
                                   const Var& order_tether);

}  // namespace ehna::ag

#endif  // EHNA_NN_OPS_H_
