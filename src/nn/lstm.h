#ifndef EHNA_NN_LSTM_H_
#define EHNA_NN_LSTM_H_

#include <vector>

#include "nn/autograd.h"
#include "util/rng.h"

namespace ehna {

/// One LSTM cell with the standard i/f/g/o gate parameterization, operating
/// on batches of row vectors. Gate weights are packed as
/// [input_dim, 4*hidden] and [hidden, 4*hidden] (column blocks i|f|g|o);
/// forget-gate biases initialize to 1 for stable early training.
class LstmCell {
 public:
  LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  struct State {
    Var h;  // [B, hidden]
    Var c;  // [B, hidden]
  };

  /// Fresh all-zero state for a batch of `batch` rows (constant leaves).
  State InitialState(int64_t batch) const;

  /// One step: x [B, input_dim], state {h, c} -> new state.
  State Forward(const Var& x, const State& state) const;

  std::vector<Var> Parameters() const;

  int64_t input_dim() const { return input_dim_; }
  int64_t hidden_dim() const { return hidden_dim_; }

  /// Weight leaves, exposed for the packed-aggregation replay, which
  /// computes the per-aggregation weight gradients itself (DESIGN.md §10).
  const Var& w_ih() const { return w_ih_; }
  const Var& w_hh() const { return w_hh_; }
  const Var& bias() const { return bias_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  Var w_ih_;  // [input_dim, 4*hidden]
  Var w_hh_;  // [hidden, 4*hidden]
  Var bias_;  // [4*hidden]
};

/// One (layer, step) record of a packed multi-sequence LSTM forward. The
/// replay sentinel of the packed aggregation path reads `x`/`h_prev`
/// values and `z`'s retained gradient to rebuild each aggregation's weight
/// gradients from its contiguous row slice (bitwise equal to the slices a
/// per-aggregation pack would produce).
struct PackedLstmStep {
  Var x;       // cell input at this step [n_t, in]
  Var h_prev;  // hidden-state input consumed by the pre-activation [n_t, h]
  Var z;       // pre-activation node [n_t, 4h]
};

/// Result of a packed forward. In grad mode it is the full trace:
/// per-step, per-layer records plus the post-mask top-layer hidden state of
/// every step. Under a NoGradScope nothing needs replaying, so `steps` and
/// `top_h` stay empty and only `final_h` is kept: row r holds the top-layer
/// hidden state at the last step row r was in the pack — each sequence's
/// readout, O(rows × hidden) instead of O(T × rows × hidden) per layer.
struct PackedLstmTrace {
  std::vector<std::vector<PackedLstmStep>> steps;  // [T][num_layers]
  std::vector<Var> top_h;                          // [T]
  Tensor final_h;                                  // [n_0, hidden], no-grad

  /// The top-layer final hidden state of rows [row, row + rows), a block
  /// whose sequences all leave the pack after step `t_end`. Grad mode:
  /// SegmentRows of top_h[t_end]; no-grad: a copy of those final_h rows
  /// (the same bits).
  Var Readout(size_t t_end, int64_t row, int64_t rows) const;
};

/// A stack of LSTM layers (the paper's "stacked LSTM" aggregator; the
/// default depth is 2, per §V.C). `Forward` consumes a whole sequence and
/// returns the top layer's final hidden state, honoring per-timestep
/// validity masks so that variable-length walks batched together freeze
/// their state once exhausted.
class StackedLstm {
 public:
  StackedLstm(int64_t input_dim, int64_t hidden_dim, int num_layers,
              Rng* rng);

  /// `inputs[t]` is the batch input at step t ([B, input_dim]); `masks[t]`
  /// (rank-1 [B], values 0/1, constant) marks which rows are still alive at
  /// step t. Pass an empty `masks` to treat every step as valid. Returns the
  /// final hidden state of the top layer, [B, hidden].
  Var Forward(const std::vector<Var>& inputs,
              const std::vector<Tensor>& masks) const;

  /// Packed multi-sequence forward (DESIGN.md §10): `inputs[t]` holds the
  /// step-t rows of every sequence still running at step t, with a
  /// non-increasing row count n_t (sequences sorted by descending length,
  /// whole tail blocks dropping at shrink points); `masks[t]` (empty for a
  /// maskless pack) freezes rows of ragged sequences padded inside their
  /// block. Row r of every step-t tensor belongs to the same sequence, so
  /// each sequence's forward is bitwise identical to running it through
  /// `Forward` alone (all kernels on the path are row-local).
  ///
  /// Weight gradients are NOT produced by this path — the caller's replay
  /// sentinel rebuilds them per aggregation row-slice from the returned
  /// trace. State fan-ins whose accumulation order the engine does not
  /// force are routed through FanInUses junctions, so input/state
  /// gradients are also schedule-independent. Under a NoGradScope only the
  /// live per-layer state survives a step, and the trace carries just the
  /// per-row readouts (PackedLstmTrace::final_h).
  PackedLstmTrace ForwardPacked(const std::vector<Var>& inputs,
                                const std::vector<Tensor>& masks) const;

  std::vector<Var> Parameters() const;

  int num_layers() const { return static_cast<int>(cells_.size()); }
  int64_t hidden_dim() const { return hidden_dim_; }
  const LstmCell& cell(int l) const { return cells_[l]; }

 private:
  /// ForwardPacked under a NoGradScope.
  PackedLstmTrace ForwardPackedNoGrad(const std::vector<Var>& inputs,
                                      const std::vector<Tensor>& masks) const;

  int64_t hidden_dim_;
  std::vector<LstmCell> cells_;
};

}  // namespace ehna

#endif  // EHNA_NN_LSTM_H_
