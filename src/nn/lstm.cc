#include "nn/lstm.h"

#include "nn/init.h"
#include "nn/kernels.h"
#include "nn/ops.h"

namespace ehna {

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  EHNA_CHECK_GT(input_dim, 0);
  EHNA_CHECK_GT(hidden_dim, 0);
  Tensor w_ih(input_dim, 4 * hidden_dim);
  Tensor w_hh(hidden_dim, 4 * hidden_dim);
  XavierInit(&w_ih, input_dim, hidden_dim, rng);
  XavierInit(&w_hh, hidden_dim, hidden_dim, rng);
  Tensor bias(4 * hidden_dim);
  // Forget-gate block (second quarter) biased to 1.
  for (int64_t j = hidden_dim; j < 2 * hidden_dim; ++j) bias[j] = 1.0f;
  w_ih_ = Var::Leaf(std::move(w_ih), /*requires_grad=*/true);
  w_hh_ = Var::Leaf(std::move(w_hh), /*requires_grad=*/true);
  bias_ = Var::Leaf(std::move(bias), /*requires_grad=*/true);
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return State{Var::Leaf(Tensor(batch, hidden_dim_)),
               Var::Leaf(Tensor(batch, hidden_dim_))};
}

LstmCell::State LstmCell::Forward(const Var& x, const State& state) const {
  EHNA_CHECK_EQ(x.value().cols(), input_dim_);
  // Two fused graph nodes per step: the packed pre-activation GEMM and the
  // gate/cell-update kernel (replaces the former 16-node slice/activate/
  // combine chain).
  Var z = ag::LstmPreact(x, w_ih_, state.h, w_hh_, bias_);
  Var hc = ag::LstmGates(z, state.c);
  return State{ag::SliceCols(hc, 0, hidden_dim_),
               ag::SliceCols(hc, hidden_dim_, hidden_dim_)};
}

std::vector<Var> LstmCell::Parameters() const { return {w_ih_, w_hh_, bias_}; }

StackedLstm::StackedLstm(int64_t input_dim, int64_t hidden_dim, int num_layers,
                         Rng* rng)
    : hidden_dim_(hidden_dim) {
  EHNA_CHECK_GE(num_layers, 1);
  cells_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    cells_.emplace_back(l == 0 ? input_dim : hidden_dim, hidden_dim, rng);
  }
}

Var StackedLstm::Forward(const std::vector<Var>& inputs,
                         const std::vector<Tensor>& masks) const {
  EHNA_CHECK(!inputs.empty());
  EHNA_CHECK(masks.empty() || masks.size() == inputs.size());
  const int64_t batch = inputs[0].value().rows();

  std::vector<LstmCell::State> states;
  states.reserve(cells_.size());
  for (const auto& cell : cells_) states.push_back(cell.InitialState(batch));

  for (size_t t = 0; t < inputs.size(); ++t) {
    Var layer_input = inputs[t];
    for (size_t l = 0; l < cells_.size(); ++l) {
      LstmCell::State next = cells_[l].Forward(layer_input, states[l]);
      if (!masks.empty()) {
        // Padded rows keep their previous state, so the final hidden state
        // of a short walk is the one at its last valid step.
        next.h = ag::MaskRows(next.h, states[l].h, masks[t]);
        next.c = ag::MaskRows(next.c, states[l].c, masks[t]);
      }
      states[l] = next;
      layer_input = states[l].h;
    }
  }
  return states.back().h;
}

Var PackedLstmTrace::Readout(size_t t_end, int64_t row, int64_t rows) const {
  if (!top_h.empty()) return ag::SegmentRows(top_h[t_end], row, rows);
  EHNA_CHECK(row >= 0 && rows > 0 && row + rows <= final_h.rows());
  Tensor out = Tensor::Uninit(rows, final_h.cols());
  kernels::Copy(final_h.Row(row), out.data(), rows * final_h.cols());
  return Var::Leaf(std::move(out));
}

PackedLstmTrace StackedLstm::ForwardPacked(
    const std::vector<Var>& inputs, const std::vector<Tensor>& masks) const {
  EHNA_CHECK(!inputs.empty());
  EHNA_CHECK(masks.empty() || masks.size() == inputs.size());
  if (!GradEnabled()) return ForwardPackedNoGrad(inputs, masks);
  const size_t T = inputs.size();
  const size_t L = cells_.size();
  const bool masked = !masks.empty();

  PackedLstmTrace trace;
  trace.steps.resize(T);
  trace.top_h.resize(T);

  // Per-layer state plus the Var the next step's MaskRows b-side must
  // consume (differs from `h` only when a FanInUses junction split the
  // consumers).
  struct PackState {
    Var h;
    Var h_for_mask;
    Var c;
  };
  std::vector<PackState> states(L);
  const int64_t n0 = inputs[0].value().rows();
  for (size_t l = 0; l < L; ++l) {
    LstmCell::State init = cells_[l].InitialState(n0);
    states[l] = {init.h, init.h, init.c};
  }

  for (size_t t = 0; t < T; ++t) {
    const int64_t n_t = inputs[t].value().rows();
    EHNA_CHECK_EQ(states[0].h.value().rows(), n_t);
    const int64_t n_next =
        t + 1 < T ? inputs[t + 1].value().rows() : 0;
    EHNA_CHECK(t + 1 >= T || n_next <= n_t);
    const bool shrink = t + 1 < T && n_next < n_t;

    Var layer_input = inputs[t];
    trace.steps[t].resize(L);
    for (size_t l = 0; l < L; ++l) {
      const LstmCell& cell = cells_[l];
      Var z = ag::LstmPreactNoWeightGrad(layer_input, states[l].h,
                                         cell.w_ih(), cell.w_hh(),
                                         cell.bias());
      Var hc = ag::LstmGates(z, states[l].c);
      Var h = ag::SliceCols(hc, 0, hidden_dim_);
      Var c = ag::SliceCols(hc, hidden_dim_, hidden_dim_);
      if (masked) {
        h = ag::MaskRows(h, states[l].h_for_mask, masks[t]);
        c = ag::MaskRows(c, states[l].c, masks[t]);
      }
      trace.steps[t][l] = PackedLstmStep{layer_input, states[l].h, z};

      const bool is_top = l + 1 == L;
      if (is_top) {
        // Consumers of `h`: caller readouts for sequences ending here
        // (rows >= n_next, AccumulateGradRows) and, when steps remain, the
        // next step's state. At a shrink point the surviving prefix is
        // sliced off (AccumulateGradRows on rows [0, n_next)) — row-
        // disjoint with the readouts, so accumulation order cannot matter.
        // Without shrink both next-step consumers (pre-activation h-input
        // and MaskRows b-side) accumulate full-shape gradients, a
        // commutative two-term fan-in.
        trace.top_h[t] = h;
        if (t + 1 < T) {
          if (shrink) {
            Var hp = ag::SegmentRows(h, 0, n_next);
            states[l] = {hp, hp, ag::SegmentRows(c, 0, n_next)};
          } else {
            states[l] = {h, h, c};
          }
        }
      } else if (t + 1 == T) {
        // Only consumer is the next layer this step.
        layer_input = h;
      } else if (shrink) {
        // `h` feeds the next layer (full-shape grad) and the surviving
        // prefix slice (row-block grad) — mixed accumulation forms whose
        // order the engine does not fix, so split them through a junction.
        std::vector<Var> uses = ag::FanInUses(h, 2);
        layer_input = uses[0];
        Var hp = ag::SegmentRows(uses[1], 0, n_next);
        states[l] = {hp, hp, ag::SegmentRows(c, 0, n_next)};
      } else if (masked) {
        // Three same-shape consumers (next layer x, next step h-input,
        // next step MaskRows b-side) with one topologically unordered —
        // a junction makes the sum slot-ordered.
        std::vector<Var> uses = ag::FanInUses(h, 3);
        layer_input = uses[0];
        states[l] = {uses[1], uses[2], c};
      } else {
        // Maskless, no shrink: two full-shape consumers, commutative.
        layer_input = h;
        states[l] = {h, h, c};
      }
    }
  }
  return trace;
}

PackedLstmTrace StackedLstm::ForwardPackedNoGrad(
    const std::vector<Var>& inputs, const std::vector<Tensor>& masks) const {
  const size_t T = inputs.size();
  const size_t L = cells_.size();
  const int64_t n0 = inputs[0].value().rows();

  // The same per-step op sequence as the grad-mode loop (row-local kernels,
  // identical operands), minus the junctions: with no backward there is no
  // fan-in to order, so every consumer reads `h` directly.
  PackedLstmTrace trace;
  trace.final_h = Tensor::Uninit(n0, hidden_dim_);
  std::vector<LstmCell::State> states;
  states.reserve(L);
  for (const LstmCell& cell : cells_) states.push_back(cell.InitialState(n0));

  for (size_t t = 0; t < T; ++t) {
    const int64_t n_t = inputs[t].value().rows();
    EHNA_CHECK_EQ(states[0].h.value().rows(), n_t);
    const int64_t n_next = t + 1 < T ? inputs[t + 1].value().rows() : 0;
    EHNA_CHECK(n_next <= n_t);

    Var layer_input = inputs[t];
    for (size_t l = 0; l < L; ++l) {
      const LstmCell& cell = cells_[l];
      Var z = ag::LstmPreactNoWeightGrad(layer_input, states[l].h,
                                         cell.w_ih(), cell.w_hh(),
                                         cell.bias());
      Var hc = ag::LstmGates(z, states[l].c);
      Var h = ag::SliceCols(hc, 0, hidden_dim_);
      Var c = ag::SliceCols(hc, hidden_dim_, hidden_dim_);
      if (!masks.empty()) {
        h = ag::MaskRows(h, states[l].h, masks[t]);
        c = ag::MaskRows(c, states[l].c, masks[t]);
      }
      if (l + 1 == L && n_next < n_t) {
        // Rows [n_next, n_t) leave the pack after this step: their
        // top-layer state is their readout.
        kernels::Copy(h.value().Row(n_next), trace.final_h.Row(n_next),
                      (n_t - n_next) * hidden_dim_);
      }
      layer_input = h;
      if (n_next == 0) continue;  // last step: no state to carry.
      states[l] = n_next < n_t
                      ? LstmCell::State{ag::SegmentRows(h, 0, n_next),
                                        ag::SegmentRows(c, 0, n_next)}
                      : LstmCell::State{h, c};
    }
  }
  return trace;
}

std::vector<Var> StackedLstm::Parameters() const {
  std::vector<Var> params;
  for (const auto& cell : cells_) {
    auto p = cell.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace ehna
