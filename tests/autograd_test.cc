#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/autograd.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace ehna {
namespace {

/// Checks d(loss)/d(leaf) against central finite differences for every
/// element of every leaf. `build` must construct a scalar loss from the
/// given leaves (freshly, on each call).
void CheckGradients(std::vector<Var> leaves,
                    const std::function<Var(const std::vector<Var>&)>& build,
                    float eps = 1e-3f, float tol = 2e-2f) {
  Var loss = build(leaves);
  ASSERT_EQ(loss.value().numel(), 1);
  Backward(loss);

  for (size_t li = 0; li < leaves.size(); ++li) {
    Var& leaf = leaves[li];
    const Tensor analytic = leaf.grad().numel() == 0
                                ? Tensor()  // no gradient flowed.
                                : leaf.grad();
    for (int64_t i = 0; i < leaf.value().numel(); ++i) {
      const float orig = leaf.value().data()[i];
      leaf.mutable_value().data()[i] = orig + eps;
      const float up = build(leaves).value()[0];
      leaf.mutable_value().data()[i] = orig - eps;
      const float down = build(leaves).value()[0];
      leaf.mutable_value().data()[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float got = analytic.numel() == 0 ? 0.0f : analytic.data()[i];
      EXPECT_NEAR(got, numeric, tol + 0.05f * std::abs(numeric))
          << "leaf " << li << " element " << i;
    }
  }
}

Var RandomLeaf(int64_t n, Rng* rng) {
  Tensor t(n);
  UniformInit(&t, -1.0f, 1.0f, rng);
  return Var::Leaf(std::move(t), true);
}

Var RandomLeaf(int64_t r, int64_t c, Rng* rng) {
  Tensor t(r, c);
  UniformInit(&t, -1.0f, 1.0f, rng);
  return Var::Leaf(std::move(t), true);
}

// ------------------------------------------------------------ Mechanics

TEST(AutogradTest, LeafHoldsValue) {
  Var v = Var::Leaf(Tensor::FromVector({1, 2}));
  EXPECT_FALSE(v.requires_grad());
  EXPECT_FLOAT_EQ(v.value()[1], 2.0f);
}

TEST(AutogradTest, BackwardSeedsScalarOne) {
  Var x = Var::Leaf(Tensor::FromVector({3.0f}), true);
  Var y = ag::ScalarMul(x, 2.0f);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Var y = ag::Add(x, x);  // dy/dx = 2.
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Backward(ag::ScalarMul(x, 3.0f));
  EXPECT_EQ(x.grad().numel(), 1);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().numel(), 0);
}

TEST(AutogradTest, NoGradForConstantSubtree) {
  Var c = Var::Leaf(Tensor::FromVector({5.0f}), false);
  Var x = Var::Leaf(Tensor::FromVector({2.0f}), true);
  Var y = ag::Add(ag::ScalarMul(c, 2.0f), x);
  Backward(y);
  EXPECT_EQ(c.grad().numel(), 0);  // backward skipped for constants.
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

TEST(AutogradTest, DiamondGraphCorrectGradient) {
  // y = x*x + x  =>  dy/dx = 2x + 1.
  Var x = Var::Leaf(Tensor::FromVector({3.0f}), true);
  Var y = ag::Add(ag::Mul(x, x), x);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(AutogradTest, RepeatedBackwardAccumulates) {
  Var x = Var::Leaf(Tensor::FromVector({1.0f}), true);
  Backward(ag::ScalarMul(x, 2.0f));
  Backward(ag::ScalarMul(x, 3.0f));
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

// ------------------------------------------------- Finite-diff checks

TEST(GradCheckTest, AddSubMul) {
  Rng rng(1);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::Mul(ag::Add(v[0], v[1]),
                                          ag::Sub(v[0], v[1])));
                 });
}

TEST(GradCheckTest, MatMul) {
  Rng rng(2);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, 2, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::MatMul(v[0], v[1]));
                 });
}

TEST(GradCheckTest, MatVec) {
  Rng rng(3);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::MatVec(v[0], v[1]));
                 });
}

TEST(GradCheckTest, RowBroadcastOps) {
  Rng rng(4);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Sum(ag::Mul(ag::AddRowBroadcast(v[0], v[1]),
                                          ag::SubRowBroadcast(v[0], v[1])));
                 });
}

TEST(GradCheckTest, Activations) {
  Rng rng(5);
  CheckGradients({RandomLeaf(6, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(
        ag::Add(ag::Sigmoid(v[0]), ag::Add(ag::Tanh(v[0]), ag::Relu(v[0]))));
  });
}

TEST(GradCheckTest, ExpAndLog) {
  Rng rng(6);
  // Keep log inputs positive via exp.
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(ag::Log(ag::AddScalar(ag::Exp(v[0]), 1.0f)));
  });
}

TEST(GradCheckTest, LogSigmoid) {
  Rng rng(7);
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::Sum(ag::LogSigmoid(ag::ScalarMul(v[0], 3.0f)));
  });
}

TEST(GradCheckTest, SoftmaxWeightedSum) {
  Rng rng(8);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::Softmax(v[0]), v[1]);
                 });
}

TEST(GradCheckTest, SumSquaresAndRowSumSquares) {
  Rng rng(9);
  CheckGradients({RandomLeaf(3, 4, &rng)}, [](const std::vector<Var>& v) {
    return ag::Add(ag::Sum(ag::RowSumSquares(v[0])),
                   ag::ScalarMul(ag::SumSquares(v[0]), 0.5f));
  });
}

TEST(GradCheckTest, MeanAndAddScalar) {
  Rng rng(10);
  CheckGradients({RandomLeaf(7, &rng)}, [](const std::vector<Var>& v) {
    return ag::Mean(ag::AddScalar(v[0], 2.5f));
  });
}

TEST(GradCheckTest, RowAndConcatRows) {
  Rng rng(11);
  CheckGradients({RandomLeaf(3, 4, &rng)}, [](const std::vector<Var>& v) {
    std::vector<Var> rows{ag::Row(v[0], 2), ag::Row(v[0], 0),
                          ag::Row(v[0], 1)};
    return ag::SumSquares(ag::ConcatRows(rows));
  });
}

TEST(GradCheckTest, ConcatVectors) {
  Rng rng(12);
  CheckGradients({RandomLeaf(3, &rng), RandomLeaf(4, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::Concat(v[0], v[1]));
                 });
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(13);
  CheckGradients({RandomLeaf(3, 6, &rng)}, [](const std::vector<Var>& v) {
    return ag::Add(ag::Sum(ag::SliceCols(v[0], 0, 2)),
                   ag::SumSquares(ag::SliceCols(v[0], 3, 3)));
  });
}

TEST(GradCheckTest, ScaleRows) {
  Rng rng(14);
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(3, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::ScaleRows(v[0], v[1]));
                 });
}

TEST(GradCheckTest, ScaleRowsConstAndMulConst) {
  Rng rng(15);
  Tensor scale = Tensor::FromVector({0.5f, 2.0f, -1.0f});
  Tensor cmat = Tensor::FromVector({1.0f, -2.0f, 0.5f, 3.0f});
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(4, &rng)},
                 [scale, cmat](const std::vector<Var>& v) {
                   return ag::Add(
                       ag::Sum(ag::ScaleRowsConst(v[0], scale)),
                       ag::Sum(ag::MulConst(v[1], cmat)));
                 });
}

TEST(GradCheckTest, MaskRows) {
  Rng rng(16);
  Tensor mask = Tensor::FromVector({1.0f, 0.0f, 1.0f});
  CheckGradients({RandomLeaf(3, 4, &rng), RandomLeaf(3, 4, &rng)},
                 [mask](const std::vector<Var>& v) {
                   return ag::SumSquares(ag::MaskRows(v[0], v[1], mask));
                 });
}

TEST(GradCheckTest, L2Normalize) {
  Rng rng(17);
  CheckGradients({RandomLeaf(5, &rng), RandomLeaf(5, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::L2Normalize(v[0]), v[1]);
                 });
}

TEST(GradCheckTest, BroadcastScalar) {
  Rng rng(18);
  CheckGradients({RandomLeaf(1, &rng), RandomLeaf(6, &rng)},
                 [](const std::vector<Var>& v) {
                   return ag::Dot(ag::BroadcastScalar(v[0], 6), v[1]);
                 });
}

TEST(GradCheckTest, ColMean) {
  Rng rng(19);
  CheckGradients({RandomLeaf(4, 3, &rng)}, [](const std::vector<Var>& v) {
    return ag::SumSquares(ag::ColMean(v[0]));
  });
}

TEST(GradCheckTest, AsMatrixAsVectorRoundTrip) {
  Rng rng(20);
  CheckGradients({RandomLeaf(5, &rng)}, [](const std::vector<Var>& v) {
    return ag::SumSquares(ag::AsVector(ag::AsMatrix(v[0])));
  });
}

TEST(GradCheckTest, HingeActiveAndInactive) {
  Var x = Var::Leaf(Tensor::FromVector({2.0f}), true);
  Backward(ag::Hinge(x));
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);

  Var y = Var::Leaf(Tensor::FromVector({-2.0f}), true);
  Var h = ag::Hinge(y);
  EXPECT_FLOAT_EQ(h.value()[0], 0.0f);
  Backward(h);
  EXPECT_FLOAT_EQ(y.grad()[0], 0.0f);
}

TEST(GradCheckTest, CompositeExpressionLikeLoss) {
  // A miniature version of the EHNA objective over raw leaves:
  // [m + ||a-b||^2 - ||a-c||^2]_+.
  Rng rng(21);
  CheckGradients(
      {RandomLeaf(4, &rng), RandomLeaf(4, &rng), RandomLeaf(4, &rng)},
      [](const std::vector<Var>& v) {
        Var d_pos = ag::SumSquares(ag::Sub(v[0], v[1]));
        Var d_neg = ag::SumSquares(ag::Sub(v[0], v[2]));
        return ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), 1.0f));
      });
}

// ------------------------------------------------------------- no-grad mode

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// A node built under a NoGradScope retains nothing a backward would use.
void ExpectTapeFree(const Var& v, const std::string& what) {
  EXPECT_TRUE(v.impl()->parents.empty()) << what;
  EXPECT_FALSE(static_cast<bool>(v.impl()->backward)) << what;
}

TEST(NoGradTest, ScopeIsThreadLocalAndNests) {
  EXPECT_TRUE(GradEnabled());
  {
    NoGradScope outer;
    EXPECT_FALSE(GradEnabled());
    {
      NoGradScope inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
    bool other_thread = false;
    std::thread([&] { other_thread = GradEnabled(); }).join();
    EXPECT_TRUE(other_thread);
  }
  EXPECT_TRUE(GradEnabled());
}

// Every op of ops.h: the no-grad value is bit-identical to the grad-mode
// value, and the no-grad node holds no parents and no closure — so none of
// the captures or stashes (LstmGates' gate activations, BatchNorm's
// statistics, mask and coefficient copies) outlive the call.
TEST(NoGradTest, EveryOpMatchesGradModeBitwiseAndRecordsNothing) {
  Rng rng(41);
  const Var a = RandomLeaf(4, 3, &rng);
  const Var b = RandomLeaf(4, 3, &rng);
  Tensor positive(4, 3);
  UniformInit(&positive, 0.5f, 2.0f, &rng);
  const Var pos = Var::Leaf(std::move(positive), /*requires_grad=*/true);
  const Var row3 = RandomLeaf(3, &rng);
  const Var vec4 = RandomLeaf(4, &rng);
  const Var vec4b = RandomLeaf(4, &rng);
  const Var w34 = RandomLeaf(3, 5, &rng);
  const Var scalar = RandomLeaf(1, &rng);
  const Var z = RandomLeaf(4, 8, &rng);   // LSTM pre-activations, h = 2.
  const Var c = RandomLeaf(4, 2, &rng);
  const Var w_ih = RandomLeaf(3, 8, &rng);
  const Var h2 = RandomLeaf(4, 2, &rng);
  const Var w_hh = RandomLeaf(2, 8, &rng);
  const Var bias8 = RandomLeaf(8, &rng);
  const Tensor mask = Tensor::FromVector({1.0f, 0.0f, 1.0f, 0.0f});
  const Tensor neg = Tensor::FromVector({-0.5f, -1.0f, -2.0f, -0.25f});
  const Tensor scales = Tensor::FromVector({0.5f, 2.0f, -1.0f, 3.0f});

  const std::vector<std::pair<std::string, std::function<Var()>>> ops = {
      {"Add", [&] { return ag::Add(a, b); }},
      {"SumN", [&] { return ag::SumN({a, b, a}); }},
      {"AddRowBroadcast", [&] { return ag::AddRowBroadcast(a, row3); }},
      {"Sub", [&] { return ag::Sub(a, b); }},
      {"SubRowBroadcast", [&] { return ag::SubRowBroadcast(a, row3); }},
      {"Mul", [&] { return ag::Mul(a, b); }},
      {"ScalarMul", [&] { return ag::ScalarMul(a, 1.7f); }},
      {"AddScalar", [&] { return ag::AddScalar(a, -0.3f); }},
      {"MatMul", [&] { return ag::MatMul(a, w34); }},
      {"MatVec", [&] { return ag::MatVec(a, row3); }},
      {"Sigmoid", [&] { return ag::Sigmoid(a); }},
      {"Tanh", [&] { return ag::Tanh(a); }},
      {"Relu", [&] { return ag::Relu(a); }},
      {"Exp", [&] { return ag::Exp(a); }},
      {"Log", [&] { return ag::Log(pos); }},
      {"Softmax", [&] { return ag::Softmax(vec4); }},
      {"Sum", [&] { return ag::Sum(a); }},
      {"Mean", [&] { return ag::Mean(a); }},
      {"SumSquares", [&] { return ag::SumSquares(a); }},
      {"RowSumSquares", [&] { return ag::RowSumSquares(a); }},
      {"Dot", [&] { return ag::Dot(vec4, vec4b); }},
      {"Row", [&] { return ag::Row(a, 2); }},
      {"ConcatRows", [&] { return ag::ConcatRows({row3, row3}); }},
      {"Concat", [&] { return ag::Concat(vec4, row3); }},
      {"SliceCols", [&] { return ag::SliceCols(a, 1, 2); }},
      {"ScaleRows", [&] { return ag::ScaleRows(a, vec4); }},
      {"ScaleRowsConst", [&] { return ag::ScaleRowsConst(a, scales); }},
      {"MaskRows", [&] { return ag::MaskRows(a, b, mask); }},
      {"L2Normalize", [&] { return ag::L2Normalize(vec4); }},
      {"Hinge", [&] { return ag::Hinge(scalar); }},
      {"LogSigmoid", [&] { return ag::LogSigmoid(a); }},
      {"BroadcastScalar", [&] { return ag::BroadcastScalar(scalar, 5); }},
      {"MulConst", [&] { return ag::MulConst(a, b.value()); }},
      {"ColMean", [&] { return ag::ColMean(a); }},
      {"AsMatrix", [&] { return ag::AsMatrix(vec4); }},
      {"AsVector", [&] { return ag::AsVector(ag::AsMatrix(vec4)); }},
      {"LstmPreact",
       [&] { return ag::LstmPreact(a, w_ih, h2, w_hh, bias8); }},
      {"LstmGates", [&] { return ag::LstmGates(z, c); }},
      {"AttentionSoftmax",
       [&] { return ag::AttentionSoftmax(a, row3, neg); }},
      {"SegmentRows", [&] { return ag::SegmentRows(a, 1, 2); }},
      {"PackRows",
       [&] {
         return ag::PackRows({a, b}, {{1, 0}, {-1, 0}, {0, 3}}, 3);
       }},
      {"LstmPreactNoWeightGrad",
       [&] {
         return ag::LstmPreactNoWeightGrad(a, h2, w_ih, w_hh, bias8);
       }},
      {"MatMulNoWeightGrad", [&] { return ag::MatMulNoWeightGrad(a, w34); }},
      {"ConcatDeferredB",
       [&] {
         return ag::ConcatDeferredB(vec4, row3.value(),
                                    std::make_shared<Tensor>(3), a);
       }},
      {"AttentionSoftmaxDeferredTarget",
       [&] {
         return ag::AttentionSoftmaxDeferredTarget(
             a, row3.value(), neg, std::make_shared<Tensor>(3), row3);
       }},
  };
  for (const auto& [name, build] : ops) {
    const Var recorded = build();
    EXPECT_TRUE(!recorded.impl()->parents.empty() ||
                static_cast<bool>(recorded.impl()->backward))
        << name << " records nothing even in grad mode";
    Var free;
    {
      NoGradScope no_grad;
      free = build();
    }
    EXPECT_TRUE(SameBits(recorded.value(), free.value())) << name;
    ExpectTapeFree(free, name);
  }

  // FanInUses: no junction without a backward; every use is the source.
  {
    NoGradScope no_grad;
    for (const Var& use : ag::FanInUses(a, 3)) EXPECT_TRUE(use == a);
  }
}

}  // namespace
}  // namespace ehna
