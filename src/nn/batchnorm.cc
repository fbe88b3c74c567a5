#include "nn/batchnorm.h"

#include <cmath>

#include "nn/kernels.h"
#include "nn/ops.h"

namespace ehna {

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      running_mean_(features),
      running_var_(Tensor::Full(features, 1.0f)) {
  gamma_ = Var::Leaf(Tensor::Full(features, 1.0f), /*requires_grad=*/true);
  beta_ = Var::Leaf(Tensor(features), /*requires_grad=*/true);
}

namespace {

/// Batch mean and (biased) variance over the rows of `in`, via kernels.
void BatchStats(const Tensor& in, Tensor* mean, Tensor* var) {
  const int64_t batch = in.rows();
  const int64_t f = in.cols();
  for (int64_t i = 0; i < batch; ++i) {
    kernels::Axpy(f, 1.0f, in.Row(i), mean->data());
  }
  kernels::Scale(f, 1.0f / static_cast<float>(batch), mean->data());
  Tensor diff = Tensor::Uninit(f);
  for (int64_t i = 0; i < batch; ++i) {
    kernels::Sub(f, in.Row(i), mean->data(), diff.data());
    kernels::MulAdd(f, diff.data(), diff.data(), var->data(), var->data());
  }
  kernels::Scale(f, 1.0f / static_cast<float>(batch), var->data());
}

}  // namespace

Var BatchNorm1d::ForwardWithStats(const Var& x, const Tensor& mean,
                                  const Tensor& inv_std,
                                  bool batch_stats) const {
  const Tensor& in = x.value();
  const int64_t batch = in.rows();
  const int64_t f = features_;

  Tensor out = Tensor::Uninit(batch, f);
  for (int64_t i = 0; i < batch; ++i) {
    kernels::BatchNormApplyRow(f, in.Row(i), mean.data(), inv_std.data(),
                               gamma_.value().data(), beta_.value().data(),
                               out.Row(i));
  }

  if (!GradEnabled()) return Var::Leaf(std::move(out));
  Var gamma = gamma_;
  Var beta = beta_;
  Tensor mean_c = mean;
  Tensor inv_std_c = inv_std;
  return Var::Op(
      std::move(out), {x, gamma, beta},
      [x, gamma, beta, mean_c, inv_std_c, batch_stats](const Tensor& g,
                                                       const Tensor&) {
        const Tensor& in = x.value();
        const int64_t batch = in.rows();
        const int64_t f = in.cols();
        const float* gm = gamma.value().data();

        // Recompute x_hat.
        Tensor xhat = Tensor::Uninit(batch, f);
        for (int64_t i = 0; i < batch; ++i) {
          kernels::NormalizeRow(f, in.Row(i), mean_c.data(), inv_std_c.data(),
                                xhat.Row(i));
        }

        Tensor dgamma(f), dbeta(f);
        for (int64_t i = 0; i < batch; ++i) {
          kernels::MulAdd(f, g.Row(i), xhat.Row(i), dgamma.data(),
                          dgamma.data());
          kernels::Axpy(f, 1.0f, g.Row(i), dbeta.data());
        }
        gamma.AccumulateGrad(dgamma);
        beta.AccumulateGrad(dbeta);

        Tensor dx = Tensor::Uninit(batch, f);
        if (!batch_stats) {
          // Statistics are constants: a per-feature affine map.
          for (int64_t i = 0; i < batch; ++i) {
            kernels::Mul(f, g.Row(i), gm, dx.Row(i));
            kernels::Mul(f, dx.Row(i), inv_std_c.data(), dx.Row(i));
          }
        } else {
          // Full backward through the batch mean and variance.
          Tensor sum_dxhat(f), sum_dxhat_xhat(f);
          Tensor dxh = Tensor::Uninit(f);
          for (int64_t i = 0; i < batch; ++i) {
            kernels::Mul(f, g.Row(i), gm, dxh.data());
            kernels::Axpy(f, 1.0f, dxh.data(), sum_dxhat.data());
            kernels::MulAdd(f, dxh.data(), xhat.Row(i),
                            sum_dxhat_xhat.data(), sum_dxhat_xhat.data());
          }
          const float inv_b = 1.0f / static_cast<float>(batch);
          for (int64_t i = 0; i < batch; ++i) {
            kernels::BatchNormBackwardRow(
                f, static_cast<float>(batch), inv_b, g.Row(i), gm,
                xhat.Row(i), inv_std_c.data(), sum_dxhat.data(),
                sum_dxhat_xhat.data(), dx.Row(i));
          }
        }
        x.AccumulateGrad(dx);
      },
      "batch_norm");
}

void BatchNorm1d::UpdateRunningStats(const Tensor& mean, const Tensor& var) {
  if (!stats_initialized_) {
    // Same-numel copy-assign reuses the heap buffers of the running
    // statistics, so they stay off the batch arena.
    running_mean_ = mean;
    running_var_ = var;
    stats_initialized_ = true;
  } else {
    kernels::Scale(features_, 1.0f - momentum_, running_mean_.data());
    kernels::Axpy(features_, momentum_, mean.data(), running_mean_.data());
    kernels::Scale(features_, 1.0f - momentum_, running_var_.data());
    kernels::Axpy(features_, momentum_, var.data(), running_var_.data());
  }
}

Var BatchNorm1d::ForwardPopulation(const Var& x, bool update_stats) {
  const Tensor& in = x.value();
  EHNA_CHECK_EQ(in.rank(), 2);
  EHNA_CHECK_EQ(in.cols(), features_);
  const int64_t batch = in.rows();

  if (update_stats && batch >= 1) {
    Tensor mean(features_), var(features_);
    BatchStats(in, &mean, &var);
    UpdateRunningStats(mean, var);
  }
  Tensor inv_std = Tensor::Uninit(features_);
  kernels::InvSqrt(features_, running_var_.data(), eps_, inv_std.data());
  return ForwardWithStats(x, running_mean_, inv_std, /*batch_stats=*/false);
}

Var BatchNorm1d::Forward(const Var& x, bool training) {
  const Tensor& in = x.value();
  EHNA_CHECK_EQ(in.rank(), 2);
  EHNA_CHECK_EQ(in.cols(), features_);
  const int64_t batch = in.rows();

  const bool use_batch_stats = training && batch > 1;
  Tensor mean(features_), var(features_);
  if (use_batch_stats) {
    BatchStats(in, &mean, &var);
    UpdateRunningStats(mean, var);
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  Tensor inv_std = Tensor::Uninit(features_);
  kernels::InvSqrt(features_, var.data(), eps_, inv_std.data());
  return ForwardWithStats(x, mean, inv_std, use_batch_stats);
}

Var BatchNorm1d::ForwardWithStatsDeferred(
    const Var& x, const Tensor& mean, const Tensor& inv_std, bool batch_stats,
    std::shared_ptr<Tensor> dgamma, std::shared_ptr<Tensor> dbeta) const {
  const Tensor& in = x.value();
  const int64_t batch = in.rows();
  const int64_t f = features_;
  EHNA_CHECK(dgamma != nullptr && dbeta != nullptr);

  Tensor out = Tensor::Uninit(batch, f);
  for (int64_t i = 0; i < batch; ++i) {
    kernels::BatchNormApplyRow(f, in.Row(i), mean.data(), inv_std.data(),
                               gamma_.value().data(), beta_.value().data(),
                               out.Row(i));
  }

  if (!GradEnabled()) return Var::Leaf(std::move(out));
  Var gamma = gamma_;
  Tensor mean_c = mean;
  Tensor inv_std_c = inv_std;
  // Same math as ForwardWithStats, but dgamma/dbeta land in the caller's
  // pre-zeroed buffers (one pair per call, so the contents match the
  // legacy per-call tensors exactly); the replay sentinel feeds them into
  // the parameter leaves in canonical aggregation order.
  return Var::Op(
      std::move(out), {x},
      [x, gamma, mean_c, inv_std_c, batch_stats, dgamma, dbeta](
          const Tensor& g, const Tensor&) {
        const Tensor& in = x.value();
        const int64_t batch = in.rows();
        const int64_t f = in.cols();
        const float* gm = gamma.value().data();

        // Recompute x_hat.
        Tensor xhat = Tensor::Uninit(batch, f);
        for (int64_t i = 0; i < batch; ++i) {
          kernels::NormalizeRow(f, in.Row(i), mean_c.data(), inv_std_c.data(),
                                xhat.Row(i));
        }

        for (int64_t i = 0; i < batch; ++i) {
          kernels::MulAdd(f, g.Row(i), xhat.Row(i), dgamma->data(),
                          dgamma->data());
          kernels::Axpy(f, 1.0f, g.Row(i), dbeta->data());
        }

        Tensor dx = Tensor::Uninit(batch, f);
        if (!batch_stats) {
          // Statistics are constants: a per-feature affine map.
          for (int64_t i = 0; i < batch; ++i) {
            kernels::Mul(f, g.Row(i), gm, dx.Row(i));
            kernels::Mul(f, dx.Row(i), inv_std_c.data(), dx.Row(i));
          }
        } else {
          // Full backward through the batch mean and variance.
          Tensor sum_dxhat(f), sum_dxhat_xhat(f);
          Tensor dxh = Tensor::Uninit(f);
          for (int64_t i = 0; i < batch; ++i) {
            kernels::Mul(f, g.Row(i), gm, dxh.data());
            kernels::Axpy(f, 1.0f, dxh.data(), sum_dxhat.data());
            kernels::MulAdd(f, dxh.data(), xhat.Row(i),
                            sum_dxhat_xhat.data(), sum_dxhat_xhat.data());
          }
          const float inv_b = 1.0f / static_cast<float>(batch);
          for (int64_t i = 0; i < batch; ++i) {
            kernels::BatchNormBackwardRow(
                f, static_cast<float>(batch), inv_b, g.Row(i), gm,
                xhat.Row(i), inv_std_c.data(), sum_dxhat.data(),
                sum_dxhat_xhat.data(), dx.Row(i));
          }
        }
        x.AccumulateGrad(dx);
      },
      "batch_norm_deferred");
}

Var BatchNorm1d::ForwardDeferred(const Var& x, bool training,
                                 std::shared_ptr<Tensor> dgamma,
                                 std::shared_ptr<Tensor> dbeta) {
  const Tensor& in = x.value();
  EHNA_CHECK_EQ(in.rank(), 2);
  EHNA_CHECK_EQ(in.cols(), features_);
  const int64_t batch = in.rows();

  const bool use_batch_stats = training && batch > 1;
  Tensor mean(features_), var(features_);
  if (use_batch_stats) {
    BatchStats(in, &mean, &var);
    UpdateRunningStats(mean, var);
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  Tensor inv_std = Tensor::Uninit(features_);
  kernels::InvSqrt(features_, var.data(), eps_, inv_std.data());
  return ForwardWithStatsDeferred(x, mean, inv_std, use_batch_stats,
                                  std::move(dgamma), std::move(dbeta));
}

Var BatchNorm1d::ForwardPopulationDeferred(const Var& x, bool update_stats,
                                           std::shared_ptr<Tensor> dgamma,
                                           std::shared_ptr<Tensor> dbeta) {
  const Tensor& in = x.value();
  EHNA_CHECK_EQ(in.rank(), 2);
  EHNA_CHECK_EQ(in.cols(), features_);
  const int64_t batch = in.rows();

  if (update_stats && batch >= 1) {
    Tensor mean(features_), var(features_);
    BatchStats(in, &mean, &var);
    UpdateRunningStats(mean, var);
  }
  Tensor inv_std = Tensor::Uninit(features_);
  kernels::InvSqrt(features_, running_var_.data(), eps_, inv_std.data());
  return ForwardWithStatsDeferred(x, running_mean_, inv_std,
                                  /*batch_stats=*/false, std::move(dgamma),
                                  std::move(dbeta));
}

void BatchNorm1d::SetRunningStats(const Tensor& mean, const Tensor& var,
                                  bool initialized) {
  EHNA_CHECK_EQ(mean.numel(), features_);
  EHNA_CHECK_EQ(var.numel(), features_);
  running_mean_ = mean;
  running_var_ = var;
  stats_initialized_ = initialized;
}

std::vector<Var> BatchNorm1d::Parameters() const { return {gamma_, beta_}; }

}  // namespace ehna
