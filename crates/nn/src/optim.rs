//! SGD with Nesterov momentum and the paper's learning-rate schedule.
//!
//! The paper trains every model with batch size 128, initial learning rate
//! 0.1 divided by 5 at epochs 60/120/160 (of 200), weight decay `5e-4`, and
//! Nesterov momentum 0.9 (§4.1). [`SgdConfig::default`] encodes those
//! hyper-parameters; [`MultiStepLr::paper_schedule`] encodes the schedule,
//! scaling the milestones when an experiment runs fewer epochs.

use crate::models::Network;
use nessa_tensor::Tensor;

/// Hyper-parameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Momentum coefficient (paper: 0.9).
    pub momentum: f32,
    /// L2 weight decay (paper: 5e-4), applied to every parameter.
    pub weight_decay: f32,
    /// Use Nesterov momentum (paper: yes).
    pub nesterov: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            momentum: 0.9,
            weight_decay: 5e-4,
            nesterov: true,
        }
    }
}

/// Stochastic gradient descent with (Nesterov) momentum and weight decay.
///
/// The update follows the standard formulation: with gradient `g` (weight
/// decay folded in), velocity `v ← μv + g`, and step `g + μv` under
/// Nesterov or `v` otherwise.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer; velocity buffers are allocated lazily on the
    /// first [`Sgd::step`].
    pub fn new(config: SgdConfig) -> Self {
        Self {
            config,
            velocity: Vec::new(),
        }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Applies one update to every parameter of `net` using the gradients
    /// accumulated by the most recent backward pass, then leaves gradients
    /// untouched (call [`Network::zero_grad`] before the next pass).
    pub fn step(&mut self, net: &mut Network, lr: f32) {
        let cfg = self.config;
        let velocity = &mut self.velocity;
        let mut i = 0;
        net.visit_params(&mut |p| {
            if velocity.len() <= i {
                velocity.push(Tensor::zeros(p.value.shape().dims()));
            }
            let v = &mut velocity[i];
            // g = grad (+ wd * w)
            let mut g = p.grad.clone();
            if cfg.weight_decay != 0.0 {
                g.axpy(cfg.weight_decay, &p.value);
            }
            // v = μv + g
            v.scale_inplace(cfg.momentum);
            *v += &g;
            // step = g + μv (Nesterov) or v
            if cfg.nesterov {
                g.axpy(cfg.momentum, v);
                p.value.axpy(-lr, &g);
            } else {
                p.value.axpy(-lr, v);
            }
            i += 1;
        });
    }

    /// Clears the momentum buffers (used when the parameter set changes).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// A multi-step learning-rate schedule: `base_lr` multiplied by `gamma`
/// after each milestone epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStepLr {
    base_lr: f32,
    gamma: f32,
    milestones: Vec<usize>,
}

impl MultiStepLr {
    /// Creates a schedule from explicit milestones.
    pub fn new(base_lr: f32, gamma: f32, milestones: Vec<usize>) -> Self {
        Self {
            base_lr,
            gamma,
            milestones,
        }
    }

    /// The paper's schedule — LR 0.1 divided by 5 at epochs 60/120/160 of
    /// 200 — rescaled proportionally to `total_epochs`.
    pub fn paper_schedule(total_epochs: usize) -> Self {
        let scale = |m: usize| m * total_epochs / 200;
        Self::new(0.1, 0.2, vec![scale(60), scale(120), scale(160)])
    }

    /// Replaces the base learning rate, keeping gamma and milestones
    /// (models far from the paper's ResNet scale need a different
    /// starting point on the same decay shape).
    pub fn with_base_lr(mut self, base_lr: f32) -> Self {
        self.base_lr = base_lr;
        self
    }

    /// Learning rate for a (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.base_lr * self.gamma.powi(passed as i32)
    }
}

/// Cosine-annealing learning-rate schedule: `base_lr` decayed to
/// `min_lr` over `total_epochs` along a half cosine. Provided as the
/// standard modern alternative to the paper's multi-step schedule for the
/// ablation benches.
#[derive(Debug, Clone, PartialEq)]
pub struct CosineLr {
    base_lr: f32,
    min_lr: f32,
    total_epochs: usize,
}

impl CosineLr {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `total_epochs == 0` or `min_lr > base_lr`.
    pub fn new(base_lr: f32, min_lr: f32, total_epochs: usize) -> Self {
        assert!(total_epochs > 0, "need at least one epoch");
        assert!(min_lr <= base_lr, "min_lr must not exceed base_lr");
        Self {
            base_lr,
            min_lr,
            total_epochs,
        }
    }

    /// Learning rate for a (0-based) epoch; clamps past the horizon.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let t = (epoch.min(self.total_epochs - 1)) as f32 / (self.total_epochs - 1).max(1) as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
        self.min_lr + (self.base_lr - self.min_lr) * cos
    }
}

/// Clips every parameter gradient of `net` to `[-limit, limit]`
/// elementwise; call between `backward` and [`Sgd::step`] when training
/// with large medoid weights.
///
/// # Panics
///
/// Panics if `limit` is not positive.
pub fn clip_gradients(net: &mut Network, limit: f32) {
    assert!(limit > 0.0, "clip limit must be positive");
    net.visit_params(&mut |p| {
        nessa_tensor::ops::clip_inplace(&mut p.grad, limit);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use nessa_tensor::rng::Rng64;
    use nessa_tensor::Tensor;

    #[test]
    fn cosine_schedule_endpoints_and_monotone() {
        let s = CosineLr::new(0.1, 0.001, 100);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(99) - 0.001).abs() < 1e-6);
        assert!((s.lr_at(500) - 0.001).abs() < 1e-6);
        for e in 1..100 {
            assert!(s.lr_at(e) <= s.lr_at(e - 1) + 1e-7);
        }
        // Halfway sits near the midpoint.
        let mid = s.lr_at(50);
        assert!((mid - 0.0505).abs() < 0.01, "mid {mid}");
    }

    #[test]
    fn with_base_lr_rescales_but_keeps_decay_shape() {
        let paper = MultiStepLr::paper_schedule(200);
        let scaled = MultiStepLr::paper_schedule(200).with_base_lr(0.02);
        assert!((scaled.lr_at(0) - 0.02).abs() < 1e-9);
        for e in [0, 59, 60, 119, 120, 159, 160, 199] {
            // Same decay multiplier at every epoch: ratio stays 0.02 / 0.1.
            let ratio = scaled.lr_at(e) / paper.lr_at(e);
            assert!((ratio - 0.2).abs() < 1e-6, "epoch {e}: ratio {ratio}");
        }
    }

    #[test]
    fn clip_gradients_bounds_all_entries() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[4, 4, 2], &mut rng);
        net.visit_params(&mut |p| {
            p.grad = Tensor::full(p.value.shape().dims(), 100.0);
        });
        clip_gradients(&mut net, 0.5);
        net.visit_params(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|&g| g.abs() <= 0.5));
        });
    }

    /// One-parameter quadratic: loss = 0.5 * w²; gradient = w.
    fn quadratic_step(net: &mut Network, opt: &mut Sgd, lr: f32) -> f32 {
        let mut w0 = 0.0;
        net.zero_grad();
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w0 = p.value.as_slice()[0];
                p.grad = p.value.clone();
            }
        });
        opt.step(net, lr);
        w0
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[1, 1], &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.0,
            nesterov: false,
        });
        let mut prev = f32::INFINITY;
        for _ in 0..30 {
            let w = quadratic_step(&mut net, &mut opt, 0.1).abs();
            assert!(w <= prev + 1e-6);
            prev = w;
        }
        assert!(prev < 0.1);
    }

    #[test]
    fn plain_momentum_matches_hand_rolled_update() {
        let mut rng = Rng64::new(1);
        let mut net = mlp(&[1, 1], &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: false,
        });
        let mut w = 0.0;
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w = p.value.as_slice()[0];
            }
        });
        let mut v = 0.0f32;
        let mut w_ref = w;
        for _ in 0..5 {
            let g = w_ref; // quadratic gradient
            v = 0.9 * v + g;
            w_ref -= 0.05 * v;
            quadratic_step(&mut net, &mut opt, 0.05);
        }
        let mut w_actual = 0.0;
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w_actual = p.value.as_slice()[0];
            }
        });
        assert!((w_actual - w_ref).abs() < 1e-5, "{w_actual} vs {w_ref}");
    }

    #[test]
    fn nesterov_differs_from_plain_momentum() {
        let mut rng = Rng64::new(2);
        let mut a = mlp(&[1, 1], &mut rng);
        let mut b = mlp(&[1, 1], &mut rng);
        // Give both nets identical weights.
        let w = a.export_weights();
        b.import_weights(&w);
        let mut oa = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: true,
        });
        let mut ob = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: false,
        });
        for _ in 0..3 {
            quadratic_step(&mut a, &mut oa, 0.05);
            quadratic_step(&mut b, &mut ob, 0.05);
        }
        let (mut wa, mut wb) = (0.0, 0.0);
        a.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                wa = p.value.as_slice()[0];
            }
        });
        b.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                wb = p.value.as_slice()[0];
            }
        });
        assert!((wa - wb).abs() > 1e-7);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = Rng64::new(3);
        let mut net = mlp(&[2, 2], &mut rng);
        let before: f32 = net.export_weights().iter().map(Tensor::sq_norm).sum();
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.1,
            nesterov: false,
        });
        net.zero_grad();
        opt.step(&mut net, 0.5);
        let after: f32 = net.export_weights().iter().map(Tensor::sq_norm).sum();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn paper_schedule_divides_by_five() {
        let s = MultiStepLr::paper_schedule(200);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(59) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(60) - 0.02).abs() < 1e-7);
        assert!((s.lr_at(120) - 0.004).abs() < 1e-7);
        assert!((s.lr_at(160) - 0.0008).abs() < 1e-7);
        assert!((s.lr_at(199) - 0.0008).abs() < 1e-7);
    }

    #[test]
    fn paper_schedule_rescales() {
        let s = MultiStepLr::paper_schedule(50);
        // Milestones 15/30/40.
        assert!((s.lr_at(14) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(15) - 0.02).abs() < 1e-7);
        assert!((s.lr_at(40) - 0.0008).abs() < 1e-7);
    }
}
