//! Optimizers and learning-rate schedules.

use crate::layer::Param;
use crate::tensor::Tensor;

/// Gradient clipping configuration (global L2 norm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradClip {
    /// Maximum allowed global gradient norm.
    pub max_norm: f32,
}

impl GradClip {
    /// Creates a gradient-clipping configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn new(max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "max_norm must be positive");
        Self { max_norm }
    }

    /// Scales the gradients in place so the global L2 norm is at most `max_norm`.
    /// Returns the scaling factor applied (1.0 if no clipping happened).
    pub fn apply(&self, params: &mut [&mut Param]) -> f32 {
        let total: f32 = params.iter().map(|p| p.grad.norm_sq()).sum();
        let norm = total.sqrt();
        if norm <= self.max_norm || norm == 0.0 {
            return 1.0;
        }
        let scale = self.max_norm / norm;
        for p in params.iter_mut() {
            let scaled = p.grad.scale(scale);
            p.grad = scaled;
        }
        scale
    }
}

/// Learning-rate schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply the learning rate by `gamma` every `every` epochs.
    StepDecay {
        /// Number of epochs between decays.
        every: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Cosine annealing from the base learning rate to `min_lr` over `total_epochs`.
    Cosine {
        /// Total number of epochs of the schedule.
        total_epochs: usize,
        /// Final learning rate.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// Learning rate for `epoch` (0-based) given a base learning rate.
    pub fn lr_at(&self, base_lr: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::StepDecay { every, gamma } => {
                base_lr * gamma.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::Cosine {
                total_epochs,
                min_lr,
            } => {
                let t = (epoch as f32 / total_epochs.max(1) as f32).min(1.0);
                min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Common optimizer interface: consumes accumulated gradients and updates parameters.
pub trait Optimizer {
    /// Applies one update step to the given parameters and zeroes their gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Sets the current learning rate (used by schedules).
    fn set_lr(&mut self, lr: f32);

    /// Returns the current learning rate.
    fn lr(&self) -> f32;
}

/// Stochastic gradient descent, optionally with momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0, 0.0)
    }

    /// SGD with momentum and L2 weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum` is not in `[0, 1)`, or `weight_decay < 0`.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            let mut grad = p.grad.clone();
            if self.weight_decay > 0.0 {
                grad.add_scaled_inplace(&p.value, self.weight_decay);
            }
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                // v = momentum * v + grad ; w -= lr * v
                let mut new_v = v.scale(self.momentum);
                new_v.add_scaled_inplace(&grad, 1.0);
                *v = new_v;
                p.value.add_scaled_inplace(v, -self.lr);
            } else {
                p.value.add_scaled_inplace(&grad, -self.lr);
            }
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new("x", Tensor::from_vec(vec![x0], &[1]).unwrap())
    }

    /// Minimize f(x) = (x - 3)^2 with each optimizer; all should converge.
    fn run_optimizer(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = quadratic_param(10.0);
        for _ in 0..steps {
            let x = p.value.data()[0];
            p.grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();
            opt.step(&mut [&mut p]);
        }
        p.value.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_optimizer(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        let x = run_optimizer(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = quadratic_param(1.0);
        p.grad = Tensor::ones(&[1]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new("w", Tensor::full(&[4], 10.0));
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        // Zero task gradient: only decay drives the update.
        for _ in 0..10 {
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0] < 10.0);
    }

    #[test]
    fn grad_clip_limits_norm() {
        let mut p = Param::new("w", Tensor::zeros(&[3]));
        p.grad = Tensor::from_vec(vec![3.0, 4.0, 0.0], &[3]).unwrap(); // norm 5
        let clip = GradClip::new(1.0);
        let scale = clip.apply(&mut [&mut p]);
        assert!((scale - 0.2).abs() < 1e-6);
        assert!((p.grad.norm_sq().sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn grad_clip_noop_when_small() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.grad = Tensor::from_vec(vec![0.1, 0.1], &[2]).unwrap();
        let clip = GradClip::new(10.0);
        assert_eq!(clip.apply(&mut [&mut p]), 1.0);
    }

    #[test]
    fn lr_schedules() {
        assert_eq!(LrSchedule::Constant.lr_at(0.1, 50), 0.1);
        let step = LrSchedule::StepDecay {
            every: 10,
            gamma: 0.5,
        };
        assert!((step.lr_at(0.1, 0) - 0.1).abs() < 1e-7);
        assert!((step.lr_at(0.1, 10) - 0.05).abs() < 1e-7);
        assert!((step.lr_at(0.1, 25) - 0.025).abs() < 1e-7);
        let cos = LrSchedule::Cosine {
            total_epochs: 100,
            min_lr: 0.0,
        };
        assert!((cos.lr_at(0.1, 0) - 0.1).abs() < 1e-6);
        assert!(cos.lr_at(0.1, 100) < 1e-6);
        assert!(cos.lr_at(0.1, 50) < 0.1 && cos.lr_at(0.1, 50) > 0.0);
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Sgd::new(0.01);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
    }
}
