//! Layers with explicit forward/backward passes.
//!
//! Every layer caches whatever it needs during [`Layer::forward_train`]
//! and consumes that cache in [`Layer::backward`]; gradients accumulate
//! into [`Param::grad`] and are consumed by the optimizer. Evaluation runs
//! through [`Layer::infer`], which borrows the layer immutably, so one
//! network can serve several inference threads at once.

use nessa_tensor::ops::{add_bias_rows, relu_grad_mask, sum_axis0};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to [`Param::value`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self { value, grad }
    }

    /// Resets the gradient to zero in place.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: [`Layer::forward_train`] caches activations, and
/// [`Layer::backward`] must be called with the gradient of the loss w.r.t.
/// the layer's output *after* the corresponding training forward.
///
/// The `Send` supertrait lets a whole [`crate::models::Network`] move to
/// a worker thread (layers are plain tensors), which the overlapped
/// pipeline relies on to run selection concurrently with training;
/// `Sync` lets several threads run [`Layer::infer`] on one shared
/// network, which the selection proxy forward does.
pub trait Layer: Send + Sync {
    /// Runs the layer on a batch for evaluation: the output only, nothing
    /// cached. This is the one evaluation code path; the selection proxy
    /// forward and `evaluate` never call backward.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Runs the layer on a training batch: the same output as
    /// [`Layer::infer`], and caches what [`Layer::backward`] needs.
    fn forward_train(&mut self, x: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients, and returns the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward_train`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` into the parameter gradients only,
    /// without the gradient w.r.t. the input. A network's first layer
    /// runs this: nothing reads the gradient of the network's input.
    /// The default computes [`Layer::backward`] and drops its result.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Visits every trainable parameter (used by optimizers and the
    /// quantizer). Layers without parameters use the default no-op.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Multiply-accumulate-dominated FLOPs per input sample for the forward
    /// pass (backward is modelled as 2× forward, as is conventional).
    fn flops_per_sample(&self) -> u64 {
        0
    }

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;
}

/// Fully-connected layer `y = xW^T + b` with He-normal initialization.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`.
    ///
    /// Weights are He-normal (`std = sqrt(2 / in_features)`); biases start
    /// at zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Tensor::randn(&[out_features, in_features], 0.0, std, rng);
        let bias = Tensor::zeros(&[out_features]);
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects a 2-D batch");
        assert_eq!(x.dim(1), self.in_features, "Linear input width mismatch");
        let mut y = x.matmul_transb(&self.weight.value);
        add_bias_rows(&mut y, &self.bias.value);
        y
    }

    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dx = g W
        grad_out.matmul(&self.weight.value)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward before forward");
        // dW += g^T x ; db = sum_rows(g)
        self.weight.grad.add_matmul_transa(grad_out, x);
        self.bias.grad += &sum_axis0(grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn flops_per_sample(&self) -> u64 {
        2 * self.in_features as u64 * self.out_features as u64
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(|v| v.max(0.0))
    }

    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu::backward before forward");
        let mask = relu_grad_mask(x);
        grad_out
            .try_zip(&mask, "relu-backward", |g, m| g * m)
            .expect("relu gradient shape mismatch")
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Finite-difference check of a layer's input gradient on a small batch.
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        // Scalar loss: sum of outputs. dL/dy = ones.
        let y = layer.forward_train(x);
        let gin = layer.backward(&Tensor::ones(y.shape().dims()));
        let eps = 1e-3;
        for i in 0..x.numel().min(24) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.infer(&xp).sum();
            let fm = layer.infer(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gin.as_slice()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = Rng64::new(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.visit_params(&mut |p: &mut Param| {
            // weight then bias; identify by shape.
            if p.value.ndim() == 2 {
                p.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                p.value = Tensor::from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward_train(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_forward_is_bit_identical_to_sequential_dots() {
        // Reference: one sequential dot per output from 0.0, then the bias.
        let mut rng = Rng64::new(3);
        for (batch, inp, out) in [(0, 4, 3), (1, 1, 1), (7, 96, 10), (33, 32, 96), (5, 0, 4)] {
            let mut l = Linear::new(inp, out, &mut rng);
            l.bias.value = Tensor::randn(&[out], 0.0, 1.0, &mut rng);
            let mut x = Tensor::randn(&[batch, inp], 0.0, 1.0, &mut rng);
            if batch > 1 {
                x.row_mut(0).fill(-0.0);
                x.row_mut(1).iter_mut().for_each(|v| *v *= 1e-39);
            }
            let y = l.infer(&x);
            let w = &l.weight.value;
            for i in 0..batch {
                for (j, (&got, &bias)) in y.row(i).iter().zip(l.bias.value.as_slice()).enumerate() {
                    let mut acc = 0.0f32;
                    for (&xv, &wv) in x.row(i).iter().zip(w.row(j)) {
                        acc += xv * wv;
                    }
                    let expect = acc + bias;
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "[{i},{j}] of {batch}x{inp}->{out}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut l = Linear::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        testutil::check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_accumulates() {
        let mut rng = Rng64::new(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let _ = l.forward_train(&x);
        let g = Tensor::ones(&[1, 2]);
        let _ = l.backward(&g);
        let _ = l.forward_train(&x);
        let _ = l.backward(&g);
        let mut grads = Vec::new();
        l.visit_params(&mut |p: &mut Param| grads.push(p.grad.clone()));
        // dW for sum loss with x=1 is all-ones per pass; two passes double it.
        assert!(grads[0].as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert!(grads[1].as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn relu_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut l = Relu::new();
        // Keep inputs away from the kink at 0 for the numeric check.
        let x = Tensor::randn(&[2, 5], 0.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.05 {
                v + 0.1
            } else {
                v
            }
        });
        testutil::check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    #[should_panic(expected = "Linear::backward before forward")]
    fn evaluation_forward_caches_nothing() {
        let mut rng = Rng64::new(5);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::ones(&[1, 3]);
        let eval = l.infer(&x);
        assert!(l.cached_input.is_none());
        let mut trained = l.clone();
        assert_eq!(eval, trained.forward_train(&x));
        assert!(trained.cached_input.is_some());
        let _ = l.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn parameter_only_backward_accumulates_the_same_gradients() {
        let mut rng = Rng64::new(6);
        let mut full = Linear::new(5, 4, &mut rng);
        let mut params_only = full.clone();
        let x = Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng);
        let g = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let _ = full.forward_train(&x);
        let _ = full.backward(&g);
        let _ = params_only.forward_train(&x);
        params_only.backward_params(&g);
        for (a, b) in [
            (&full.weight.grad, &params_only.weight.grad),
            (&full.bias.grad, &params_only.bias.grad),
        ] {
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.shape().dims(), &[3]);
    }

    #[test]
    fn linear_flops() {
        let mut rng = Rng64::new(4);
        let l = Linear::new(10, 20, &mut rng);
        assert_eq!(l.flops_per_sample(), 400);
    }
}
