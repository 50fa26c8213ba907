//! Networks: a sequential container and the MLP builder every
//! experiment trains.

use crate::layers::{Layer, Linear, Param, Relu};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// The last layer of every classifier built in this crate is a [`Linear`]
/// head, which lets [`Network::forward_with_features`] expose the
/// penultimate activations — the feature vectors from which NeSSA's
/// selection model computes its gradient proxies.
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    cached_features: Option<Tensor>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Network(name={:?}, layers={:?})", self.name, names)
    }
}

impl Network {
    /// Creates an empty network with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            cached_features: None,
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The network's name (e.g. `"mlp[8, 16, 4]"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Full forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if i == last {
                self.cached_features = Some(h.clone());
            }
            h = layer.forward(&h, train);
        }
        h
    }

    /// Forward pass that also returns the penultimate activations
    /// (the input to the final layer).
    ///
    /// Returns `(features, logits)`.
    pub fn forward_with_features(&mut self, x: &Tensor, train: bool) -> (Tensor, Tensor) {
        let logits = self.forward(x, train);
        let features = self
            .cached_features
            .clone()
            .expect("forward_with_features on an empty network");
        (features, logits)
    }

    /// Full backward pass; returns the gradient with respect to the input.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits every parameter of every layer, in order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }

    /// Forward FLOPs per sample summed over layers.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Snapshot of all parameter values, in visiting order.
    pub fn export_weights(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot taken by
    /// [`Network::export_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot has the wrong length or any shape differs.
    pub fn import_weights(&mut self, weights: &[Tensor]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < weights.len(), "weight snapshot too short");
            assert_eq!(
                p.value.shape(),
                weights[i].shape(),
                "weight {i} shape mismatch"
            );
            p.value = weights[i].clone();
            i += 1;
        });
        assert_eq!(i, weights.len(), "weight snapshot too long");
    }

    /// Predicted class per row (eval-mode forward + argmax).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x, false);
        let (n, c) = (logits.dim(0), logits.dim(1));
        (0..n)
            .map(|i| {
                let row = logits.row(i);
                let mut best = 0;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

/// Builds an MLP with ReLU between consecutive [`Linear`] layers.
///
/// `sizes` lists layer widths including input and output, so
/// `&[784, 128, 10]` builds `Linear(784→128) → ReLU → Linear(128→10)`.
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn mlp(sizes: &[usize], rng: &mut Rng64) -> Network {
    assert!(
        sizes.len() >= 2,
        "mlp needs at least input and output sizes"
    );
    let mut net = Network::new(format!("mlp{sizes:?}"));
    for i in 0..sizes.len() - 1 {
        net.push(Linear::new(sizes[i], sizes[i + 1], rng));
        if i + 2 < sizes.len() {
            net.push(Relu::new());
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn mlp_shapes() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), &[5, 4]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn forward_with_features_exposes_penultimate() {
        let mut rng = Rng64::new(1);
        let mut net = mlp(&[6, 12, 3], &mut rng);
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let (feats, logits) = net.forward_with_features(&x, false);
        assert_eq!(feats.shape().dims(), &[4, 12]);
        assert_eq!(logits.shape().dims(), &[4, 3]);
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = Rng64::new(2);
        let mut a = mlp(&[4, 8, 2], &mut rng);
        let mut b = mlp(&[4, 8, 2], &mut rng);
        let w = a.export_weights();
        b.import_weights(&w);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn import_rejects_wrong_shapes() {
        let mut rng = Rng64::new(3);
        let mut a = mlp(&[4, 8, 2], &mut rng);
        let mut w = a.export_weights();
        w[0] = Tensor::zeros(&[1, 1]);
        a.import_weights(&w);
    }

    #[test]
    fn tiny_net_learns_a_separable_problem() {
        // Two well-separated Gaussian blobs; a tiny MLP should fit quickly.
        let mut rng = Rng64::new(7);
        let n = 60;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let centre = if class == 0 { -2.0 } else { 2.0 };
            xs.push(rng.normal(centre, 0.5));
            xs.push(rng.normal(centre, 0.5));
            ys.push(class);
        }
        let x = Tensor::from_vec(xs, &[n, 2]);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let mut opt = crate::optim::Sgd::new(crate::optim::SgdConfig::default());
        for _ in 0..60 {
            net.zero_grad();
            let logits = net.forward(&x, true);
            let out = softmax_cross_entropy(&logits, &ys);
            net.backward(&out.grad_logits);
            opt.step(&mut net, 0.1);
        }
        let preds = net.predict(&x);
        let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
        assert!(correct as f32 / n as f32 > 0.95, "accuracy {correct}/{n}");
    }

    #[test]
    fn debug_shows_layers() {
        let mut rng = Rng64::new(9);
        let net = mlp(&[2, 2], &mut rng);
        assert!(format!("{net:?}").contains("linear"));
    }
}
