//! Gradient-proxy computation.
//!
//! CRAIG-style selection needs per-sample gradients, but full gradients are
//! as expensive as training. The standard proxy — used by the paper via
//! \[20\] — is the **last-layer gradient**: for softmax cross-entropy the
//! gradient of the loss with respect to the classifier head's weights is
//! the outer product `(softmax(logits) − one-hot) ⊗ features`, obtainable
//! from a forward pass alone. On NeSSA's FPGA that forward pass runs with
//! the quantized selector model.
//!
//! The outer product never needs to be materialized to compare two
//! samples: `‖a_i b_iᵀ − a_j b_jᵀ‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖² −
//! 2 (a_i·a_j)(b_i·b_j)`, so the FPGA kernel's cost per pair is
//! `O(classes + feature_dim)` — the low-operational-intensity property of
//! paper §2.2. The reproduction does the same: the pipeline and the CPU
//! CRAIG policy hand both factors to
//! `nessa_select::craig::select_per_class_factored`, which builds each
//! chunk's similarities from the factorization and never materializes an
//! outer product.

use nessa_data::Dataset;
use nessa_nn::models::Network;
use nessa_tensor::ops::softmax_rows;
use nessa_tensor::Tensor;

/// Per-sample last-layer gradient factors: softmax residuals
/// `(p − y)` and penultimate features.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientProxies {
    /// `n × classes` softmax residuals.
    pub residuals: Tensor,
    /// `n × feature_dim` penultimate activations.
    pub features: Tensor,
}

impl GradientProxies {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.residuals.dim(0)
    }

    /// True when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes last-layer gradient proxies for the given samples on the
/// calling thread: [`gradient_proxies_on`] with one worker.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn gradient_proxies(
    selector: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> GradientProxies {
    gradient_proxies_on(selector, dataset, indices, batch_size, 1)
}

/// Computes last-layer gradient proxies for the given samples on up to
/// `workers` threads, the calling thread included (0 counts as 1).
///
/// Runs `selector` in eval mode over `dataset[indices]` in batches of
/// `batch_size` and returns the residual/feature factors, one row per
/// index. The pool is split at batch boundaries into one contiguous run
/// of batches per worker, so every forward call sees exactly the batch a
/// one-worker run gives it, and the result is bit-identical at any
/// worker count. Each worker writes its rows straight into its own rows
/// of the two output tensors.
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn gradient_proxies_on(
    selector: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
    workers: usize,
) -> GradientProxies {
    assert!(batch_size > 0, "batch size must be positive");
    let classes = dataset.classes();
    let mut residuals = Tensor::zeros(&[indices.len(), classes]);
    let Some(first) = indices.chunks(batch_size).next() else {
        return GradientProxies {
            residuals,
            features: Tensor::zeros(&[0, 0]),
        };
    };
    // The first batch fixes the feature width, so the feature matrix is
    // allocated after it, as a one-worker run always did.
    let (x, labels) = dataset.batch(first);
    let (feats, logits) = selector.infer_with_features(&x);
    let fdim = feats.dim(1);
    let mut features = Tensor::zeros(&[indices.len(), fdim]);
    let (res_first, mut res_rest) = residuals.as_mut_slice().split_at_mut(first.len() * classes);
    let (feat_first, mut feat_rest) = features.as_mut_slice().split_at_mut(first.len() * fdim);
    write_rows(&labels, &feats, &logits, res_first, feat_first);
    // The remaining batches, one contiguous run of whole batches per
    // worker; the calling thread takes the first run.
    let rest = &indices[first.len()..];
    let per_worker = rest.len().div_ceil(batch_size).div_ceil(workers.max(1)) * batch_size;
    let mut runs = Vec::new();
    for run in rest.chunks(per_worker.max(1)) {
        let (res, res_tail) = std::mem::take(&mut res_rest).split_at_mut(run.len() * classes);
        let (feat, feat_tail) = std::mem::take(&mut feat_rest).split_at_mut(run.len() * fdim);
        (res_rest, feat_rest) = (res_tail, feat_tail);
        runs.push((run, res, feat));
    }
    let proxy_run = |(run, res, feat): (&[usize], &mut [f32], &mut [f32])| {
        for (b, batch) in run.chunks(batch_size).enumerate() {
            let rows = b * batch_size..b * batch_size + batch.len();
            let (x, labels) = dataset.batch(batch);
            let (feats, logits) = selector.infer_with_features(&x);
            write_rows(
                &labels,
                &feats,
                &logits,
                &mut res[rows.start * classes..rows.end * classes],
                &mut feat[rows.start * fdim..rows.end * fdim],
            );
        }
    };
    std::thread::scope(|s| {
        let mut runs = runs.into_iter();
        let own = runs.next();
        let helpers: Vec<_> = runs.map(|run| s.spawn(move || proxy_run(run))).collect();
        if let Some(run) = own {
            proxy_run(run);
        }
        // Join each helper to the end of its OS thread, not only of its
        // closure as the scope's implicit join does: a thread that has
        // fully exited has handed its allocator arena back, and the next
        // round's threads reuse it instead of growing a new one.
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    GradientProxies {
        residuals,
        features,
    }
}

/// Writes one batch's proxy rows: `softmax(logits) − one-hot(label)` into
/// `residuals` and the penultimate activations into `features`.
fn write_rows(
    labels: &[usize],
    feats: &Tensor,
    logits: &Tensor,
    residuals: &mut [f32],
    features: &mut [f32],
) {
    let probs = softmax_rows(logits);
    let classes = probs.dim(1);
    let fdim = feats.dim(1);
    for (b, &label) in labels.iter().enumerate() {
        let dst = &mut residuals[b * classes..(b + 1) * classes];
        dst.copy_from_slice(probs.row(b));
        dst[label] -= 1.0;
        features[b * fdim..(b + 1) * fdim].copy_from_slice(feats.row(b));
    }
}

/// Penultimate-layer embeddings for the given samples (the space the
/// K-Centers baseline of Sener & Savarese selects in).
///
/// # Panics
///
/// Panics if any index is out of bounds or `batch_size == 0`.
pub fn embeddings(
    model: &Network,
    dataset: &Dataset,
    indices: &[usize],
    batch_size: usize,
) -> Tensor {
    assert!(batch_size > 0, "batch size must be positive");
    let mut out: Option<Tensor> = None;
    let mut row = 0;
    for chunk in indices.chunks(batch_size) {
        let (x, _) = dataset.batch(chunk);
        let (feats, _) = model.infer_with_features(&x);
        let fdim = feats.dim(1);
        let out = out.get_or_insert_with(|| Tensor::zeros(&[indices.len(), fdim]));
        for b in 0..chunk.len() {
            out.row_mut(row).copy_from_slice(feats.row(b));
            row += 1;
        }
    }
    out.unwrap_or_else(|| Tensor::zeros(&[0, 0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;
    use nessa_tensor::linalg::sq_dist;
    use nessa_tensor::rng::Rng64;

    /// Materializes the flattened outer products: row `i` is
    /// `vec(residual_i ⊗ feature_i)` of length `classes × feature_dim`.
    /// Euclidean distances over these rows equal the last-layer gradient
    /// distances CRAIG's facility location consumes; the oracle the
    /// factored path is checked against.
    fn flatten_outer(p: &GradientProxies) -> Tensor {
        let (n, c) = (p.residuals.dim(0), p.residuals.dim(1));
        let f = p.features.dim(1);
        let mut out = Tensor::zeros(&[n, c * f]);
        for i in 0..n {
            let res = p.residuals.row(i);
            let feat = p.features.row(i);
            let row = out.row_mut(i);
            for (ci, &r) in res.iter().enumerate() {
                // nessa-lint: allow(f1-float-eq) — exact-zero skip is a
                // pure optimization; any nonzero residual takes the slow
                // path and computes the same product.
                if r == 0.0 {
                    continue;
                }
                let dst = &mut row[ci * f..(ci + 1) * f];
                for (d, &x) in dst.iter_mut().zip(feat.iter()) {
                    *d = r * x;
                }
            }
        }
        out
    }

    fn setup() -> (Network, Dataset) {
        let mut rng = Rng64::new(0);
        let cfg = SynthConfig {
            train: 60,
            test: 10,
            dim: 8,
            classes: 3,
            ..SynthConfig::default()
        };
        let (train, _) = cfg.generate();
        let net = mlp(&[8, 16, 3], &mut rng);
        (net, train)
    }

    #[test]
    fn proxies_have_expected_shapes() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&net, &data, &idx, 7);
        assert_eq!(p.residuals.shape().dims(), &[20, 3]);
        assert_eq!(p.features.shape().dims(), &[20, 16]);
        assert_eq!(p.len(), 20);
        assert!(!p.is_empty());
    }

    #[test]
    fn residual_rows_sum_to_zero() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..20).collect();
        let p = gradient_proxies(&net, &data, &idx, 20);
        for i in 0..20 {
            let s: f32 = p.residuals.row(i).iter().sum();
            assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn flatten_outer_matches_direct_outer_product() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..5).collect();
        let p = gradient_proxies(&net, &data, &idx, 2);
        let flat = flatten_outer(&p);
        assert_eq!(flat.shape().dims(), &[5, 3 * 16]);
        for i in 0..5 {
            for c in 0..3 {
                for f in 0..16 {
                    let expected = p.residuals.at(&[i, c]) * p.features.at(&[i, f]);
                    assert!((flat.at(&[i, c * 16 + f]) - expected).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn outer_distance_factorization_identity() {
        // ‖a_i⊗b_i − a_j⊗b_j‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖²
        //                         − 2 (a_i·a_j)(b_i·b_j)
        let (net, data) = setup();
        let idx: Vec<usize> = (0..6).collect();
        let p = gradient_proxies(&net, &data, &idx, 3);
        let flat = flatten_outer(&p);
        for i in 0..6 {
            for j in 0..6 {
                let direct = sq_dist(flat.row(i), flat.row(j));
                let ai: f32 = p.residuals.row(i).iter().map(|v| v * v).sum();
                let aj: f32 = p.residuals.row(j).iter().map(|v| v * v).sum();
                let bi: f32 = p.features.row(i).iter().map(|v| v * v).sum();
                let bj: f32 = p.features.row(j).iter().map(|v| v * v).sum();
                let aa: f32 = p
                    .residuals
                    .row(i)
                    .iter()
                    .zip(p.residuals.row(j))
                    .map(|(&x, &y)| x * y)
                    .sum();
                let bb: f32 = p
                    .features
                    .row(i)
                    .iter()
                    .zip(p.features.row(j))
                    .map(|(&x, &y)| x * y)
                    .sum();
                let factored = ai * bi + aj * bj - 2.0 * aa * bb;
                assert!(
                    (direct - factored).abs() < 1e-3 * (1.0 + direct.abs()),
                    "({i},{j}): {direct} vs {factored}"
                );
            }
        }
    }

    #[test]
    fn batch_size_does_not_change_result() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..30).collect();
        let a = flatten_outer(&gradient_proxies(&net, &data, &idx, 30));
        let b = flatten_outer(&gradient_proxies(&net, &data, &idx, 4));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn threaded_proxies_are_bit_identical_to_one_worker() {
        let (net, data) = setup();
        // 23 shuffled indices in batches of 4: the last batch holds 3.
        let mut rng = Rng64::new(8);
        let idx = rng.sample_indices(data.len(), 23);
        let serial = gradient_proxies(&net, &data, &idx, 4);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for workers in [2, 3, 8] {
            let threaded = gradient_proxies_on(&net, &data, &idx, 4, workers);
            assert_eq!(bits(&threaded.residuals), bits(&serial.residuals));
            assert_eq!(bits(&threaded.features), bits(&serial.features));
            assert_eq!(threaded.features.shape(), serial.features.shape());
        }
        // A pool smaller than one batch, and an empty pool.
        for n in [0, 3] {
            let serial = gradient_proxies(&net, &data, &idx[..n], 4);
            assert_eq!(gradient_proxies_on(&net, &data, &idx[..n], 4, 3), serial);
        }
    }

    #[test]
    fn embeddings_match_proxy_features() {
        let (net, data) = setup();
        let idx: Vec<usize> = (0..10).collect();
        let p = gradient_proxies(&net, &data, &idx, 5);
        let e = embeddings(&net, &data, &idx, 3);
        assert_eq!(e.as_slice(), p.features.as_slice());
    }
}
