//! Criterion microbenchmarks of the facility-location maximizers —
//! the kernels whose cost the FPGA model prices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nessa_select::facility::{maximize, GreedyVariant, SimilarityMatrix};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::hint::black_box;

fn clustered(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let centres = Tensor::randn(&[8, d], 0.0, 3.0, &mut rng);
    let mut rows = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = centres.row(i % 8);
        for &v in c {
            rows.push(v + rng.normal(0.0, 0.7));
        }
    }
    Tensor::from_vec(rows, &[n, d])
}

fn bench_greedy_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility_greedy");
    for &n in &[128usize, 512] {
        let feats = clustered(n, 10, 7);
        let sim = SimilarityMatrix::from_features(&feats);
        let k = n / 8;
        for (name, variant) in [
            ("naive", GreedyVariant::Naive),
            ("lazy", GreedyVariant::Lazy),
            ("stochastic", GreedyVariant::Stochastic { epsilon: 0.1 }),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &sim, |b, sim| {
                b.iter(|| {
                    let mut rng = Rng64::new(0);
                    black_box(maximize(sim, k, variant, &mut rng).unwrap())
                })
            });
        }
    }
    group.finish();
}

fn bench_similarity_build(c: &mut Criterion) {
    let feats = clustered(512, 10, 9);
    c.bench_function("similarity_matrix_512x10", |b| {
        b.iter(|| black_box(SimilarityMatrix::from_features(black_box(&feats))))
    });
}

/// The production similarity build: one 100-row partition chunk whose
/// candidates are last-layer gradients `residual (10) ⊗ feature (96)`.
fn bench_factored_build(c: &mut Criterion) {
    let residuals = clustered(100, 10, 11);
    let features = clustered(100, 96, 12);
    c.bench_function("similarity_factored_100x(10,96)", |b| {
        b.iter(|| {
            black_box(SimilarityMatrix::from_factored(
                black_box(&residuals),
                black_box(&features),
            ))
        })
    });
}

/// Every shape the tiled matmul kernel serves in production: the
/// `select_heavy` proxy forward's final layer (8000 penultimate
/// activations, 96 wide, against the 10×96 output weights); the
/// `wide_model_overlap` 256×256 hidden layer at batch 16, forward,
/// input gradient (ReLU-sparse, as in backward) and fused weight
/// gradient; and the 100×32 self-product of the `linalg` distance
/// kernels.
fn bench_proxy_matmul(c: &mut Criterion) {
    let mut rng = Rng64::new(13);
    let acts = Tensor::randn(&[8000, 96], 0.0, 1.0, &mut rng);
    let weights = Tensor::randn(&[10, 96], 0.0, 0.1, &mut rng);
    c.bench_function("matmul_transb_8000x96_by_10x96", |b| {
        b.iter(|| black_box(black_box(&acts).matmul_transb(black_box(&weights))))
    });

    let x = Tensor::randn(&[16, 256], 0.0, 1.0, &mut rng).map(|v| v.max(0.0));
    let w = Tensor::randn(&[256, 256], 0.0, 0.09, &mut rng);
    let g = Tensor::randn(&[16, 256], 0.0, 0.01, &mut rng)
        .try_zip(&x, "relu-mask", |g, x| if x > 0.0 { g } else { 0.0 })
        .unwrap();
    c.bench_function("forward_matmul_transb_16x256_by_256x256", |b| {
        b.iter(|| black_box(black_box(&x).matmul_transb(black_box(&w))))
    });
    c.bench_function("dx_matmul_16x256_by_256x256", |b| {
        b.iter(|| black_box(black_box(&g).matmul(black_box(&w))))
    });
    let mut grad = Tensor::zeros(&[256, 256]);
    c.bench_function("dw_add_matmul_transa_16x256_by_16x256", |b| {
        b.iter(|| grad.add_matmul_transa(black_box(&g), black_box(&x)))
    });
    black_box(&grad);

    let points = clustered(100, 32, 14);
    c.bench_function("self_matmul_transb_100x32", |b| {
        b.iter(|| black_box(black_box(&points).matmul_transb(black_box(&points))))
    });
}

criterion_group!(
    benches,
    bench_greedy_variants,
    bench_similarity_build,
    bench_factored_build,
    bench_proxy_matmul
);
criterion_main!(benches);
