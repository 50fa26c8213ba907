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

/// The proxy forward's final layer: 8000 penultimate activations (96
/// wide) against the 10×96 output weights.
fn bench_proxy_matmul(c: &mut Criterion) {
    let mut rng = Rng64::new(13);
    let acts = Tensor::randn(&[8000, 96], 0.0, 1.0, &mut rng);
    let weights = Tensor::randn(&[10, 96], 0.0, 0.1, &mut rng);
    c.bench_function("matmul_transb_8000x96_by_10x96", |b| {
        b.iter(|| black_box(black_box(&acts).matmul_transb(black_box(&weights))))
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
