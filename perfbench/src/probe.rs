//! The layer probe: bench-side timers around calls into each crate's
//! public functions, on the workload's shapes and model state.
//!
//! The pipeline's own spans stop at phase granularity (`select`,
//! `train`, `feedback`). The probe splits them further by replaying one
//! selection round, one training epoch, one evaluation and one feedback
//! quantization the way the pipeline runs them, timing each call. Nothing
//! is added to the program itself.

use crate::workload::Workload;
use nessa_core::proxy::gradient_proxies;
use nessa_core::trainer::evaluate;
use nessa_data::Dataset;
use nessa_nn::loss::weighted_softmax_cross_entropy;
use nessa_nn::models::Network;
use nessa_nn::optim::{Sgd, SgdConfig};
use nessa_quant::QuantizedModel;
use nessa_select::facility::{maximize, SimilarityMatrix};
use nessa_select::fraction_count;
use nessa_tensor::rng::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// Host wall seconds (and counts) of one probed round and epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub proxy_s: f64,
    pub similarity_s: f64,
    pub greedy_s: f64,
    pub forward_s: f64,
    pub backward_s: f64,
    pub step_s: f64,
    pub evaluate_s: f64,
    pub quantize_s: f64,
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// The model state to probe with.
pub struct State<'a> {
    /// Target-network weights.
    pub weights: &'a [nessa_tensor::Tensor],
    /// Learning rate of the epoch this state trains.
    pub lr: f32,
    /// Subset size of that epoch.
    pub subset: usize,
}

/// Probes one selection round, one training epoch, one evaluation and one
/// feedback quantization at `state`.
pub fn probe(
    w: &Workload,
    state: &State<'_>,
    train: &Dataset,
    test: &Dataset,
    rng: &mut Rng64,
) -> Probe {
    let mut p = Probe::default();
    let mut net = w.blank_model();
    net.import_weights(state.weights);
    let mut selector = w.blank_model();
    QuantizedModel::from_network(&mut net).apply_to(&mut selector);
    select_round(w, &mut selector, train, rng, &mut p);
    train_epoch(w, &mut net, train, state, rng, &mut p);
    let started = Instant::now();
    black_box(evaluate(&mut net, test, w.batch));
    p.evaluate_s = secs(started);
    let started = Instant::now();
    QuantizedModel::from_network(&mut net).apply_to(&mut selector);
    p.quantize_s = secs(started);
    p
}

/// One round of per-class, chunk-partitioned facility location over the
/// whole training pool, as the pipeline's kernel path computes it.
fn select_round(
    w: &Workload,
    selector: &mut Network,
    train: &Dataset,
    rng: &mut Rng64,
    p: &mut Probe,
) {
    let cfg = w.config(0, false, nessa_telemetry::TelemetrySettings::off());
    let pool: Vec<usize> = (0..train.len()).collect();
    let started = Instant::now();
    let proxies = gradient_proxies(selector, train, &pool, w.batch);
    p.proxy_s = secs(started);
    let chunk = cfg.partition_chunk(w.fraction);
    for class in 0..train.classes() {
        let members: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&i| train.label(i) == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        let parts = rng.random_chunks(members.len(), members.len().div_ceil(chunk).max(1));
        for part in parts.iter().filter(|part| !part.is_empty()) {
            let global: Vec<usize> = part.iter().map(|&i| members[i]).collect();
            let started = Instant::now();
            let sim = SimilarityMatrix::from_factored(
                &proxies.residuals.gather_rows(&global),
                &proxies.features.gather_rows(&global),
            );
            p.similarity_s += secs(started);
            let k = fraction_count(global.len(), w.fraction);
            let started = Instant::now();
            let picked = maximize(&sim, k, cfg.greedy, rng);
            p.greedy_s += secs(started);
            black_box(picked.expect("lazy greedy keeps its invariants"));
        }
    }
}

/// One epoch of weighted mini-batch SGD over a random subset of the
/// state's size, timed per call.
fn train_epoch(
    w: &Workload,
    net: &mut Network,
    train: &Dataset,
    state: &State<'_>,
    rng: &mut Rng64,
    p: &mut Probe,
) {
    let mut opt = Sgd::new(SgdConfig::default());
    let subset = rng.sample_indices(train.len(), state.subset.min(train.len()));
    for batch in subset.chunks(w.batch) {
        let (x, y) = train.batch(batch);
        let weights = vec![1.0f32; batch.len()];
        let started = Instant::now();
        let logits = net.forward(&x, true);
        let out = weighted_softmax_cross_entropy(&logits, &y, &weights);
        p.forward_s += secs(started);
        let started = Instant::now();
        black_box(net.backward(&out.grad_logits));
        p.backward_s += secs(started);
        let started = Instant::now();
        opt.step(net, state.lr);
        net.zero_grad();
        p.step_s += secs(started);
    }
}

/// Field-wise mean of two probes.
pub fn mean(a: &Probe, b: &Probe) -> Probe {
    let avg = |f: fn(&Probe) -> f64| (f(a) + f(b)) / 2.0;
    Probe {
        proxy_s: avg(|p| p.proxy_s),
        similarity_s: avg(|p| p.similarity_s),
        greedy_s: avg(|p| p.greedy_s),
        forward_s: avg(|p| p.forward_s),
        backward_s: avg(|p| p.backward_s),
        step_s: avg(|p| p.step_s),
        evaluate_s: avg(|p| p.evaluate_s),
        quantize_s: avg(|p| p.quantize_s),
    }
}
