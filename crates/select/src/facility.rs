//! The facility-location objective and its greedy maximizers.
//!
//! Given candidates with pairwise similarities `sim(i, j)`, the objective
//! of paper Eq. 5 is `F(S) = Σ_i max_{j∈S} sim(i, j)`. `F` is monotone
//! submodular, so greedy maximization achieves a `(1 − 1/e)` guarantee
//! (Nemhauser et al.); the lazy variant (Minoux '78) and the stochastic
//! variant (Mirzasoleiman et al. '15, "lazier than lazy greedy") produce
//! the same quality at a fraction of the evaluations — the property that
//! makes the kernel cheap enough for the SmartSSD FPGA.

use crate::metrics::SelectMetrics;
use crate::{SelectError, Selection};
use nessa_tensor::linalg::pairwise_sq_dists;
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A dense pairwise-similarity matrix for facility-location selection.
///
/// Built from squared Euclidean distances via `sim = c0 − d²` where
/// `c0 = max d²` (the constant of paper Eq. 5), so all similarities are
/// non-negative and self-similarity is maximal.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    n: usize,
    /// Row-major `n × n` similarities.
    sim: Vec<f32>,
}

impl SimilarityMatrix {
    /// Builds the similarity matrix of a set of feature rows.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-D.
    pub fn from_features(features: &Tensor) -> Self {
        let d = pairwise_sq_dists(features);
        let n = d.dim(0);
        let c0 = d.max().max(0.0);
        let sim = d.as_slice().iter().map(|&v| c0 - v).collect();
        Self { n, sim }
    }

    /// Builds the similarity matrix of a *product space*: candidate `i` is
    /// the outer product `a_i ⊗ b_i` of a row of `a` and a row of `b`, but
    /// distances are computed through the factorization
    /// `‖a_i⊗b_i − a_j⊗b_j‖² = ‖a_i‖²‖b_i‖² + ‖a_j‖²‖b_j‖² −
    /// 2 (a_i·a_j)(b_i·b_j)` — `O(dim_a + dim_b)` per pair instead of
    /// `O(dim_a · dim_b)`. This is how NeSSA's FPGA kernel compares
    /// last-layer gradients (residual ⊗ feature) without materializing
    /// them.
    ///
    /// Only the `j > i` half of the two Gram matrices is computed, one
    /// contiguous row segment at a time, and each distance is mirrored to
    /// `(j, i)`. Every Gram entry accumulates `0.0 + a_ik·a_jk` over k in
    /// sequential order and IEEE multiplication and addition commute, so
    /// the result is bit-identical to building both full Grams with one
    /// sequential dot per entry.
    ///
    /// # Panics
    ///
    /// Panics if the factors are not 2-D or have different row counts.
    pub fn from_factored(a: &Tensor, b: &Tensor) -> Self {
        assert_eq!(a.ndim(), 2, "factor a must be 2-D");
        assert_eq!(b.ndim(), 2, "factor b must be 2-D");
        assert_eq!(a.dim(0), b.dim(0), "factors must have equal row counts");
        let n = a.dim(0);
        let self_dot = |row: &[f32]| row.iter().fold(0.0f32, |acc, &x| acc + x * x);
        let sq: Vec<f32> = (0..n)
            .map(|i| self_dot(a.row(i)) * self_dot(b.row(i)))
            .collect();
        // Column-major copies: row p of `at` holds feature p of every
        // candidate, so a Gram row segment is a contiguous AXPY sweep.
        let (at, bt) = (a.transpose(), b.transpose());
        let mut ga = vec![0.0f32; n];
        let mut gb = vec![0.0f32; n];
        let mut sim = vec![0.0f32; n * n];
        let mut c0 = 0.0f32;
        for i in 0..n {
            half_gram_row(a.row(i), at.as_slice(), n, i, &mut ga[i + 1..]);
            half_gram_row(b.row(i), bt.as_slice(), n, i, &mut gb[i + 1..]);
            for (j, (&ga_ij, &gb_ij)) in (i + 1..n).zip(ga[i + 1..].iter().zip(&gb[i + 1..])) {
                let d = (sq[i] + sq[j] - 2.0 * ga_ij * gb_ij).max(0.0);
                sim[i * n + j] = d;
                sim[j * n + i] = d;
                c0 = c0.max(d);
            }
        }
        for s in &mut sim {
            *s = c0 - *s;
        }
        Self { n, sim }
    }

    /// Builds directly from a precomputed squared-distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if `dists` is not square.
    pub fn from_sq_dists(dists: &Tensor) -> Self {
        assert_eq!(dists.ndim(), 2, "distance matrix must be 2-D");
        assert_eq!(dists.dim(0), dists.dim(1), "distance matrix must be square");
        let n = dists.dim(0);
        let c0 = dists.max().max(0.0);
        let sim = dists.as_slice().iter().map(|&v| c0 - v).collect();
        Self { n, sim }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity between candidates `i` and `j`.
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.sim[i * self.n + j]
    }

    /// Row `j` of the matrix: similarity of every candidate to `j`.
    pub fn row(&self, j: usize) -> &[f32] {
        &self.sim[j * self.n..(j + 1) * self.n]
    }

    /// Evaluates `F(S) = Σ_i max_{j∈S} sim(i, j)` (`0.0` for the empty set).
    pub fn objective(&self, set: &[usize]) -> f32 {
        if set.is_empty() {
            return 0.0;
        }
        (0..self.n)
            .map(|i| {
                set.iter()
                    .map(|&j| self.at(i, j))
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .sum()
    }

    /// CRAIG weights for a solution: candidate `i` is assigned to its most
    /// similar selected medoid; each medoid's weight is its assignment
    /// count. A selected candidate always assigns to itself (self-
    /// similarity is maximal; ties between duplicate rows resolve to
    /// self), so every weight is ≥ 1 and weights sum to `n` for a
    /// non-empty solution.
    pub fn weights(&self, set: &[usize]) -> Vec<f32> {
        let mut w = vec![0.0f32; set.len()];
        if set.is_empty() {
            return w;
        }
        // Dense position lookup (first occurrence wins): deterministic and
        // hash-free, unlike a HashMap (nessa-lint rule D3).
        let mut position_of = vec![usize::MAX; self.n];
        for (si, &j) in set.iter().enumerate() {
            if position_of[j] == usize::MAX {
                position_of[j] = si;
            }
        }
        for i in 0..self.n {
            if position_of[i] != usize::MAX {
                w[position_of[i]] += 1.0;
                continue;
            }
            let mut best = 0;
            let mut best_s = f32::NEG_INFINITY;
            for (si, &j) in set.iter().enumerate() {
                let s = self.at(i, j);
                if s > best_s {
                    best_s = s;
                    best = si;
                }
            }
            w[best] += 1.0;
        }
        w
    }
}

/// Writes `out[j − i − 1] = Σ_k row[k]·cols[k·n + j]` for every `j > i`,
/// where `cols` is a column-major `width × n` factor. Each sum starts at
/// `0.0` and runs over k in order; the j loop is innermost and contiguous.
fn half_gram_row(row: &[f32], cols: &[f32], n: usize, i: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (p, &x) in row.iter().enumerate() {
        for (o, &y) in out.iter_mut().zip(&cols[p * n + i + 1..(p + 1) * n]) {
            *o += x * y;
        }
    }
}

/// Which greedy maximizer to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GreedyVariant {
    /// Recompute every marginal gain each round: `O(n²k)` similarity reads.
    Naive,
    /// Minoux's lazy greedy with an upper-bound priority queue.
    Lazy,
    /// Stochastic greedy: each round evaluates a random sample of
    /// `⌈(n/k)·ln(1/ε)⌉` candidates (Mirzasoleiman et al. '15).
    Stochastic {
        /// Approximation slack ε ∈ (0, 1); expected guarantee `1 − 1/e − ε`.
        epsilon: f32,
    },
}

/// Maximizes the facility-location objective, selecting at most `k`
/// candidates, and returns the selection with CRAIG weights.
///
/// `k ≥ n` returns all candidates. The RNG is only consulted by
/// [`GreedyVariant::Stochastic`]. The only error is
/// [`SelectError::Internal`], reporting a broken greedy invariant (a bug
/// in this crate, not bad input).
pub fn maximize(
    sim: &SimilarityMatrix,
    k: usize,
    variant: GreedyVariant,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    maximize_metered(sim, k, variant, rng, None)
}

/// [`maximize`] with optional kernel instrumentation: each pick counts a
/// greedy round and observes its winning marginal gain; every candidate
/// evaluation counts toward `gain_evals` (the dominant kernel cost the
/// lazy/stochastic variants exist to reduce).
pub fn maximize_metered(
    sim: &SimilarityMatrix,
    k: usize,
    variant: GreedyVariant,
    rng: &mut Rng64,
    metrics: Option<&SelectMetrics>,
) -> Result<Selection, SelectError> {
    let n = sim.len();
    if n == 0 || k == 0 {
        return Ok(Selection::default());
    }
    if k >= n {
        let indices: Vec<usize> = (0..n).collect();
        let weights = sim.weights(&indices);
        return Ok(Selection::new(indices, weights));
    }
    let set = match variant {
        GreedyVariant::Naive => naive_greedy(sim, k, metrics)?,
        GreedyVariant::Lazy => lazy_greedy(sim, k, metrics)?,
        GreedyVariant::Stochastic { epsilon } => stochastic_greedy(sim, k, epsilon, rng, metrics),
    };
    let weights = sim.weights(&set);
    Ok(Selection::new(set, weights))
}

fn note_pick(metrics: Option<&SelectMetrics>, gain: f32) {
    if let Some(m) = metrics {
        m.rounds.inc();
        m.marginal_gain.observe(gain as f64);
    }
}

fn note_evals(metrics: Option<&SelectMetrics>, n: u64) {
    if let Some(m) = metrics {
        m.gain_evals.add(n);
    }
}

fn naive_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    metrics: Option<&SelectMetrics>,
) -> Result<Vec<usize>, SelectError> {
    let n = sim.len();
    let mut coverage = vec![f32::NEG_INFINITY; n];
    let mut chosen = Vec::with_capacity(k);
    let mut in_set = vec![false; n];
    for round in 0..k {
        let mut best = None;
        let mut best_gain = f32::NEG_INFINITY;
        for (j, &taken) in in_set.iter().enumerate() {
            if taken {
                continue;
            }
            let g = gain_from(sim, j, &coverage);
            if g > best_gain {
                best_gain = g;
                best = Some(j);
            }
        }
        note_evals(metrics, (n - round) as u64);
        note_pick(metrics, best_gain);
        let Some(j) = best else {
            // k < n makes this unreachable; surface it instead of panicking.
            return Err(SelectError::Internal("naive greedy ran out of candidates"));
        };
        in_set[j] = true;
        chosen.push(j);
        absorb_from(sim, j, &mut coverage);
    }
    Ok(chosen)
}

/// Gain with `NEG_INFINITY` coverage meaning "uncovered": the first chosen
/// medoid earns the full similarity column.
fn gain_from(sim: &SimilarityMatrix, j: usize, coverage: &[f32]) -> f32 {
    sim.row(j)
        .iter()
        .zip(coverage.iter())
        .map(|(&s, &c)| {
            // nessa-lint: allow(f1-float-eq) — exact sentinel comparison:
            // coverage is initialized to NEG_INFINITY and only ever
            // overwritten by finite similarities.
            if c == f32::NEG_INFINITY {
                s
            } else {
                (s - c).max(0.0)
            }
        })
        .sum()
}

fn absorb_from(sim: &SimilarityMatrix, j: usize, coverage: &mut [f32]) {
    for (c, &s) in coverage.iter_mut().zip(sim.row(j)) {
        if s > *c {
            *c = s;
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    gain: f32,
    index: usize,
    /// The solution size when this gain was computed; stale entries are
    /// recomputed on pop (submodularity makes stored gains upper bounds).
    round: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn lazy_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    metrics: Option<&SelectMetrics>,
) -> Result<Vec<usize>, SelectError> {
    let n = sim.len();
    let mut coverage = vec![f32::NEG_INFINITY; n];
    let mut chosen = Vec::with_capacity(k);
    let mut heap: BinaryHeap<HeapEntry> = (0..n)
        .map(|j| HeapEntry {
            gain: gain_from(sim, j, &coverage),
            index: j,
            round: 0,
        })
        .collect();
    note_evals(metrics, n as u64);
    let mut in_set = vec![false; n];
    while chosen.len() < k {
        let Some(top) = heap.pop() else {
            // The heap holds every unchosen candidate; draining before k
            // picks (k < n) would be a bookkeeping bug.
            return Err(SelectError::Internal("lazy greedy heap drained early"));
        };
        if in_set[top.index] {
            continue;
        }
        if top.round == chosen.len() {
            note_pick(metrics, top.gain);
            in_set[top.index] = true;
            chosen.push(top.index);
            absorb_from(sim, top.index, &mut coverage);
        } else {
            note_evals(metrics, 1);
            heap.push(HeapEntry {
                gain: gain_from(sim, top.index, &coverage),
                index: top.index,
                round: chosen.len(),
            });
        }
    }
    Ok(chosen)
}

fn stochastic_greedy(
    sim: &SimilarityMatrix,
    k: usize,
    epsilon: f32,
    rng: &mut Rng64,
    metrics: Option<&SelectMetrics>,
) -> Vec<usize> {
    let n = sim.len();
    let eps = epsilon.clamp(1e-4, 0.99);
    let sample = (((n as f64 / k as f64) * (1.0 / eps as f64).ln()).ceil() as usize).max(1);
    let mut coverage = vec![f32::NEG_INFINITY; n];
    let mut chosen = Vec::with_capacity(k);
    let mut in_set = vec![false; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    for _ in 0..k {
        // Draw the candidate sample from the remaining pool.
        let s = sample.min(remaining.len());
        for i in 0..s {
            let j = i + rng.index(remaining.len() - i);
            remaining.swap(i, j);
        }
        let mut best = remaining[0];
        let mut best_gain = f32::NEG_INFINITY;
        for &j in remaining.iter().take(s) {
            let g = gain_from(sim, j, &coverage);
            if g > best_gain {
                best_gain = g;
                best = j;
            }
        }
        note_evals(metrics, s as u64);
        note_pick(metrics, best_gain);
        in_set[best] = true;
        chosen.push(best);
        absorb_from(sim, best, &mut coverage);
        remaining.retain(|&j| !in_set[j]);
        if remaining.is_empty() {
            break;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-Gram `from_factored` the half-Gram build replaced, with
    /// one sequential dot per Gram entry, kept as its bit-exactness oracle.
    fn from_factored_oracle(a: &Tensor, b: &Tensor) -> SimilarityMatrix {
        let n = a.dim(0);
        let gram = |t: &Tensor| -> Vec<f32> {
            let mut g = vec![0.0f32; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for (&x, &y) in t.row(i).iter().zip(t.row(j)) {
                        acc += x * y;
                    }
                    g[i * n + j] = acc;
                }
            }
            g
        };
        let (ga, gb) = (gram(a), gram(b));
        let sq: Vec<f32> = (0..n).map(|i| ga[i * n + i] * gb[i * n + i]).collect();
        let mut dists = vec![0.0f32; n * n];
        let mut c0 = 0.0f32;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = (sq[i] + sq[j] - 2.0 * ga[i * n + j] * gb[i * n + j]).max(0.0);
                dists[i * n + j] = d;
                c0 = c0.max(d);
            }
        }
        let sim = dists.iter().map(|&d| c0 - d).collect();
        SimilarityMatrix { n, sim }
    }

    /// A `rows × width` factor mixing dense rows, duplicates of earlier
    /// rows, signed-zero rows and rows of subnormal values of either sign.
    fn tricky_rows(rows: usize, width: usize, rng: &mut Rng64) -> Tensor {
        let mut data = Vec::with_capacity(rows * width);
        for r in 0..rows {
            match rng.index(5) {
                0 if r > 0 => {
                    let src = rng.index(r);
                    data.extend_from_within(src * width..(src + 1) * width);
                }
                1 => data.extend((0..width).map(|_| if rng.coin(0.5) { 0.0 } else { -0.0 })),
                2 => data.extend((0..width).map(|_| rng.uniform(-1.0, 1.0) * 1e-38)),
                _ => data.extend((0..width).map(|_| rng.normal(0.0, 3.0))),
            }
        }
        Tensor::from_vec(data, &[rows, width])
    }

    fn sim_bits(s: &SimilarityMatrix) -> Vec<u32> {
        s.sim.iter().map(|x| x.to_bits()).collect()
    }

    /// Row counts: empty, single, pair, odd, and the production chunk.
    const ROWS: [usize; 6] = [0, 1, 2, 7, 33, 100];
    /// Factor widths, including the degenerate empty one; 10 and 96 are
    /// the production residual and feature widths.
    const WIDTHS: [usize; 5] = [0, 1, 3, 10, 96];

    proptest! {
        #[test]
        fn from_factored_is_bit_identical_to_full_grams(
            n in 0usize..ROWS.len(),
            wa in 0usize..WIDTHS.len(),
            wb in 0usize..WIDTHS.len(),
            seed in any::<u64>(),
        ) {
            let mut rng = Rng64::new(seed);
            let a = tricky_rows(ROWS[n], WIDTHS[wa], &mut rng);
            let b = tricky_rows(ROWS[n], WIDTHS[wb], &mut rng);
            let fast = SimilarityMatrix::from_factored(&a, &b);
            prop_assert_eq!(fast.len(), ROWS[n]);
            prop_assert_eq!(sim_bits(&fast), sim_bits(&from_factored_oracle(&a, &b)));
        }
    }

    #[test]
    fn from_factored_all_zero_and_duplicate_rows_match_the_oracle() {
        let zeros = Tensor::zeros(&[5, 4]);
        let fast = SimilarityMatrix::from_factored(&zeros, &zeros);
        assert_eq!(
            sim_bits(&fast),
            sim_bits(&from_factored_oracle(&zeros, &zeros))
        );
        let row = [1.5f32, -2.0, 3.25];
        let dup = Tensor::from_vec(row.repeat(4), &[4, 3]);
        let fast = SimilarityMatrix::from_factored(&dup, &dup);
        assert_eq!(sim_bits(&fast), sim_bits(&from_factored_oracle(&dup, &dup)));
    }

    fn clustered_features() -> Tensor {
        // Three tight clusters of 4 points each around (0,0), (10,0), (0,10).
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)] {
            for d in 0..4 {
                rows.push(cx + 0.1 * d as f32);
                rows.push(cy - 0.1 * d as f32);
            }
        }
        Tensor::from_vec(rows, &[12, 2])
    }

    #[test]
    fn objective_is_monotone() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut set = Vec::new();
        let mut prev = sim.objective(&set);
        for j in [0, 4, 8, 1] {
            set.push(j);
            let cur = sim.objective(&set);
            assert!(cur >= prev - 1e-3, "{cur} < {prev}");
            prev = cur;
        }
    }

    #[test]
    fn greedy_picks_one_per_cluster() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(0);
        let sel = maximize(&sim, 3, GreedyVariant::Naive, &mut rng).unwrap();
        let clusters: Vec<usize> = sel.indices.iter().map(|&i| i / 4).collect();
        let mut sorted = clusters.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "selected {:?}", sel.indices);
    }

    #[test]
    fn lazy_matches_naive() {
        let mut rng = Rng64::new(1);
        let x = Tensor::rand_uniform(&[40, 6], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        for k in [1, 3, 10, 25] {
            let naive = naive_greedy(&sim, k, None).unwrap();
            let lazy = lazy_greedy(&sim, k, None).unwrap();
            // Tie-breaking may differ; the objectives must match exactly
            // up to float noise.
            let fo_n = sim.objective(&naive);
            let fo_l = sim.objective(&lazy);
            assert!(
                (fo_n - fo_l).abs() <= 1e-2 * fo_n.abs().max(1.0),
                "k={k}: naive {fo_n} vs lazy {fo_l}"
            );
        }
    }

    #[test]
    fn greedy_achieves_submodular_bound_vs_bruteforce() {
        // On a small instance, greedy must reach ≥ (1 − 1/e) of optimum.
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_uniform(&[10, 3], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let k = 3;
        let mut best = f32::NEG_INFINITY;
        for a in 0..10 {
            for b in (a + 1)..10 {
                for c in (b + 1)..10 {
                    best = best.max(sim.objective(&[a, b, c]));
                }
            }
        }
        let greedy = sim.objective(&naive_greedy(&sim, k, None).unwrap());
        assert!(
            greedy >= (1.0 - 1.0 / std::f32::consts::E) * best - 1e-3,
            "greedy {greedy} vs optimum {best}"
        );
    }

    #[test]
    fn stochastic_is_close_to_greedy() {
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_uniform(&[60, 4], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let exact = sim.objective(&naive_greedy(&sim, 10, None).unwrap());
        let mut worst: f32 = f32::INFINITY;
        for seed in 0..5 {
            let mut r = Rng64::new(seed);
            let s = stochastic_greedy(&sim, 10, 0.1, &mut r, None);
            worst = worst.min(sim.objective(&s));
        }
        assert!(worst >= 0.85 * exact, "stochastic {worst} vs exact {exact}");
    }

    #[test]
    fn weights_sum_to_n() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(4);
        let sel = maximize(&sim, 3, GreedyVariant::Lazy, &mut rng).unwrap();
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 12.0);
        // Balanced clusters ⇒ each medoid represents ~4 points.
        assert!(sel.weights.iter().all(|&w| (w - 4.0).abs() < 1.5));
    }

    #[test]
    fn k_zero_and_k_ge_n() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut rng = Rng64::new(5);
        assert!(maximize(&sim, 0, GreedyVariant::Naive, &mut rng)
            .unwrap()
            .is_empty());
        let all = maximize(&sim, 100, GreedyVariant::Naive, &mut rng).unwrap();
        assert_eq!(all.len(), 12);
        let total: f32 = all.weights.iter().sum();
        assert_eq!(total, 12.0);
    }

    #[test]
    fn empty_candidate_set() {
        let sim = SimilarityMatrix::from_features(&Tensor::zeros(&[0, 3]));
        let mut rng = Rng64::new(6);
        assert!(maximize(&sim, 5, GreedyVariant::Lazy, &mut rng)
            .unwrap()
            .is_empty());
        assert!(sim.is_empty());
    }

    #[test]
    fn marginal_gains_diminish() {
        // Submodularity: the gain of the (t+1)-th greedy pick never exceeds
        // the gain of the t-th pick.
        let mut rng = Rng64::new(7);
        let x = Tensor::rand_uniform(&[30, 5], -1.0, 1.0, &mut rng);
        let sim = SimilarityMatrix::from_features(&x);
        let mut coverage = vec![f32::NEG_INFINITY; 30];
        let mut prev_gain = f32::INFINITY;
        for _ in 0..8 {
            let mut best = 0;
            let mut best_gain = f32::NEG_INFINITY;
            for j in 0..30 {
                let g = gain_from(&sim, j, &coverage);
                if g > best_gain {
                    best_gain = g;
                    best = j;
                }
            }
            assert!(best_gain <= prev_gain + 1e-3);
            prev_gain = best_gain;
            absorb_from(&sim, best, &mut coverage);
        }
    }

    #[test]
    fn absorb_is_idempotent() {
        let sim = SimilarityMatrix::from_features(&clustered_features());
        let mut coverage = vec![f32::NEG_INFINITY; 12];
        absorb_from(&sim, 0, &mut coverage);
        let snapshot = coverage.clone();
        absorb_from(&sim, 0, &mut coverage);
        assert_eq!(coverage, snapshot);
        // After absorbing j, j's own marginal gain is zero.
        assert_eq!(gain_from(&sim, 0, &coverage), 0.0);
    }
}
