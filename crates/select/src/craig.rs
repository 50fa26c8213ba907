//! Per-class CRAIG selection with NeSSA's dataset-partitioning option.
//!
//! CRAIG (Mirzasoleiman et al., ICML '20) selects medoids **within each
//! class** by facility location over gradient-proxy similarities and weighs
//! each medoid by its cluster size. NeSSA adapts the same core to the
//! SmartSSD and adds partitioning (paper §3.2.3): each class's candidate
//! pool is split into random chunks small enough for the FPGA's 4.32 MB
//! on-chip memory, and medoids are selected per chunk — turning the
//! quadratic similarity computation into a sum of small quadratics.

use crate::facility::{maximize_metered, GreedyVariant, SimilarityMatrix};
use crate::metrics::SelectMetrics;
use crate::{fraction_count, group_by_class, SelectError, Selection};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for [`select_per_class`].
#[derive(Debug, Clone)]
pub struct CraigOptions {
    /// Greedy maximizer to use inside each class/chunk.
    pub variant: GreedyVariant,
    /// Dataset partitioning (paper §3.2.3): split each class into random
    /// chunks of at most this many candidates and select proportionally
    /// from each. `None` selects over whole classes.
    pub partition_chunk: Option<usize>,
    /// Telemetry handles updated while the kernel runs (`None` = no
    /// instrumentation).
    pub metrics: Option<SelectMetrics>,
    /// Threads the per-class bodies run on, the calling thread included
    /// (0 counts as 1). Each class draws only from its own pre-split RNG
    /// stream and the results merge in class order, so the selection is
    /// bit-identical at any count.
    pub workers: usize,
}

impl Default for CraigOptions {
    fn default() -> Self {
        Self {
            variant: GreedyVariant::Lazy,
            partition_chunk: None,
            metrics: None,
            workers: 1,
        }
    }
}

// Metrics handles are identity-less instrumentation plumbing and the
// worker count changes no pick; equality of options is about the
// algorithm they configure.
impl PartialEq for CraigOptions {
    fn eq(&self, other: &Self) -> bool {
        self.variant == other.variant && self.partition_chunk == other.partition_chunk
    }
}

/// Selects `⌈fraction · |class|⌉` medoids from every class of a candidate
/// pool and returns one merged, globally-indexed [`Selection`].
///
/// * `features` — one gradient-proxy row per candidate (`n × d`),
/// * `labels` — class of each candidate (`labels.len() == n`),
/// * `classes` — number of classes,
/// * `fraction` — subset fraction in `(0, 1]`.
///
/// # Errors
///
/// [`SelectError::LengthMismatch`] if the label count differs from the
/// feature rows, [`SelectError::BadFraction`] if `fraction` is outside
/// `(0, 1]`, [`SelectError::LabelOutOfRange`] if any label is
/// `≥ classes`.
pub fn select_per_class(
    features: &Tensor,
    labels: &[usize],
    classes: usize,
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    let by_class = group_by_class(features.dim(0), labels, classes, fraction)?;
    let sim_of =
        |members: &[usize]| SimilarityMatrix::from_features(&features.gather_rows(members));
    run_per_class(&sim_of, &by_class, fraction, options, rng)
}

/// How a member set becomes its similarity matrix; shared by every
/// per-class worker thread.
type SimilarityFn<'a> = dyn Fn(&[usize]) -> SimilarityMatrix + Sync + 'a;

/// Runs the per-class selection bodies on up to `options.workers`
/// threads and merges them in class order. RNGs are pre-split per class
/// before any class draws, so each class's picks depend only on its own
/// stream, never on which thread ran it or when. The first error in class
/// order is returned, as a class-by-class loop would return it.
fn run_per_class(
    sim_of: &SimilarityFn<'_>,
    by_class: &[Vec<usize>],
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    let class_rngs: Vec<Rng64> = by_class.iter().map(|_| rng.split()).collect();
    // Each thread claims the next unclaimed class until none is left, so
    // one large class does not hold the others up.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let class = next.fetch_add(1, Ordering::Relaxed);
            let (Some(members), Some(class_rng)) = (by_class.get(class), class_rngs.get(class))
            else {
                return done;
            };
            let picked =
                select_one_class_with(sim_of, members, fraction, options, &mut class_rng.clone());
            done.push((class, picked));
        }
    };
    let (mut results, joined) = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..options.workers.min(by_class.len()))
            .map(|_| s.spawn(work))
            .collect();
        let own = work();
        let joined: Vec<_> = helpers.into_iter().map(|h| h.join()).collect();
        (own, joined)
    });
    for helper in joined {
        results.extend(
            helper.map_err(|_| SelectError::Internal("per-class selection worker panicked"))?,
        );
    }
    results.sort_by_key(|&(class, _)| class);
    let mut merged = Selection::default();
    for (_, picked) in results {
        merged.extend(picked?);
    }
    Ok(merged)
}

/// Per-class CRAIG over **factored** (outer-product) gradient proxies:
/// candidate `i` is `residuals[i] ⊗ features[i]`, compared through the
/// norm/inner-product factorization so the outer products are never
/// materialized (see [`SimilarityMatrix::from_factored`]). This is the
/// memory- and FPGA-faithful path for last-layer gradients.
///
/// # Errors
///
/// Same conditions as [`select_per_class`], plus
/// [`SelectError::LengthMismatch`] on a row-count mismatch between the
/// two factors.
pub fn select_per_class_factored(
    residuals: &Tensor,
    features: &Tensor,
    labels: &[usize],
    classes: usize,
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    if residuals.dim(0) != features.dim(0) {
        return Err(SelectError::LengthMismatch {
            what: "factor rows",
            expected: residuals.dim(0),
            actual: features.dim(0),
        });
    }
    let by_class = group_by_class(residuals.dim(0), labels, classes, fraction)?;
    let sim_of = |members: &[usize]| {
        SimilarityMatrix::from_factored(
            &residuals.gather_rows(members),
            &features.gather_rows(members),
        )
    };
    run_per_class(&sim_of, &by_class, fraction, options, rng)
}

/// Shared per-class body, generic over how a member set becomes a
/// similarity matrix.
fn select_one_class_with(
    sim_of: &SimilarityFn<'_>,
    members: &[usize],
    fraction: f32,
    options: &CraigOptions,
    rng: &mut Rng64,
) -> Result<Selection, SelectError> {
    if members.is_empty() {
        return Ok(Selection::default());
    }
    let metrics = options.metrics.as_ref();
    if let Some(m) = metrics {
        m.classes.inc();
    }
    let k = fraction_count(members.len(), fraction);
    match options.partition_chunk {
        None => {
            if let Some(m) = metrics {
                m.chunks.inc();
            }
            let sim = sim_of(members);
            Ok(maximize_metered(&sim, k, options.variant, rng, metrics)?.into_global(members))
        }
        Some(chunk_size) => {
            let chunk_size = chunk_size.max(2);
            let chunks = members.len().div_ceil(chunk_size).max(1);
            let parts = rng.random_chunks(members.len(), chunks);
            let mut merged = Selection::default();
            for part in parts {
                if part.is_empty() {
                    continue;
                }
                if let Some(m) = metrics {
                    m.chunks.inc();
                }
                let global: Vec<usize> = part.iter().map(|&i| members[i]).collect();
                let k_part = fraction_count(part.len(), fraction);
                let sim = sim_of(&global);
                merged.extend(
                    maximize_metered(&sim, k_part, options.variant, rng, metrics)?
                        .into_global(&global),
                );
            }
            Ok(merged)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes, each with two tight clusters at distinct locations.
    fn toy() -> (Tensor, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centres = [
            (0.0f32, 0.0f32, 0usize),
            (8.0, 0.0, 0),
            (0.0, 8.0, 1),
            (8.0, 8.0, 1),
        ];
        for &(cx, cy, y) in &centres {
            for d in 0..5 {
                rows.push(cx + 0.05 * d as f32);
                rows.push(cy + 0.05 * d as f32);
                labels.push(y);
            }
        }
        (Tensor::from_vec(rows, &[20, 2]), labels)
    }

    #[test]
    fn respects_fraction_per_class() {
        let (x, y) = toy();
        let mut rng = Rng64::new(0);
        let sel = select_per_class(&x, &y, 2, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 4); // ceil(10 * 0.2) per class.
                                  // Selected labels split evenly.
        let c0 = sel.indices.iter().filter(|&&i| y[i] == 0).count();
        assert_eq!(c0, 2);
    }

    #[test]
    fn selects_cluster_representatives() {
        let (x, y) = toy();
        let mut rng = Rng64::new(1);
        let sel = select_per_class(&x, &y, 2, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        // With 2 picks per class and 2 clusters per class, facility location
        // should cover both clusters of each class.
        let cluster_of = |i: usize| i / 5;
        for class in 0..2 {
            let mut clusters: Vec<usize> = sel
                .indices
                .iter()
                .filter(|&&i| y[i] == class)
                .map(|&i| cluster_of(i))
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            assert_eq!(clusters.len(), 2, "class {class} missing a cluster");
        }
    }

    #[test]
    fn weights_cover_whole_class() {
        let (x, y) = toy();
        let mut rng = Rng64::new(2);
        let sel = select_per_class(&x, &y, 2, 0.4, &CraigOptions::default(), &mut rng).unwrap();
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 20.0);
    }

    #[test]
    fn partitioned_selection_still_covers() {
        let (x, y) = toy();
        let mut rng = Rng64::new(3);
        let opts = CraigOptions {
            partition_chunk: Some(5),
            ..CraigOptions::default()
        };
        let sel = select_per_class(&x, &y, 2, 0.4, &opts, &mut rng).unwrap();
        assert!(sel.len() >= 4);
        let total: f32 = sel.weights.iter().sum();
        assert_eq!(total, 20.0);
        // All indices valid and distinct.
        let mut sorted = sel.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sel.len());
    }

    #[test]
    fn fraction_one_selects_everything() {
        let (x, y) = toy();
        let mut rng = Rng64::new(4);
        let sel = select_per_class(&x, &y, 2, 1.0, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 20);
    }

    #[test]
    fn rejects_bad_fraction() {
        let (x, y) = toy();
        let mut rng = Rng64::new(5);
        let err = select_per_class(&x, &y, 2, 0.0, &CraigOptions::default(), &mut rng);
        assert_eq!(err, Err(SelectError::BadFraction(0.0)));
    }

    #[test]
    fn rejects_label_out_of_range() {
        let (x, _) = toy();
        let bad = vec![0usize; 19].into_iter().chain([7]).collect::<Vec<_>>();
        let mut rng = Rng64::new(5);
        let err = select_per_class(&x, &bad, 2, 0.5, &CraigOptions::default(), &mut rng);
        assert_eq!(
            err,
            Err(SelectError::LabelOutOfRange {
                label: 7,
                classes: 2
            })
        );
    }

    #[test]
    fn rejects_length_mismatch() {
        let (x, _) = toy();
        let mut rng = Rng64::new(5);
        let err = select_per_class(&x, &[0, 1], 2, 0.5, &CraigOptions::default(), &mut rng);
        assert_eq!(
            err,
            Err(SelectError::LengthMismatch {
                what: "labels",
                expected: 20,
                actual: 2
            })
        );
    }

    #[test]
    fn factored_matches_materialized_outer_products() {
        // residual factor a (n×3) and feature factor b (n×4): selection
        // over the factored space must equal selection over the explicit
        // outer products.
        let mut rng = Rng64::new(11);
        let n = 24;
        let a = Tensor::rand_uniform(&[n, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        // Materialize the outer products.
        let mut flat = Tensor::zeros(&[n, 12]);
        for i in 0..n {
            for (ci, &av) in a.row(i).iter().enumerate() {
                for (fi, &bv) in b.row(i).iter().enumerate() {
                    flat.set(&[i, ci * 4 + fi], av * bv);
                }
            }
        }
        let opts = CraigOptions::default();
        let sel_flat =
            select_per_class(&flat, &labels, 2, 0.25, &opts, &mut Rng64::new(3)).unwrap();
        let sel_fact =
            select_per_class_factored(&a, &b, &labels, 2, 0.25, &opts, &mut Rng64::new(3)).unwrap();
        assert_eq!(sel_flat.indices, sel_fact.indices);
        assert_eq!(sel_flat.weights, sel_fact.weights);
    }

    #[test]
    fn empty_class_is_skipped() {
        let (x, y) = toy();
        let mut rng = Rng64::new(6);
        // Declare 3 classes; class 2 has no members.
        let sel = select_per_class(&x, &y, 3, 0.2, &CraigOptions::default(), &mut rng).unwrap();
        assert_eq!(sel.len(), 4);
    }
}
