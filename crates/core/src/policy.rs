//! Unified policy runner: NeSSA and every baseline the paper compares
//! against, through one code path so accuracy comparisons are fair.

use crate::config::NessaConfig;
use crate::error::PipelineError;
use crate::pipeline::NessaPipeline;
use crate::proxy::{embeddings, gradient_proxies};
use crate::report::{EpochRecord, RunReport};
use crate::trainer::{evaluate, train_epoch};
use nessa_data::Dataset;
use nessa_nn::models::Network;
use nessa_nn::optim::{MultiStepLr, Sgd, SgdConfig};
use nessa_select::craig::{select_per_class_factored, CraigOptions};
use nessa_select::{kcenters, random, Selection};
use nessa_tensor::rng::Rng64;

/// A training policy from the paper's evaluation.
///
/// `Nessa` carries the full [`NessaConfig`] inline; a `Policy` is built
/// once per run and never stored in bulk, so the size skew between
/// variants costs nothing in practice and boxing would only add noise
/// at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// "Goal": train on the full dataset.
    Goal,
    /// NeSSA with the given configuration (near-storage pipeline).
    Nessa(NessaConfig),
    /// CPU CRAIG (Mirzasoleiman et al. '20): per-class facility location on
    /// f32 gradient proxies, re-selected every epoch; no feedback
    /// quantization, no biasing, no partitioning.
    Craig {
        /// Subset fraction.
        fraction: f32,
    },
    /// CPU K-Centers (Sener & Savarese '17): farthest-first traversal on
    /// gradient proxies, unit weights.
    KCenters {
        /// Subset fraction.
        fraction: f32,
    },
    /// Uniform random subset, re-drawn every epoch.
    Random {
        /// Subset fraction.
        fraction: f32,
    },
}

impl Policy {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Goal => "goal",
            Policy::Nessa(_) => "nessa",
            Policy::Craig { .. } => "craig",
            Policy::KCenters { .. } => "kcenters",
            Policy::Random { .. } => "random",
        }
    }
}

/// Runs `policy` for `epochs` epochs with the paper's optimizer settings.
///
/// `make_model` builds a fresh network (called once for the trainee and,
/// for NeSSA, once more for the selector); it receives a seeded RNG so
/// runs are reproducible.
///
/// # Errors
///
/// Propagates [`PipelineError`] when selection rejects its inputs or a
/// kernel profile does not fit the simulated FPGA.
pub fn run_policy(
    policy: &Policy,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    batch_size: usize,
    seed: u64,
    make_model: &dyn Fn(&mut Rng64) -> Network,
) -> Result<RunReport, PipelineError> {
    match policy {
        Policy::Nessa(cfg) => {
            let mut cfg = cfg.clone();
            cfg.epochs = epochs;
            cfg.batch_size = batch_size;
            cfg.seed = seed;
            let mut init_rng = Rng64::new(seed);
            let target = make_model(&mut init_rng);
            let selector = make_model(&mut init_rng);
            let mut pipeline =
                NessaPipeline::new(cfg, target, selector, train.clone(), test.clone());
            pipeline.run()
        }
        _ => run_cpu_policy(policy, train, test, epochs, batch_size, seed, make_model),
    }
}

fn run_cpu_policy(
    policy: &Policy,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    batch_size: usize,
    seed: u64,
    make_model: &dyn Fn(&mut Rng64) -> Network,
) -> Result<RunReport, PipelineError> {
    let n = train.len();
    let mut init_rng = Rng64::new(seed);
    let mut net = make_model(&mut init_rng);
    let mut rng = Rng64::new(seed ^ 0x9e3779b97f4a7c15);
    let mut opt = Sgd::new(SgdConfig::default());
    let schedule = MultiStepLr::paper_schedule(epochs);
    let all: Vec<usize> = (0..n).collect();
    let mut report = RunReport {
        name: policy.label().into(),
        train_size: n,
        ..RunReport::default()
    };
    for epoch in 0..epochs {
        let lr = schedule.lr_at(epoch);
        let selection = match policy {
            Policy::Goal => Selection::new(all.clone(), vec![1.0; n]),
            Policy::Craig { fraction } => {
                let proxies = gradient_proxies(&mut net, train, &all, batch_size);
                select_per_class_factored(
                    &proxies.residuals,
                    &proxies.features,
                    train.labels(),
                    train.classes(),
                    *fraction,
                    &CraigOptions::default(),
                    &mut rng,
                )?
            }
            Policy::KCenters { fraction } => {
                // Sener & Savarese select in the penultimate embedding
                // space, not the gradient space.
                let embeds = embeddings(&mut net, train, &all, batch_size);
                let mut sel = kcenters::select_per_class(
                    &embeds,
                    train.labels(),
                    train.classes(),
                    *fraction,
                    &mut rng,
                );
                // Sener & Savarese train the subset unweighted.
                sel.weights = vec![1.0; sel.len()];
                sel
            }
            Policy::Random { fraction } => {
                random::select_per_class(train.labels(), train.classes(), *fraction, &mut rng)
            }
            Policy::Nessa(_) => unreachable!("handled by run_policy"),
        };
        let outcome = train_epoch(
            &mut net,
            &mut opt,
            train,
            &selection.indices,
            &selection.weights,
            batch_size,
            lr,
            &mut rng,
        );
        let test_acc = evaluate(&mut net, test, batch_size);
        report.epochs.push(EpochRecord {
            epoch,
            lr,
            subset_size: selection.len(),
            pool_size: n,
            train_loss: outcome.mean_loss,
            test_acc,
            select_secs: 0.0,
            io_secs: 0.0,
            overlap: None,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;

    fn data() -> (Dataset, Dataset) {
        SynthConfig {
            train: 300,
            test: 120,
            dim: 8,
            classes: 3,
            cluster_std: 0.7,
            class_sep: 3.2,
            ..SynthConfig::default()
        }
        .generate()
    }

    fn model(rng: &mut Rng64) -> Network {
        mlp(&[8, 24, 3], rng)
    }

    #[test]
    fn goal_trains_on_everything() {
        let (train, test) = data();
        let r = run_policy(&Policy::Goal, &train, &test, 8, 32, 0, &model).unwrap();
        assert_eq!(r.epochs[0].subset_size, 300);
        assert!(r.final_accuracy() > 0.8, "goal acc {}", r.final_accuracy());
    }

    #[test]
    fn craig_matches_goal_within_margin_at_30pct() {
        let (train, test) = data();
        let goal = run_policy(&Policy::Goal, &train, &test, 10, 32, 0, &model).unwrap();
        let craig = run_policy(
            &Policy::Craig { fraction: 0.3 },
            &train,
            &test,
            10,
            32,
            0,
            &model,
        )
        .unwrap();
        assert_eq!(craig.epochs[0].subset_size, 90);
        assert!(
            craig.final_accuracy() > goal.final_accuracy() - 0.12,
            "craig {} vs goal {}",
            craig.final_accuracy(),
            goal.final_accuracy()
        );
    }

    #[test]
    fn all_policies_produce_reports() {
        let (train, test) = data();
        for policy in [
            Policy::Goal,
            Policy::Nessa(NessaConfig::new(0.3, 3)),
            Policy::Craig { fraction: 0.3 },
            Policy::KCenters { fraction: 0.3 },
            Policy::Random { fraction: 0.3 },
        ] {
            let r = run_policy(&policy, &train, &test, 3, 32, 1, &model).unwrap();
            assert_eq!(r.epochs.len(), 3, "{}", policy.label());
            assert_eq!(r.name, policy.label());
            assert!(r.final_accuracy() > 0.25, "{} too weak", policy.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Policy::Goal.label(), "goal");
        assert_eq!(Policy::Nessa(NessaConfig::new(0.1, 1)).label(), "nessa");
        assert_eq!(Policy::Craig { fraction: 0.1 }.label(), "craig");
        assert_eq!(Policy::KCenters { fraction: 0.1 }.label(), "kcenters");
        assert_eq!(Policy::Random { fraction: 0.1 }.label(), "random");
    }

    #[test]
    fn deterministic_under_seed() {
        let (train, test) = data();
        let a = run_policy(
            &Policy::Craig { fraction: 0.2 },
            &train,
            &test,
            3,
            32,
            5,
            &model,
        )
        .unwrap();
        let b = run_policy(
            &Policy::Craig { fraction: 0.2 },
            &train,
            &test,
            3,
            32,
            5,
            &model,
        )
        .unwrap();
        assert_eq!(a.accuracy_curve(), b.accuracy_curve());
    }
}
