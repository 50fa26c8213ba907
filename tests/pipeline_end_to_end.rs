//! End-to-end integration tests: the full NeSSA pipeline against the
//! paper's baselines on a shared synthetic dataset, spanning every crate
//! in the workspace.

use nessa::core::{run_policy, NessaConfig, NessaPipeline, Policy};
use nessa::data::{Dataset, SynthConfig};
use nessa::nn::models::{mlp, Network};
use nessa::tensor::rng::Rng64;

const EPOCHS: usize = 12;
const BATCH: usize = 32;

fn dataset() -> (Dataset, Dataset) {
    SynthConfig {
        name: "integration".into(),
        train: 600,
        test: 240,
        dim: 16,
        classes: 6,
        clusters_per_class: 5,
        cluster_std: 0.9,
        class_sep: 3.2,
        mode_spread: 0.4,
        hard_fraction: 0.15,
        hard_std_multiplier: 2.5,
        bytes_per_sample: 3000,
        seed: 99,
    }
    .generate()
}

fn builder(rng: &mut Rng64) -> Network {
    mlp(&[16, 48, 6], rng)
}

#[test]
fn nessa_tracks_full_data_accuracy_within_margin() {
    let (train, test) = dataset();
    let goal = run_policy(&Policy::Goal, &train, &test, EPOCHS, BATCH, 5, &builder).unwrap();
    let nessa = run_policy(
        &Policy::Nessa(NessaConfig::new(0.3, EPOCHS)),
        &train,
        &test,
        EPOCHS,
        BATCH,
        5,
        &builder,
    )
    .unwrap();
    let gap = goal.best_accuracy() - nessa.best_accuracy();
    assert!(
        goal.best_accuracy() > 0.75,
        "goal should learn this dataset: {}",
        goal.best_accuracy()
    );
    // The paper's Table 2 shows a 1-2 point gap at these operating
    // points; allow a wider band at this tiny scale.
    assert!(gap < 0.08, "accuracy gap too large: {gap}");
}

#[test]
fn nessa_beats_kcenters_at_small_subsets() {
    // Table 3's headline contrast: at a 10 % subset, NeSSA's facility
    // location far outperforms outlier-chasing K-Centers.
    let (train, test) = dataset();
    let nessa = run_policy(
        &Policy::Nessa(NessaConfig::new(0.1, EPOCHS)),
        &train,
        &test,
        EPOCHS,
        BATCH,
        6,
        &builder,
    )
    .unwrap();
    let kc = run_policy(
        &Policy::KCenters { fraction: 0.1 },
        &train,
        &test,
        EPOCHS,
        BATCH,
        6,
        &builder,
    )
    .unwrap();
    assert!(
        nessa.best_accuracy() >= kc.best_accuracy() - 0.02,
        "nessa {} vs kcenters {}",
        nessa.best_accuracy(),
        kc.best_accuracy()
    );
}

#[test]
fn near_storage_traffic_is_reduced() {
    let (train, test) = dataset();
    let nessa = run_policy(
        &Policy::Nessa(NessaConfig::new(0.25, EPOCHS)),
        &train,
        &test,
        EPOCHS,
        BATCH,
        7,
        &builder,
    )
    .unwrap();
    let t = nessa.traffic;
    // Interconnect traffic (subset + feedback) must be well below what
    // staying on-board avoided.
    assert!(t.ssd_to_fpga > 0 && t.fpga_to_host > 0 && t.host_to_fpga > 0);
    let reduction = t.ssd_to_fpga as f64 / t.fpga_to_host as f64;
    assert!(
        reduction > 2.0,
        "on-board/interconnect ratio only {reduction:.2}"
    );
    assert!(nessa.device_energy_j > 0.0);
}

#[test]
fn subset_biasing_and_sizing_compose() {
    let (train, test) = dataset();
    let mut cfg = NessaConfig::new(0.4, EPOCHS).with_dynamic_sizing(true);
    cfg.biasing_drop_every = 3;
    cfg.biasing_drop_fraction = 0.15;
    cfg.sizing_threshold = 0.2;
    let report = run_policy(
        &Policy::Nessa(cfg),
        &train,
        &test,
        EPOCHS,
        BATCH,
        8,
        &builder,
    )
    .unwrap();
    let first = report.epochs.first().unwrap();
    let last = report.epochs.last().unwrap();
    assert!(last.pool_size < first.pool_size, "pool never pruned");
    assert!(report.best_accuracy() > 0.6, "{}", report.best_accuracy());
}

#[test]
fn full_run_is_deterministic() {
    let (train, test) = dataset();
    let cfg = NessaConfig::new(0.3, 5);
    let a = run_policy(
        &Policy::Nessa(cfg.clone()),
        &train,
        &test,
        5,
        BATCH,
        9,
        &builder,
    )
    .unwrap();
    let b = run_policy(&Policy::Nessa(cfg), &train, &test, 5, BATCH, 9, &builder).unwrap();
    assert_eq!(a.accuracy_curve(), b.accuracy_curve());
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn drive_count_changes_kernel_time_not_picks() {
    // Selection runs once, centrally, over the whole pool: sharding the
    // data across drives changes only what each drive is charged.
    let (train, test) = dataset();
    let run = |drives: usize| {
        let cfg = NessaConfig::new(0.3, 3)
            .with_batch_size(BATCH)
            .with_seed(9)
            .with_drives(drives);
        let mut rng = Rng64::new(cfg.seed);
        let (target, selector) = (builder(&mut rng), builder(&mut rng));
        let mut p = NessaPipeline::new(cfg, target, selector, train.clone(), test.clone());
        let report = p.run().unwrap();
        (p.selection_history().to_vec(), report)
    };
    let (one_picks, one) = run(1);
    let (four_picks, four) = run(4);
    assert_eq!(one_picks, four_picks);
    assert_eq!(one.accuracy_curve(), four.accuracy_curve());
    for (a, b) in one.epochs.iter().zip(&four.epochs) {
        assert!(
            b.select_secs < a.select_secs,
            "epoch {}: 4-drive kernel {} !< 1-drive {}",
            a.epoch,
            b.select_secs,
            a.select_secs
        );
    }
}

#[test]
fn random_baseline_is_worse_or_equal_on_redundant_data() {
    let (train, test) = dataset();
    let nessa = run_policy(
        &Policy::Nessa(NessaConfig::new(0.15, EPOCHS)),
        &train,
        &test,
        EPOCHS,
        BATCH,
        10,
        &builder,
    )
    .unwrap();
    let rand = run_policy(
        &Policy::Random { fraction: 0.15 },
        &train,
        &test,
        EPOCHS,
        BATCH,
        10,
        &builder,
    )
    .unwrap();
    // Informative selection should not lose to random by any real margin.
    assert!(
        nessa.best_accuracy() >= rand.best_accuracy() - 0.04,
        "nessa {} vs random {}",
        nessa.best_accuracy(),
        rand.best_accuracy()
    );
}
