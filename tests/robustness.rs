//! Robustness integration test: the pipeline under injected label noise.

use nessa::core::{run_policy, NessaConfig, Policy};
use nessa::data::{corrupt, SynthConfig};
use nessa::nn::models::mlp;
use nessa::tensor::rng::Rng64;

#[test]
fn pipeline_survives_label_noise() {
    let (train, test) = SynthConfig {
        train: 400,
        test: 160,
        dim: 12,
        classes: 4,
        cluster_std: 0.6,
        class_sep: 3.0,
        ..SynthConfig::default()
    }
    .generate();
    let mut rng = Rng64::new(1);
    let (noisy, _) = corrupt::inject_label_noise(&train, 0.2, &mut rng);
    let builder = |rng: &mut Rng64| mlp(&[12, 32, 4], rng);
    let clean = run_policy(
        &Policy::Nessa(NessaConfig::new(0.3, 10)),
        &train,
        &test,
        10,
        32,
        2,
        &builder,
    )
    .unwrap();
    let dirty = run_policy(
        &Policy::Nessa(NessaConfig::new(0.3, 10)),
        &noisy,
        &test,
        10,
        32,
        2,
        &builder,
    )
    .unwrap();
    // Noise hurts but must not collapse training (test labels are clean).
    assert!(
        clean.best_accuracy() > 0.8,
        "clean {}",
        clean.best_accuracy()
    );
    assert!(
        dirty.best_accuracy() > clean.best_accuracy() - 0.25,
        "noisy run collapsed: {} vs {}",
        dirty.best_accuracy(),
        clean.best_accuracy()
    );
}
