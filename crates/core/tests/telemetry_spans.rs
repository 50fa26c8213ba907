//! Integration test: a pipeline run emits exactly one span per configured
//! epoch phase per epoch, and the spans' simulated seconds reconcile with
//! the run report.

use nessa_core::{NessaConfig, NessaPipeline};
use nessa_data::SynthConfig;
use nessa_nn::models::mlp;
use nessa_telemetry::{SpanRecord, TelemetrySettings};
use nessa_tensor::rng::Rng64;

fn pipeline_for(cfg: &NessaConfig) -> NessaPipeline {
    let synth = SynthConfig {
        train: 240,
        test: 80,
        dim: 8,
        classes: 3,
        cluster_std: 0.6,
        class_sep: 3.5,
        ..SynthConfig::default()
    };
    let (train, test) = synth.generate();
    let mut rng = Rng64::new(cfg.seed);
    let target = mlp(&[8, 16, 3], &mut rng);
    let selector = mlp(&[8, 16, 3], &mut rng);
    NessaPipeline::new(cfg.clone(), target, selector, train, test)
}

fn spans_named<'a>(spans: &'a [SpanRecord], name: &str, epoch: u64) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| s.name == name && s.attr_u64("epoch") == Some(epoch))
        .collect()
}

#[test]
fn every_epoch_phase_emits_exactly_one_span() {
    let epochs = 4;
    let cfg = NessaConfig::new(0.3, epochs)
        .with_batch_size(32)
        .with_seed(11)
        .with_telemetry(TelemetrySettings::memory());
    let mut p = pipeline_for(&cfg);
    let report = p.run().unwrap();
    let spans = p.telemetry().spans();

    for epoch in 0..epochs as u64 {
        let parents = spans_named(&spans, "epoch", epoch);
        assert_eq!(parents.len(), 1, "epoch {epoch}: epoch span");
        let parent_id = parents[0].id;
        // Feedback is on, so all five phases fire every epoch.
        let mut sim_total = 0.0;
        for phase in ["scan", "select", "ship", "train", "feedback"] {
            let found = spans_named(&spans, phase, epoch);
            assert_eq!(found.len(), 1, "epoch {epoch}: {phase} span count");
            assert_eq!(
                found[0].parent,
                Some(parent_id),
                "epoch {epoch}: {phase} must nest under the epoch span"
            );
            sim_total += found[0].sim_secs;
        }
        let expected = report.epochs[epoch as usize].total_secs();
        assert!(
            (sim_total - expected).abs() < 1e-9,
            "epoch {epoch}: span sim total {sim_total} != report {expected}"
        );
        assert!(
            (parents[0].sim_secs - expected).abs() < 1e-9,
            "epoch {epoch}: epoch span sim {} != report {expected}",
            parents[0].sim_secs
        );
    }
}

#[test]
fn disabled_phases_emit_no_spans() {
    let cfg = NessaConfig::new(0.3, 4)
        .with_batch_size(32)
        .with_feedback(false)
        .with_seed(12)
        .with_telemetry(TelemetrySettings::memory());
    let mut p = pipeline_for(&cfg);
    let _ = p.run().unwrap();
    let spans = p.telemetry().spans();

    // Feedback is off: no feedback spans at all.
    assert!(spans.iter().all(|s| s.name != "feedback"));
    // The other phases still fire every epoch.
    for phase in ["scan", "select", "ship", "train"] {
        for epoch in 0..4u64 {
            assert_eq!(
                spans_named(&spans, phase, epoch).len(),
                1,
                "{phase}@{epoch}"
            );
        }
    }
}

#[test]
fn device_trace_bridges_into_the_stream() {
    let cfg = NessaConfig::new(0.3, 3)
        .with_batch_size(32)
        .with_seed(13)
        .with_telemetry(TelemetrySettings::memory());
    let mut p = pipeline_for(&cfg);
    let report = p.run().unwrap();
    let events = p.telemetry().device_events();
    let traced: usize = p
        .device()
        .drives()
        .iter()
        .chain(p.device().retired_drives())
        .map(|d| d.trace().len())
        .sum();
    assert_eq!(events.len(), traced);
    for label in ["scan", "select", "ship", "feedback"] {
        assert!(
            events.iter().any(|e| e.phase == label),
            "missing bridged {label} event"
        );
    }
    let bridged_bytes: u64 = events
        .iter()
        .filter(|e| e.phase == "scan")
        .map(|e| e.bytes)
        .sum();
    assert_eq!(bridged_bytes, report.traffic.ssd_to_fpga);

    // Metrics from select/train instrumentation landed in the registry.
    let snapshot = p.telemetry().metrics_snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("train.batches") > 0);
    assert!(counter("select.greedy_rounds") > 0);
    assert!(counter("select.classes") > 0);
    assert!(snapshot.gauges.iter().any(|(n, _)| n == "device.energy_j"));
}

#[test]
fn telemetry_off_collects_nothing() {
    let cfg = NessaConfig::new(0.3, 2).with_batch_size(32).with_seed(14);
    let mut p = pipeline_for(&cfg);
    let _ = p.run().unwrap();
    assert!(!p.telemetry().is_enabled());
    assert!(p.telemetry().spans().is_empty());
    assert!(p.telemetry().device_events().is_empty());
}
