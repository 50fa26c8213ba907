//! Output checks. A run that fails any of them counts as failed; none is
//! ever skipped.

use crate::workload::{Workload, ACC_FLOOR};
use nessa_core::RunReport;
use nessa_smartssd::SsdCluster;
use nessa_telemetry::{SpanRecord, SpanTree};
use nessa_trace::RunTrace;

/// Largest difference allowed between a span's simulated seconds and the
/// run report's.
const SIM_TOLERANCE: f64 = 1e-9;

/// Span names whose simulated seconds make up a sequential epoch's total.
const LEDGER_SPANS: [&str; 6] = ["scan", "select", "ship", "train", "feedback", "fallback"];

/// Checks one finished run; returns what is wrong (empty when correct).
pub fn run_outputs(w: &Workload, report: &RunReport, device: &SsdCluster) -> Vec<String> {
    let mut problems = Vec::new();
    if report.epochs.len() != w.epochs {
        problems.push(format!(
            "{} epochs reported, {} configured",
            report.epochs.len(),
            w.epochs
        ));
    }
    let acc = report.final_accuracy();
    if acc.is_nan() || acc < ACC_FLOOR {
        problems.push(format!("final accuracy {acc} below the floor {ACC_FLOOR}"));
    }
    if w.faults {
        if device.faults_injected() == 0 {
            problems.push("no fault fired".into());
        }
        if device.evicted() == 0 {
            problems.push("no drive was evicted".into());
        }
        // The host rung is the only path that stages records to the host.
        if report.traffic.staged_to_host == 0 {
            problems.push("the host fallback rung was never reached".into());
        }
    }
    problems
}

fn descendants(tree: &SpanTree, id: u64) -> Vec<&SpanRecord> {
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(id) = stack.pop() {
        for child in tree.children(id) {
            stack.push(child.id);
            out.push(child);
        }
    }
    out
}

fn sim_of<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>, names: &[&str]) -> f64 {
    spans
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| s.sim_secs)
        .sum()
}

/// Checks that the traced run's spans carry the run report's simulated
/// time, epoch by epoch, within [`SIM_TOLERANCE`].
pub fn reconcile(trace: &RunTrace, report: &RunReport) -> Vec<String> {
    let tree = &trace.tree;
    let mut problems = Vec::new();
    let mut close = |what: String, got: f64, want: f64| {
        if (got - want).abs() > SIM_TOLERANCE {
            problems.push(format!("{what}: spans carry {got} sim s, report {want}"));
        }
    };
    for rec in &report.epochs {
        let roots: Vec<&SpanRecord> = tree
            .roots()
            .filter(|s| s.name == "epoch" && s.attr_u64("epoch") == Some(rec.epoch as u64))
            .collect();
        let [root] = roots[..] else {
            return vec![format!(
                "epoch {}: {} epoch spans in the trace",
                rec.epoch,
                roots.len()
            )];
        };
        let e = rec.epoch;
        close(format!("epoch {e}"), root.sim_secs, rec.total_secs());
        match &rec.overlap {
            None => {
                let phases = sim_of(descendants(tree, root.id), &LEDGER_SPANS);
                close(format!("epoch {e} phases"), phases, rec.total_secs());
            }
            Some(o) => {
                let direct: Vec<&SpanRecord> = tree.children(root.id).collect();
                let sync = sim_of(
                    direct.iter().copied(),
                    &["scan", "select", "ship", "fallback"],
                );
                close(format!("epoch {e} sync round"), sync, o.sync_secs);
                let side = sim_of(direct.iter().copied(), &["overlap.select"]);
                close(
                    format!("epoch {e} overlap.select"),
                    side,
                    o.select_side_secs,
                );
                let handoff = sim_of(direct.iter().copied(), &["overlap.handoff"]);
                close(
                    format!("epoch {e} overlap.handoff"),
                    handoff,
                    o.handoff_secs,
                );
            }
        }
    }
    problems
}
