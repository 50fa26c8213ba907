//! Per-layer numbers read back from one traced run: the phase spans and
//! counters the pipeline writes to its JSONL artifact, plus the device
//! state the run left behind.

use nessa_core::RunReport;
use nessa_smartssd::SsdCluster;
use nessa_telemetry::SpanRecord;
use nessa_trace::{RunTrace, TraceReport};
use std::collections::{BTreeMap, BTreeSet};

pub type Values = BTreeMap<&'static str, f64>;

/// Length of the part of `[start, end)` that `intervals` cover.
fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Everything the artifact of one traced run says per layer. Wall-clock
/// entries vary run to run; the rest repeat exactly under the seed.
pub fn from_trace(trace: &RunTrace, report: &RunReport, device: &SsdCluster) -> Values {
    let spans = trace.tree.spans();
    let named = |names: &'static [&'static str]| {
        spans
            .iter()
            .filter(move |s| names.contains(&s.name.as_str()))
    };
    let epochs = report.epochs.len().max(1) as f64;
    let wall = |names| named(names).map(|s| s.wall_secs).sum::<f64>() / epochs;
    let sim = |names| named(names).map(|s| s.sim_secs).sum::<f64>() / epochs;
    let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64;
    let rounds = named(&["select"]).count().max(1) as f64;

    let unattributed: f64 = trace
        .tree
        .roots()
        .filter(|s| s.name == "epoch")
        .map(|root| {
            let end = root.start_secs + root.wall_secs;
            let children = trace
                .tree
                .children(root.id)
                .map(|c| (c.start_secs, c.start_secs + c.wall_secs))
                .collect();
            root.wall_secs - covered(root.start_secs, end, children)
        })
        .sum::<f64>()
        / epochs;
    let degraded_rounds: BTreeSet<u64> = named(&["fallback"])
        .filter_map(|s| s.attr_u64("epoch"))
        .collect();
    let payload = named(&["feedback", "overlap.handoff"])
        .find_map(|s: &SpanRecord| s.attr_u64("bytes"))
        .unwrap_or(0);
    let records = report.epochs.last().map_or(0, |e| e.pool_size) as u64;
    let shards = device.shard_counts(records);
    let shard_mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
    let shard_skew = match shards.iter().max() {
        Some(&max) if shard_mean > 0.0 => max as f64 / shard_mean,
        _ => 0.0,
    };
    let traffic = report.traffic;
    let mb = |bytes: u64| bytes as f64 / 1e6 / epochs;

    BTreeMap::from([
        (
            "select.wall_s",
            named(&["select"]).map(|s| s.wall_secs).sum::<f64>() / rounds,
        ),
        (
            "select.gain_evals_per_round",
            counter("select.gain_evals") / rounds,
        ),
        ("select.chunks_per_round", counter("select.chunks") / rounds),
        ("nn.train_wall_s", wall(&["train"])),
        (
            "quant.feedback_wall_s",
            wall(&["feedback", "overlap.handoff"]),
        ),
        ("quant.payload_bytes", payload as f64),
        ("core.unattributed_wall_s", unattributed),
        ("core.overlap_wait_s", wall(&["overlap.wait"])),
        (
            "core.overlap_ratio",
            TraceReport::from_trace(trace)
                .mean_overlap_ratio()
                .unwrap_or(0.0),
        ),
        ("core.retry_attempts", counter("retry.attempts")),
        ("core.fallback_host", counter("fallback.host")),
        ("core.fallback_random", counter("fallback.random")),
        (
            "core.degraded_round_frac",
            degraded_rounds.len() as f64 / rounds,
        ),
        ("smartssd.scan_sim_s", sim(&["scan"])),
        ("smartssd.kernel_sim_s", sim(&["select"])),
        ("smartssd.ship_sim_s", sim(&["ship"])),
        (
            "smartssd.feedback_sim_s",
            sim(&["feedback", "overlap.handoff"]),
        ),
        ("smartssd.retry_sim_s", sim(&["retry"])),
        ("smartssd.fallback_sim_s", sim(&["fallback"])),
        (
            "smartssd.flash_mb",
            mb(traffic.ssd_to_fpga + traffic.staged_to_host),
        ),
        ("smartssd.interconnect_mb", mb(traffic.interconnect_bytes())),
        ("smartssd.shard_skew", shard_skew),
        ("smartssd.faults_injected", counter("fault.injected")),
        ("smartssd.drives_evicted", counter("drive.evicted")),
        ("smartssd.host_wall_s", wall(&["scan", "ship"])),
        ("data.quarantined_records", counter("data.quarantined")),
    ])
}
