//! The diff view: tolerance-based regression gates between two runs.
//!
//! A [`RunSummary`] condenses a trace into the numbers worth tracking
//! per commit: per-epoch wall/sim totals and exact quantiles of the
//! per-epoch phase durations (exact, because offline we have every
//! sample — unlike the live log-bucket histograms). Summaries serialize
//! to a small JSON object so a baseline can be checked into the repo;
//! [`diff_runs`] compares two of them and fails when a gated metric
//! regresses beyond the tolerance.
//!
//! Wall-clock metrics are machine-dependent, so gates default to the
//! **simulated** clock (deterministic under a fixed seed) and wall gating
//! is opt-in ([`DiffGates::gate_wall`]).

use crate::report::TraceReport;
use crate::run::RunTrace;
use nessa_telemetry::json::JsonObject;
use nessa_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exact quantiles over a small sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Computes exact quantiles (nearest-rank) of `values`.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        Quantiles {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
        }
    }

    fn to_json(self) -> String {
        JsonObject::new()
            .f64_field("p50", self.p50)
            .f64_field("p95", self.p95)
            .f64_field("p99", self.p99)
            .finish()
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(Quantiles {
            p50: v.get("p50")?.as_f64()?,
            p95: v.get("p95")?.as_f64()?,
            p99: v.get("p99")?.as_f64()?,
        })
    }
}

/// Per-phase duration summary: total plus exact per-epoch quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSummary {
    /// Summed seconds across epochs.
    pub total: f64,
    /// Quantiles of the per-epoch values.
    pub quantiles: Quantiles,
}

/// The comparable condensation of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Number of epoch spans.
    pub epoch_count: usize,
    /// Summed epoch-span wall seconds.
    pub total_wall_s: f64,
    /// Summed epoch-span simulated seconds.
    pub total_sim_s: f64,
    /// Quantiles of per-epoch wall seconds.
    pub epoch_wall: Quantiles,
    /// Quantiles of per-epoch simulated seconds.
    pub epoch_sim: Quantiles,
    /// Phase name → simulated-clock summary.
    pub phase_sim: BTreeMap<String, PhaseSummary>,
    /// Phase name → wall-clock summary.
    pub phase_wall: BTreeMap<String, PhaseSummary>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
}

impl RunSummary {
    /// Condenses a loaded trace.
    pub fn from_trace(trace: &RunTrace) -> Self {
        let report = TraceReport::from_trace(trace);
        let mut phase_sim_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut phase_wall_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut epoch_wall = Vec::new();
        let mut epoch_sim = Vec::new();
        for e in &report.epochs {
            epoch_wall.push(e.wall_s);
            epoch_sim.push(e.sim_s);
            for (name, p) in &e.phases {
                phase_sim_values
                    .entry(name.clone())
                    .or_default()
                    .push(p.sim_s);
                phase_wall_values
                    .entry(name.clone())
                    .or_default()
                    .push(p.wall_s);
            }
        }
        let summarize = |values: BTreeMap<String, Vec<f64>>| {
            values
                .into_iter()
                .map(|(name, vals)| {
                    (
                        name,
                        PhaseSummary {
                            total: vals.iter().sum(),
                            quantiles: Quantiles::from_values(&vals),
                        },
                    )
                })
                .collect()
        };
        RunSummary {
            epoch_count: report.epochs.len(),
            total_wall_s: epoch_wall.iter().sum(),
            total_sim_s: epoch_sim.iter().sum(),
            epoch_wall: Quantiles::from_values(&epoch_wall),
            epoch_sim: Quantiles::from_values(&epoch_sim),
            phase_sim: summarize(phase_sim_values),
            phase_wall: summarize(phase_wall_values),
            counters: trace.counters.clone(),
        }
    }

    /// Serializes the summary (the `BENCH_pipeline.json` building block).
    pub fn to_json(&self) -> String {
        let phases = |map: &BTreeMap<String, PhaseSummary>| {
            let mut obj = JsonObject::new();
            for (name, p) in map {
                obj = obj.raw_field(
                    name,
                    &JsonObject::new()
                        .f64_field("total", p.total)
                        .raw_field("quantiles", &p.quantiles.to_json())
                        .finish(),
                );
            }
            obj.finish()
        };
        let mut counters = JsonObject::new();
        for (name, v) in &self.counters {
            counters = counters.u64_field(name, *v);
        }
        JsonObject::new()
            .str_field("type", "nessa-run-summary")
            .u64_field("epoch_count", self.epoch_count as u64)
            .f64_field("total_wall_s", self.total_wall_s)
            .f64_field("total_sim_s", self.total_sim_s)
            .raw_field("epoch_wall", &self.epoch_wall.to_json())
            .raw_field("epoch_sim", &self.epoch_sim.to_json())
            .raw_field("phase_sim", &phases(&self.phase_sim))
            .raw_field("phase_wall", &phases(&self.phase_wall))
            .raw_field("counters", &counters.finish())
            .finish()
    }

    /// Parses a serialized summary. Returns `None` when `v` is not a
    /// `nessa-run-summary` object.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        if v.get("type")?.as_str()? != "nessa-run-summary" {
            return None;
        }
        let phases = |key: &str| -> Option<BTreeMap<String, PhaseSummary>> {
            let mut out = BTreeMap::new();
            for (name, p) in v.get(key)?.as_obj()? {
                out.insert(
                    name.clone(),
                    PhaseSummary {
                        total: p.get("total")?.as_f64()?,
                        quantiles: Quantiles::from_json(p.get("quantiles")?)?,
                    },
                );
            }
            Some(out)
        };
        let mut counters = BTreeMap::new();
        if let Some(fields) = v.get("counters").and_then(JsonValue::as_obj) {
            for (name, value) in fields {
                counters.insert(name.clone(), value.as_u64()?);
            }
        }
        Some(RunSummary {
            epoch_count: v.get("epoch_count")?.as_u64()? as usize,
            total_wall_s: v.get("total_wall_s")?.as_f64()?,
            total_sim_s: v.get("total_sim_s")?.as_f64()?,
            epoch_wall: Quantiles::from_json(v.get("epoch_wall")?)?,
            epoch_sim: Quantiles::from_json(v.get("epoch_sim")?)?,
            phase_sim: phases("phase_sim")?,
            phase_wall: phases("phase_wall")?,
            counters,
        })
    }
}

/// Regression-gate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffGates {
    /// Maximum tolerated regression, in percent, on gated metrics.
    pub max_regress_pct: f64,
    /// Also gate wall-clock metrics (off by default: wall time varies
    /// with the machine; the simulated clock is deterministic).
    pub gate_wall: bool,
}

impl Default for DiffGates {
    fn default() -> Self {
        DiffGates {
            max_regress_pct: 10.0,
            gate_wall: false,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffItem {
    /// Metric name, e.g. `phase.select.sim_p95`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (positive = slower/bigger).
    pub delta_pct: f64,
    /// Whether the gate applies to this metric.
    pub gated: bool,
}

impl DiffItem {
    /// Whether this item trips its gate at `max_regress_pct`.
    pub fn regressed(&self, max_regress_pct: f64) -> bool {
        self.gated && self.delta_pct > max_regress_pct
    }
}

/// The outcome of comparing two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared metric.
    pub items: Vec<DiffItem>,
    /// The gates the comparison ran under.
    pub gates: DiffGates,
}

impl DiffReport {
    /// Whether every gated metric stayed within tolerance.
    pub fn passed(&self) -> bool {
        !self
            .items
            .iter()
            .any(|i| i.regressed(self.gates.max_regress_pct))
    }

    /// The items that tripped their gate.
    pub fn regressions(&self) -> Vec<&DiffItem> {
        self.items
            .iter()
            .filter(|i| i.regressed(self.gates.max_regress_pct))
            .collect()
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run diff (gate: >{:.1}% regression on {} metrics fails)",
            self.gates.max_regress_pct,
            if self.gates.gate_wall {
                "sim+wall"
            } else {
                "sim"
            }
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>14} {:>9}  gate",
            "metric", "baseline", "current", "delta"
        );
        for i in &self.items {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.6e} {:>14.6e} {:>+8.2}%  {}",
                i.metric,
                i.base,
                i.current,
                i.delta_pct,
                if !i.gated {
                    "-"
                } else if i.regressed(self.gates.max_regress_pct) {
                    "FAIL"
                } else {
                    "ok"
                }
            );
        }
        let _ = writeln!(out, "  => {}", if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

fn push_item(
    items: &mut Vec<DiffItem>,
    metric: impl Into<String>,
    base: f64,
    current: f64,
    gated: bool,
) {
    let delta_pct = if base != 0.0 {
        100.0 * (current - base) / base
    } else if current == 0.0 {
        0.0
    } else {
        f64::INFINITY
    };
    items.push(DiffItem {
        metric: metric.into(),
        base,
        current,
        delta_pct,
        // A gated metric is simulated and deterministic, so one that
        // leaves a zero baseline (a phase that starts costing sim time)
        // has regressed without bound.
        gated,
    });
}

/// Compares two summaries under the given gates.
pub fn diff_runs(base: &RunSummary, current: &RunSummary, gates: DiffGates) -> DiffReport {
    let mut items = Vec::new();
    push_item(
        &mut items,
        "epoch.count",
        base.epoch_count as f64,
        current.epoch_count as f64,
        false,
    );
    push_item(
        &mut items,
        "epoch.total_sim_s",
        base.total_sim_s,
        current.total_sim_s,
        true,
    );
    push_item(
        &mut items,
        "epoch.sim_p95",
        base.epoch_sim.p95,
        current.epoch_sim.p95,
        true,
    );
    push_item(
        &mut items,
        "epoch.total_wall_s",
        base.total_wall_s,
        current.total_wall_s,
        gates.gate_wall,
    );
    push_item(
        &mut items,
        "epoch.wall_p95",
        base.epoch_wall.p95,
        current.epoch_wall.p95,
        gates.gate_wall,
    );
    let phase_names: std::collections::BTreeSet<&String> = base
        .phase_sim
        .keys()
        .chain(current.phase_sim.keys())
        .collect();
    for name in phase_names {
        let b = base.phase_sim.get(name).copied().unwrap_or_default();
        let c = current.phase_sim.get(name).copied().unwrap_or_default();
        push_item(
            &mut items,
            format!("phase.{name}.sim_total"),
            b.total,
            c.total,
            true,
        );
        push_item(
            &mut items,
            format!("phase.{name}.sim_p95"),
            b.quantiles.p95,
            c.quantiles.p95,
            true,
        );
        let bw = base.phase_wall.get(name).copied().unwrap_or_default();
        let cw = current.phase_wall.get(name).copied().unwrap_or_default();
        push_item(
            &mut items,
            format!("phase.{name}.wall_total"),
            bw.total,
            cw.total,
            gates.gate_wall,
        );
    }
    let counter_names: std::collections::BTreeSet<&String> = base
        .counters
        .keys()
        .chain(current.counters.keys())
        .collect();
    for name in counter_names {
        push_item(
            &mut items,
            format!("counter.{name}"),
            base.counters.get(name).copied().unwrap_or(0) as f64,
            current.counters.get(name).copied().unwrap_or(0) as f64,
            false,
        );
    }
    DiffReport { items, gates }
}

/// Renders the `BENCH_pipeline.json` trajectory artifact: the diff
/// verdict plus both summaries, so CI uploads one self-contained file
/// per commit.
pub fn bench_artifact(base: &RunSummary, current: &RunSummary, report: &DiffReport) -> String {
    let mut diffs = Vec::new();
    for i in &report.items {
        diffs.push(
            JsonObject::new()
                .str_field("metric", &i.metric)
                .f64_field("base", i.base)
                .f64_field("current", i.current)
                .f64_field("delta_pct", i.delta_pct)
                .raw_field("gated", if i.gated { "true" } else { "false" })
                .raw_field(
                    "regressed",
                    if i.regressed(report.gates.max_regress_pct) {
                        "true"
                    } else {
                        "false"
                    },
                )
                .finish(),
        );
    }
    let mut out = JsonObject::new()
        .str_field("type", "nessa-bench-pipeline")
        .raw_field("passed", if report.passed() { "true" } else { "false" })
        .f64_field("max_regress_pct", report.gates.max_regress_pct)
        .raw_field(
            "gate_wall",
            if report.gates.gate_wall {
                "true"
            } else {
                "false"
            },
        )
        .raw_field("baseline", &base.to_json())
        .raw_field("current", &current.to_json())
        .raw_field("diffs", &format!("[{}]", diffs.join(",")))
        .finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::{SpanRecord, SpanTree};

    fn trace_with_epoch_sims(sims: &[f64]) -> RunTrace {
        let mut spans = Vec::new();
        let mut id = 1u64;
        for (epoch, &sim) in sims.iter().enumerate() {
            let parent = id;
            spans.push(SpanRecord {
                id: parent,
                parent: None,
                name: "epoch".into(),
                attrs: vec![("epoch".into(), (epoch as u64).into())],
                start_secs: epoch as f64,
                wall_secs: 0.5,
                sim_secs: sim,
            });
            id += 1;
            for (name, frac) in [("select", 0.6), ("train", 0.0)] {
                spans.push(SpanRecord {
                    id,
                    parent: Some(parent),
                    name: name.into(),
                    attrs: vec![("epoch".into(), (epoch as u64).into())],
                    start_secs: epoch as f64,
                    wall_secs: 0.2,
                    sim_secs: sim * frac,
                });
                id += 1;
            }
        }
        let mut trace = RunTrace {
            tree: SpanTree::build(spans),
            ..RunTrace::default()
        };
        trace.counters.insert("train.batches".into(), 40);
        trace
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let q = Quantiles::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.p95, 5.0);
        assert_eq!(q.p99, 5.0);
        assert_eq!(Quantiles::from_values(&[]), Quantiles::default());
    }

    #[test]
    fn summary_json_round_trips() {
        let summary = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.2, 0.9]));
        let json = summary.to_json();
        let back = RunSummary::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn identical_runs_pass() {
        let s = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.1]));
        let report = diff_runs(&s, &s, DiffGates::default());
        assert!(report.passed());
        assert!(report.regressions().is_empty());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0, 1.0]));
        // 50 % slower epochs: way past the 10 % default tolerance.
        let slow = RunSummary::from_trace(&trace_with_epoch_sims(&[1.5, 1.5, 1.5]));
        let report = diff_runs(&base, &slow, DiffGates::default());
        assert!(!report.passed());
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|i| i.metric.as_str())
            .collect();
        assert!(names.contains(&"epoch.total_sim_s"), "{names:?}");
        assert!(names.contains(&"phase.select.sim_p95"), "{names:?}");
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn improvements_and_tolerated_noise_pass() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0]));
        let faster = RunSummary::from_trace(&trace_with_epoch_sims(&[0.5, 0.5]));
        assert!(diff_runs(&base, &faster, DiffGates::default()).passed());
        let slightly_slower = RunSummary::from_trace(&trace_with_epoch_sims(&[1.05, 1.05]));
        assert!(diff_runs(&base, &slightly_slower, DiffGates::default()).passed());
    }

    #[test]
    fn wall_gating_is_opt_in() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0]));
        let mut cur = base.clone();
        cur.total_wall_s *= 10.0;
        assert!(diff_runs(&base, &cur, DiffGates::default()).passed());
        let gates = DiffGates {
            gate_wall: true,
            ..DiffGates::default()
        };
        assert!(!diff_runs(&base, &cur, gates).passed());
    }

    #[test]
    fn sim_cost_leaving_a_zero_baseline_fails_the_gate() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0]));
        // The fixture's `train` phase costs 0 sim seconds.
        assert_eq!(base.phase_sim["train"].total, 0.0);
        let mut cur = base.clone();
        cur.phase_sim.insert(
            "train".into(),
            PhaseSummary {
                total: 5.0,
                quantiles: Quantiles {
                    p50: 5.0,
                    p95: 5.0,
                    p99: 5.0,
                },
            },
        );
        let report = diff_runs(&base, &cur, DiffGates::default());
        assert!(!report.passed());
        let item = report
            .items
            .iter()
            .find(|i| i.metric == "phase.train.sim_total")
            .unwrap();
        assert!(item.gated);
        assert_eq!(item.delta_pct, f64::INFINITY);
        // A zero that stays zero is no change.
        assert!(diff_runs(&base, &base, DiffGates::default()).passed());
        // Wall items stay ungated, from a zero baseline too.
        let mut wall_base = base.clone();
        wall_base.phase_wall.get_mut("train").unwrap().total = 0.0;
        assert!(diff_runs(&wall_base, &base, DiffGates::default()).passed());
    }

    #[test]
    fn bench_artifact_is_valid_json_with_verdict() {
        let base = RunSummary::from_trace(&trace_with_epoch_sims(&[1.0, 1.0]));
        let cur = RunSummary::from_trace(&trace_with_epoch_sims(&[2.0, 2.0]));
        let report = diff_runs(&base, &cur, DiffGates::default());
        let artifact = bench_artifact(&base, &cur, &report);
        let v = JsonValue::parse(&artifact).unwrap();
        assert_eq!(
            v.get("type").unwrap().as_str(),
            Some("nessa-bench-pipeline")
        );
        assert_eq!(v.get("passed"), Some(&JsonValue::Bool(false)));
        assert!(v.get("diffs").unwrap().as_arr().unwrap().len() > 5);
        let back = RunSummary::from_json(v.get("current").unwrap()).unwrap();
        assert_eq!(back, cur);
    }
}
