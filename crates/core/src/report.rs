//! Run reports: per-epoch records plus device-level summaries.

use nessa_smartssd::TrafficStats;
use std::fmt;

/// Overlapped-pipelining bookkeeping for one epoch (present only when
/// [`crate::NessaConfig::overlap`] is on).
///
/// Under overlap the epoch's device work (the selection round for the
/// *next* epoch) runs concurrently with GPU training, so the epoch's cost
/// is not a sum: it is
/// `sync_secs + max(select_side_secs, train_secs) + handoff_secs`.
/// Every field lives on the simulated clock — `train_secs` comes from the
/// deterministic GPU cost model (`nessa_nn::cost::epoch_time`), never the
/// host wall clock — so overlapped runs stay byte-reproducible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverlapRecord {
    /// Selection seconds paid synchronously *before* training could start
    /// (the epoch-0 prologue round).
    pub sync_secs: f64,
    /// Device seconds of the selection round overlapped with this epoch's
    /// training (scan + kernel + subset shipment for epoch *e + 1*).
    pub select_side_secs: f64,
    /// Deterministic GPU seconds for this epoch's training, from the cost
    /// model.
    pub train_secs: f64,
    /// Hand-off seconds serializing the two sides at the epoch boundary
    /// (quantized-weight feedback broadcast).
    pub handoff_secs: f64,
    /// Feedback age (in epochs) used by the selection round overlapped
    /// with this epoch: 1 for a pipelined round, 0 for a synchronous one.
    pub staleness: usize,
}

/// One epoch's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Learning rate used.
    pub lr: f32,
    /// Samples trained on this epoch.
    pub subset_size: usize,
    /// Active candidate-pool size (after subset biasing).
    pub pool_size: usize,
    /// Weighted mean training loss.
    pub train_loss: f32,
    /// Test accuracy (fraction in `[0, 1]`).
    pub test_acc: f32,
    /// Simulated seconds the selection kernel ran this epoch.
    pub select_secs: f64,
    /// Simulated seconds of data movement this epoch (flash reads, subset
    /// transfer, feedback).
    pub io_secs: f64,
    /// Overlapped-pipelining bookkeeping; `None` for the sequential schedule
    /// (keeping its JSONL byte-identical to earlier releases).
    pub overlap: Option<OverlapRecord>,
}

impl EpochRecord {
    /// Total simulated seconds for the epoch: selection + I/O for the
    /// sequential schedule, `sync + max(select_side, train) + handoff` when
    /// the epoch ran overlapped.
    pub fn total_secs(&self) -> f64 {
        match &self.overlap {
            Some(o) => o.sync_secs + o.select_side_secs.max(o.train_secs) + o.handoff_secs,
            None => self.select_secs + self.io_secs,
        }
    }
}

/// A full training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Policy/run label (e.g. `"nessa"`, `"goal"`, `"craig"`).
    pub name: String,
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Device traffic at the end of the run (zero for CPU-only policies).
    pub traffic: TrafficStats,
    /// Simulated device energy in joules (zero for CPU-only policies).
    pub device_energy_j: f64,
    /// Training-set size the run started from.
    pub train_size: usize,
}

impl RunReport {
    /// Final-epoch test accuracy (`0.0` for an empty run).
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.test_acc).unwrap_or(0.0)
    }

    /// Best test accuracy across epochs.
    pub fn best_accuracy(&self) -> f32 {
        self.epochs.iter().map(|e| e.test_acc).fold(0.0, f32::max)
    }

    /// Mean subset size as a percentage of the training set.
    pub fn mean_subset_pct(&self) -> f32 {
        if self.epochs.is_empty() || self.train_size == 0 {
            return 0.0;
        }
        let mean: f64 = self
            .epochs
            .iter()
            .map(|e| e.subset_size as f64)
            .sum::<f64>()
            / self.epochs.len() as f64;
        (100.0 * mean / self.train_size as f64) as f32
    }

    /// Final subset size as a percentage of the training set.
    pub fn final_subset_pct(&self) -> f32 {
        match (self.epochs.last(), self.train_size) {
            (Some(e), n) if n > 0 => 100.0 * e.subset_size as f32 / n as f32,
            _ => 0.0,
        }
    }

    /// Test-accuracy series over epochs (the Figure 5 curve).
    pub fn accuracy_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.test_acc).collect()
    }

    /// First epoch reaching `target` test accuracy, if any (convergence
    /// speed, §4.3).
    pub fn epochs_to_accuracy(&self, target: f32) -> Option<usize> {
        self.epochs
            .iter()
            .find(|e| e.test_acc >= target)
            .map(|e| e.epoch)
    }

    /// Total simulated selection + I/O seconds across the run.
    pub fn device_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.select_secs + e.io_secs).sum()
    }

    /// JSONL rendering: one `{"type":"epoch",...}` object per epoch
    /// followed by one `{"type":"run",...}` summary line. Numbers use
    /// shortest-round-trip formatting, so the simulated timings re-parse
    /// exactly.
    pub fn to_jsonl(&self) -> String {
        use nessa_telemetry::json::JsonObject;
        let mut out = String::new();
        for e in &self.epochs {
            let mut obj = JsonObject::new()
                .str_field("type", "epoch")
                .u64_field("epoch", e.epoch as u64)
                .f64_field("lr", e.lr as f64)
                .u64_field("subset_size", e.subset_size as u64)
                .u64_field("pool_size", e.pool_size as u64)
                .f64_field("train_loss", e.train_loss as f64)
                .f64_field("test_acc", e.test_acc as f64)
                .f64_field("select_s", e.select_secs)
                .f64_field("io_s", e.io_secs)
                .f64_field("total_s", e.total_secs());
            // Overlap fields are appended only when the epoch ran under
            // the overlapped scheduler, so sequential output stays
            // byte-identical across releases.
            if let Some(o) = &e.overlap {
                obj = obj
                    .f64_field("sync_s", o.sync_secs)
                    .f64_field("select_side_s", o.select_side_secs)
                    .f64_field("train_s", o.train_secs)
                    .f64_field("handoff_s", o.handoff_secs)
                    .u64_field("staleness", o.staleness as u64);
            }
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out.push_str(
            &JsonObject::new()
                .str_field("type", "run")
                .str_field("name", &self.name)
                .u64_field("train_size", self.train_size as u64)
                .u64_field("epochs", self.epochs.len() as u64)
                .f64_field("final_acc", self.final_accuracy() as f64)
                .f64_field("best_acc", self.best_accuracy() as f64)
                .f64_field("mean_subset_pct", self.mean_subset_pct() as f64)
                .f64_field("device_secs", self.device_secs())
                .f64_field("device_energy_j", self.device_energy_j)
                .u64_field("ssd_to_fpga_bytes", self.traffic.ssd_to_fpga)
                .u64_field("fpga_to_host_bytes", self.traffic.fpga_to_host)
                .u64_field("host_to_fpga_bytes", self.traffic.host_to_fpga)
                .finish(),
        );
        out.push('\n');
        out
    }

    /// CSV rendering (`epoch,lr,subset,pool,loss,acc,select_s,io_s`).
    pub fn to_csv(&self) -> String {
        let mut s =
            String::from("epoch,lr,subset_size,pool_size,train_loss,test_acc,select_s,io_s\n");
        for e in &self.epochs {
            s.push_str(&format!(
                "{},{},{},{},{:.6},{:.4},{:.6},{:.6}\n",
                e.epoch,
                e.lr,
                e.subset_size,
                e.pool_size,
                e.train_loss,
                e.test_acc,
                e.select_secs,
                e.io_secs
            ));
        }
        s
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} epochs, final acc {:.2}%, best {:.2}%, mean subset {:.1}%",
            self.name,
            self.epochs.len(),
            100.0 * self.final_accuracy(),
            100.0 * self.best_accuracy(),
            self.mean_subset_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            name: "test".into(),
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    lr: 0.1,
                    subset_size: 30,
                    pool_size: 100,
                    train_loss: 2.0,
                    test_acc: 0.4,
                    select_secs: 0.1,
                    io_secs: 0.2,
                    overlap: None,
                },
                EpochRecord {
                    epoch: 1,
                    lr: 0.1,
                    subset_size: 20,
                    pool_size: 90,
                    train_loss: 1.0,
                    test_acc: 0.7,
                    select_secs: 0.1,
                    io_secs: 0.2,
                    overlap: None,
                },
            ],
            traffic: TrafficStats::default(),
            device_energy_j: 1.5,
            train_size: 100,
        }
    }

    #[test]
    fn accuracy_accessors() {
        let r = sample_report();
        assert_eq!(r.final_accuracy(), 0.7);
        assert_eq!(r.best_accuracy(), 0.7);
        assert_eq!(r.accuracy_curve(), vec![0.4, 0.7]);
        assert_eq!(r.epochs_to_accuracy(0.5), Some(1));
        assert_eq!(r.epochs_to_accuracy(0.9), None);
    }

    #[test]
    fn subset_percentages() {
        let r = sample_report();
        assert!((r.mean_subset_pct() - 25.0).abs() < 1e-4);
        assert!((r.final_subset_pct() - 20.0).abs() < 1e-4);
    }

    #[test]
    fn device_seconds_sum() {
        let r = sample_report();
        assert!((r.device_secs() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_report().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("epoch,"));
    }

    #[test]
    fn epoch_total_secs_sums_phases() {
        let r = sample_report();
        assert!((r.epochs[0].total_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_epoch_and_run_lines() {
        use nessa_telemetry::JsonValue;
        let jsonl = sample_report().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let first = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(JsonValue::as_str), Some("epoch"));
        // Shortest-round-trip formatting preserves the exact f64 sum.
        assert_eq!(
            first.get("total_s").and_then(JsonValue::as_f64),
            Some(0.1 + 0.2)
        );
        let run = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(run.get("type").and_then(JsonValue::as_str), Some("run"));
        assert_eq!(run.get("name").and_then(JsonValue::as_str), Some("test"));
        let device_secs = run.get("device_secs").and_then(JsonValue::as_f64).unwrap();
        assert!((device_secs - 0.6).abs() < 1e-12, "{device_secs}");
    }

    #[test]
    fn overlapped_epoch_total_is_max_plus_handoff() {
        let mut r = sample_report();
        r.epochs[1].overlap = Some(OverlapRecord {
            sync_secs: 0.05,
            select_side_secs: 0.3,
            train_secs: 0.7,
            handoff_secs: 0.02,
            staleness: 1,
        });
        // Training dominates: total = 0.05 + max(0.3, 0.7) + 0.02.
        assert!((r.epochs[1].total_secs() - 0.77).abs() < 1e-12);
        // Selection dominates once it outruns training.
        r.epochs[1].overlap.as_mut().unwrap().select_side_secs = 0.9;
        assert!((r.epochs[1].total_secs() - 0.97).abs() < 1e-12);
        // The sequential epoch is untouched.
        assert!((r.epochs[0].total_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn jsonl_overlap_fields_only_when_present() {
        use nessa_telemetry::JsonValue;
        let plain = sample_report().to_jsonl();
        assert!(
            !plain.contains("select_side_s"),
            "sequential lines stay as-is"
        );
        let mut r = sample_report();
        r.epochs[0].overlap = Some(OverlapRecord {
            sync_secs: 0.0,
            select_side_secs: 0.25,
            train_secs: 0.5,
            handoff_secs: 0.01,
            staleness: 1,
        });
        let jsonl = r.to_jsonl();
        let first = JsonValue::parse(jsonl.lines().next().unwrap()).unwrap();
        let num = |key: &str| first.get(key).and_then(JsonValue::as_f64);
        assert_eq!(num("select_side_s"), Some(0.25));
        assert_eq!(num("train_s"), Some(0.5));
        assert_eq!(num("handoff_s"), Some(0.01));
        assert_eq!(num("staleness"), Some(1.0));
        assert_eq!(num("total_s"), Some(0.51));
        let second = jsonl.lines().nth(1).unwrap();
        assert!(!second.contains("select_side_s"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.mean_subset_pct(), 0.0);
        assert_eq!(r.final_subset_pct(), 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(format!("{}", sample_report()).contains("test"));
    }
}
