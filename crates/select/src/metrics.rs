//! Selection-kernel instrumentation handles.
//!
//! [`SelectMetrics`] bundles the telemetry handles the greedy maximizers
//! and the per-class CRAIG driver update while they run: round/evaluation
//! counters, a marginal-gain histogram, and class/chunk progress counters.
//! Handles are `Arc`-backed clones into a [`nessa_telemetry::Telemetry`]
//! registry, so they are cheap to clone into worker threads and safe to
//! update concurrently. Their totals do not depend on the order of the
//! updates (the histogram sums integer nanounits, and min/max commute),
//! so per-class worker threads leave the same totals as one thread.

use nessa_telemetry::{Counter, Histogram, Telemetry};

/// Metric names used by [`SelectMetrics::from_telemetry`].
pub mod names {
    /// Greedy rounds (one per selected medoid).
    pub const ROUNDS: &str = "select.greedy_rounds";
    /// Marginal-gain evaluations (the dominant kernel cost).
    pub const GAIN_EVALS: &str = "select.gain_evals";
    /// Histogram of the winning marginal gain at each pick.
    pub const MARGINAL_GAIN: &str = "select.marginal_gain";
    /// Non-empty classes processed.
    pub const CLASSES: &str = "select.classes";
    /// Partition chunks processed (equals classes when partitioning is
    /// off).
    pub const CHUNKS: &str = "select.chunks";
}

/// Telemetry handles updated by the selection kernel.
#[derive(Debug, Clone, Default)]
pub struct SelectMetrics {
    /// Greedy rounds executed (one per pick).
    pub rounds: Counter,
    /// Marginal-gain evaluations performed.
    pub gain_evals: Counter,
    /// Winning marginal gain observed at each pick.
    pub marginal_gain: Histogram,
    /// Non-empty classes processed.
    pub classes: Counter,
    /// Partition chunks processed.
    pub chunks: Counter,
}

impl SelectMetrics {
    /// Handles registered under the `select.*` names in `telemetry`'s
    /// metrics registry (detached no-op handles when telemetry is
    /// disabled).
    pub fn from_telemetry(telemetry: &Telemetry) -> Self {
        Self {
            rounds: telemetry.counter(names::ROUNDS),
            gain_evals: telemetry.counter(names::GAIN_EVALS),
            marginal_gain: telemetry.histogram(names::MARGINAL_GAIN),
            classes: telemetry.counter(names::CLASSES),
            chunks: telemetry.counter(names::CHUNKS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::TelemetrySettings;

    #[test]
    fn detached_handles_work() {
        let m = SelectMetrics::default();
        m.rounds.inc();
        m.marginal_gain.observe(0.5);
        assert_eq!(m.rounds.get(), 1);
    }

    #[test]
    fn registered_handles_feed_the_registry() {
        let t = Telemetry::new(&TelemetrySettings::memory());
        let m = SelectMetrics::from_telemetry(&t);
        m.gain_evals.add(7);
        let snap = t.metrics_snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == names::GAIN_EVALS && *v == 7));
    }
}
