//! Multi-SmartSSD scaling (the paper's stated future work: "extending
//! this work for larger datasets and models scaling over multiple
//! SmartSSDs and GPUs").
//!
//! A [`SsdCluster`] shards a dataset across several drives. Each drive is
//! charged scan and kernel time for its shard, but the selection itself
//! runs once, centrally, over the whole pool; each drive then ships its
//! share of the chosen subset over the interconnect. Drives operate in
//! parallel, so the wall-clock of a phase is the slowest drive's time;
//! bytes and energy are summed.
//!
//! Drives can fail: every phase returns a typed [`ClusterError`]
//! identifying the drive at fault, and a dead drive can be evicted with
//! [`SsdCluster::evict_drive`] — the shard layout rebalances over the
//! survivors and the retired drive's traffic/energy history is kept.

use crate::device::{SmartSsd, SmartSsdConfig, TrafficStats};
use crate::fault::{DeviceError, FaultPlan};
use crate::fpga::KernelProfile;

/// A device error attributed to one drive of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterError {
    /// Index of the failing drive (into the live drives at call time).
    pub drive: usize,
    /// What went wrong on that drive.
    pub error: DeviceError,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "drive {}: {}", self.drive, self.error)
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A fleet of identical SmartSSDs holding one dataset in shards.
#[derive(Debug, Clone)]
pub struct SsdCluster {
    drives: Vec<SmartSsd>,
    /// Drives evicted after a dropout; kept for traffic/energy history.
    retired: Vec<SmartSsd>,
    /// Wall-clock seconds (parallel phases take the max across drives).
    elapsed_s: f64,
    /// Simulated seconds of device work that ran concurrently with GPU
    /// training and were therefore hidden from the end-to-end critical
    /// path (overlapped pipelining).
    hidden_s: f64,
}

impl SsdCluster {
    /// Creates a cluster of `n` drives with the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: SmartSsdConfig) -> Self {
        assert!(n > 0, "a cluster needs at least one drive");
        Self {
            drives: (0..n).map(|_| SmartSsd::new(config)).collect(),
            retired: Vec::new(),
            elapsed_s: 0.0,
            hidden_s: 0.0,
        }
    }

    /// Number of live drives.
    pub fn len(&self) -> usize {
        self.drives.len()
    }

    /// True when every drive has been evicted (a fresh cluster has ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.drives.is_empty()
    }

    /// Number of drives evicted so far.
    pub fn evicted(&self) -> usize {
        self.retired.len()
    }

    /// The live drives.
    pub fn drives(&self) -> &[SmartSsd] {
        &self.drives
    }

    /// The evicted drives (traffic/energy history preserved).
    pub fn retired_drives(&self) -> &[SmartSsd] {
        &self.retired
    }

    /// Arms a fault schedule on live drive `drive`. Ignored when the
    /// index is out of range.
    pub fn inject_faults(&mut self, drive: usize, plan: FaultPlan) {
        if let Some(d) = self.drives.get_mut(drive) {
            d.inject_faults(plan);
        }
    }

    /// Total faults injected across live and retired drives.
    pub fn faults_injected(&self) -> u64 {
        self.drives
            .iter()
            .chain(&self.retired)
            .map(SmartSsd::faults_injected)
            .sum()
    }

    /// Drains the corrupt-record counts from every drive.
    pub fn take_quarantined(&mut self) -> u64 {
        self.drives
            .iter_mut()
            .chain(self.retired.iter_mut())
            .map(SmartSsd::take_quarantined)
            .sum()
    }

    /// Retires live drive `drive` (after a dropout); the shard layout
    /// rebalances over the survivors on the next phase. Returns false
    /// when the index is out of range.
    pub fn evict_drive(&mut self, drive: usize) -> bool {
        if drive >= self.drives.len() {
            return false;
        }
        let dead = self.drives.remove(drive);
        self.retired.push(dead);
        true
    }

    /// Charges `secs` of idle backoff to every live drive and to the
    /// cluster wall-clock — how the pipeline accounts a retry wait.
    pub fn stall_all(&mut self, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        for d in &mut self.drives {
            d.stall_for(secs);
        }
        self.elapsed_s += secs;
    }

    /// Wall-clock seconds elapsed across all phases so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_s
    }

    /// Marks `secs` of already-charged device time as hidden under
    /// concurrent GPU training (the overlapped pipeline calls this once
    /// per pipelined round with `min(round_secs, train_secs)`). Clamped
    /// so the hidden total never exceeds the elapsed total.
    pub fn note_overlap_hidden(&mut self, secs: f64) {
        if secs > 0.0 {
            self.hidden_s = (self.hidden_s + secs).min(self.elapsed_s);
        }
    }

    /// Device seconds hidden under concurrent training so far.
    pub fn hidden_secs(&self) -> f64 {
        self.hidden_s
    }

    /// Device seconds exposed on the end-to-end critical path: elapsed
    /// minus hidden (never negative).
    pub fn exposed_secs(&self) -> f64 {
        (self.elapsed_s - self.hidden_s).max(0.0)
    }

    /// Aggregated traffic over all drives, retired ones included.
    pub fn traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for d in self.drives.iter().chain(&self.retired) {
            let t = d.traffic();
            total.ssd_to_fpga += t.ssd_to_fpga;
            total.fpga_to_host += t.fpga_to_host;
            total.host_to_fpga += t.host_to_fpga;
            total.staged_to_host += t.staged_to_host;
        }
        total
    }

    /// Total energy in joules over all drives, retired ones included.
    pub fn energy_joules(&self) -> f64 {
        self.drives
            .iter()
            .chain(&self.retired)
            .map(|d| d.energy().total_joules())
            .sum()
    }

    /// Shards `records` as evenly as possible across the live drives
    /// (first shards get the remainder). After an eviction the same call
    /// re-balances over the survivors.
    pub fn shard_counts(&self, records: u64) -> Vec<u64> {
        let n = self.drives.len() as u64;
        if n == 0 {
            return Vec::new();
        }
        let base = records / n;
        let rem = records % n;
        (0..n).map(|i| base + u64::from(i < rem)).collect()
    }

    /// Reports the phase outcome: any [`DeviceError::Offline`] takes
    /// precedence (so callers evict before burning retry budget), then
    /// the first other error; elapsed time is charged only on success.
    fn finish_phase(
        &mut self,
        results: Vec<Result<f64, DeviceError>>,
        combine: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, ClusterError> {
        let mut first_err: Option<ClusterError> = None;
        for (drive, r) in results.iter().enumerate() {
            match r {
                Err(DeviceError::Offline) => {
                    return Err(ClusterError {
                        drive,
                        error: DeviceError::Offline,
                    })
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(ClusterError { drive, error: *e });
                    }
                }
                Ok(_) => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let t = results.into_iter().flatten().fold(0.0f64, combine);
        self.elapsed_s += t;
        Ok(t)
    }

    /// Phase: every drive scans its shard flash → FPGA in parallel.
    /// Returns the phase's wall-clock seconds (slowest drive).
    ///
    /// # Errors
    ///
    /// Returns the failing drive's error ([`DeviceError::Offline`] takes
    /// precedence so the caller can evict). No wall-clock is charged on
    /// failure; a retry re-runs the whole phase.
    pub fn parallel_scan(&mut self, records: u64, record_bytes: u64) -> Result<f64, ClusterError> {
        let shards = self.shard_counts(records);
        let results = self
            .drives
            .iter_mut()
            .zip(&shards)
            .map(|(d, &r)| d.read_records_to_fpga(r, record_bytes))
            .collect();
        self.finish_phase(results, f64::max)
    }

    /// Phase: every drive runs the selection kernel on its shard
    /// (the profile's `samples` is the *total*; each drive gets its
    /// share). Returns wall-clock seconds.
    ///
    /// # Errors
    ///
    /// Returns the failing drive's error: a
    /// [`KernelError`](crate::KernelError) if the chunk does not fit or an
    /// armed kernel abort fired, [`DeviceError::Offline`] (with
    /// precedence) after a dropout.
    pub fn parallel_select(&mut self, profile: &KernelProfile) -> Result<f64, ClusterError> {
        let shards = self.shard_counts(profile.samples);
        let results = self
            .drives
            .iter_mut()
            .zip(&shards)
            .map(|(d, &samples)| {
                let local = KernelProfile {
                    samples,
                    ..*profile
                };
                d.run_selection(&local)
            })
            .collect();
        self.finish_phase(results, f64::max)
    }

    /// Phase: every drive ships its share of the `records` selected
    /// subset to the host, sharing the host link — transfer times add.
    /// Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns the failing drive's error ([`DeviceError::Offline`] takes
    /// precedence). No wall-clock is charged on failure.
    pub fn gather_selections(
        &mut self,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, ClusterError> {
        let shards = self.shard_counts(records);
        let results = self
            .drives
            .iter_mut()
            .zip(&shards)
            .map(|(d, &r)| d.send_subset_to_host(r, record_bytes))
            .collect();
        self.finish_phase(results, |a, b| a + b)
    }

    /// Phase: every drive streams its share of `records` through the
    /// conventional storage → host path (the degraded mode when the P2P
    /// or kernel path is out), sharing the host link — times add.
    /// Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns the failing drive's error ([`DeviceError::Offline`] takes
    /// precedence). No wall-clock is charged on failure.
    pub fn conventional_read_to_host(
        &mut self,
        records: u64,
        record_bytes: u64,
    ) -> Result<f64, ClusterError> {
        let shards = self.shard_counts(records);
        let results = self
            .drives
            .iter_mut()
            .zip(&shards)
            .map(|(d, &r)| d.conventional_read_to_host(r, record_bytes))
            .collect();
        self.finish_phase(results, |a, b| a + b)
    }

    /// Phase: broadcast the quantized-weight feedback to every drive
    /// (shared host link; times add). Returns the phase's seconds.
    ///
    /// # Errors
    ///
    /// Returns the failing drive's error ([`DeviceError::Offline`] takes
    /// precedence). No wall-clock is charged on failure.
    pub fn broadcast_feedback(&mut self, bytes: u64) -> Result<f64, ClusterError> {
        let results = self
            .drives
            .iter_mut()
            .map(|d| d.receive_feedback(bytes))
            .collect();
        self.finish_phase(results, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile {
            samples: 100_000,
            forward_macs_per_sample: 640,
            proxy_dim: 10,
            chunk: 457,
            k_per_chunk: 128,
        }
    }

    #[test]
    fn shards_are_balanced() {
        let c = SsdCluster::new(4, SmartSsdConfig::default());
        assert_eq!(c.shard_counts(10), vec![3, 3, 2, 2]);
        assert_eq!(c.shard_counts(8), vec![2, 2, 2, 2]);
        let total: u64 = c.shard_counts(101).iter().sum();
        assert_eq!(total, 101);
    }

    #[test]
    fn scan_scales_near_linearly() {
        let mut one = SsdCluster::new(1, SmartSsdConfig::default());
        let mut four = SsdCluster::new(4, SmartSsdConfig::default());
        let t1 = one.parallel_scan(100_000, 3000).unwrap();
        let t4 = four.parallel_scan(100_000, 3000).unwrap();
        let speedup = t1 / t4;
        assert!(
            (3.0..4.5).contains(&speedup),
            "4-drive scan speedup {speedup}"
        );
    }

    #[test]
    fn select_scales_near_linearly() {
        let mut one = SsdCluster::new(1, SmartSsdConfig::default());
        let mut four = SsdCluster::new(4, SmartSsdConfig::default());
        let t1 = one.parallel_select(&profile()).unwrap();
        let t4 = four.parallel_select(&profile()).unwrap();
        assert!(t1 / t4 > 3.0, "select speedup {}", t1 / t4);
    }

    #[test]
    fn gather_and_feedback_share_the_link() {
        let mut c = SsdCluster::new(3, SmartSsdConfig::default());
        let tg = c.gather_selections(3000, 3000).unwrap();
        let tf = c.broadcast_feedback(100_000).unwrap();
        assert!(tg > 0.0 && tf > 0.0);
        let t = c.traffic();
        assert_eq!(t.fpga_to_host, 3 * 1000 * 3000);
        assert_eq!(t.host_to_fpga, 3 * 100_000);
        assert!((c.elapsed_secs() - (tg + tf)).abs() < 1e-12);
    }

    #[test]
    fn energy_sums_over_drives() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        c.parallel_scan(10_000, 3000).unwrap();
        assert!(c.energy_joules() > 0.0);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one drive")]
    fn rejects_empty_cluster() {
        let _ = SsdCluster::new(0, SmartSsdConfig::default());
    }

    #[test]
    fn hidden_seconds_clamp_to_elapsed() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        assert_eq!(c.hidden_secs(), 0.0);
        assert_eq!(c.exposed_secs(), 0.0);
        let t = c.parallel_scan(10_000, 3000).unwrap();
        // Hiding more time than elapsed clamps: the device cannot hide
        // work it never did.
        c.note_overlap_hidden(t * 10.0);
        assert!((c.hidden_secs() - c.elapsed_secs()).abs() < 1e-12);
        assert_eq!(c.exposed_secs(), 0.0);
        // Negative / zero notes are ignored.
        c.note_overlap_hidden(-1.0);
        c.note_overlap_hidden(0.0);
        assert!((c.hidden_secs() - c.elapsed_secs()).abs() < 1e-12);
    }

    #[test]
    fn hidden_seconds_accumulate_and_expose_remainder() {
        let mut c = SsdCluster::new(1, SmartSsdConfig::default());
        let t = c.parallel_scan(50_000, 3000).unwrap();
        c.note_overlap_hidden(t / 4.0);
        c.note_overlap_hidden(t / 4.0);
        assert!((c.hidden_secs() - t / 2.0).abs() < 1e-12);
        assert!((c.exposed_secs() - t / 2.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_rebalances_shards_to_full_count() {
        let mut c = SsdCluster::new(4, SmartSsdConfig::default());
        assert!(c.evict_drive(1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.evicted(), 1);
        let shards = c.shard_counts(10);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().sum::<u64>(), 10);
        assert!(!c.evict_drive(3), "index past the live set");
    }

    #[test]
    fn offline_drive_fails_the_phase_and_eviction_recovers() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        c.inject_faults(1, FaultPlan::none().with_dropout_after(0));
        let err = c.parallel_scan(1000, 3000).unwrap_err();
        assert_eq!(err.drive, 1);
        assert_eq!(err.error, DeviceError::Offline);
        assert_eq!(c.elapsed_secs(), 0.0, "failed phases charge no time");
        assert!(c.evict_drive(err.drive));
        let t = c.parallel_scan(1000, 3000).unwrap();
        assert!(t > 0.0);
        assert_eq!(c.faults_injected(), 1);
    }

    #[test]
    fn offline_takes_precedence_over_transient_errors() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        c.inject_faults(0, FaultPlan::none().with_read_error(0, 5));
        c.inject_faults(1, FaultPlan::none().with_dropout_after(0));
        let err = c.parallel_scan(1000, 3000).unwrap_err();
        assert_eq!(err.error, DeviceError::Offline, "evictable error first");
        assert_eq!(err.drive, 1);
    }

    #[test]
    fn retired_drive_history_is_kept() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        c.parallel_scan(1000, 3000).unwrap();
        let before = c.traffic().ssd_to_fpga;
        let energy_before = c.energy_joules();
        c.evict_drive(0);
        assert_eq!(c.traffic().ssd_to_fpga, before);
        assert!((c.energy_joules() - energy_before).abs() < 1e-12);
        assert_eq!(c.retired_drives().len(), 1);
        assert_eq!(c.drives().len(), 1);
    }

    #[test]
    fn stall_all_charges_every_drive_and_the_wall_clock() {
        let mut c = SsdCluster::new(2, SmartSsdConfig::default());
        c.stall_all(0.5);
        assert!((c.elapsed_secs() - 0.5).abs() < 1e-12);
        for d in c.drives() {
            assert!((d.elapsed_secs() - 0.5).abs() < 1e-12);
        }
    }
}
