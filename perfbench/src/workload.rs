//! The benchmark's workloads and how one run of each is set up.
//!
//! Every input is made from the workload seed: the synthetic data, the
//! initial weights and (on `faulty_cluster`) the per-drive fault plans.
//! The program under test only ever sees those generated inputs.

use nessa_core::{NessaConfig, NessaPipeline};
use nessa_data::{Dataset, SynthConfig};
use nessa_nn::models::{mlp, Network};
use nessa_smartssd::{FaultPlan, FaultSpec};
use nessa_telemetry::TelemetrySettings;
use nessa_tensor::rng::Rng64;
use std::time::Instant;

/// One fixed benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Training samples (test samples are fixed at [`TEST_SAMPLES`]).
    pub train: usize,
    /// MLP layer widths, input first.
    pub layers: &'static [usize],
    pub batch: usize,
    pub fraction: f32,
    pub epochs: usize,
    /// Base learning rate; `None` keeps the paper's 0.1.
    pub base_lr: Option<f32>,
    pub overlap: bool,
    pub drives: usize,
    /// Arm a seeded fault plan on every drive.
    pub faults: bool,
}

const TEST_SAMPLES: usize = 1000;

/// Lowest final test accuracy a correct run may report, on every
/// workload: five times chance, so it trips only when training is broken.
/// Typical runs reach 0.85–0.95; the lowest seen is 0.677
/// (`wide_model_overlap`, input seed 3061, see README).
pub const ACC_FLOOR: f32 = 0.5;

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "select_heavy",
        train: 8000,
        layers: &[32, 96, 10],
        batch: 32,
        fraction: 0.3,
        epochs: 20,
        base_lr: None,
        overlap: false,
        drives: 1,
        faults: false,
    },
    Workload {
        name: "wide_model_overlap",
        train: 3000,
        layers: &[32, 256, 256, 16, 10],
        batch: 16,
        fraction: 0.7,
        epochs: 10,
        base_lr: Some(0.005),
        overlap: true,
        drives: 1,
        faults: false,
    },
    Workload {
        name: "faulty_cluster",
        train: 4000,
        layers: &[32, 96, 10],
        batch: 32,
        fraction: 0.3,
        epochs: 20,
        base_lr: None,
        overlap: false,
        drives: 4,
        faults: true,
    },
];

/// Per-op fault rates of the seeded plan every drive of `faulty_cluster`
/// carries: single transient read errors and kernel aborts (each absorbed
/// by one retry) and corrupt records (quarantined). PCIe stalls are left
/// out: their seeded lengths would move `sim_epoch_s` from seed to seed
/// by more than any bound could allow.
const FAULT_SPEC: FaultSpec = FaultSpec {
    horizon_ops: 64,
    read_error_rate: 0.05,
    read_error_burst: 1,
    kernel_abort_rate: 0.02,
    kernel_abort_burst: 1,
    stall_rate: 0.0,
    stall_secs: (0.0, 0.0),
    corrupt_rate: 0.05,
    corrupt_records: 5,
    dropout_probability: 0.0,
};

/// Kernel launch at which one drive starts failing as many times in a row
/// as the retry policy allows (epoch 2).
const ABORT_AT_KERNEL_OP: u64 = 2;
/// Completed operations after which another drive drops out (about epoch
/// 9 of 20; a drive completes four operations per epoch). Kept well apart
/// from the kernel aborts: an eviction re-runs the phase without using a
/// retry, which would let the abort burst run out before the host rung.
const DROPOUT_AFTER_OPS: u64 = 36;

/// Host wall seconds of one set-up.
pub struct SetupTimes {
    /// `SynthConfig::generate` alone.
    pub generate_s: f64,
    /// Generate + model build + `NessaPipeline::new`.
    pub total_s: f64,
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig {
            name: self.name.to_string(),
            classes: 10,
            train: self.train,
            test: TEST_SAMPLES,
            dim: 32,
            cluster_std: 1.0,
            class_sep: 1.0,
            seed,
            ..SynthConfig::default()
        }
    }

    /// Two structurally identical networks (target, selector) drawn from
    /// the seed.
    pub fn models(&self, seed: u64) -> (Network, Network) {
        let mut rng = Rng64::new(seed.wrapping_add(1));
        (mlp(self.layers, &mut rng), mlp(self.layers, &mut rng))
    }

    /// A network of the workload's shape, for probes that load weights
    /// into it.
    pub fn blank_model(&self) -> Network {
        mlp(self.layers, &mut Rng64::new(0))
    }

    pub fn config(&self, seed: u64, overlap: bool, telemetry: TelemetrySettings) -> NessaConfig {
        let mut cfg = NessaConfig::new(self.fraction, self.epochs)
            .with_batch_size(self.batch)
            .with_seed(seed)
            .with_drives(self.drives)
            .with_overlap(overlap)
            .with_telemetry(telemetry);
        if let Some(lr) = self.base_lr {
            cfg = cfg.with_base_lr(lr);
        }
        if self.faults {
            for (drive, plan) in self.fault_plans(seed) {
                cfg = cfg.with_fault_plan(drive, plan);
            }
        }
        cfg
    }

    /// One `FaultPlan::seeded` per drive, plus two events on seed-chosen
    /// drives that make every seed exercise the whole ladder: one drive
    /// drops out mid-run (eviction + rebalance), and a different drive
    /// aborts its kernel as many times in a row as the retry policy
    /// allows (host fallback). Their timing is fixed, so seeds differ in
    /// which drives fail and in the transient faults, not in how much of
    /// the run degrades.
    fn fault_plans(&self, seed: u64) -> Vec<(usize, FaultPlan)> {
        let mut rng = Rng64::new(seed ^ 0x6e65_7373_615f_6661);
        let victim = rng.index(self.drives);
        let aborter = (victim + 1 + rng.index(self.drives - 1)) % self.drives;
        let retries = nessa_core::RetryPolicy::default().max_attempts;
        (0..self.drives)
            .map(|d| {
                let mut plan = FaultPlan::seeded(rng.next_u64(), &FAULT_SPEC);
                if d == victim {
                    plan = plan.with_dropout_after(DROPOUT_AFTER_OPS);
                }
                if d == aborter {
                    plan = plan.with_kernel_abort(ABORT_AT_KERNEL_OP, retries);
                }
                (d, plan)
            })
            .collect()
    }

    /// Builds the pipeline for one run and times the set-up.
    pub fn setup(
        &self,
        seed: u64,
        overlap: bool,
        telemetry: TelemetrySettings,
    ) -> (NessaPipeline, SetupTimes) {
        let started = Instant::now();
        let (train, test) = self.data(seed);
        let generate_s = started.elapsed().as_secs_f64();
        let (target, selector) = self.models(seed);
        let pipeline = NessaPipeline::new(
            self.config(seed, overlap, telemetry),
            target,
            selector,
            train,
            test,
        );
        let total_s = started.elapsed().as_secs_f64();
        (
            pipeline,
            SetupTimes {
                generate_s,
                total_s,
            },
        )
    }

    /// The generated (train, test) datasets.
    pub fn data(&self, seed: u64) -> (Dataset, Dataset) {
        self.synth(seed).generate()
    }
}
