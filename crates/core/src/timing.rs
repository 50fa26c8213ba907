//! Paper-scale epoch-time composition (Figure 4, §4.3, §4.4).
//!
//! The accuracy experiments run at reproduction scale, but the timing
//! claims depend only on the *full-scale* workload parameters: training-set
//! sizes, per-image bytes, model FLOPs, link bandwidths, and where the
//! selection runs. This module charges one epoch of each policy from those
//! parameters:
//!
//! * **Goal** — full dataset through the conventional loader + GPU epoch,
//! * **NeSSA** — P2P pool scan + FPGA kernel + subset transfer + GPU epoch
//!   on the subset + quantized feedback,
//! * **CRAIG (CPU)** / **K-Centers (CPU)** — full dataset to the host,
//!   selection on the CPU, GPU epoch on the subset,
//! * **Random** — the subset alone to the host, GPU epoch on it.
//!
//! Every function returns an [`EpochRecord`] with `select_secs`,
//! `io_secs` and `train_secs` filled, and the epoch total is
//! [`EpochRecord::total_secs`] — the same composition the pipeline's
//! reports use. The CPU baselines take the subset size they train, so
//! [`crate::policy`] charges its runs through these functions at the run's
//! own [`Workload`] scale and the size of each epoch's actual selection;
//! paper-scale callers pass [`Workload::subset`].
//!
//! The FPGA kernel is priced as a *low-operational-intensity* pass —
//! proxy-head update, chunked similarities, greedy sweep — per the paper's
//! own suitability argument (§2.2, citing \[33\]): a workload only belongs
//! near storage if it spends few cycles per byte. See DESIGN.md §2 for the
//! substitution note.

use crate::report::{EpochRecord, OverlapRecord};
use nessa_data::{DatasetSpec, PaperModel};
use nessa_nn::cost::{epoch_time, DeviceSpec, LoaderSpec};
use nessa_nn::flops::ArchSpec;
use nessa_smartssd::fpga::KernelProfile;
use nessa_smartssd::{DeviceError, SmartSsd, SmartSsdConfig};

/// Sustained CPU throughput for the irregular similarity/greedy selection
/// workloads of the CPU baselines (bytes-bound, cache-unfriendly), in
/// FLOP/s.
pub const CPU_SELECT_FLOPS: f64 = 6.0e9;

/// Workload parameters one epoch is charged from: a Table-1 dataset at
/// paper scale ([`Workload::from_spec`]) or a reproduction run at its own
/// scale (built field by field).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Training-set size.
    pub samples: u64,
    /// Stored bytes per sample.
    pub bytes_per_sample: u64,
    /// Forward FLOPs per sample of the trained model.
    pub forward_flops: u64,
    /// Penultimate-layer width of that model (proxy-head input).
    pub feature_dim: usize,
    /// Class count.
    pub classes: usize,
}

impl Workload {
    /// Builds the workload for a Table-1 dataset.
    pub fn from_spec(spec: &DatasetSpec) -> Self {
        let (arch, feature_dim): (ArchSpec, usize) = match spec.model {
            PaperModel::ResNet20 => (ArchSpec::resnet20(spec.image_hw, spec.classes), 64),
            PaperModel::ResNet18 => (ArchSpec::resnet18(spec.image_hw, spec.classes), 512),
            PaperModel::ResNet50 => (ArchSpec::resnet50(spec.image_hw, spec.classes), 2048),
            PaperModel::SmallCnn => (
                ArchSpec {
                    name: "smallcnn".into(),
                    convs: vec![],
                    fc: (800, spec.classes),
                },
                32,
            ),
        };
        Self {
            samples: spec.train_size as u64,
            bytes_per_sample: spec.bytes_per_image as u64,
            forward_flops: arch.forward_flops().max(2_000_000),
            feature_dim,
            classes: spec.classes,
        }
    }

    /// The paper-scale subset size at `fraction`, rounded as the
    /// selectors round it ([`nessa_select::fraction_count`]): CIFAR-10's
    /// 50 000 samples at 28 % are 14 000, not the 14 001 a bare
    /// `⌈samples · fraction⌉` gives through float error.
    pub fn subset(&self, fraction: f64) -> u64 {
        nessa_select::fraction_count(self.samples as usize, fraction as f32) as u64
    }
}

/// Deterministic GPU seconds to train `samples` already-resident samples
/// of a model with `forward_flops` per sample (forward + backward ≈ 3×
/// the forward cost). The pipeline charges its `train` phase with this
/// too.
pub fn gpu_train_secs(gpu: &DeviceSpec, samples: u64, forward_flops: u64) -> f64 {
    epoch_time(
        gpu,
        &LoaderSpec::smartssd_p2p(),
        samples,
        3 * forward_flops,
        0,
    )
    .compute_s
}

/// One host-side epoch: `loaded` samples through the conventional
/// loader, `select_flops` of CPU selection, then a GPU epoch on
/// `trained` of them.
fn host_epoch(
    w: &Workload,
    gpu: &DeviceSpec,
    loaded: u64,
    select_flops: f64,
    trained: u64,
) -> EpochRecord {
    let host = LoaderSpec::conventional_host();
    EpochRecord {
        subset_size: trained as usize,
        pool_size: w.samples as usize,
        select_secs: select_flops / CPU_SELECT_FLOPS,
        io_secs: epoch_time(gpu, &host, loaded, 0, w.bytes_per_sample).io_s,
        train_secs: gpu_train_secs(gpu, trained, w.forward_flops),
        ..EpochRecord::default()
    }
}

/// Epoch time for full-data training (the paper's "All Data"/"Goal" bar).
pub fn goal_epoch(w: &Workload, gpu: &DeviceSpec) -> EpochRecord {
    host_epoch(w, gpu, w.samples, 0.0, w.samples)
}

/// Epoch time for uniform random selection of `subset` samples: only the
/// drawn subset is loaded through the host, and nothing is computed to
/// pick it.
pub fn random_cpu_epoch(w: &Workload, gpu: &DeviceSpec, subset: u64) -> EpochRecord {
    host_epoch(w, gpu, subset, 0.0, subset)
}

/// Epoch time for NeSSA at a subset fraction, sequential or with the
/// overlapped schedule (§3, Figure 3).
///
/// One pass of the [`SmartSsd`] simulator charges the near-storage
/// phases — P2P pool scan, FPGA kernel, subset shipment, quantized
/// feedback — and the GPU cost model charges subset training. With
/// `overlap` the same phases are recomposed: scan + kernel + ship form the
/// selection side that runs under training, and only the feedback
/// broadcast serializes as the hand-off. The epoch-0 prologue round
/// (which cannot overlap with anything) is excluded: this is the
/// per-epoch cost once the pipeline is primed.
pub fn nessa_epoch(w: &Workload, gpu: &DeviceSpec, fraction: f64, overlap: bool) -> EpochRecord {
    let mut dev = SmartSsd::new(SmartSsdConfig::default());
    let subset = w.subset(fraction);
    // Selection kernel: proxy-head update + similarities + greedy.
    let chunk = KernelProfile::max_chunk_for(&dev.config().fpga, w.classes)
        .min((128.0 / fraction).ceil() as usize)
        .max(2);
    let profile = KernelProfile {
        samples: w.samples,
        forward_macs_per_sample: (w.feature_dim * w.classes) as u64,
        proxy_dim: w.classes,
        chunk,
        k_per_chunk: 128,
    };
    // Quantized feedback: int8 model weights (≈¼ of f32 size).
    let params_bytes = (estimate_params(w) / 4).max(1);
    // One pass in pipeline order: P2P pool scan, kernel, subset to the
    // GPU, feedback.
    let pass = (|| -> Result<_, DeviceError> {
        Ok((
            dev.read_records_to_fpga(w.samples, w.bytes_per_sample)?,
            dev.run_selection(&profile)?,
            dev.send_subset_to_host(subset, w.bytes_per_sample)?,
            dev.receive_feedback(params_bytes)?,
        ))
    })();
    // nessa-lint: allow(p1-panic) — no fault plan is armed on this
    // throwaway device and `max_chunk_for` sized the chunk to fit on-chip
    // memory, so the pass cannot fail; a Result here would force every
    // timing-table caller to thread an impossible error.
    let (scan_s, kernel_s, ship_s, feedback_s) = pass.expect("fault-free device, chunk fits");
    EpochRecord {
        subset_size: subset as usize,
        pool_size: w.samples as usize,
        select_secs: kernel_s,
        io_secs: scan_s + ship_s + feedback_s,
        // The GPU trains the subset the ship phase already delivered.
        train_secs: gpu_train_secs(gpu, subset, w.forward_flops),
        overlap: overlap.then(|| OverlapRecord {
            select_side_secs: kernel_s + (scan_s + ship_s),
            handoff_secs: feedback_s,
            staleness: 1,
            ..OverlapRecord::default()
        }),
        ..EpochRecord::default()
    }
}

/// Epoch time for CPU CRAIG selecting `subset` samples: full dataset to
/// the host, per-class similarity + lazy greedy on proxies, subset
/// training.
pub fn craig_cpu_epoch(w: &Workload, gpu: &DeviceSpec, subset: u64) -> EpochRecord {
    // Per-class pairwise similarities over `classes`-dim proxies:
    // classes × (n/classes)² × proxy_dim × 2 FLOPs, plus the greedy sweep.
    let per_class = w.samples as f64 / w.classes as f64;
    let sim_flops = w.classes as f64 * per_class * per_class * w.classes as f64 * 2.0;
    let greedy_flops = w.classes as f64 * per_class * per_class * 4.0;
    host_epoch(w, gpu, w.samples, sim_flops + greedy_flops, subset)
}

/// Epoch time for CPU K-Centers selecting `k` centers: farthest-first over
/// the model's penultimate features (as Sener & Savarese), which is both
/// higher-dimensional and k-pass sequential.
pub fn kcenters_cpu_epoch(w: &Workload, gpu: &DeviceSpec, k: u64) -> EpochRecord {
    // Incremental farthest-first: k passes × n × feature_dim × 3 FLOPs.
    // Scanning over embeddings also re-reads n × feature_dim × 4 bytes per
    // pass; both terms charge the CPU.
    let flops = k as f64 * w.samples as f64 * w.feature_dim as f64 * 3.0;
    host_epoch(w, gpu, w.samples, flops, k)
}

fn estimate_params(w: &Workload) -> u64 {
    // Rough parameter counts (bytes at f32) of the paper's models by
    // penultimate width: ResNet-20 ≈ 0.27 M, ResNet-18 ≈ 11 M,
    // ResNet-50 ≈ 25.6 M.
    let params: u64 = match w.feature_dim {
        64 => 270_000,
        512 => 11_200_000,
        2048 => 25_600_000,
        _ => 100_000,
    };
    params * 4
}

/// §4.4's headline number: the average factor by which NeSSA reduces
/// drive-host interconnect traffic vs. staging the full dataset, across
/// the Table-1 datasets at their Table-2 subset percentages.
pub fn mean_data_movement_reduction(specs: &[DatasetSpec]) -> f64 {
    let mut total = 0.0;
    let mut count = 0;
    for spec in specs {
        let Some(paper) = spec.paper else { continue };
        let w = Workload::from_spec(spec);
        let full_bytes = w.samples as f64 * w.bytes_per_sample as f64;
        let subset_bytes = w.subset(paper.subset_pct as f64 / 100.0) as f64
            * w.bytes_per_sample as f64
            + estimate_params(&w) as f64 / 4.0;
        total += full_bytes / subset_bytes;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cifar() -> Workload {
        Workload::from_spec(&DatasetSpec::by_name("CIFAR-10").unwrap())
    }

    #[test]
    fn nessa_epoch_is_several_times_faster_than_goal() {
        let gpu = DeviceSpec::v100();
        let w = cifar();
        let goal = goal_epoch(&w, &gpu).total_secs();
        let nessa = nessa_epoch(&w, &gpu, 0.28, false).total_secs();
        let speedup = goal / nessa;
        assert!(
            (3.0..8.0).contains(&speedup),
            "per-epoch speedup {speedup} (goal {goal}s, nessa {nessa}s)"
        );
    }

    #[test]
    fn policy_ordering_matches_figure4() {
        // Figure 4 (CIFAR-10): NeSSA < CRAIG < Goal < K-Centers.
        let gpu = DeviceSpec::v100();
        let w = cifar();
        let nessa = nessa_epoch(&w, &gpu, 0.3, false).total_secs();
        let craig = craig_cpu_epoch(&w, &gpu, w.subset(0.3)).total_secs();
        let goal = goal_epoch(&w, &gpu).total_secs();
        let kc = kcenters_cpu_epoch(&w, &gpu, w.subset(0.3)).total_secs();
        assert!(nessa < craig, "nessa {nessa} !< craig {craig}");
        assert!(craig < goal, "craig {craig} !< goal {goal}");
        assert!(goal < kc, "goal {goal} !< kcenters {kc}");
    }

    #[test]
    fn random_loads_only_its_subset() {
        let gpu = DeviceSpec::v100();
        let w = cifar();
        let random = random_cpu_epoch(&w, &gpu, w.subset(0.3));
        let goal = goal_epoch(&w, &gpu);
        assert_eq!(random.select_secs, 0.0, "random picks cost nothing");
        assert_eq!(random.subset_size as u64, w.subset(0.3));
        assert!(random.io_secs > 0.0 && random.io_secs < 0.31 * goal.io_secs);
        assert!(random.total_secs() < craig_cpu_epoch(&w, &gpu, w.subset(0.3)).total_secs());
    }

    #[test]
    fn selection_is_minor_share_of_nessa_epoch() {
        let gpu = DeviceSpec::v100();
        let t = nessa_epoch(&cifar(), &gpu, 0.3, false);
        assert!(
            t.select_secs < 0.4 * t.total_secs(),
            "selection {}s of {}s",
            t.select_secs,
            t.total_secs()
        );
    }

    #[test]
    fn movement_reduction_near_paper_3_47x() {
        let r = mean_data_movement_reduction(&DatasetSpec::table1());
        assert!((2.8..4.5).contains(&r), "data-movement reduction {r}");
    }

    #[test]
    fn workloads_built_for_all_table1_datasets() {
        for spec in DatasetSpec::table1() {
            let w = Workload::from_spec(&spec);
            assert!(w.forward_flops > 1_000_000, "{}", spec.name);
            assert_eq!(w.samples, spec.train_size as u64);
        }
    }

    #[test]
    fn overlapped_epoch_beats_sequential_and_composes_as_max() {
        let gpu = DeviceSpec::v100();
        let w = cifar();
        let seq = nessa_epoch(&w, &gpu, 0.3, false);
        let ovl = nessa_epoch(&w, &gpu, 0.3, true);
        let o = ovl.overlap.clone().expect("overlapped record");
        // Both views come from one device pass: same phases, same subset.
        assert_eq!(
            (seq.select_secs, seq.io_secs, seq.train_secs),
            (ovl.select_secs, ovl.io_secs, ovl.train_secs)
        );
        // The decomposition covers the same work…
        assert!(
            (seq.total_secs() - (o.select_side_secs + ovl.train_secs + o.handoff_secs)).abs()
                < 1e-9 * seq.total_secs(),
            "overlap sides must repartition the sequential epoch"
        );
        // …composed as max + handoff, so the overlapped epoch is
        // strictly cheaper and hides exactly min(select, train).
        assert!(
            (ovl.total_secs() - (o.select_side_secs.max(ovl.train_secs) + o.handoff_secs)).abs()
                < 1e-12
        );
        assert!(ovl.total_secs() < seq.total_secs());
        let hidden = o.select_side_secs.min(ovl.train_secs);
        assert!(
            (seq.total_secs() - ovl.total_secs() - hidden).abs() < 1e-9 * seq.total_secs(),
            "savings must equal the hidden side"
        );
    }

    #[test]
    fn subset_rounds_like_the_selectors() {
        let w = cifar();
        assert_eq!(w.subset(0.28), 14_000);
        assert_eq!(w.subset(28.0 / 100.0), 14_000);
        assert_eq!(w.subset(0.3), 15_000);
        assert_eq!(w.subset(1e-9), 1);
        assert_eq!(w.subset(1.0), 50_000);
    }

    #[test]
    fn timing_totals_add_up() {
        let gpu = DeviceSpec::v100();
        let t = goal_epoch(&cifar(), &gpu);
        assert!((t.total_secs() - (t.io_secs + t.select_secs + t.train_secs)).abs() < 1e-12);
    }
}
