//! The NeSSA near-storage training pipeline (paper §3, Figure 3).
//!
//! The device path can fail (see [`nessa_smartssd::fault`]); every
//! storage phase runs under the degradation ladder of [`crate::retry`]:
//! transient faults are retried with sim-clock backoff, dead drives are
//! evicted and the shards rebalance, a dead kernel path degrades to a
//! staged host read + host-side selection, and if even that is out the
//! round falls back to seeded random selection. Every rung is surfaced
//! through the [`HealthMonitor`] fault counters, and `recover` is the one
//! place a device failure becomes a [`PipelineError`].
//!
//! # One epoch loop, two schedules
//!
//! [`NessaPipeline::run`] drives every epoch through one loop. The
//! sequential schedule (the default) selects, then trains. With
//! [`NessaConfig::overlap`] the same loop runs the paper's
//! double-buffered schedule: while the GPU trains epoch *e* on subset
//! S\_e, a worker thread drives the SmartSSD through the selection round
//! for S\_{e+1} (scan → kernel → ship) using the quantized weights fed
//! back after epoch *e−1* — one epoch stale (§3.2.1). The two sides
//! serialize only at the epoch boundary, where the main thread joins the
//! worker (`overlap.wait`) and broadcasts fresh feedback
//! (`overlap.handoff`). Epoch 0 selects S\_0 synchronously (the prologue
//! round). The schedules differ in four places only: the RNG stream a
//! round draws from, the feedback span's name, the concurrent worker
//! round, and whether the epoch record carries an [`OverlapRecord`].
//!
//! Determinism is preserved by construction: under overlap one RNG
//! stream per epoch's round is split off the master seed before anything
//! else draws, so the worker's randomness never races the trainer's, and
//! the device sees the same op order (round *k* is always the *k*-th
//! scan/select/ship) regardless of thread scheduling. Training is
//! charged in both schedules: the `train` span carries the epoch's
//! cost-model GPU seconds, and the epoch span is charged
//! [`EpochRecord::total_secs`] — `sync + max(select_side, train) +
//! handoff`, which sequentially is `select + io + train` — so the trace
//! and the report cannot disagree; wall-clock overlap is measured from
//! the real concurrent span intervals by `nessa-trace`.
//!
//! # Host parallelism
//!
//! [`NessaPipeline::run`] reads `available_parallelism()` once. Every
//! synchronous round (each sequential round and the overlapped
//! prologue) runs its proxy forward and its per-class facility location
//! on that many threads: the forward is split at batch boundaries
//! ([`crate::proxy::gradient_proxies_on`]) and the classes draw from
//! pre-split RNG streams ([`CraigOptions::workers`]), so the picks are
//! bit-identical at any thread count. The overlapped worker round runs
//! on one thread, because the trainer holds the other core while it
//! runs (DESIGN.md §7, "Host parallelism").

use crate::biasing::LossTracker;
use crate::config::NessaConfig;
use crate::error::PipelineError;
use crate::health::HealthMonitor;
use crate::proxy::gradient_proxies_on;
use crate::report::{EpochRecord, OverlapRecord, RunReport};
use crate::retry::RetryPolicy;
use crate::sizing::SubsetSizer;
use crate::timing::gpu_train_secs;
use crate::trainer::{evaluate, train_epoch, TrainMetrics};
use nessa_data::Dataset;
use nessa_nn::cost::DeviceSpec;
use nessa_nn::models::Network;
use nessa_nn::optim::{MultiStepLr, Sgd, SgdConfig};
use nessa_quant::QuantizedModel;
use nessa_select::craig::{select_per_class_factored, CraigOptions};
use nessa_select::{random, SelectError, SelectMetrics, Selection};
use nessa_smartssd::fpga::KernelProfile;
use nessa_smartssd::{ClusterError, DeviceError, SmartSsdConfig, SsdCluster};
use nessa_telemetry::{DeviceEvent, Telemetry};
use nessa_tensor::rng::Rng64;
use std::num::NonZeroUsize;

/// Loss-history window for subset biasing (paper §3.2.2: the most recent
/// five epochs).
const LOSS_WINDOW: usize = 5;

/// Subset biasing never shrinks the pool below this fraction of the
/// training set.
const MIN_POOL_FRACTION: f32 = 0.4;

/// Exponent applied to the CRAIG medoid weights before training
/// (`w ← w^γ`). Raw cluster sizes (`γ = 1`) concentrate the weight on a
/// few medoids, which destabilizes SGD on small subsets of
/// highly-redundant data; `γ = 0.5` tempers that.
const MEDOID_WEIGHT_EXPONENT: f32 = 0.5;

/// Multiplicative shrink applied to the subset fraction each time dynamic
/// sizing sees the loss plateau.
const SUBSET_SHRINK_FACTOR: f32 = 0.9;

/// Shared, read-only context one selection round needs besides the
/// device and the selector network. Everything here is thread-shareable
/// so the overlapped schedule can run a round on a worker thread while
/// the main thread trains.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    cfg: &'a NessaConfig,
    health: &'a HealthMonitor,
    telemetry: &'a Telemetry,
    select_metrics: &'a SelectMetrics,
    train: &'a Dataset,
    /// Host threads the round's proxy forward and per-class facility
    /// location run on (module docs, "Host parallelism").
    threads: usize,
}

/// Runs one cluster phase under the retry policy. Offline drives are
/// evicted on the spot (the shard layout rebalances; no retry budget is
/// consumed — eviction is repair, not retry); transient faults charge a
/// deterministic backoff to every surviving drive's simulated clock and
/// try again. Anything else surfaces as a [`PipelineError`]; an emptied
/// cluster always surfaces as [`PipelineError::AllDrivesLost`].
fn recover<T>(
    ctx: &RoundCtx<'_>,
    cluster: &mut SsdCluster,
    epoch: usize,
    mut op: impl FnMut(&mut SsdCluster) -> Result<T, ClusterError>,
) -> Result<T, PipelineError> {
    let retry = RetryPolicy::default();
    let mut attempts = 1u32;
    loop {
        let e = match op(cluster) {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        if matches!(e.error, DeviceError::Offline) {
            if cluster.evict_drive(e.drive) {
                ctx.health.note_drive_evicted();
            }
            if !cluster.is_empty() {
                continue;
            }
        } else if e.error.is_transient() && attempts < retry.max_attempts {
            let backoff = retry.backoff_secs(attempts - 1);
            let mut span = ctx
                .telemetry
                .span("retry")
                .with_attr("epoch", epoch)
                .with_attr("attempt", attempts)
                .with_attr("drive", e.drive);
            span.add_sim_secs(backoff);
            cluster.stall_all(backoff);
            ctx.health.note_retry();
            attempts += 1;
            continue;
        }
        return Err(if cluster.is_empty() {
            PipelineError::AllDrivesLost {
                evicted: cluster.evicted(),
            }
        } else {
            e.into()
        });
    }
}

/// What one selection round produced: the chosen subset plus the
/// simulated seconds it charged (kernel vs. I/O split).
struct RoundOutcome {
    selection: Selection,
    select_secs: f64,
    io_secs: f64,
}

/// One full selection round for the subset first used at `epoch`:
/// scan the candidate pool flash → FPGA, quarantine corrupt records,
/// run the quantized forward + facility-location kernel (with the full
/// degradation ladder), and ship the subset to the GPU.
///
/// The round draws only from `rng`; the caller decides whether that is
/// the run's master stream (sequential schedule) or the epoch's
/// pre-split stream (overlapped schedule).
fn selection_round(
    ctx: &RoundCtx<'_>,
    device: &mut SsdCluster,
    selector: &Network,
    epoch: usize,
    mut pool: Vec<usize>,
    fraction: f32,
    rng: &mut Rng64,
) -> Result<RoundOutcome, PipelineError> {
    let cfg = ctx.cfg;
    let mut io_secs = 0.0;
    let record_bytes = ctx.train.bytes_per_sample() as u64;
    // Set when the P2P/kernel path is out and the pool was staged to the
    // host instead; selection math then runs host-side and the ship
    // phase is free.
    let mut on_host = false;
    // (1) Stream the candidate pool from flash to the FPGA.
    let scanned = {
        let mut scan = ctx
            .telemetry
            .span("scan")
            .with_attr("epoch", epoch)
            .with_attr("records", pool.len());
        let r = recover(ctx, device, epoch, |c| {
            c.parallel_scan(pool.len() as u64, record_bytes)
        });
        if let Ok(secs) = &r {
            scan.add_sim_secs(*secs);
        }
        r
    };
    match scanned {
        Ok(secs) => io_secs += secs,
        Err(e @ PipelineError::AllDrivesLost { .. }) => return Err(e),
        Err(_) => {
            // P2P path out beyond recovery: degrade to the conventional
            // staged read through the host. If that fails too there is
            // no path left to the data at all.
            on_host = true;
            ctx.health.note_fallback_host();
            let mut fb = ctx
                .telemetry
                .span("fallback")
                .with_attr("epoch", epoch)
                .with_attr("rung", "host");
            let secs = recover(ctx, device, epoch, |c| {
                c.conventional_read_to_host(pool.len() as u64, record_bytes)
            })?;
            fb.add_sim_secs(secs);
            io_secs += secs;
        }
    }
    // Corrupt records detected during the scan cannot join the candidate
    // pool: count them and drop that many (chosen from the round's RNG
    // stream; the simulation does not track which physical records a
    // plan corrupted), keeping at least one.
    let bad = device.take_quarantined();
    if bad > 0 {
        ctx.health.note_quarantined(bad);
        let drop_n = (bad as usize).min(pool.len().saturating_sub(1));
        if drop_n > 0 {
            let mut keep = vec![true; pool.len()];
            for i in rng.sample_indices(pool.len(), drop_n) {
                keep[i] = false;
            }
            pool = pool
                .iter()
                .zip(&keep)
                .filter_map(|(&i, &k)| k.then_some(i))
                .collect();
        }
    }
    // (2) Quantized forward pass → last-layer gradient proxies
    // (outer-product space, compared via the factored distance so
    // nothing of size classes × features is materialized).
    let mut select_span = ctx
        .telemetry
        .span("select")
        .with_attr("epoch", epoch)
        .with_attr("pool", pool.len());
    let proxies = gradient_proxies_on(selector, ctx.train, &pool, cfg.batch_size, ctx.threads);
    let feature_dim = proxies.features.dim(1);
    let pool_labels: Vec<usize> = pool.iter().map(|&i| ctx.train.label(i)).collect();
    let chunk = cfg.partitioning.then(|| cfg.partition_chunk(fraction));
    let opts = CraigOptions {
        variant: cfg.greedy,
        partition_chunk: chunk,
        metrics: Some(ctx.select_metrics.clone()),
        workers: ctx.threads,
    };
    // Charge the kernel's simulated time.
    // The kernel compares outer-product gradients through the
    // ‖a‖²‖b‖² − 2(a·a')(b·b') factorization, so its per-pair cost
    // scales with classes + feature_dim, not the product.
    let profile = KernelProfile {
        samples: pool.len() as u64,
        forward_macs_per_sample: selector.flops_per_sample() / 2,
        proxy_dim: ctx.train.classes() + feature_dim,
        chunk: chunk.unwrap_or_else(|| {
            // Without partitioning the kernel tiles at the largest class
            // size.
            pool_labels
                .iter()
                .fold(vec![0usize; ctx.train.classes()], |mut acc, &y| {
                    acc[y] += 1;
                    acc
                })
                .into_iter()
                .max()
                .unwrap_or(1)
        }),
        k_per_chunk: cfg.batch_size,
    };
    let mut kernel_secs = 0.0;
    // Set when even the staged host read is out: the pool is still
    // resident on the FPGA from the scan, so the round degrades to
    // seeded random picks shipped the normal way.
    let mut force_random = false;
    if !on_host {
        match recover(ctx, device, epoch, |c| c.parallel_select(&profile)) {
            Ok(secs) => kernel_secs = secs,
            // A lost cluster ends the run, and a chunk that does not fit
            // is a config problem, not a fault to degrade around.
            Err(e) if !matches!(&e, PipelineError::Drive { error, .. } if error.is_transient()) => {
                return Err(e)
            }
            Err(_) => {
                // Kernel path out beyond recovery: stage the pool to the
                // host and select there.
                ctx.health.note_fallback_host();
                let mut fb = ctx
                    .telemetry
                    .span("fallback")
                    .with_attr("epoch", epoch)
                    .with_attr("rung", "host");
                match recover(ctx, device, epoch, |c| {
                    c.conventional_read_to_host(pool.len() as u64, record_bytes)
                }) {
                    Ok(secs) => {
                        on_host = true;
                        fb.add_sim_secs(secs);
                        io_secs += secs;
                    }
                    Err(e @ PipelineError::AllDrivesLost { .. }) => return Err(e),
                    Err(_) => force_random = true,
                }
            }
        }
    }
    // (3) The selection math: facility location when any compute path is
    // available (device and host produce the same picks — the simulation
    // models time, not arithmetic), seeded random picks as the last
    // rung.
    let maybe = if force_random {
        None
    } else {
        match select_per_class_factored(
            &proxies.residuals,
            &proxies.features,
            &pool_labels,
            ctx.train.classes(),
            fraction,
            &opts,
            rng,
        ) {
            Ok(local) => Some(local),
            // An internal invariant breach is a selector bug; degrade
            // the round rather than lose the run.
            Err(SelectError::Internal(_)) => None,
            Err(e) => return Err(e.into()),
        }
    };
    let local = match maybe {
        Some(mut local) => {
            for w in &mut local.weights {
                *w = w.powf(MEDOID_WEIGHT_EXPONENT);
            }
            local
        }
        None => {
            ctx.health.note_fallback_random();
            let mut fb = ctx
                .telemetry
                .span("fallback")
                .with_attr("epoch", epoch)
                .with_attr("rung", "random");
            let sel = random::select_per_class(&pool_labels, ctx.train.classes(), fraction, rng)?;
            fb.set_attr("subset", sel.len());
            sel
        }
    };
    let selection = local.into_global(&pool);
    select_span.add_sim_secs(kernel_secs);
    select_span.set_attr("subset", selection.len());
    select_span.finish();
    // (4) Ship the subset to the GPU. When the round already staged the
    // pool to the host, the subset is there — no further transfer.
    let mut ship = ctx
        .telemetry
        .span("ship")
        .with_attr("epoch", epoch)
        .with_attr("records", selection.len());
    if !on_host {
        let secs = recover(ctx, device, epoch, |c| {
            c.gather_selections(selection.len() as u64, record_bytes)
        })?;
        ship.add_sim_secs(secs);
        io_secs += secs;
    }
    ship.finish();
    Ok(RoundOutcome {
        selection,
        select_secs: kernel_secs,
        io_secs,
    })
}

/// The assembled SmartSSD+GPU training loop.
///
/// The pipeline owns the **target model** (trained on the GPU side), the
/// **selector model** (the structurally-identical network whose weights
/// live on the FPGA as int8), the simulated [`SsdCluster`]
/// ([`NessaConfig::drives`] drives; one by default), and the train / test
/// datasets.
///
/// Each epoch follows the paper's five steps: P2P-read the candidate pool
/// to the FPGA, run the selection kernel (quantized forward → gradient
/// proxies → per-class, chunk-partitioned facility location), ship the
/// subset to the GPU, train, and feed quantized weights back. Subset
/// biasing prunes the pool every [`NessaConfig::biasing_drop_every`]
/// epochs; dynamic sizing shrinks the subset fraction when the loss
/// plateaus. With [`NessaConfig::overlap`] the selection round for the
/// *next* epoch runs concurrently with training (see the module docs).
pub struct NessaPipeline {
    config: NessaConfig,
    target: Network,
    selector: Network,
    train: Dataset,
    test: Dataset,
    device: SsdCluster,
    telemetry: Telemetry,
    history: Vec<(usize, Vec<usize>)>,
}

impl NessaPipeline {
    /// Creates a pipeline.
    ///
    /// `target` and `selector` must be structurally identical networks
    /// (the selector is the FPGA-side copy refreshed by the feedback
    /// loop).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different parameter structures or
    /// the datasets disagree on feature dimension / class count.
    pub fn new(
        config: NessaConfig,
        mut target: Network,
        mut selector: Network,
        train: Dataset,
        test: Dataset,
    ) -> Self {
        let t_shapes: Vec<_> = target
            .export_weights()
            .iter()
            .map(|w| w.shape().dims().to_vec())
            .collect();
        let s_shapes: Vec<_> = selector
            .export_weights()
            .iter()
            .map(|w| w.shape().dims().to_vec())
            .collect();
        assert_eq!(
            t_shapes, s_shapes,
            "target and selector must share structure"
        );
        assert_eq!(train.dim(), test.dim(), "train/test feature dims differ");
        assert_eq!(train.classes(), test.classes(), "train/test classes differ");
        let telemetry = Telemetry::new(&config.telemetry);
        let mut device = SsdCluster::new(config.drives.max(1), SmartSsdConfig::default());
        for (drive, plan) in &config.fault_plans {
            device.inject_faults(*drive, plan.clone());
        }
        Self {
            config,
            target,
            selector,
            train,
            test,
            device,
            telemetry,
            history: Vec::new(),
        }
    }

    /// Runs the full training loop and returns the report.
    ///
    /// One loop serves both schedules (module docs): the sequential one
    /// selects then trains every epoch on one thread; with
    /// [`NessaConfig::overlap`] a worker thread selects the next epoch's
    /// subset while this one trains.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] if [`NessaConfig::validate`] rejects the
    /// configuration (checked before anything runs),
    /// [`PipelineError::Select`] if the selection kernel rejects its
    /// inputs, [`PipelineError::Kernel`] if a selection chunk exceeds the
    /// FPGA's on-chip memory (enable partitioning or shrink the chunk),
    /// [`PipelineError::Drive`] for a device fault the degradation ladder
    /// could not absorb, and [`PipelineError::AllDrivesLost`] once every
    /// drive has been evicted.
    pub fn run(&mut self) -> Result<RunReport, PipelineError> {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.run_on(threads)
    }

    /// [`NessaPipeline::run`] with its synchronous selection rounds on
    /// `threads` host threads. The report does not depend on `threads`.
    fn run_on(&mut self, threads: usize) -> Result<RunReport, PipelineError> {
        self.config.validate().map_err(PipelineError::Config)?;
        self.history.clear();
        let cfg = self.config.clone();
        let n = self.train.len();
        let mut master = Rng64::new(cfg.seed);
        // Overlap pre-splits one selection stream per epoch *before* any
        // other draw: the worker's randomness is fixed at run start, so
        // the subsets it picks cannot depend on how the two threads
        // interleave (or on the trainer's draws from the master).
        // Sequential rounds draw from the master stream itself.
        let mut streams: Vec<Rng64> = if cfg.overlap {
            (0..cfg.epochs).map(|_| master.split()).collect()
        } else {
            Vec::new()
        };
        let mut opt = Sgd::new(SgdConfig::default());
        let schedule = MultiStepLr::paper_schedule(cfg.epochs).with_base_lr(cfg.base_lr);
        let mut tracker = LossTracker::new(
            n,
            LOSS_WINDOW,
            cfg.biasing_drop_every,
            cfg.biasing_drop_fraction,
            ((n as f32) * MIN_POOL_FRACTION) as usize,
        );
        let mut sizer = SubsetSizer::new(
            cfg.subset_fraction,
            cfg.sizing_threshold,
            SUBSET_SHRINK_FACTOR,
            cfg.sizing_min_fraction.min(cfg.subset_fraction),
        );
        let pool_of = |tracker: &LossTracker| -> Vec<usize> {
            if cfg.subset_biasing {
                tracker.active_pool().to_vec()
            } else {
                (0..n).collect()
            }
        };
        // Initialize the FPGA's selector with a quantized snapshot of the
        // (randomly initialized) target, as the system would at deployment.
        QuantizedModel::from_network(&mut self.target).apply_to(&mut self.selector);
        let mut report = RunReport {
            name: "nessa".into(),
            train_size: n,
            ..RunReport::default()
        };
        let select_metrics = SelectMetrics::from_telemetry(&self.telemetry);
        let train_metrics = TrainMetrics::from_telemetry(&self.telemetry);
        let health = HealthMonitor::new(&self.telemetry);
        let mut fraction = cfg.subset_fraction;
        let forward_flops = self.target.flops_per_sample();
        let gpu = DeviceSpec::v100();
        // The subset a worker round selected during the previous epoch,
        // waiting to be consumed.
        let mut pending: Option<Selection> = None;
        for epoch in 0..cfg.epochs {
            let ctx = RoundCtx {
                cfg: &cfg,
                health: &health,
                telemetry: &self.telemetry,
                select_metrics: &select_metrics,
                train: &self.train,
                threads,
            };
            let lr = schedule.lr_at(epoch);
            let mut epoch_span = self.telemetry.span("epoch").with_attr("epoch", epoch);
            let mut select_secs = 0.0;
            let mut io_secs = 0.0;
            let mut orec = OverlapRecord::default();
            let selection = if let Some(next) = pending.take() {
                // Double-buffered hand-off: the subset was selected
                // during the previous epoch (its cost is on that
                // epoch's ledger) with feedback one epoch stale.
                orec.staleness = 1;
                next
            } else {
                // Synchronous round: every sequential round, and the
                // overlapped schedule's epoch-0 prologue.
                let rng = streams.get_mut(epoch).unwrap_or(&mut master);
                let out = selection_round(
                    &ctx,
                    &mut self.device,
                    &self.selector,
                    epoch,
                    pool_of(&tracker),
                    fraction,
                    rng,
                )?;
                orec.sync_secs = out.select_secs + out.io_secs;
                select_secs += out.select_secs;
                io_secs += out.io_secs;
                self.history.push((epoch, out.selection.indices.clone()));
                out.selection
            };
            let train_secs = gpu_train_secs(&gpu, selection.len() as u64, forward_flops);
            // The worker round for the next epoch's subset. Only the
            // overlapped schedule has pre-split streams, and none past
            // the last epoch, so the sequential schedule never spawns.
            // The pool and fraction are snapshotted *now* — the state
            // left by epoch e−1 — so the concurrent round sees biasing
            // prunes and sizing updates one epoch stale, exactly like
            // the weights it selects with.
            let next = epoch + 1;
            let side = streams
                .get_mut(next)
                .map(|stream| (stream, pool_of(&tracker)));
            let parent = epoch_span.id();
            let (device, selector, target) = (&mut self.device, &self.selector, &mut self.target);
            // The trainer holds the other core while the worker round
            // runs, so the round itself stays on one thread.
            let worker_ctx = RoundCtx { threads: 1, ..ctx };
            let (outcome, joined) = std::thread::scope(|s| {
                let worker = side.map(|(stream, pool)| {
                    s.spawn(move || {
                        // Parent the wrapper to the epoch span explicitly:
                        // the worker thread has no open spans of its own,
                        // and the round's scan/select/ship spans then nest
                        // under this wrapper naturally.
                        let mut wrap = ctx
                            .telemetry
                            .span_child_of("overlap.select", parent)
                            .with_attr("epoch", epoch)
                            .with_attr("for_epoch", next);
                        let r = selection_round(
                            &worker_ctx,
                            device,
                            selector,
                            next,
                            pool,
                            fraction,
                            stream,
                        );
                        if let Ok(out) = &r {
                            wrap.add_sim_secs(out.select_secs + out.io_secs);
                            wrap.set_attr("subset", out.selection.len());
                        }
                        r
                    })
                });
                let outcome = {
                    let mut train_span = ctx
                        .telemetry
                        .span("train")
                        .with_attr("epoch", epoch)
                        .with_attr("subset", selection.len());
                    train_span.add_sim_secs(train_secs);
                    train_epoch(
                        target,
                        &mut opt,
                        ctx.train,
                        &selection.indices,
                        &selection.weights,
                        cfg.batch_size,
                        lr,
                        &mut master,
                        Some(&train_metrics),
                    )
                };
                let joined = worker.map(|w| {
                    let _wait = ctx.telemetry.span("overlap.wait").with_attr("epoch", epoch);
                    w.join()
                });
                (outcome, joined)
            });
            if let Some(joined) = joined {
                let round = joined.unwrap_or_else(|_| {
                    Err(SelectError::Internal("overlapped selection worker panicked").into())
                })?;
                orec.select_side_secs = round.select_secs + round.io_secs;
                select_secs += round.select_secs;
                io_secs += round.io_secs;
                self.history.push((next, round.selection.indices.clone()));
                pending = Some(round.selection);
            }
            // Feedback: quantize this epoch's weights, broadcast to every
            // live drive (under overlap the worker joined above, so the
            // device is idle again), refresh the selector for the next
            // round. Under overlap this is the serializing hand-off.
            if cfg.feedback {
                let mut feedback = if cfg.overlap {
                    ctx.telemetry.span("overlap.handoff")
                } else {
                    ctx.telemetry.span("feedback")
                }
                .with_attr("epoch", epoch);
                let snap = QuantizedModel::from_network(&mut self.target);
                feedback.set_attr("bytes", snap.payload_bytes());
                let payload = snap.payload_bytes() as u64;
                let secs = recover(&ctx, &mut self.device, epoch, |c| {
                    c.broadcast_feedback(payload)
                })?;
                feedback.add_sim_secs(secs);
                io_secs += secs;
                orec.handoff_secs = secs;
                snap.apply_to(&mut self.selector);
            }
            // Subset biasing: record subset losses; prune on schedule (the
            // next round re-selects from the surviving pool).
            if cfg.subset_biasing {
                tracker.record_epoch(&selection.indices, &outcome.per_sample_losses);
            }
            if cfg.dynamic_sizing {
                fraction = sizer.observe(outcome.mean_loss);
            }
            let test_acc = evaluate(&self.target, &self.test, cfg.batch_size);
            let record = EpochRecord {
                epoch,
                lr,
                subset_size: selection.len(),
                pool_size: if cfg.subset_biasing {
                    tracker.active_pool().len()
                } else {
                    n
                },
                train_loss: outcome.mean_loss,
                test_acc,
                select_secs,
                io_secs,
                train_secs,
                overlap: cfg.overlap.then_some(orec),
            };
            epoch_span.add_sim_secs(record.total_secs());
            epoch_span.set_attr("train_loss", outcome.mean_loss);
            epoch_span.set_attr("test_acc", test_acc);
            epoch_span.finish();
            report.epochs.push(record);
        }
        self.finish_run(&mut report, &health);
        Ok(report)
    }

    /// Run epilogue: traffic/energy roll-ups, fault totals, and
    /// the device-trace bridge into the unified telemetry stream.
    fn finish_run(&mut self, report: &mut RunReport, health: &HealthMonitor) {
        report.traffic = self.device.traffic();
        report.device_energy_j = self.device.energy_joules();
        health.note_faults_injected(self.device.faults_injected());
        // Bridge every drive's phase trace (retired ones included) and
        // roll-up counters into the unified stream, then flush the sinks
        // for this run.
        if self.telemetry.is_enabled() {
            for d in self
                .device
                .drives()
                .iter()
                .chain(self.device.retired_drives())
            {
                for ev in d.trace().events() {
                    self.telemetry.record_device_event(DeviceEvent {
                        phase: ev.phase.label().to_string(),
                        start_s: ev.start_s,
                        duration_s: ev.duration_s,
                        bytes: ev.bytes,
                    });
                }
            }
            let traffic = report.traffic;
            self.telemetry
                .gauge("device.ssd_to_fpga_bytes")
                .set(traffic.ssd_to_fpga as f64);
            self.telemetry
                .gauge("device.fpga_to_host_bytes")
                .set(traffic.fpga_to_host as f64);
            self.telemetry
                .gauge("device.host_to_fpga_bytes")
                .set(traffic.host_to_fpga as f64);
            self.telemetry
                .gauge("device.energy_j")
                .set(report.device_energy_j);
            self.telemetry
                .gauge("device.sim_secs")
                .set(report.device_secs());
            self.telemetry.flush();
        }
    }

    /// The trained target network (for inspection after [`run`]).
    ///
    /// [`run`]: NessaPipeline::run
    pub fn target_mut(&mut self) -> &mut Network {
        &mut self.target
    }

    /// The simulated drive cluster (traffic/energy counters, eviction
    /// state, per-drive traces).
    pub fn device(&self) -> &SsdCluster {
        &self.device
    }

    /// Every selection round the last [`run`] performed, in round order:
    /// `(epoch the subset is first used for, selected global indices)`.
    /// Lets tests compare overlapped and sequential schedules
    /// subset-by-subset.
    ///
    /// [`run`]: NessaPipeline::run
    pub fn selection_history(&self) -> &[(usize, Vec<usize>)] {
        &self.history
    }

    /// The run's telemetry stream (disabled unless
    /// [`NessaConfig::telemetry`] enables a mode).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_data::SynthConfig;
    use nessa_nn::models::mlp;

    fn small_setup(cfg: &NessaConfig) -> NessaPipeline {
        let synth = SynthConfig {
            train: 300,
            test: 120,
            dim: 8,
            classes: 3,
            cluster_std: 0.6,
            class_sep: 3.5,
            ..SynthConfig::default()
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(cfg.seed);
        let target = mlp(&[8, 24, 3], &mut rng);
        let selector = mlp(&[8, 24, 3], &mut rng);
        NessaPipeline::new(cfg.clone(), target, selector, train, test)
    }

    #[test]
    fn pipeline_trains_to_reasonable_accuracy() {
        let cfg = NessaConfig::new(0.3, 15).with_batch_size(32).with_seed(0);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        assert_eq!(report.epochs.len(), 15);
        assert!(
            report.final_accuracy() > 0.75,
            "accuracy {}",
            report.final_accuracy()
        );
        // Subset stays near the requested fraction.
        let pct = report.mean_subset_pct();
        assert!((25.0..40.0).contains(&pct), "subset {pct}%");
    }

    #[test]
    fn traffic_shows_near_storage_benefit() {
        let cfg = NessaConfig::new(0.2, 5).with_batch_size(32).with_seed(1);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let t = report.traffic;
        assert!(t.ssd_to_fpga > 0, "flash reads must be accounted");
        assert!(t.fpga_to_host > 0, "subset transfers must be accounted");
        assert!(t.host_to_fpga > 0, "feedback must be accounted");
        // The subset crossing the interconnect is much smaller than what
        // stayed on-board.
        assert!(t.fpga_to_host < t.ssd_to_fpga / 2);
        assert!(report.device_energy_j > 0.0);
    }

    #[test]
    fn subset_biasing_shrinks_pool() {
        let mut cfg = NessaConfig::new(0.3, 9).with_batch_size(32).with_seed(2);
        cfg.biasing_drop_every = 3;
        cfg.biasing_drop_fraction = 0.2;
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let first_pool = report.epochs.first().unwrap().pool_size;
        let last_pool = report.epochs.last().unwrap().pool_size;
        assert!(last_pool < first_pool, "{last_pool} !< {first_pool}");
    }

    #[test]
    fn dynamic_sizing_reduces_subset() {
        let mut cfg = NessaConfig::new(0.5, 12)
            .with_batch_size(32)
            .with_dynamic_sizing(true)
            .with_seed(3);
        cfg.sizing_threshold = 0.5; // aggressive: shrink on <50 % reduction
        cfg.sizing_min_fraction = 0.1;
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        let first = report.epochs.first().unwrap().subset_size;
        let last = report.epochs.last().unwrap().subset_size;
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = NessaConfig::new(0.3, 4).with_batch_size(32).with_seed(9);
        let a = small_setup(&cfg).run().unwrap();
        let b = small_setup(&cfg).run().unwrap();
        assert_eq!(a.accuracy_curve(), b.accuracy_curve());
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn reports_do_not_depend_on_the_thread_budget() {
        for overlap in [false, true] {
            let cfg = NessaConfig::new(0.3, 4)
                .with_batch_size(32)
                .with_seed(5)
                .with_overlap(overlap);
            let mut serial = small_setup(&cfg);
            let expect = serial.run_on(1).unwrap().to_jsonl();
            for threads in [2, 3] {
                let mut p = small_setup(&cfg);
                let got = p.run_on(threads).unwrap().to_jsonl();
                assert_eq!(got, expect, "overlap {overlap}, {threads} threads");
                assert_eq!(p.selection_history(), serial.selection_history());
            }
        }
    }

    #[test]
    fn overlapped_run_is_deterministic_and_records_ledger() {
        let cfg = NessaConfig::new(0.3, 5)
            .with_batch_size(32)
            .with_seed(9)
            .with_overlap(true);
        let a = small_setup(&cfg).run().unwrap();
        let b = small_setup(&cfg).run().unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        // Epoch 0 is the synchronous prologue; later epochs consume the
        // double-buffered round.
        let first = a.epochs[0].overlap.as_ref().unwrap();
        assert!(first.sync_secs > 0.0, "prologue must be synchronous");
        assert_eq!(first.staleness, 0);
        for rec in &a.epochs[1..] {
            let o = rec.overlap.as_ref().unwrap();
            assert_eq!(o.staleness, 1, "epoch {}", rec.epoch);
            assert_eq!(o.sync_secs, 0.0, "epoch {}", rec.epoch);
        }
        // Every epoch but the last spawns a concurrent round.
        for rec in &a.epochs[..a.epochs.len() - 1] {
            let o = rec.overlap.as_ref().unwrap();
            assert!(o.select_side_secs > 0.0, "epoch {}", rec.epoch);
        }
        assert_eq!(
            a.epochs
                .last()
                .unwrap()
                .overlap
                .as_ref()
                .unwrap()
                .select_side_secs,
            0.0,
            "nothing to select after the final epoch"
        );
    }

    #[test]
    fn overlap_hides_device_seconds() {
        let cfg = NessaConfig::new(0.3, 5)
            .with_batch_size(32)
            .with_seed(12)
            .with_overlap(true);
        let mut p = small_setup(&cfg);
        let report = p.run().unwrap();
        // Each pipelined epoch hides the shorter of its two sides.
        let overlaps = || report.epochs.iter().filter_map(|r| r.overlap.as_ref());
        let hidden: f64 = report
            .epochs
            .iter()
            .filter_map(|r| {
                r.overlap
                    .as_ref()
                    .map(|o| o.select_side_secs.min(r.train_secs))
            })
            .sum();
        assert!(hidden > 0.0, "pipelined rounds must hide device time");
        assert!(hidden <= p.device().elapsed_secs() + 1e-12);
        // The hidden portion never exceeds what the rounds cost.
        let side: f64 = overlaps().map(|o| o.select_side_secs).sum();
        assert!(hidden <= side + 1e-12);
    }

    #[test]
    fn selection_history_records_every_round() {
        let cfg = NessaConfig::new(0.3, 4).with_batch_size(32).with_seed(13);
        let mut p = small_setup(&cfg);
        p.run().unwrap();
        let hist = p.selection_history();
        assert_eq!(hist.len(), 4);
        for (i, (epoch, sel)) in hist.iter().enumerate() {
            assert_eq!(*epoch, i);
            assert!(!sel.is_empty());
        }
        // Overlapped mode covers the same rounds, in the same order.
        let mut q = small_setup(&cfg.clone().with_overlap(true));
        q.run().unwrap();
        let epochs: Vec<usize> = q.selection_history().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
    }

    /// Runs `cfg` after `bad` sets one field directly (bypassing the
    /// builders) and returns the field the typed error names.
    fn rejected_by_run(bad: impl FnOnce(&mut NessaConfig)) -> &'static str {
        let mut cfg = NessaConfig::new(0.3, 2).with_batch_size(32);
        bad(&mut cfg);
        match small_setup(&cfg).run() {
            Err(PipelineError::Config(e)) => e.field,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_batch_size_is_a_config_error() {
        assert_eq!(rejected_by_run(|c| c.batch_size = 0), "batch_size");
    }

    #[test]
    fn zero_biasing_drop_every_is_a_config_error() {
        assert_eq!(
            rejected_by_run(|c| c.biasing_drop_every = 0),
            "biasing_drop_every"
        );
    }

    #[test]
    fn full_biasing_drop_fraction_is_a_config_error() {
        assert_eq!(
            rejected_by_run(|c| c.biasing_drop_fraction = 1.0),
            "biasing_drop_fraction"
        );
    }

    #[test]
    fn zero_subset_fraction_is_a_config_error() {
        assert_eq!(
            rejected_by_run(|c| c.subset_fraction = 0.0),
            "subset_fraction"
        );
    }

    #[test]
    fn zero_sizing_min_fraction_is_a_config_error() {
        assert_eq!(
            rejected_by_run(|c| c.sizing_min_fraction = 0.0),
            "sizing_min_fraction"
        );
    }

    #[test]
    fn negative_sizing_threshold_is_a_config_error() {
        assert_eq!(
            rejected_by_run(|c| c.sizing_threshold = -0.1),
            "sizing_threshold"
        );
    }

    #[test]
    #[should_panic(expected = "share structure")]
    fn rejects_mismatched_selector() {
        let cfg = NessaConfig::new(0.3, 2);
        let synth = SynthConfig {
            train: 50,
            test: 20,
            dim: 8,
            classes: 3,
            ..SynthConfig::default()
        };
        let (train, test) = synth.generate();
        let mut rng = Rng64::new(0);
        let target = mlp(&[8, 24, 3], &mut rng);
        let selector = mlp(&[8, 16, 3], &mut rng);
        let _ = NessaPipeline::new(cfg, target, selector, train, test);
    }
}
