//! NeSSA benchmark: end-to-end metrics on both clocks, and a separate
//! traced run for the per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select_heavy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload through `NessaPipeline::new` + `run` with
//! telemetry off, repeatedly for `--seconds`, and reports the end-to-end
//! metrics. `--trace 1` interleaves untraced runs with JSONL-traced runs of
//! the same seed, reads the per-layer numbers back from the artifact, and
//! adds the bench-side layer probe (see `probe.rs`). Outputs are checked
//! on every run; the last line of standard output is one JSON object.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod checks;
mod layers;
mod probe;
mod workload;

use layers::Values;
use nessa_core::{NessaPipeline, PipelineError, RunReport};
use nessa_telemetry::TelemetrySettings;
use nessa_tensor::rng::Rng64;
use nessa_trace::{RunTrace, TraceReport};
use probe::{Probe, State};
use std::path::Path;
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <select_heavy|wide_model_overlap|faulty_cluster> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per run before the measured runs (set-up is cheap and
/// noisy, so it gets its own repeats).
const SETUP_REPEATS: usize = 15;
/// Generated inputs (data, weights, fault plans) each run cycles through.
const INPUTS_PER_RUN: u64 = 6;
/// Traced repeats made even when `--seconds` has run out.
const MIN_TRACED_REPEATS: usize = 3;
/// Probe repeats; each probes the initial and the final model state.
const PROBE_REPEATS: usize = 3;
/// The probe's proxy + similarity + greedy must land within this share of
/// the pipeline's `select` span wall, or the split is reported unresolved.
const PROBE_GAP_TOLERANCE: f64 = 0.25;
/// Where traced runs write their JSONL artifacts (relative to the
/// working directory).
const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics: name, unit, clock.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "host"),
    ("epoch_wall_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_epoch_s", "sim_s", "sim"),
    ("sim_interconnect_mb_per_epoch", "MB", "sim"),
    ("final_acc", "fraction", "-"),
];

/// Per-layer metrics of the traced run: name, unit.
const PER_LAYER: [(&str, &str); 41] = [
    ("select.wall_s", "s"),
    ("select.proxy_wall_s", "s"),
    ("select.similarity_wall_s", "s"),
    ("select.greedy_wall_s", "s"),
    ("select.probe_gap_frac", "fraction"),
    ("select.probe_resolved", "count"),
    ("select.gain_evals_per_round", "count"),
    ("select.chunks_per_round", "count"),
    ("nn.train_wall_s", "s"),
    ("nn.forward_wall_s", "s"),
    ("nn.backward_wall_s", "s"),
    ("nn.step_wall_s", "s"),
    ("nn.evaluate_wall_s", "s"),
    ("quant.feedback_wall_s", "s"),
    ("quant.quantize_wall_s", "s"),
    ("quant.payload_bytes", "bytes"),
    ("core.unattributed_wall_s", "s"),
    ("core.overlap_wait_s", "s"),
    ("core.overlap_ratio", "fraction"),
    ("core.overlap_speedup", "ratio"),
    ("core.retry_attempts", "count"),
    ("core.fallback_host", "count"),
    ("core.fallback_random", "count"),
    ("core.degraded_round_frac", "fraction"),
    ("smartssd.scan_sim_s", "sim_s"),
    ("smartssd.kernel_sim_s", "sim_s"),
    ("smartssd.ship_sim_s", "sim_s"),
    ("smartssd.feedback_sim_s", "sim_s"),
    ("smartssd.retry_sim_s", "sim_s"),
    ("smartssd.fallback_sim_s", "sim_s"),
    ("smartssd.flash_mb", "MB"),
    ("smartssd.interconnect_mb", "MB"),
    ("smartssd.shard_skew", "ratio"),
    ("smartssd.faults_injected", "count"),
    ("smartssd.drives_evicted", "count"),
    ("smartssd.host_wall_s", "s"),
    ("data.quarantined_records", "count"),
    ("data.generate_wall_s", "s"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.jsonl_bytes_per_epoch", "bytes"),
    ("trace.report_wall_s", "s"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        workload::by_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if the system
/// reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs attempted and runs failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one run and checks its outputs; returns the report when the
    /// run is correct.
    fn check(
        &mut self,
        w: &Workload,
        result: Result<RunReport, PipelineError>,
        pipeline: &NessaPipeline,
        reference: &mut Option<String>,
    ) -> Option<RunReport> {
        self.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.fail(vec![format!("run returned an error: {e}")]);
                return None;
            }
        };
        let mut problems = checks::run_outputs(w, &report, pipeline.device());
        let jsonl = report.to_jsonl();
        match reference {
            Some(first) if *first != jsonl => problems
                .push("RunReport::to_jsonl differs from an earlier run at the same seed".into()),
            Some(_) => {}
            None => *reference = Some(jsonl),
        }
        if problems.is_empty() {
            Some(report)
        } else {
            self.fail(problems);
            None
        }
    }

    /// Marks an already counted run as failed.
    fn fail(&mut self, problems: Vec<String>) {
        self.failed += 1;
        for p in problems {
            eprintln!("perfbench: check failed: {p}");
        }
    }
}

/// Sets up and runs one pipeline. Returns the set-up seconds and the wall
/// seconds of `run()` alone.
fn run_once(
    w: &Workload,
    seed: u64,
    overlap: bool,
    telemetry: TelemetrySettings,
) -> (NessaPipeline, Result<RunReport, PipelineError>, f64, f64) {
    let (mut pipeline, setup) = w.setup(seed, overlap, telemetry);
    let started = Instant::now();
    let result = pipeline.run();
    (pipeline, result, setup.total_s, secs(started))
}

struct Outcome {
    /// False when a metric could not be measured.
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The seeds of the inputs one run cycles through. Host wall time depends
/// on the data (see README), so each run measures several generated
/// inputs rather than one.
fn input_seeds(seed: u64) -> Vec<u64> {
    (0..INPUTS_PER_RUN)
        .map(|i| seed.wrapping_mul(INPUTS_PER_RUN).wrapping_add(i))
        .collect()
}

fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let seeds = input_seeds(seed);
    let mut setup_s: Vec<f64> = seeds
        .iter()
        .cycle()
        .take(SETUP_REPEATS)
        .map(|&s| w.setup(s, w.overlap, TelemetrySettings::off()).1.total_s)
        .collect();
    let mut tally = Tally::default();
    let mut references = vec![None; seeds.len()];
    let mut firsts: Vec<Option<RunReport>> = vec![None; seeds.len()];
    let mut epoch_walls = Vec::new();
    for run in 0.. {
        let input = run % seeds.len();
        let (pipeline, result, setup, wall) =
            run_once(w, seeds[input], w.overlap, TelemetrySettings::off());
        setup_s.push(setup);
        if let Some(report) = tally.check(w, result, &pipeline, &mut references[input]) {
            let epoch_wall = wall / report.epochs.len() as f64;
            eprintln!("perfbench: run {run} input {input}: {epoch_wall:.6} s per epoch");
            epoch_walls.push(epoch_wall);
            firsts[input].get_or_insert(report);
        }
        // Every input runs once; after that, stop before a run that would
        // overrun the measuring window.
        if run + 1 >= seeds.len() && secs(started) + wall > seconds {
            break;
        }
    }
    // The exact metrics are means over the inputs, so they repeat exactly
    // at a fixed seed however many runs the window held.
    let reports: Vec<&RunReport> = firsts.iter().flatten().collect();
    let mean = |f: &dyn Fn(&RunReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
    };
    let per_epoch = |r: &RunReport| r.epochs.len().max(1) as f64;
    let rss = peak_rss_mb();
    if rss.is_none() {
        eprintln!("perfbench: the system does not report VmHWM");
    }
    let values = [
        median(&setup_s),
        median(&epoch_walls),
        rss.unwrap_or(0.0),
        mean(&|r| r.epochs.iter().map(|e| e.total_secs()).sum::<f64>() / per_epoch(r)),
        mean(&|r| r.traffic.interconnect_bytes() as f64 / 1e6 / per_epoch(r)),
        mean(&|r| f64::from(r.final_accuracy())),
    ];
    println!(
        "{}: {} runs over {} inputs, {} set-ups timed",
        w.name,
        tally.attempted,
        seeds.len(),
        setup_s.len()
    );
    println!("{:<32} {:>16} {:<9} clock", "metric", "value", "unit");
    for ((name, unit, clock), v) in END_TO_END.iter().zip(values) {
        println!("{name:<32} {v:>16.9} {unit:<9} {clock}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<32} {failed_frac:>16.9} {:<9} - ({} of {} runs)",
        "failed_frac", "fraction", tally.failed, tally.attempted
    );
    Outcome {
        correct: reports.len() == seeds.len() && rss.is_some(),
        tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect(),
    }
}

fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let artifact = out_dir.join(format!("{}.jsonl", w.name));
    let twin_artifact = out_dir.join(format!("{}.seq.jsonl", w.name));
    let seeds = input_seeds(seed);
    let generate_s: Vec<f64> = seeds
        .iter()
        .cycle()
        .take(SETUP_REPEATS)
        .map(|&s| w.setup(s, w.overlap, TelemetrySettings::off()).1.generate_s)
        .collect();

    let mut tally = Tally::default();
    let mut references = vec![None; seeds.len()];
    let mut twin_references = vec![None; seeds.len()];
    let (mut untraced_walls, mut traced_walls, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut report_walls, mut jsonl_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut final_state = None;
    let mut repeat = 0;
    let mut last_repeat_s = 0.0;
    while repeat < MIN_TRACED_REPEATS || secs(started) + last_repeat_s <= seconds {
        let repeat_started = Instant::now();
        let input = repeat % seeds.len();
        let input_seed = seeds[input];
        // Alternate which side runs first so slow drift hits both.
        for traced_side in [repeat % 2 == 1, repeat % 2 == 0] {
            if !traced_side {
                let (pipeline, result, _, wall) =
                    run_once(w, input_seed, w.overlap, TelemetrySettings::off());
                if tally
                    .check(w, result, &pipeline, &mut references[input])
                    .is_some()
                {
                    untraced_walls.push(wall / w.epochs as f64);
                }
                continue;
            }
            let Some(run) = traced_run(
                w,
                input_seed,
                w.overlap,
                &artifact,
                &mut tally,
                &mut references[input],
            ) else {
                continue;
            };
            traced_walls.push(run.wall / w.epochs as f64);
            jsonl_bytes.push(run.jsonl_bytes as f64 / w.epochs as f64);
            report_walls.push(run.report_wall);
            if w.overlap {
                // The sequential twin at the same seed, traced the same way.
                if let Some(twin) = traced_run(
                    w,
                    input_seed,
                    false,
                    &twin_artifact,
                    &mut tally,
                    &mut twin_references[input],
                ) {
                    speedups.push(twin.wall / run.wall);
                }
            }
            samples.push(run.values);
            final_state = Some((run.pipeline, run.report, input_seed));
        }
        repeat += 1;
        last_repeat_s = secs(repeat_started);
    }

    let mut values: Values = Values::new();
    for (name, unit) in PER_LAYER {
        // Host seconds use every traced repeat. The exact numbers use only
        // the repeats every run makes, so they repeat at a fixed seed.
        let used = if unit == "s" {
            &samples[..]
        } else {
            &samples[..samples.len().min(MIN_TRACED_REPEATS)]
        };
        let per_run: Vec<f64> = used.iter().filter_map(|s| s.get(name).copied()).collect();
        if !per_run.is_empty() {
            values.insert(name, median(&per_run));
        }
    }
    if let Some((mut pipeline, report, input_seed)) = final_state {
        let p = probe_layers(w, input_seed, &mut pipeline, &report);
        let select_wall = values.get("select.wall_s").copied().unwrap_or(0.0);
        let probed = p.proxy_s + p.similarity_s + p.greedy_s;
        let gap = if select_wall > 0.0 {
            (probed - select_wall).abs() / select_wall
        } else {
            1.0
        };
        let resolved = gap <= PROBE_GAP_TOLERANCE;
        println!(
            "probe attribution: proxy + similarity + greedy = {probed:.6} s against {select_wall:.6} s \
             of select span wall per round, gap {gap:.3} ({}; tolerance {PROBE_GAP_TOLERANCE})",
            if resolved { "resolved" } else { "UNRESOLVED: per-layer split not trusted" }
        );
        values.extend([
            ("select.proxy_wall_s", p.proxy_s),
            ("select.similarity_wall_s", p.similarity_s),
            ("select.greedy_wall_s", p.greedy_s),
            ("select.probe_gap_frac", gap),
            ("select.probe_resolved", f64::from(u8::from(resolved))),
            ("nn.forward_wall_s", p.forward_s),
            ("nn.backward_wall_s", p.backward_s),
            ("nn.step_wall_s", p.step_s),
            ("nn.evaluate_wall_s", p.evaluate_s),
            ("quant.quantize_wall_s", p.quantize_s),
        ]);
    }
    let untraced = median(&untraced_walls);
    values.extend([
        ("core.overlap_speedup", median(&speedups)),
        ("data.generate_wall_s", median(&generate_s)),
        (
            "telemetry.overhead_frac",
            if untraced > 0.0 {
                median(&traced_walls) / untraced - 1.0
            } else {
                0.0
            },
        ),
        ("telemetry.jsonl_bytes_per_epoch", median(&jsonl_bytes)),
        ("trace.report_wall_s", median(&report_walls)),
    ]);
    println!(
        "{}: {} traced repeats ({} untraced, {} traced runs{})",
        w.name,
        repeat,
        untraced_walls.len(),
        traced_walls.len(),
        if w.overlap {
            ", each with its sequential twin"
        } else {
            ""
        }
    );
    let mut metrics = Vec::new();
    let mut correct = true;
    for (name, unit) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or_else(|| {
            correct = false;
            eprintln!("perfbench: per-layer metric {name} was not measured");
            0.0
        });
        println!("{name:<34} {v:>18.9} {unit}");
        metrics.push((name, v, unit));
    }
    Outcome {
        correct,
        tally,
        metrics,
    }
}

/// A traced run that passed every check.
struct TracedRun {
    pipeline: NessaPipeline,
    report: RunReport,
    /// Host wall seconds of `run()`.
    wall: f64,
    /// Per-layer numbers read back from the artifact.
    values: Values,
    jsonl_bytes: usize,
    /// Host wall seconds to load the artifact and build its report.
    report_wall: f64,
}

/// One JSONL-traced run: checks it like any other, then reconciles its
/// artifact with the report and reads the per-layer numbers back.
fn traced_run(
    w: &Workload,
    seed: u64,
    overlap: bool,
    artifact: &Path,
    tally: &mut Tally,
    reference: &mut Option<String>,
) -> Option<TracedRun> {
    let (pipeline, result, _, wall) =
        run_once(w, seed, overlap, TelemetrySettings::jsonl(artifact));
    let report = tally.check(w, result, &pipeline, reference)?;
    let text = match std::fs::read_to_string(artifact) {
        Ok(text) => text,
        Err(e) => {
            tally.fail(vec![format!("traced artifact {}: {e}", artifact.display())]);
            return None;
        }
    };
    let parse_started = Instant::now();
    let trace = match RunTrace::from_str(&text) {
        Ok(trace) => trace,
        Err(e) => {
            tally.fail(vec![format!("traced artifact does not parse: {e}")]);
            return None;
        }
    };
    std::hint::black_box(TraceReport::from_trace(&trace));
    let report_wall = secs(parse_started);
    let problems = checks::reconcile(&trace, &report);
    if !problems.is_empty() {
        tally.fail(problems);
        return None;
    }
    Some(TracedRun {
        values: layers::from_trace(&trace, &report, pipeline.device()),
        pipeline,
        report,
        wall,
        jsonl_bytes: text.len(),
        report_wall,
    })
}

/// Runs the layer probe at the workload's initial and final model state
/// and returns the per-round / per-epoch medians over the repeats.
fn probe_layers(
    w: &Workload,
    seed: u64,
    pipeline: &mut NessaPipeline,
    report: &RunReport,
) -> Probe {
    let (train, test) = w.data(seed);
    let initial = w.models(seed).0.export_weights();
    let trained = pipeline.target_mut().export_weights();
    let (first, last) = (&report.epochs[0], &report.epochs[report.epochs.len() - 1]);
    let states = [
        State {
            weights: &initial,
            lr: first.lr,
            subset: first.subset_size,
        },
        State {
            weights: &trained,
            lr: last.lr,
            subset: last.subset_size,
        },
    ];
    let mut rng = Rng64::new(seed ^ 0x7072_6f62);
    let runs: Vec<Probe> = (0..PROBE_REPEATS)
        .map(|_| {
            let [a, b] = states
                .each_ref()
                .map(|s| probe::probe(w, s, &train, &test, &mut rng));
            probe::mean(&a, &b)
        })
        .collect();
    let med = |f: fn(&Probe) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    Probe {
        proxy_s: med(|p| p.proxy_s),
        similarity_s: med(|p| p.similarity_s),
        greedy_s: med(|p| p.greedy_s),
        forward_s: med(|p| p.forward_s),
        backward_s: med(|p| p.backward_s),
        step_s: med(|p| p.step_s),
        evaluate_s: med(|p| p.evaluate_s),
        quantize_s: med(|p| p.quantize_s),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Outcome {
        correct,
        tally,
        metrics,
    } = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    let mut correct = correct && tally.failed == 0;
    let mut body = Vec::new();
    for (name, value, unit) in metrics {
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        let value = if value.is_finite() {
            value + 0.0
        } else {
            eprintln!("perfbench: {name} is not finite");
            correct = false;
            0.0
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
