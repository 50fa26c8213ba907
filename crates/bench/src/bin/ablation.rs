//! Design-choice ablations called out in DESIGN.md §5:
//!
//! 1. greedy maximizer variants (naive vs lazy vs stochastic) — selection
//!    quality and accuracy,
//! 2. partition chunk size vs selection quality,
//! 3. quantized (int8) vs full-precision feedback,
//! 4. random-baseline comparison at the Table-2 operating point.
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin ablation`.
//! Pass `--json` to emit one JSON object per measured row (each tagged
//! with a `study` field) instead of the human-readable sections.

use nessa_bench::{rule, run_scaled, scaled_dataset, BATCH, EPOCHS, SEED};
use nessa_core::{NessaConfig, Policy};
use nessa_data::DatasetSpec;
use nessa_nn::models::mlp;
use nessa_quant::schemes::{relative_error, Granularity, Scheme, SchemeQuantized};
use nessa_select::craig::{select_per_class, CraigOptions};
use nessa_select::facility::{GreedyVariant, SimilarityMatrix};
use nessa_select::kmedoids;
use nessa_telemetry::json::JsonObject;
use nessa_tensor::rng::Rng64;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let spec = DatasetSpec::by_name("CIFAR-10").expect("catalog entry");
    let (train, test) = scaled_dataset(&spec, SEED);
    let fraction = 0.3f32;

    if !json {
        println!(
            "Ablation 1: greedy variant (NeSSA at {:.0} %)",
            100.0 * fraction
        );
        rule(60);
    }
    for (name, variant) in [
        ("naive", GreedyVariant::Naive),
        ("lazy", GreedyVariant::Lazy),
        ("stochastic", GreedyVariant::Stochastic { epsilon: 0.1 }),
    ] {
        let cfg = NessaConfig::new(fraction, EPOCHS).with_greedy(variant);
        let r = run_scaled(&Policy::Nessa(cfg), &train, &test, EPOCHS, SEED);
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "greedy_variant")
                    .str_field("variant", name)
                    .f64_field("best_acc", (100.0 * r.best_accuracy()) as f64)
                    .finish()
            );
        } else {
            println!("  {:<12} best acc {:.2} %", name, 100.0 * r.best_accuracy());
        }
    }

    if !json {
        println!();
        println!("Ablation 2: partition chunk size vs k-medoid cost (class 0)");
        rule(60);
    }
    let members = train.indices_by_class()[0].clone();
    let feats = train.features().gather_rows(&members);
    let labels = vec![0usize; members.len()];
    let sim = SimilarityMatrix::from_features(&feats);
    for chunk in [16usize, 32, 64, 128, usize::MAX] {
        let mut rng = Rng64::new(SEED);
        let opts = CraigOptions {
            partition_chunk: (chunk != usize::MAX).then_some(chunk),
            ..CraigOptions::default()
        };
        let sel = select_per_class(&feats, &labels, 1, fraction, &opts, &mut rng)
            .expect("selection failed");
        let cost = kmedoids::cost(&feats, &sel.indices);
        let obj = sim.objective(&sel.indices);
        let label = if chunk == usize::MAX {
            "whole-class".into()
        } else {
            format!("chunk {chunk}")
        };
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "partition_chunk")
                    .u64_field("chunk", if chunk == usize::MAX { 0 } else { chunk as u64 })
                    .u64_field("subset_size", sel.len() as u64)
                    .f64_field("facility_objective", obj as f64)
                    .f64_field("kmedoid_cost", cost as f64)
                    .finish()
            );
        } else {
            println!(
                "  {:<12} |S|={:<4} facility objective {:>12.1}  k-medoid cost {:>10.1}",
                label,
                sel.len(),
                obj,
                cost
            );
        }
    }

    if !json {
        println!();
        println!("Ablation 3: feedback precision (int8 vs none)");
        rule(60);
    }
    for (name, feedback) in [("int8 feedback", true), ("no feedback", false)] {
        let cfg = NessaConfig::new(fraction, EPOCHS).with_feedback(feedback);
        let r = run_scaled(&Policy::Nessa(cfg), &train, &test, EPOCHS, SEED);
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "feedback_precision")
                    .str_field("mode", name)
                    .f64_field("best_acc", (100.0 * r.best_accuracy()) as f64)
                    .finish()
            );
        } else {
            println!("  {:<14} best acc {:.2} %", name, 100.0 * r.best_accuracy());
        }
    }

    if !json {
        println!();
        println!("Ablation 3b: feedback quantization scheme (error vs payload)");
        rule(60);
    }
    let mut model_rng = Rng64::new(SEED);
    let mut net = mlp(&[train.dim(), 96, train.classes()], &mut model_rng);
    let weights = net.export_weights();
    for (name, scheme) in [
        (
            "int4/tensor",
            Scheme {
                bits: 4,
                granularity: Granularity::PerTensor,
            },
        ),
        ("int8/tensor", Scheme::int8()),
        (
            "int8/row",
            Scheme {
                bits: 8,
                granularity: Granularity::PerRow,
            },
        ),
        (
            "int16/tensor",
            Scheme {
                bits: 16,
                granularity: Granularity::PerTensor,
            },
        ),
    ] {
        let mut err_sum = 0.0f32;
        let mut bytes = 0usize;
        for w in &weights {
            err_sum += relative_error(w, scheme);
            bytes += SchemeQuantized::quantize(w, scheme).payload_bytes();
        }
        let f32_bytes: usize = weights.iter().map(|w| 4 * w.numel()).sum();
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "quant_scheme")
                    .str_field("scheme", name)
                    .f64_field("mean_rel_error", (err_sum / weights.len() as f32) as f64)
                    .u64_field("payload_bytes", bytes as u64)
                    .f64_field("pct_of_f32", 100.0 * bytes as f64 / f32_bytes as f64)
                    .finish()
            );
        } else {
            println!(
                "  {:<14} mean rel. error {:>9.5}  payload {:>7} B ({:>4.1}% of f32)",
                name,
                err_sum / weights.len() as f32,
                bytes,
                100.0 * bytes as f64 / f32_bytes as f64
            );
        }
    }

    if !json {
        println!();
        println!("Ablation 3c: flash access pattern (why near-storage scans win)");
        rule(60);
    }
    {
        use nessa_smartssd::ftl::Ftl;
        use nessa_smartssd::nand::NandConfig;
        use nessa_tensor::rng::Rng64 as FtlRng;
        // One epoch of CIFAR-10 at full scale: 50 000 records × 3 KB
        // ≈ 9 375 16-KB pages. NeSSA scans them sequentially on-board; a
        // host-side random sampler (the access pattern of per-sample
        // importance sampling) touches a 28 % subset at random.
        let pages = 9_375usize;
        let mut seq = Ftl::format(NandConfig::default(), pages);
        let t_seq = seq.read_pages(0, pages);
        let mut rng = FtlRng::new(SEED);
        let sample: Vec<usize> = rng.sample_indices(pages, pages * 28 / 100);
        let mut rand = Ftl::format(NandConfig::default(), pages);
        let t_rand = rand.read_scattered(&sample);
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "flash_access")
                    .u64_field("pages", pages as u64)
                    .f64_field("sequential_scan_s", t_seq)
                    .f64_field("random_sample_s", t_rand)
                    .u64_field("sampled_pages", sample.len() as u64)
                    .f64_field(
                        "per_page_slowdown",
                        (t_rand / sample.len() as f64) / (t_seq / pages as f64)
                    )
                    .finish()
            );
        } else {
            println!(
                "  sequential full scan : {:>8.4} s  ({} pages)",
                t_seq, pages
            );
            println!(
                "  random 28 % sample   : {:>8.4} s  ({} pages) — {:.1}x slower per page",
                t_rand,
                sample.len(),
                (t_rand / sample.len() as f64) / (t_seq / pages as f64)
            );
        }
    }

    if !json {
        println!();
        println!("Ablation 4: informed selection vs stratified random, by budget");
        rule(60);
    }
    for fraction in [0.05f32, 0.10, 0.30] {
        let random = run_scaled(&Policy::Random { fraction }, &train, &test, EPOCHS, SEED);
        let nessa = run_scaled(
            &Policy::Nessa(NessaConfig::new(fraction, EPOCHS)),
            &train,
            &test,
            EPOCHS,
            SEED,
        );
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("study", "selection_vs_random")
                    .f64_field("subset_pct", (100.0 * fraction) as f64)
                    .f64_field("random_acc", (100.0 * random.best_accuracy()) as f64)
                    .f64_field("nessa_acc", (100.0 * nessa.best_accuracy()) as f64)
                    .u64_field("batch", BATCH as u64)
                    .finish()
            );
        } else {
            println!(
                "  subset {:>3.0} %: random {:.2} %   nessa {:.2} %   (batch {BATCH})",
                100.0 * fraction,
                100.0 * random.best_accuracy(),
                100.0 * nessa.best_accuracy(),
            );
        }
    }
    if !json {
        println!("  (informed selection matters most at small budgets; stratified");
        println!("  random closes the gap as the budget covers the data's modes)");
    }
}
