//! Future-work extension (paper §5: "scaling over multiple SmartSSDs and
//! GPUs"): how NeSSA's near-storage phases scale when the dataset is
//! sharded across a fleet of drives. Each drive is charged scan and
//! kernel time for its shard; the selection itself runs once, centrally,
//! over the whole pool.
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin scaling`.
//! Pass `--json` to emit one JSON object per drive count instead of the
//! human-readable table.

use nessa_bench::rule;
use nessa_core::timing::Workload;
use nessa_data::DatasetSpec;
use nessa_smartssd::cluster::SsdCluster;
use nessa_smartssd::fpga::KernelProfile;
use nessa_smartssd::SmartSsdConfig;
use nessa_telemetry::json::JsonObject;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let spec = DatasetSpec::by_name("ImageNet-100").expect("catalog entry");
    let w = Workload::from_spec(&spec);
    let fraction = 0.28f64;
    let subset = (w.samples as f64 * fraction).ceil() as u64;
    if !json {
        println!(
            "Scaling study: {} ({} records × {} KB) at a {:.0} % subset",
            spec.name,
            w.samples,
            w.bytes_per_sample / 1000,
            100.0 * fraction
        );
        rule(78);
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "Drives", "Scan (s)", "Select(s)", "Gather(s)", "Total (s)", "Speedup", "Energy(J)"
        );
        rule(78);
    }
    let mut baseline = None;
    for drives in [1usize, 2, 4, 8] {
        let mut cluster = SsdCluster::new(drives, SmartSsdConfig::default());
        let scan = cluster
            .parallel_scan(w.samples, w.bytes_per_sample)
            .expect("fault-free cluster");
        let chunk =
            KernelProfile::max_chunk_for(&SmartSsdConfig::default().fpga, w.classes).min(457);
        let profile = KernelProfile {
            samples: w.samples,
            forward_macs_per_sample: (w.feature_dim * w.classes) as u64,
            proxy_dim: w.classes,
            chunk,
            k_per_chunk: 128,
        };
        let select = cluster.parallel_select(&profile).expect("chunk fits");
        // Each drive ships its share of the selected subset to the GPU.
        let gather = cluster
            .gather_selections(subset, w.bytes_per_sample)
            .expect("fault-free cluster");
        let feedback = cluster
            .broadcast_feedback(25_600_000 / 4)
            .expect("fault-free cluster");
        let total = scan + select + gather + feedback;
        let speedup = *baseline.get_or_insert(total) / total;
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("dataset", spec.name)
                    .u64_field("drives", drives as u64)
                    .f64_field("scan_s", scan)
                    .f64_field("select_s", select)
                    .f64_field("gather_s", gather)
                    .f64_field("feedback_s", feedback)
                    .f64_field("total_s", total)
                    .f64_field("speedup", speedup)
                    .f64_field("energy_j", cluster.energy_joules())
                    .finish()
            );
        } else {
            println!(
                "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>11.2}x {:>10.1}",
                drives,
                scan,
                select,
                gather,
                total,
                speedup,
                cluster.energy_joules()
            );
        }
    }
    if !json {
        rule(78);
        println!("Scan and select scale with drives; gather/feedback share the host link.");
    }
}
