//! The paper's future work, runnable: shard a full-scale dataset across a
//! fleet of simulated SmartSSDs, charge each drive scan and kernel time
//! for its shard (selection itself runs once, centrally, over the whole
//! pool), and watch the near-storage phases scale while the shared host
//! link becomes the new bottleneck.
//!
//! Run with `cargo run --release --example multi_drive`.

use nessa::data::DatasetSpec;
use nessa::smartssd::cluster::SsdCluster;
use nessa::smartssd::fpga::KernelProfile;
use nessa::smartssd::SmartSsdConfig;

fn main() {
    let spec = DatasetSpec::by_name("TinyImageNet").expect("catalog entry");
    let records = spec.train_size as u64;
    let bytes = spec.bytes_per_image as u64;
    let subset = records * 34 / 100; // the paper's Table-2 operating point
    println!(
        "{}: {} records x {} KB, 34% subset, sharded across drives",
        spec.name,
        records,
        bytes / 1000
    );
    for drives in [1usize, 2, 4, 8, 16] {
        let mut cluster = SsdCluster::new(drives, SmartSsdConfig::default());
        let scan = cluster.parallel_scan(records, bytes).expect("fault-free");
        let profile = KernelProfile {
            samples: records,
            forward_macs_per_sample: (512 * spec.classes) as u64,
            proxy_dim: spec.classes,
            chunk: KernelProfile::max_chunk_for(&SmartSsdConfig::default().fpga, spec.classes)
                .min(457),
            k_per_chunk: 128,
        };
        let select = cluster.parallel_select(&profile).expect("chunk fits");
        let gather = cluster
            .gather_selections(subset, bytes)
            .expect("fault-free");
        println!(
            "  {drives:>2} drives: scan {scan:>6.2}s  select {select:>5.2}s  gather {gather:>5.2}s  total {:>6.2}s  ({:.1} J)",
            cluster.elapsed_secs(),
            cluster.energy_joules()
        );
    }
    println!("(scan/select parallelize; the gather shares one host link — Amdahl)");
}
