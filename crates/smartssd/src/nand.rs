//! The NAND flash array.
//!
//! Reads are modelled at page granularity: each page costs a sense time
//! (`t_R`) on its die plus a transfer over its channel; pages interleave
//! across channels, so the array's sustained read bandwidth is roughly
//! `channels × page_size / max(t_R / pages_in_flight, transfer_time)`.
//! The default geometry sustains ~3 GB/s internally — the "theoretical
//! 3 GBps SSD-to-FPGA" figure of paper §4.4 — so the P2P link, not the
//! flash, is the bottleneck the experiments observe.

/// Flash array geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandConfig {
    /// Independent channels.
    pub channels: usize,
    /// Dies per channel (interleaving depth within a channel).
    pub dies_per_channel: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Page sense (read) latency in seconds.
    pub t_r_secs: f64,
    /// Page program (write) latency in seconds.
    pub t_prog_secs: f64,
    /// Per-channel ONFI transfer bandwidth in bytes/s.
    pub channel_bytes_per_s: f64,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

impl Default for NandConfig {
    fn default() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 4,
            page_bytes: 16 * 1024,
            t_r_secs: 60e-6,
            t_prog_secs: 600e-6,
            channel_bytes_per_s: 500e6,
            capacity_bytes: 3_840_000_000_000, // 3.84 TB (paper §2.2)
        }
    }
}

/// The flash array with cumulative read statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NandArray {
    config: NandConfig,
    bytes_read: u64,
    pages_read: u64,
}

impl NandArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics if any geometry field is zero or non-positive.
    pub fn new(config: NandConfig) -> Self {
        assert!(config.channels > 0, "need at least one channel");
        assert!(config.dies_per_channel > 0, "need at least one die");
        assert!(config.page_bytes > 0, "page size must be positive");
        assert!(config.t_r_secs > 0.0 && config.channel_bytes_per_s > 0.0);
        Self {
            config,
            bytes_read: 0,
            pages_read: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// Seconds to read `bytes` of sequentially-laid-out data, with pages
    /// striped across all channels and dies.
    ///
    /// Returns `0.0` for zero-byte reads.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the configured capacity.
    pub fn read(&mut self, bytes: u64) -> f64 {
        assert!(
            bytes <= self.config.capacity_bytes,
            "read of {bytes} bytes exceeds {}-byte capacity",
            self.config.capacity_bytes
        );
        if bytes == 0 {
            return 0.0;
        }
        let pages = bytes.div_ceil(self.config.page_bytes as u64);
        self.bytes_read += bytes;
        self.pages_read += pages;
        // Pages are spread over channels×dies ways; within a pipeline the
        // throughput per channel is limited by the slower of sensing
        // (amortized over the dies sharing the channel) and the transfer.
        let sense_per_page = self.config.t_r_secs / self.config.dies_per_channel as f64;
        let xfer_per_page = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        let per_page_channel_time = sense_per_page.max(xfer_per_page);
        let pages_per_channel = (pages as f64 / self.config.channels as f64).ceil();
        // Pipeline fill: first page pays full sense + transfer.
        let fill = self.config.t_r_secs + xfer_per_page;
        fill + (pages_per_channel - 1.0).max(0.0) * per_page_channel_time
    }

    /// Seconds to read an arbitrary set of pages — the random-access
    /// pattern of a host-side sampler, against [`NandArray::read`]'s
    /// sequential scan. Page `p` sits on channel `p % channels` and the
    /// channels run in parallel, but scattered pages cannot amortize
    /// sensing across a die pipeline: every page pays the full `t_R` plus
    /// its transfer on its channel.
    ///
    /// # Panics
    ///
    /// Panics if any page lies beyond the configured capacity.
    pub fn read_scattered(&mut self, pages: &[usize]) -> f64 {
        let page_bytes = self.config.page_bytes as u64;
        let capacity_pages = self.config.capacity_bytes / page_bytes;
        let mut per_channel = vec![0u64; self.config.channels];
        for &page in pages {
            assert!(
                (page as u64) < capacity_pages,
                "page {page} beyond the {capacity_pages}-page capacity"
            );
            per_channel[page % self.config.channels] += 1;
        }
        self.pages_read += pages.len() as u64;
        self.bytes_read += pages.len() as u64 * page_bytes;
        let xfer_per_page = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        per_channel
            .iter()
            .map(|&n| n as f64 * (self.config.t_r_secs + xfer_per_page))
            .fold(0.0, f64::max)
    }

    /// Seconds to program (write) `bytes` of sequentially-laid-out data,
    /// striped like reads but paying the much larger `t_PROG` per page.
    /// Used when a dataset is first installed on the drive.
    ///
    /// Returns `0.0` for zero-byte writes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the configured capacity.
    pub fn program(&mut self, bytes: u64) -> f64 {
        assert!(
            bytes <= self.config.capacity_bytes,
            "write of {bytes} bytes exceeds {}-byte capacity",
            self.config.capacity_bytes
        );
        if bytes == 0 {
            return 0.0;
        }
        let pages = bytes.div_ceil(self.config.page_bytes as u64);
        let prog_per_page = self.config.t_prog_secs / self.config.dies_per_channel as f64;
        let xfer_per_page = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        let per_page = prog_per_page.max(xfer_per_page);
        let pages_per_channel = (pages as f64 / self.config.channels as f64).ceil();
        self.config.t_prog_secs + xfer_per_page + (pages_per_channel - 1.0).max(0.0) * per_page
    }

    /// Sustained internal read bandwidth in bytes/s (asymptotic, ignoring
    /// pipeline fill).
    pub fn sustained_bytes_per_s(&self) -> f64 {
        let sense_per_page = self.config.t_r_secs / self.config.dies_per_channel as f64;
        let xfer_per_page = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        let per_page = sense_per_page.max(xfer_per_page);
        self.config.channels as f64 * self.config.page_bytes as f64 / per_page
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total pages read so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }
}

impl Default for NandArray {
    fn default() -> Self {
        Self::new(NandConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sustains_about_3gbps() {
        let nand = NandArray::default();
        let bw = nand.sustained_bytes_per_s();
        assert!(
            (2.5e9..4.5e9).contains(&bw),
            "sustained internal bandwidth {bw}"
        );
    }

    #[test]
    fn large_reads_approach_sustained_bandwidth() {
        let mut nand = NandArray::default();
        let bytes = 1_000_000_000u64;
        let t = nand.read(bytes);
        let eff = bytes as f64 / t;
        assert!(eff > 0.9 * nand.sustained_bytes_per_s(), "effective {eff}");
    }

    #[test]
    fn small_reads_pay_latency() {
        let mut nand = NandArray::default();
        let t = nand.read(4096);
        // Must pay at least one full page sense.
        assert!(t >= 60e-6);
    }

    #[test]
    fn read_time_is_monotone_in_size() {
        let mut nand = NandArray::default();
        let mut prev = 0.0;
        for bytes in [1u64 << 12, 1 << 16, 1 << 20, 1 << 24] {
            let t = nand.read(bytes);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut nand = NandArray::default();
        let _ = nand.read(16 * 1024);
        let _ = nand.read(1);
        assert_eq!(nand.bytes_read(), 16 * 1024 + 1);
        assert_eq!(nand.pages_read(), 2);
    }

    #[test]
    fn programming_is_slower_than_reading() {
        let mut nand = NandArray::default();
        let bytes = 100_000_000u64;
        let r = nand.read(bytes);
        let w = nand.program(bytes);
        assert!(w > r, "program {w}s should exceed read {r}s");
        assert_eq!(nand.program(0), 0.0);
    }

    #[test]
    fn zero_read_is_free() {
        let mut nand = NandArray::default();
        assert_eq!(nand.read(0), 0.0);
        assert_eq!(nand.bytes_read(), 0);
    }

    #[test]
    fn sequential_beats_scattered() {
        let page = NandConfig::default().page_bytes as u64;
        let seq = NandArray::default().read(256 * page);
        let pages: Vec<usize> = (0..256).collect();
        let scat = NandArray::default().read_scattered(&pages);
        assert!(
            scat > 2.0 * seq,
            "scattered {scat}s should cost well over sequential {seq}s"
        );
    }

    #[test]
    fn scattered_pages_stripe_round_robin() {
        let cfg = NandConfig::default();
        let per_page = cfg.t_r_secs + cfg.page_bytes as f64 / cfg.channel_bytes_per_s;
        let mut nand = NandArray::default();
        // One page on every channel: the channels overlap fully.
        let spread: Vec<usize> = (0..cfg.channels).collect();
        assert_eq!(nand.read_scattered(&spread), per_page);
        // Pages `channels` apart share channel 0 and serialize.
        let same: Vec<usize> = (0..4).map(|i| i * cfg.channels).collect();
        assert_eq!(nand.read_scattered(&same), 4.0 * per_page);
        assert_eq!(nand.read_scattered(&[]), 0.0);
        assert_eq!(nand.pages_read(), cfg.channels as u64 + 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_reads_beyond_capacity() {
        let mut nand = NandArray::default();
        let _ = nand.read(u64::MAX / 2);
    }
}
