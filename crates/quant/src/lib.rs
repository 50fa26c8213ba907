//! Int8 quantization for NeSSA's FPGA feedback loop.
//!
//! Paper §3.2.1: after each training round the target model's weights are
//! quantized and shipped back to the SmartSSD, where the FPGA selection
//! kernel runs forward passes with them to compute gradient proxies.
//! Quantization shrinks the GPU→FPGA feedback transfer by 4× (paper
//! contribution 2: "quantize the selection model for high selection
//! speed"). The simulator charges the smaller payload; the kernel's
//! compute model lives in `nessa-smartssd`.
//!
//! * [`schemes`] — symmetric quantization at a configurable bit width and
//!   scale granularity; [`Scheme::int8`] is the paper's per-tensor int8,
//! * [`qmodel`] — whole-network snapshots: quantize a
//!   [`Network`](nessa_nn::models::Network)'s weights at int8, measure the
//!   payload that crosses the interconnect, and materialize the
//!   dequantized "selector model" the FPGA runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod qmodel;
pub mod schemes;

pub use qmodel::QuantizedModel;
pub use schemes::{Granularity, Scheme, SchemeQuantized};
