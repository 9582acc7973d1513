//! QoR (quality of results) estimation for HIDA designs.
//!
//! The original HIDA flow hands its output to AMD Vitis HLS and reads throughput and
//! resource utilization back from synthesis reports; its design-space exploration is
//! driven by the analytic QoR estimator inherited from ScaleHLS. Because this
//! reproduction cannot run Vitis HLS or place-and-route a bitstream, the same
//! analytic estimator serves both purposes here:
//!
//! * [`device`] — catalogs of the FPGA platforms used in the paper's evaluation
//!   (PYNQ-Z2, ZU3EG, one VU9P SLR),
//! * [`resource`] — DSP / BRAM / LUT / FF cost model for compute and buffers,
//! * [`latency`] — loop-nest latency and initiation-interval model under unroll,
//!   pipeline, partition and tiling decisions,
//! * [`dataflow`] — schedule-level throughput model with ping-pong buffers,
//!   unbalanced-path stalls, and external-memory transfer costs,
//! * [`report`] — the [`DesignEstimate`] summary (throughput,
//!   DSP efficiency, utilization) reported by every benchmark harness,
//! * [`shared_cache`] — the estimate key (the node model's inputs and the
//!   device) and [`SharedEstimateCache`], the handle a batch's estimators
//!   share on an optional store,
//! * [`store`] — the one cache of estimates across compilations
//!   ([`EstimateStore`]): one content-named segment file per batch, published
//!   atomically, read once per open, with corruption tolerance and
//!   size-budgeted eviction, so *separate processes*
//!   (CLI runs, bench invocations, CI steps) share estimate work.
//!
//! An estimator reads compute profiles and the dataflow graph from, and
//! memoizes per-node estimates in, one analysis cache — in a compilation the
//! one the pass pipeline ran with ([`DataflowEstimator::over`]); an
//! estimation runs on the calling thread.

pub mod dataflow;
pub mod device;
pub mod latency;
pub mod report;
pub mod resource;
pub mod shared_cache;
pub mod store;
pub mod surrogate;

pub use dataflow::DataflowEstimator;
pub use device::FpgaDevice;
pub use latency::NodeEstimate;
pub use report::DesignEstimate;
pub use resource::Resources;
pub use shared_cache::SharedEstimateCache;
pub use store::{EstimateStore, PersistentStoreStats, STORE_VERSION};
