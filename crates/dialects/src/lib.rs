//! Dialect layer of the HIDA reproduction: the "existing MLIR dialects" of Figure 5.
//!
//! HIDA reuses MLIR's `affine`, `memref`, `tensor`, `linalg` and `arith` dialects plus
//! ScaleHLS's directive IR to represent the program payload at both dataflow levels.
//! This crate provides the equivalent functionality on top of [`hida_ir_core`]:
//!
//! * [`loops`] — `affine.for` loop nests, loop bands, induction variables,
//! * [`memory`] — `memref.alloc`, `affine.load`/`affine.store`, `memref.copy`,
//! * [`arith`] — arithmetic payload ops and their hardware cost classes,
//! * [`linalg`] — named tensor compute ops (convolutions, matmul, pooling, ...)
//!   used by the PyTorch-style front-end,
//! * [`hls`] — HLS directive attributes (pipeline, unroll, array partition, tiling),
//! * [`transforms`] — loop transformations (unroll and pipeline annotation, tile sizes),
//! * [`analysis`] — compute-profile extraction (loop dimensions, memory access
//!   patterns, computational intensity) consumed by HIDA-OPT.

pub mod analysis;
pub mod arith;
pub mod hls;
pub mod linalg;
pub mod loops;
pub mod memory;
pub mod transforms;

pub use analysis::{AccessPattern, BufferAccess, ComputeProfile, MemEffect};
pub use linalg::LinalgOp;
