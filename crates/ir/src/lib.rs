//! Core SSA intermediate-representation substrate for the HIDA reproduction.
//!
//! The original HIDA system is built on MLIR. This crate provides the subset of
//! MLIR's representational machinery that HIDA-IR and HIDA-OPT rely on, implemented
//! from scratch in safe Rust:
//!
//! * an arena-based [`Context`] owning operations, blocks, regions and values,
//! * a generic [`Operation`] carrying operands, results, attributes and nested
//!   regions (enabling arbitrary design hierarchy, exactly like MLIR regions),
//! * a structural [`Type`] system (integers, floats, index, tensor, memref, stream),
//! * named [`Attribute`]s with compile-time-known values,
//! * an [`OpBuilder`] with insertion points,
//! * a textual [printer], a structural [verifier],
//! * pre/post-order [walkers](walk), use-def chains and replace-all-uses,
//! * a [pattern rewriting](rewrite) driver and a [pass manager](pass),
//! * a cached [analysis manager](analysis) with generation-based invalidation
//!   and per-pass preservation declarations,
//! * a std-only work-stealing [pool](par) on which a sweep compiles its design
//!   points concurrently (a single compilation starts no thread).
//!
//! # Example
//!
//! ```
//! use hida_ir_core::{Context, OpBuilder, Type};
//!
//! let mut ctx = Context::new();
//! let module = ctx.create_module("example");
//! let func = OpBuilder::at_end_of(&mut ctx, module).create_func("main", vec![], vec![]);
//! let cst = OpBuilder::at_end_of(&mut ctx, func).create_constant_int(42, Type::i32());
//! assert_eq!(ctx.value_type(cst), &Type::i32());
//! let text = hida_ir_core::printer::print_op(&ctx, module);
//! assert!(text.contains("arith.constant"));
//! ```

pub mod analysis;
pub mod attributes;
pub mod builder;
pub mod context;
pub mod entities;
pub mod error;
pub mod fault;
pub mod fingerprint;
pub mod ids;
pub mod intern;
pub mod operation;
pub mod par;
pub mod parse;
pub mod pass;
pub mod printer;
pub mod registry;
pub mod rewrite;
pub mod storage;
pub mod types;
pub mod verifier;
pub mod walk;

pub use analysis::{Analysis, AnalysisCacheStats, AnalysisManager, PreservedAnalyses};
pub use attributes::{AttrMap, Attribute};
pub use builder::OpBuilder;
pub use context::Context;
pub use entities::{Block, Region, Value, ValueDef};
pub use error::{IrError, IrResult};
pub use fault::{
    lock_recover, CancelToken, CancelUnwind, FaultKind, FaultPlan, PointFaults, WorkerFault,
};
pub use fingerprint::{
    structural_fingerprint, structural_fingerprint_filtered, structural_fingerprint_with,
    Fingerprint, StableHasher,
};
pub use ids::{BlockId, OpId, RegionId, ValueId};
pub use intern::{InternTable, Symbol};
pub use operation::{OpName, Operation};
pub use par::{default_jobs, ParallelStats};
pub use parse::{
    parse_module, parse_module_into, parse_pipeline, print_pipeline, IrParseError, PassInvocation,
    PipelineParseError,
};
pub use pass::{Pass, PassManager, PassOption, PassStatistics, PipelineState, RunState, Verified};
pub use registry::{OptionSpec, PassRegistry, PassSpec, PipelineError};
pub use rewrite::{apply_patterns_greedily, RewritePattern};
pub use storage::{EntityMap, EntitySet, IdList};
pub use types::Type;
pub use walk::{walk_ops_postorder, walk_ops_preorder, WalkOrder};

/// Well-known operation names used across the workspace.
///
/// Dialect crates define their own constants too; the ones here are needed by the
/// core infrastructure itself (module / function / generic terminators).
pub mod op_names {
    /// Top-level container operation. Owns a single region with a single block.
    pub const MODULE: &str = "builtin.module";
    /// Callable function operation. Owns a single region; isolated from above.
    pub const FUNC: &str = "func.func";
    /// Function terminator returning zero or more values.
    pub const RETURN: &str = "func.return";
    /// Generic region terminator yielding zero or more values to the parent op.
    pub const YIELD: &str = "builtin.yield";
    /// Integer/float constant operation (attribute `value`).
    pub const CONSTANT: &str = "arith.constant";
    /// Unrealized placeholder op used in tests.
    pub const UNREALIZED: &str = "builtin.unrealized";
}
