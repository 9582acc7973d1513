//! HIDA-OPT: the hierarchical dataflow optimizer (paper §6).
//!
//! The optimizer decomposes the dataflow optimization problem into five steps, each
//! implemented as a pass over the IR:
//!
//! 1. [`construct`] — Functional dataflow construction (Algorithm 1): wrap
//!    dispatchable regions into `hida.dispatch` and every compute op into a
//!    `hida.task`.
//! 2. [`fusion`] — Functional dataflow optimization (Algorithm 2): pattern-driven
//!    and criticality-driven task fusion, then hierarchy canonicalization.
//! 3. [`lower`] — Structural dataflow construction: tensors become ping-pong
//!    `hida.buffer`s, tasks become isolated `hida.node`s with explicit memory
//!    effects inside a `hida.schedule`.
//! 4. [`structural_opt`] — multi-producer elimination (Algorithm 3) and data-path
//!    balancing (on-chip buffer deepening / soft FIFOs with token flow).
//! 5. [`parallelize`] — intensity- and connection-aware parallelization
//!    (Algorithm 4), followed by connection-aware array partitioning.
//!
//! # Pass-pipeline architecture
//!
//! The steps are not hard-wired: each is one variant of
//! [`HidaPass`], a [`Pass`](hida_ir_core::Pass). A [`Pipeline`] is parsed
//! from text — the standard flow from the text of its [`HidaOptions`]
//! ([`Pipeline::from_options`]: boolean options become pipeline membership,
//! scalar knobs become pass-instance options) — and run by
//! [`run_passes`](hida_ir_core::run_passes), which verifies the IR between
//! passes and records per-pass
//! [`PassStatistics`](hida_ir_core::PassStatistics) (wall-clock time, op deltas,
//! configured options). Passes hand each other the IR and nothing else: the
//! structural `ScheduleOp` lowering appends to the function body is where
//! later passes find it.
//!
//! Structural facts the passes keep re-asking for — compute profiles of
//! task/node bodies, the dataflow graph of a schedule — are fetched through the
//! [`AnalysisManager`](hida_ir_core::analysis::AnalysisManager) the runner
//! threads through every pass: results are cached per (analysis, root
//! op) and invalidated by the context's mutation generation, and each pass
//! declares the analyses its edits provably keep intact
//! ([`Pass::preserved_analyses`](hida_ir_core::Pass::preserved_analyses)), so
//! e.g. tiling and parallelization consume the profiles lowering computed as
//! pure cache hits. Per-pass hit/miss counters land in the recorded
//! statistics.
//!
//! # Textual pipelines and the pass table
//!
//! The seven passes are a static table in the [`registry`](mod@registry)
//! module — canonical name, `hida-*` alias, description, documented options —
//! so ablations and custom flows are plain *strings*:
//! `Pipeline::parse(&registry(), "construct,lower,parallelize{max-factor=8}")`.
//! Parsing is the one way a pipeline is built: [`Pipeline::from_options`]
//! renders its options as text ([`HidaOptions::pipeline_text`]) and parses it
//! back, so an option the table rejects is rejected whichever way it came,
//! and [`Pipeline::to_text`] round-trips every pipeline. The `hida-opt` CLI
//! binary exposes the same surface from the command line (`--pipeline`,
//! `--list-passes`).

pub mod construct;
pub mod fusion;
pub mod lower;
pub mod parallelize;
pub mod pipeline;
pub mod registry;
pub mod structural_opt;
pub mod tiling;

pub use pipeline::{Checkpoint, HidaPass, Pipeline};
pub use registry::{registry, registry_listing, PipelineError, Registry};

use hida_estimator::device::FpgaDevice;

/// Parallelization strategy, used by the Figure 11 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelMode {
    /// Intensity-aware and connection-aware (the full HIDA approach).
    IaCa,
    /// Intensity-aware only: per-node budgets, no inter-node alignment constraints.
    IaOnly,
    /// Connection-aware only: alignment constraints, uniform per-node budgets.
    CaOnly,
    /// Neither: every node receives the maximum parallel factor.
    Naive,
}

impl ParallelMode {
    /// True when parallel factors are scaled by node intensity.
    pub fn intensity_aware(self) -> bool {
        matches!(self, ParallelMode::IaCa | ParallelMode::IaOnly)
    }

    /// True when inter-node connections constrain unroll factors and partitions.
    pub fn connection_aware(self) -> bool {
        matches!(self, ParallelMode::IaCa | ParallelMode::CaOnly)
    }

    /// Short label used in reports ("IA+CA", "IA", "CA", "Naive").
    pub fn label(self) -> &'static str {
        match self {
            ParallelMode::IaCa => "IA+CA",
            ParallelMode::IaOnly => "IA",
            ParallelMode::CaOnly => "CA",
            ParallelMode::Naive => "Naive",
        }
    }

    /// Parses a report label back into a mode, case-insensitively; the inverse of
    /// [`ParallelMode::label`], used by the textual pipeline syntax's `mode=`
    /// option (`"ia+ca"` and `"iaca"` are both accepted).
    pub fn from_label(label: &str) -> Option<ParallelMode> {
        match label.to_ascii_lowercase().as_str() {
            "ia+ca" | "iaca" => Some(ParallelMode::IaCa),
            "ia" => Some(ParallelMode::IaOnly),
            "ca" => Some(ParallelMode::CaOnly),
            "naive" => Some(ParallelMode::Naive),
            _ => None,
        }
    }
}

/// Configuration of one HIDA compilation.
#[derive(Debug, Clone)]
pub struct HidaOptions {
    /// Maximum parallel factor granted to any single node.
    pub max_parallel_factor: i64,
    /// Spatial tile size applied to large layers (None = untiled).
    pub tile_size: Option<i64>,
    /// Buffers larger than this many bytes are spilled to external memory
    /// (soft FIFO) when tiling is enabled.
    pub external_threshold_bytes: i64,
    /// Target device: what a compilation estimates QoR against. Its name is
    /// also the `device` option of the `parallelize` invocation, so it must
    /// be in `FpgaDevice::catalog()`; Algorithm 4 itself does not read it.
    pub device: FpgaDevice,
}

impl Default for HidaOptions {
    fn default() -> Self {
        HidaOptions {
            max_parallel_factor: 32,
            tile_size: Some(8),
            external_threshold_bytes: 64 * 1024,
            device: FpgaDevice::vu9p_slr(),
        }
    }
}

impl HidaOptions {
    /// Options tuned for the small PolyBench kernels on the ZU3EG device.
    pub fn polybench() -> Self {
        HidaOptions {
            max_parallel_factor: 16,
            tile_size: None,
            device: FpgaDevice::zu3eg(),
            external_threshold_bytes: 512 * 1024,
        }
    }

    /// Options tuned for the DNN models on one VU9P SLR.
    pub fn dnn() -> Self {
        HidaOptions {
            max_parallel_factor: 256,
            tile_size: Some(16),
            device: FpgaDevice::vu9p_slr(),
            ..HidaOptions::default()
        }
    }

    /// Renders these options as a textual pipeline (see [`registry()`]): the single
    /// source of truth for the standard HIDA-OPT flow — every pass, with
    /// IA+CA parallelization — whose scalar knobs become pass options, and
    /// `tile_size: None` drops the tiling pass. Any other flow (no fusion, no
    /// balancing, another parallelization mode) is a pipeline string of its
    /// own.
    ///
    /// The target device is carried *by name*; the pass table accepts only
    /// the catalog devices resolvable through `FpgaDevice::by_name`.
    pub fn pipeline_text(&self) -> String {
        let threshold = self.external_threshold_bytes;
        let tiling = match self.tile_size {
            Some(tile_size) => {
                format!("tiling{{factor={tile_size},external-threshold-bytes={threshold}}},")
            }
            None => String::new(),
        };
        format!(
            "construct,fusion,lower,multi-producer-elim,{tiling}\
             balance{{external-threshold-bytes={threshold}}},\
             parallelize{{max-factor={},mode={},device={}}}",
            self.max_parallel_factor,
            ParallelMode::IaCa.label(),
            self.device.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_estimator::dataflow::DataflowEstimator;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_ir_core::Context;

    #[test]
    fn end_to_end_pipeline_produces_a_parallelized_schedule() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 32);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx, func)
            .unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();

        let nodes = schedule.nodes(&ctx);
        assert!(
            nodes.len() >= 2,
            "2mm must produce at least two dataflow nodes"
        );
        // Every node received unroll factors.
        for node in &nodes {
            let f = hida_dialects::transforms::unroll_factors_of(&ctx, node.id(), 3);
            assert!(f.iter().product::<i64>() >= 1);
        }
        // The design is estimable and faster with dataflow than without.
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let with_df = est.estimate(&ctx, schedule.id(), true);
        let without_df = est.estimate(&ctx, schedule.id(), false);
        assert!(with_df.throughput() > without_df.throughput());
    }

    #[test]
    fn parallel_mode_labels_round_trip() {
        for mode in [
            ParallelMode::IaCa,
            ParallelMode::IaOnly,
            ParallelMode::CaOnly,
            ParallelMode::Naive,
        ] {
            assert_eq!(ParallelMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(ParallelMode::from_label("iaca"), Some(ParallelMode::IaCa));
        assert_eq!(ParallelMode::from_label("NAIVE"), Some(ParallelMode::Naive));
        assert_eq!(ParallelMode::from_label("turbo"), None);
    }

    #[test]
    fn options_render_as_pipeline_text() {
        assert_eq!(
            HidaOptions::default().pipeline_text(),
            "construct,fusion,lower,multi-producer-elim,\
             tiling{factor=8,external-threshold-bytes=65536},\
             balance{external-threshold-bytes=65536},\
             parallelize{max-factor=32,mode=IA+CA,device=vu9p-slr}"
        );
        // No tile size, no tiling pass.
        assert_eq!(
            HidaOptions::polybench().pipeline_text(),
            "construct,fusion,lower,multi-producer-elim,\
             balance{external-threshold-bytes=524288},\
             parallelize{max-factor=16,mode=IA+CA,device=zu3eg}"
        );
        assert_eq!(
            HidaOptions::dnn().pipeline_text(),
            "construct,fusion,lower,multi-producer-elim,\
             tiling{factor=16,external-threshold-bytes=65536},\
             balance{external-threshold-bytes=65536},\
             parallelize{max-factor=256,mode=IA+CA,device=vu9p-slr}"
        );
    }

    #[test]
    fn parallel_mode_flags() {
        assert!(ParallelMode::IaCa.intensity_aware() && ParallelMode::IaCa.connection_aware());
        assert!(ParallelMode::IaOnly.intensity_aware() && !ParallelMode::IaOnly.connection_aware());
        assert!(!ParallelMode::CaOnly.intensity_aware() && ParallelMode::CaOnly.connection_aware());
        assert!(!ParallelMode::Naive.intensity_aware() && !ParallelMode::Naive.connection_aware());
        assert_eq!(ParallelMode::IaCa.label(), "IA+CA");
    }

    #[test]
    fn default_options_are_sane() {
        let opts = HidaOptions::default();
        assert!(opts.max_parallel_factor > 1);
        assert_eq!(HidaOptions::polybench().device.name, "zu3eg");
        assert_eq!(HidaOptions::dnn().device.name, "vu9p-slr");
    }
}
