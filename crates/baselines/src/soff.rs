//! SOFF-style baseline.
//!
//! SOFF is an OpenCL HLS framework with static scheduling: it parallelizes work-items
//! uniformly across a kernel but does not build coarse-grained dataflow pipelines or
//! align memory layouts across kernels. We model it as a single sequential task with
//! a fixed, uniform unroll factor on the innermost loop band and matching naive
//! partitioning — the behaviour that produces the mixed results of Table 7 (better
//! than Vitis, usually behind HIDA, occasionally ahead on simple kernels).

use hida_dialects::hls::{write_array_partition, ArrayPartition};
use hida_dialects::loops;
use hida_dialects::transforms;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::device::FpgaDevice;
use hida_estimator::report::DesignEstimate;
use hida_ir_core::{Context, OpId};

/// The uniform unroll factor applied by the SOFF-style baseline.
pub const SOFF_UNROLL: i64 = 8;

/// Applies the SOFF-style static schedule to `func`.
pub fn compile(ctx: &mut Context, func: OpId) -> OpId {
    for outer in loops::top_level_loops(ctx, func) {
        let band = loops::loop_band(ctx, outer.id());
        // Unroll the innermost loop of every band by the uniform factor.
        let mut factors = vec![1_i64; band.len()];
        if let Some(last) = factors.last_mut() {
            *last = SOFF_UNROLL;
        }
        let _ = transforms::apply_unroll_to_band(ctx, &band, &factors);
        transforms::pipeline_innermost(ctx, &band, 1);
    }
    // Partition every function-level array cyclically on its last dimension.
    for alloc in ctx.collect_ops(func, hida_dialects::memory::ALLOC) {
        let value = ctx.op(alloc).results[0];
        let rank = ctx.value_type(value).shape().map(|s| s.len()).unwrap_or(0);
        if rank == 0 {
            continue;
        }
        let mut factors = vec![1_i64; rank];
        factors[rank - 1] = SOFF_UNROLL;
        let partition = ArrayPartition::cyclic(factors);
        write_array_partition(ctx, alloc, &partition.fashions, &partition.factors);
    }
    func
}

/// Compiles and estimates `func` as a SOFF-style sequential design.
pub fn estimate(ctx: &mut Context, func: OpId, device: &FpgaDevice) -> DesignEstimate {
    compile(ctx, func);
    DataflowEstimator::new(device.clone()).estimate(ctx, func, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vitis;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};

    #[test]
    fn soff_unrolls_innermost_loops_and_partitions_arrays() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::Mvt, 64);
        compile(&mut ctx, func);
        let innermost_unrolled = loops::all_loops(&ctx, func)
            .iter()
            .filter(|l| l.is_innermost(&ctx) && l.unroll_factor(&ctx) == SOFF_UNROLL)
            .count();
        assert!(innermost_unrolled >= 2);
    }

    #[test]
    fn soff_is_faster_than_plain_vitis() {
        let device = FpgaDevice::zu3eg();
        let mut ctx_s = Context::new();
        let module = ctx_s.create_module("m");
        let f_s = build_kernel(&mut ctx_s, module, PolybenchKernel::Gesummv, 64);
        let soff = estimate(&mut ctx_s, f_s, &device);

        let mut ctx_v = Context::new();
        let module = ctx_v.create_module("m");
        let f_v = build_kernel(&mut ctx_v, module, PolybenchKernel::Gesummv, 64);
        let vit = vitis::estimate(&mut ctx_v, f_v, &device);
        assert!(soff.throughput() > vit.throughput());
    }
}
