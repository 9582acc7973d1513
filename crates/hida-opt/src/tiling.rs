//! Loop tiling and external-memory spilling for large dataflow designs.
//!
//! ScaleHLS "must keep all intermediate results on-chip due to the lack of external
//! memory access support"; HIDA instead tiles large layers, keeps only tile-sized
//! local buffers on chip, and streams full feature maps through external memory
//! (paper §7.2, Figure 9 and the Figure 10 tile-size ablation). This pass applies
//! that decision to a structural schedule:
//!
//! * every node whose spatial loop dimensions exceed the tile size gets `tile_sizes`
//!   annotations (consumed by the QoR estimator's burst-efficiency model),
//! * every inter-node buffer whose ping-pong footprint exceeds the threshold is
//!   placed in external memory, and a tile-sized local buffer is added to each node
//!   touching it (the "Tile Load / Tile Comp. / Tile Store" structure of Figure 3).

use hida_dataflow_ir::structural::{build_buffer, ScheduleOp};
use hida_dialects::analysis::{ComputeProfile, MemEffect};
use hida_dialects::hls::MemoryKind;
use hida_dialects::transforms;
use hida_ir_core::{AnalysisManager, Context, OpBuilder, Type};

/// Per-dimension tile sizes for a node: spatial dimensions are clamped to the
/// square tile, reduction dimensions keep their full trip. `None` when the node
/// has no loop structure to tile.
fn tile_sizes_for(profile: &ComputeProfile, tile_size: i64) -> Option<Vec<i64>> {
    if profile.loop_dims.is_empty() {
        return None;
    }
    Some(
        profile
            .loop_dims
            .iter()
            .map(|d| {
                if d.reduction {
                    d.trip
                } else {
                    d.trip.min(tile_size)
                }
            })
            .collect(),
    )
}

/// Applies tiling with the given square tile size and external-memory threshold.
/// Node profiles are fetched through `analyses`: tiling only annotates nodes and
/// adds buffers, so cached profiles (warmed during lowering) are reused as-is.
pub fn apply_tiling(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    tile_size: i64,
    external_threshold_bytes: i64,
) {
    let tile_size = tile_size.max(1);

    // 1. Annotate every node with per-dimension tile sizes.
    for node in schedule.nodes(ctx) {
        let profile = analyses.get::<ComputeProfile>(ctx, node.id());
        if let Some(tiles) = tile_sizes_for(&profile, tile_size) {
            transforms::apply_tile_sizes(ctx, node.id(), &tiles);
        }
    }

    // 2. Spill large inter-node buffers to external memory.
    spill_large_buffers(ctx, schedule, tile_size, external_threshold_bytes);
}

/// Spills every inter-node buffer whose ping-pong footprint exceeds the
/// threshold to external memory, adding a tile-sized local buffer to each node
/// touching it (the "Tile Load / Tile Comp. / Tile Store" structure of
/// Figure 3).
fn spill_large_buffers(
    ctx: &mut Context,
    schedule: ScheduleOp,
    tile_size: i64,
    external_threshold_bytes: i64,
) {
    let tile_size = tile_size.max(1);
    let buffers = schedule.internal_buffers(ctx);
    for buffer in buffers {
        let bytes =
            buffer.num_elements(ctx) * buffer.elem_bits(ctx) as i64 / 8 * buffer.depth(ctx).max(1);
        if bytes <= external_threshold_bytes {
            continue;
        }
        buffer.set_memory_kind(ctx, MemoryKind::External);
        let value = buffer.value(ctx);
        let elem = ctx.value_type(value).elem_type().clone();
        let shape = buffer.shape(ctx);
        let tile_shape: Vec<i64> = shape.iter().map(|&d| d.min(tile_size).max(1)).collect();
        let tile_ty = Type::memref(tile_shape, elem);

        // One local tile buffer per accessing node, declared next to the original.
        let nodes: Vec<_> = schedule
            .nodes(ctx)
            .into_iter()
            .filter(|n| n.operands(ctx).contains(&value))
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            let tile_name = format!("{}_tile{i}", buffer.name(ctx));
            let body = schedule.body(ctx);
            let pos = ctx.block(body).position_of(buffer.id()).unwrap_or(0);
            let local = {
                let mut b = OpBuilder::at_block_index(ctx, body, pos + 1);
                build_buffer(&mut b, tile_ty.clone(), 2, &tile_name).1
            };
            node.add_operand(ctx, local, MemEffect::ReadWrite);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_functional_dataflow;
    use crate::fusion::{default_fusion_patterns, fuse_tasks};
    use crate::lower::lower_to_structural;
    use hida_frontend::nn::{build_model, Model};

    fn lenet_schedule() -> (Context, ScheduleOp) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::LeNet);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let mut analyses = AnalysisManager::new();
        fuse_tasks(&mut ctx, &mut analyses, func, &default_fusion_patterns()).unwrap();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, func).unwrap();
        (ctx, schedule)
    }

    #[test]
    fn tiling_annotates_nodes_and_spills_large_buffers() {
        let (mut ctx, schedule) = lenet_schedule();
        let before_buffers = schedule.internal_buffers(&ctx).len();
        let mut analyses = AnalysisManager::new();
        apply_tiling(&mut ctx, &mut analyses, schedule, 4, 1024);
        // Every node has tile sizes recorded.
        for node in schedule.nodes(&ctx) {
            let profile = analyses.get::<ComputeProfile>(&ctx, node.id());
            if profile.loop_dims.is_empty() {
                continue;
            }
            let tiles = transforms::tile_sizes_of(&ctx, node.id());
            let tiles = tiles.expect("tile sizes must be recorded");
            for (tile, dim) in tiles.iter().zip(&profile.loop_dims) {
                assert!(*tile <= dim.trip.max(1));
                if !dim.reduction {
                    assert!(*tile <= 4);
                }
            }
        }
        // At least one activation buffer was spilled (LeNet's 6x28x28 feature map is
        // ~4.7 KB > 1 KB threshold) and tile-local buffers were added.
        let external = schedule
            .internal_buffers(&ctx)
            .iter()
            .filter(|b| b.memory_kind(&ctx) == MemoryKind::External)
            .count();
        assert!(external >= 1);
        assert!(schedule.internal_buffers(&ctx).len() > before_buffers);
        hida_ir_core::verifier::verify(&ctx, ctx.ancestors(schedule.id()).pop().unwrap()).unwrap();
    }

    #[test]
    fn small_buffers_stay_on_chip_with_generous_threshold() {
        let (mut ctx, schedule) = lenet_schedule();
        apply_tiling(
            &mut ctx,
            &mut AnalysisManager::new(),
            schedule,
            8,
            10 * 1024 * 1024,
        );
        let external = schedule
            .internal_buffers(&ctx)
            .iter()
            .filter(|b| b.memory_kind(&ctx) == MemoryKind::External)
            .count();
        // Only the input buffer (already external from lowering) remains external.
        assert!(external <= 1);
    }
}
