//! Regenerates Tables 4, 5 and 6: connection maps, parallelization results and array
//! partition results for the Listing 1 running example.
//!
//! Each table is produced by a *pipeline string* parsed through the pass
//! registry — the same text the `hida-opt` CLI accepts: Table 4 runs
//! `construct,lower` and analyzes the resulting schedule; Tables 5 and 6 append
//! a `parallelize{mode=...}` invocation carrying the ablated parallelization
//! mode. Per-pass statistics of the executed pipelines are printed at the end.

use hida::dialects::transforms;
use hida::ir::Context;
use hida::opt::{parallelize, ParallelMode};
use hida::{registry, PassStatistics, Pipeline};

fn fmt_perm(perm: &[Option<usize>]) -> String {
    let cells: Vec<String> = perm
        .iter()
        .map(|p| p.map(|i| i.to_string()).unwrap_or_else(|| "∅".into()))
        .collect();
    format!("[{}]", cells.join(", "))
}

fn fmt_scale(scale: &[Option<f64>]) -> String {
    let cells: Vec<String> = scale
        .iter()
        .map(|p| p.map(|s| format!("{s}")).unwrap_or_else(|| "∅".into()))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// The construct→lower pipeline shared by every table (Table 4 stops here).
const STRUCTURAL_PIPELINE: &str = "construct,lower";

/// The Table 5/6 pipeline variant: structural lowering plus a parallelization
/// invocation carrying the ablated mode.
fn parallelizing_variant(mode: ParallelMode) -> String {
    format!(
        "{STRUCTURAL_PIPELINE},parallelize{{max-factor=32,mode={},device=pynq-z2}}",
        mode.label()
    )
}

/// Parses one variant through the HIDA pass registry.
fn pipeline_of(text: &str) -> Pipeline {
    Pipeline::parse(&registry(), text).expect("variant pipeline parses")
}

fn listing1_schedule(
    pipeline: &mut Pipeline,
) -> (Context, hida::dataflow_ir::structural::ScheduleOp) {
    let mut ctx = Context::new();
    let module = ctx.create_module("listing1");
    let l1 = hida::frontend::listing1::build_listing1(&mut ctx, module);
    let schedule = pipeline.run(&mut ctx, l1.func).unwrap();
    (ctx, schedule)
}

fn print_statistics(title: &str, statistics: &[PassStatistics]) {
    println!("\n# Pipeline statistics — {title}");
    for stat in statistics {
        println!("{stat}");
    }
}

fn main() {
    // Table 4: connection analysis over the un-parallelized structural dataflow.
    let mut pipeline = pipeline_of(STRUCTURAL_PIPELINE);
    let (ctx, schedule) = listing1_schedule(&mut pipeline);
    // Reuse the analysis cache the pipeline's passes populated: the node
    // profiles behind the connection maps were already computed during lowering.
    let (graph, profiles) = parallelize::schedule_profiles(&ctx, pipeline.analyses_mut(), schedule);
    let connections = parallelize::analyze_connections(&graph, &profiles);
    println!("# Table 4 — node connections of Listing 1");
    println!("source -> target | S-to-T perm | T-to-S perm | S-to-T scale | T-to-S scale");
    for c in connections.iter() {
        println!(
            "{} -> {} | {} | {} | {} | {}",
            c.source.name(&ctx),
            c.target.name(&ctx),
            fmt_perm(c.s_to_t_perm()),
            fmt_perm(c.t_to_s_perm()),
            fmt_scale(c.s_to_t_scale()),
            fmt_scale(c.t_to_s_scale()),
        );
    }
    print_statistics("construct→lower", pipeline.statistics());

    // Tables 5 and 6: parallelization and partitioning per mode, max parallel factor 32.
    for mode in [
        ParallelMode::IaCa,
        ParallelMode::IaOnly,
        ParallelMode::CaOnly,
        ParallelMode::Naive,
    ] {
        let variant = parallelizing_variant(mode);
        let mut pipeline = pipeline_of(&variant);
        println!("\n# Variant pipeline ({}): {variant}", mode.label());
        let (ctx, schedule) = listing1_schedule(&mut pipeline);

        println!("\n# Table 5 ({}) — node parallelization", mode.label());
        for node in schedule.nodes(&ctx) {
            let rank = pipeline
                .analyses_mut()
                .get::<hida::dialects::analysis::ComputeProfile>(&ctx, node.id())
                .loop_dims
                .len();
            println!(
                "{:<10} intensity {:<8} parallel factor {:<4} unroll {:?}",
                node.name(&ctx),
                ctx.op(node.id()).attr_int("intensity").unwrap_or(0),
                ctx.op(node.id()).attr_int("parallel_factor").unwrap_or(0),
                transforms::unroll_factors_of(&ctx, node.id(), rank),
            );
        }
        println!("# Table 6 ({}) — array partitions", mode.label());
        for buffer in schedule.internal_buffers(&ctx) {
            let p = buffer.partition(&ctx);
            println!(
                "array {:<6} factors {:?} banks {}",
                buffer.name(&ctx),
                p.factors,
                p.bank_count()
            );
        }
        print_statistics(mode.label(), pipeline.statistics());
    }
}
