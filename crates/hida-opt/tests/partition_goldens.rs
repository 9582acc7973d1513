//! Array partitions of the paper's subjects, pinned against values recorded
//! before `assign_array_partitions` became a single pass over the nodes.
//!
//! `tests/snapshots/partitions.snap` holds one line per (subject, mode): the
//! number of internal buffers, their total bank count and a stable digest of
//! every buffer's `partition_of` in `internal_buffers` order. A mismatch
//! prints the line computed now; on an intended change, review and paste it.

use hida_frontend::listing1::build_listing1;
use hida_frontend::nn::{build_model, Model};
use hida_ir_core::fingerprint::StableHasher;
use hida_ir_core::{Context, OpId};
use hida_opt::parallelize::partition_of;
use hida_opt::{HidaOptions, ParallelMode, Pipeline};

const SNAPSHOT: &str = include_str!("snapshots/partitions.snap");

const MODES: [ParallelMode; 4] = [
    ParallelMode::IaCa,
    ParallelMode::IaOnly,
    ParallelMode::CaOnly,
    ParallelMode::Naive,
];

fn snapshot_line(
    subject: &str,
    mode: ParallelMode,
    options: HidaOptions,
    build: impl Fn(&mut Context, OpId) -> OpId,
) -> String {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = build(&mut ctx, module);
    let options = HidaOptions { mode, ..options };
    let schedule = Pipeline::from_options(&options)
        .run(&mut ctx, func)
        .unwrap();
    let buffers = schedule.internal_buffers(&ctx);
    let mut digest = StableHasher::new();
    let mut banks = 0;
    for &buffer in &buffers {
        let partition = partition_of(&ctx, buffer);
        banks += partition.bank_count();
        digest.write_bytes(format!("{:?}{:?}", partition.fashions, partition.factors).as_bytes());
    }
    format!(
        "{subject} {} buffers={} banks={banks} digest={}",
        mode.label(),
        buffers.len(),
        digest.finish()
    )
}

fn assert_recorded(line: &str) {
    assert!(
        SNAPSHOT.lines().any(|recorded| recorded == line),
        "partitions drifted from the snapshot; computed now:\n{line}"
    );
}

#[test]
fn listing1_partitions_match_the_recorded_values() {
    for mode in MODES {
        assert_recorded(&snapshot_line(
            "listing1",
            mode,
            HidaOptions::default(),
            |ctx, module| build_listing1(ctx, module).func,
        ));
    }
}

#[test]
fn table8_partitions_match_the_recorded_values() {
    for model in Model::table8() {
        for mode in MODES {
            assert_recorded(&snapshot_line(
                model.name(),
                mode,
                HidaOptions::dnn(),
                |ctx, module| build_model(ctx, module, model),
            ));
        }
    }
}

#[test]
fn snapshot_has_one_line_per_subject_and_mode() {
    assert_eq!(
        SNAPSHOT.lines().count(),
        (1 + Model::table8().len()) * MODES.len()
    );
}
