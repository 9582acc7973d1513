//! Grammar-level tests of the textual pipeline syntax against the real HIDA
//! pass registry: structured parse errors, registry resolution failures, and a
//! property-based `parse(print(p)) == p` round-trip over randomly composed
//! pipelines.

use hida_ir_core::registry::PipelineError;
use hida_ir_core::{parse_pipeline, print_pipeline, PassInvocation, PassOption};
use hida_opt::{registry, Pipeline};
use proptest::prelude::*;

fn parse_err(text: &str) -> PipelineError {
    match Pipeline::parse(&registry(), text) {
        Ok(_) => panic!("expected '{text}' to fail"),
        Err(e) => e,
    }
}

#[test]
fn bad_pass_name_reports_the_registered_passes() {
    // A typo, and `profile`: the registry holds the paper's seven passes, not
    // the node-profiling warm-up that used to sit beside them.
    for (text, unknown) in [
        ("construct,lowerr", "lowerr"),
        ("construct,lower,profile,parallelize", "profile"),
    ] {
        let err = parse_err(text);
        match &err {
            PipelineError::UnknownPass { name, known } => {
                assert_eq!(name, unknown);
                assert_eq!(known.len(), 7);
                assert!(known.contains(&"lower".to_string()));
            }
            other => panic!("expected UnknownPass, got {other}"),
        }
        assert!(err
            .to_string()
            .starts_with(&format!("unknown pass '{unknown}'")));
    }
}

#[test]
fn malformed_option_is_a_positioned_parse_error() {
    let err = parse_err("tiling{factor~4}");
    match err {
        PipelineError::Parse(parse) => {
            assert_eq!(parse.expected, "'='");
            assert_eq!(parse.found, "'~'");
            assert_eq!(parse.position, 13);
        }
        other => panic!("expected Parse, got {other}"),
    }
    let err = parse_err("tiling{factor=}");
    assert!(matches!(err, PipelineError::Parse(_)));
    assert!(err.to_string().contains("expected option value"));
}

#[test]
fn trailing_comma_is_a_positioned_parse_error() {
    let err = parse_err("construct,fusion,");
    match err {
        PipelineError::Parse(parse) => {
            assert_eq!(parse.expected, "pass name");
            assert_eq!(parse.found, "end of input");
            assert_eq!(parse.position, 17);
        }
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn option_rejections_name_the_canonical_pass() {
    let err = parse_err("hida-tiling{factor=-2}");
    match &err {
        PipelineError::InvalidOption { pass, reason } => {
            assert_eq!(pass, "tiling");
            assert!(reason.contains("must be >= 1"), "{reason}");
        }
        other => panic!("expected InvalidOption, got {other}"),
    }
}

#[test]
fn acceptance_pipeline_parses_and_round_trips() {
    let text = "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize";
    let pipeline = Pipeline::parse(&registry(), text).unwrap();
    assert_eq!(pipeline.len(), 7);
    let reparsed = Pipeline::parse(&registry(), &pipeline.to_text()).unwrap();
    assert_eq!(reparsed.invocations(), pipeline.invocations());
    assert_eq!(reparsed.to_text(), pipeline.to_text());
}

const PASS_POOL: [&str; 7] = [
    "construct",
    "fusion",
    "lower",
    "multi-producer-elim",
    "tiling",
    "balance",
    "parallelize",
];

proptest! {
    /// The raw grammar (no registry): printing any invocation list and parsing
    /// it back is the identity.
    #[test]
    fn grammar_round_trip_over_random_invocations(
        names in prop::collection::vec(0_usize..7, 1..6),
        values in prop::collection::vec(1_i64..512, 1..4),
    ) {
        // Compose invocations from the pass pool with synthetic options; the raw
        // grammar does not care whether the options are meaningful.
        let invocations: Vec<PassInvocation> = names
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                let options: Vec<PassOption> = values
                    .iter()
                    .take(i % (values.len() + 1))
                    .enumerate()
                    .map(|(j, v)| PassOption::new(format!("opt{j}"), v))
                    .collect();
                PassInvocation::with_options(PASS_POOL[idx], options)
            })
            .collect();
        let text = print_pipeline(&invocations);
        prop_assert_eq!(parse_pipeline(&text).unwrap(), invocations);
    }

    /// Registry-normalized pipelines reach a fixpoint after one normalization:
    /// `parse(print(p)) == p` for every parsed pipeline `p`.
    #[test]
    fn registry_round_trip_over_random_pipelines(
        passes in prop::collection::vec(0_usize..7, 1..8),
        tile_factor in 1_i64..64,
        max_factor in 1_i64..256,
        threshold in prop::sample::select(vec![1024_i64, 65536, 524288]),
        mode in prop::sample::select(vec!["IA+CA", "IA", "CA", "Naive"]),
        device in prop::sample::select(vec!["pynq-z2", "zu3eg", "vu9p-slr"]),
        patterns in prop::sample::select(vec![
            "",
            "{patterns=elementwise-fusion}",
            "{patterns=conv-pool-fusion}",
            "{patterns=elementwise-fusion+conv-pool-fusion}",
        ]),
    ) {
        let rendered: Vec<String> = passes
            .iter()
            .map(|&idx| match PASS_POOL[idx] {
                "fusion" => format!("fusion{patterns}"),
                "tiling" => {
                    format!("tiling{{factor={tile_factor},external-threshold-bytes={threshold}}}")
                }
                "balance" => format!("balance{{external-threshold-bytes={threshold}}}"),
                "parallelize" => format!(
                    "parallelize{{max-factor={max_factor},mode={mode},device={device}}}"
                ),
                bare => bare.to_string(),
            })
            .collect();
        let registry = registry();
        let pipeline = Pipeline::parse(&registry, &rendered.join(",")).unwrap();
        let reparsed = Pipeline::parse(&registry, &pipeline.to_text()).unwrap();
        prop_assert_eq!(reparsed.invocations(), pipeline.invocations());
        prop_assert_eq!(reparsed.to_text(), pipeline.to_text());
        prop_assert_eq!(reparsed.pass_names(), pipeline.pass_names());
    }
}
