//! The HIDA-OPT pass registry: a static table of the seven optimizer passes,
//! with their knobs as named options, so pipelines are assembled from text
//! (`construct,fusion,lower,...`).
//!
//! Each pass resolves under a short canonical name *and* its long `hida-*`
//! instance name (the one recorded in `PassStatistics`), so a pipeline printed
//! from live pass instances re-parses:
//!
//! | canonical | alias | options |
//! |-----------|-------|---------|
//! | `construct` | `hida-construct-dataflow` | — |
//! | `fusion` | `hida-task-fusion` | `patterns` |
//! | `lower` | `hida-lower-structural` | — |
//! | `multi-producer-elim` | `hida-eliminate-multi-producers` | — |
//! | `tiling` | `hida-tiling` | `factor`/`tile-size`, `external-threshold-bytes` |
//! | `balance` | `hida-balance-data-paths` | `external-threshold-bytes` |
//! | `parallelize` | `hida-parallelize` | `max-factor`/`max-parallel-factor`, `mode`, `device` |
//!
//! [`PASSES`] is the table; [`Registry::create`] turns one parsed invocation
//! into its pass; [`registry_listing`] renders the table for the `hida-opt
//! --list-passes` CLI surface.

use crate::fusion::{ConvPoolFusion, ElementwiseFusion, FusionPattern};
use crate::pipeline::HidaPass;
use crate::ParallelMode;
use hida_estimator::device::FpgaDevice;
use hida_ir_core::{Interned, PassInvocation, PassOption, PipelineParseError};
use std::error::Error;
use std::fmt::{self, Write as _};

/// One documented option of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionDoc {
    /// Option name as written in pipeline text.
    pub name: &'static str,
    /// A second spelling of the same option, when it has one.
    pub alias: Option<&'static str>,
    /// One-line human-readable description.
    pub description: &'static str,
    /// The value an invocation that omits the option gets.
    pub default: &'static str,
}

impl OptionDoc {
    fn accepts(&self, name: &str) -> bool {
        self.name == name || self.alias == Some(name)
    }
}

/// One pass of the table: its names and its documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    /// Canonical pass name.
    pub name: &'static str,
    /// The pass instance's own `hida-*` name, accepted as a second spelling.
    pub alias: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Documented options.
    pub options: &'static [OptionDoc],
}

const EXTERNAL_THRESHOLD_DEFAULT: &str = "65536";

/// The seven HIDA-OPT passes, in flow order.
pub static PASSES: [PassInfo; 7] = [
    PassInfo {
        name: "construct",
        alias: "hida-construct-dataflow",
        description: "functional dataflow construction: wrap regions into hida.dispatch/hida.task (Algorithm 1)",
        options: &[],
    },
    PassInfo {
        name: "fusion",
        alias: "hida-task-fusion",
        description: "pattern- and criticality-driven task fusion (Algorithm 2)",
        options: &[OptionDoc {
            name: "patterns",
            alias: None,
            description: "'+'-separated fusion pattern names",
            default: "elementwise-fusion+conv-pool-fusion",
        }],
    },
    PassInfo {
        name: "lower",
        alias: "hida-lower-structural",
        description: "structural dataflow construction: lower to hida.schedule/node/buffer (paper \u{a7}6.3)",
        options: &[],
    },
    PassInfo {
        name: "multi-producer-elim",
        alias: "hida-eliminate-multi-producers",
        description: "multi-producer elimination via buffer duplication / producer fusion (Algorithm 3)",
        options: &[],
    },
    PassInfo {
        name: "tiling",
        alias: "hida-tiling",
        description: "loop tiling plus external-memory spilling of oversized buffers (paper \u{a7}7.2)",
        options: &[
            OptionDoc {
                name: "factor",
                alias: Some("tile-size"),
                description: "square spatial tile size (alias: tile-size)",
                default: "8",
            },
            OptionDoc {
                name: "external-threshold-bytes",
                alias: None,
                description: "buffers above this many bytes spill to external memory",
                default: EXTERNAL_THRESHOLD_DEFAULT,
            },
        ],
    },
    PassInfo {
        name: "balance",
        alias: "hida-balance-data-paths",
        description: "data-path balancing: buffer deepening and soft FIFOs with token flow (paper \u{a7}6.4.2)",
        options: &[OptionDoc {
            name: "external-threshold-bytes",
            alias: None,
            description: "deepened buffers above this many bytes become soft FIFOs",
            default: EXTERNAL_THRESHOLD_DEFAULT,
        }],
    },
    PassInfo {
        name: "parallelize",
        alias: "hida-parallelize",
        description: "intensity- and connection-aware parallelization plus array partitioning (Algorithm 4)",
        options: &[
            OptionDoc {
                name: "max-factor",
                alias: Some("max-parallel-factor"),
                description: "maximum parallel factor per node (alias: max-parallel-factor)",
                default: "32",
            },
            OptionDoc {
                name: "mode",
                alias: None,
                description: "parallelization strategy: IA+CA, IA, CA or Naive",
                default: "IA+CA",
            },
            OptionDoc {
                name: "device",
                alias: None,
                description: "catalog device: pynq-z2, zu3eg or vu9p-slr",
                default: "vu9p-slr",
            },
        ],
    },
];

/// Error raised while turning pipeline text into runnable passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The pipeline text itself was malformed.
    Parse(PipelineParseError),
    /// A pass name did not resolve in the table.
    UnknownPass {
        /// The unresolved name.
        name: String,
        /// Canonical names of all passes, in flow order.
        known: Vec<String>,
    },
    /// A pass rejected its options.
    InvalidOption {
        /// Canonical name of the pass.
        pass: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::UnknownPass { name, known } => write!(
                f,
                "unknown pass '{name}' (registered passes: {})",
                known.join(", ")
            ),
            PipelineError::InvalidOption { pass, reason } => {
                write!(f, "invalid options for pass '{pass}': {reason}")
            }
        }
    }
}

impl Error for PipelineError {}

impl From<PipelineParseError> for PipelineError {
    fn from(e: PipelineParseError) -> Self {
        PipelineError::Parse(e)
    }
}

/// The options one invocation gave its pass, checked against the pass's
/// documented options. A value is the last occurrence under either spelling,
/// else the table's default.
struct Options<'a> {
    docs: &'static [OptionDoc],
    given: &'a [PassOption],
}

impl<'a> Options<'a> {
    fn new(info: &PassInfo, given: &'a [PassOption]) -> Result<Self, String> {
        if let Some(unknown) = given
            .iter()
            .find(|option| !info.options.iter().any(|doc| doc.accepts(&option.name)))
        {
            let names: Vec<&str> = info.options.iter().map(|doc| doc.name).collect();
            return Err(format!(
                "unknown option '{}' (accepted: {})",
                unknown.name,
                if names.is_empty() {
                    "none".to_string()
                } else {
                    names.join(", ")
                }
            ));
        }
        Ok(Options {
            docs: info.options,
            given,
        })
    }

    fn value(&self, name: &str) -> &'a str {
        let doc = self
            .docs
            .iter()
            .find(|doc| doc.name == name)
            .expect("the pass documents the option it reads");
        self.given
            .iter()
            .rev()
            .find(|option| doc.accepts(&option.name))
            .map_or(doc.default, |option| option.value.as_str())
    }

    fn positive_int(&self, name: &str) -> Result<i64, String> {
        let value = self.value(name);
        let parsed: i64 = value
            .parse()
            .map_err(|_| format!("option '{name}': '{value}' is not an integer"))?;
        if parsed < 1 {
            return Err(format!("option '{name}': {parsed} must be >= 1"));
        }
        Ok(parsed)
    }
}

/// Resolves one fusion pattern name (as printed by the fusion pass's
/// `patterns` option) into a pattern instance.
fn fusion_pattern_by_name(name: &str) -> Result<Box<dyn FusionPattern>, String> {
    match name {
        "elementwise-fusion" => Ok(Box::new(ElementwiseFusion)),
        "conv-pool-fusion" => Ok(Box::new(ConvPoolFusion)),
        _ => Err(format!(
            "option 'patterns': unknown fusion pattern '{name}' \
             (known: elementwise-fusion, conv-pool-fusion)"
        )),
    }
}

/// The pass `info` names, configured by `options`, and the options its
/// normalized invocation reports: each under its reported name, defaults
/// filled in, valued as the pass reads it.
fn build(
    info: &PassInfo,
    options: &Options<'_>,
) -> Result<(HidaPass, Interned<[PassOption]>), String> {
    Ok(match info.name {
        "construct" => (HidaPass::Construct, [].into()),
        "fusion" => {
            // Each '+'-separated piece names a pattern exactly, so the
            // value is already the canonical list.
            let names = options.value("patterns");
            let patterns = names
                .split('+')
                .map(fusion_pattern_by_name)
                .collect::<Result<_, _>>()?;
            let reported = [PassOption::new("patterns", names)];
            (HidaPass::Fusion { patterns }, reported.into())
        }
        "lower" => (HidaPass::Lower, [].into()),
        "multi-producer-elim" => (HidaPass::MultiProducerElim, [].into()),
        "tiling" => {
            let tile_size = options.positive_int("factor")?;
            let external_threshold_bytes = options.positive_int("external-threshold-bytes")?;
            let reported = [
                PassOption::new("tile-size", tile_size),
                PassOption::new("external-threshold-bytes", external_threshold_bytes),
            ];
            let pass = HidaPass::Tiling {
                tile_size,
                external_threshold_bytes,
            };
            (pass, reported.into())
        }
        "balance" => {
            let external_threshold_bytes = options.positive_int("external-threshold-bytes")?;
            let reported = [PassOption::new(
                "external-threshold-bytes",
                external_threshold_bytes,
            )];
            (
                HidaPass::Balance {
                    external_threshold_bytes,
                },
                reported.into(),
            )
        }
        "parallelize" => {
            let label = options.value("mode");
            let mode = ParallelMode::from_label(label).ok_or_else(|| {
                format!("option 'mode': unknown mode '{label}' (known: IA+CA, IA, CA, Naive)")
            })?;
            // A catalog name is its device's name, so it is reported as given.
            let device = options.value("device");
            if !FpgaDevice::catalog_names().any(|known| known == device) {
                let known: Vec<&str> = FpgaDevice::catalog_names().collect();
                return Err(format!(
                    "option 'device': unknown device '{device}' (known: {})",
                    known.join(", ")
                ));
            }
            let max_parallel_factor = options.positive_int("max-factor")?;
            let reported = [
                PassOption::new("max-parallel-factor", max_parallel_factor),
                PassOption::new("mode", mode.label()),
                PassOption::new("device", device),
            ];
            let pass = HidaPass::Parallelize {
                max_parallel_factor,
                mode,
            };
            (pass, reported.into())
        }
        other => unreachable!("pass '{other}' has a table entry but no constructor"),
    })
}

/// The pass table as a value: what [`crate::Pipeline::parse`] resolves pass
/// names through. Holds nothing; every method reads [`PASSES`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// Resolves a canonical name or alias to its table entry.
    fn get(&self, name: &str) -> Option<&'static PassInfo> {
        PASSES
            .iter()
            .find(|info| info.name == name || info.alias == name)
    }

    /// Instantiates one invocation, returning its *normalized* invocation
    /// together with the pass: the canonical pass name and the options the
    /// created instance reports (defaults filled in, aliases resolved),
    /// rendered here once, so printed pipelines re-parse to the identical
    /// configuration.
    ///
    /// # Errors
    /// [`PipelineError::UnknownPass`] for unresolved names,
    /// [`PipelineError::InvalidOption`] for rejected options.
    pub fn create(
        &self,
        invocation: &PassInvocation,
    ) -> Result<(PassInvocation, HidaPass), PipelineError> {
        let info = self
            .get(&invocation.name)
            .ok_or_else(|| PipelineError::UnknownPass {
                name: invocation.name.to_string(),
                known: PASSES.iter().map(|info| info.name.to_string()).collect(),
            })?;
        let (pass, reported) = Options::new(info, &invocation.options)
            .and_then(|options| build(info, &options))
            .map_err(|reason| PipelineError::InvalidOption {
                pass: info.name.to_string(),
                reason,
            })?;
        Ok((PassInvocation::with_options(info.name, reported), pass))
    }
}

/// The table of the seven HIDA-OPT passes. Allocates nothing.
pub fn registry() -> Registry {
    Registry
}

/// Renders the table for `hida-opt --list-passes`: one block per pass with
/// its canonical name, alias, description and option table.
pub fn registry_listing() -> String {
    let mut out = String::from("Registered passes:\n");
    for info in &PASSES {
        let _ = writeln!(out, "  {} ({})", info.name, info.alias);
        let _ = writeln!(out, "      {}", info.description);
        if !info.options.is_empty() {
            let _ = writeln!(out, "      options:");
            for option in info.options {
                let _ = writeln!(
                    out,
                    "        {:<26} {} [default: {}]",
                    option.name, option.description, option.default
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::{parse_pipeline, Pass};

    const FLOW: [&str; 7] = [
        "construct",
        "fusion",
        "lower",
        "multi-producer-elim",
        "tiling",
        "balance",
        "parallelize",
    ];

    /// Every invocation of `text`, created through the table.
    fn build_all(text: &str) -> Result<Vec<PassInvocation>, PipelineError> {
        parse_pipeline(text)?
            .iter()
            .map(|invocation| {
                registry()
                    .create(invocation)
                    .map(|(normalized, _)| normalized)
            })
            .collect()
    }

    fn create_err(text: &str) -> String {
        match build_all(text) {
            Ok(_) => panic!("expected '{text}' to fail"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn all_seven_passes_are_registered_in_flow_order() {
        let names: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
        assert_eq!(names, FLOW);
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        // Both spellings of every pass resolve to the same entry and build
        // the pass whose instance name is the alias.
        for info in &PASSES {
            for spelling in [info.name, info.alias] {
                assert_eq!(registry().get(spelling), Some(info), "{spelling}");
                let (normalized, pass) = registry()
                    .create(&PassInvocation::new(spelling))
                    .unwrap_or_else(|e| panic!("{spelling}: {e}"));
                assert_eq!(normalized.name.as_str(), info.name);
                assert_eq!(pass.name(), info.alias);
            }
        }
        assert_eq!(registry().get("nonsense"), None);
    }

    #[test]
    fn long_pass_names_resolve_as_aliases() {
        for (long, short) in [
            ("hida-construct-dataflow", "construct"),
            ("hida-task-fusion", "fusion"),
            ("hida-lower-structural", "lower"),
            ("hida-eliminate-multi-producers", "multi-producer-elim"),
            ("hida-tiling", "tiling"),
            ("hida-balance-data-paths", "balance"),
            ("hida-parallelize", "parallelize"),
        ] {
            assert_eq!(registry().get(long).unwrap().name, short, "{long}");
        }
    }

    #[test]
    fn create_normalizes_to_canonical_name_and_reported_options() {
        // No options given: the instance reports the table's defaults.
        let (normalized, _) = registry()
            .create(&PassInvocation::new("hida-parallelize"))
            .unwrap();
        assert_eq!(normalized.name.as_str(), "parallelize");
        assert_eq!(
            normalized.options[..],
            [
                PassOption::new("max-parallel-factor", 32),
                PassOption::new("mode", "IA+CA"),
                PassOption::new("device", "vu9p-slr"),
            ]
        );
    }

    #[test]
    fn created_instances_normalize_aliases_and_fill_defaults() {
        let (normalized, pass) = registry()
            .create(&PassInvocation::with_options(
                "hida-tiling",
                [PassOption::new("factor", 4)],
            ))
            .unwrap();
        assert_eq!(normalized.name.as_str(), "tiling");
        assert_eq!(pass.name(), "hida-tiling");
        // The instance reports its canonical option names with defaults applied.
        assert_eq!(
            normalized.options[..],
            [
                PassOption::new("tile-size", 4),
                PassOption::new("external-threshold-bytes", 65536),
            ]
        );
    }

    #[test]
    fn build_parses_and_instantiates() {
        // The last occurrence of an option wins, under either spelling.
        let built = build_all("tiling{factor=7},tiling,tiling{factor=3,tile-size=5}").unwrap();
        let tile_sizes: Vec<&str> = built.iter().map(|i| i.options[0].value.as_str()).collect();
        assert_eq!(tile_sizes, ["7", "8", "5"]);
    }

    #[test]
    fn parallelize_options_parse_modes_and_devices() {
        let (normalized, _) = registry()
            .create(&PassInvocation::with_options(
                "parallelize",
                [
                    PassOption::new("max-factor", 8),
                    PassOption::new("mode", "naive"),
                    PassOption::new("device", "zu3eg"),
                ],
            ))
            .unwrap();
        assert_eq!(
            normalized.options[..],
            [
                PassOption::new("max-parallel-factor", 8),
                PassOption::new("mode", "Naive"),
                PassOption::new("device", "zu3eg"),
            ]
        );
    }

    #[test]
    fn factories_reject_bad_options() {
        assert!(create_err("construct{x=1}").contains("unknown option 'x' (accepted: none)"));
        assert!(
            create_err("tiling{volume=2}").contains("(accepted: factor, external-threshold-bytes)")
        );
        assert!(create_err("tiling{factor=zero}").contains("is not an integer"));
        assert!(create_err("tiling{factor=0}").contains("must be >= 1"));
        assert!(create_err("parallelize{max-factor=-4}").contains("must be >= 1"));
        assert!(create_err("parallelize{mode=fast}").contains("unknown mode 'fast'"));
        assert!(create_err("parallelize{device=u250}").contains("unknown device 'u250'"));
        assert!(create_err("fusion{patterns=magic}").contains("unknown fusion pattern 'magic'"));
    }

    #[test]
    fn factory_failures_become_invalid_option_errors() {
        let err =
            build_all("hida-balance-data-paths{external-threshold-bytes=banana}").unwrap_err();
        assert_eq!(
            err,
            PipelineError::InvalidOption {
                pass: "balance".into(),
                reason: "option 'external-threshold-bytes': 'banana' is not an integer".into(),
            }
        );
    }

    #[test]
    fn unknown_pass_reports_the_known_names() {
        let err = build_all("construct,frobnicate").unwrap_err();
        assert_eq!(
            err,
            PipelineError::UnknownPass {
                name: "frobnicate".into(),
                known: FLOW.map(String::from).to_vec(),
            }
        );
        assert!(err.to_string().contains(
            "registered passes: construct, fusion, lower, multi-producer-elim, tiling, \
             balance, parallelize"
        ));
    }

    #[test]
    fn parse_errors_pass_through_build() {
        for text in [
            "construct,",
            "tiling{factor=}",
            "construct,,lower",
            "tiling{factor~4}",
        ] {
            assert!(
                matches!(build_all(text), Err(PipelineError::Parse(_))),
                "{text:?}"
            );
        }
    }

    #[test]
    fn fusion_pattern_subsets_are_constructible() {
        let (normalized, _) = registry()
            .create(&PassInvocation::with_options(
                "fusion",
                [PassOption::new("patterns", "conv-pool-fusion")],
            ))
            .unwrap();
        assert_eq!(
            normalized.options[..],
            [PassOption::new("patterns", "conv-pool-fusion")]
        );
        // Without the option, the table's default is the default pattern set.
        let (normalized, _) = registry().create(&PassInvocation::new("fusion")).unwrap();
        let patterns = crate::fusion::default_fusion_patterns();
        let defaults: Vec<&str> = patterns.iter().map(|p| p.name()).collect();
        assert_eq!(normalized.options[0].value.as_str(), defaults.join("+"));
    }

    #[test]
    fn listing_mentions_every_pass_and_option_default() {
        let listing = registry_listing();
        for info in &PASSES {
            assert!(listing.contains(info.name), "listing missing {}", info.name);
        }
        assert!(listing.contains("[default: 8]"));
        assert!(listing.contains("hida-parallelize"));
    }
}
