//! The HIDA-OPT pass registry: every optimizer pass registered by name, with its
//! knobs as named options, so pipelines can be assembled from text
//! (`construct,fusion,lower,...`) instead of compiled-in `add_pass` sequences.
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
//! [`registry`] builds the registry; [`registry_listing`] renders it for the
//! `hida-opt --list-passes` CLI surface.

use crate::fusion::{ConvPoolFusion, ElementwiseFusion, FusionPattern};
use crate::pipeline::{
    BalancePass, ConstructPass, FusionPass, LowerPass, MultiProducerEliminationPass,
    ParallelizePass, TilingPass,
};
use crate::ParallelMode;
use hida_estimator::device::FpgaDevice;
use hida_ir_core::registry::{PassRegistry, PassSpec};
use hida_ir_core::PassOption;
use std::fmt::Write as _;

/// Default tile size when `tiling` is invoked without a `factor`.
const DEFAULT_TILE_SIZE: i64 = 8;
/// Default external-memory spill threshold in bytes (64 KiB, the
/// `HidaOptions::default()` value).
const DEFAULT_EXTERNAL_THRESHOLD_BYTES: i64 = 64 * 1024;
/// Default per-node parallel factor cap.
const DEFAULT_MAX_PARALLEL_FACTOR: i64 = 32;
/// Default target device name.
const DEFAULT_DEVICE: &str = "vu9p-slr";

/// Typed access to parsed pass options with unknown-name rejection. Each entry
/// of `known` lists the aliases of one logical option; the last occurrence of
/// any alias wins.
struct OptionReader<'a> {
    options: &'a [PassOption],
}

impl<'a> OptionReader<'a> {
    fn new(options: &'a [PassOption], known: &[&[&str]]) -> Result<Self, String> {
        for option in options {
            if !known
                .iter()
                .any(|aliases| aliases.contains(&option.name.as_str()))
            {
                let names: Vec<&str> = known.iter().map(|aliases| aliases[0]).collect();
                return Err(format!(
                    "unknown option '{}' (accepted: {})",
                    option.name,
                    if names.is_empty() {
                        "none".to_string()
                    } else {
                        names.join(", ")
                    }
                ));
            }
        }
        Ok(OptionReader { options })
    }

    /// Raw value of the last occurrence of any alias.
    fn get(&self, aliases: &[&str]) -> Option<&'a str> {
        self.options
            .iter()
            .rev()
            .find(|o| aliases.contains(&o.name.as_str()))
            .map(|o| o.value.as_str())
    }

    /// Integer-valued option with a default.
    fn int(&self, aliases: &[&str], default: i64) -> Result<i64, String> {
        match self.get(aliases) {
            Some(value) => value
                .parse()
                .map_err(|_| format!("option '{}': '{value}' is not an integer", aliases[0])),
            None => Ok(default),
        }
    }

    /// Positive-integer-valued option with a default.
    fn positive_int(&self, aliases: &[&str], default: i64) -> Result<i64, String> {
        let value = self.int(aliases, default)?;
        if value < 1 {
            return Err(format!("option '{}': {value} must be >= 1", aliases[0]));
        }
        Ok(value)
    }
}

/// Resolves one fusion pattern name (as printed by `FusionPass`'s `patterns`
/// option) into a pattern instance.
fn fusion_pattern_by_name(name: &str) -> Option<Box<dyn FusionPattern>> {
    match name {
        "elementwise-fusion" => Some(Box::new(ElementwiseFusion)),
        "conv-pool-fusion" => Some(Box::new(ConvPoolFusion)),
        _ => None,
    }
}

/// Builds the registry holding all eight HIDA-OPT passes.
pub fn registry() -> PassRegistry {
    let mut registry = PassRegistry::new();
    registry.register(
        PassSpec::new(
            "construct",
            "functional dataflow construction: wrap regions into hida.dispatch/hida.task (Algorithm 1)",
            |options| {
                OptionReader::new(options, &[])?;
                Ok(Box::new(ConstructPass))
            },
        )
        .with_alias("hida-construct-dataflow"),
    );
    registry.register(
        PassSpec::new(
            "fusion",
            "pattern- and criticality-driven task fusion (Algorithm 2)",
            |options| {
                let reader = OptionReader::new(options, &[&["patterns"]])?;
                let pass = match reader.get(&["patterns"]) {
                    Some(list) => {
                        let patterns = list
                            .split('+')
                            .map(|name| {
                                fusion_pattern_by_name(name).ok_or_else(|| {
                                    format!(
                                        "option 'patterns': unknown fusion pattern '{name}' \
                                         (known: elementwise-fusion, conv-pool-fusion)"
                                    )
                                })
                            })
                            .collect::<Result<Vec<_>, String>>()?;
                        FusionPass::with_patterns(patterns)
                    }
                    None => FusionPass::new(),
                };
                Ok(Box::new(pass))
            },
        )
        .with_alias("hida-task-fusion")
        .with_option(
            "patterns",
            "'+'-separated fusion pattern names",
            Some("elementwise-fusion+conv-pool-fusion"),
        ),
    );
    registry.register(
        PassSpec::new(
            "lower",
            "structural dataflow construction: lower to hida.schedule/node/buffer (paper \u{a7}6.3)",
            |options| {
                OptionReader::new(options, &[])?;
                Ok(Box::new(LowerPass))
            },
        )
        .with_alias("hida-lower-structural"),
    );
    registry.register(
        PassSpec::new(
            "multi-producer-elim",
            "multi-producer elimination via buffer duplication / producer fusion (Algorithm 3)",
            |options| {
                OptionReader::new(options, &[])?;
                Ok(Box::new(MultiProducerEliminationPass))
            },
        )
        .with_alias("hida-eliminate-multi-producers"),
    );
    registry.register(
        PassSpec::new(
            "tiling",
            "loop tiling plus external-memory spilling of oversized buffers (paper \u{a7}7.2)",
            |options| {
                let reader = OptionReader::new(
                    options,
                    &[&["factor", "tile-size"], &["external-threshold-bytes"]],
                )?;
                Ok(Box::new(TilingPass {
                    tile_size: reader.positive_int(&["factor", "tile-size"], DEFAULT_TILE_SIZE)?,
                    external_threshold_bytes: reader.positive_int(
                        &["external-threshold-bytes"],
                        DEFAULT_EXTERNAL_THRESHOLD_BYTES,
                    )?,
                }))
            },
        )
        .with_alias("hida-tiling")
        .with_option(
            "factor",
            "square spatial tile size (alias: tile-size)",
            Some("8"),
        )
        .with_option(
            "external-threshold-bytes",
            "buffers above this many bytes spill to external memory",
            Some("65536"),
        ),
    );
    registry.register(
        PassSpec::new(
            "balance",
            "data-path balancing: buffer deepening and soft FIFOs with token flow (paper \u{a7}6.4.2)",
            |options| {
                let reader = OptionReader::new(options, &[&["external-threshold-bytes"]])?;
                Ok(Box::new(BalancePass {
                    external_threshold_bytes: reader.positive_int(
                        &["external-threshold-bytes"],
                        DEFAULT_EXTERNAL_THRESHOLD_BYTES,
                    )?,
                }))
            },
        )
        .with_alias("hida-balance-data-paths")
        .with_option(
            "external-threshold-bytes",
            "deepened buffers above this many bytes become soft FIFOs",
            Some("65536"),
        ),
    );
    registry.register(
        PassSpec::new(
            "parallelize",
            "intensity- and connection-aware parallelization plus array partitioning (Algorithm 4)",
            |options| {
                let reader = OptionReader::new(
                    options,
                    &[
                        &["max-factor", "max-parallel-factor"],
                        &["mode"],
                        &["device"],
                    ],
                )?;
                let mode = match reader.get(&["mode"]) {
                    Some(label) => ParallelMode::from_label(label).ok_or_else(|| {
                        format!(
                            "option 'mode': unknown mode '{label}' \
                             (known: IA+CA, IA, CA, Naive)"
                        )
                    })?,
                    None => ParallelMode::IaCa,
                };
                let device_name = reader.get(&["device"]).unwrap_or(DEFAULT_DEVICE);
                let device = FpgaDevice::by_name(device_name).ok_or_else(|| {
                    let known: Vec<String> =
                        FpgaDevice::catalog().into_iter().map(|d| d.name).collect();
                    format!(
                        "option 'device': unknown device '{device_name}' (known: {})",
                        known.join(", ")
                    )
                })?;
                Ok(Box::new(ParallelizePass {
                    max_parallel_factor: reader.positive_int(
                        &["max-factor", "max-parallel-factor"],
                        DEFAULT_MAX_PARALLEL_FACTOR,
                    )?,
                    mode,
                    device,
                }))
            },
        )
        .with_alias("hida-parallelize")
        .with_option(
            "max-factor",
            "maximum parallel factor per node (alias: max-parallel-factor)",
            Some("32"),
        )
        .with_option(
            "mode",
            "parallelization strategy: IA+CA, IA, CA or Naive",
            Some("IA+CA"),
        )
        .with_option(
            "device",
            "catalog device: pynq-z2, zu3eg or vu9p-slr",
            Some("vu9p-slr"),
        ),
    );
    registry
}

/// Renders the registry for `hida-opt --list-passes`: one block per pass with
/// its canonical name, aliases, description and option table.
pub fn registry_listing() -> String {
    let registry = registry();
    let mut out = String::from("Registered passes:\n");
    for spec in registry.specs() {
        let aliases = if spec.aliases().is_empty() {
            String::new()
        } else {
            format!(" ({})", spec.aliases().join(", "))
        };
        let _ = writeln!(out, "  {}{aliases}", spec.name());
        let _ = writeln!(out, "      {}", spec.description());
        if !spec.options().is_empty() {
            let _ = writeln!(out, "      options:");
            for option in spec.options() {
                let default = option
                    .default
                    .as_ref()
                    .map(|d| format!(" [default: {d}]"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "        {:<26} {}{default}",
                    option.name, option.description
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::PassInvocation;

    fn create_err(text: &str) -> String {
        match registry().build(text) {
            Ok(_) => panic!("expected '{text}' to fail"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn all_seven_passes_are_registered_in_flow_order() {
        assert_eq!(
            registry().pass_names(),
            vec![
                "construct",
                "fusion",
                "lower",
                "multi-producer-elim",
                "tiling",
                "balance",
                "parallelize",
            ]
        );
    }

    #[test]
    fn long_pass_names_resolve_as_aliases() {
        let registry = registry();
        for (long, short) in [
            ("hida-construct-dataflow", "construct"),
            ("hida-task-fusion", "fusion"),
            ("hida-lower-structural", "lower"),
            ("hida-eliminate-multi-producers", "multi-producer-elim"),
            ("hida-tiling", "tiling"),
            ("hida-balance-data-paths", "balance"),
            ("hida-parallelize", "parallelize"),
        ] {
            assert_eq!(registry.get(long).unwrap().name(), short, "{long}");
        }
    }

    #[test]
    fn created_instances_normalize_aliases_and_fill_defaults() {
        let registry = registry();
        let (normalized, pass) = registry
            .create(&PassInvocation::with_options(
                "hida-tiling",
                vec![PassOption::new("factor", 4)],
            ))
            .unwrap();
        assert_eq!(normalized.name, "tiling");
        assert_eq!(pass.name(), "hida-tiling");
        // The instance reports its canonical option names with defaults applied.
        assert_eq!(
            normalized.options,
            vec![
                PassOption::new("tile-size", 4),
                PassOption::new("external-threshold-bytes", 65536),
            ]
        );
    }

    #[test]
    fn parallelize_options_parse_modes_and_devices() {
        let registry = registry();
        let (normalized, _) = registry
            .create(&PassInvocation::with_options(
                "parallelize",
                vec![
                    PassOption::new("max-factor", 8),
                    PassOption::new("mode", "naive"),
                    PassOption::new("device", "zu3eg"),
                ],
            ))
            .unwrap();
        assert_eq!(
            normalized.options,
            vec![
                PassOption::new("max-parallel-factor", 8),
                PassOption::new("mode", "Naive"),
                PassOption::new("device", "zu3eg"),
            ]
        );
    }

    #[test]
    fn factories_reject_bad_options() {
        assert!(create_err("construct{x=1}").contains("unknown option 'x'"));
        assert!(create_err("tiling{factor=zero}").contains("is not an integer"));
        assert!(create_err("tiling{factor=0}").contains("must be >= 1"));
        assert!(create_err("parallelize{mode=fast}").contains("unknown mode 'fast'"));
        assert!(create_err("parallelize{device=u250}").contains("unknown device 'u250'"));
        assert!(create_err("fusion{patterns=magic}").contains("unknown fusion pattern 'magic'"));
    }

    #[test]
    fn fusion_pattern_subsets_are_constructible() {
        let registry = registry();
        let (normalized, _) = registry
            .create(&PassInvocation::with_options(
                "fusion",
                vec![PassOption::new("patterns", "conv-pool-fusion")],
            ))
            .unwrap();
        assert_eq!(
            normalized.options,
            vec![PassOption::new("patterns", "conv-pool-fusion")]
        );
    }

    #[test]
    fn listing_mentions_every_pass_and_option_default() {
        let listing = registry_listing();
        for name in registry().pass_names() {
            assert!(listing.contains(&name), "listing missing {name}");
        }
        assert!(listing.contains("[default: 8]"));
        assert!(listing.contains("hida-parallelize"));
    }
}
