//! Snapshot test of the `hida-opt --list-passes` output.
//!
//! The listing is produced by `registry_listing()` — the exact function the CLI
//! binary prints — and pinned against `tests/snapshots/registry_listing.snap`.
//! When a pass or option is added or reworded, regenerate the snapshot with
//! `cargo run -p hida --bin hida-opt -- --list-passes > \
//!  crates/hida-opt/tests/snapshots/registry_listing.snap` and review the diff.

use hida_opt::registry::PASSES;
use hida_opt::registry_listing;

const SNAPSHOT: &str = include_str!("snapshots/registry_listing.snap");

#[test]
fn listing_matches_the_snapshot() {
    let listing = registry_listing();
    if listing != SNAPSHOT {
        // A line-by-line diff makes snapshot drift reviewable from the test log.
        for (i, (got, want)) in listing.lines().zip(SNAPSHOT.lines()).enumerate() {
            assert_eq!(got, want, "listing line {} drifted", i + 1);
        }
        assert_eq!(
            listing.lines().count(),
            SNAPSHOT.lines().count(),
            "listing gained or lost lines"
        );
        panic!("listing differs from snapshot in whitespace only");
    }
}

#[test]
fn snapshot_covers_every_registered_pass_and_option() {
    // Guards against a stale snapshot that still matches structurally: every
    // canonical name, alias, option and default of the table must appear.
    for pass in &PASSES {
        assert!(SNAPSHOT.contains(pass.name), "missing pass {}", pass.name);
        assert!(
            SNAPSHOT.contains(pass.alias),
            "missing alias {}",
            pass.alias
        );
        for option in pass.options {
            assert!(
                SNAPSHOT.contains(option.name),
                "missing option {}",
                option.name
            );
            let default = format!("[default: {}]", option.default);
            assert!(SNAPSHOT.contains(&default), "missing {default}");
        }
    }
}
