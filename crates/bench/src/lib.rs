//! Shared helpers for the binaries that regenerate every table and figure of
//! the paper's evaluation (see `docs/ARCHITECTURE.md` for the compiler they
//! drive and README.md, "Regenerating the paper's evaluation", for the
//! experiment index).
//!
//! The sweep-shaped binaries hand their design points to
//! [`hida::SweepEngine`] themselves; this crate holds what they share beyond
//! that: the pipeline-string builders behind the figure ablations
//! ([`variants`]), the command line of the figure binaries
//! ([`full_grid_requested`]), the ScaleHLS baseline's design points
//! ([`scalehls_point`]), the sweep summary and the report of failed points
//! ([`print_sweep_summary`], [`report_failures`]) and the table printer.

use hida::{classify_failure, HidaOptions, SweepOutcome, SweepPoint, Workload};

pub mod variants;

/// Reads a figure binary's arguments: `--full` (the paper's whole grid) is
/// the only one it takes. Anything else is an error, so a typo such as
/// `--ful` cannot silently run the reduced grid.
///
/// # Errors
/// Names the first argument that is not `--full`.
pub fn full_grid_requested(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut full = false;
    for arg in args {
        if arg != "--full" {
            return Err(format!(
                "unknown argument '{arg}' (the only option is --full)"
            ));
        }
        full = true;
    }
    Ok(full)
}

/// The ScaleHLS baseline's design point of `workload`, labelled
/// `scalehls-<workload>`: its flow as a pipeline
/// ([`hida::baselines::scalehls::pipeline`]) over the same IR as the HIDA
/// point built from `options`, sized for and estimated on `options.device`.
pub fn scalehls_point(
    workload: Workload,
    options: HidaOptions,
    max_parallel_factor: i64,
) -> SweepPoint {
    let text = hida::baselines::scalehls::pipeline(max_parallel_factor, &options.device);
    let label = format!("scalehls-{}", workload.name());
    SweepPoint::new(label, workload, options).with_pipeline(text)
}

/// Prints the closing summary of a sweep: points, wall-clock and pool width.
pub fn print_sweep_summary(outcome: &SweepOutcome) {
    println!(
        "\n# Sweep: {} points in {:.3}s ({} concurrent)",
        outcome.points.len(),
        outcome.wall_seconds,
        outcome.budget.pool_jobs
    );
}

/// Prints `label: error (reason)` to stderr for every point of `outcome`
/// that failed, and returns whether any did. A binary prints the rows of the
/// points that compiled, then exits 1 when this returns `true`.
pub fn report_failures(outcome: &SweepOutcome) -> bool {
    for point in &outcome.points {
        if let Err(error) = &point.result {
            eprintln!("{}: {error} ({})", point.label, classify_failure(error));
        }
    }
    !outcome.all_ok()
}

/// One row of a printed comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name (kernel or model).
    pub name: String,
    /// Labelled throughput columns, in samples per second.
    pub columns: Vec<(String, Option<f64>)>,
}

/// Prints a markdown-style table with a throughput column per flow plus speedup
/// ratios of the first column over the others.
pub fn print_throughput_table(title: &str, rows: &[Row]) {
    println!("\n## {title}\n");
    if rows.is_empty() {
        return;
    }
    let headers: Vec<String> = rows[0].columns.iter().map(|(h, _)| h.clone()).collect();
    println!("| workload | {} |", headers.join(" | "));
    println!(
        "|---|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let cells: Vec<String> = row
            .columns
            .iter()
            .map(|(_, v)| match v {
                Some(x) => format!("{x:.2}"),
                None => "-".to_string(),
            })
            .collect();
        println!("| {} | {} |", row.name, cells.join(" | "));
    }
    // Geometric-mean speedups of column 0 over every other column.
    for other in 1..headers.len() {
        let ratios: Vec<f64> = rows
            .iter()
            .filter_map(|r| match (r.columns[0].1, r.columns[other].1) {
                (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                _ => None,
            })
            .collect();
        if !ratios.is_empty() {
            println!(
                "geomean speedup of {} over {}: {:.2}x ({} workloads)",
                headers[0],
                headers[other],
                geomean(&ratios),
                ratios.len()
            );
        }
    }
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida::{HidaOptions, PolybenchKernel, SweepEngine, SweepPoint, Workload};

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn only_full_is_accepted() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(full_grid_requested(args(&[])), Ok(false));
        assert_eq!(full_grid_requested(args(&["--full"])), Ok(true));
        let typo = full_grid_requested(args(&["--ful"])).unwrap_err();
        assert!(typo.contains("'--ful'"), "{typo}");
        assert!(full_grid_requested(args(&["--full", "--jobs"])).is_err());
    }

    #[test]
    fn failed_points_are_reported() {
        let point = |label: &str| {
            SweepPoint::new(
                label,
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 16),
                HidaOptions::polybench(),
            )
        };
        let good = SweepEngine::new().with_total_jobs(1).run(&[point("good")]);
        assert!(!report_failures(&good));
        let bad = point("bad").with_pipeline("construct,,lower");
        let mixed = SweepEngine::new()
            .with_total_jobs(1)
            .run(&[point("good"), bad]);
        assert!(report_failures(&mixed));
    }

    #[test]
    fn rows_print_without_panicking() {
        print_throughput_table(
            "test",
            &[Row {
                name: "k".into(),
                columns: vec![
                    ("hida".into(), Some(2.0)),
                    ("vitis".into(), Some(1.0)),
                    ("none".into(), None),
                ],
            }],
        );
    }
}
