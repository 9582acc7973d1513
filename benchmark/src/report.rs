//! Result documents: the machine description every result carries, and the
//! hand-written JSON the harness prints and stores (no JSON crate resolves
//! offline; `hida::sweep::json_escape` is the workspace's shared escaper).

use hida::sweep::json_escape;
use std::fmt::Write as _;

/// The end-to-end metrics, in report order: name and unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("alloc_mb_per_op", "MiB"),
    ("allocs_per_op", "count"),
    ("design_sps_geomean", "1/s"),
    ("design_dsp_eff_geomean", "ratio"),
    ("failed_share", "ratio"),
];

/// `failed_share` is printed and stored like the others but is not in the
/// `--trace 0` metrics object: it is 0 on every healthy run, the driver's
/// contract wants metrics that are never 0, and the same information travels
/// in the result's `attempted` / `failed` counts.
pub const NOT_IN_DRIVER_METRICS: &str = "failed_share";

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// `{"name": {"value": v, "unit": "u"}, ...}`. Values are printed with every
/// digit `f64` holds; a non-finite value (a harness bug) is written as 0 so
/// the document stays valid JSON.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let mut out = String::from("{");
    for (i, metric) in metrics.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            json_escape(&metric.name),
            metric.unit
        );
    }
    out.push('}');
    out
}

pub fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Where and how a result was measured. `compare.sh` refuses to compare two
/// results whose `cpu_model`, `nproc`, `rustc`, `jobs_n` or `seconds` differ.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub jobs_n: usize,
    pub seed: u64,
    pub seconds: f64,
    pub load_average: String,
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

impl Machine {
    /// `run.sh` passes the toolchain and commit through the environment: the
    /// harness starts no processes of its own for them.
    pub fn detect(seed: u64, seconds: f64) -> Machine {
        let nproc = hida::ir::default_jobs();
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Machine {
            nproc,
            cpu_model: first_line_value("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env("HIDA_BENCH_RUSTC"),
            commit: env("HIDA_BENCH_COMMIT"),
            jobs_n: nproc.min(4),
            seed,
            seconds,
            load_average: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
             \"jobs_n\": {}, \"seed\": {}, \"seconds\": {}, \"load_average\": \"{}\"}}",
            self.nproc,
            json_escape(&self.cpu_model),
            json_escape(&self.rustc),
            json_escape(&self.commit),
            self.jobs_n,
            self.seed,
            self.seconds,
            json_escape(&self.load_average)
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    first_line_value("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_object_is_valid_json_with_full_precision() {
        let metrics = [
            Metric {
                name: "op_ms_p50".to_string(),
                unit: "ms",
                value: 1.2034567890123,
            },
            Metric {
                name: "broken".to_string(),
                unit: "s",
                value: f64::NAN,
            },
        ];
        assert_eq!(
            metrics_object(&metrics),
            "{\"op_ms_p50\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"broken\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        assert_eq!(
            string_array(&["a\"b".to_string(), "c".to_string()]),
            "[\"a\\\"b\", \"c\"]"
        );
    }

    #[test]
    fn end_to_end_names_are_declared_in_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        let end_to_end = declared
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|rest| rest.split("\"per_layer\"").next())
            .expect("end_to_end precedes per_layer");
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                end_to_end.contains(&entry),
                name != NOT_IN_DRIVER_METRICS,
                "{entry}"
            );
        }
        assert_eq!(end_to_end.matches("\"name\"").count(), END_TO_END.len() - 1);
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_machine() {
        assert!(peak_rss_mb() > 0.0);
        let machine = Machine::detect(3, 1.5);
        assert!(machine.nproc >= 1 && machine.jobs_n >= 1 && machine.jobs_n <= 4);
        let json = machine.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seed\": 3") && json.contains("\"seconds\": 1.5"));
    }
}
