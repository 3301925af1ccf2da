//! The metric registry and the report a run prints.
//!
//! Every metric the benchmark can print is declared here with its unit,
//! its direction, its layer and the workloads it is about;
//! `BENCHMARK.json` lists the same names and units (a test keeps them
//! in step) and the README's tables explain them. A run fills in every
//! metric of the kind it reports and refuses to print a name that is
//! not declared.

use crate::harness::Tally;
use crate::stats::Quantile;
use std::collections::BTreeMap;

/// The workloads.
pub const WORKLOADS: [&str; 4] = [
    "housing_served",
    "retailer_cofactor",
    "twitter_triangle",
    "matrix_chain_rank1",
];

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Module layer the metric belongs to (`e2e` for end-to-end ones).
    pub layer: &'static str,
    /// Workloads the metric is about; on the others a per-layer metric
    /// reads 0 because the workload does not enter that code.
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &WORKLOADS;
const HOUSING: &[&str] = &["housing_served"];
const RETAILER: &[&str] = &["retailer_cofactor"];
const MATRIX: &[&str] = &["matrix_chain_rank1"];
const FLAT: &[&str] = &["housing_served", "retailer_cofactor", "twitter_triangle"];
const PROBING: &[&str] = &["retailer_cofactor", "twitter_triangle"];
const IN_MEMORY: &[&str] = &[
    "retailer_cofactor",
    "twitter_triangle",
    "matrix_chain_rank1",
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    workloads: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        workloads,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "e2e", ALL),
    m("update_tput", "1/s", "higher", "e2e", ALL),
    m("update_p50_us", "us", "lower", "e2e", ALL),
    m("update_p99_us", "us", "lower", "e2e", ALL),
    m("peak_rss_mb", "MB", "lower", "e2e", ALL),
    m("success_rate", "ratio", "higher", "e2e", ALL),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    m("query.build_ms", "ms", "lower", "query", FLAT),
    m("executor.new_ms", "ms", "lower", "executor", FLAT),
    m("executor.load_ms", "ms", "lower", "executor", FLAT),
    m("durability.create_ms", "ms", "lower", "durability", HOUSING),
    m("linalg.new_ms", "ms", "lower", "linalg", MATRIX),
    m("core.delta_build_ns_p50", "ns", "lower", "core", FLAT),
    m("executor.apply_us_p50", "us", "lower", "executor", ALL),
    m("executor.apply_us_p99", "us", "lower", "executor", ALL),
    m("executor.busy_share", "ratio", "lower", "executor", ALL),
    m("executor.view_entries", "count", "lower", "executor", FLAT),
    m("executor.index_bytes", "bytes", "lower", "executor", FLAT),
    m("executor.approx_bytes", "bytes", "lower", "executor", FLAT),
    m(
        "executor.max_probe_run",
        "count",
        "lower",
        "executor",
        PROBING,
    ),
    m(
        "executor.factored_shapes_cached",
        "count",
        "lower",
        "executor",
        MATRIX,
    ),
    m(
        "durability.apply_us_p50",
        "us",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.apply_us_p99",
        "us",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.checkpoint_ms_p50",
        "ms",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.checkpoint_ms_max",
        "ms",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.checkpoints",
        "count",
        "higher",
        "durability",
        HOUSING,
    ),
    m(
        "durability.checkpoint_share",
        "ratio",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.log_bytes_per_update",
        "bytes",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.dir_bytes",
        "bytes",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "durability.replayed_updates",
        "count",
        "lower",
        "durability",
        HOUSING,
    ),
    m("durability.open_ms", "ms", "lower", "durability", HOUSING),
    m(
        "durability.io_retries",
        "count",
        "lower",
        "durability",
        HOUSING,
    ),
    m(
        "snapshot.publish_ms_p50",
        "ms",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m(
        "snapshot.publish_ms_p99",
        "ms",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m(
        "snapshot.publish_share",
        "ratio",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m(
        "snapshot.staleness_ms_p99",
        "ms",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m("snapshot.pin_us_p50", "us", "lower", "snapshot", HOUSING),
    m("snapshot.get_ns_p50", "ns", "lower", "snapshot", HOUSING),
    m(
        "snapshot.live_epochs_max",
        "count",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m(
        "snapshot.oldest_pinned_age_max",
        "count",
        "lower",
        "snapshot",
        HOUSING,
    ),
    m(
        "subscribe.drain_us_p50",
        "us",
        "lower",
        "subscribe",
        HOUSING,
    ),
    m(
        "subscribe.entries_per_epoch",
        "count",
        "lower",
        "subscribe",
        HOUSING,
    ),
    m("ml.refresh_ms_p50", "ms", "lower", "ml", RETAILER),
    m("ml.extract_ms_p50", "ms", "lower", "ml", RETAILER),
    m("ml.train_ms_p50", "ms", "lower", "ml", RETAILER),
    m("ml.train_iterations", "count", "lower", "ml", RETAILER),
    m("bench.read_us_p50", "us", "lower", "bench", ALL),
    m("bench.read_us_p99", "us", "lower", "bench", ALL),
    m(
        "executor.read_share",
        "ratio",
        "lower",
        "executor",
        IN_MEMORY,
    ),
    m("trace.overhead_pct", "%", "lower", "trace", ALL),
    m("core.self_share", "ratio", "lower", "core", FLAT),
    m(
        "executor.self_share",
        "ratio",
        "lower",
        "executor",
        IN_MEMORY,
    ),
    m(
        "durability.self_share",
        "ratio",
        "lower",
        "durability",
        HOUSING,
    ),
    m("snapshot.self_share", "ratio", "lower", "snapshot", HOUSING),
    m(
        "subscribe.self_share",
        "ratio",
        "lower",
        "subscribe",
        HOUSING,
    ),
    m("ml.self_share", "ratio", "lower", "ml", RETAILER),
    m("linalg.self_share", "ratio", "lower", "linalg", MATRIX),
    m("bench.self_share", "ratio", "lower", "bench", ALL),
];

/// Whether `name` is a valid metric name: 1 to 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The metrics of one run, with a note per value (the percentile used
/// and its sample count, or what the value means on this workload).
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Set a metric. Non-finite values are a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(valid_name(name) && value.is_finite(), "{name} = {value}");
        self.values.insert(name, (value, note.into()));
    }

    /// Set a metric from a percentile, scaled from nanoseconds by
    /// `per_ns` (e.g. 1e-3 for microseconds).
    pub fn set_q(&mut self, name: &'static str, q: Quantile, per_ns: f64) {
        let note = if q.n == 0 {
            "no samples".to_string()
        } else if q.used < q.requested {
            format!(
                "p{} (p{} unsupported), n={}",
                q.used * 100.0,
                q.requested * 100.0,
                q.n
            )
        } else {
            format!("p{}, n={}", q.used * 100.0, q.n)
        };
        self.set(name, q.value * per_ns, note);
    }

    /// Zero every declared metric of `kind` not set yet: the workload
    /// does not enter that layer.
    pub fn fill_absent(&mut self, kind: &[Metric], workload: &str) {
        for d in kind {
            self.values.entry(d.name).or_insert_with(|| {
                assert!(
                    !d.workloads.contains(&workload),
                    "{workload} must report {}",
                    d.name
                );
                (0.0, "not entered by this workload".into())
            });
        }
    }

    /// Human-readable lines for the metrics of `kind`.
    pub fn table(&self, kind: &[Metric]) -> String {
        let mut out = String::new();
        for d in kind {
            let (v, note) = &self.values[d.name];
            out.push_str(&format!(
                "  {:<34} {:>16.6} {:<6} {:<6} [{}] {}\n",
                d.name, v, d.unit, d.better, d.layer, note
            ));
        }
        out
    }

    /// The final JSON line for the metrics of `kind`.
    pub fn json(&self, kind: &[Metric], tally: &Tally) -> String {
        assert!(
            self.values
                .keys()
                .all(|k| END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *k)),
            "undeclared metric"
        );
        let metrics: Vec<String> = kind
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    d.name, self.values[d.name].0, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.correct(),
            tally.attempted().max(1),
            tally.failed(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.workloads.iter().all(|w| WORKLOADS.contains(w)));
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = text.split_whitespace().collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
        let declared = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(compact.matches("\"name\":").count(), declared);
    }

    #[test]
    fn json_line_carries_every_metric_of_its_kind() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.5, "");
        }
        let mut tally = Tally::default();
        for _ in 0..9 {
            tally.call::<(), String>("apply", Ok(()));
        }
        tally.check("oracle", true, String::new);
        let line = r.json(END_TO_END, &tally);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(line.matches("\"value\": 1.5").count(), END_TO_END.len());
        let mut r = Report::default();
        r.set("executor.apply_us_p50", 2.0, "");
        r.fill_absent(PER_LAYER, "nowhere");
        tally.check("oracle", false, String::new);
        assert!(r
            .json(PER_LAYER, &tally)
            .contains("\"correct\": false, \"attempted\": 11, \"failed\": 1"));
        assert!(Report::default()
            .json(&[], &Tally::default())
            .contains("\"correct\": false, \"attempted\": 1"));
    }
}
