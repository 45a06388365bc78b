//! Machine-readable bench reports (`BENCH_*.json`).
//!
//! A [`BenchReport`] is a versioned JSON document the bench binaries
//! write next to their stdout tables so the perf trajectory is tracked
//! across PRs. The schema separates what must be reproducible from what
//! cannot be:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "sched",
//!   "config": { "scale": 0.05, ... },     // run parameters
//!   "results": { ... },                   // deterministic outputs
//!   "counters": { "rc_...": 123, ... },   // registry snapshot deltas
//!   "quantiles": { "store_get_ns": { "count": n, "mean": ..., "p50": ... } },
//!   "spans": { "pipeline.train": ns, ... }
//! }
//! ```
//!
//! `config`, `results`, and `counters` must be byte-identical across a
//! double run at the same scale; `quantiles` and `spans` carry
//! wall-clock timings, and a few counters follow the machine's CPU
//! count, so both are excluded from that comparison (see
//! [`deterministic_view`]). CI enforces both properties with the
//! `report_check` binary.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use crate::tracing::Tracer;

/// Current `BENCH_*.json` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Top-level sections that hold wall-clock measurements and are skipped
/// by [`deterministic_view`].
pub const NONDETERMINISTIC_SECTIONS: &[&str] = &["quantiles", "spans"];

/// Counters whose value follows `available_parallelism` rather than the
/// workload, skipped by [`deterministic_view`]: the same run reports a
/// different count on a machine of another width.
const MACHINE_WIDTH_COUNTERS: &[&str] = &[crate::ML_POOL_WORKERS_SPAWNED];

/// Builder/writer for one bench run's report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    bench: String,
    config: Vec<(String, Value)>,
    results: Vec<(String, Value)>,
    counters: Vec<(String, Value)>,
    quantiles: Vec<(String, Value)>,
    spans: Vec<(String, Value)>,
}

impl BenchReport {
    /// An empty report for the bench named `bench`.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            config: Vec::new(),
            results: Vec::new(),
            counters: Vec::new(),
            quantiles: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn upsert(section: &mut Vec<(String, Value)>, key: &str, value: Value) {
        match section.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => section.push((key.to_string(), value)),
        }
    }

    /// Records one run parameter (deterministic section).
    pub fn set_config(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        Self::upsert(&mut self.config, key, value.to_value());
        self
    }

    /// Records one result (deterministic section).
    pub fn set_result(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        Self::upsert(&mut self.results, key, value.to_value());
        self
    }

    /// Records every counter that grew between two registry snapshots
    /// (deterministic section; zero deltas are omitted).
    pub fn set_counter_deltas(
        &mut self,
        after: &MetricsSnapshot,
        before: &MetricsSnapshot,
    ) -> &mut Self {
        for c in &after.counters {
            let delta = c.value.saturating_sub(before.counter(&c.name).unwrap_or(0));
            if delta > 0 {
                Self::upsert(&mut self.counters, &c.name, Value::U64(delta));
            }
        }
        self
    }

    /// Records one counter value directly (deterministic section).
    pub fn set_counter(&mut self, name: &str, value: u64) -> &mut Self {
        Self::upsert(&mut self.counters, name, Value::U64(value));
        self
    }

    /// Records a latency distribution's count/mean/p50/p95/p99 under
    /// `label` (wall-clock section, excluded from double-run diffs).
    pub fn set_quantiles(&mut self, label: &str, hist: &HistogramSnapshot) -> &mut Self {
        let row = Value::Object(vec![
            ("count".to_string(), Value::U64(hist.count)),
            ("mean".to_string(), Value::F64(hist.mean())),
            ("p50".to_string(), Value::F64(hist.quantile(0.50))),
            ("p95".to_string(), Value::F64(hist.quantile(0.95))),
            ("p99".to_string(), Value::F64(hist.quantile(0.99))),
        ]);
        Self::upsert(&mut self.quantiles, label, row);
        self
    }

    /// Records the most recent duration of every span the tracer
    /// retains whose name starts with `prefix` (wall-clock section).
    pub fn set_span_timings(&mut self, tracer: &Tracer, prefix: &str) -> &mut Self {
        for event in tracer.events() {
            if let Some(ns) = event.duration_ns {
                if event.name.starts_with(prefix) {
                    Self::upsert(&mut self.spans, &event.name, Value::U64(ns));
                }
            }
        }
        self
    }

    /// Records the median duration of every span the tracer retains
    /// whose name starts with `prefix` (wall-clock section) — the budget
    /// of a stage that runs many times, such as a control-loop tick's,
    /// where the most recent run is one sample and the mean is pulled by
    /// the few runs that do something else (a tick that retrains).
    pub fn set_span_medians(&mut self, tracer: &Tracer, prefix: &str) -> &mut Self {
        let mut by_name: Vec<(String, Vec<u64>)> = Vec::new();
        for event in tracer.events() {
            let Some(ns) = event.duration_ns else { continue };
            if !event.name.starts_with(prefix) {
                continue;
            }
            match by_name.iter_mut().find(|(name, _)| *name == event.name) {
                Some((_, durations)) => durations.push(ns),
                None => by_name.push((event.name, vec![ns])),
            }
        }
        for (name, mut durations) in by_name {
            let mid = durations.len() / 2;
            let (_, median, _) = durations.select_nth_unstable(mid);
            Self::upsert(&mut self.spans, &name, Value::U64(*median));
        }
        self
    }

    /// Records one named timing in nanoseconds (wall-clock section).
    pub fn set_span(&mut self, name: &str, duration_ns: u64) -> &mut Self {
        Self::upsert(&mut self.spans, name, Value::U64(duration_ns));
        self
    }

    /// The report as a schema-valid JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema_version".to_string(), Value::U64(SCHEMA_VERSION)),
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("config".to_string(), Value::Object(self.config.clone())),
            ("results".to_string(), Value::Object(self.results.clone())),
            ("counters".to_string(), Value::Object(self.counters.clone())),
            ("quantiles".to_string(), Value::Object(self.quantiles.clone())),
            ("spans".to_string(), Value::Object(self.spans.clone())),
        ])
    }

    /// Serializes the report (insertion-ordered keys, so byte output is
    /// deterministic given deterministic construction).
    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_vec(&self.to_value()).expect("report contains no non-finite floats")
    }

    /// Writes the report to `path` atomically (write-then-rename, with a
    /// trailing newline).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut bytes = self.to_json();
        bytes.push(b'\n');
        let tmp = path.with_extension("json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Writes `BENCH_<name>.json` into `RC_REPORT_DIR` (default: the
    /// current directory, i.e. the repo root under `cargo run`), and
    /// returns the path.
    pub fn write_default(&self, file_name: &str) -> std::io::Result<PathBuf> {
        let dir = std::env::var("RC_REPORT_DIR").unwrap_or_else(|_| ".".to_string());
        std::fs::create_dir_all(&dir)?;
        let path = Path::new(&dir).join(file_name);
        self.write_to(&path)?;
        Ok(path)
    }
}

fn section<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    let obj = value.as_object().ok_or_else(|| "report is not a JSON object".to_string())?;
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing section `{key}`"))
}

/// Validates a parsed report against the schema: version match, a
/// non-empty bench name, and all five sections present as objects with
/// counter values that are unsigned integers.
pub fn validate(value: &Value) -> Result<(), String> {
    let version = section(value, "schema_version")?
        .as_u64()
        .ok_or_else(|| "schema_version is not an unsigned integer".to_string())?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version}, expected {SCHEMA_VERSION}"));
    }
    let bench =
        section(value, "bench")?.as_str().ok_or_else(|| "bench is not a string".to_string())?;
    if bench.is_empty() {
        return Err("bench name is empty".to_string());
    }
    for name in ["config", "results", "counters", "quantiles", "spans"] {
        section(value, name)?
            .as_object()
            .ok_or_else(|| format!("section `{name}` is not an object"))?;
    }
    for (k, v) in section(value, "counters")?.as_object().expect("checked above") {
        if v.as_u64().is_none() {
            return Err(format!("counter `{k}` is not an unsigned integer"));
        }
    }
    for (label, row) in section(value, "quantiles")?.as_object().expect("checked above") {
        let fields =
            row.as_object().ok_or_else(|| format!("quantile row `{label}` is not an object"))?;
        for want in ["count", "mean", "p50", "p95", "p99"] {
            if !fields.iter().any(|(k, _)| k == want) {
                return Err(format!("quantile row `{label}` is missing `{want}`"));
            }
        }
    }
    Ok(())
}

/// The report with its wall-clock sections
/// ([`NONDETERMINISTIC_SECTIONS`]) and its machine-width counters
/// removed — the part of the document that must be byte-identical across
/// a double run, on any machine.
pub fn deterministic_view(value: &Value) -> Value {
    let Some(fields) = value.as_object() else { return value.clone() };
    let keep = |fields: &[(String, Value)], skip: &[&str]| -> Vec<(String, Value)> {
        fields.iter().filter(|(k, _)| !skip.contains(&k.as_str())).cloned().collect()
    };
    let mut view = keep(fields, NONDETERMINISTIC_SECTIONS);
    for (k, v) in &mut view {
        if k == "counters" {
            if let Some(counters) = v.as_object() {
                *v = Value::Object(keep(counters, MACHINE_WIDTH_COUNTERS));
            }
        }
    }
    Value::Object(view)
}

/// Reads and parses a report file.
pub fn read_report(path: &Path) -> Result<Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e:?}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> BenchReport {
        let reg = Registry::new();
        let before = reg.snapshot();
        reg.counter("rc_test_ops").add(41);
        let h = reg.histogram("rc_test_latency_ns");
        h.record(120);
        h.record(950);
        let after = reg.snapshot();
        let mut report = BenchReport::new("unit");
        report
            .set_config("scale", 0.05)
            .set_result("failures", 3u64)
            .set_counter_deltas(&after, &before)
            .set_quantiles("latency_ns", after.histogram("rc_test_latency_ns").unwrap())
            .set_span("phase.run", 12_345);
        report
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = sample();
        let bytes = report.to_json();
        let value: Value = serde_json::from_slice(&bytes).expect("parses");
        validate(&value).expect("schema-valid");
        let counters = section(&value, "counters").unwrap().as_object().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].0, "rc_test_ops");
        assert_eq!(counters[0].1.as_u64(), Some(41));
    }

    #[test]
    fn validate_rejects_bad_documents() {
        let report = sample().to_value();
        // Wrong version.
        let mut wrong = report.as_object().unwrap().to_vec();
        wrong[0].1 = Value::U64(99);
        assert!(validate(&Value::Object(wrong)).unwrap_err().contains("schema_version"));
        // Missing section.
        let missing: Vec<(String, Value)> =
            report.as_object().unwrap().iter().filter(|(k, _)| k != "counters").cloned().collect();
        assert!(validate(&Value::Object(missing)).unwrap_err().contains("counters"));
        // Non-integer counter.
        let mut bad = sample();
        bad.counters.push(("oops".to_string(), Value::F64(1.5)));
        assert!(validate(&bad.to_value()).unwrap_err().contains("oops"));
    }

    #[test]
    fn deterministic_view_drops_only_wall_clock_sections() {
        let value = sample().to_value();
        let det = deterministic_view(&value);
        let keys: Vec<&str> = det.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["schema_version", "bench", "config", "results", "counters"]);
        // Two runs differing only in timings agree on the view.
        let mut other = sample();
        other.set_span("phase.run", 999_999);
        other.set_quantiles(
            "latency_ns",
            &HistogramSnapshot { name: "x".into(), count: 0, sum: 0, buckets: vec![] },
        );
        assert_eq!(
            serde_json::to_vec(&det).unwrap(),
            serde_json::to_vec(&deterministic_view(&other.to_value())).unwrap()
        );
    }

    #[test]
    fn deterministic_view_drops_machine_width_counters() {
        // A pool that spawned workers on a wide machine and one that ran
        // inline on a single CPU report the same view.
        let mut wide = sample();
        wide.set_counter(crate::ML_POOL_WORKERS_SPAWNED, 42);
        let view =
            |r: &BenchReport| serde_json::to_vec(&deterministic_view(&r.to_value())).unwrap();
        assert_eq!(view(&wide), view(&sample()));
        // Only the view drops it; the report keeps every counter.
        assert_ne!(wide.to_json(), sample().to_json());
    }

    #[test]
    fn span_medians_summarize_repeated_stages() {
        let tracer = Tracer::new(64);
        for _ in 0..5 {
            tracer.span("tick.a").finish();
            tracer.span("tick.b").finish();
        }
        tracer.span("other").finish();
        tracer.event("tick.event", Vec::new());
        let mut report = BenchReport::new("unit");
        report.set_span_medians(&tracer, "tick.");
        let names: Vec<&str> = report.spans.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["tick.a", "tick.b"], "one entry per stage, first-seen order");
        let mut a: Vec<u64> = tracer
            .events()
            .iter()
            .filter(|e| e.name == "tick.a")
            .filter_map(|e| e.duration_ns)
            .collect();
        a.sort_unstable();
        assert_eq!(report.spans[0].1, Value::U64(a[2]));
    }

    #[test]
    fn write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("rc_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        sample().write_to(&path).unwrap();
        let value = read_report(&path).unwrap();
        validate(&value).expect("schema-valid");
        std::fs::remove_dir_all(&dir).ok();
    }
}
