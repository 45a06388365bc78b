//! Point-in-time captures of registry state.
//!
//! Snapshots are plain serde-serializable data: bench binaries diff them
//! (`delta`) to isolate one phase's activity, extract quantiles, dump
//! them as JSON, or render Prometheus text exposition.

use serde::{Deserialize, Serialize};

use crate::metrics::{bucket_midpoint, bucket_upper_bound};

/// One histogram bucket's occupancy (sparse — zero buckets omitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index in the log-linear layout.
    pub index: u32,
    /// Observations in the bucket.
    pub count: u64,
}

/// A counter's name and value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at capture time.
    pub value: u64,
}

/// A gauge's name and level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Level at capture time.
    pub value: f64,
}

/// A histogram's full (sparse) state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (e.g. `0.99`) as a bucket-midpoint estimate;
    /// 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return bucket_midpoint(b.index as usize) as f64;
            }
        }
        self.buckets.last().map_or(0.0, |b| bucket_midpoint(b.index as usize) as f64)
    }

    /// Mean observed value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations recorded *after* `earlier` was captured
    /// (per-bucket subtraction). `earlier` must be an older snapshot of
    /// the same histogram.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut old = earlier.buckets.iter().peekable();
        for b in &self.buckets {
            let mut count = b.count;
            while let Some(o) = old.peek() {
                if o.index < b.index {
                    old.next();
                } else {
                    if o.index == b.index {
                        count = count.saturating_sub(o.count);
                    }
                    break;
                }
            }
            if count > 0 {
                buckets.push(BucketCount { index: b.index, count });
            }
        }
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

/// Everything a registry held at capture time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, ascending by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, ascending by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, ascending by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a gauge's level by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes the snapshot as JSON.
    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("snapshot contains no non-finite floats")
    }

    /// Renders Prometheus text exposition: counters, gauges, and
    /// cumulative histogram series with `le` labels.
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write;

        // Gauge names may embed labels (`rc_acc_rolling{metric="..."}`);
        // the TYPE line must name the bare metric, once per family.
        fn base(name: &str) -> &str {
            name.split('{').next().unwrap_or(name)
        }

        let mut out = String::new();
        for c in &self.counters {
            writeln!(out, "# TYPE {} counter", base(&c.name)).expect("write to String");
            writeln!(out, "{} {}", c.name, c.value).expect("write to String");
        }
        let mut last_family = "";
        for g in &self.gauges {
            let family = base(&g.name);
            if family != last_family {
                writeln!(out, "# TYPE {family} gauge").expect("write to String");
                last_family = family;
            }
            writeln!(out, "{} {}", g.name, g.value).expect("write to String");
        }
        for h in &self.histograms {
            let name = &h.name;
            writeln!(out, "# TYPE {name} histogram").expect("write to String");
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                let le = bucket_upper_bound(b.index as usize);
                writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}")
                    .expect("write to String");
            }
            writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count).expect("write to String");
            writeln!(out, "{name}_sum {}", h.sum).expect("write to String");
            writeln!(out, "{name}_count {}", h.count).expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Registry};

    #[test]
    fn delta_isolates_new_observations() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.snapshot("h");
        for v in [1_000u64, 2_000] {
            h.record(v);
        }
        let after = h.snapshot("h");
        let delta = after.delta(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 3_000);
        assert!(delta.quantile(0.5) >= 900.0, "p50 of delta should sit near 1000-2000");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.gauge("g").set(1.25);
        reg.histogram("h").record(500);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_slice(&json).expect("parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn prometheus_text_contains_all_series() {
        let reg = Registry::new();
        reg.counter("rc_test_total").add(7);
        reg.gauge("rc_test_level").set(0.5);
        let h = reg.histogram("rc_test_latency_ns");
        h.record(100);
        h.record(200_000);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE rc_test_total counter"));
        assert!(text.contains("rc_test_total 7"));
        assert!(text.contains("# TYPE rc_test_level gauge"));
        assert!(text.contains("# TYPE rc_test_latency_ns histogram"));
        assert!(text.contains("rc_test_latency_ns_count 2"));
        assert!(text.contains("le=\"+Inf\"}} 2".replace("}}", "}").as_str()));
    }

    #[test]
    fn prometheus_text_types_each_labeled_gauge_family_once() {
        let reg = Registry::new();
        reg.gauge("rc_acc_rolling{metric=\"a\"}").set(0.75);
        reg.gauge("rc_acc_rolling{metric=\"b\"}").set(0.5);
        let text = reg.snapshot().to_prometheus_text();
        // One TYPE line per gauge family, bare name, both series present.
        assert_eq!(text.matches("# TYPE rc_acc_rolling gauge").count(), 1);
        assert!(text.contains("rc_acc_rolling{metric=\"a\"} 0.75"));
        assert!(text.contains("rc_acc_rolling{metric=\"b\"} 0.5"));
    }
}
