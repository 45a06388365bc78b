//! Lazy per-VM CPU-utilization models.
//!
//! Storing three months of 5-minute readings for hundreds of thousands of
//! VMs would dwarf memory, so each VM instead carries a compact
//! [`UtilParams`] and readings are *derived on demand*: the reading for any
//! telemetry slot is a pure function of `(params, slot)` via hash-based
//! randomness, so repeated queries agree and the whole series never has to
//! exist at once.
//!
//! The model produces the behaviours §3 describes:
//!
//! - a base load (the average-utilization target),
//! - a per-interval *maximum* riding just below the VM's P95 level, with
//!   rare subscription-correlated bursts above it (so "P95 of max" lands
//!   where the generator intended and above-P95 excursions can align
//!   across co-located VMs),
//! - an optional diurnal swing for interactive workloads (detected later
//!   by the FFT classifier), and
//! - near-zero activity for first-party creation-test VMs.

use serde::{Deserialize, Serialize};

use rc_types::telemetry::UtilReading;
use rc_types::time::{Timestamp, TELEMETRY_INTERVAL};

use crate::sampler::{hash_normal, hash_unit};

/// Fraction of 15-minute windows in which a subscription bursts *above*
/// its P95 level.
///
/// The per-interval maximum is modelled as the VM's P95 level scaled by a
/// factor that usually lies just below 1 and, during bursts, just above it
/// — so the 95th percentile of the max series lands at `p95_level` by
/// construction (`0.05 × 0.9 ≈ 4.5%` of slots exceed it). Bursts are
/// *correlated within a subscription* (VMs of one subscription run the
/// same workload, §3.2), which is what makes simultaneous above-P95
/// maxima — and hence the rare >100% server readings §6.2 counts — align
/// in time: "resource exhaustion might occur when higher percentile
/// utilizations for multiple non-production VMs happen to align in time,
/// even when predictions are perfectly accurate".
pub const BURST_WINDOW_PROBABILITY: f64 = 0.05;

/// Probability a VM joins its subscription's burst in a given slot.
pub const BURST_JOIN_PROBABILITY: f64 = 0.9;

/// Telemetry slots per burst window (3 slots = 15 minutes).
pub const BURST_WINDOW_SLOTS: u64 = 3;

/// Relative spread of the per-slot maximum below the P95 level outside
/// bursts (`max ∈ [1 - spread, 1] × p95_level`).
pub const MAX_BELOW_P95_SPREAD: f64 = 0.25;

/// Relative overshoot of the per-slot maximum above the P95 level during
/// bursts (`max ∈ [1, 1 + overshoot] × p95_level`, clamped to 100%).
pub const MAX_BURST_OVERSHOOT: f64 = 0.15;

/// Compact description of one VM's utilization behaviour.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UtilParams {
    /// Per-VM random stream seed.
    pub seed: u64,
    /// Shared burst-stream seed — equal for all VMs of a subscription, so
    /// their maxima align in time.
    pub burst_seed: u64,
    /// Target mean of the per-interval average utilization, in `[0, 1]`.
    pub base: f64,
    /// Level the per-interval maximum spikes to (the P95-of-max target).
    pub p95_level: f64,
    /// Relative diurnal amplitude of the average (0 = flat, interactive
    /// workloads use 0.5–0.9).
    pub diurnal_amplitude: f64,
    /// Hour of day at which the diurnal swing peaks.
    pub peak_hour: f64,
    /// Absolute noise amplitude added to the average.
    pub noise: f64,
}

impl UtilParams {
    /// A model for a creation-test VM: near-zero everything.
    pub fn creation_test(seed: u64) -> Self {
        UtilParams {
            seed,
            burst_seed: seed,
            base: 0.01,
            p95_level: 0.03,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            noise: 0.005,
        }
    }

    /// Clamps parameters into their valid ranges, preserving
    /// `p95_level >= base`.
    pub fn sanitized(mut self) -> Self {
        self.base = self.base.clamp(0.0, 1.0);
        self.p95_level = self.p95_level.clamp(self.base, 1.0);
        self.diurnal_amplitude = self.diurnal_amplitude.clamp(0.0, 0.95);
        self.noise = self.noise.clamp(0.0, 0.2);
        self
    }

    /// The diurnal multiplier on `base` at a slot of the day: the swing
    /// multiplies the base, and `cos` integrates to zero over a day, so
    /// the daily mean stays near `base`.
    fn diurnal(&self, slot_of_day: u64) -> f64 {
        let hour = (slot_of_day * TELEMETRY_INTERVAL.as_secs()) as f64 / 3600.0;
        let phase = 2.0 * std::f64::consts::PI * (hour - self.peak_hour) / 24.0;
        1.0 + self.diurnal_amplitude * phase.cos()
    }

    /// [`UtilParams::diurnal`] hoisted out of a run of readings: the
    /// multiplier of every slot of the day. The term depends on the slot
    /// only through its slot of the day, so a run needs at most
    /// [`SLOTS_PER_DAY`] cosines however long it is; and at amplitude zero
    /// — most VMs — it is `1.0 + 0.0 * cos(..)`, the same value at every
    /// slot, so one evaluation stands for all of them.
    fn diurnal_cycle(&self) -> [f64; SLOTS_PER_DAY as usize] {
        if self.diurnal_amplitude == 0.0 {
            [self.diurnal(0); SLOTS_PER_DAY as usize]
        } else {
            std::array::from_fn(|slot_of_day| self.diurnal(slot_of_day as u64))
        }
    }

    /// The average reading of `slot`, given its diurnal multiplier.
    fn avg_at(&self, slot: u64, diurnal: f64) -> f64 {
        let noise = self.noise * hash_normal(self.seed, slot.wrapping_mul(3) + 1);
        (self.base * diurnal + noise).clamp(0.0, 1.0)
    }

    /// The maximum reading of `slot`, given its diurnal multiplier and
    /// average.
    ///
    /// Interactive VMs burst slightly more while busy (daytime); flat VMs
    /// burst uniformly. The burst stream is shared across the
    /// subscription so sibling VMs exceed their P95 together; the per-VM
    /// roll decides whether this VM joins the burst.
    fn max_at(&self, slot: u64, diurnal: f64, avg: f64) -> f64 {
        let burst_bias = if self.diurnal_amplitude > 0.0 { (diurnal - 1.0) * 0.08 } else { 0.0 };
        let window = slot / BURST_WINDOW_SLOTS;
        let bursting = hash_unit(self.burst_seed, window) < BURST_WINDOW_PROBABILITY + burst_bias;
        let joins = hash_unit(self.seed, slot.wrapping_mul(3) + 2) < BURST_JOIN_PROBABILITY;
        let shape = hash_unit(self.seed, slot.wrapping_mul(3) + 3);
        let factor = if bursting && joins {
            1.0 + MAX_BURST_OVERSHOOT * shape
        } else {
            1.0 - MAX_BELOW_P95_SPREAD * (1.0 - shape)
        };
        (self.p95_level * factor).clamp(avg, 1.0)
    }

    /// The telemetry reading for a global 5-minute slot index.
    ///
    /// Pure: the same `(params, slot)` always yields the same reading.
    pub fn reading(&self, slot: u64) -> UtilReading {
        let ts = Timestamp::from_secs(slot * TELEMETRY_INTERVAL.as_secs());
        let diurnal = self.diurnal(slot % SLOTS_PER_DAY);
        let avg = self.avg_at(slot, diurnal);
        let max = self.max_at(slot, diurnal, avg);
        let min = avg * (0.35 + 0.4 * hash_unit(self.seed, slot.wrapping_mul(3) + 4));
        UtilReading::new(ts, min, avg, max)
    }

    /// Summarizes the series over `[first_slot, last_slot)` with at most
    /// `max_samples` evenly strided slots: returns
    /// `(mean of avg, 95th percentile of max)`.
    ///
    /// Returns `(base, p95_level)` when the range is empty — the model's
    /// targets are the best available estimate for a VM too short to have
    /// produced a reading.
    pub fn summarize(&self, first_slot: u64, last_slot: u64, max_samples: usize) -> (f64, f64) {
        self.summarize_with(first_slot, last_slot, max_samples, &mut Vec::new())
    }

    /// [`UtilParams::summarize`] with the sampled maxima held in a buffer
    /// of the caller's, for callers that summarize one VM after another.
    /// Each sample costs what its `avg` and `max` cost and nothing else:
    /// no `min`, no [`UtilReading`], no cosine.
    pub fn summarize_with(
        &self,
        first_slot: u64,
        last_slot: u64,
        max_samples: usize,
        maxes: &mut Vec<f64>,
    ) -> (f64, f64) {
        if last_slot <= first_slot || max_samples == 0 {
            return (self.base, self.p95_level);
        }
        let n_slots = (last_slot - first_slot) as usize;
        let stride = n_slots.div_ceil(max_samples).max(1);
        let cycle = self.diurnal_cycle();
        maxes.clear();
        let mut sum_avg = 0.0;
        for slot in (first_slot..last_slot).step_by(stride) {
            let diurnal = cycle[(slot % SLOTS_PER_DAY) as usize];
            let avg = self.avg_at(slot, diurnal);
            sum_avg += avg;
            maxes.push(self.max_at(slot, diurnal, avg));
        }
        let n = maxes.len();
        // Only the element of rank `p95_idx` is read, so it is selected
        // rather than sorted into place along with the others.
        let p95_idx = ((n as f64 * 0.95).floor() as usize).min(n - 1);
        let (_, p95, _) =
            maxes.select_nth_unstable_by(p95_idx, |a, b| a.partial_cmp(b).expect("finite utils"));
        (sum_avg / n as f64, *p95)
    }

    /// Replaces the contents of `out` with the average-utilization time
    /// series over a slot range, one value per slot — the input to the FFT
    /// workload classifier. Each value is `reading(slot).avg` at the cost
    /// of its Box–Muller draw.
    pub fn avg_series_into(&self, first_slot: u64, last_slot: u64, out: &mut Vec<f64>) {
        let cycle = self.diurnal_cycle();
        out.clear();
        out.extend(
            (first_slot..last_slot)
                .map(|slot| self.avg_at(slot, cycle[(slot % SLOTS_PER_DAY) as usize])),
        );
    }
}

/// Telemetry slots per day: the period of the diurnal term.
const SLOTS_PER_DAY: u64 = 86_400 / TELEMETRY_INTERVAL.as_secs();

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(base: f64, p95: f64) -> UtilParams {
        UtilParams {
            seed: 77,
            burst_seed: 123,
            base,
            p95_level: p95,
            diurnal_amplitude: 0.0,
            peak_hour: 0.0,
            noise: 0.02,
        }
        .sanitized()
    }

    #[test]
    fn readings_are_deterministic_and_valid() {
        let p = flat(0.3, 0.8);
        for slot in 0..500 {
            let a = p.reading(slot);
            let b = p.reading(slot);
            assert_eq!(a, b);
            assert!(a.is_valid(), "invalid reading at slot {slot}: {a:?}");
        }
    }

    #[test]
    fn mean_avg_tracks_base() {
        for base in [0.05, 0.3, 0.6] {
            let p = flat(base, (base + 0.3).min(1.0));
            let (avg, _) = p.summarize(0, 288 * 7, usize::MAX);
            assert!((avg - base).abs() < 0.05, "base {base} -> mean {avg}");
        }
    }

    #[test]
    fn p95_of_max_tracks_target() {
        for p95 in [0.4, 0.7, 0.95] {
            let p = flat(0.1, p95);
            let (_, got) = p.summarize(0, 288 * 7, usize::MAX);
            assert!((got - p95).abs() < 0.08, "target {p95} -> p95 {got}");
        }
    }

    #[test]
    fn diurnal_model_swings_daily() {
        let p = UtilParams {
            seed: 9,
            burst_seed: 44,
            base: 0.4,
            p95_level: 0.9,
            diurnal_amplitude: 0.7,
            peak_hour: 14.0,
            noise: 0.02,
        };
        // Mean near the peak hour should exceed the mean near the trough.
        let day_mean: f64 = (0..12).map(|i| p.reading(14 * 12 + i).avg).sum::<f64>() / 12.0;
        let night_mean: f64 = (0..12).map(|i| p.reading(2 * 12 + i).avg).sum::<f64>() / 12.0;
        assert!(day_mean > night_mean + 0.3, "day {day_mean} night {night_mean}");
    }

    #[test]
    fn creation_test_vms_are_idle() {
        let p = UtilParams::creation_test(5);
        let (avg, p95) = p.summarize(0, 3, usize::MAX);
        assert!(avg < 0.05);
        assert!(p95 < 0.1);
    }

    #[test]
    fn sanitize_restores_ordering() {
        let p = UtilParams {
            seed: 0,
            burst_seed: 0,
            base: 0.9,
            p95_level: 0.2,
            diurnal_amplitude: 2.0,
            peak_hour: 0.0,
            noise: 1.0,
        }
        .sanitized();
        assert!(p.p95_level >= p.base);
        assert!(p.diurnal_amplitude <= 0.95);
        assert!(p.noise <= 0.2);
    }

    #[test]
    fn summarize_with_stride_approximates_full() {
        let p = flat(0.3, 0.8);
        let (full_avg, full_p95) = p.summarize(0, 288 * 10, usize::MAX);
        let (s_avg, s_p95) = p.summarize(0, 288 * 10, 500);
        assert!((full_avg - s_avg).abs() < 0.03);
        assert!((full_p95 - s_p95).abs() < 0.05);
    }

    #[test]
    fn empty_range_returns_targets() {
        let p = flat(0.3, 0.8);
        assert_eq!(p.summarize(10, 10, 100), (0.3, 0.8));
    }

    #[test]
    fn avg_series_matches_readings() {
        let p = flat(0.2, 0.5);
        let mut series = vec![9.0; 3];
        p.avg_series_into(100, 130, &mut series);
        assert_eq!(series.len(), 30);
        for (i, &v) in series.iter().enumerate() {
            assert_eq!(v, p.reading(100 + i as u64).avg);
        }
    }

    /// `summarize` as it was written on top of `reading`: every sample a
    /// full reading, the maxima sorted.
    fn summarize_by_readings(p: &UtilParams, first: u64, last: u64, max: usize) -> (f64, f64) {
        if last <= first || max == 0 {
            return (p.base, p.p95_level);
        }
        let stride = ((last - first) as usize).div_ceil(max).max(1) as u64;
        let mut maxes = Vec::new();
        let mut sum_avg = 0.0;
        let mut slot = first;
        while slot < last {
            let r = p.reading(slot);
            sum_avg += r.avg;
            maxes.push(r.max);
            slot += stride;
        }
        maxes.sort_by(|a, b| a.partial_cmp(b).expect("finite utils"));
        let p95_idx = ((maxes.len() as f64) * 0.95).floor() as usize;
        (sum_avg / maxes.len() as f64, maxes[p95_idx.min(maxes.len() - 1)])
    }

    #[test]
    fn kernels_equal_reading_based_references_bit_for_bit() {
        use crate::sampler::hash_unit;
        let mut maxes = Vec::new();
        let mut series = Vec::new();
        for case in 0..300u64 {
            let u = |stream: u64| hash_unit(0xC0DE + case, stream);
            // A third of the cases flat, the rest swinging; parameters
            // both inside and (unsanitized) outside their valid ranges;
            // peak hours fractional and past either end of the day.
            let p = UtilParams {
                seed: case.wrapping_mul(0x9E37_79B9),
                burst_seed: case / 3,
                base: u(1) * 1.2 - 0.1,
                p95_level: u(2) * 1.2,
                diurnal_amplitude: if case % 3 == 0 { 0.0 } else { u(3) * 1.1 },
                peak_hour: u(4) * 30.0 - 3.0,
                noise: u(5) * 0.3,
            };
            // Starts anywhere in the day, so runs of more than a few
            // hours cross midnight; lengths from nothing to a week.
            let first = (u(6) * 5_000.0) as u64;
            let len = match case % 5 {
                0 => 0,
                1 => 1 + (u(7) * 10.0) as u64,
                _ => (u(7) * 2_016.0) as u64,
            };
            let last = first + len;

            p.avg_series_into(first, last, &mut series);
            let by_readings: Vec<f64> = (first..last).map(|s| p.reading(s).avg).collect();
            assert_eq!(
                series.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                by_readings.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "case {case}: {p:?} over {first}..{last}"
            );

            // Stride 1 (every slot), strides above 1, and no samples.
            for max_samples in [usize::MAX, 120, 7, 1, 0] {
                let want = summarize_by_readings(&p, first, last, max_samples);
                let got = p.summarize_with(first, last, max_samples, &mut maxes);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "case {case} max_samples {max_samples}: {p:?} over {first}..{last}"
                );
                assert_eq!(p.summarize(first, last, max_samples), got);
                if len == 0 {
                    assert_eq!(got, (p.base, p.p95_level), "empty range gives the targets");
                }
            }
        }
    }
}
