//! Host-speed calibration.
//!
//! On a shared host the same binary's speed drifts by a quarter or more
//! within seconds and between minutes (other tenants contend for the
//! shared cache and memory). A fixed reference workload, interleaved with
//! the measured one, drifts with it: in a 30 s `fleet_steady` run, 3 s
//! windows ranged 101–164 simulated s/s while their product with the
//! reference time stayed within ±6 %. Every end-to-end time is therefore
//! reported in *reference-host seconds*: the wall time multiplied by
//! [`NOMINAL_S`] over the reference's current time. The raw wall numbers
//! are printed in `meta`.
//!
//! The reference runs in the measured process, so the workloads take its
//! samples where they disturb the program least and see none of the
//! program's own load: fleet engines sample mid-period, never just before
//! a round; the room leaves the round after a sample untimed; the
//! operator stack samples only while no request is in flight and scales
//! its engine times by the run's median reference time rather than the
//! local one, so the slowdown scrapes cause the engine is not divided
//! out. The reference's heap is left out of `peak_rss_mb`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Instant;

use crate::stats::Samples;

/// Servers the reference mimics. Like the engine's per-second sweep it
/// looks each one up by key, updates a small float state, and appends a
/// sample to a per-server series that is cleared on a fixed period.
const SERVERS: usize = 8_000;

/// Mimicked seconds per reference sample (about 2.5 ms of work).
const SECONDS: usize = 4;

/// The reference time that defines one reference-host second's scale:
/// a reference sample taking this long means wall time is reported as is.
pub const NOMINAL_S: f64 = 2.5e-3;

/// Reference samples the local speed estimate is the median of.
const WINDOW: usize = 5;

/// The reference workload and its recent timings.
pub struct HostClock {
    state: Vec<[f64; 8]>,
    index: HashMap<u32, usize>,
    series: Vec<Vec<f64>>,
    keys: Vec<u32>,
    recent: VecDeque<f64>,
    all: Samples,
}

impl HostClock {
    /// Builds the reference and times it once.
    pub fn new() -> Self {
        let mut keys: Vec<u32> = (0..SERVERS as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let index = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        keys.sort_unstable();
        let mut clock = HostClock {
            state: vec![[1.0; 8]; SERVERS],
            index,
            series: vec![Vec::new(); SERVERS],
            keys,
            recent: VecDeque::with_capacity(WINDOW),
            all: Samples::default(),
        };
        clock.sample();
        clock
    }

    /// Runs the reference once and records its wall time.
    pub fn sample(&mut self) {
        let dt = self.run();
        self.record(dt);
    }

    /// Runs the reference once and returns its wall time without
    /// recording it, for a caller that keeps only undisturbed samples.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..SECONDS {
            for &k in &self.keys {
                let i = self.index[&k];
                let s = &mut self.state[i];
                for j in 0..8 {
                    s[j] = s[j] * 0.97 + 0.03 * (s[(j + 1) % 8] + 1.0).sqrt();
                }
                let series = &mut self.series[i];
                if series.len() >= 240 {
                    series.clear();
                }
                series.push(s[0]);
            }
        }
        std::hint::black_box(&self.state);
        t0.elapsed().as_secs_f64()
    }

    /// Records one reference time.
    pub fn record(&mut self, dt: f64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(dt);
        self.all.push(dt);
    }

    /// Converts a wall time measured now into reference-host seconds.
    pub fn scale(&self, wall_s: f64) -> f64 {
        let mut recent: Vec<f64> = self.recent.iter().copied().collect();
        recent.sort_by(f64::total_cmp);
        let local = crate::stats::median(&recent).expect("sampled at construction");
        wall_s * NOMINAL_S / local
    }

    /// The factor that converts a wall time into reference-host seconds
    /// at the run's median reference time, for times that must keep their
    /// shape within the run and lose only the run's overall host speed.
    pub fn run_factor(&self) -> f64 {
        NOMINAL_S / self.all.p50_p95().0
    }

    /// Median reference time over the run, milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.all.p50_p95().0 * 1e3
    }

    /// Reference samples taken.
    pub fn samples(&self) -> usize {
        self.all.len()
    }

    /// Heap the reference holds, MiB: its state, keys, index and series
    /// buffers (the index counted at 16 bytes per entry plus one control
    /// byte, as `HashMap` stores it).
    pub fn heap_mb(&self) -> f64 {
        let series: usize = self.series.iter().map(|s| s.capacity() * 8).sum();
        let bytes = self.state.capacity() * 64
            + self.series.capacity() * std::mem::size_of::<Vec<f64>>()
            + series
            + self.keys.capacity() * 4
            + self.index.capacity() * 17;
        bytes as f64 / (1024.0 * 1024.0)
    }
}

/// One kind of timing, kept both as measured and in reference-host
/// seconds.
#[derive(Debug, Default, Clone)]
pub struct Dual {
    /// Wall seconds as measured.
    pub raw: Samples,
    /// The same, in reference-host seconds (equal to `raw` when no clock
    /// was given).
    pub scaled: Samples,
}

impl Dual {
    /// Records a wall time measured just now.
    pub fn push(&mut self, wall_s: f64, host: Option<&HostClock>) {
        self.raw.push(wall_s);
        self.scaled.push(host.map_or(wall_s, |h| h.scale(wall_s)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_wall_time_over_the_local_median() {
        let mut clock = HostClock::new();
        clock.recent = [4e-3, 5e-3, 100e-3].into_iter().collect();
        // Median 5 ms is twice nominal: the host runs at half speed, so a
        // 10 ms wall time is 5 ms on the reference host.
        assert!((clock.scale(10e-3) - 5e-3).abs() < 1e-12);
        for _ in 0..WINDOW {
            clock.sample();
        }
        assert_eq!(
            clock.recent.len(),
            WINDOW,
            "window keeps the newest samples"
        );
        assert_eq!(clock.samples(), WINDOW + 1);
        let before = clock.samples();
        let dt = clock.run();
        assert!(dt > 0.0);
        assert_eq!(clock.samples(), before, "run alone records nothing");
    }

    #[test]
    fn heap_covers_the_full_series() {
        let mut clock = HostClock::new();
        for _ in 0..240 / SECONDS {
            clock.sample();
        }
        // 8 000 series of 240 samples at 8 bytes each, at least.
        let floor = (SERVERS * 240 * 8) as f64 / (1024.0 * 1024.0);
        assert!(clock.heap_mb() >= floor, "{} < {floor}", clock.heap_mb());
        assert!(clock.heap_mb() < 2.0 * floor);
    }
}
