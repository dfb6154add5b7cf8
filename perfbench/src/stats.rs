//! Sample statistics, the open-loop schedule, derived self times and the
//! seeded generator every workload draws its inputs from.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Samples per block of [`Samples::blocked_p95`]: enough that each
/// block's p95 has fifty samples beyond it.
pub const P95_BLOCK: usize = 1_000;

/// Nearest-rank percentile `p` (in `(0, 1]`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it. The rank is `ceil(p * n)`, so p95 needs at least 200 samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of ascending `sorted` samples (mean of the middle pair for an
/// even count), or `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Latency samples of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean, or 0 with no samples (callers report the count beside it).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The samples in ascending order.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median and p95. The p95 is `None` when the ten-beyond rule fails;
    /// the caller then reports the largest sample instead and flags it.
    pub fn p50_p95(&self) -> (f64, Option<f64>) {
        let sorted = self.sorted();
        (median(&sorted).unwrap_or(0.0), percentile(&sorted, 0.95))
    }

    /// The median, over consecutive blocks of [`P95_BLOCK`] samples in
    /// the order they were taken (the remainder joining the last block),
    /// of each block's p95; the plain p95 with fewer than two blocks. A
    /// few seconds of contention from other tenants of a shared host fill
    /// one block's tail and move a long run's plain p95, but not this.
    pub fn blocked_p95(&self) -> Option<f64> {
        let blocks = self.0.len() / P95_BLOCK;
        if blocks < 2 {
            return self.p50_p95().1;
        }
        let mut p95s: Vec<f64> = (0..blocks)
            .map(|b| {
                let end = if b + 1 == blocks {
                    self.0.len()
                } else {
                    (b + 1) * P95_BLOCK
                };
                let mut block = self.0[b * P95_BLOCK..end].to_vec();
                block.sort_by(f64::total_cmp);
                percentile(&block, 0.95).expect("a full block has fifty samples beyond its p95")
            })
            .collect();
        p95s.sort_by(f64::total_cmp);
        median(&p95s)
    }

    /// Every sample multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples(self.0.iter().map(|v| v * factor).collect())
    }

    /// Largest sample, or 0 with none.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// A fixed-rate open-loop schedule: request `i` is due `i / rate`
/// seconds after the start, whether or not earlier requests finished.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Requests per second across all senders.
    pub rate: f64,
}

impl OpenLoop {
    /// Offset of request `i`'s due time from the schedule start, seconds.
    pub fn due_s(&self, i: u64) -> f64 {
        i as f64 / self.rate
    }
}

/// One open-loop request's timeline, seconds from the schedule start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the sender actually started it (never before `due`).
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
}

impl Timed {
    /// Latency as a user sees it: from the due time, so a stalled sender
    /// charges its wait to every request queued behind the stall.
    pub fn latency_from_due(&self) -> f64 {
        self.done - self.due
    }

    /// Service time alone: from the send to the response.
    pub fn service(&self) -> f64 {
        self.done - self.sent
    }

    /// How late the generator started the request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// A self time derived as a span minus the child spans inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// The difference, clamped at zero.
    pub value: f64,
    /// Whether the raw difference was negative (the children were
    /// measured longer than their parent: clock noise or a mismatched
    /// pair of spans), so the reported value is a clamp, not a time.
    pub clamped: bool,
}

/// `total − Σ parts`, clamped at zero and flagged when clamping.
pub fn self_time(total: f64, parts: &[f64]) -> Derived {
    let raw = total - parts.iter().sum::<f64>();
    if raw < 0.0 {
        Derived {
            value: 0.0,
            clamped: true,
        }
    } else {
        Derived {
            value: raw,
            clamped: false,
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the same seed gives the same
/// inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, ten beyond — valid.
        assert_eq!(percentile(&ascending(200), 0.95), Some(190.0));
        // 199 samples: rank 190, nine beyond — refused.
        assert_eq!(percentile(&ascending(199), 0.95), None);
        // p50 of 21 samples: rank 11, ten beyond — valid; of 19, not.
        assert_eq!(percentile(&ascending(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ascending(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn samples_report_p95_only_when_valid() {
        let mut s = Samples::default();
        for v in ascending(150).into_iter().rev() {
            s.push(v);
        }
        let (p50, p95) = s.p50_p95();
        assert_eq!(p50, 75.5);
        assert_eq!(p95, None, "150 samples leave only 7 beyond p95");
        assert_eq!(s.max(), 150.0);
        for v in 151..=250 {
            s.push(v as f64);
        }
        assert_eq!(s.p50_p95().1, Some(238.0));
    }

    #[test]
    fn blocked_p95_is_the_median_of_block_p95s() {
        // Under two blocks: the plain p95.
        let mut s = Samples::default();
        for v in ascending(1_999) {
            s.push(v);
        }
        assert_eq!(s.blocked_p95(), s.p50_p95().1);
        // Three quiet blocks with p95 950 and one contended block whose
        // every sample is 10x: the median of 950, 950, 950, 9500 is 950,
        // where the plain p95 lands inside the contended block.
        let mut s = Samples::default();
        for b in 0..4 {
            let scale = if b == 1 { 10.0 } else { 1.0 };
            for v in ascending(P95_BLOCK) {
                s.push(v * scale);
            }
        }
        assert_eq!(s.blocked_p95(), Some(950.0));
        assert!(s.p50_p95().1.unwrap() > 950.0 * 5.0);
        // A remainder joins the last block rather than forming its own:
        // that block's p95 becomes rank 951 of 1 001, and the median of
        // 950, 950, 951, 9500 is 950.5.
        s.push(1e9);
        assert_eq!(s.blocked_p95(), Some(950.5));
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let schedule = OpenLoop { rate: 100.0 };
        assert_eq!(schedule.due_s(0), 0.0);
        assert!((schedule.due_s(250) - 2.5).abs() < 1e-12);
        // One sender: request 0 stalls 50 ms; requests 1..=4 were due
        // every 10 ms but could only start when it finished.
        let mut free_at = 0.0_f64;
        let mut timeline = Vec::new();
        for i in 0..5 {
            let due = schedule.due_s(i);
            let sent = due.max(free_at);
            let service = if i == 0 { 0.050 } else { 0.001 };
            let done = sent + service;
            free_at = done;
            timeline.push(Timed { due, sent, done });
        }
        // Request 3 waited from 30 ms to 52 ms, then took 1 ms.
        let r3 = timeline[3];
        assert!((r3.lag() - 0.022).abs() < 1e-9);
        assert!((r3.service() - 0.001).abs() < 1e-9);
        assert!((r3.latency_from_due() - 0.023).abs() < 1e-9);
        // Timing from the send would have hidden the stall entirely.
        assert!(timeline[1..].iter().all(|t| t.service() < 0.002));
        assert!(timeline[1..].iter().all(|t| t.latency_from_due() > 0.010));
    }

    #[test]
    fn on_time_requests_have_no_lag() {
        let t = Timed {
            due: 1.0,
            sent: 1.0,
            done: 1.004,
        };
        assert_eq!(t.lag(), 0.0);
        assert_eq!(t.latency_from_due(), t.service());
    }

    #[test]
    fn derived_self_time_is_clamped_and_flagged_never_negative() {
        let ok = self_time(10.0, &[3.0, 4.0]);
        assert_eq!(
            ok,
            Derived {
                value: 3.0,
                clamped: false
            }
        );
        let exact = self_time(7.0, &[3.0, 4.0]);
        assert_eq!(
            exact,
            Derived {
                value: 0.0,
                clamped: false
            }
        );
        let over = self_time(6.0, &[3.0, 4.0]);
        assert_eq!(
            over,
            Derived {
                value: 0.0,
                clamped: true
            }
        );
    }

    #[test]
    fn rng_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let x = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }
}
