//! Host-speed calibration.
//!
//! The host this benchmark was defined on changes speed by up to 1.6× within
//! seconds (turbo states and co-tenants' cache and memory traffic): the same
//! 200-session run read a `p50` of 23 ms and of 47 ms ten minutes apart, and
//! ten runs in a row spread over 15–30 % of their median. A regression bound
//! of 10–25 % means nothing against that. So every end-to-end timing is
//! divided by a speed factor measured right around it: a fixed kernel of
//! std-only code (no line of the program under test) is timed before and
//! after each session, and the factor is its time over [`NOMINAL_MS`]. A
//! reported time therefore reads "at the reference host speed"; raw wall
//! times go to stderr and into the trace. On the reference host this brings
//! the run-to-run spread of `session_ms_p50` down to 2–6 % (README,
//! "Steadiness").
//!
//! The kernel does what the peers' hot paths do — hash and compare small
//! strings, allocate, format, sort, walk an ordered map, probe a table
//! larger than the caches — so it slows down when they do. Pure ALU loops
//! and pure pointer chasing were tried and tracked the workloads worse.

use crate::stats::ms_since;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::time::Instant;

/// The kernel's time on the reference host in its common state.
pub const NOMINAL_MS: f64 = 0.75;

/// State the kernel keeps between runs: a table and a map too large for the
/// private caches, so the kernel feels contention in the shared ones.
struct Kernel {
    table: Vec<u64>,
    index: HashMap<u64, u32>,
    x: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1d;
        let index = (0..200_000u32)
            .map(|i| (xorshift(&mut x) % 1_000_000, i))
            .collect();
        Kernel {
            table: (0..2_000_000).collect(),
            index,
            x,
        }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.x;
        let mut sink = 0u64;

        // Group small formatted strings under hashed keys.
        let mut by_key: HashMap<String, Vec<u64>> = HashMap::new();
        let mut text = String::new();
        for i in 0..3_000u64 {
            text.clear();
            let _ = write!(text, "key-{}", xorshift(&mut x) % 400);
            by_key.entry(text.clone()).or_default().push(i);
        }
        sink += by_key.values().map(|v| v.len() as u64).sum::<u64>();

        // Sort, deduplicate, build an ordered map.
        let mut keys: Vec<u64> = (0..6_000).map(|_| xorshift(&mut x) % 100_000).collect();
        keys.sort_unstable();
        keys.dedup();
        let ordered: BTreeMap<u64, usize> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        sink += ordered.len() as u64;

        // Probe the large map and table, formatting and allocating a little.
        for i in 0..2_500u64 {
            let r = xorshift(&mut x);
            if let Some(v) = self.index.get(&(r % 1_000_000)) {
                sink += u64::from(*v);
            }
            let at = (r >> 20) as usize % self.table.len();
            sink = sink.wrapping_add(self.table[at]);
            if i % 4 == 0 {
                text.clear();
                let _ = write!(text, "{{\"k\":{},\"v\":\"row-{at}\"}}", r % 977);
                sink += text.len() as u64;
            }
            if i % 8 == 0 {
                let v: Vec<u64> = (0..16).map(|j| r.wrapping_add(j)).collect();
                sink = sink.wrapping_add(v[3]);
            }
        }
        self.x = x;
        std::hint::black_box(sink);
        ms_since(t)
    }
}

/// Samples the host's speed around pieces of measured work.
pub struct Calibrator {
    kernel: Kernel,
    factors: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with the kernel's code and allocator paths warmed.
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        for _ in 0..20 {
            kernel.run();
        }
        Calibrator {
            kernel,
            factors: Vec::new(),
        }
    }

    /// One speed sample: above 1 means the host is slower than nominal. The
    /// fastest of three back-to-back kernel runs: the first refills the
    /// caches the measured work just evicted, and a timer interrupt can
    /// spoil only one.
    pub fn sample(&mut self) -> f64 {
        let best = (0..3)
            .map(|_| self.kernel.run())
            .fold(f64::INFINITY, f64::min);
        let f = best / NOMINAL_MS;
        self.factors.push(f);
        f
    }

    /// Runs `work` between two speed samples; returns its result, its raw
    /// wall time and its time at the reference host speed, both in
    /// milliseconds.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample();
        let t = Instant::now();
        let out = work();
        let raw_ms = ms_since(t);
        let after = self.sample();
        (out, raw_ms, raw_ms / ((before + after) / 2.0))
    }

    /// Median of all speed samples taken.
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.factors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_is_raw_time_over_the_speed_factor() {
        let mut cal = Calibrator::new();
        let ((), raw_ms, norm_ms) = cal.measure(|| {
            std::hint::black_box((0..200_000u64).sum::<u64>());
        });
        let factor = (cal.factors[0] + cal.factors[1]) / 2.0;
        assert!(raw_ms > 0.0 && factor > 0.0);
        assert!((norm_ms - raw_ms / factor).abs() < 1e-9);
        assert_eq!(cal.median_factor(), factor);
    }
}
