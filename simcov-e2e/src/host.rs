//! Host-speed correction.
//!
//! A shared host can run the same code tens of percent slower for minutes
//! at a time, and every CPU-bound timing drifts with it. Between batches
//! the benchmark therefore times a probe: a fixed computation in this
//! file that calls no program code, so no change to the program can move
//! it. The median probe time over a phase of a run (its set-ups, or its
//! measured batches), against [`NOMINAL_PROBE_MS`], is that phase's
//! slowdown `h` (above 1 when the host ran slow).
//!
//! CPU time scales with `h` and is divided by it. Wall time also holds
//! waits that do not scale (loopback timers, fsync), so it is split by
//! the phase's busy share `u = min(1, cpu / wall)`: the busy part is
//! divided by `h` and the rest is kept. A corrected metric reads what the
//! run would have measured on the host at its nominal speed.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 steps in one probe.
pub const PROBE_STEPS: u64 = 50_000;

/// The probe's median time in ms on the 2-vCPU Xeon VM the bounds in
/// `BENCHMARK.json` were set on. Corrected metrics equal raw ones on a
/// host whose probe takes this long.
pub const NOMINAL_PROBE_MS: f64 = 0.09;

/// Probe time after each batch, as a share of that batch's time. At least
/// one probe runs after every batch.
pub const PROBE_SHARE: f64 = 0.02;

/// The probe's computation: SplitMix64 output mixing.
fn probe_work(seed: u64) -> u64 {
    let mut acc = 0u64;
    let mut z = seed;
    for _ in 0..PROBE_STEPS {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut y = z;
        y = (y ^ (y >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        y = (y ^ (y >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= y ^ (y >> 31);
    }
    acc
}

/// Times one probe, in ms.
pub fn probe(seed: u64) -> f64 {
    let t = Instant::now();
    black_box(probe_work(black_box(seed)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Probe times collected over a run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Probes after a batch of `batch_ms`: at least once, and until the
    /// probes have taken [`PROBE_SHARE`] of the batch's time.
    pub fn after_batch(&mut self, batch_ms: f64) {
        let mut spent = 0.0;
        loop {
            let ms = probe(self.samples.len() as u64);
            self.samples.push(ms);
            spent += ms;
            if spent >= PROBE_SHARE * batch_ms {
                break;
            }
        }
    }

    /// Probes run so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The run's slowdown `h`: median probe time ÷ [`NOMINAL_PROBE_MS`].
    pub fn slowdown(&self) -> Option<f64> {
        median(&self.samples).map(|ms| ms / NOMINAL_PROBE_MS)
    }
}

/// The correction of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    /// `h`: how much slower than nominal the host ran.
    pub slowdown: f64,
    /// `u`: the share of wall time that scales with host speed.
    pub busy: f64,
}

impl Correction {
    /// The correction for a run that used `cpu_ms` of process CPU time in
    /// `wall_ms` of measured wall time, with slowdown `slowdown`.
    pub fn new(slowdown: f64, cpu_ms: f64, wall_ms: f64) -> Correction {
        Correction {
            slowdown,
            busy: (cpu_ms / wall_ms).clamp(0.0, 1.0),
        }
    }

    /// A wall time at nominal host speed.
    pub fn wall(&self, ms: f64) -> f64 {
        ms * ((1.0 - self.busy) + self.busy / self.slowdown)
    }

    /// A CPU time at nominal host speed.
    pub fn cpu(&self, ms: f64) -> f64 {
        ms / self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_a_fixed_computation() {
        assert_eq!(probe_work(7), probe_work(7));
        assert_ne!(probe_work(7), probe_work(8));
        assert!(probe(1) > 0.0);
    }

    #[test]
    fn every_batch_gets_a_probe_and_long_batches_get_more() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), None);
        h.after_batch(0.0);
        assert_eq!(h.samples(), 1);
        // 2% of a batch worth 500 nominal probes: about ten probes.
        let batch_ms = 500.0 * NOMINAL_PROBE_MS;
        h.after_batch(batch_ms);
        let spent: f64 = h.samples[1..].iter().sum();
        assert!(spent >= PROBE_SHARE * batch_ms, "{spent} ms");
        assert!(h.slowdown().is_some_and(|s| s > 0.0));
    }

    #[test]
    fn busy_time_scales_and_waiting_does_not() {
        // Nominal speed: nothing changes.
        let c = Correction::new(1.0, 50.0, 100.0);
        assert_eq!((c.wall(100.0), c.cpu(40.0)), (100.0, 40.0));
        // A host 25% slow, fully busy (two threads: cpu > wall).
        let c = Correction::new(1.25, 180.0, 100.0);
        assert_eq!(c.busy, 1.0);
        assert!((c.wall(100.0) - 80.0).abs() < 1e-9);
        assert!((c.cpu(50.0) - 40.0).abs() < 1e-9);
        // A 20% busy run on the same host: only the busy fifth shrinks.
        let c = Correction::new(1.25, 20.0, 100.0);
        assert!((c.busy - 0.2).abs() < 1e-12);
        assert!((c.wall(100.0) - (80.0 + 16.0)).abs() < 1e-9);
    }
}
