//! Host-speed calibration.
//!
//! The reference box is a 2-core VM on a shared host. Other tenants load
//! its memory system in bursts: for seconds to minutes at a time, the
//! same command on the same input runs up to 1.6x slower, while a
//! register-only loop does not slow down at all, and thread CPU time
//! equals wall time (no steal). A run's median drifts with the host, not
//! with the code.
//!
//! So each phase of a run interleaves a fixed calibration kernel with
//! its samples, and each sample is scaled by the kernel runs nearest to
//! it in time. The kernel is the program's kind of work, independent of
//! the program's code: it counts 400k random keys in a hash map of 2^19
//! keys (about 8 MiB, past the core's L2) and sorts the 400k words. Its
//! buffers are allocated once per run and reused, so it adds a fixed
//! 11 MiB to the run's peak memory. Each end-to-end time is then
//! reported at the reference host speed:
//!
//! ```text
//! scaled sample = sample * REFERENCE_MS / mean(the NEAREST kernel times around it)
//! reported      = median (or percentile) of the scaled samples
//! ```
//!
//! The kernel's speed does not depend on the program, so a change to the
//! program moves the reported time exactly as it moves the wall time. The
//! raw medians and each phase's kernel median are printed beside the
//! metrics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's time on the reference box (2 vCPUs of an Intel Xeon
/// host) in a quiet spell. It only sets the scale of reported times.
pub const REFERENCE_MS: f64 = 50.0;

/// Kernel runs a sample is scaled by: on average two before it and two
/// after it.
const NEAREST: usize = 4;

const INSERTS: usize = 400_000;
/// Keys are drawn from 2^19 values, so the table ends near 2^19 slots.
const KEY_BITS: u32 = 19;

/// The calibration kernel, on buffers kept between calls. Returns a
/// checksum so the work is not optimised away; it is the same on every
/// call.
fn kernel(counts: &mut HashMap<u64, u32>, words: &mut Vec<u64>) -> u64 {
    counts.clear();
    words.clear();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..INSERTS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *counts.entry(x >> (64 - KEY_BITS)).or_insert(0) += 1;
        words.push(x);
    }
    words.sort_unstable();
    words[INSERTS / 2] ^ counts.len() as u64
}

thread_local! {
    /// The kernel's buffers, shared by every phase of the run.
    static BUFFERS: RefCell<(HashMap<u64, u32>, Vec<u64>)> = RefCell::default();
}

/// A measured time and the middle of the interval it was measured in.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub mid: Instant,
    pub value: f64,
}

impl Timed {
    /// `value` measured over `took` from `started`.
    pub fn new(started: Instant, took: Duration, value: f64) -> Timed {
        Timed {
            mid: started + took / 2,
            value,
        }
    }
}

/// Kernel times of one phase of a run.
#[derive(Default)]
pub struct HostSpeed {
    kernels: Vec<Timed>,
}

impl HostSpeed {
    /// Runs the kernel once and records its time. The run's first call
    /// also sizes the buffers, untimed.
    pub fn sample(&mut self) {
        BUFFERS.with_borrow_mut(|(counts, words)| {
            if words.capacity() < INSERTS {
                words.reserve(INSERTS);
                kernel(counts, words);
            }
            let started = Instant::now();
            std::hint::black_box(kernel(counts, words));
            let took = started.elapsed();
            let ms = took.as_secs_f64() * 1e3;
            self.kernels.push(Timed::new(started, took, ms));
        });
    }

    /// What a time measured around `mid` is multiplied by:
    /// `REFERENCE_MS` over the mean of the [`NEAREST`] kernel times
    /// closest to `mid`.
    pub fn factor_at(&self, mid: Instant) -> Option<f64> {
        let distance = |k: &Timed| {
            k.mid
                .checked_duration_since(mid)
                .unwrap_or_else(|| mid.duration_since(k.mid))
        };
        let mut nearest = self.kernels.clone();
        nearest.sort_by_key(distance);
        nearest.truncate(NEAREST);
        if nearest.is_empty() {
            return None;
        }
        let mean = nearest.iter().map(|k| k.value).sum::<f64>() / nearest.len() as f64;
        Some(REFERENCE_MS / mean)
    }

    /// Each sample's value at the reference host speed.
    pub fn scale(&self, samples: &[Timed]) -> Option<Vec<f64>> {
        samples
            .iter()
            .map(|s| self.factor_at(s.mid).map(|f| s.value * f))
            .collect()
    }

    /// Prints the phase's kernel times.
    pub fn print(&self, phase: &str) {
        let ms: Vec<f64> = self.kernels.iter().map(|k| k.value).collect();
        println!(
            "host speed, {phase}: n={} kernel median {:.3} ms (reference {REFERENCE_MS} ms)",
            ms.len(),
            crate::stats::median(&ms).unwrap_or(f64::NAN),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        let (mut counts, mut words) = (HashMap::new(), Vec::new());
        let first = kernel(&mut counts, &mut words);
        let capacity = (counts.capacity(), words.capacity());
        assert_eq!(kernel(&mut counts, &mut words), first);
        assert_eq!((counts.capacity(), words.capacity()), capacity);
    }

    #[test]
    fn samples_scale_by_the_nearest_kernel_runs() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut speed = HostSpeed::default();
        assert_eq!(speed.factor_at(at(0)), None);
        // A slow spell (100 ms) from 10 s on; the reference is 50 ms.
        speed.kernels = [0, 2, 4, 6, 10, 12, 14, 16]
            .map(|s| Timed {
                mid: at(s),
                value: if s < 10 { REFERENCE_MS } else { 100.0 },
            })
            .to_vec();
        assert_eq!(speed.factor_at(at(1)), Some(1.0));
        assert_eq!(speed.factor_at(at(15)), Some(0.5));
        // Two kernel runs on each side: the mean of 50, 50, 100, 100.
        assert_eq!(speed.factor_at(at(8)), Some(REFERENCE_MS / 75.0));
        let samples = [
            Timed {
                mid: at(3),
                value: 40.0,
            },
            Timed {
                mid: at(13),
                value: 80.0,
            },
        ];
        assert_eq!(speed.scale(&samples), Some(vec![40.0, 40.0]));
        speed.sample();
        assert_eq!(speed.kernels.len(), 9);
    }
}
