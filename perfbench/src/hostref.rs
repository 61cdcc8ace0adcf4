//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! between the measured operations, so that timings read at a fixed host
//! speed.
//!
//! On a shared virtual machine the speed of the same code swings by up
//! to 2× over tens of seconds (neighbours on the host's cores, caches and
//! memory), which no run length averages away. The reference kernel
//! slows with the host, not with the program: it is the benchmark's own
//! code (a radix-2 FFT on a cache-resident buffer plus a streaming pass
//! over a buffer far larger than the caches, per lane), run on as many
//! threads as the measured operation uses. It calls nothing in the
//! program, or a change to the program would move the reference with it
//! and cancel out. A timing `t` taken while the
//! kernel ran in `r` seconds is reported as `t · REF_S / r`: the time the
//! operation would take on a host that runs the kernel in `REF_S`. Every
//! normalized figure is printed next to its raw one.

use soi_num::Complex64;
use std::time::Instant;

/// The kernel time the normalized figures are expressed at, seconds.
/// About what one run of `HostRef` takes on an idle host of the
/// benchmark's reference machine, so normalized and raw figures agree
/// there.
pub const REF_S: f64 = 0.010;
/// FFT length per lane: 256 KiB, cache-resident.
const FFT_LOG2: u32 = 14;
const FFT_REPS: usize = 8;
/// Streamed values per lane: 16 MiB, far beyond a core's caches.
const STREAM_LEN: usize = 1 << 21;
const STREAM_PASSES: usize = 2;
/// Neighbouring kernel timings whose median stands for the host speed
/// during one operation, on each side of it.
const SIDE: usize = 3;

/// One lane of the reference kernel: the work of one thread.
pub struct Lane {
    input: Vec<Complex64>,
    work: Vec<Complex64>,
    twiddles: Vec<Complex64>,
    stream: Vec<f64>,
}

impl Lane {
    pub fn new() -> Lane {
        let n = 1usize << FFT_LOG2;
        let twiddles = (0..n / 2).map(|k| Complex64::root_of_unity(k, n)).collect();
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64))
            .collect();
        Lane {
            work: input.clone(),
            input,
            twiddles,
            stream: vec![1.0; STREAM_LEN],
        }
    }

    /// Run the lane's fixed work once; seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..FFT_REPS {
            self.work.copy_from_slice(&self.input);
            fft_radix2(&mut self.work, &self.twiddles);
        }
        for _ in 0..STREAM_PASSES {
            for v in self.stream.iter_mut() {
                *v = *v * 0.5 + 1.0;
            }
        }
        std::hint::black_box((&self.work, &self.stream));
        t.elapsed().as_secs_f64()
    }
}

/// The reference kernel on `lanes` threads at once.
pub struct HostRef {
    lanes: Vec<Lane>,
}

impl HostRef {
    pub fn new(lanes: usize) -> HostRef {
        HostRef {
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
        }
    }

    /// Run every lane, each on a thread of its own; wall seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for lane in &mut self.lanes {
                s.spawn(move || lane.run());
            }
        });
        t.elapsed().as_secs_f64()
    }
}

/// In-place iterative radix-2 DIT FFT; `twiddles[k] = e^{-2πik/n}`.
fn fft_radix2(a: &mut [Complex64], twiddles: &[Complex64]) {
    let n = a.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for block in a.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for (k, (u, v)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let w = *v * twiddles[k * step];
                (*u, *v) = (*u + w, *u - w);
            }
        }
        len <<= 1;
    }
}

/// Normalize operation times `t[i]` to the reference speed. `r` holds
/// the kernel timings around them: `r[i]` just before operation `i` and
/// `r[i + 1]` just after it, so `r.len() == t.len() + 1`. The host speed
/// during operation `i` is the median of the `2·SIDE` timings nearest it,
/// which follows the host's drift but not one timing's jitter.
pub fn normalize(t: &[f64], r: &[f64]) -> Vec<f64> {
    if t.is_empty() {
        return Vec::new();
    }
    assert_eq!(
        r.len(),
        t.len() + 1,
        "one kernel timing around each operation"
    );
    t.iter()
        .enumerate()
        .map(|(i, &ti)| {
            let lo = (i + 1).saturating_sub(SIDE);
            let hi = (i + 1 + SIDE).min(r.len());
            ti * REF_S / crate::report::median(&r[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix2_matches_exact_fft() {
        let mut lane = Lane::new();
        lane.run();
        let exact = soi_fft::fft_forward(&lane.input);
        let err = soi_num::complex::rel_l2_error(&lane.work, &exact);
        assert!(err <= 1e-12, "relative L2 error {err}");
    }

    #[test]
    fn normalize_cancels_host_speed() {
        let close = |xs: Vec<f64>| xs.iter().all(|x| (x - 0.04).abs() < 1e-15);
        // A host twice as slow doubles both the operation and the kernel.
        assert!(close(normalize(&[0.04; 4], &[REF_S; 5])));
        assert!(close(normalize(&[0.08; 4], &[2.0 * REF_S; 5])));
        // A single slow kernel timing is outvoted by its neighbours.
        let r = [REF_S, REF_S, 9.0 * REF_S, REF_S, REF_S];
        assert!(close(normalize(&[0.04; 4], &r)));
    }
}
