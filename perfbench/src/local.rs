//! `local_c2c_n20`: one caller, closed loop, `SoiFft::transform_into` at
//! the production geometry (N = 2^20, P = 8, Digits10, complex input, full
//! spectrum) on a 2-worker `ThreadPool`.
//!
//! The traced pass re-runs the same four stages from outside the library
//! through their public entry points (`convolve_pooled`,
//! `BatchFft::execute_pooled`, `stride_permute_pooled`,
//! `Plan::execute_fused_into` over the P segments), timing each, and pins
//! the result bitwise to `transform_into`'s.

use crate::check::{bitwise, error_limit, within, Tally};
use crate::hostref::HostRef;
use crate::inputs;
use crate::report::{median, Metrics, Source};
use soi_core::conv::convolve_pooled;
use soi_core::{SoiFft, SoiParams, SoiWorkspace, ThreadPool};
use soi_fft::flops::{conv_flops, fft_flops};
use soi_fft::permute::stride_permute_pooled;
use soi_num::{AlignedBuf, Complex64};
use soi_pool::part_range;
use soi_window::AccuracyPreset;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const N: usize = 1 << 20;
pub const P: usize = 8;
/// Workers in the transform's pool, caller included.
pub const THREADS: usize = 2;
/// Distinct seeded inputs cycled through the loop.
const INPUTS: usize = 2;
const STREAM: u64 = 1;
/// Empty `ThreadPool::run` round trips timed per traced iteration.
const POOL_PROBES: usize = 200;

pub fn params() -> SoiParams {
    SoiParams::with_preset(N, P, AccuracyPreset::Digits10).expect("production geometry is valid")
}

/// Cold set-up in a fresh process: `SoiFft::new` plus the workspace
/// (pool spawn and arena). Returns `(name, value)` pairs.
pub fn probe() -> Vec<(&'static str, f64)> {
    let params = params();
    let t0 = Instant::now();
    let soi = SoiFft::new(&params).expect("plan production geometry");
    let t1 = Instant::now();
    let ws = SoiWorkspace::new(&soi, THREADS);
    let t2 = Instant::now();
    std::hint::black_box(&ws);
    let misses = soi_fft::Planner::<f64>::global().plan_cache_stats().misses;
    vec![
        ("setup_s", (t2 - t0).as_secs_f64()),
        ("soi_new_ms", (t1 - t0).as_secs_f64() * 1e3),
        ("workspace_ms", (t2 - t1).as_secs_f64() * 1e3),
        ("planner_misses", misses as f64),
    ]
}

/// A transform plus the state the loop checks it against.
struct Harness {
    soi: SoiFft,
    ws: SoiWorkspace,
    xs: Vec<Vec<Complex64>>,
    /// Per input: the first output and its checked relative error (or
    /// why it failed). Every later output must repeat it bitwise, so it
    /// carries the same error.
    pinned: Vec<(Vec<Complex64>, Result<f64, String>)>,
    y: Vec<Complex64>,
}

impl Harness {
    fn new(seed: u64, tally: &mut Tally) -> Harness {
        let xs = inputs::complex_signals(seed, STREAM, INPUTS, N);
        let soi = SoiFft::new(&params()).expect("plan production geometry");
        let ws = SoiWorkspace::new(&soi, THREADS);
        let limit = error_limit(soi.config());
        let mut h = Harness {
            soi,
            ws,
            xs,
            pinned: Vec::new(),
            y: vec![Complex64::ZERO; N],
        };
        // Warm-up: the first output of each input is checked against the
        // exact spectrum (computed untimed, by a planner of its own, so
        // the program's plan cache stays as the program left it).
        for i in 0..INPUTS {
            let (_, r) = h.call(i);
            let exact = soi_fft::fft_forward(&h.xs[i]);
            let outcome = r.and_then(|()| within(&h.y, &exact, limit));
            tally.record(outcome.clone());
            h.pinned.push((h.y.clone(), outcome));
        }
        h
    }

    /// One timed `transform_into` of input `i` into `y`; seconds.
    fn call(&mut self, i: usize) -> (f64, Result<(), String>) {
        let t0 = Instant::now();
        let r = self
            .soi
            .transform_into(&self.xs[i], &mut self.y, &mut self.ws);
        (
            t0.elapsed().as_secs_f64(),
            r.map_err(|e| format!("transform_into: {e}")),
        )
    }

    /// One timed transform of input `i`, checked against its pinned
    /// output; returns seconds.
    fn transform(&mut self, i: usize, tally: &mut Tally) -> f64 {
        let (dt, r) = self.call(i);
        let (pin, err) = &self.pinned[i];
        tally.record(
            r.and_then(|()| bitwise(&self.y, pin))
                .and_then(|()| err.clone()),
        );
        dt
    }
}

/// The end-to-end closed loop: per-transform latencies in seconds, and
/// the host-speed reference timed before the first transform and after
/// each one, on as many threads as the transform uses.
pub fn run(seed: u64, seconds: f64) -> (Vec<f64>, Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut h = Harness::new(seed, &mut tally);
    let mut host = HostRef::new(THREADS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut lat, mut reference) = (Vec::new(), vec![host.run()]);
    let mut i = 0;
    while Instant::now() < deadline {
        lat.push(h.transform(i % INPUTS, &mut tally));
        reference.push(host.run());
        i += 1;
    }
    (lat, reference, tally)
}

/// Buffers for the stage-by-stage replica of `transform_into`.
struct Arena {
    xext: AlignedBuf<Complex64>,
    v: AlignedBuf<Complex64>,
    seg: AlignedBuf<Complex64>,
    scratch: AlignedBuf<Complex64>,
    stride: usize,
    y: Vec<Complex64>,
}

impl Arena {
    fn new(soi: &SoiFft, threads: usize) -> Arena {
        let cfg = soi.config();
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            .next_multiple_of(4);
        Arena {
            xext: AlignedBuf::zeroed(cfg.n + cfg.halo_len()),
            v: AlignedBuf::zeroed(cfg.n_prime),
            seg: AlignedBuf::zeroed(cfg.n_prime),
            scratch: AlignedBuf::zeroed(threads * stride),
            stride,
            y: vec![Complex64::ZERO; cfg.n],
        }
    }
}

/// Stage seconds of one replica run: conv, batch F_P, permute, F_{M'}.
fn replica(soi: &SoiFft, pool: &ThreadPool, x: &[Complex64], a: &mut Arena) -> [f64; 4] {
    let cfg = soi.config();
    a.xext[..cfg.n].copy_from_slice(x);
    let (head, halo) = a.xext.split_at_mut(cfg.n);
    halo.copy_from_slice(&head[..cfg.halo_len()]);

    let t = Instant::now();
    convolve_pooled(soi.shape(), soi.coefficients(), &a.xext, &mut a.v, pool);
    let conv = t.elapsed().as_secs_f64();

    let t = Instant::now();
    soi.batch_p().execute_pooled(&mut a.v, pool, &mut a.scratch);
    let batch = t.elapsed().as_secs_f64();

    let t = Instant::now();
    stride_permute_pooled(&a.v, &mut a.seg, cfg.m_prime, pool);
    let permute = t.elapsed().as_secs_f64();

    // F_{M'} + fused demodulation per segment, fanned across the pool
    // with the library's partition: task t owns a contiguous segment
    // range and scratch stripe t.
    let t = Instant::now();
    let parts = pool.threads().min(cfg.p).max(1);
    let mut rows = a.seg.chunks_mut(cfg.m_prime).zip(a.y.chunks_mut(cfg.m));
    let tasks: Vec<Mutex<_>> = a
        .scratch
        .chunks_mut(a.stride)
        .take(parts)
        .enumerate()
        .map(|(t, scr)| {
            let (_, len) = part_range(cfg.p, parts, t);
            Mutex::new((scr, rows.by_ref().take(len).collect::<Vec<_>>()))
        })
        .collect();
    let plan = soi.plan_m();
    let demod = &soi.coefficients().demod;
    pool.run(parts, |t| {
        let mut task = tasks[t].lock().expect("one task per lock");
        let (scr, segs) = &mut *task;
        for (row, out) in segs.iter_mut() {
            plan.execute_fused_into(row, &mut scr[..plan.scratch_len()], out, demod);
        }
    });
    let fft_m = t.elapsed().as_secs_f64();
    [conv, batch, permute, fft_m]
}

/// The traced pass: per-stage timings of the replica, interleaved with
/// untraced `transform_into` calls (for attribution and trace overhead)
/// and empty round trips of the transform's own pool.
pub fn traced(seed: u64, seconds: f64) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut h = Harness::new(seed, &mut tally);
    let mut arena = Arena::new(&h.soi, THREADS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut wall, mut traced_wall, mut pool_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut i = 0;
    while Instant::now() < deadline {
        let k = i % INPUTS;
        wall.push(h.transform(k, &mut tally));
        let t = Instant::now();
        let st = replica(&h.soi, h.ws.pool(), &h.xs[k], &mut arena);
        traced_wall.push(t.elapsed().as_secs_f64());
        for (acc, s) in stages.iter_mut().zip(st) {
            acc.push(s);
        }
        tally.record(
            bitwise(&arena.y, &h.y)
                .map(|()| 0.0)
                .map_err(|e| format!("traced replica: {e}")),
        );
        for _ in 0..POOL_PROBES {
            let t = Instant::now();
            h.ws.pool().run(THREADS, |_| {});
            pool_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        i += 1;
    }
    let cfg = *h.soi.config();
    let n = wall.len();
    let [conv, batch, permute, fft_m] = stages.map(|s| median(&s));
    let wall = median(&wall);
    let mut m = Metrics::default();
    m.push("soi-core.conv.ms", "ms", conv * 1e3, Source::Timed, n);
    m.push("soi-fft.batch_p.ms", "ms", batch * 1e3, Source::Timed, n);
    m.push("soi-fft.permute.ms", "ms", permute * 1e3, Source::Timed, n);
    m.push("soi-fft.plan_m.ms", "ms", fft_m * 1e3, Source::Timed, n);
    m.push(
        "soi-core.conv.gflops",
        "GFLOP/s",
        conv_flops(cfg.n_prime, cfg.taps()) / conv / 1e9,
        Source::Derived,
        n,
    );
    m.push(
        "soi-fft.plan_m.gflops",
        "GFLOP/s",
        cfg.p as f64 * fft_flops(cfg.m_prime) / fft_m / 1e9,
        Source::Derived,
        n,
    );
    m.push(
        "soi-core.unattributed_frac",
        "frac",
        1.0 - (conv + batch + permute + fft_m) / wall,
        Source::Derived,
        n,
    );
    m.push(
        "soi-core.trace_overhead_frac",
        "frac",
        median(&traced_wall) / wall - 1.0,
        Source::Derived,
        n,
    );
    m.push(
        "soi-pool.run_us",
        "us",
        median(&pool_us),
        Source::Timed,
        pool_us.len(),
    );
    (m, tally)
}
