//! `dist_wire_n20`: the production geometry split across 2 in-process
//! ranks on a `soi_wire::run_loopback` mesh (real localhost TCP), one
//! pool worker per rank, the default overlapped exchange schedule, many
//! transforms per mesh, closed loop.
//!
//! Each rank thread times `DistSoiFft::run_with` from outside; a
//! transform's latency runs from the earliest rank start to the latest
//! rank finish. After each transform every rank runs one lane of the
//! host-speed reference (`hostref`), outside the latency. A max-allreduce
//! between transforms (untimed) keeps the ranks in lockstep and lets them
//! agree on when the run ends. The traced pass adds the program's own `PhaseTimes` and `WireStats`, plus
//! standalone `all_to_all` and `sendrecv` calls sized like the
//! transform's exchange and halo.

use crate::check::{bitwise, error_limit, within, Tally};
use crate::hostref::Lane;
use crate::inputs;
use crate::local;
use crate::report::{median, Metrics, Source};
use soi_core::{SoiWorkspace, ThreadPool};
use soi_dist::{ChargePolicy, DistSoiFft, PhaseTimes};
use soi_num::Complex64;
use soi_wire::{loopback_mesh, run_loopback, WireComm, WireConfig};
use std::time::{Duration, Instant};

pub const RANKS: usize = 2;
const INPUTS: usize = 2;
const STREAM: u64 = 2;
/// Untimed transforms per rank before the measured loop.
const WARMUP: usize = 2;
/// Standalone collective repetitions in the traced pass.
const A2A_REPS: usize = 5;
const SENDRECV_REPS: usize = 50;

fn wire_cfg() -> WireConfig {
    WireConfig {
        op_timeout: Duration::from_secs(30),
        connect_timeout: Duration::from_secs(30),
        ..WireConfig::default()
    }
}

/// Cold set-up in a fresh process: `DistSoiFft::new` plus the loopback
/// mesh bootstrap (rendezvous, rank assignment, full TCP mesh).
pub fn probe() -> Vec<(&'static str, f64)> {
    let t0 = Instant::now();
    let dist = DistSoiFft::new(&local::params()).expect("plan production geometry");
    let t1 = Instant::now();
    let comms = loopback_mesh(RANKS, wire_cfg()).expect("bootstrap loopback mesh");
    let t2 = Instant::now();
    std::hint::black_box((&dist, &comms));
    vec![
        ("setup_s", (t2 - t0).as_secs_f64()),
        ("bootstrap_ms", (t2 - t1).as_secs_f64() * 1e3),
    ]
}

/// One rank's view of one transform.
struct Rec {
    t0: Instant,
    t1: Instant,
    /// Reported by the program (traced iterations only).
    times: Option<PhaseTimes>,
    bytes: u64,
    messages: u64,
    /// One lane of the host-speed reference, timed just after the
    /// transform, seconds.
    reference: f64,
    fail: Option<String>,
}

/// Standalone collective timings of one rank (traced pass).
#[derive(Default)]
struct Probes {
    a2a_s: Vec<f64>,
    a2a_bytes: u64,
    sendrecv_s: Vec<f64>,
}

/// Everything a run measured, ranks merged.
pub struct DistRun {
    /// Per transform: earliest rank start to latest rank finish, seconds.
    pub latency: Vec<f64>,
    /// The host-speed reference before the first measured transform and
    /// after each one: the slowest rank's lane, seconds.
    pub reference: Vec<f64>,
    pub tally: Tally,
    /// Traced-pass per-layer metrics (empty when untraced).
    pub layers: Metrics,
}

/// Run the closed loop for `seconds`; `traced` alternates untraced and
/// traced transforms and adds the standalone collective probes.
pub fn run(seed: u64, seconds: f64, traced: bool) -> DistRun {
    let xs = inputs::complex_signals(seed, STREAM, INPUTS, local::N);
    let dist = DistSoiFft::new(&local::params()).expect("plan production geometry");
    let cfg = *dist.config();
    let limit = error_limit(&cfg);
    // The repository pins the distributed output bitwise to the local
    // pipeline's: compute the local result once per input, untimed, and
    // check it against the exact spectrum. A rank output that repeats it
    // bitwise carries its error.
    let pinned: Vec<(Vec<Complex64>, Result<f64, String>)> = xs
        .iter()
        .map(|x| {
            let mut ws = SoiWorkspace::new(dist.local(), 1);
            let mut y = vec![Complex64::ZERO; local::N];
            let outcome = dist
                .local()
                .transform_into(x, &mut y, &mut ws)
                .map_err(|e| format!("local reference transform: {e}"))
                .and_then(|()| within(&y, &soi_fft::fft_forward(x), limit));
            (y, outcome)
        })
        .collect();
    let cm = local::N / RANKS;

    let per_rank = run_loopback(RANKS, wire_cfg(), |comm: &mut WireComm| {
        let rank = comm.rank();
        let pool = ThreadPool::new(1);
        let mut lane = Lane::new();
        let mut recs: Vec<Rec> = Vec::new();
        let mut deadline = None;
        for i in 0.. {
            if i == WARMUP {
                deadline = Some(Instant::now() + Duration::from_secs_f64(seconds));
            }
            if let Some(d) = deadline {
                match comm.allreduce_max(if Instant::now() >= d { 1.0 } else { 0.0 }) {
                    Ok(stop) if stop > 0.0 => break,
                    Ok(_) => {}
                    Err(e) => {
                        recs.push(failed(format!("rank {rank} stop vote: {e}")));
                        break;
                    }
                }
            }
            let k = i % INPUTS;
            let own = rank * cm..(rank + 1) * cm;
            let trace_this = traced && i % 2 == 1;
            let s0 = if trace_this {
                comm.stats()
            } else {
                Default::default()
            };
            let t0 = Instant::now();
            let r = dist.run_with(comm, &xs[k][own.clone()], ChargePolicy::WallClock, &pool);
            let t1 = Instant::now();
            let s1 = if trace_this {
                comm.stats()
            } else {
                Default::default()
            };
            let mut rec = Rec {
                t0,
                t1,
                times: None,
                bytes: s1.bytes_sent - s0.bytes_sent,
                messages: s1.p2p_messages - s0.p2p_messages,
                reference: lane.run(),
                fail: None,
            };
            match r {
                Ok((y, times)) => {
                    rec.times = trace_this.then_some(times);
                    if let Err(e) = bitwise(&y, &pinned[k].0[own]) {
                        rec.fail = Some(format!("rank {rank}: {e}"));
                    }
                    recs.push(rec);
                }
                Err(e) => {
                    rec.fail = Some(format!("rank {rank} run_with: {e}"));
                    recs.push(rec);
                    break;
                }
            }
        }
        let mut probes = Probes::default();
        if traced && recs.iter().all(|r| r.fail.is_none()) {
            if let Err(e) =
                collective_probes(comm, cfg.n_prime / RANKS, cfg.halo_len(), &mut probes)
            {
                recs.push(failed(format!("rank {rank} collective probe: {e}")));
            }
        }
        (recs, probes)
    });

    let mut out = DistRun {
        latency: Vec::new(),
        reference: Vec::new(),
        tally: Tally::default(),
        layers: Metrics::default(),
    };
    let per_rank = match per_rank {
        Ok(v) => v,
        Err(e) => {
            out.tally.fail(format!("loopback mesh: {e}"));
            return out;
        }
    };
    let iters = per_rank.iter().map(|(r, _)| r.len()).min().unwrap_or(0);
    let (mut untraced_lat, mut traced_lat, mut skew, mut unattributed) =
        (vec![], vec![], vec![], vec![]);
    let mut phases: Vec<PhaseTimes> = Vec::new();
    let (mut bytes, mut messages) = (0u64, 0u64);
    for i in 0..iters {
        let recs: Vec<&Rec> = per_rank.iter().map(|(r, _)| &r[i]).collect();
        if let Some(msg) = recs.iter().find_map(|r| r.fail.clone()) {
            out.tally.fail(msg);
            continue;
        }
        out.tally.record(pinned[i % INPUTS].1.clone());
        if i < WARMUP {
            continue;
        }
        let start = recs.iter().map(|r| r.t0).min().expect("ranks");
        let end = recs.iter().map(|r| r.t1).max().expect("ranks");
        let first_end = recs.iter().map(|r| r.t1).min().expect("ranks");
        let lat = (end - start).as_secs_f64();
        let reference = |i: usize| {
            per_rank
                .iter()
                .map(|(r, _)| r[i].reference)
                .fold(0.0, f64::max)
        };
        if out.reference.is_empty() {
            out.reference.push(reference(i - 1));
        }
        out.latency.push(lat);
        out.reference.push(reference(i));
        if recs[0].times.is_none() {
            untraced_lat.push(lat);
            continue;
        }
        traced_lat.push(lat);
        skew.push((end - first_end).as_secs_f64());
        let mut max = PhaseTimes::default();
        for r in &recs {
            let t = r.times.expect("traced iteration");
            max = max.max_with(&t);
            unattributed.push(1.0 - t.total() / (r.t1 - r.t0).as_secs_f64());
        }
        phases.push(max);
        (bytes, messages) = (recs[0].bytes, recs[0].messages);
    }
    // A rank that failed after the others finished shows only in its own
    // records.
    for (recs, _) in &per_rank {
        for r in recs.iter().skip(iters) {
            if let Some(msg) = &r.fail {
                out.tally.fail(msg.clone());
            }
        }
    }
    if traced {
        let n = phases.len();
        let pick =
            |f: fn(&PhaseTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let m = &mut out.layers;
        m.push(
            "soi-dist.halo.ms",
            "ms",
            pick(|t| t.halo),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.conv.ms",
            "ms",
            pick(|t| t.conv),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.fft_small.ms",
            "ms",
            pick(|t| t.fft_small),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.fft_large.ms",
            "ms",
            pick(|t| t.fft_large),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.pack.ms",
            "ms",
            pick(|t| t.pack),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.exchange.ms",
            "ms",
            pick(|t| t.exchange),
            Source::Reported,
            n,
        );
        m.push(
            "soi-dist.rank_skew_ms",
            "ms",
            median(&skew) * 1e3,
            Source::Timed,
            n,
        );
        m.push(
            "soi-dist.unattributed_frac",
            "frac",
            median(&unattributed),
            Source::Derived,
            unattributed.len(),
        );
        m.push(
            "soi-dist.trace_overhead_frac",
            "frac",
            median(&traced_lat) / median(&untraced_lat) - 1.0,
            Source::Derived,
            n,
        );
        let probes: Vec<&Probes> = per_rank.iter().map(|(_, p)| p).collect();
        let a2a: Vec<f64> = probes
            .iter()
            .flat_map(|p| p.a2a_s.iter().copied())
            .collect();
        let sr: Vec<f64> = probes
            .iter()
            .flat_map(|p| p.sendrecv_s.iter().copied())
            .collect();
        let a2a_s = median(&a2a);
        m.push(
            "soi-wire.all_to_all.ms",
            "ms",
            a2a_s * 1e3,
            Source::Timed,
            a2a.len(),
        );
        m.push(
            "soi-wire.all_to_all.gbytes_per_s",
            "GB/s",
            probes[0].a2a_bytes as f64 / a2a_s / 1e9,
            Source::Derived,
            a2a.len(),
        );
        m.push(
            "soi-wire.sendrecv.us",
            "us",
            median(&sr) * 1e6,
            Source::Timed,
            sr.len(),
        );
        m.push(
            "soi-wire.bytes_sent_per_rank",
            "bytes",
            bytes as f64,
            Source::Reported,
            n,
        );
        m.push(
            "soi-wire.messages_per_rank",
            "count",
            messages as f64,
            Source::Reported,
            n,
        );
    }
    out
}

fn failed(msg: String) -> Rec {
    let now = Instant::now();
    Rec {
        t0: now,
        t1: now,
        times: None,
        bytes: 0,
        messages: 0,
        reference: 0.0,
        fail: Some(msg),
    }
}

/// Standalone `all_to_all` of one rank's exchange payload (`len`
/// complex values) and `sendrecv` of a halo-sized block, each after a
/// barrier so the ranks start together.
fn collective_probes(
    comm: &mut WireComm,
    len: usize,
    halo: usize,
    p: &mut Probes,
) -> Result<(), soi_wire::WireError> {
    let send = vec![Complex64::new(1.0, -1.0); len];
    let mut recv = vec![Complex64::ZERO; len];
    for _ in 0..A2A_REPS {
        comm.barrier()?;
        let s0 = comm.stats().bytes_sent;
        let t = Instant::now();
        comm.all_to_all(&send, &mut recv)?;
        p.a2a_s.push(t.elapsed().as_secs_f64());
        p.a2a_bytes = comm.stats().bytes_sent - s0;
    }
    let (me, size) = (comm.rank(), comm.size());
    for _ in 0..SENDRECV_REPS {
        comm.barrier()?;
        let t = Instant::now();
        comm.sendrecv((me + size - 1) % size, &send[..halo], (me + 1) % size)?;
        p.sendrecv_s.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}
