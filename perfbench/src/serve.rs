//! `serve_mixed`: an in-process `soi_serve::Server` (`threads = 2`)
//! driven open loop over one client connection, split into a paced sender
//! and a reply reader, at a short ladder of fixed absolute rates.
//!
//! The request mix is seeded: Full, Segment and Band kinds with complex
//! and real input, over N = 2^15 / P = 4 and N = 2^16 / P = 8 at
//! Digits10. Each request's latency runs from its *scheduled* send time
//! to the arrival of its reply, so a stalled sender is charged, not
//! hidden. Every response must equal, bitwise, the local pipeline's bins
//! for the same input and kind, and those bins are checked at set-up
//! against the exact spectrum.

use crate::check::{bitwise, error_limit, reference_slice, within, Tally};
use crate::inputs;
use crate::report::{median, summarize, Metrics, Source};
use soi_core::{SoiFft, SoiParams, SoiRealWorkspace, SoiWorkspace};
use soi_num::Complex64;
use soi_serve::{
    preset_for_digits, Reply, ReplyStream, Request, RequestKind, RequestSink, Response, Samples,
    ServeClient, ServeConfig, Server, StatsSnapshot,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The two geometries of the mix: `(N, P)`.
pub const GEOMS: [(usize, usize); 2] = [(1 << 15, 4), (1 << 16, 8)];
pub const DIGITS: u32 = 10;
/// Worker threads inside each served transform.
pub const THREADS: usize = 2;
/// Offered rates of the ladder, requests per second. Absolute constants:
/// never re-calibrated, so the load does not move when the code does.
pub const LADDER: [f64; 3] = [40.0, 80.0, 120.0];
/// Index into [`LADDER`] of the rate the latency and throughput metrics
/// are reported at.
pub const NOMINAL: usize = 1;
/// Share of each cycle each ladder step runs: the nominal step gets half,
/// so its latency sample is the largest.
const SHARES: [f64; 3] = [0.25, 0.5, 0.25];
/// The ladder runs as this many cycles of one block per rate, so every
/// rate samples the whole run rather than one stretch of it.
const CYCLES: usize = 5;
/// p95 latency limit a ladder rate must meet to count for `slo_rps`.
pub const LIMIT_MS: f64 = 20.0;
/// A run whose sender fell further behind its schedule than this is
/// invalid: the generator, not the server, set the pace. Shorter stalls
/// are charged to latency, which runs from the scheduled send time.
pub const LAG_LIMIT_MS: f64 = 100.0;
const KINDS: [RequestKind; 6] = [
    RequestKind::Full,
    RequestKind::Segment,
    RequestKind::Band,
    RequestKind::RealFull,
    RequestKind::RealSegment,
    RequestKind::RealBand,
];
/// Distinct seeded signals per geometry and input domain.
const INPUTS: usize = 2;
/// Distinct seeded band starts per geometry.
const BANDS: usize = 2;
const STREAM_SIGNALS: u64 = 10;
const STREAM_MIX: u64 = 20;
/// Mix entries whose payloads the codec probe times.
const CODEC_SAMPLES: usize = 48;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the mix: which geometry, kind, input and argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub geom: usize,
    pub kind: RequestKind,
    pub input: usize,
    pub arg: usize,
}

/// The seeded request sequence for ladder step `step`: `count` keys.
pub fn mix(seed: u64, step: u64, count: usize) -> Vec<Key> {
    let mut bands = inputs::rng(seed, STREAM_MIX);
    let starts: Vec<Vec<usize>> = GEOMS
        .iter()
        .map(|&(n, p)| (0..BANDS).map(|_| bands.usize_in(0..n - n / p)).collect())
        .collect();
    let mut r = inputs::rng(seed, STREAM_MIX + 1 + step);
    (0..count)
        .map(|_| {
            let geom = r.usize_in(0..GEOMS.len());
            let kind = KINDS[r.usize_in(0..KINDS.len())];
            let input = r.usize_in(0..INPUTS);
            let arg = match kind {
                RequestKind::Segment | RequestKind::RealSegment => r.usize_in(0..GEOMS[geom].1),
                RequestKind::Band | RequestKind::RealBand => starts[geom][r.usize_in(0..BANDS)],
                _ => 0,
            };
            Key {
                geom,
                kind,
                input,
                arg,
            }
        })
        .collect()
}

/// Seeded signals per geometry, complex and real, with exact spectra.
struct Signals {
    complex: Vec<Vec<Vec<Complex64>>>,
    real: Vec<Vec<Vec<f64>>>,
    exact_complex: Vec<Vec<Vec<Complex64>>>,
    exact_real: Vec<Vec<Vec<Complex64>>>,
}

impl Signals {
    fn new(seed: u64) -> Signals {
        let mut s = Signals {
            complex: vec![],
            real: vec![],
            exact_complex: vec![],
            exact_real: vec![],
        };
        for (g, &(n, _)) in GEOMS.iter().enumerate() {
            let c = inputs::complex_signals(seed, STREAM_SIGNALS + 2 * g as u64, INPUTS, n);
            let r = inputs::real_signals(seed, STREAM_SIGNALS + 2 * g as u64 + 1, INPUTS, n);
            s.exact_complex
                .push(c.iter().map(|x| soi_fft::fft_forward(x)).collect());
            s.exact_real.push(
                r.iter()
                    .map(|x| soi_fft::fft_forward(&inputs::as_complex(x)))
                    .collect(),
            );
            s.complex.push(c);
            s.real.push(r);
        }
        s
    }

    /// A request carrying `key`'s input (id and kind set per send).
    fn request(&self, key: Key) -> Request {
        let (n, p) = GEOMS[key.geom];
        let samples = if key.kind.is_real() {
            Samples::Real(self.real[key.geom][key.input].clone())
        } else {
            Samples::Complex(self.complex[key.geom][key.input].clone())
        };
        Request {
            id: 0,
            tenant: "bench".into(),
            n,
            p,
            digits: DIGITS,
            kind: key.kind,
            arg: key.arg,
            deadline_ms: 0,
            samples,
        }
    }
}

/// The bins the local pipeline produces for `key` (the bitwise pin for
/// the served response), checked against the exact spectrum.
fn pinned_bins(sig: &Signals, sois: &[SoiFft], key: Key) -> Result<(Vec<Complex64>, f64), String> {
    let soi = &sois[key.geom];
    let cfg = soi.config();
    let bins = if key.kind.is_real() {
        let x = &sig.real[key.geom][key.input];
        match key.kind {
            RequestKind::RealFull => {
                let mut y = vec![Complex64::ZERO; cfg.n / 2 + 1];
                soi.transform_real_into(x, &mut y, &mut SoiRealWorkspace::new(soi, 1))
                    .map(|()| y)
            }
            RequestKind::RealSegment => soi.transform_real_segment(x, key.arg),
            _ => soi.transform_real_band(x, key.arg),
        }
    } else {
        let x = &sig.complex[key.geom][key.input];
        match key.kind {
            RequestKind::Full => {
                let mut y = vec![Complex64::ZERO; cfg.n];
                soi.transform_into(x, &mut y, &mut SoiWorkspace::new(soi, 1))
                    .map(|()| y)
            }
            RequestKind::Segment => soi.transform_segment(x, key.arg),
            _ => soi.transform_band(x, key.arg),
        }
    }
    .map_err(|e| format!("local {}: {e}", key.kind.name()))?;
    let exact = if key.kind.is_real() {
        &sig.exact_real
    } else {
        &sig.exact_complex
    };
    let want = reference_slice(&exact[key.geom][key.input], key.kind, key.arg, cfg.m);
    let err = within(&bins, &want, error_limit(cfg))
        .map_err(|e| format!("{} {key:?}: {e}", key.kind.name()))?;
    Ok((bins, err))
}

/// One reply as the reader saw it.
struct Arrival {
    index: usize,
    at: Instant,
    outcome: Result<f64, String>,
    compute_ns: u64,
}

/// What one ladder step measured.
pub struct Step {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub shed: usize,
    pub expired: usize,
    /// Latency from scheduled send, ms, in schedule order; failed or
    /// unanswered requests count as `∞`.
    pub latency_ms: Vec<f64>,
    /// Server-reported compute time of each successful request, ms.
    pub compute_ms: Vec<f64>,
    /// Latency minus compute of each successful request, ms.
    pub noncompute_ms: Vec<f64>,
    pub max_lag_ms: f64,
    /// Seconds from each block's first scheduled send to its last reply,
    /// summed over blocks.
    pub span_s: f64,
    /// Last reply after last scheduled send, ms, worst block: a growing
    /// backlog shows as a drain longer than the latency limit.
    pub drain_ms: f64,
}

impl Step {
    /// Successful replies per second.
    pub fn achieved_rps(&self) -> f64 {
        self.ok as f64 / self.span_s
    }

    /// Replies within [`LIMIT_MS`] per second.
    pub fn goodput_rps(&self) -> f64 {
        self.latency_ms.iter().filter(|&&l| l <= LIMIT_MS).count() as f64 / self.span_s
    }

    /// Append a later block offered at the same rate.
    fn absorb(&mut self, b: Step) {
        self.sent += b.sent;
        self.ok += b.ok;
        self.failed += b.failed;
        self.shed += b.shed;
        self.expired += b.expired;
        self.latency_ms.extend(b.latency_ms);
        self.compute_ms.extend(b.compute_ms);
        self.noncompute_ms.extend(b.noncompute_ms);
        self.max_lag_ms = self.max_lag_ms.max(b.max_lag_ms);
        self.span_s += b.span_s;
        self.drain_ms = self.drain_ms.max(b.drain_ms);
    }

    pub fn p95_ms(&self) -> f64 {
        summarize(&self.latency_ms).p95
    }

    /// Meets the limit: no failures, p95 within it, no growing backlog.
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.p95_ms() <= LIMIT_MS && self.drain_ms <= LIMIT_MS
    }

    pub fn print(&self, label: &str) {
        let s = summarize(&self.latency_ms);
        println!(
            "  {label} {:>5.0} rps: sent {} ok {} failed {} (shed {}, expired {}) p50 {:.3} ms p95 {:.3} ms \
             achieved {:.2} rps, goodput {:.2} rps, sender lag max {:.3} ms, drain {:.3} ms, {}",
            self.rate,
            self.sent,
            self.ok,
            self.failed,
            self.shed,
            self.expired,
            s.p50,
            s.p95,
            self.achieved_rps(),
            self.goodput_rps(),
            self.max_lag_ms,
            self.drain_ms,
            if self.passes() { "meets limit" } else { "misses limit" }
        );
    }
}

/// A running server with the client halves and the pinned results.
struct Rig {
    server: Server,
    sink: RequestSink,
    stream: ReplyStream,
    sig: Signals,
    expected: HashMap<Key, Result<(Vec<Complex64>, f64), String>>,
    next_id: u64,
}

impl Rig {
    /// Start the server, warm one engine per geometry, then pin the local
    /// results for every key the run will send (after the warm-up, so
    /// the server's cold engine builds are its own).
    fn start(seed: u64, keys: &[Key], tally: &mut Tally) -> Result<Rig, String> {
        let sig = Signals::new(seed);
        let server = Server::start(ServeConfig {
            threads: THREADS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut client =
            ServeClient::connect(server.addr(), TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        warm(&mut client, &sig).map_err(|e| format!("warm-up: {e}"))?;
        let sois: Vec<SoiFft> = GEOMS
            .iter()
            .map(|&(n, p)| {
                SoiFft::new(
                    &SoiParams::with_preset(n, p, preset_for_digits(DIGITS)).expect("mix geometry"),
                )
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("local pipeline: {e}"))?;
        let mut expected = HashMap::new();
        for &k in keys {
            expected.entry(k).or_insert_with(|| {
                let e = pinned_bins(&sig, &sois, k);
                tally.record(e.as_ref().map(|(_, err)| *err).map_err(String::clone));
                e
            });
        }
        let (sink, stream) = client.split().map_err(|e| format!("split: {e}"))?;
        Ok(Rig {
            server,
            sink,
            stream,
            sig,
            expected,
            next_id: 1_000,
        })
    }

    /// Offer `keys` at `rate` and collect every reply.
    fn step(&mut self, rate: f64, keys: &[Key], tally: &mut Tally) -> Step {
        let id0 = self.next_id;
        self.next_id += keys.len() as u64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let base = Instant::now() + Duration::from_millis(5);
        let sched = |i: usize| base + interval.mul_f64(i as f64);
        let mut templates: HashMap<(usize, bool, usize), Request> = HashMap::new();
        let (sink, stream, sig, expected) =
            (&mut self.sink, &mut self.stream, &self.sig, &self.expected);
        let (arrivals, max_lag, send_err) = std::thread::scope(|s| {
            let reader = s.spawn(move || read_replies(stream, keys, id0, expected));
            let mut max_lag = 0.0f64;
            let mut send_err = None;
            for (i, &key) in keys.iter().enumerate() {
                let due = sched(i);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                max_lag =
                    max_lag.max(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let req = templates
                    .entry((key.geom, key.kind.is_real(), key.input))
                    .or_insert_with(|| sig.request(key));
                (req.id, req.kind, req.arg) = (id0 + i as u64, key.kind, key.arg);
                if let Err(e) = sink.send_request(req) {
                    send_err = Some(format!("send: {e}"));
                    break;
                }
            }
            (reader.join().expect("reply reader"), max_lag, send_err)
        });
        let mut step = Step {
            rate,
            sent: keys.len(),
            ok: 0,
            failed: 0,
            shed: 0,
            expired: 0,
            latency_ms: vec![f64::INFINITY; keys.len()],
            compute_ms: Vec::new(),
            noncompute_ms: Vec::new(),
            max_lag_ms: max_lag,
            span_s: 0.0,
            drain_ms: 0.0,
        };
        if let Some(e) = send_err {
            tally.fail(e);
        }
        let mut seen = vec![false; keys.len()];
        let mut last = base;
        for a in arrivals {
            seen[a.index] = true;
            last = last.max(a.at);
            let lat = a.at.saturating_duration_since(sched(a.index)).as_secs_f64() * 1e3;
            match &a.outcome {
                Ok(_) => {
                    step.ok += 1;
                    step.latency_ms[a.index] = lat;
                    let compute = a.compute_ns as f64 / 1e6;
                    step.compute_ms.push(compute);
                    step.noncompute_ms.push(lat - compute);
                }
                Err(msg) => {
                    step.failed += 1;
                    step.shed += msg.starts_with("overloaded") as usize;
                    step.expired += msg.starts_with("expired") as usize;
                }
            }
            tally.record(a.outcome);
        }
        for _ in seen.iter().filter(|s| !**s) {
            step.failed += 1;
            tally.fail("request got no reply".into());
        }
        step.span_s = (last - base).as_secs_f64().max(1e-9);
        step.drain_ms = last
            .saturating_duration_since(sched(keys.len().saturating_sub(1)))
            .as_secs_f64()
            * 1e3;
        if step.max_lag_ms > LAG_LIMIT_MS {
            tally.fail(format!(
                "invalid run: sender fell {:.3} ms behind schedule at {rate} rps (limit {LAG_LIMIT_MS} ms)",
                step.max_lag_ms
            ));
        }
        step
    }

    fn finish(mut self) -> StatsSnapshot {
        let stats = self.server.stats();
        let _ = self.sink.bye();
        self.server.shutdown();
        self.server.join();
        stats
    }
}

/// One full-spectrum request per geometry and domain, so every engine
/// and arena the mix touches is built before the timed steps.
fn warm(client: &mut ServeClient, sig: &Signals) -> Result<(), String> {
    for geom in 0..GEOMS.len() {
        for kind in [RequestKind::Full, RequestKind::RealFull] {
            let req = sig.request(Key {
                geom,
                kind,
                input: 0,
                arg: 0,
            });
            match client.call(&req).map_err(|e| e.to_string())? {
                Reply::Ok(_) => {}
                other => return Err(format!("unexpected warm-up reply {other:?}")),
            }
        }
    }
    Ok(())
}

/// Read one reply per key; check each against its pinned bins.
fn read_replies(
    stream: &mut ReplyStream,
    keys: &[Key],
    id0: u64,
    expected: &HashMap<Key, Result<(Vec<Complex64>, f64), String>>,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(keys.len());
    for _ in 0..keys.len() {
        let reply = stream.recv();
        let at = Instant::now();
        let (id, outcome, compute_ns) = match reply {
            Ok(Reply::Ok(resp)) => {
                let outcome = match keys
                    .get(resp.id.wrapping_sub(id0) as usize)
                    .map(|k| &expected[k])
                {
                    Some(Ok((bins, err))) => bitwise(&resp.bins, bins).map(|()| *err),
                    Some(Err(e)) => Err(e.clone()),
                    None => Err(format!("reply for unknown id {}", resp.id)),
                };
                (resp.id, outcome, resp.compute_ns)
            }
            Ok(Reply::Rejected(rej)) => (
                rej.id,
                Err(format!("{}: {}", rej.code.name(), rej.message)),
                0,
            ),
            Ok(other) => (u64::MAX, Err(format!("unexpected reply {other:?}")), 0),
            // The connection is gone; the caller counts the missing
            // replies.
            Err(_) => break,
        };
        if let Some(index) = id
            .checked_sub(id0)
            .map(|i| i as usize)
            .filter(|&i| i < keys.len())
        {
            out.push(Arrival {
                index,
                at,
                outcome,
                compute_ns,
            });
        }
    }
    out
}

/// Cold set-up in a fresh process: server start, connect, and the first
/// engine build of each geometry and domain (the warm-up requests).
pub fn probe() -> Vec<(&'static str, f64)> {
    let sig = Signals::new(0);
    let t0 = Instant::now();
    let mut server = Server::start(ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    })
    .expect("server start");
    let mut client = ServeClient::connect(server.addr(), TIMEOUT).expect("connect");
    warm(&mut client, &sig).expect("warm-up");
    let dt = t0.elapsed().as_secs_f64();
    let _ = client.bye();
    server.shutdown();
    server.join();
    vec![("setup_s", dt)]
}

/// The mix for one step offering `rate` for `seconds`.
fn keys_for(seed: u64, step: u64, rate: f64, seconds: f64) -> Vec<Key> {
    mix(seed, step, (rate * seconds).round().max(1.0) as usize)
}

/// The end-to-end ladder: [`CYCLES`] cycles of one block per rate, each
/// block its rate's share of a cycle; blocks of one rate merged in time
/// order.
pub fn run(seed: u64, seconds: f64) -> (Vec<Step>, Tally) {
    let mut tally = Tally::default();
    let cycle = seconds / CYCLES as f64;
    let plan: Vec<(usize, Vec<Key>)> = (0..CYCLES)
        .flat_map(|c| (0..LADDER.len()).map(move |r| (c, r)))
        .map(|(c, r)| {
            (
                r,
                keys_for(
                    seed,
                    (c * LADDER.len() + r) as u64,
                    LADDER[r],
                    cycle * SHARES[r],
                ),
            )
        })
        .collect();
    let all: Vec<Key> = plan.iter().flat_map(|(_, k)| k.iter().copied()).collect();
    let mut rig = match Rig::start(seed, &all, &mut tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(e);
            return (Vec::new(), tally);
        }
    };
    let mut steps: Vec<Option<Step>> = LADDER.iter().map(|_| None).collect();
    for (r, keys) in &plan {
        let block = rig.step(LADDER[*r], keys, &mut tally);
        match &mut steps[*r] {
            Some(step) => step.absorb(block),
            slot => *slot = Some(block),
        }
    }
    rig.finish();
    (steps.into_iter().flatten().collect(), tally)
}

/// The traced pass at the nominal rate: an untraced half, then a traced
/// half that keeps the program's `compute_ns` and `StatsSnapshot`
/// counters, then the codec timed on the mix's own payloads.
pub fn traced(seed: u64, seconds: f64) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let rate = LADDER[NOMINAL];
    let plain = keys_for(seed, 100, rate, seconds / 2.0);
    let keys = keys_for(seed, 101, rate, seconds / 2.0);
    let mut m = Metrics::default();
    let mut rig = match Rig::start(seed, &[plain.clone(), keys.clone()].concat(), &mut tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(e);
            return (m, tally);
        }
    };
    let untraced = rig.step(rate, &plain, &mut tally);
    let before = rig.server.stats();
    let step = rig.step(rate, &keys, &mut tally);
    let after = rig.server.stats();
    let codec = codec_probe(&rig, &keys[..keys.len().min(CODEC_SAMPLES)]);
    untraced.print("untraced");
    step.print("traced  ");
    let stats = rig.finish();

    let n = step.ok;
    let lat = summarize(&step.latency_ms);
    let compute = median(&step.compute_ms);
    let nc = summarize(&step.noncompute_ms);
    let batches = (after.batches - before.batches).max(1);
    let tenants =
        |f: fn(&soi_serve::TenantStats) -> u64| stats.tenants.iter().map(f).sum::<u64>() as f64;
    m.push(
        "soi-serve.compute_ms_p50",
        "ms",
        compute,
        Source::Reported,
        n,
    );
    m.push(
        "soi-serve.noncompute_ms_p50",
        "ms",
        nc.p50,
        Source::Derived,
        nc.n,
    );
    m.push(
        "soi-serve.noncompute_ms_p95",
        "ms",
        nc.p95,
        Source::Derived,
        nc.n,
    );
    m.push(
        "soi-serve.batch_size_mean",
        "requests",
        (after.batched_requests - before.batched_requests) as f64 / batches as f64,
        Source::Reported,
        batches as usize,
    );
    m.push(
        "soi-serve.engine_builds",
        "count",
        stats.engine_builds as f64,
        Source::Reported,
        1,
    );
    m.push(
        "soi-serve.plan_misses",
        "count",
        stats.plan_misses as f64,
        Source::Reported,
        1,
    );
    m.push(
        "soi-serve.shed",
        "count",
        tenants(|t| t.shed),
        Source::Reported,
        1,
    );
    m.push(
        "soi-serve.expired",
        "count",
        tenants(|t| t.expired),
        Source::Reported,
        1,
    );
    let c = codec[0].len();
    let [enc, dec, resp] = codec.map(|v| median(&v) * 1e6);
    m.push(
        "soi-serve.proto.request_encode.us",
        "us",
        enc,
        Source::Timed,
        c,
    );
    m.push(
        "soi-serve.proto.request_decode.us",
        "us",
        dec,
        Source::Timed,
        c,
    );
    m.push(
        "soi-serve.proto.response_decode.us",
        "us",
        resp,
        Source::Timed,
        c,
    );
    m.push(
        "soi-serve.unattributed_frac",
        "frac",
        1.0 - (compute + (enc + dec + resp) / 1e3) / lat.p50,
        Source::Derived,
        n,
    );
    m.push(
        "bench.gen_lag_ms_max",
        "ms",
        untraced.max_lag_ms.max(step.max_lag_ms),
        Source::Timed,
        untraced.sent + step.sent,
    );
    m.push(
        "soi-serve.trace_overhead_frac",
        "frac",
        lat.p50 / summarize(&untraced.latency_ms).p50 - 1.0,
        Source::Derived,
        n,
    );
    (m, tally)
}

/// Seconds per request encode, request decode and response decode, on
/// the payloads of `keys`.
fn codec_probe(rig: &Rig, keys: &[Key]) -> [Vec<f64>; 3] {
    let mut out: [Vec<f64>; 3] = Default::default();
    for &key in keys {
        let req = rig.sig.request(key);
        let t = Instant::now();
        let bytes = std::hint::black_box(req.encode());
        out[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(Request::decode(&bytes).expect("decode own request"));
        out[1].push(t.elapsed().as_secs_f64());
        if let Some(Ok((bins, _))) = rig.expected.get(&key) {
            let resp = Response {
                id: 1,
                compute_ns: 1,
                bins: bins.clone(),
            }
            .encode();
            let t = Instant::now();
            std::hint::black_box(Response::decode(&resp).expect("decode own response"));
            out[2].push(t.elapsed().as_secs_f64());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_covers_every_kind_and_geometry() {
        assert_eq!(mix(7, 0, 500), mix(7, 0, 500));
        assert_ne!(mix(7, 0, 500), mix(8, 0, 500));
        assert_ne!(mix(7, 0, 500), mix(7, 1, 500));
        let keys = mix(7, 0, 500);
        for kind in KINDS {
            for geom in 0..GEOMS.len() {
                assert!(
                    keys.iter().any(|k| k.kind == kind && k.geom == geom),
                    "{kind:?} on {geom}"
                );
            }
        }
        for k in &keys {
            let (n, p) = GEOMS[k.geom];
            assert!(k.arg + n / p <= n, "{k:?} stays inside the spectrum");
        }
    }
}
