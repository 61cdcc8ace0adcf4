//! The fault matrix: kill one rank at every phase boundary, on both
//! transports, and demand a full recovery.
//!
//! For each (boundary, victim, transport) case the job must:
//! * detect the death promptly (no hangs — every case is deadline-bound),
//! * replay from per-rank checkpoints with a respawned rank in epoch 1,
//! * produce a spectrum **bitwise identical** to an undisturbed run, and
//! * leave a merged trace that passes every conservation check, with an
//!   identical `rejoin` marker sequence on every rank.
//!
//! Simnet cases model recovery as the launcher does: attempt 0 runs with
//! the fault and is rolled back wholesale (its trace discarded — exactly
//! what survivors' `run_wire_recoverable` does with `Trace::drain`);
//! attempt 1 is a fresh cluster replaying every rank from its
//! checkpoint. Wire cases run the real protocol end to end: survivor
//! threads re-rendezvous through `WireComm::reconnect` while a
//! "respawned" thread claims the dead rank with `Bootstrap::rejoin`.

use soi_core::{SoiError, SoiParams};
use soi_dist::{
    run_checkpointed, run_wire_recoverable, ChargePolicy, CheckpointStore, Communicator,
    DistSoiFft, FaultPlan, MemStore, LAST_BOUNDARY,
};
use soi_num::Complex64;
use soi_pool::ThreadPool;
use soi_simnet::Cluster;
use soi_trace::{Trace, TraceSet};
use soi_window::AccuracyPreset;
use soi_wire::{Bootstrap, Rendezvous, WireComm, WireConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const N: usize = 1 << 14;
const P: usize = 8;
const RANKS: usize = 4;

/// Per-case wall-clock ceiling. Generous for loaded CI machines; real
/// recoveries finish in well under a second on simnet and a couple of
/// seconds on the wire.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn plan() -> DistSoiFft {
    let params = SoiParams::with_preset(N, P, AccuracyPreset::Digits10).unwrap();
    DistSoiFft::new(&params).unwrap()
}

fn bitwise_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// The ground truth every recovered run must reproduce to the bit.
fn undisturbed(dist: &DistSoiFft) -> Vec<Complex64> {
    let x = signal(N);
    let (xr, dr) = (&x, dist);
    let m = N / RANKS;
    Cluster::ideal(RANKS)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial()).unwrap().0
        })
        .into_iter()
        .flatten()
        .collect()
}

// ---------------------------------------------------------------------------
// Simnet: every boundary, two victims.
// ---------------------------------------------------------------------------

/// One recovered simnet job; returns (spectrum, merged trace).
fn simnet_recovered(dist: &DistSoiFft, victim: usize, boundary: usize) -> (Vec<Complex64>, TraceSet) {
    let x = signal(N);
    let store = MemStore::new(RANKS);
    let m = N / RANKS;
    let (xr, dr, st) = (&x, dist, &store);

    // Attempt 0: the fault fires. The victim must fail; survivors either
    // fail (death before their last comm op) or finish work that is
    // about to be rolled back — either way the attempt is discarded.
    let out0 = Cluster::ideal(RANKS).run_collect(move |comm| {
        let rank = comm.rank();
        let local = &xr[rank * m..(rank + 1) * m];
        let fault = (rank == victim).then(|| FaultPlan::fail_comm(victim, boundary));
        run_checkpointed(dr, comm, local, ChargePolicy::WallClock, &ThreadPool::serial(), st, 0, fault)
    });
    assert!(
        matches!(out0[victim], Err(SoiError::Comm(_))),
        "victim {victim} must die at boundary {boundary}, got {:?}",
        out0[victim].as_ref().map(|_| "ok")
    );

    // Every rank checkpointed before the death reached it.
    for r in 0..RANKS {
        let ckpt = st.load(r).unwrap().expect("every rank checkpoints at boundary 0");
        assert_eq!(ckpt.epoch, 0);
        assert_eq!((ckpt.n as usize, ckpt.p as usize, ckpt.ranks as usize), (N, P, RANKS));
    }

    // Attempt 1: epoch 1, fresh cluster (the respawned victim plus
    // rolled-back survivors), every rank replaying from its checkpoint
    // behind a rejoin marker.
    let (out1, traces) = Cluster::ideal(RANKS).run_traced(move |comm: &mut soi_simnet::RankComm| {
        Communicator::trace_handle(comm).rejoin(1, Communicator::clock_now(comm));
        let ckpt = st.load(comm.rank()).unwrap().expect("checkpoint for replay");
        run_checkpointed(
            dr,
            comm,
            &ckpt.x_local,
            ChargePolicy::WallClock,
            &ThreadPool::serial(),
            st,
            1,
            None,
        )
        .expect("replay must succeed")
        .0
    });
    let y = out1.into_iter().flat_map(|(y, _)| y).collect();
    (y, traces)
}

#[test]
fn simnet_matrix_every_boundary_recovers_bitwise() {
    let dist = plan();
    let want = undisturbed(&dist);
    for victim in [1, RANKS - 1] {
        for boundary in 0..=LAST_BOUNDARY {
            let t0 = Instant::now();
            let (y, traces) = simnet_recovered(&dist, victim, boundary);
            assert!(
                bitwise_eq(&y, &want),
                "victim {victim} boundary {boundary}: recovered spectrum differs"
            );
            let summary = traces
                .validate()
                .unwrap_or_else(|e| panic!("victim {victim} boundary {boundary}: {e}"));
            assert_eq!(summary.rejoins, vec![1], "one rejoin into epoch 1 on every rank");
            assert!(summary.messages > 0, "replay really communicated");
            let dt = t0.elapsed();
            assert!(
                dt < CASE_DEADLINE,
                "victim {victim} boundary {boundary}: recovery took {dt:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Wire: every boundary over real sockets, with the real rejoin protocol.
// ---------------------------------------------------------------------------

fn wire_cfg() -> WireConfig {
    WireConfig {
        op_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(15),
        ..WireConfig::default()
    }
}

/// One recovered wire job. Survivor threads run `run_wire_recoverable`
/// and reconnect on their own; the victim's death is signalled to a
/// "respawn" thread that claims the dead rank via `Bootstrap::rejoin`,
/// exactly as a relaunched worker process would.
fn wire_recovered(
    dist: &DistSoiFft,
    victim: usize,
    boundary: usize,
) -> (Vec<Complex64>, TraceSet, Vec<u32>) {
    let cfg = wire_cfg();
    let rv = Rendezvous::bind("127.0.0.1:0", cfg).unwrap();
    let addr = rv.local_addr().unwrap();
    let store = MemStore::new(RANKS);
    let x = signal(N);
    let m = N / RANKS;
    let (dead_tx, dead_rx) = mpsc::channel::<()>();

    let mut results: Vec<Option<(Vec<Complex64>, Vec<soi_trace::Event>, u32)>> =
        (0..RANKS).map(|_| None).collect();
    std::thread::scope(|s| {
        // Rendezvous driver: the initial round, then the recovery round.
        // Streams are held open until everyone is done (they are the
        // workers' control connections in a real launch).
        let rv_ref = &rv;
        let driver = s.spawn(move || {
            let initial = rv_ref.serve(RANKS).unwrap();
            let recovery = rv_ref.reserve(RANKS, 1).unwrap();
            (initial, recovery)
        });

        let mut workers = Vec::new();
        for _ in 0..RANKS {
            let (addr, xr, st, dr) = (addr.clone(), &x, &store, dist);
            let dead_tx = dead_tx.clone();
            workers.push(s.spawn(move || {
                let boot = Bootstrap::join(&addr, cfg).unwrap();
                let (mut comm, _control) = WireComm::from_bootstrap(boot);
                let rank = comm.rank();
                comm.set_trace(Trace::recording(rank));
                let local = &xr[rank * m..(rank + 1) * m];
                let fault = (rank == victim).then(|| FaultPlan::fail_comm(victim, boundary));
                let res = run_wire_recoverable(
                    dr,
                    &mut comm,
                    local,
                    ChargePolicy::WallClock,
                    &ThreadPool::serial(),
                    st,
                    fault,
                );
                if rank == victim {
                    assert!(
                        matches!(res, Err(SoiError::Comm(_))),
                        "victim must die, not recover itself"
                    );
                    // Only now may the "launcher" respawn the rank — in a
                    // real launch the EOF on the control stream is this
                    // signal.
                    dead_tx.send(()).unwrap();
                    None
                } else {
                    let rec = res.unwrap_or_else(|e| panic!("survivor rank {rank}: {e}"));
                    Some((rank, rec.y, comm.trace().drain(), rec.attempts))
                }
            }));
        }
        // Only clones held by worker threads remain: if the victim dies
        // without signalling, recv() errors instead of deadlocking.
        drop(dead_tx);

        // The respawned process for the dead rank's slot.
        let st = &store;
        let respawn = s.spawn(move || {
            dead_rx.recv().expect("victim thread must signal its death");
            let boot = Bootstrap::rejoin(&addr, victim, 1, cfg).unwrap();
            let (mut comm, _control) = WireComm::from_bootstrap(boot);
            assert_eq!(comm.rank(), victim, "rejoin must reclaim the dead slot");
            assert_eq!(comm.epoch(), 1);
            comm.set_trace(Trace::recording(victim));
            comm.trace().rejoin(1, None);
            let ckpt = st.load(victim).unwrap().expect("victim checkpointed before dying");
            let rec = run_wire_recoverable(
                dist,
                &mut comm,
                &ckpt.x_local,
                ChargePolicy::WallClock,
                &ThreadPool::serial(),
                st,
                None,
            )
            .expect("respawned rank replays clean");
            (victim, rec.y, comm.trace().drain(), rec.attempts)
        });

        for w in workers {
            if let Some((rank, y, events, attempts)) = w.join().unwrap() {
                results[rank] = Some((y, events, attempts));
            }
        }
        let (rank, y, events, attempts) = respawn.join().unwrap();
        results[rank] = Some((y, events, attempts));
        drop(driver.join().unwrap());
    });

    let mut y = Vec::with_capacity(N);
    let mut streams = Vec::with_capacity(RANKS);
    let mut attempts = Vec::with_capacity(RANKS);
    for slot in results.into_iter() {
        let (block, events, att) = slot.expect("every rank produced a result");
        y.extend(block);
        streams.push(events);
        attempts.push(att);
    }
    (y, TraceSet::from_streams(streams), attempts)
}

#[test]
fn wire_matrix_every_boundary_recovers_bitwise() {
    let dist = plan();
    let want = undisturbed(&dist);
    let victim = 1;
    for boundary in 0..=LAST_BOUNDARY {
        let t0 = Instant::now();
        let (y, traces, attempts) = wire_recovered(&dist, victim, boundary);
        assert!(
            bitwise_eq(&y, &want),
            "boundary {boundary}: recovered wire spectrum differs from undisturbed run"
        );
        let summary = traces
            .validate()
            .unwrap_or_else(|e| panic!("boundary {boundary}: merged trace invalid: {e}"));
        assert_eq!(summary.rejoins, vec![1], "boundary {boundary}: rejoin markers");
        for (rank, att) in attempts.iter().enumerate() {
            let want_attempts = if rank == victim { 1 } else { 2 };
            assert_eq!(
                *att, want_attempts,
                "boundary {boundary}: rank {rank} attempt count"
            );
        }
        let dt = t0.elapsed();
        assert!(dt < CASE_DEADLINE, "boundary {boundary}: recovery took {dt:?}");
    }
}

/// An undisturbed run through the recoverable driver is exactly the
/// plain run: one attempt, same bits, no rejoin events.
#[test]
fn recoverable_driver_is_transparent_without_faults() {
    let dist = plan();
    let want = undisturbed(&dist);
    let cfg = wire_cfg();
    let rv = Rendezvous::bind("127.0.0.1:0", cfg).unwrap();
    let addr = rv.local_addr().unwrap();
    let store = MemStore::new(RANKS);
    let x = signal(N);
    let m = N / RANKS;
    let mut blocks: Vec<Option<(usize, Vec<Complex64>, u32)>> = Vec::new();
    std::thread::scope(|s| {
        let rv_ref = &rv;
        let driver = s.spawn(move || rv_ref.serve(RANKS).unwrap());
        let mut handles = Vec::new();
        for _ in 0..RANKS {
            let (addr, xr, st, dr) = (addr.clone(), &x, &store, &dist);
            handles.push(s.spawn(move || {
                let boot = Bootstrap::join(&addr, cfg).unwrap();
                let (mut comm, _control) = WireComm::from_bootstrap(boot);
                let rank = comm.rank();
                let local = &xr[rank * m..(rank + 1) * m];
                let rec = run_wire_recoverable(
                    dr,
                    &mut comm,
                    local,
                    ChargePolicy::WallClock,
                    &ThreadPool::serial(),
                    st,
                    None,
                )
                .unwrap();
                assert!(rec.control.is_none(), "no reconnect without a fault");
                (rank, rec.y, rec.attempts)
            }));
        }
        blocks = handles.into_iter().map(|h| Some(h.join().unwrap())).collect();
        drop(driver.join().unwrap());
    });
    let mut y = vec![Complex64::ZERO; N];
    for b in blocks.into_iter().flatten() {
        let (rank, block, attempts) = b;
        assert_eq!(attempts, 1);
        y[rank * m..(rank + 1) * m].copy_from_slice(&block);
    }
    assert!(bitwise_eq(&y, &want));
}
