//! Surviving rank death: checkpoints, fault injection, and replay.
//!
//! The SOI FFT's fault story is cheap because the algorithm's state is
//! cheap: until the all-to-all completes, everything a rank holds is
//! derived from its owned input block, and after it the run is within
//! two local phases of finishing. So a [`Checkpoint`] is just the input
//! block plus a phase tag — no intermediate vectors — and recovery is
//! *replay*: roll every rank back to its input and run again. Replay is
//! bitwise safe because the pipeline is deterministic for a fixed
//! geometry (the property the cross-transport equivalence tests pin).
//!
//! Three pieces live here:
//!
//! * [`FaultPlan`] — the deterministic injection seam: kill rank `v` at
//!   phase boundary `k`, either by declaring the communicator dead
//!   ([`FaultAction::FailComm`], works on both transports in-process) or
//!   by aborting the worker process ([`FaultAction::AbortProcess`], the
//!   `soi launch` path — on the wire an abort is indistinguishable from
//!   SIGKILL: peers see EOF).
//! * [`Checkpoint`] + [`CheckpointStore`] — the `"SOIC"`-tagged frame a
//!   rank persists at every boundary of
//!   [`DistSoiFft::execute`], to a shared [`MemStore`] (simnet,
//!   loopback tests) or a [`DirStore`] directory (`soi launch` workers).
//! * [`run_checkpointed`] / [`run_wire_recoverable`] — the drivers. The
//!   first wires checkpointing and fault injection into one attempt; the
//!   second loops attempts on a [`WireComm`]: on a comm failure it
//!   re-rendezvouses into the next epoch ([`WireComm::reconnect`]),
//!   discards the aborted attempt's trace events, records a
//!   [`rejoin`](soi_trace::Trace::rejoin) marker, reloads its
//!   checkpoint, and replays.
//!
//! What is **not** survived (DESIGN.md §12): death of the rendezvous
//! process, a second failure during recovery, and loss of a rank's
//! checkpoint storage. Those need either replicated rendezvous state or
//! peer-replicated checkpoints — out of scope while the checkpoint is
//! an input block.

use crate::comm::Communicator;
use crate::rates::ChargePolicy;
use crate::soi::{DistSoiFft, ExchangeSchedule};
use crate::times::PhaseTimes;
use soi_core::SoiError;
use soi_num::Complex64;
use soi_pool::ThreadPool;
use soi_wire::pod::{PayloadReader, PayloadWriter};
use soi_wire::{decode_slice, encode_slice, WireComm, WireError};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;

/// Number of phase boundaries a run passes through: `0` (before the
/// halo) through [`LAST_BOUNDARY`] (run complete). Fault sweeps iterate
/// `0..=LAST_BOUNDARY`.
pub const LAST_BOUNDARY: usize = 7;

/// How an injected fault kills the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Declare the victim's communicator dead ([`Communicator::fail_now`])
    /// and fail its run with [`SoiError::Comm`]. In-process: the victim
    /// thread survives to observe its own "death". Works on both
    /// transports.
    FailComm,
    /// `std::process::abort()` — the victim process dies for real, no
    /// destructors, no FIN-with-grace beyond what the kernel sends on
    /// process exit. Only meaningful for `soi launch` workers; peers see
    /// exactly what SIGKILL would produce on the wire.
    AbortProcess,
}

/// A deterministic fault: kill `victim` when it reaches phase boundary
/// `boundary` (see [`DistSoiFft::execute`] for the numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Rank to kill.
    pub victim: usize,
    /// Phase boundary (`0..=LAST_BOUNDARY`) at which the victim dies.
    pub boundary: usize,
    /// How the victim dies.
    pub action: FaultAction,
}

impl FaultPlan {
    /// Kill `victim` at `boundary` by declaring its communicator dead.
    pub fn fail_comm(victim: usize, boundary: usize) -> Self {
        Self { victim, boundary, action: FaultAction::FailComm }
    }

    /// Kill `victim` at `boundary` by aborting the process.
    pub fn abort_process(victim: usize, boundary: usize) -> Self {
        Self { victim, boundary, action: FaultAction::AbortProcess }
    }
}

const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"SOIC");
const CKPT_VERSION: u32 = 1;

/// Per-rank recovery state, written at every phase boundary.
///
/// Deliberately cheap: the owned input block plus the geometry needed to
/// refuse a mismatched restore. Recovery replays the whole transform
/// from the input (see the module docs for why that is both correct and
/// bitwise-faithful), so no intermediate vectors are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Job epoch the checkpoint was taken in (0 = initial launch).
    pub epoch: u32,
    /// Owning rank.
    pub rank: u32,
    /// Highest phase boundary this rank had completed when it saved.
    pub boundary: u32,
    /// Global problem size `N`.
    pub n: u64,
    /// Segment count `P`.
    pub p: u64,
    /// Cluster size the job was launched with.
    pub ranks: u32,
    /// The rank's owned input block (`c·M` points).
    pub x_local: Vec<Complex64>,
}

impl Checkpoint {
    /// Serialize to the `"SOIC"` frame (little-endian, bit-exact f64s).
    pub fn encode(&self) -> Vec<u8> {
        PayloadWriter::new()
            .u32(CKPT_MAGIC)
            .u32(CKPT_VERSION)
            .u32(self.epoch)
            .u32(self.rank)
            .u32(self.boundary)
            .u64(self.n)
            .u64(self.p)
            .u32(self.ranks)
            .bytes(&encode_slice(&self.x_local))
            .finish()
    }

    /// Parse a `"SOIC"` frame; truncated, trailing, or mistagged bytes
    /// are [`WireError::Protocol`].
    pub fn decode(b: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(b);
        let magic = r.u32()?;
        if magic != CKPT_MAGIC {
            return Err(WireError::Protocol(format!(
                "checkpoint magic {magic:#010x} != \"SOIC\""
            )));
        }
        let version = r.u32()?;
        if version != CKPT_VERSION {
            return Err(WireError::Protocol(format!(
                "checkpoint version {version} unsupported (want {CKPT_VERSION})"
            )));
        }
        let ckpt = Self {
            epoch: r.u32()?,
            rank: r.u32()?,
            boundary: r.u32()?,
            n: r.u64()?,
            p: r.u64()?,
            ranks: r.u32()?,
            x_local: decode_slice(&r.bytes()?)?,
        };
        if r.remaining() != 0 {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after checkpoint",
                r.remaining()
            )));
        }
        Ok(ckpt)
    }
}

/// Where checkpoints live. Shared across ranks (`Sync`): simnet ranks
/// are threads over one [`MemStore`]; `soi launch` workers share a
/// [`DirStore`] directory.
pub trait CheckpointStore: Sync {
    /// Persist `ckpt` under its rank, replacing any previous one.
    fn save(&self, ckpt: &Checkpoint) -> Result<(), WireError>;

    /// The most recent checkpoint for `rank`, if any.
    fn load(&self, rank: usize) -> Result<Option<Checkpoint>, WireError>;
}

/// In-memory store for single-process harnesses (simnet, loopback).
#[derive(Debug)]
pub struct MemStore {
    slots: Mutex<Vec<Option<Checkpoint>>>,
}

impl MemStore {
    /// An empty store with one slot per rank.
    pub fn new(ranks: usize) -> Self {
        Self { slots: Mutex::new(vec![None; ranks]) }
    }
}

impl CheckpointStore for MemStore {
    fn save(&self, ckpt: &Checkpoint) -> Result<(), WireError> {
        let mut slots = self.slots.lock().expect("ckpt store poisoned");
        let r = ckpt.rank as usize;
        if r >= slots.len() {
            return Err(WireError::Protocol(format!(
                "checkpoint rank {r} out of range (store holds {})",
                slots.len()
            )));
        }
        slots[r] = Some(ckpt.clone());
        Ok(())
    }

    fn load(&self, rank: usize) -> Result<Option<Checkpoint>, WireError> {
        let slots = self.slots.lock().expect("ckpt store poisoned");
        Ok(slots.get(rank).cloned().flatten())
    }
}

/// Directory-backed store for `soi launch` workers: one
/// `ckpt-rank-<r>.bin` per rank, written via temp-file + rename so a
/// crash mid-save never leaves a torn frame (decode would reject one
/// anyway, but the previous checkpoint survives).
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Store under `dir` (created on first save if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    fn path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("ckpt-rank-{rank}.bin"))
    }
}

impl CheckpointStore for DirStore {
    fn save(&self, ckpt: &Checkpoint) -> Result<(), WireError> {
        let io = |e: std::io::Error| WireError::Io(format!("checkpoint save: {e}"));
        std::fs::create_dir_all(&self.dir).map_err(io)?;
        let rank = ckpt.rank as usize;
        let tmp = self.dir.join(format!("ckpt-rank-{rank}.tmp"));
        std::fs::write(&tmp, ckpt.encode()).map_err(io)?;
        std::fs::rename(&tmp, self.path(rank)).map_err(io)?;
        Ok(())
    }

    fn load(&self, rank: usize) -> Result<Option<Checkpoint>, WireError> {
        match std::fs::read(self.path(rank)) {
            Ok(bytes) => Checkpoint::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(WireError::Io(format!("checkpoint load: {e}"))),
        }
    }
}

/// One attempt of the distributed SOI FFT with checkpointing and
/// (optionally) a fault wired into the phase-boundary hook.
///
/// At every boundary the rank saves its [`Checkpoint`] (tagged `epoch`),
/// *then* dies if `fault` names this rank and boundary — so the victim's
/// store always holds the state needed to respawn it. Checkpoint store
/// failures surface as [`SoiError::Comm`].
pub fn run_checkpointed<C, S>(
    dist: &DistSoiFft,
    comm: &mut C,
    x_local: &[Complex64],
    policy: ChargePolicy,
    pool: &ThreadPool,
    store: &S,
    epoch: u32,
    fault: Option<FaultPlan>,
) -> Result<(Vec<Complex64>, PhaseTimes), SoiError>
where
    C: Communicator,
    S: CheckpointStore + ?Sized,
{
    let cfg = *dist.config();
    let rank = comm.rank();
    let ranks = comm.size();
    dist.execute(comm, x_local, policy, pool, ExchangeSchedule::from_env(), |comm, k| {
        let ckpt = Checkpoint {
            epoch,
            rank: rank as u32,
            boundary: k as u32,
            n: cfg.n as u64,
            p: cfg.p as u64,
            ranks: ranks as u32,
            x_local: x_local.to_vec(),
        };
        store
            .save(&ckpt)
            .map_err(|e| SoiError::Comm(format!("checkpoint save failed: {e}")))?;
        if let Some(f) = fault {
            if f.victim == rank && f.boundary == k {
                match f.action {
                    FaultAction::FailComm => {
                        comm.fail_now();
                        return Err(SoiError::Comm(format!(
                            "injected fault: rank {rank} died at boundary {k}"
                        )));
                    }
                    FaultAction::AbortProcess => std::process::abort(),
                }
            }
        }
        Ok(())
    })
}

/// What [`run_wire_recoverable`] hands back on success.
#[derive(Debug)]
pub struct Recovery {
    /// This rank's output block.
    pub y: Vec<Complex64>,
    /// Phase breakdown of the *successful* attempt.
    pub times: PhaseTimes,
    /// Attempts taken (1 = undisturbed).
    pub attempts: u32,
    /// The fresh control stream from the recovery rendezvous, when a
    /// reconnect happened — `soi launch` workers must send their RESULT
    /// on this, not the original (dead) control socket.
    pub control: Option<TcpStream>,
}

/// Ceiling on attempts: the initial run plus one recovery. A second
/// failure (double fault) is reported, not survived — see module docs.
const MAX_ATTEMPTS: u32 = 2;

/// Run to completion on a [`WireComm`], surviving one peer death.
///
/// Drives [`run_checkpointed`] in a loop, closing each attempt with a
/// *completion barrier*: the pipeline's last communication is the
/// all-to-all (boundary 5), so a rank dying at boundaries 5–7 is
/// invisible to survivors' data path — they would deliver and exit,
/// leaving the dead rank's output unrecoverable. The barrier makes
/// every death, at any boundary, surface to every survivor before any
/// result is considered final.
///
/// On [`SoiError::Comm`] from a *peer* failure, every survivor: tears
/// down and re-rendezvouses into epoch `+1` ([`WireComm::reconnect`] —
/// the launcher must be running
/// [`Rendezvous::reserve`](soi_wire::Rendezvous::reserve) and respawning
/// the dead rank), discards the aborted attempt's trace events, records
/// a [`rejoin`](soi_trace::Trace::rejoin) marker, reloads its
/// checkpoint, and replays. The merged trace of the recovered job is a
/// clean replay plus rejoin markers, so `TraceSet::validate`'s
/// conservation checks pass unchanged.
///
/// The fault's *victim* never retries: its injected death propagates as
/// the error it is (the respawned process takes over the rank).
pub fn run_wire_recoverable<S>(
    dist: &DistSoiFft,
    comm: &mut WireComm,
    x_local: &[Complex64],
    policy: ChargePolicy,
    pool: &ThreadPool,
    store: &S,
    fault: Option<FaultPlan>,
) -> Result<Recovery, SoiError>
where
    S: CheckpointStore + ?Sized,
{
    let rank = WireComm::rank(comm);
    let mut input = x_local.to_vec();
    let mut control = None;
    let mut fault_pending = fault;
    for attempt in 1..=MAX_ATTEMPTS {
        let epoch = comm.epoch();
        let outcome = run_checkpointed(dist, comm, &input, policy, pool, store, epoch, fault_pending)
            .and_then(|ok| {
                WireComm::barrier(comm)
                    .map_err(|e| SoiError::Comm(format!("completion barrier: {e}")))?;
                Ok(ok)
            });
        match outcome {
            Ok((y, times)) => return Ok(Recovery { y, times, attempts: attempt, control }),
            Err(SoiError::Comm(msg)) => {
                let i_am_victim = fault.is_some_and(|f| f.victim == rank);
                if i_am_victim || attempt == MAX_ATTEMPTS {
                    return Err(SoiError::Comm(msg));
                }
                fault_pending = None; // the fault fired; replay runs clean
                let stream = comm.reconnect().map_err(|e| {
                    SoiError::Comm(format!("recovery rendezvous failed after '{msg}': {e}"))
                })?;
                control = Some(stream);
                // The aborted attempt's events would double-count sends
                // whose receives never happened; drop them and mark the
                // epoch seam instead.
                let trace = comm.trace().clone();
                let _ = trace.drain();
                trace.rejoin(comm.epoch() as u64, None);
                if let Some(ckpt) = store
                    .load(rank)
                    .map_err(|e| SoiError::Comm(format!("checkpoint load failed: {e}")))?
                {
                    input = ckpt.x_local;
                }
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("loop returns on success, exhaustion, or non-comm error");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ckpt() -> Checkpoint {
        Checkpoint {
            epoch: 1,
            rank: 2,
            boundary: 5,
            n: 1 << 14,
            p: 8,
            ranks: 4,
            x_local: (0..16)
                .map(|i| Complex64::new(i as f64 * 0.25, -(i as f64)))
                .collect(),
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let c = sample_ckpt();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn checkpoint_rejects_bad_magic_and_truncation() {
        let mut b = sample_ckpt().encode();
        b[0] ^= 0xff;
        assert!(matches!(Checkpoint::decode(&b), Err(WireError::Protocol(_))));
        let b = sample_ckpt().encode();
        assert!(matches!(
            Checkpoint::decode(&b[..b.len() - 3]),
            Err(WireError::Protocol(_))
        ));
        let mut b = sample_ckpt().encode();
        b.push(0);
        assert!(matches!(Checkpoint::decode(&b), Err(WireError::Protocol(_))));
    }

    #[test]
    fn mem_store_saves_and_loads_per_rank() {
        let store = MemStore::new(4);
        assert_eq!(store.load(2).unwrap(), None);
        let c = sample_ckpt();
        store.save(&c).unwrap();
        assert_eq!(store.load(2).unwrap(), Some(c.clone()));
        let mut newer = c.clone();
        newer.epoch = 2;
        store.save(&newer).unwrap();
        assert_eq!(store.load(2).unwrap(), Some(newer));
        assert!(store.save(&Checkpoint { rank: 9, ..c }).is_err());
    }

    #[test]
    fn dir_store_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("soi-ckpt-test-{}", std::process::id()));
        let store = DirStore::new(&dir);
        let c = sample_ckpt();
        store.save(&c).unwrap();
        assert_eq!(store.load(2).unwrap(), Some(c.clone()));
        assert_eq!(store.load(0).unwrap(), None);
        // A torn frame on disk is rejected, not silently accepted.
        std::fs::write(dir.join("ckpt-rank-3.bin"), &c.encode()[..10]).unwrap();
        assert!(store.load(3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
