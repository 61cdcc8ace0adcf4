//! The transport seam: one trait, two fabrics.
//!
//! Every distributed algorithm in this crate ([`crate::soi::DistSoiFft`],
//! [`crate::baseline::BaselineFft`], the distributed transpose) is
//! written against [`Communicator`] — the
//! abstract surface of a blocking-MPI-style rank endpoint. Two
//! implementations exist:
//!
//! * [`soi_simnet::RankComm`] — ranks as threads, channels as links, a
//!   virtual clock charging the paper's fabric model. Operations fail
//!   only when a rank declares itself dead ([`RankComm::fail_now`], the
//!   fault-injection seam) — survivors then see
//!   [`CommError::PeerLost`] instead of hanging.
//! * [`soi_wire::WireComm`] — ranks as processes, TCP as links, wall
//!   clocks. Operations fail for real ([`CommError::PeerLost`],
//!   [`CommError::Timeout`]) and the algorithms propagate that as
//!   [`SoiError::Comm`] instead of hanging.
//!
//! Element types are bounded by [`soi_wire::Pod`] — the little-endian
//! bit-exact codec — because anything the algorithms exchange must be
//! serializable on the real transport. `Pod: Copy + Send + 'static`
//! subsumes what the channel transport needs.
//!
//! Time is the one semantic difference the trait surfaces honestly:
//! [`Communicator::clock_now`] is `Some(virtual seconds)` on simnet and
//! `None` on the wire (real networks have no agreed clock), which is
//! exactly the `t_virt` convention of the trace schema;
//! [`Communicator::comm_seconds`] is virtual comm time on simnet and
//! accumulated wall time in comm calls on the wire, so `PhaseTimes`
//! breakdowns come out meaningful on both.

use soi_core::SoiError;
use soi_simnet::{RankComm, SimCommError};
use soi_trace::Trace;
use soi_wire::{Pod, WireComm, WireError};
use std::fmt;

/// A communication failure surfaced by a transport.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A peer process died or its link was torn down.
    PeerLost(String),
    /// An operation missed its deadline while links stayed up.
    Timeout(String),
    /// Malformed traffic, ragged buffers, or misuse of the collective.
    Protocol(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerLost(m) => write!(f, "peer lost: {m}"),
            CommError::Timeout(m) => write!(f, "comm timeout: {m}"),
            CommError::Protocol(m) => write!(f, "comm protocol error: {m}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<WireError> for CommError {
    fn from(e: WireError) -> Self {
        match &e {
            WireError::PeerLost { .. } => CommError::PeerLost(e.to_string()),
            WireError::Timeout { .. } => CommError::Timeout(e.to_string()),
            _ => CommError::Protocol(e.to_string()),
        }
    }
}

impl From<SimCommError> for CommError {
    fn from(e: SimCommError) -> Self {
        match &e {
            SimCommError::PeerLost { .. } => CommError::PeerLost(e.to_string()),
            SimCommError::Timeout { .. } => CommError::Timeout(e.to_string()),
        }
    }
}

impl From<CommError> for SoiError {
    fn from(e: CommError) -> Self {
        SoiError::Comm(e.to_string())
    }
}

/// A rank's endpoint into some fabric — the surface the distributed
/// algorithms are generic over. Semantics mirror blocking MPI: every
/// rank calls each collective in the same order with compatible buffers.
pub trait Communicator {
    /// This rank's id in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// A clone of this rank's trace handle (disabled handles are free).
    fn trace_handle(&self) -> Trace;

    /// The rank's clock, if the fabric has an agreed one: virtual seconds
    /// on simnet, `None` on a real network — feeds `t_virt` in traces.
    fn clock_now(&self) -> Option<f64>;

    /// Seconds attributed to communication so far (virtual on simnet,
    /// wall time inside comm calls on the wire). Differences of this
    /// around an exchange give the `PhaseTimes` comm entries.
    fn comm_seconds(&self) -> f64;

    /// Charge `dt` seconds of local computation to the rank's clock
    /// (no-op on fabrics without a virtual clock).
    fn charge_compute(&mut self, dt: f64);

    /// Simultaneous exchange: send `data` to `dst` while receiving from
    /// `src` (the halo pattern).
    fn sendrecv<T: Pod>(&mut self, dst: usize, data: &[T], src: usize)
        -> Result<Vec<T>, CommError>;

    /// Equal-block all-to-all: block `d` of `send` goes to rank `d`;
    /// `recv` block `s` arrives from rank `s`.
    fn all_to_all<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<(), CommError>;

    /// Segment-granular all-to-all with a per-landed-segment callback —
    /// the seam the overlapped SOI exchange schedule runs on.
    ///
    /// `send` holds one block per destination rank, each `nseg`
    /// sub-blocks of `rows = len / (size·nseg)` elements (sub-block
    /// `(d, s)` at `send[(d·nseg + s)·rows..]`). Deliveries land
    /// *segment-major*: `recv[(s·size + src)·rows..]`, so each segment's
    /// `size·rows` region is contiguous. `on_seg(s, segment, clock)`
    /// fires once per segment in ascending order as soon as all of that
    /// segment's sub-blocks are in place (on the wire, while later
    /// segments are still in flight); `clock` is the fabric's agreed
    /// clock if it has one. Callback time is excluded from
    /// [`Communicator::comm_seconds`] on wall-clock fabrics. With
    /// `nseg = 1` the layouts coincide with [`Communicator::all_to_all`]
    /// and the callback fires once after the exchange.
    fn all_to_all_seg<T: Pod>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        nseg: usize,
        on_seg: &mut dyn FnMut(usize, &mut [T], Option<f64>),
    ) -> Result<(), CommError>;

    /// Variable-count all-to-all; returns received blocks concatenated
    /// in rank order.
    fn all_to_allv<T: Pod>(&mut self, send: &[T], counts: &[usize])
        -> Result<Vec<T>, CommError>;

    /// Synchronize all ranks.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// Sum-allreduce of one f64, folded in rank order on every
    /// implementation so results are bitwise identical across fabrics.
    fn allreduce_sum(&mut self, v: f64) -> Result<f64, CommError>;

    /// Max-allreduce of one f64.
    fn allreduce_max(&mut self, v: f64) -> Result<f64, CommError>;

    /// Declare this rank dead, mid-run — the fault-injection seam.
    ///
    /// After this call every pending and future operation by *peers*
    /// involving this rank fails with [`CommError::PeerLost`] (promptly,
    /// not by deadline), and this rank's own operations fail too. On
    /// simnet this flips the shared death flag; on the wire it tears
    /// down every TCP link so peers see EOF. Used by `FaultPlan` to
    /// simulate a rank crash at an exact phase boundary.
    fn fail_now(&mut self);
}

impl Communicator for RankComm {
    fn rank(&self) -> usize {
        RankComm::rank(self)
    }

    fn size(&self) -> usize {
        RankComm::size(self)
    }

    fn trace_handle(&self) -> Trace {
        RankComm::trace(self).clone()
    }

    fn clock_now(&self) -> Option<f64> {
        Some(self.clock().now())
    }

    fn comm_seconds(&self) -> f64 {
        self.clock().comm_time()
    }

    fn charge_compute(&mut self, dt: f64) {
        RankComm::charge_compute(self, dt);
    }

    fn sendrecv<T: Pod>(
        &mut self,
        dst: usize,
        data: &[T],
        src: usize,
    ) -> Result<Vec<T>, CommError> {
        Ok(RankComm::try_sendrecv(self, dst, data, src)?)
    }

    fn all_to_all<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<(), CommError> {
        Ok(RankComm::try_all_to_all(self, send, recv)?)
    }

    fn all_to_all_seg<T: Pod>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        nseg: usize,
        on_seg: &mut dyn FnMut(usize, &mut [T], Option<f64>),
    ) -> Result<(), CommError> {
        Ok(RankComm::try_all_to_all_seg(self, send, recv, nseg, on_seg)?)
    }

    fn all_to_allv<T: Pod>(&mut self, send: &[T], counts: &[usize]) -> Result<Vec<T>, CommError> {
        Ok(RankComm::try_all_to_allv(self, send, counts)?)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        Ok(RankComm::try_barrier(self)?)
    }

    fn allreduce_sum(&mut self, v: f64) -> Result<f64, CommError> {
        Ok(RankComm::try_allreduce_sum(self, v)?)
    }

    fn allreduce_max(&mut self, v: f64) -> Result<f64, CommError> {
        Ok(RankComm::try_allreduce_max(self, v)?)
    }

    fn fail_now(&mut self) {
        RankComm::fail_now(self);
    }
}

impl Communicator for WireComm {
    fn rank(&self) -> usize {
        WireComm::rank(self)
    }

    fn size(&self) -> usize {
        WireComm::size(self)
    }

    fn trace_handle(&self) -> Trace {
        WireComm::trace(self).clone()
    }

    fn clock_now(&self) -> Option<f64> {
        None // no virtual clock on a real network
    }

    fn comm_seconds(&self) -> f64 {
        WireComm::comm_seconds(self)
    }

    fn charge_compute(&mut self, _dt: f64) {}

    fn sendrecv<T: Pod>(
        &mut self,
        dst: usize,
        data: &[T],
        src: usize,
    ) -> Result<Vec<T>, CommError> {
        Ok(WireComm::sendrecv(self, dst, data, src)?)
    }

    fn all_to_all<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<(), CommError> {
        Ok(WireComm::all_to_all(self, send, recv)?)
    }

    fn all_to_all_seg<T: Pod>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        nseg: usize,
        on_seg: &mut dyn FnMut(usize, &mut [T], Option<f64>),
    ) -> Result<(), CommError> {
        Ok(WireComm::all_to_all_seg(self, send, recv, nseg, on_seg)?)
    }

    fn all_to_allv<T: Pod>(&mut self, send: &[T], counts: &[usize]) -> Result<Vec<T>, CommError> {
        Ok(WireComm::all_to_allv(self, send, counts)?)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        Ok(WireComm::barrier(self)?)
    }

    fn allreduce_sum(&mut self, v: f64) -> Result<f64, CommError> {
        Ok(WireComm::allreduce_sum(self, v)?)
    }

    fn allreduce_max(&mut self, v: f64) -> Result<f64, CommError> {
        Ok(WireComm::allreduce_max(self, v)?)
    }

    fn fail_now(&mut self) {
        WireComm::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_simnet::Cluster;
    use soi_wire::{run_loopback, WireConfig};

    /// A tiny algorithm written once against the trait, run on both
    /// transports — the seam working end to end.
    fn ring_sum<C: Communicator>(comm: &mut C) -> Result<f64, CommError> {
        let me = comm.rank() as f64;
        let p = comm.size();
        let right = (comm.rank() + 1) % p;
        let left = (comm.rank() + p - 1) % p;
        let from_left = comm.sendrecv(right, &[me], left)?[0];
        comm.barrier()?;
        comm.allreduce_sum(from_left)
    }

    #[test]
    fn one_algorithm_runs_on_both_transports() {
        let p = 3;
        let want: f64 = (0..p).map(|r| r as f64).sum();
        let sim: Vec<f64> = Cluster::ideal(p).run_collect(|comm| ring_sum(comm).unwrap());
        let wire = run_loopback(p, WireConfig::default(), |comm| ring_sum(comm).unwrap()).unwrap();
        assert_eq!(sim, vec![want; p]);
        assert_eq!(wire, vec![want; p]);
        // Rank-order folds: bitwise identical, not just approximately.
        for (a, b) in sim.iter().zip(&wire) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn all_neg_inf_allreduce_max_stays_neg_inf_on_both_transports() {
        // A fold seeded with f64::MIN would silently answer f64::MIN
        // here; both transports must agree the max of {-inf} is -inf,
        // bitwise.
        let p = 3;
        let sim: Vec<f64> = Cluster::ideal(p)
            .run_collect(|comm| Communicator::allreduce_max(comm, f64::NEG_INFINITY).unwrap());
        let wire = run_loopback(p, WireConfig::default(), |comm| {
            Communicator::allreduce_max(comm, f64::NEG_INFINITY).unwrap()
        })
        .unwrap();
        for (a, b) in sim.iter().zip(&wire) {
            assert_eq!(a.to_bits(), f64::NEG_INFINITY.to_bits());
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Both one-sided self shapes, bootstrapped the only order that can
    /// work: a buffered self-`send` seeds rank 0's inbox so its
    /// `sendrecv(dst=1, src=0)` can pop it while writing to the peer,
    /// and rank 1's `sendrecv(dst=1, src=0)` queues to itself while
    /// reading that write, draining its own queue with a plain `recv`.
    /// One synchronized exchange per rank keeps simnet's clock sync in
    /// lockstep.
    #[test]
    fn one_sided_self_sendrecv_agrees_across_transports() {
        let p = 2;
        let sim: Vec<Vec<Vec<f64>>> = Cluster::ideal(p).run_collect(|c| {
            if c.rank() == 0 {
                c.send(0, vec![0.5, 0.25]);
                vec![c.sendrecv(1, &[7.0], 0)]
            } else {
                let from_peer = c.sendrecv(1, &[11.0, 12.0], 0);
                vec![from_peer, c.recv::<f64>(1)]
            }
        });
        let wire: Vec<Vec<Vec<f64>>> = run_loopback(p, WireConfig::default(), |c| {
            if c.rank() == 0 {
                c.send(0, &[0.5, 0.25]).unwrap();
                vec![c.sendrecv::<f64>(1, &[7.0], 0).unwrap()]
            } else {
                let from_peer = c.sendrecv::<f64>(1, &[11.0, 12.0], 0).unwrap();
                vec![from_peer, c.recv::<f64>(1).unwrap()]
            }
        })
        .unwrap();
        assert_eq!(sim, wire);
        // Rank 0's self-recv side popped its earlier self-send.
        assert_eq!(wire[0], vec![vec![0.5, 0.25]]);
        // Rank 1 received rank 0's one-sided wire write, then drained
        // the payload its own self-send side had queued.
        assert_eq!(wire[1], vec![vec![7.0], vec![11.0, 12.0]]);
    }

    /// Segment-granular exchange: values encode (source, destination,
    /// segment, row) so every landed sub-block is checkable, and the
    /// callback must see segments complete in ascending order.
    fn seg_exchange<C: Communicator>(comm: &mut C, nseg: usize, rows: usize) -> (Vec<f64>, Vec<usize>) {
        let p = comm.size();
        let me = comm.rank();
        let send: Vec<f64> = (0..p * nseg * rows)
            .map(|i| {
                let (d, s, j) = (i / (nseg * rows), (i / rows) % nseg, i % rows);
                (me * 1000 + d * 100 + s * 10 + j) as f64
            })
            .collect();
        let mut recv = vec![0.0f64; p * nseg * rows];
        let mut order = Vec::new();
        comm.all_to_all_seg(&send, &mut recv, nseg, &mut |si, seg, _clock| {
            assert_eq!(seg.len(), p * rows);
            order.push(si);
        })
        .unwrap();
        (recv, order)
    }

    #[test]
    fn segmented_exchange_delivers_segment_major_on_both_transports() {
        let (p, nseg, rows) = (3, 2, 4);
        let sim: Vec<_> = Cluster::ideal(p).run_collect(|c| seg_exchange(c, nseg, rows));
        let wire = run_loopback(p, WireConfig::default(), |c| seg_exchange(c, nseg, rows)).unwrap();
        assert_eq!(sim, wire);
        for (me, (recv, order)) in wire.iter().enumerate() {
            assert_eq!(*order, (0..nseg).collect::<Vec<_>>());
            for si in 0..nseg {
                for src in 0..p {
                    for j in 0..rows {
                        assert_eq!(
                            recv[(si * p + src) * rows + j],
                            (src * 1000 + me * 100 + si * 10 + j) as f64,
                            "rank {me} segment {si} from {src} row {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wire_errors_map_to_comm_errors() {
        let e: CommError = WireError::PeerLost { peer: Some(1), detail: "gone".into() }.into();
        assert!(matches!(e, CommError::PeerLost(_)));
        let e: CommError = WireError::Timeout {
            peer: None,
            op: "recv",
            after: std::time::Duration::from_secs(1),
        }
        .into();
        assert!(matches!(e, CommError::Timeout(_)));
        let e: CommError = WireError::Protocol("bad".into()).into();
        assert!(matches!(e, CommError::Protocol(_)));
        let s: SoiError = CommError::PeerLost("rank 3".into()).into();
        assert!(s.to_string().contains("rank 3"));
    }
}
