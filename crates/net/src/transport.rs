//! Pluggable rank-addressed blocking transports.
//!
//! Models the communication regime the paper assumes (§III): reliable,
//! connection-oriented, **blocking** — a receive blocks until the sender
//! is scheduled to send, and a send blocks when the peer's inbox is full
//! (bounded capacity models the no-unbounded-async-buffering constraint).
//!
//! Two backends implement the [`Transport`]/[`TransportEndpoint`] trait
//! pair:
//!
//! * [`ChannelNetwork`] (this module) — in-process bounded channels;
//!   one node per thread. Used by the threaded runtime and tests.
//! * [`TcpNetwork`](crate::tcp::TcpNetwork) — real sockets with
//!   length-prefixed framing; one node per OS process. The first true
//!   shared-nothing deployment (the paper runs mpiJava/LAM-MPI here).
//!
//! The master/slave/collector node loops in `windjoin-cluster` are
//! generic over [`TransportEndpoint`], so the same protocol code drives
//! either backend unchanged.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One delivered frame: the sender's rank and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender rank.
    pub from: usize,
    /// Encoded message payload.
    pub payload: Bytes,
}

/// One delivered transport event: a frame, or the typed notice that a
/// peer's connection tore down (process death, socket reset, endpoint
/// drop). `PeerDown` is what turns node loss from a silent hang into a
/// protocol event the master's recovery path can act on.
///
/// Per-peer ordering: every frame a peer sent before dying is delivered
/// before its `PeerDown` (the notice is produced by the same in-order
/// channel that carries the peer's frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A payload from a live peer.
    Frame(Frame),
    /// The connection to this rank is gone; no further frames from it
    /// will ever arrive.
    PeerDown(usize),
}

/// Send-side failure: the peer is gone (channel closed / socket reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Cumulative transfer volume through one endpoint, as counted at the
/// transport layer itself — the ground truth the saturation benchmarks
/// and `RunReport` byte accounting read, instead of estimating volume
/// from tuple counts.
///
/// Socket backends count real wire bytes (frame headers included,
/// self-sends excluded — a self-send never touches the wire); the
/// in-process channel backend counts payload bytes of every delivered
/// frame, self-sends included, since every frame there moves through
/// the same inbox.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes this endpoint pushed toward its peers.
    pub bytes_sent: u64,
    /// Bytes this endpoint accepted from its peers.
    pub bytes_recvd: u64,
}

/// Shared atomic counters behind [`WireStats`] — one pair per endpoint,
/// updated lock-free from whichever thread moves the bytes (sender
/// threads, reader threads, the poller).
#[derive(Debug, Default)]
pub(crate) struct WireCounters {
    pub(crate) sent: AtomicU64,
    pub(crate) recvd: AtomicU64,
}

impl WireCounters {
    pub(crate) fn add_sent(&self, n: usize) {
        self.sent.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_recvd(&self, n: usize) {
        self.recvd.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> WireStats {
        WireStats {
            bytes_sent: self.sent.load(Ordering::Relaxed),
            bytes_recvd: self.recvd.load(Ordering::Relaxed),
        }
    }
}

/// One rank's handle onto a cluster transport: send a frame to any
/// rank, receive from this rank's own inbox.
///
/// Contract (what the protocol state machines rely on):
///
/// * **FIFO per sender pair** — frames from rank *a* to rank *b* are
///   delivered in send order.
/// * **Blocking receive** — [`recv`](TransportEndpoint::recv) parks
///   until a frame arrives (§III's blocking communication).
/// * **Bounded send** — [`send`](TransportEndpoint::send) may block
///   while the peer's inbox is full; it never buffers unboundedly.
/// * **Self-send** — a rank may send to itself; the frame is delivered
///   through its own inbox like any other.
/// * **Failure surfacing** — a torn peer connection is delivered as a
///   typed [`NetEvent::PeerDown`] through the event receive methods,
///   after every frame that peer sent before dying.
///
/// # Backpressure and slow consumers
///
/// Every backend gives a rank one **bounded inbox** (capacity in
/// frames, fixed at construction). A rank that stops receiving — a
/// stalled collector, a wedged slave — fills that inbox, and the
/// pressure then propagates *sender-side*: the channel backend parks
/// senders on the full channel; the thread-per-peer TCP backend stops
/// its reader threads, letting TCP flow control fill the sender's
/// kernel buffers until its `send` blocks; the evented backend parks
/// decoded frames, masks read interest for the stalled peers, and lets
/// the same TCP flow control do the rest. In every case the sender's
/// `send` eventually **blocks** — it never drops frames, errors, or
/// buffers without bound.
///
/// What a stalled consumer must **not** do is wedge the rest of the
/// mesh. The guarantees every backend upholds while some rank's inbox
/// is full:
///
/// * Traffic between *other* pairs of ranks keeps flowing — per-peer
///   buffering (sockets, write queues) is independent, so pressure on
///   one destination never rides over into another.
/// * The stalled rank's **outbound** path stays live: a full inbox
///   blocks deliveries *to* the rank, never sends *from* it. (In the
///   evented backend this holds because the poller never blocks on the
///   inbox — it parks frames and keeps draining write queues.)
/// * The first `recv` after the stall drains the backlog in order;
///   nothing is reordered or dropped on the way through the pressure.
///
/// The one deadlock the transport cannot absolve is protocol-level: two
/// ranks that both fill each other's inboxes while *neither* receives
/// have deadlocked themselves — §III's blocking regime makes that the
/// protocol designer's contract, exactly as in the paper's MPI setting.
/// The node loops honor it by always draining between sends.
pub trait TransportEndpoint: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the network.
    fn network_len(&self) -> usize;

    /// Blocking send of `payload` to rank `to`.
    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected>;

    /// Blocking send of a borrowed payload — the allocation-free hot
    /// path for callers that encode into a reused scratch buffer.
    /// Backends that can write the bytes straight to the wire (TCP)
    /// override this; the default copies into an owned frame.
    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        self.send(to, Bytes::from(payload))
    }

    /// Blocking receive of the next event (frame or peer teardown)
    /// addressed to this rank.
    fn recv_event(&self) -> Result<NetEvent, Disconnected>;

    /// Event receive with a timeout; `Ok(None)` on timeout.
    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected>;

    /// Non-blocking event receive; `None` when the inbox is empty.
    fn try_recv_event(&self) -> Option<NetEvent>;

    /// Cumulative bytes moved through this endpoint. Backends that do
    /// not count (or have nothing to count) report zeros.
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }

    /// Blocking receive of the next *frame*; [`NetEvent::PeerDown`]
    /// notices are silently discarded. Failure-aware loops should use
    /// [`recv_event`](Self::recv_event) instead.
    fn recv(&self) -> Result<Frame, Disconnected> {
        loop {
            if let NetEvent::Frame(f) = self.recv_event()? {
                return Ok(f);
            }
        }
    }

    /// Frame receive with a timeout; `Ok(None)` on timeout. Peer-down
    /// notices are discarded without extending the deadline.
    fn recv_timeout(&self, d: Duration) -> Result<Option<Frame>, Disconnected> {
        let deadline = Instant::now() + d;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv_event_timeout(left)? {
                Some(NetEvent::Frame(f)) => return Ok(Some(f)),
                Some(NetEvent::PeerDown(_)) if Instant::now() < deadline => continue,
                _ => return Ok(None),
            }
        }
    }

    /// Non-blocking frame receive; `None` when no frame is buffered.
    /// Peer-down notices are discarded.
    fn try_recv(&self) -> Option<Frame> {
        loop {
            match self.try_recv_event()? {
                NetEvent::Frame(f) => return Some(f),
                NetEvent::PeerDown(_) => continue,
            }
        }
    }
}

/// A materialized network of `n` ranks whose endpoints are handed out
/// once each (typically one per thread).
pub trait Transport {
    /// The endpoint type this transport hands out.
    type Endpoint: TransportEndpoint;

    /// Number of ranks.
    fn len(&self) -> usize;

    /// True when the network has no ranks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes rank `r`'s endpoint. Panics if taken twice.
    fn take(&mut self, rank: usize) -> Self::Endpoint;
}

/// A fully-connected in-process network of `n` ranks over bounded
/// blocking channels.
#[derive(Debug)]
pub struct ChannelNetwork {
    endpoints: Vec<Option<ChannelEndpoint>>,
}

/// One rank's handle on a [`ChannelNetwork`].
#[derive(Debug, Clone)]
pub struct ChannelEndpoint {
    rank: usize,
    senders: Vec<Sender<NetEvent>>,
    receiver: Receiver<NetEvent>,
    stats: Arc<WireCounters>,
    /// Fires [`NetEvent::PeerDown`] at every peer when the last clone of
    /// this endpoint drops — the channel backend's equivalent of a TCP
    /// EOF, so in-process "process death" (a node loop returning and
    /// dropping its endpoint) is observable exactly like a socket reset.
    _death: Arc<DeathWatch>,
}

/// Drop guard that announces this rank's death to every peer inbox.
#[derive(Debug)]
struct DeathWatch {
    rank: usize,
    peers: Vec<Sender<NetEvent>>,
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        for (peer, s) in self.peers.iter().enumerate() {
            if peer == self.rank {
                continue; // our own inbox is being dropped with us
            }
            // Never block in Drop: if the peer's inbox is momentarily
            // full, hand the (blocking) send to a detached thread — the
            // peer is draining or gone, and either resolves the send.
            if let Err(TrySendError::Full(ev)) = s.try_send(NetEvent::PeerDown(self.rank)) {
                let s = s.clone();
                std::thread::spawn(move || {
                    let _ = s.send(ev);
                });
            }
        }
    }
}

impl ChannelNetwork {
    /// Builds a network of `n` ranks with per-inbox `capacity` frames.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n > 0 && capacity > 0);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = bounded(capacity);
            senders.push(s);
            receivers.push(r);
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                Some(ChannelEndpoint {
                    rank,
                    senders: senders.clone(),
                    receiver,
                    stats: Arc::new(WireCounters::default()),
                    _death: Arc::new(DeathWatch { rank, peers: senders.clone() }),
                })
            })
            .collect();
        ChannelNetwork { endpoints }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the network has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Takes rank `r`'s endpoint (each rank is taken once, typically by
    /// its thread).
    pub fn take(&mut self, rank: usize) -> ChannelEndpoint {
        self.endpoints[rank].take().expect("endpoint already taken")
    }
}

impl Transport for ChannelNetwork {
    type Endpoint = ChannelEndpoint;

    fn len(&self) -> usize {
        ChannelNetwork::len(self)
    }

    fn take(&mut self, rank: usize) -> ChannelEndpoint {
        ChannelNetwork::take(self, rank)
    }
}

impl ChannelEndpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the network.
    pub fn network_len(&self) -> usize {
        self.senders.len()
    }

    /// Blocking send of `payload` to rank `to` (blocks while the peer's
    /// inbox is full).
    pub fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        let len = payload.len();
        self.senders[to]
            .send(NetEvent::Frame(Frame { from: self.rank, payload }))
            .map_err(|_| Disconnected)?;
        self.stats.add_sent(len);
        Ok(())
    }

    /// Counts a delivered frame's payload toward this rank's receive
    /// volume (the channel backend has no reader thread to count at).
    fn tally(&self, ev: &NetEvent) {
        if let NetEvent::Frame(f) = ev {
            self.stats.add_recvd(f.payload.len());
        }
    }

    /// Blocking receive of the next event addressed to this rank.
    pub fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        let ev = self.receiver.recv().map_err(|_| Disconnected)?;
        self.tally(&ev);
        Ok(ev)
    }

    /// Event receive with a timeout; `Ok(None)` on timeout.
    pub fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        match self.receiver.recv_timeout(d) {
            Ok(ev) => {
                self.tally(&ev);
                Ok(Some(ev))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    /// Non-blocking event receive; `None` when the inbox is empty.
    pub fn try_recv_event(&self) -> Option<NetEvent> {
        let ev = self.receiver.try_recv().ok()?;
        self.tally(&ev);
        Some(ev)
    }

    /// Cumulative payload bytes sent and received through this rank.
    pub fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }

    /// Blocking receive of the next frame (peer-down notices discarded).
    pub fn recv(&self) -> Result<Frame, Disconnected> {
        TransportEndpoint::recv(self)
    }

    /// Frame receive with a timeout; `Ok(None)` on timeout.
    pub fn recv_timeout(&self, d: Duration) -> Result<Option<Frame>, Disconnected> {
        TransportEndpoint::recv_timeout(self, d)
    }

    /// Non-blocking frame receive; `None` when no frame is buffered.
    pub fn try_recv(&self) -> Option<Frame> {
        TransportEndpoint::try_recv(self)
    }
}

impl TransportEndpoint for ChannelEndpoint {
    fn rank(&self) -> usize {
        ChannelEndpoint::rank(self)
    }

    fn network_len(&self) -> usize {
        ChannelEndpoint::network_len(self)
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        ChannelEndpoint::send(self, to, payload)
    }

    fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        ChannelEndpoint::recv_event(self)
    }

    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        ChannelEndpoint::recv_event_timeout(self, d)
    }

    fn try_recv_event(&self) -> Option<NetEvent> {
        ChannelEndpoint::try_recv_event(self)
    }

    fn wire_stats(&self) -> WireStats {
        ChannelEndpoint::wire_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_delivered_in_order_with_sender_rank() {
        let mut net = ChannelNetwork::new(3, 16);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from_static(b"x")).unwrap();
        a.send(1, Bytes::from_static(b"y")).unwrap();
        let f1 = b.recv().unwrap();
        let f2 = b.recv().unwrap();
        assert_eq!((f1.from, &f1.payload[..]), (0, &b"x"[..]));
        assert_eq!((f2.from, &f2.payload[..]), (0, &b"y"[..]));
    }

    #[test]
    fn self_send_works() {
        let mut net = ChannelNetwork::new(1, 4);
        let a = net.take(0);
        a.send(0, Bytes::from_static(b"loop")).unwrap();
        assert_eq!(&a.recv().unwrap().payload[..], b"loop");
    }

    #[test]
    fn bounded_send_blocks_until_drained() {
        let mut net = ChannelNetwork::new(2, 1);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from_static(b"1")).unwrap();
        // The second send must block until rank 1 drains its inbox.
        let t = std::thread::spawn(move || {
            a.send(1, Bytes::from_static(b"2")).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "send must block on the full inbox");
        assert_eq!(&b.recv().unwrap().payload[..], b"1");
        t.join().unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"2");
    }

    #[test]
    fn recv_timeout_times_out() {
        let mut net = ChannelNetwork::new(2, 4);
        let b = net.take(1);
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }

    #[test]
    fn disconnect_is_reported() {
        let mut net = ChannelNetwork::new(2, 4);
        let a = net.take(0);
        let b = net.take(1);
        drop(net); // drops nothing live
        drop(b); // rank 1 inbox receiver gone
        assert_eq!(a.send(1, Bytes::new()), Err(Disconnected));
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoints_are_taken_once() {
        let mut net = ChannelNetwork::new(1, 1);
        let _a = net.take(0);
        let _b = net.take(0);
    }

    #[test]
    fn dropped_endpoint_announces_peer_down_after_its_frames() {
        let mut net = ChannelNetwork::new(3, 16);
        let a = net.take(0);
        let b = net.take(1);
        let _c = net.take(2);
        a.send(1, Bytes::from_static(b"last words")).unwrap();
        drop(a);
        assert_eq!(
            b.recv_event().unwrap(),
            NetEvent::Frame(Frame { from: 0, payload: Bytes::from_static(b"last words") }),
            "frames sent before death arrive first"
        );
        assert_eq!(b.recv_event().unwrap(), NetEvent::PeerDown(0));
    }

    #[test]
    fn peer_down_on_full_inbox_is_not_lost() {
        let mut net = ChannelNetwork::new(2, 1);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from_static(b"fill")).unwrap(); // inbox now full
        drop(a); // death notice must survive the full inbox
        assert_eq!(&b.recv().unwrap().payload[..], b"fill");
        let ev = b
            .recv_event_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("deferred death notice arrives");
        assert_eq!(ev, NetEvent::PeerDown(0));
    }

    #[test]
    fn frame_level_receives_skip_peer_down() {
        let mut net = ChannelNetwork::new(3, 16);
        let a = net.take(0);
        let b = net.take(1);
        let c = net.take(2);
        drop(c);
        a.send(1, Bytes::from_static(b"after")).unwrap();
        // recv() must deliver the frame, silently discarding rank 2's
        // death notice queued ahead of it.
        assert_eq!(&b.recv().unwrap().payload[..], b"after");
    }

    #[test]
    fn wire_stats_count_payload_volume() {
        let mut net = ChannelNetwork::new(2, 4);
        let a = net.take(0);
        let b = net.take(1);
        a.send(1, Bytes::from(vec![0u8; 100])).unwrap();
        a.send(1, Bytes::from(vec![0u8; 28])).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.wire_stats(), WireStats { bytes_sent: 128, bytes_recvd: 0 });
        assert_eq!(b.wire_stats(), WireStats { bytes_sent: 0, bytes_recvd: 128 });
    }

    #[test]
    fn trait_object_usability_via_generics() {
        fn ping<E: TransportEndpoint>(a: &E, b: &E) {
            a.send(b.rank(), Bytes::from_static(b"ping")).unwrap();
            assert_eq!(&b.recv().unwrap().payload[..], b"ping");
        }
        let mut net = ChannelNetwork::new(2, 4);
        let (a, b) = (net.take(0), net.take(1));
        ping(&a, &b);
    }
}
