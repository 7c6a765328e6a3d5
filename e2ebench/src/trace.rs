//! Tracing from outside the program: a `Transport` wrapper that times
//! every call the real node loops make into the transport, and the
//! layer figures derived from those calls.
//!
//! Each rank runs on its own thread and calls the transport between
//! its units of work, so a rank's timeline is an alternation of
//! transport calls and the spans between them. The span after a
//! delivered frame is the work that frame caused (a slave's batch
//! drain, the collector's accounting); the spans around the master's
//! batch sends are its slot work (ingest, route, drain and encode).

use crate::sys;
use bytes::Bytes;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use windjoin_cluster::CancelToken;
use windjoin_net::{Disconnected, Message, NetEvent, Transport, TransportEndpoint, WireStats};

/// First byte of a batch frame and of an outputs frame, learnt from the
/// public encoders.
pub fn frame_kinds() -> (u8, u8) {
    let mut buf = Vec::new();
    Message::encode_batch_into(&[], &mut buf);
    let batch = buf[0];
    Message::encode_outputs_into(&[], &mut buf);
    (batch, buf[0])
}

/// What one transport call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A frame handed to the transport.
    Send {
        /// Destination rank.
        to: usize,
        /// First payload byte (the message kind).
        kind: u8,
        /// Payload bytes.
        len: usize,
    },
    /// A receive that returned a frame.
    Delivered {
        /// Sender rank.
        from: usize,
        /// First payload byte.
        kind: u8,
    },
    /// A receive that returned a teardown notice, timed out or failed.
    Idle,
}

/// One timed transport call; times are ns since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Wall clock at entry.
    pub start_ns: u64,
    /// Wall clock at return.
    pub end_ns: u64,
    /// Thread CPU at entry.
    pub cpu_start_ns: u64,
    /// Thread CPU at return.
    pub cpu_end_ns: u64,
    /// What the call did.
    pub op: Op,
}

/// Everything one rank's endpoint recorded, handed over when the node
/// thread drops it.
#[derive(Debug, Default)]
pub struct RankLog {
    /// Every transport call in order.
    pub calls: Vec<Call>,
    /// Wall clock when the node loop released the endpoint.
    pub end_ns: u64,
    /// The node thread's CPU when it released the endpoint.
    pub thread_cpu_ns: u64,
    /// Copies of sent frames kept for the codec and drain replays.
    pub captured: Vec<Bytes>,
}

/// Which sent frames a rank copies, up to a byte budget.
#[derive(Debug, Clone, Copy)]
pub struct Capture {
    /// Destination rank.
    pub to: usize,
    /// Message kind.
    pub kind: u8,
    /// Earliest send time copied, ns since the trace epoch.
    pub from_ns: u64,
    /// Byte budget; the first frame that does not fit ends copying.
    pub budget: usize,
}

struct Shared {
    epoch: Instant,
    master_first_send: OnceLock<Instant>,
    /// False when only the master's first send is wanted.
    time_calls: bool,
    stop_after_first_slot: Option<CancelToken>,
    logs: Mutex<Vec<Option<RankLog>>>,
    captures: Vec<Option<Capture>>,
}

/// Handle on a trace while and after its run.
#[derive(Clone)]
pub struct Trace(Arc<Shared>);

impl Trace {
    /// When the master first handed a frame to the transport: the
    /// start of its schedule clock, since its first distribution slot
    /// is due at time zero.
    pub fn master_first_send(&self) -> Option<Instant> {
        self.0.master_first_send.get().copied()
    }

    /// The per-rank logs, once every endpoint has been dropped.
    pub fn take_logs(&self) -> Vec<RankLog> {
        let mut logs = self.0.logs.lock().expect("trace log lock poisoned");
        logs.iter_mut()
            .enumerate()
            .map(|(r, l)| {
                l.take().unwrap_or_else(|| panic!("rank {r} never released its endpoint"))
            })
            .collect()
    }
}

/// A transport whose endpoints time every call into `inner`.
pub struct TraceNet<T> {
    inner: T,
    trace: Trace,
}

impl<T: Transport> TraceNet<T> {
    /// Records every call of every rank; `captures[rank]` selects the
    /// frames that rank copies.
    pub fn full(inner: T, epoch: Instant, captures: Vec<Option<Capture>>) -> (Self, Trace) {
        Self::new(inner, epoch, true, None, captures)
    }

    /// Records only the master's first send, the origin of its schedule
    /// clock; every other call passes straight through.
    pub fn origin(inner: T, epoch: Instant) -> (Self, Trace) {
        Self::new(inner, epoch, false, None, Vec::new())
    }

    /// Records only the master's first send and then fires `cancel`,
    /// ending the job after its first distribution slot.
    pub fn first_slot(inner: T, epoch: Instant, cancel: CancelToken) -> (Self, Trace) {
        Self::new(inner, epoch, false, Some(cancel), Vec::new())
    }

    fn new(
        inner: T,
        epoch: Instant,
        time_calls: bool,
        stop_after_first_slot: Option<CancelToken>,
        mut captures: Vec<Option<Capture>>,
    ) -> (Self, Trace) {
        let n = inner.len();
        captures.resize(n, None);
        let trace = Trace(Arc::new(Shared {
            epoch,
            master_first_send: OnceLock::new(),
            time_calls,
            stop_after_first_slot,
            logs: Mutex::new((0..n).map(|_| None).collect()),
            captures,
        }));
        (TraceNet { inner, trace: trace.clone() }, trace)
    }
}

impl<T: Transport> Transport for TraceNet<T> {
    type Endpoint = TraceEndpoint<T::Endpoint>;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn take(&mut self, rank: usize) -> Self::Endpoint {
        let capture = self.trace.0.captures[rank];
        TraceEndpoint {
            inner: self.inner.take(rank),
            rank,
            shared: Arc::clone(&self.trace.0),
            log: RefCell::new(RankLog::default()),
            capture,
            capture_left: Cell::new(capture.map_or(0, |c| c.budget)),
        }
    }
}

/// One rank's timed endpoint.
pub struct TraceEndpoint<E> {
    inner: E,
    rank: usize,
    shared: Arc<Shared>,
    log: RefCell<RankLog>,
    capture: Option<Capture>,
    capture_left: Cell<usize>,
}

impl<E: TransportEndpoint> TraceEndpoint<E> {
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn timed<R>(&self, call: impl FnOnce(&E) -> R, op: impl FnOnce(&R) -> Op) -> R {
        if !self.shared.time_calls {
            return call(&self.inner);
        }
        let cpu_start_ns = sys::thread_cpu_ns();
        let start_ns = self.now_ns();
        let r = call(&self.inner);
        let end_ns = self.now_ns();
        let cpu_end_ns = sys::thread_cpu_ns();
        let op = op(&r);
        self.log.borrow_mut().calls.push(Call { start_ns, end_ns, cpu_start_ns, cpu_end_ns, op });
        r
    }

    fn sending(&self, to: usize, payload: &[u8]) {
        if self.rank == 0 && self.shared.master_first_send.get().is_none() {
            let _ = self.shared.master_first_send.set(Instant::now());
            if let Some(cancel) = &self.shared.stop_after_first_slot {
                cancel.cancel();
            }
        }
        if let Some(c) = &self.capture {
            if c.to == to && payload.first() == Some(&c.kind) && self.now_ns() >= c.from_ns {
                // The copies form a prefix of the selected frames: the
                // first frame over budget ends copying.
                let left = self.capture_left.get();
                if payload.len() <= left {
                    self.capture_left.set(left - payload.len());
                    self.log.borrow_mut().captured.push(Bytes::from(payload));
                } else {
                    self.capture_left.set(0);
                }
            }
        }
    }

    fn received(r: &Result<Option<NetEvent>, Disconnected>) -> Op {
        match r {
            Ok(Some(NetEvent::Frame(f))) => Op::Delivered {
                from: f.from,
                kind: f.payload.as_ref().first().copied().unwrap_or(0),
            },
            _ => Op::Idle,
        }
    }
}

impl<E: TransportEndpoint> TransportEndpoint for TraceEndpoint<E> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn network_len(&self) -> usize {
        self.inner.network_len()
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), Disconnected> {
        self.sending(to, payload.as_ref());
        let (kind, len) = (payload.as_ref().first().copied().unwrap_or(0), payload.len());
        self.timed(|e| e.send(to, payload), |_| Op::Send { to, kind, len })
    }

    fn send_slice(&self, to: usize, payload: &[u8]) -> Result<(), Disconnected> {
        self.sending(to, payload);
        let (kind, len) = (payload.first().copied().unwrap_or(0), payload.len());
        self.timed(|e| e.send_slice(to, payload), |_| Op::Send { to, kind, len })
    }

    fn recv_event(&self) -> Result<NetEvent, Disconnected> {
        let r = self.timed(
            |e| e.recv_event().map(Some),
            |r: &Result<Option<NetEvent>, Disconnected>| Self::received(r),
        );
        r.map(|ev| ev.expect("blocking receive returns an event"))
    }

    fn recv_event_timeout(&self, d: Duration) -> Result<Option<NetEvent>, Disconnected> {
        self.timed(|e| e.recv_event_timeout(d), Self::received)
    }

    fn try_recv_event(&self) -> Option<NetEvent> {
        self.timed(|e| Ok(e.try_recv_event()), Self::received).expect("try_recv never fails")
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

impl<E> Drop for TraceEndpoint<E> {
    fn drop(&mut self) {
        // Runs on the node thread as its loop returns.
        let mut log = std::mem::take(self.log.get_mut());
        log.end_ns = self.shared.epoch.elapsed().as_nanos() as u64;
        log.thread_cpu_ns = sys::thread_cpu_ns();
        if let Ok(mut logs) = self.shared.logs.lock() {
            logs[self.rank] = Some(log);
        }
    }
}
