//! Per-layer figures of a traced run: the node loops' timelines from
//! [`crate::trace`], plus replays of captured frames through the codec
//! and the slave's join kernel.

use crate::quantile::LogHist;
use crate::trace::{Call, Op, RankLog};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Instant;
use windjoin_core::{ExactEngine, OutPair, Params, SlaveCore, Tuple, WorkStats};
use windjoin_net::Message;

/// Rank layout of every workload: master 0, slaves `1..=slaves`, then
/// the collector.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Slave count.
    pub slaves: usize,
}

impl Topology {
    /// Slave ranks.
    pub fn slave_ranks(&self) -> std::ops::RangeInclusive<usize> {
        1..=self.slaves
    }

    /// The collector's rank.
    pub fn collector(&self) -> usize {
        self.slaves + 1
    }
}

/// One named per-layer figure.
pub type Metric = (&'static str, f64, &'static str);

const MS: f64 = 1e6;

fn dur(c: &Call) -> u64 {
    c.end_ns - c.start_ns
}

/// The span after call `i`: until the next call, or until the rank
/// released its endpoint. Returns `(wall ns, thread CPU ns)`.
pub fn span_after(log: &RankLog, i: usize) -> (u64, u64) {
    let c = &log.calls[i];
    match log.calls.get(i + 1) {
        Some(n) => (n.start_ns - c.end_ns, n.cpu_start_ns.saturating_sub(c.cpu_end_ns)),
        None => (log.end_ns - c.end_ns, log.thread_cpu_ns.saturating_sub(c.cpu_end_ns)),
    }
}

/// Sent/delivered frames of one sender→receiver pair matched FIFO:
/// `(send start, delivery, kind)` per frame, plus the unmatched count.
pub fn match_frames(logs: &[RankLog], from: usize, to: usize) -> (Vec<(u64, u64, u8)>, usize) {
    let sends = logs[from].calls.iter().filter_map(|c| match c.op {
        Op::Send { to: t, kind, .. } if t == to => Some((c.start_ns, kind)),
        _ => None,
    });
    let deliveries: Vec<(u64, u8)> = logs[to]
        .calls
        .iter()
        .filter_map(|c| match c.op {
            Op::Delivered { from: f, kind } if f == from => Some((c.end_ns, kind)),
            _ => None,
        })
        .collect();
    let sends: Vec<(u64, u8)> = sends.collect();
    let matched: Vec<(u64, u64, u8)> = sends
        .iter()
        .zip(&deliveries)
        .map(|(&(s, k), &(d, k2))| {
            assert_eq!(k, k2, "frame kinds disagree between {from}->{to} send and delivery");
            (s, d, k)
        })
        .collect();
    let unmatched = sends.len().abs_diff(deliveries.len());
    (matched, unmatched)
}

/// Inputs to [`timeline_metrics`].
pub struct Timeline<'a> {
    /// Per-rank logs.
    pub logs: &'a [RankLog],
    /// Rank layout.
    pub topo: Topology,
    /// Batch and outputs frame kinds.
    pub kinds: (u8, u8),
    /// Distribution epoch, ns.
    pub td_ns: u64,
    /// Statistics start, ns since the trace epoch.
    pub warmup_ns: u64,
    /// Schedule horizon, ns.
    pub run_ns: u64,
    /// Process CPU over the run, ns.
    pub process_cpu_ns: u64,
}

/// A unit of a rank's own work, as the per-layer figures see it: one
/// master slot, one slave batch drain or one collector frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// When the unit started: the master slot's first batch send, or the
    /// delivery of the frame that caused the unit.
    pub at_ns: u64,
    /// The spans (by the index of the call each follows) it took.
    pub spans: Vec<usize>,
}

impl Unit {
    /// Wall and thread CPU time of the unit's spans, ns.
    pub fn busy(&self, log: &RankLog) -> (u64, u64) {
        self.spans.iter().map(|&i| span_after(log, i)).fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1))
    }
}

impl Timeline<'_> {
    /// The units of work the per-layer figures attribute to `rank`.
    ///
    /// The master's slot k is the k-th run of batch sends (one per
    /// slave); its spans are those before each of those sends (ingest
    /// and drain before the first, encode between them) and the one
    /// after the last when no batch send follows (epoch bookkeeping). A
    /// slave's unit is the span after a delivered batch (drain, probe
    /// and emission, up to the outputs send); the collector's, the span
    /// after a delivered outputs frame.
    pub fn units(&self, rank: usize) -> Vec<Unit> {
        let (batch, outputs) = self.kinds;
        let log = &self.logs[rank];
        // Units caused by delivered frames of `kind`, from `sender` or
        // from anyone.
        let after_delivered = |sender: Option<usize>, kind: u8| -> Vec<Unit> {
            log.calls
                .iter()
                .enumerate()
                .filter(|(_, c)| match c.op {
                    Op::Delivered { from, kind: k } => {
                        k == kind && sender.is_none_or(|s| s == from)
                    }
                    _ => false,
                })
                .map(|(i, c)| Unit { at_ns: c.end_ns, spans: vec![i] })
                .collect()
        };
        if rank == self.topo.collector() {
            return after_delivered(None, outputs);
        }
        if rank != 0 {
            return after_delivered(Some(0), batch);
        }
        let is_batch_send = |c: &Call| matches!(c.op, Op::Send { kind, .. } if kind == batch);
        let mut slots: Vec<Unit> = Vec::new();
        let mut in_slot = 0;
        for (i, c) in log.calls.iter().enumerate() {
            if !is_batch_send(c) {
                continue;
            }
            if in_slot == 0 {
                slots.push(Unit { at_ns: c.start_ns, spans: Vec::new() });
            }
            let slot = slots.last_mut().expect("slot opened");
            if i > 0 {
                slot.spans.push(i - 1);
            }
            in_slot += 1;
            if in_slot == self.topo.slaves {
                in_slot = 0;
                if !log.calls.get(i + 1).is_some_and(is_batch_send) {
                    slot.spans.push(i);
                }
            }
        }
        slots
    }
}

/// The master, transport, slave and collector figures of one trace.
pub fn timeline_metrics(t: &Timeline<'_>) -> Vec<Metric> {
    let (batch, outputs) = t.kinds;
    let mut m = Vec::new();

    let master = &t.logs[0];
    let slots = t.units(0);
    let base = slots.first().map_or(0, |u| u.at_ns);
    let mut busy = LogHist::new();
    let mut late = LogHist::new();
    for (k, slot) in slots.iter().enumerate() {
        let due = k as u64 * t.td_ns;
        // Main-loop slots of the measured window; the final flush slot
        // is not scheduled.
        if due >= t.warmup_ns && due < t.run_ns {
            busy.record(slot.busy(master).0);
            late.record(slot.at_ns.saturating_sub(base + due));
        }
    }
    m.push(("master.slot_busy_ms.p50", busy.quantile(0.5) / MS, "ms"));
    m.push(("master.slot_busy_ms.p99", busy.quantile(0.99) / MS, "ms"));
    m.push(("master.slot_late_ms.p99", late.quantile(0.99) / MS, "ms"));
    m.push(("master.cpu_share", master.thread_cpu_ns as f64 / t.process_cpu_ns as f64, "ratio"));

    // Transport: time blocked inside send calls, and per-frame transit
    // from the send call to the receive that returned the frame.
    let send_ns = |log: &RankLog| -> u64 {
        log.calls.iter().filter(|c| matches!(c.op, Op::Send { .. })).map(dur).sum()
    };
    m.push((
        "net.send_blocked_share.master",
        send_ns(master) as f64 / master.end_ns as f64,
        "ratio",
    ));
    let slave_send: u64 = t.topo.slave_ranks().map(|r| send_ns(&t.logs[r])).sum();
    let slave_wall: u64 = t.topo.slave_ranks().map(|r| t.logs[r].end_ns).sum();
    m.push(("net.send_blocked_share.slave", slave_send as f64 / slave_wall as f64, "ratio"));
    let mut batch_transit = LogHist::new();
    let mut out_transit = LogHist::new();
    for s in t.topo.slave_ranks() {
        for (sent, got, kind) in match_frames(t.logs, 0, s).0 {
            if kind == batch && sent >= t.warmup_ns {
                batch_transit.record(got - sent);
            }
        }
        for (sent, got, kind) in match_frames(t.logs, s, t.topo.collector()).0 {
            if kind == outputs && sent >= t.warmup_ns {
                out_transit.record(got - sent);
            }
        }
    }
    m.push(("net.batch_transit_ms.p50", batch_transit.quantile(0.5) / MS, "ms"));
    m.push(("net.batch_transit_ms.p99", batch_transit.quantile(0.99) / MS, "ms"));
    m.push(("net.outputs_transit_ms.p50", out_transit.quantile(0.5) / MS, "ms"));
    m.push(("net.outputs_transit_ms.p99", out_transit.quantile(0.99) / MS, "ms"));
    let frames: usize = t
        .logs
        .iter()
        .map(|l| l.calls.iter().filter(|c| matches!(c.op, Op::Send { .. })).count())
        .sum();
    m.push(("net.frames_sent", frames as f64, "count"));

    // Slaves and collector: the units after the warm-up.
    let mut slave_busy = LogHist::new();
    let (mut span_wall, mut span_cpu) = (0u64, 0u64);
    let mut per_slave = Vec::new();
    for s in t.topo.slave_ranks() {
        let mut total = 0u64;
        for u in t.units(s).iter().filter(|u| u.at_ns >= t.warmup_ns) {
            let (wall, cpu) = u.busy(&t.logs[s]);
            slave_busy.record(wall);
            span_wall += wall;
            span_cpu += cpu;
            total += wall;
        }
        per_slave.push(total as f64);
    }
    m.push(("slave.batch_busy_ms.p50", slave_busy.quantile(0.5) / MS, "ms"));
    m.push(("slave.batch_busy_ms.p99", slave_busy.quantile(0.99) / MS, "ms"));
    m.push(("slave.batch_cpu_share", span_cpu as f64 / span_wall.max(1) as f64, "ratio"));
    let mean = per_slave.iter().sum::<f64>() / per_slave.len() as f64;
    let max = per_slave.iter().copied().fold(0.0, f64::max);
    m.push(("slave.busy_skew", if mean > 0.0 { max / mean } else { 1.0 }, "ratio"));

    let col = &t.logs[t.topo.collector()];
    let mut col_busy = LogHist::new();
    for u in t.units(t.topo.collector()).iter().filter(|u| u.at_ns >= t.warmup_ns) {
        col_busy.record(u.busy(col).0);
    }
    m.push(("collector.frame_busy_ms.p50", col_busy.quantile(0.5) / MS, "ms"));
    m.push(("collector.frame_busy_ms.p99", col_busy.quantile(0.99) / MS, "ms"));
    m.push(("collector.cpu_share", col.thread_cpu_ns as f64 / t.process_cpu_ns as f64, "ratio"));
    m
}

/// Payload bytes of every sent frame of `kind` from `ranks`.
pub fn sent_bytes(logs: &[RankLog], ranks: impl IntoIterator<Item = usize>, kind: u8) -> u64 {
    ranks
        .into_iter()
        .flat_map(|r| logs[r].calls.iter())
        .filter_map(|c| match c.op {
            Op::Send { kind: k, len, .. } if k == kind => Some(len as u64),
            _ => None,
        })
        .sum()
}

/// Repeats `pass` and returns the median pass time, ns.
fn median_pass(passes: usize, mut pass: impl FnMut()) -> f64 {
    let mut times: Vec<u64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// Codec cost per tuple and per pair, replaying captured batch and
/// outputs frames through the public encoders and decoders.
pub fn codec_metrics(batches: &[Bytes], outputs: &[Bytes]) -> Vec<Metric> {
    const PASSES: usize = 7;
    let decoded: Vec<Vec<Tuple>> = batches
        .iter()
        .map(|f| {
            let mut v = Vec::new();
            assert!(Message::decode_batch_into(f.clone(), &mut v).expect("captured batch decodes"));
            v
        })
        .collect();
    let tuples: usize = decoded.iter().map(Vec::len).sum::<usize>().max(1);
    let mut scratch = Vec::new();
    let mut buf = Vec::new();
    let dec = median_pass(PASSES, || {
        for f in batches {
            Message::decode_batch_into(std::hint::black_box(f.clone()), &mut scratch)
                .expect("decodes");
            std::hint::black_box(&scratch);
        }
    });
    let enc = median_pass(PASSES, || {
        for b in &decoded {
            Message::encode_batch_into(std::hint::black_box(b), &mut buf);
            std::hint::black_box(&buf);
        }
    });
    let pairs: Vec<Vec<OutPair>> = outputs
        .iter()
        .map(|f| match Message::decode(f.clone()).expect("captured outputs decode") {
            Message::Outputs(p) => p,
            other => panic!("captured a non-outputs frame: {other:?}"),
        })
        .collect();
    let npairs: usize = pairs.iter().map(Vec::len).sum::<usize>().max(1);
    let out_dec = median_pass(PASSES, || {
        for f in outputs {
            std::hint::black_box(
                Message::decode(std::hint::black_box(f.clone())).expect("decodes"),
            );
        }
    });
    let out_enc = median_pass(PASSES, || {
        for p in &pairs {
            Message::encode_outputs_into(std::hint::black_box(p), &mut buf);
            std::hint::black_box(&buf);
        }
    });
    vec![
        ("wire.batch_encode_ns_per_tuple", enc / tuples as f64, "ns/tuple"),
        ("wire.batch_decode_ns_per_tuple", dec / tuples as f64, "ns/tuple"),
        ("wire.outputs_encode_ns_per_pair", out_enc / npairs as f64, "ns/pair"),
        ("wire.outputs_decode_ns_per_pair", out_dec / npairs as f64, "ns/pair"),
    ]
}

/// Replays slave 0's captured batches, in order, through a fresh
/// `SlaveCore` and times `process_pending` alone, ns per tuple. The
/// replay core owns every partition, so partitions moved in or out
/// during the run stay well defined (the figure is then an
/// approximation of the run's drain, stated beside it).
pub fn drain_ns_per_tuple(params: &Params, batches: &[Bytes]) -> f64 {
    let mut core: SlaveCore<ExactEngine> = SlaveCore::new(0, Arc::new(params.clone()));
    for pid in 0..params.npart {
        core.create_group(pid);
    }
    let mut batch = Vec::new();
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    let (mut ns, mut tuples) = (0u64, 0usize);
    for f in batches {
        Message::decode_batch_into(f.clone(), &mut batch).expect("captured batch decodes");
        core.receive_batch_slice(&batch);
        let t = Instant::now();
        core.process_pending(&mut out, &mut work);
        ns += t.elapsed().as_nanos() as u64;
        tuples += batch.len();
        out.clear();
    }
    ns as f64 / tuples.max(1) as f64
}
