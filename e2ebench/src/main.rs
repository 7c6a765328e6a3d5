//! End-to-end production-delay benchmark of windjoin on the evented
//! loopback socket mesh.
//!
//! ```text
//! windjoin-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is an in-process cluster (master, two slaves, collector;
//! one thread per rank plus one poller thread per rank) fed open-loop
//! by the master's own Poisson source. A benchmark-owned sink times
//! every output from its newest input's scheduled arrival, on the
//! master's schedule clock (its origin is the master's first send,
//! stamped by a pass-through endpoint wrapper); a streaming
//! oracle over the same seed's arrivals checks the output count and
//! checksum. `--trace 0` prints the end-to-end figures of an untraced
//! run; `--trace 1` adds a traced run and prints the per-layer figures.
//! The last stdout line is one JSON object with every figure by name.
//! A run counts as incorrect when its output count or checksum differs
//! from the oracle's; `failed / attempted` in the JSON is the
//! outputs-failed ratio, (missing + unexpected) outputs over expected,
//! with a checksum mismatch counting every expected output.

mod layers;
mod oracle;
mod quantile;
mod sys;
mod trace;
mod workloads;

use quantile::LogHist;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{Capture, Trace, TraceNet};
use windjoin_cluster::threadrt::DEFAULT_INBOX_CAPACITY;
use windjoin_cluster::{
    run_on_transport, CancelToken, JobSpec, JoinJob, NodeConfig, RunReport, Runtime, Sink,
    StreamingSink,
};
use windjoin_core::OutPair;
use windjoin_net::EventedNetwork;
use workloads::SLAVES;

/// Setup trials per invocation; `setup_s` is their median. The mesh
/// bootstrap is bimodal: about 1 ms, or 11 ms when an acceptor's first
/// poll misses its dialers and sleeps 10 ms. The slow share differs
/// from process to process (0 to about a quarter of the trials), which
/// moves a mean by a factor of two between runs; the median stays on
/// the common mode, and many trials keep it there.
const SETUP_TRIALS: usize = 101;
/// How much of the master's batch stream to slave 0 the traced run
/// copies for the drain and codec replays: about 12 s of `paper-bmodel`
/// (windows fill in the first 5), which bounds the replay's run time.
const BATCH_CAPTURE_BYTES: usize = 24 << 20;
/// Per-slave budget of copied outputs frames.
const OUTPUT_CAPTURE_BYTES: usize = 16 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Delay samples gathered by the benchmark's sink on the collector
/// thread, from outputs emitted after the warm-up.
#[derive(Default)]
struct Delays {
    /// Emit time past the newest input's scheduled arrival.
    all: LogHist,
    /// Emit time past the slot that could first ship the newest input
    /// (traced runs only).
    after_dispatch: LogHist,
}

/// The benchmark-owned sink: times each output from its newest input's
/// scheduled arrival on the master's schedule clock, whose origin is
/// the master's first send.
struct DelaySink {
    origin: Trace,
    warmup_ns: u64,
    td_us: u64,
    split_dispatch: bool,
    delays: Mutex<Delays>,
}

/// The sink as handed to the collector; the benchmark keeps another
/// handle to read the samples after the run.
struct SharedSink(Arc<DelaySink>);

impl Sink for SharedSink {
    fn on_outputs(&self, pairs: &[OutPair]) {
        self.0.record(pairs);
    }
}

impl DelaySink {
    fn record(&self, pairs: &[OutPair]) {
        let now = Instant::now();
        let origin =
            self.origin.master_first_send().expect("outputs follow the master's first send");
        let emit_ns = now.saturating_duration_since(origin).as_nanos() as u64;
        if emit_ns < self.warmup_ns {
            return;
        }
        let mut d = self.delays.lock().expect("delay sink lock poisoned");
        for p in pairs {
            let newest_us = p.newest_t();
            d.all.record(emit_ns.saturating_sub(newest_us * 1_000));
            if self.split_dispatch {
                let shipped_us = newest_us.div_ceil(self.td_us) * self.td_us;
                d.after_dispatch.record(emit_ns.saturating_sub(shipped_us * 1_000));
            }
        }
    }
}

/// One measured run and its check against the oracle.
struct Run {
    report: RunReport,
    delays: Delays,
    /// Process CPU over the whole run, warm-up and shutdown included.
    cpu_ns: u64,
    peak_rss_mb: f64,
    expected: oracle::Expected,
    /// Achieved per-stream rate over the whole schedule, tuples/s.
    achieved_rate: f64,
    /// The full trace of a traced run.
    trace: Option<Trace>,
    steal: (u64, u64),
}

impl Run {
    /// `(missing + unexpected) outputs`, or every expected output when
    /// the checksum disagrees.
    fn failed(&self) -> u64 {
        if self.report.output_checksum != self.expected.checksum {
            self.expected.outputs.max(1)
        } else {
            self.report.outputs_total.abs_diff(self.expected.outputs)
        }
    }

    /// Relative gap between the sink's mean delay and the collector's
    /// own exact mean. The collector's clock starts with its thread,
    /// before the slaves' and the master's threads start, so on a
    /// contended host the gap includes the master's start-up lag.
    fn mean_gap(&self) -> f64 {
        let own = self.report.avg_delay_s() * 1e9;
        (self.delays.all.mean() - own).abs() / own
    }
}

fn node_config(spec: &JobSpec) -> NodeConfig {
    spec.to_node_config().expect("workload specs are valid")
}

/// Seconds from the start of mesh establishment to the master's first
/// distribution slot; the job is cancelled right after that slot. Each
/// trial starts from a fresh thread: which bootstrap mode a trial hits
/// depends on where the spawning thread runs, and a long-lived spawner
/// would make every trial of a process hit the same one.
fn setup_trial(spec: &JobSpec) -> f64 {
    std::thread::scope(|s| s.spawn(|| setup_trial_here(spec)).join().expect("setup trial panicked"))
}

fn setup_trial_here(spec: &JobSpec) -> f64 {
    let cancel = CancelToken::new();
    let mut cfg = node_config(spec);
    cfg.cancel = Some(cancel.clone());
    let start = Instant::now();
    let mesh =
        EventedNetwork::loopback(cfg.ranks(), DEFAULT_INBOX_CAPACITY).expect("loopback mesh");
    let (net, trace) = TraceNet::first_slot(mesh, start, cancel);
    run_on_transport(&cfg, net);
    trace
        .master_first_send()
        .expect("the master distributed a slot")
        .duration_since(start)
        .as_secs_f64()
}

/// Runs the workload once; `traced` times every transport call, and an
/// untraced run only stamps the master's first send.
fn measured_run(spec: &JobSpec, traced: bool) -> Run {
    let mut cfg = node_config(spec);
    let warmup_ns = spec.warmup_us * 1_000;
    let steal0 = sys::host_steal_jiffies();
    let cpu0 = sys::process_cpu_ns();
    let mesh =
        EventedNetwork::loopback(cfg.ranks(), DEFAULT_INBOX_CAPACITY).expect("loopback mesh");
    let t0 = Instant::now();
    let (net, trace) = if traced {
        // Slave 0's batch stream from its start (the drain replay needs
        // a prefix), and outputs frames once the windows have filled.
        let (batch_kind, out_kind) = trace::frame_kinds();
        let mut captures = vec![None; cfg.ranks()];
        captures[0] =
            Some(Capture { to: 1, kind: batch_kind, from_ns: 0, budget: BATCH_CAPTURE_BYTES });
        for c in &mut captures[1..=SLAVES] {
            *c = Some(Capture {
                to: cfg.collector_rank(),
                kind: out_kind,
                from_ns: warmup_ns,
                budget: OUTPUT_CAPTURE_BYTES,
            });
        }
        TraceNet::full(mesh, t0, captures)
    } else {
        TraceNet::origin(mesh, t0)
    };
    let sink = Arc::new(DelaySink {
        origin: trace.clone(),
        warmup_ns,
        td_us: spec.params.dist_epoch_us,
        split_dispatch: traced,
        delays: Mutex::new(Delays::default()),
    });
    cfg.sink = Some(StreamingSink::new(SharedSink(Arc::clone(&sink))));
    let report = run_on_transport(&cfg, net);
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let steal1 = sys::host_steal_jiffies();
    // Read before the oracle runs, so its lists do not count.
    let peak_rss_mb = sys::peak_rss_mb();
    let delays = std::mem::take(&mut *sink.delays.lock().expect("delay sink lock poisoned"));
    let expected = oracle::expected(&spec.source, spec.seed, spec.params.sem, report.tuples_in);
    let achieved_rate = report.tuples_in as f64 / 2.0 / (spec.run_us as f64 / 1e6);
    Run {
        report,
        delays,
        cpu_ns,
        peak_rss_mb,
        expected,
        achieved_rate,
        trace: traced.then_some(trace),
        steal: (steal1.0 - steal0.0, steal1.1 - steal0.1),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process CPU per 1000 ingested tuples over the whole run.
fn cpu_ms_per_ktuple(run: &Run) -> f64 {
    run.cpu_ns as f64 / 1e6 / (run.report.tuples_in as f64 / 1e3)
}

/// The user-facing figures of one untraced run. Process CPU per tuple
/// is left out: it follows the load other tenants put on the host (the
/// same code read 0.74 and 0.92 ms/ktuple on `ingest-uniform` in two
/// sets of ten runs half an hour apart on a 2-core VM), so it is
/// recorded with the per-layer figures instead of gated.
fn end_to_end(run: &Run, setup_s: f64) -> Vec<layers::Metric> {
    let delays = &run.delays.all;
    println!("delay samples: {} (p50 and p99 of post-warm-up outputs)", delays.count());
    vec![
        ("setup_s", setup_s, "s"),
        ("delay_mean_ms", delays.mean() / 1e6, "ms"),
        ("delay_p50_ms", delays.quantile(0.5) / 1e6, "ms"),
        ("delay_p99_ms", delays.quantile(0.99) / 1e6, "ms"),
        ("peak_rss_mb", run.peak_rss_mb, "MB"),
    ]
}

/// The simulator's prediction for the same spec: mean delay (ms) and
/// total outputs. Recorded beside the measurement, never gated.
fn sim_prediction(spec: &JobSpec) -> (f64, u64) {
    let mut spec = spec.clone();
    spec.runtime = Runtime::Sim;
    let report = JoinJob::from_spec(spec).expect("valid sim spec").run().expect("simulator run");
    (report.avg_delay_s() * 1e3, report.outputs_total)
}

/// The per-layer figures of a traced run, with `plain` the untraced run
/// of the same invocation.
fn per_layer(spec: &JobSpec, plain: &Run, traced: &Run) -> Vec<layers::Metric> {
    let logs = traced.trace.as_ref().expect("traced run").take_logs();
    let topo = layers::Topology { slaves: SLAVES };
    let (batch_kind, out_kind) = trace::frame_kinds();
    let tuples = traced.report.tuples_in.max(1) as f64;
    let mut m: Vec<layers::Metric> = vec![
        ("cpu_ms_per_ktuple", cpu_ms_per_ktuple(plain), "ms/ktuple"),
        ("gen.achieved_rate_tps", traced.achieved_rate, "tuples/s"),
    ];
    m.extend(layers::timeline_metrics(&layers::Timeline {
        logs: &logs,
        topo,
        kinds: (batch_kind, out_kind),
        td_ns: spec.params.dist_epoch_us * 1_000,
        warmup_ns: spec.warmup_us * 1_000,
        run_ns: spec.run_us * 1_000,
        process_cpu_ns: traced.cpu_ns,
    }));
    let batches = &logs[0].captured;
    let outputs: Vec<_> =
        topo.slave_ranks().flat_map(|r| logs[r].captured.iter().cloned()).collect();
    m.extend(layers::codec_metrics(batches, &outputs));
    m.push((
        "wire.bytes_per_tuple",
        layers::sent_bytes(&logs, [0], batch_kind) as f64 / tuples,
        "B/tuple",
    ));
    m.push((
        "wire.bytes_per_output",
        layers::sent_bytes(&logs, topo.slave_ranks(), out_kind) as f64
            / traced.report.outputs_total.max(1) as f64,
        "B/pair",
    ));
    m.push((
        "slave.drain_ns_per_tuple",
        layers::drain_ns_per_tuple(&spec.params, batches),
        "ns/tuple",
    ));
    let w = &traced.report.work;
    m.push(("probe.comparisons_per_tuple", w.comparisons as f64 / tuples, "count"));
    m.push(("probe.outputs_per_tuple", w.emitted as f64 / tuples, "count"));
    m.push(("slave.blocks_touched_per_tuple", w.blocks_touched as f64 / tuples, "count"));
    m.push(("slave.hash_ops_per_tuple", w.hash_ops as f64 / tuples, "count"));
    m.push(("delay.after_dispatch_ms.p50", traced.delays.after_dispatch.quantile(0.5) / 1e6, "ms"));
    m.push((
        "delay.after_dispatch_ms.p99",
        traced.delays.after_dispatch.quantile(0.99) / 1e6,
        "ms",
    ));
    m.push((
        "trace.cpu_overhead",
        cpu_ms_per_ktuple(traced) / cpu_ms_per_ktuple(plain) - 1.0,
        "ratio",
    ));
    let (sim_delay_ms, sim_outputs) = sim_prediction(spec);
    m.push(("sim.delay_mean_ms", sim_delay_ms, "ms"));
    m.push(("sim.outputs_total", sim_outputs as f64, "count"));
    m.push(("host.steal_share", steal_share(traced), "ratio"));
    println!(
        "traced run: {} partition move(s); slave.drain_ns_per_tuple replays {} captured batch frame(s) \
         of slave 0{}",
        traced.report.moves,
        batches.len(),
        if traced.report.moves > 0 { " (approximate: partitions moved)" } else { "" }
    );
    m
}

fn json_metrics(metrics: &[layers::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints a run's correctness, rate and delay cross-check lines.
fn report(spec: &JobSpec, label: &str, run: &Run) {
    let failed = run.failed();
    println!(
        "{label}: outputs {} (expected {}), checksum {:016x} (expected {:016x}), \
         outputs_failed_ratio {}",
        run.report.outputs_total,
        run.expected.outputs,
        run.report.output_checksum,
        run.expected.checksum,
        failed as f64 / run.expected.outputs.max(1) as f64
    );
    println!(
        "{label}: rate per stream nominal {} achieved {:.1} tuples/s",
        workloads::nominal_rate(spec),
        run.achieved_rate
    );
    println!(
        "{label}: mean delay {:.3} ms, collector's own {:.3} ms (gap {:.2}%)",
        run.delays.all.mean() / 1e6,
        run.report.avg_delay_s() * 1e3,
        run.mean_gap() * 100.0
    );
    println!("{label}: cpu {:.4} ms/ktuple", cpu_ms_per_ktuple(run));
    println!("{label}: host steal share {:.4}", steal_share(run));
}

/// Share of the host's CPU time stolen by its hypervisor during a run.
fn steal_share(run: &Run) -> f64 {
    let (steal, total) = run.steal;
    steal as f64 / total.max(1) as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("windjoin-e2ebench: {e}");
            eprintln!(
                "usage: windjoin-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::build(&args.workload, args.seed, args.seconds) else {
        eprintln!(
            "windjoin-e2ebench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let (runs, metrics) = if args.trace {
        let plain = measured_run(&spec, false);
        let traced = measured_run(&spec, true);
        let metrics = per_layer(&spec, &plain, &traced);
        (vec![("untraced", plain), ("traced", traced)], metrics)
    } else {
        // The measured run goes first, so its peak RSS is not the set-up
        // trials' leftover heap.
        let run = measured_run(&spec, false);
        let setup_s = median((0..SETUP_TRIALS).map(|_| setup_trial(&spec)).collect());
        let metrics = end_to_end(&run, setup_s);
        (vec![("untraced", run)], metrics)
    };
    for (label, run) in &runs {
        report(&spec, label, run);
    }
    let attempted: u64 = runs.iter().map(|(_, r)| r.expected.outputs).sum();
    let failed: u64 = runs.iter().map(|(_, r)| r.failed()).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_gen::{KeyDist, RateSchedule};

    /// `paper-bmodel`'s shape at a rate and length a test can afford.
    fn short_job() -> JobSpec {
        let mut spec = workloads::build("paper-bmodel", 5, 1).expect("named workload");
        spec.params = spec.params.clone().with_window_secs(1);
        spec.warmup_us = 500_000;
        spec.run_us = 1_500_000;
        spec.source = windjoin_cluster::SourceSpec::Synthetic {
            rate: RateSchedule::constant(3_000.0),
            keys: KeyDist::BModel { bias: 0.7, domain: 10_000 },
        };
        spec
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_for_every_frame() {
        let spec = short_job();
        let plain = measured_run(&spec, false);
        let traced = measured_run(&spec, true);
        for run in [&plain, &traced] {
            assert!(run.expected.outputs > 1_000, "too few outputs to mean anything");
            assert_eq!(run.report.outputs_total, run.expected.outputs);
            assert_eq!(run.report.output_checksum, run.expected.checksum);
            assert!(run.mean_gap() <= 0.02, "sink and collector mean delays disagree");
        }
        assert_eq!(plain.report.output_checksum, traced.report.output_checksum);

        let logs = traced.trace.as_ref().expect("traced").take_logs();
        let (batch, outputs) = trace::frame_kinds();
        let timeline = layers::Timeline {
            logs: &logs,
            topo: layers::Topology { slaves: SLAVES },
            kinds: (batch, outputs),
            td_ns: spec.params.dist_epoch_us * 1_000,
            warmup_ns: spec.warmup_us * 1_000,
            run_ns: spec.run_us * 1_000,
            process_cpu_ns: traced.cpu_ns,
        };
        for (rank, log) in logs.iter().enumerate() {
            assert!(!log.calls.is_empty(), "rank {rank} made no transport calls");
            for w in log.calls.windows(2) {
                assert!(w[0].end_ns <= w[1].start_ns, "rank {rank}: overlapping calls");
            }
            // The rank's wall time since the run started splits into its
            // transport calls, the spans the per-layer figures attribute
            // to its units of work, and the spans they leave out. Each
            // span may belong to one unit at most, and the three must
            // cover the rank's life: the trace misses only the moments
            // before the rank's first call.
            let units = timeline.units(rank);
            assert!(!units.is_empty(), "rank {rank} did no attributed work");
            let mut attributed = vec![false; log.calls.len()];
            for &i in units.iter().flat_map(|u| &u.spans) {
                assert!(!attributed[i], "rank {rank}: span {i} attributed twice");
                attributed[i] = true;
            }
            let calls: u64 = log.calls.iter().map(|c| c.end_ns - c.start_ns).sum();
            let busy: u64 = units.iter().map(|u| u.busy(log).0).sum();
            let rest: u64 = (0..log.calls.len())
                .filter(|&i| !attributed[i])
                .map(|i| layers::span_after(log, i).0)
                .sum();
            assert!(calls + busy <= log.end_ns, "rank {rank}: attributed time exceeds its life");
            let covered = (calls + busy + rest) as f64 / log.end_ns as f64;
            assert!(
                (0.98..=1.0).contains(&covered),
                "rank {rank} covers {covered} of its wall time"
            );
        }
        for from in 0..logs.len() {
            for to in 0..logs.len() {
                let (_, unmatched) = layers::match_frames(&logs, from, to);
                assert_eq!(unmatched, 0, "{from}->{to}: sends and deliveries differ");
            }
        }
    }
}
