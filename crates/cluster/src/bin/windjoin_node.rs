//! `windjoin-node` — one rank of a multi-process windjoin cluster.
//!
//! Every rank of the topology (masters = ranks `0..m`, slaves = ranks
//! `m..m+n`, collector = rank `m+n`) runs one instance of this binary
//! with the **same** `--peers` list and job; the processes handshake
//! into a full TCP mesh and then execute the paper's
//! master/slave/collector protocol over real sockets. With
//! `--masters 1` (the default) this is the classic Fig. 1 topology;
//! higher odd counts add hot-standby masters with a quorum-replicated
//! decision log and leader election.
//!
//! ```text
//! windjoin-node --rank <R> --peers <addr0,addr1,...> [--sql QUERY | --job FILE] [flags]
//!
//! topology     --rank N            this process's rank
//!              --peers A,B,...     listen address of every rank, by rank;
//!                                  its length fixes the slave count,
//!                                  overriding the job's `slaves`
//!              --masters N         master ranks (use odd counts) [1]
//! job          --sql QUERY         the job as SQL (the dialect of
//!                                  `windjoin-submit`; see `sql.rs`)
//!              --job FILE          the job as `JobSpec` JSON
//!                                  (`JobSpec::to_json`); neither flag
//!                                  runs the `JobSpec::demo` defaults
//! robustness   --checkpoint-every N  slaves snapshot owned partitions
//!                                  to a buddy every N batches; 0 off [0]
//! chaos        --die-after-batches N  (slave ranks only) crash this
//!                                  process after processing N batches
//!              --die-after-epochs N  (master ranks only) crash this
//!                                  process while leading epoch N
//! transport    --transport T       threaded | evented       [threaded]
//!              --capacity N        inbox frames             [4096]
//!              --handshake-ms N    mesh dial window         [30000]
//! ```
//!
//! The collector prints machine-readable results to stdout
//! (`outputs_total`, `checksum`, and one `pair` line per join result
//! when the job captures outputs, e.g. SQL `sink = capture`); all ranks
//! log progress to stderr. See the README for a copy-pasteable
//! 4-process launch.

use std::net::SocketAddr;
use std::time::Duration;
use windjoin_cluster::{
    cli_node_config, run_node, ChaosKill, MasterKill, NodeOutcome, ProcessConfig, TransportKind,
};

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("windjoin-node: {msg}");
    eprintln!(
        "usage: windjoin-node --rank <R> --peers <addr0,addr1,...> [--sql QUERY | --job FILE] \
         [flags]"
    );
    eprintln!("run with the same --peers and job on every rank;");
    eprintln!("ranks 0..m are masters, m..m+n slaves, rank m+n the collector.");
    std::process::exit(2);
}

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| usage_and_exit(&format!("bad {flag}")))
}

fn parse_args() -> ProcessConfig {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rank: Option<usize> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut masters: usize = 1;
    let mut sql: Option<&str> = None;
    let mut job: Option<&str> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut die_after_batches: Option<u64> = None;
    let mut die_after_epochs: Option<u64> = None;
    let mut capacity: Option<usize> = None;
    let mut handshake: Option<Duration> = None;
    let mut transport: Option<TransportKind> = None;

    // Every flag takes exactly one value.
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = || -> &str {
            argv.get(i + 1).unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
        };
        match flag {
            "--rank" => rank = Some(num(flag, value())),
            "--peers" => {
                peers = value()
                    .split(',')
                    .map(|a| {
                        a.parse()
                            .unwrap_or_else(|_| usage_and_exit(&format!("bad peer address {a:?}")))
                    })
                    .collect()
            }
            "--masters" => masters = num(flag, value()),
            "--sql" => sql = Some(value()),
            "--job" => job = Some(value()),
            "--checkpoint-every" => checkpoint_every = Some(num(flag, value())),
            "--die-after-batches" => die_after_batches = Some(num(flag, value())),
            "--die-after-epochs" => die_after_epochs = Some(num(flag, value())),
            "--transport" => {
                transport =
                    Some(TransportKind::parse(value()).unwrap_or_else(|e| usage_and_exit(&e)))
            }
            "--capacity" => capacity = Some(num(flag, value())),
            "--handshake-ms" => handshake = Some(Duration::from_millis(num(flag, value()))),
            other => usage_and_exit(&format!("unknown flag {other:?}")),
        }
        i += 2;
    }

    let Some(rank) = rank else { usage_and_exit("--rank is required") };
    if masters == 0 {
        usage_and_exit("--masters must be >= 1");
    }
    if peers.len() < masters + 2 {
        usage_and_exit(
            "--peers needs at least masters + 2 addresses (masters, ≥1 slave, collector)",
        );
    }
    let slaves = peers.len() - masters - 1;
    let mut node = cli_node_config(sql, job, Some(slaves)).unwrap_or_else(|e| usage_and_exit(&e));
    node.masters = masters;
    if let Some(n) = checkpoint_every {
        node.checkpoint_every = n;
    }
    if let Some(n) = die_after_batches {
        if rank < masters || rank + 1 >= peers.len() {
            usage_and_exit("--die-after-batches applies to slave ranks only");
        }
        if n == 0 {
            // The trigger compares after the Nth batch: 0 would mean
            // "never fire", a silently useless chaos config.
            usage_and_exit("--die-after-batches must be >= 1");
        }
        // The chaos kill applies to *this* process: a real crash via
        // process exit, pinned to a protocol point for determinism.
        node.chaos =
            vec![ChaosKill { slave: rank - masters, after_batches: n, exit_process: true }];
    }
    if let Some(n) = die_after_epochs {
        if rank >= masters {
            usage_and_exit("--die-after-epochs applies to master ranks only");
        }
        node.chaos_master = Some(MasterKill { master: rank, after_epochs: n, exit_process: true });
    }

    let mut cfg = ProcessConfig::new(rank, peers, node);
    if let Some(capacity) = capacity {
        cfg.inbox_capacity = capacity;
    }
    if let Some(handshake) = handshake {
        cfg.handshake_timeout = handshake;
    }
    if let Some(transport) = transport {
        cfg.transport = transport;
    }
    if let Err(e) = cfg.validate() {
        usage_and_exit(&e.to_string());
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let role = cfg.node.role_of(cfg.rank);
    eprintln!(
        "windjoin-node rank {} ({role:?}): joining a {}-rank mesh at {}",
        cfg.rank,
        cfg.peers.len(),
        cfg.peers[cfg.rank]
    );
    let outcome = match run_node(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("windjoin-node rank {}: {e}", cfg.rank);
            std::process::exit(1);
        }
    };
    match outcome {
        NodeOutcome::Master(m) => {
            if m.led_shutdown {
                eprintln!(
                    "master done: {} tuples ingested, {} partition moves, final degree {} \
                     (term {}), wire {} B out / {} B in",
                    m.tuples_in, m.moves, m.final_degree, m.term, m.bytes_sent, m.bytes_recvd
                );
                if !m.dead_slaves.is_empty() || !m.loss.is_zero() {
                    // Machine-readable failure accounting (chaos CI greps it).
                    eprintln!(
                        "master loss: dead_slaves {:?} groups_lost {} tuples_lost {}",
                        m.dead_slaves, m.loss.groups_lost, m.loss.tuples_lost
                    );
                }
            } else {
                // A standby that never led (or a deposed leader) defers
                // the run's accounting to whoever led the shutdown.
                eprintln!("standby master done at term {}", m.term);
            }
        }
        NodeOutcome::Slave(s) => {
            eprintln!(
                "slave done: {} comparisons, cpu {:.1} ms, comm {:.1} ms, wire {} B out / {} B in",
                s.work.comparisons,
                s.cpu_us as f64 / 1e3,
                s.comm_us as f64 / 1e3,
                s.work.bytes_sent,
                s.work.bytes_recvd
            );
        }
        NodeOutcome::Collector(c) => {
            eprintln!(
                "collector done: {} outputs, mean delay {:.1} ms, wire {} B out / {} B in",
                c.outputs_total,
                c.delay.mean_delay_s() * 1e3,
                c.bytes_sent,
                c.bytes_recvd
            );
            // Machine-readable summary (consumed by tests and scripts).
            println!("outputs_total {}", c.outputs_total);
            println!("checksum {:016x}", c.checksum);
            // Empty unless the job captures outputs (`sink = capture`).
            for p in &c.captured {
                println!("pair {} {} {} {} {}", p.key, p.left.0, p.left.1, p.right.0, p.right.1);
            }
        }
    }
}
