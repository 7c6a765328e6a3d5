//! Multi-process runtime: one OS process per rank over real TCP — the
//! first true shared-nothing deployment of this codebase (the paper
//! runs the same topology over mpiJava/LAM-MPI).
//!
//! Each process calls [`run_node`] with its rank and the shared peer
//! list; the TCP mesh bootstrap blocks until every pairwise connection
//! exists (ranks may start, crash and redial in any order within the
//! handshake window), then the rank's node loop (from [`crate::nodes`])
//! runs exactly as it does inside the threaded runtime — including the
//! failure handling: a killed rank surfaces as a typed `PeerDown` at
//! its peers, the master re-homes its partitions, and the drain
//! completes on the live slaves. The `windjoin-node` binary is a thin
//! CLI over this module (`windjoin-launch` spawns a whole local cluster
//! on kernel-assigned ports) — see the README for launch recipes and
//! the fault-tolerance model.

use crate::api::JobSpec;
use crate::nodes::{self, CollectorOutcome, MasterOutcome, NodeConfig, Role, SlaveOutcome};
use std::net::SocketAddr;
use std::time::Duration;
use windjoin_core::ConfigError;
use windjoin_net::{EventedNetwork, TcpNetwork, TransportEndpoint};

/// Which socket backend carries the mesh (same wire format, same
/// handshake, same protocol semantics — interchangeable mid-fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Thread-per-peer blocking I/O (`TcpNetwork`): `2(n-1)` threads
    /// per rank. The default, because it measured faster and leaner:
    /// on a 2-core host `perfjson --net` delivered 7.8–8.3M tuples/s
    /// per node against `Evented`'s 6.5M at 4 ranks, 4.5–4.6M against
    /// 2.8–2.9M at 8 and 2.1–2.5M against 1.4M at 16 (three runs, the
    /// backends alternating). End to end, on the benchmark's two
    /// workloads over a loopback mesh, production delay matched within
    /// run-to-run noise and peak RSS was lower (89–90 MB against
    /// 105–108 MB on the b-model workload).
    #[default]
    Threaded,
    /// Readiness-driven event loop (`EventedNetwork`): one poller
    /// thread per rank multiplexing all peers. Its thread count stays
    /// constant as ranks grow, where `Threaded` needs `2(n-1)` per rank.
    Evented,
}

impl TransportKind {
    /// Parses the `--transport` CLI spelling.
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "threaded" => Ok(TransportKind::Threaded),
            "evented" => Ok(TransportKind::Evented),
            other => Err(format!("unknown transport '{other}' (expected threaded|evented)")),
        }
    }

    /// The CLI spelling (inverse of [`parse`](Self::parse)).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Threaded => "threaded",
            TransportKind::Evented => "evented",
        }
    }
}

/// Compiles the job a command line names into the configuration every
/// rank runs: `--sql QUERY` or `--job FILE` (at most one of them;
/// neither means the [`JobSpec::demo`] defaults). `mesh_slaves` — the
/// slave count a `--peers` list implies — overrides the job's own
/// `slaves`, with a warning on stderr when they differ. An error is one
/// printable diagnostic; a bad query carries a caret under the
/// offending byte.
pub fn cli_node_config(
    sql: Option<&str>,
    job_file: Option<&str>,
    mesh_slaves: Option<usize>,
) -> Result<NodeConfig, String> {
    let mut spec = match (sql, job_file) {
        (Some(_), Some(_)) => return Err("--sql and --job are mutually exclusive".into()),
        (Some(q), None) => crate::sql::spec_from_sql(q).map_err(|e| e.caret(q))?,
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading --job {path}: {e}"))?;
            JobSpec::from_json(&text).map_err(|e| format!("--job {path}: {e}"))?
        }
        (None, None) => JobSpec::demo(mesh_slaves.unwrap_or(2)),
    };
    if let Some(n) = mesh_slaves.filter(|&n| n != spec.slaves) {
        eprintln!("warning: --peers implies {n} slave(s); overriding the job's {}", spec.slaves);
        spec.slaves = n;
        spec.total_slaves = n;
    }
    spec.to_node_config().map_err(|e| e.to_string())
}

/// One process's slice of a multi-process cluster run.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// This process's rank (`0..m` masters, `m..m+n` slaves, `m+n`
    /// collector).
    pub rank: usize,
    /// Listen address of every rank, indexed by rank. The cluster size
    /// is `peers.len()`; it must equal `node.ranks()`.
    pub peers: Vec<SocketAddr>,
    /// The run itself (same config every rank, same seed).
    pub node: NodeConfig,
    /// Bounded inbox capacity, in frames.
    pub inbox_capacity: usize,
    /// How long to keep dialing peers during the mesh handshake.
    pub handshake_timeout: Duration,
    /// Which socket backend carries the mesh.
    pub transport: TransportKind,
}

impl ProcessConfig {
    /// A config with the runtime defaults (4096-frame inboxes, 30 s
    /// handshake window).
    pub fn new(rank: usize, peers: Vec<SocketAddr>, node: NodeConfig) -> Self {
        ProcessConfig {
            rank,
            peers,
            node,
            inbox_capacity: crate::threadrt::DEFAULT_INBOX_CAPACITY,
            handshake_timeout: Duration::from_secs(30),
            transport: TransportKind::default(),
        }
    }

    /// Consistency checks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.node.params.validate()?;
        if self.node.slaves == 0 {
            return Err(ConfigError::NonPositive { field: "node.slaves" });
        }
        if self.node.masters == 0 {
            return Err(ConfigError::NonPositive { field: "node.masters" });
        }
        if self.peers.len() != self.node.ranks() {
            return Err(ConfigError::Topology {
                why: format!(
                    "{} peers but the topology has {} ranks ({} master(s) + {} slaves + collector)",
                    self.peers.len(),
                    self.node.ranks(),
                    self.node.masters,
                    self.node.slaves
                ),
            });
        }
        if self.rank >= self.peers.len() {
            return Err(ConfigError::Topology { why: format!("rank {} out of range", self.rank) });
        }
        if self.inbox_capacity == 0 {
            return Err(ConfigError::NonPositive { field: "inbox_capacity" });
        }
        Ok(())
    }
}

/// What this process's rank produced.
///
/// Sized by its largest variant (the collector's captured outputs);
/// one value exists per process, so the imbalance is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NodeOutcome {
    /// Rank 0 ran the master.
    Master(MasterOutcome),
    /// A slave rank ran the join module.
    Slave(SlaveOutcome),
    /// The collector gathered the join output.
    Collector(CollectorOutcome),
}

/// Joins the TCP mesh and runs this rank's node loop to completion.
///
/// Blocks through the whole run; every rank of the cluster must call
/// this (in its own process) with the same `peers` and `node` config.
/// Ranks may mix [`TransportKind`]s freely: both backends speak the
/// same wire protocol.
pub fn run_node(cfg: &ProcessConfig) -> std::io::Result<NodeOutcome> {
    cfg.validate().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    match cfg.transport {
        TransportKind::Threaded => {
            let ep = TcpNetwork::establish(
                cfg.rank,
                &cfg.peers,
                cfg.inbox_capacity,
                cfg.handshake_timeout,
            )?;
            Ok(run_role(&ep, cfg))
        }
        TransportKind::Evented => {
            let ep = EventedNetwork::establish(
                cfg.rank,
                &cfg.peers,
                cfg.inbox_capacity,
                cfg.handshake_timeout,
            )?;
            Ok(run_role(&ep, cfg))
        }
    }
}

/// Runs this rank's role over an established endpoint (any backend).
fn run_role<E: TransportEndpoint>(ep: &E, cfg: &ProcessConfig) -> NodeOutcome {
    match cfg.node.role_of(cfg.rank) {
        Role::Master(i) => NodeOutcome::Master(nodes::master_node_at(ep, i, &cfg.node)),
        Role::Slave(i) => NodeOutcome::Slave(nodes::slave_node(ep, i, &cfg.node)),
        Role::Collector => NodeOutcome::Collector(nodes::collector_node(ep, &cfg.node)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_topology_mismatch() {
        let node = NodeConfig::demo(2);
        let peers: Vec<SocketAddr> =
            (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap()).collect();
        let cfg = ProcessConfig::new(0, peers, node); // 2 slaves need 4 ranks
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_accepts_well_formed() {
        let node = NodeConfig::demo(2);
        let peers: Vec<SocketAddr> =
            (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap()).collect();
        assert!(ProcessConfig::new(3, peers, node).validate().is_ok());
    }
}
