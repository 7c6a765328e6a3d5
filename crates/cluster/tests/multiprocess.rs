//! The shared-nothing acceptance test: a full cluster of **separate OS
//! processes** (1 master + 2 slaves + 1 collector, each a spawned
//! `windjoin-node` binary talking TCP over 127.0.0.1) must emit join
//! results identical to the in-process threaded runtime on the same
//! seeded workload — and therefore to the `reference_join` oracle.

use std::process::Command;
use windjoin_cluster::{run_threaded, sql::spec_from_sql};

/// The one job description: every rank parses it, and the in-process
/// run below compiles the same text, so the two cannot drift apart.
const QUERY: &str = "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 2s WITH (slaves = 2, \
                     rate = 300, run = 3s, warmup = 500ms, seed = 42, keys = uniform(500), \
                     sink = capture)";

#[test]
fn multiprocess_cluster_matches_threaded_runtime_and_oracle() {
    // `windjoin-launch` reserves ports by binding port 0, hands the
    // assigned addresses to every rank and retries the narrow
    // bind-then-release race itself.
    let cfg = spec_from_sql(QUERY).expect("valid query").to_node_config().expect("node config");
    let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--ranks", &cfg.ranks().to_string()])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .arg("--")
        .args(["--sql", QUERY])
        .args(["--handshake-ms", "10000"])
        .output()
        .expect("run windjoin-launch");
    assert!(
        out.status.success(),
        "cluster launch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let mut outputs_total: Option<u64> = None;
    let mut checksum: Option<u64> = None;
    let mut pairs: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("outputs_total") => outputs_total = Some(it.next().unwrap().parse().unwrap()),
            Some("checksum") => {
                checksum = Some(u64::from_str_radix(it.next().unwrap(), 16).unwrap())
            }
            Some("pair") => {
                let mut next = || it.next().unwrap().parse::<u64>().unwrap();
                pairs.push((next(), next(), next(), next(), next()));
            }
            _ => {}
        }
    }
    let outputs_total = outputs_total.expect("collector printed outputs_total");
    let checksum = checksum.expect("collector printed checksum");
    assert!(outputs_total > 0, "multi-process cluster produced nothing");
    assert_eq!(pairs.len() as u64, outputs_total);

    // The same seeded workload inside one process over channels.
    let report = run_threaded(&cfg);
    let mut expected: Vec<(u64, u64, u64, u64, u64)> =
        report.captured.iter().map(|p| (p.key, p.left.0, p.left.1, p.right.0, p.right.1)).collect();
    expected.sort_unstable();
    pairs.sort_unstable();

    assert_eq!(outputs_total, report.outputs_total, "output counts diverge");
    assert_eq!(checksum, report.output_checksum, "checksums diverge");
    assert_eq!(pairs, expected, "multi-process outputs != threaded outputs");
}

/// `windjoin-node` takes its job as `--sql` or `--job`, never both; a
/// bad query fails with a caret under the offending byte; and the
/// slave count a `--peers` list implies overrides the query's own.
#[test]
fn node_cli_takes_one_job_description() {
    let node = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_windjoin-node"))
            .args(["--rank", "0", "--peers", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"])
            .args(args)
            .output()
            .expect("run windjoin-node")
    };
    let out = node(&["--sql", QUERY, "--job", "job.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    let bad = "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 2s WITH (rate = fast)";
    let out = node(&["--sql", bad]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let caret = format!("  {}^", " ".repeat(bad.find("rate").unwrap()));
    assert!(stderr.contains("SQL error at byte"), "{stderr}");
    assert!(stderr.lines().any(|l| l == format!("  {bad}")), "{stderr}");
    assert!(stderr.lines().any(|l| l == caret), "{stderr}");

    // Five ranks imply three slaves; the query asks for one. Without the
    // override every rank would refuse the topology and the launch fail.
    let small = "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 1s WITH (slaves = 1, \
                 rate = 200, run = 1s, warmup = 200ms, seed = 5)";
    let logs = std::env::temp_dir().join(format!("windjoin-peers-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--ranks", "5", "--log-dir", logs.to_str().unwrap()])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .args(["--", "--sql", small, "--handshake-ms", "10000"])
        .output()
        .expect("run windjoin-launch");
    assert!(out.status.success(), "launch failed:\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("outputs_total "));
    for rank in 0..5 {
        let log = std::fs::read_to_string(logs.join(format!("rank{rank}.log"))).unwrap();
        assert!(log.contains("--peers implies 3 slave(s); overriding the job's 1"), "{log}");
    }
    let _ = std::fs::remove_dir_all(&logs);
}
