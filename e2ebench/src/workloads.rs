//! The named workloads: one constant-rate `JobSpec` each.

use windjoin_cluster::{JobSpec, Runtime, SourceSpec};
use windjoin_core::Params;
use windjoin_gen::{KeyDist, RateSchedule};

/// Every workload runs two slaves, one master and one collector.
pub const SLAVES: usize = 2;

/// The names `--workload` accepts.
///
/// * `paper-bmodel` — the paper's key distribution, about 17 outputs per
///   input: slave probe and emission take most of the CPU, the collector
///   about a tenth, the master a few percent. Probe and output-path
///   changes show here.
/// * `ingest-uniform` — about 0.014 outputs per input, so the output
///   path and collector idle; the master's ingest, route and encode take
///   a quarter of the CPU and ship four times as many batch frames.
///   Master, codec and transport changes show here, and output-path
///   changes must not.
pub const NAMES: [&str; 2] = ["paper-bmodel", "ingest-uniform"];

/// `JobSpec::demo`'s shape: 5 s windows, 200 ms distribution epochs,
/// 2 s reorganisation epochs, 16 partitions, b-model keys.
fn bmodel_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::demo(SLAVES);
    spec.runtime = Runtime::Tcp;
    spec.seed = seed;
    spec.params.probe_threads = 1;
    spec.source = SourceSpec::Synthetic {
        rate: RateSchedule::constant(30_000.0),
        keys: KeyDist::BModel { bias: 0.7, domain: 100_000 },
    };
    spec
}

/// Table I's partitioning (60 partitions) with 100 ms windows and
/// 50 ms distribution epochs over uniform keys.
fn uniform_spec(seed: u64) -> JobSpec {
    let mut params = Params::default_paper().with_dist_epoch_us(50_000);
    params.sem.w_left_us = 100_000;
    params.sem.w_right_us = 100_000;
    params.reorg_epoch_us = 2_000_000;
    params.probe_threads = 1;
    let mut spec = bmodel_spec(seed);
    spec.params = params;
    spec.source = SourceSpec::Synthetic {
        rate: RateSchedule::constant(150_000.0),
        keys: KeyDist::Uniform { domain: 1_000_000 },
    };
    spec
}

/// Builds workload `name`: a warm-up that fills the windows, then
/// `seconds` measured at the same rate.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<JobSpec> {
    let (mut spec, warmup_us) = match name {
        "paper-bmodel" => (bmodel_spec(seed), 5_000_000),
        "ingest-uniform" => (uniform_spec(seed), 1_000_000),
        _ => return None,
    };
    spec.warmup_us = warmup_us;
    spec.run_us = warmup_us + seconds * 1_000_000;
    Some(spec)
}

/// The nominal per-stream rate of a workload's source, tuples/s.
pub fn nominal_rate(spec: &JobSpec) -> f64 {
    match &spec.source {
        SourceSpec::Synthetic { rate, .. } => rate.rate_at(0),
        _ => unreachable!("every workload uses the synthetic source"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_a_valid_spec() {
        for name in NAMES {
            let spec = build(name, 7, 10).expect(name);
            spec.to_node_config().expect("valid node config");
            assert_eq!(spec.seed, 7);
            assert_eq!(spec.run_us, spec.warmup_us + 10_000_000);
        }
        assert!(build("nope", 1, 10).is_none());
    }
}
