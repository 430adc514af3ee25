//! The benchmark's own checks: same-seed runs repeat every metric that
//! is neither wall time nor a microsecond timing, the seed drives the
//! operation stream, and the metric names match `BENCHMARK.json`.

use std::sync::{Mutex, MutexGuard};

use unistore_perfbench::{run, OpStream, Report, RunConfig, Scale, Workload};
use unistore_workload::PubWorld;

/// `alloc.per_op` reads process-wide allocation counters, so no two
/// tests of this file may run at once.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        // The phase never stops before its counted rounds, so a tiny
        // budget runs exactly those.
        seconds: 0.001,
        trace,
        scale: Scale::tiny(workload),
    }
}

fn deterministic(r: &Report) -> Vec<(String, f64)> {
    r.metrics.iter().filter(|m| m.deterministic()).map(|m| (m.name.clone(), m.value)).collect()
}

#[test]
fn same_seed_repeats_every_deterministic_metric() {
    let _serial = serial();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let a = run(&config(workload, 5, trace));
            let b = run(&config(workload, 5, trace));
            let name = workload.name();
            assert!(a.correct && b.correct, "{name}: answers differ from the oracle");
            assert_eq!((a.failed, b.failed), (0, 0), "{name}: failed operations");
            assert_eq!(a.attempted, b.attempted, "{name}: attempted differs");
            let (da, db) = (deterministic(&a), deterministic(&b));
            assert!(da.len() >= 8, "{name} trace={trace}: too few deterministic metrics");
            assert_eq!(da, db, "{name} trace={trace}: same seed, different values");
        }
    }
}

#[test]
fn seed_drives_the_operation_stream() {
    let _serial = serial();
    for workload in Workload::ALL {
        let scale = Scale::tiny(workload);
        let world = PubWorld::generate(&scale.world, 1);
        let ops =
            |seed| format!("{:?}", OpStream::new(workload, &world, scale.peers, seed).take(64));
        assert_eq!(ops(1), ops(1), "{}: same seed, different ops", workload.name());
        assert_ne!(ops(1), ops(2), "{}: seed does not change the ops", workload.name());
    }
}

#[test]
fn metric_names_match_the_benchmark_file() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(spec) = std::fs::read_to_string(path) else {
        panic!("{path} is missing");
    };
    let mut reported = 0;
    for trace in [false, true] {
        let report = run(&config(Workload::PointReads, 3, trace));
        for m in &report.metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "{entry} is not listed in BENCHMARK.json");
        }
        reported += report.metrics.len();
    }
    assert_eq!(spec.matches("\"unit\"").count(), reported, "BENCHMARK.json lists other metrics");
}
