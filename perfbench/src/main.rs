//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <point-reads|join-scan|write-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero on bad arguments or when an answer differs from the oracle.
//! A traced run also writes its spans to `out/` next to this package's
//! manifest.

use std::path::Path;
use std::process::ExitCode;

use unistore_perfbench::{result_line, run, RunConfig, Scale, Workload};

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::standard(workload),
    })
}

/// Spans written per backend; the self times cover every span.
const WRITTEN_SPANS: usize = 100_000;

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for line in &report.notes {
        println!("# {line}");
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for (label, tracer) in &report.traces {
        let path = out.join(format!("trace-{}-{label}.csv", cfg.workload.name()));
        match tracer.write_csv(&path, WRITTEN_SPANS) {
            Ok(n) => println!(
                "# {label}: first {n} of {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# {label}: could not write spans: {e}"),
        }
    }
    for m in &report.metrics {
        println!("# {:<34} {:>14.4} {:<8} {:?}", m.name, m.value, m.unit, m.kind);
    }
    println!("{}", result_line(report.correct, report.attempted, report.failed, &report.metrics));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: answers differ from the oracle");
        ExitCode::FAILURE
    }
}
