//! Metric records and the result line.

use std::fmt::Write;

/// How a metric is measured, which decides whether it repeats exactly
/// at a fixed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock time on the machine running the benchmark.
    Wall,
    /// Simulated time inside the network simulator (deterministic).
    Sim,
    /// A count or ratio of counts (deterministic).
    Count,
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How it was measured.
    pub kind: Kind,
}

impl Metric {
    /// A metric record.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, kind: Kind) -> Metric {
        Metric { name: name.into(), unit, value, kind }
    }

    /// Whether the value repeats exactly for a fixed seed: neither wall
    /// time nor a microsecond timing.
    pub fn deterministic(&self) -> bool {
        self.kind != Kind::Wall && !self.name.ends_with("_us")
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values are written as 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let m = [
            Metric::new("a.b_ms", "ms", 1.25, Kind::Sim),
            Metric::new("c", "1/s", f64::NAN, Kind::Wall),
        ];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn wall_and_microsecond_metrics_are_not_deterministic() {
        assert!(Metric::new("x.p50_ms", "ms", 1.0, Kind::Sim).deterministic());
        assert!(!Metric::new("x.ops_per_s", "1/s", 1.0, Kind::Wall).deterministic());
        assert!(!Metric::new("x.vql.parse_us", "us", 1.0, Kind::Count).deterministic());
    }
}
