//! Metric names, the result line, and the host fingerprint.

use std::process::Command;

/// End-to-end metrics, reported by every untraced run (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("get_p50_us", "us"),
    ("set_p50_us", "us"),
    ("sim_mops", "Mops"),
    ("peak_rss_mb", "MiB"),
];

/// The latency percentiles every workload measures.
pub const PCTS: [f64; 3] = [50.0, 90.0, 99.0];

/// Where each of GET p50, p90, p99 and SET p50, p90, p99 is reported.
/// The medians are end-to-end metrics; the tails are per-layer ones,
/// which carry no bound: on a shared host, stalls of the host move them
/// between runs by more than any bound could allow (see NOTES.md).
const LATENCY: [&str; 6] = [
    "get_p50_us",
    "client.get_p90_us",
    "client.get_p99_us",
    "set_p50_us",
    "client.set_p90_us",
    "client.set_p99_us",
];

/// Records GET p50, p90, p99 and SET p50, p90, p99 (µs).
pub fn set_latencies(out: &mut Outcome, lat: [f64; 6]) {
    for (name, v) in LATENCY.into_iter().zip(lat) {
        if name.starts_with("client.") {
            out.layers.set(name, v);
        } else {
            out.e2e.set(name, v);
        }
    }
}

/// Per-layer metrics, reported by every traced run (name, unit). A layer
/// that a workload does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.parse_ns_per_frame", "ns"),
    ("server.encode_ns_per_reply", "ns"),
    ("server.residual_us_per_op", "us"),
    ("server.bytes_in_per_op", "B"),
    ("server.bytes_out_per_op", "B"),
    ("server.errors", "count"),
    ("core.execute_ns_per_get", "ns"),
    ("core.execute_ns_per_put", "ns"),
    ("core.failed", "count"),
    ("system.run_ns_per_op", "ns"),
    ("system.timing_ns_per_op", "ns"),
    ("parallel.stage_ns_per_op", "ns"),
    ("parallel.drive_ns_per_op", "ns"),
    ("parallel.speedup", "x"),
    ("arbiter.windows", "count"),
    ("arbiter.oversubscribed", "count"),
    ("arbiter.stall_ns", "ns"),
    ("mem.dram_hit_rate", "fraction"),
    ("mem.admitted_fills", "count"),
    ("mem.rejected_fills", "count"),
    ("mem.retune_steps", "count"),
    ("mem.sketch_samples_per_op", "count"),
    ("mem.evict_dirty_per_op", "count"),
    ("pcie.dma_reads_per_op", "count"),
    ("pcie.dma_writes_per_op", "count"),
    ("pcie.tag_stalls", "count"),
    ("hash.mem_accesses_per_get", "count"),
    ("hash.mem_accesses_per_put", "count"),
    ("hash.utilization", "fraction"),
    ("slab.allocs_per_put", "count"),
    ("slab.merges", "count"),
    ("slab.failed_allocs", "count"),
    ("ooo.forward_ratio", "fraction"),
    ("ooo.queued_per_op", "count"),
    ("ooo.high_water", "count"),
    ("net.ops_per_batch", "count"),
    ("net.payload_bytes_per_op", "B"),
    ("client.get_p90_us", "us"),
    ("client.get_p99_us", "us"),
    ("client.set_p90_us", "us"),
    ("client.set_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("workloads.gen_ns_per_op", "ns"),
    ("trace.overhead", "fraction"),
    ("trace.coverage", "fraction"),
];

/// Named values, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets (or replaces) `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations with a wrong, missing or error result.
    pub failed: u64,
    /// Oracle failures other than per-operation ones (repeat drift,
    /// schedule off target); any entry fails the run.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Adds an informational `name = value unit` line.
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display, unit: &str) {
        self.notes
            .push(format!("{name} = {value} {unit}").trim_end().to_string());
    }
}

/// The result line: one JSON object with the `list` metrics taken from
/// `values` (absent ones read 0).
pub fn result_json(out: &Outcome, values: &Metrics, list: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `host.*` lines: core count, compiler, CPU model.
pub fn host_fingerprint(nproc: usize) -> Vec<String> {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        format!("host.nproc = {nproc}"),
        format!("host.rustc = {rustc}"),
        format!("host.cpu = {cpu}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists match `BENCHMARK.json` at the checkout root, name
    /// for name and unit for unit, in order.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = doc[at..].find(&entry);
            assert!(found.is_some(), "{entry} missing or out of order");
            at += found.unwrap() + entry.len();
        }
        assert_eq!(
            doc.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_has_every_listed_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Default::default()
        };
        out.e2e.set("setup_s", 0.25);
        let line = result_json(&out, &out.e2e, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
