//! What one workload run produces, and how it is printed: one
//! human-readable row per metric (with unit and sample count) followed
//! by one JSON line holding the metrics `BENCHMARK.json` lists.

use std::fmt::Write as _;

use crate::trace::Tracer;

/// The end-to-end metrics of `BENCHMARK.json`, printed by every
/// untraced run of every workload, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("ops_per_cpu_s", "1/s"),
];

/// The per-layer metrics of `BENCHMARK.json`, printed by every traced
/// run, with their units. A workload whose path does not reach a layer
/// reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.send_lag_p50_us", "us"),
    ("bench.send_lag_p99_us", "us"),
    ("bench.gen_cpu_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("net.server_cpu_us_per_op", "us"),
    ("net.reactor.wakeups_per_op", "count"),
    ("net.reactor.datagrams_per_wakeup", "count"),
    ("net.reactor.worker_queue_depth_p99", "count"),
    ("net.kernel_drops", "count"),
    ("net.server.nacks", "count"),
    ("net.server.replays", "count"),
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.bytes_per_op", "bytes"),
    ("proto.datagrams_per_op", "count"),
    ("server.session_admit_ns", "ns"),
    ("server.lock_request_ns", "ns"),
    ("server.lock_release_ns", "ns"),
    ("server.revoke_share", "ratio"),
    ("server.push_dups", "count"),
    ("core.authority_bytes", "bytes"),
    ("core.on_ack_ns", "ns"),
    ("meta.getattr_ns", "ns"),
    ("meta.lookup_ns", "ns"),
    ("meta.setattr_ns", "ns"),
    ("meta.wal.appends_per_op", "count"),
    ("meta.wal.fsyncs_per_op", "count"),
    ("meta.wal.bytes_per_op", "bytes"),
    ("meta.wal.append_ns", "ns"),
    ("meta.snapshot.compactions", "count"),
    ("client.cache.hit_ratio", "ratio"),
    ("client.cache.evictions_per_op", "count"),
    ("client.ctl_msgs_per_op", "count"),
    ("client.batch.size_mean", "count"),
    ("client.retransmits_per_op", "count"),
    ("client.denied_frac", "ratio"),
    ("client.failed_frac", "ratio"),
    ("client.stuck_ops", "count"),
    ("client.renewal_headroom_p50_ms", "ms"),
    ("storage.san_msgs_per_op", "count"),
    ("sim.run_wall_s", "s"),
    ("sim.msgs_per_op", "count"),
    ("shard.misrouted", "count"),
    ("consistency.check_s", "s"),
    ("consistency.hb_audit_s", "s"),
    ("consistency.hb.events", "count"),
    ("unattributed_us", "us"),
];

/// One printed value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything one workload run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted (requests, cycles or simulated ops).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The end-to-end metrics `BENCHMARK.json` lists.
    e2e: Vec<Metric>,
    /// Further end-to-end rows that only the human-readable table shows.
    rows: Vec<Metric>,
    /// Per-layer values by name.
    layers: Vec<(&'static str, f64)>,
    /// Caveats printed under the table.
    notes: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<Tracer>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            rows: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            trace: None,
        }
    }

    /// Record one of the end-to-end metrics of `BENCHMARK.json` (also
    /// shown as a row).
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.e2e.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Record a table-only end-to-end row.
    pub fn row(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.rows.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Record a per-layer value. `name` must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric of the benchmark"
        );
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    /// Add a caveat line.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// The human-readable block: one line per metric with its unit and
    /// sample count, then the notes.
    pub fn render_rows(&self, traced: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# {} attempted={} failed={} fail_frac={:.6}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        if traced {
            for (name, unit) in PER_LAYER {
                match self.layer_value(name) {
                    Some(v) => {
                        let _ = writeln!(s, "{:<9} {:<36} {:>16.4} {unit}", self.workload, name, v);
                    }
                    None => {
                        let _ = writeln!(
                            s,
                            "{:<9} {:<36} {:>16} (not on this path)",
                            self.workload, name, "-"
                        );
                    }
                }
            }
        } else {
            for m in self.e2e.iter().chain(&self.rows) {
                let _ = writeln!(
                    s,
                    "{:<13} {:<28} {:>16.4} {:<6} n={}",
                    self.workload, m.name, m.value, m.unit, m.samples
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "# note: {n}");
        }
        s
    }

    fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The last line of output: every end-to-end metric (untraced) or
    /// every per-layer metric (traced).
    pub fn json_line(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.layer_value(name).unwrap_or(0.0);
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                ));
            }
        } else {
            for (name, unit) in END_TO_END {
                let m = self
                    .e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{} did not report {name}", self.workload));
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(m.value)
                ));
            }
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// Correctness verdicts gathered during a run. Any failure makes the run
/// exit non-zero without printing metrics.
#[derive(Default)]
pub struct Check {
    failures: Vec<String>,
}

impl Check {
    /// Record a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: String) {
        if !ok {
            self.failures.push(what);
        }
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_carries_every_metric_of_its_kind() {
        let mut r = Report::new("w");
        r.attempted = 10;
        for (name, unit) in END_TO_END {
            r.e2e(name, unit, 1.5, 3);
        }
        r.layer("proto.decode_ns", 80.25);
        let plain = r.json_line(false);
        assert!(plain.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(plain.contains("\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        let traced = r.json_line(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"proto.decode_ns\": {\"value\": 80.25, \"unit\": \"ns\"}"));
    }
}
