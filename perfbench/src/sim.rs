//! `cached_rw_sim`: the full protocol engine in the deterministic
//! simulator, the only path through the client block cache, batching
//! lanes, WAL group commit, shard routing, SAN disks and the offline
//! checker.
//!
//! Shape: 8 clients × 4 processes, 2 shards, batch cap 8, lazy release
//! on, Zipf(1) over 64 files × 8 blocks, 90 % reads and 20 % stats with
//! 4 KiB I/O, a 128-block cache per client (a quarter of the working
//! set), τ = 2 s, ε = 0.01, default LAN and SAN. Each repetition runs the
//! same seed for [`SIM_SECS`] simulated seconds, so the modeled numbers
//! repeat exactly and the wall-clock numbers are samples of one piece of
//! work.

// Mutating a default-built config is the repository's configuration
// idiom (plain structs with public fields).
#![allow(clippy::field_reassign_with_default)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_consistency::{Event, HbReport};
use tank_core::LeaseConfig;
use tank_meta::{WalRecord, WalStats};
use tank_obs::{names, Registry};
use tank_proto::ServerId;
use tank_sim::{LocalNs, SimTime};

use crate::report::{Check, Report};
use crate::stats;
use crate::trace::Tracer;

const CLIENTS: usize = 8;
const PROCS: usize = 4;
const SHARDS: u16 = 2;
const FILES: usize = 64;
const BLOCKS: u32 = 8;
const BLOCK: usize = 4096;
const CACHE_BLOCKS: usize = 128;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: u64 = 25;
/// Simulated seconds of workload per repetition (before `settle`).
pub const SIM_SECS: u64 = 200;

fn config(obs: Option<Arc<Registry>>, record_hb: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = CLIENTS;
    cfg.gen_concurrency = PROCS;
    cfg.shards = SHARDS;
    cfg.files = FILES;
    cfg.file_blocks = BLOCKS;
    cfg.block_size = BLOCK;
    cfg.batch_cap = 8;
    cfg.lazy_release = true;
    cfg.cache_capacity = CACHE_BLOCKS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.record_hb = record_hb;
    cfg.obs = obs;
    cfg
}

fn mix() -> Mix {
    Mix {
        read_frac: 0.9,
        meta_frac: 0.2,
        io_size: BLOCK as u32,
        max_offset: BLOCKS as u64 * BLOCK as u64,
        ..Mix::default()
    }
}

/// Set up a cluster for `seed`: `Cluster::build` plus one workload per
/// client. This is what `setup_s` times.
fn build(seed: u64, obs: Option<Arc<Registry>>, record_hb: bool) -> Cluster {
    let mut cluster = Cluster::build(config(obs, record_hb), seed);
    for c in 0..CLIENTS {
        cluster.attach_workload(c, Box::new(ZipfGen::new(FILES, 1.0, mix())));
    }
    cluster
}

/// One repetition's measurements.
struct Rep {
    /// Wall seconds of `run_until` + `settle` (the engine, checker
    /// excluded).
    run_s: f64,
    /// CPU seconds of the same span.
    cpu_s: f64,
    /// Wall seconds of the offline checker (`finish`).
    check_s: f64,
    report: RunReport,
    /// Modeled (virtual-time) latencies of completed ops, µs.
    op_latency_us: Vec<f64>,
    wal: WalStats,
    /// Records left in the shards' durable logs at the end.
    wal_tail: Vec<WalRecord>,
    /// Framed bytes of `wal_tail`.
    wal_tail_bytes: usize,
    hb: Option<(HbReport, f64)>,
}

fn run_rep(
    seed: u64,
    sim_secs: u64,
    obs: Option<Arc<Registry>>,
    tracer: Option<&mut Tracer>,
    rep: u64,
) -> Rep {
    let t0 = Instant::now();
    let mut cluster = build(seed, obs, tracer.is_some());
    let t1 = Instant::now();
    let cpu1 = crate::sys::thread_cpu_ns();
    cluster.run_until(SimTime::from_secs(sim_secs));
    let t2 = Instant::now();
    cluster.settle();
    let cpu3 = crate::sys::thread_cpu_ns();
    let t3 = Instant::now();
    let report = cluster.finish();
    let t4 = Instant::now();
    let mut hb = None;
    if let Some(tr) = tracer {
        let root = tr.record("sim.rep", rep, t0, t4, None);
        tr.record("sim.build", rep, t0, t1, Some(root));
        tr.record("sim.run_until", rep, t1, t2, Some(root));
        tr.record("sim.settle", rep, t2, t3, Some(root));
        tr.record("sim.finish", rep, t3, t4, Some(root));
        let h0 = Instant::now();
        let audit = cluster.hb_audit();
        let h1 = Instant::now();
        tr.record("sim.hb_audit", rep, h0, h1, None);
        hb = Some((audit, (h1 - h0).as_secs_f64()));
    }
    let mut wal = WalStats::default();
    let mut wal_tail = Vec::new();
    let mut wal_tail_bytes = 0;
    for sid in 0..SHARDS {
        let node = cluster.server_node_of(ServerId(sid));
        let s = node.wal_stats();
        wal.appends += s.appends;
        wal.fsyncs += s.fsyncs;
        wal.compactions += s.compactions;
        let scan = tank_meta::wal::scan(node.wal().durable_delta(0));
        wal_tail_bytes += scan.valid_len;
        wal_tail.extend(scan.records);
    }
    Rep {
        run_s: (t3 - t1).as_secs_f64(),
        cpu_s: (cpu3 - cpu1) as f64 / 1e9,
        check_s: (t4 - t3).as_secs_f64(),
        op_latency_us: op_latencies_us(&cluster),
        report,
        wal,
        wal_tail,
        wal_tail_bytes,
        hb,
    }
}

/// Virtual-time latency of every completed op, from its submission to
/// its completion, µs.
fn op_latencies_us(cluster: &Cluster) -> Vec<f64> {
    let mut open = HashMap::new();
    let mut out = Vec::new();
    for (t, node, ev) in cluster.world.observations() {
        match ev {
            Event::OpSubmitted { op, .. } => {
                open.insert((*node, *op), t.0);
            }
            Event::OpCompleted { op, .. } => {
                if let Some(t0) = open.remove(&(*node, *op)) {
                    out.push((t.0 - t0) as f64 / 1_000.0);
                }
            }
            _ => {}
        }
    }
    out
}

fn violations(r: &RunReport) -> usize {
    let c = &r.check;
    c.lost_updates.len()
        + c.stale_reads.len()
        + c.write_order_violations.len()
        + c.early_grants.len()
        + c.cross_shard.len()
        + c.batch_atomicity.len()
        + c.coherence.len()
}

/// The seed of repetition `i` of a run with seed `seed`.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

/// Run `cached_rw_sim` and report it. An untraced run makes one
/// untimed warm-up repetition (the first touch of the engine's few
/// hundred MB costs page faults later repetitions do not pay), then
/// repetitions on distinct seeds derived from `seed`, as many as
/// `budget` is long in 1.5 s steps (at least 3), each `sim_secs`
/// simulated seconds. Per-repetition values are reported as medians.
pub fn run(
    seed: u64,
    sim_secs: u64,
    budget: Duration,
    traced: bool,
    out: &mut Report,
    check: &mut Check,
) {
    if traced {
        return run_traced(sub_seed(seed, 0), sim_secs, out, check);
    }
    // Set-up is cheap next to a repetition: time it on its own, many
    // times, so its median is steady.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|i| {
            let t0 = Instant::now();
            let cluster = build(sub_seed(seed, i), None, false);
            let t = t0.elapsed().as_secs_f64();
            drop(cluster);
            t
        })
        .collect();
    let count = (budget.as_secs_f64() / 1.5).max(3.0) as u64;
    let mut checked = |rep: Rep| {
        let v = violations(&rep.report);
        check.require(
            v == 0,
            format!(
                "cached_rw_sim seed {}: the offline checker found {v} violations",
                rep.report.seed
            ),
        );
        rep
    };
    checked(run_rep(sub_seed(seed, 0), sim_secs, None, None, 0));
    let reps: Vec<Rep> = (1..=count)
        .map(|i| checked(run_rep(sub_seed(seed, i), sim_secs, None, None, i)))
        .collect();
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let totals: Vec<_> = reps.iter().map(|x| x.report.client_totals()).collect();
    let submitted: u64 = totals.iter().map(|t| t.submitted).sum();
    // Every submitted op that did not complete is a failure: refused
    // while quiesced, failed with an error, or still outstanding.
    let failed: u64 = totals.iter().map(|t| t.submitted - t.completed).sum();
    out.attempted = submitted;
    out.failed = failed;
    let n = reps.len();
    let lat = |q: f64| med(&|x: &Rep| stats::quantile(&stats::sorted(&x.op_latency_us), q));
    let completed = |x: &Rep| x.report.client_totals().completed as f64;
    let samples: usize = reps.iter().map(|x| x.op_latency_us.len()).sum();

    out.e2e("setup_s", "s", stats::median(&setups), setups.len());
    out.e2e("peak_rss_mb", "MB", crate::sys::peak_rss_mb(), 1);
    out.e2e("p50_us", "us", lat(0.5), samples);
    out.row("p90_us", "us", lat(0.9), samples);
    out.e2e(
        "ops_per_cpu_s",
        "1/s",
        med(&|x: &Rep| completed(x) / x.cpu_s),
        n,
    );
    out.row("p99_us", "us", lat(0.99), samples);
    out.row(
        "fail_frac",
        "ratio",
        failed as f64 / submitted as f64,
        submitted as usize,
    );
    out.row(
        "sim_ops_per_s(modeled)",
        "1/s",
        med(&|x: &Rep| completed(x) / (x.report.end.0 as f64 / 1e9)),
        n,
    );
    out.row(
        "sim_wall_ops_per_s",
        "1/s",
        med(&|x: &Rep| completed(x) / x.run_s),
        n,
    );
    for (name, v) in [
        (
            "client.denied",
            totals.iter().map(|t| t.denied).sum::<u64>(),
        ),
        ("client.failed", totals.iter().map(|t| t.failed).sum()),
        (
            "client.stuck",
            totals
                .iter()
                .map(|t| t.submitted - t.completed - t.denied - t.failed)
                .sum(),
        ),
    ] {
        out.row(name, "count", v as f64, submitted as usize);
    }
    out.note(&format!(
        "{n} repetitions of {sim_secs} simulated s on seeds derived from {seed}, after one warm-up"
    ));
    out.note(
        "p50_us, p90_us, p99_us and sim_ops_per_s are modeled: virtual-time ops in the simulator",
    );
    out.note("ops_per_cpu_s and sim_wall_ops_per_s are measured: the engine's run_until + settle, checker excluded");
}

/// The traced run: one seed, run untraced twice (warm-up, then the
/// baseline for the tracing overhead) and once traced with the metric
/// registry and the causal log on, followed by the hb audit.
fn run_traced(seed: u64, sim_secs: u64, out: &mut Report, check: &mut Check) {
    run_rep(seed, sim_secs, None, None, 0);
    let base = run_rep(seed, sim_secs, None, None, 1);
    let reg = Arc::new(Registry::new());
    let mut tracer = Tracer::new(Instant::now());
    let tr = run_rep(seed, sim_secs, Some(reg.clone()), Some(&mut tracer), 2);
    let (hb, hb_s) = tr.hb.as_ref().expect("traced repetition audits");
    check.require(
        hb.racy.is_empty(),
        format!(
            "cached_rw_sim seed {seed}: hb_audit found {} racy pairs",
            hb.racy.len()
        ),
    );
    check.require(
        violations(&tr.report) == 0,
        format!("cached_rw_sim seed {seed}: the offline checker found violations"),
    );
    let r = &tr.report;
    let t = r.client_totals();
    let stuck = t.submitted - t.completed - t.denied - t.failed;
    out.attempted = t.submitted;
    out.failed = t.submitted - t.completed;
    let run_s = base.run_s;
    let snap = reg.snapshot();
    let ops = t.completed.max(1) as f64;
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let headroom_ns = snap
        .histogram(names::CLIENT_RENEWAL_HEADROOM_NS.name)
        .and_then(|h| h.quantile(0.5))
        .unwrap_or(0) as f64;
    let mean_frame = tr.wal_tail_bytes as f64 / tr.wal_tail.len().max(1) as f64;
    out.layer("bench.trace_overhead_frac", tr.run_s / run_s - 1.0);
    out.layer("core.authority_bytes", r.authority_memory_bytes as f64);
    out.layer(
        "server.revoke_share",
        r.msg.demands as f64 / counter(names::SERVER_LOCK_GRANTED.name).max(1.0),
    );
    out.layer("meta.wal.appends_per_op", tr.wal.appends as f64 / ops);
    out.layer("meta.wal.fsyncs_per_op", tr.wal.fsyncs as f64 / ops);
    out.layer(
        "meta.wal.bytes_per_op",
        tr.wal.appends as f64 * mean_frame / ops,
    );
    out.layer(
        "meta.wal.append_ns",
        crate::replay::wal_append_ns(&tr.wal_tail),
    );
    out.layer("meta.snapshot.compactions", tr.wal.compactions as f64);
    out.layer(
        "client.cache.hit_ratio",
        t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
    );
    out.layer(
        "client.cache.evictions_per_op",
        t.cache_evictions as f64 / ops,
    );
    out.layer("client.ctl_msgs_per_op", r.msg.ctl_sent as f64 / ops);
    out.layer(
        "client.batch.size_mean",
        snap.histogram(names::CLIENT_BATCH_SIZE.name)
            .map_or(0.0, |h| h.mean()),
    );
    out.layer("client.retransmits_per_op", t.retransmits as f64 / ops);
    out.layer("client.denied_frac", t.denied as f64 / t.submitted as f64);
    out.layer("client.failed_frac", t.failed as f64 / t.submitted as f64);
    out.layer("client.stuck_ops", stuck as f64);
    out.layer("client.renewal_headroom_p50_ms", headroom_ns / 1e6);
    out.layer("storage.san_msgs_per_op", r.msg.san_sent as f64 / ops);
    out.layer("sim.run_wall_s", run_s);
    out.layer(
        "sim.msgs_per_op",
        (r.msg.ctl_sent + r.msg.san_sent) as f64 / ops,
    );
    out.layer(
        "shard.misrouted",
        counter(names::SERVER_NACK_MISROUTED.name),
    );
    out.layer("consistency.check_s", base.check_s);
    out.layer("consistency.hb_audit_s", *hb_s);
    out.layer("consistency.hb.events", hb.records as f64);
    // The rep span is tiled by its phases, so the ledger's remainder is
    // only the gaps between them.
    let rep_us = tracer
        .spans()
        .iter()
        .find(|s| s.name == "sim.rep")
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1_000.0);
    let phases_us: f64 = tracer
        .self_us_per_id_by_name()
        .iter()
        .filter(|(name, _)| !["sim.rep", "sim.hb_audit"].contains(name))
        .map(|(_, v)| stats::median(v))
        .sum();
    out.layer("unattributed_us", rep_us - phases_us);
    out.trace = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op stream a seed produces: (time, client, op kind) of every
    /// submission over a short run.
    fn ops_of(seed: u64) -> Vec<u8> {
        let mut cluster = build(seed, None, false);
        cluster.run_until(SimTime::from_secs(3));
        let mut out = Vec::new();
        for (t, node, ev) in cluster.world.observations() {
            if let Event::OpSubmitted { kind, .. } = ev {
                out.extend_from_slice(&t.0.to_le_bytes());
                out.extend_from_slice(&node.0.to_le_bytes());
                out.extend_from_slice(kind.as_bytes());
            }
        }
        out
    }

    #[test]
    fn the_op_stream_is_byte_identical_per_seed_and_differs_across_seeds() {
        let a = ops_of(7);
        assert!(!a.is_empty());
        assert_eq!(a, ops_of(7));
        assert_ne!(a, ops_of(8));
    }

    #[test]
    fn smoke_run_finishes_in_seconds() {
        let t0 = Instant::now();
        for traced in [false, true] {
            let mut out = Report::new("cached_rw_sim");
            let mut check = Check::default();
            run(11, 10, Duration::from_secs(1), traced, &mut out, &mut check);
            assert!(check.failures().is_empty(), "{:?}", check.failures());
            assert!(out.attempted > 0);
            let line = out.json_line(traced);
            assert!(line.contains(if traced {
                "client.cache.hit_ratio"
            } else {
                "ops_per_cpu_s"
            }));
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
    }
}
