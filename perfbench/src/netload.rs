//! The two real-server workloads, `meta_read` and `lock_churn`: set-up,
//! the phases of a run, and what each phase contributes to the report.
//!
//! Load shape: one generator thread over two client sockets (the
//! machine's CPU count when the benchmark was written), against an
//! in-process one-shard `LeaseServer` with its default threads (one
//! reactor, two workers) and `service = 0`, so only the program's own
//! CPU cost is measured.
//!
//! An untraced run spends its time budget on three phases, in order:
//!
//! 1. the *nominal* rate, long, for `p50_us` / `p99_us`;
//! 2. a *ladder* of rising rates for `capacity_rps`: the highest rate
//!    whose p99 ≤ 10 ms, failures ≤ 0.1 % and whose last quarter
//!    completes ≥ 99 % of what it offered (no growing backlog). The
//!    ladder stops at the first rate that misses;
//! 3. a fixed *overload* rate for `overload_goodput_rps`.
//!
//! A traced run measures the nominal rate twice, untraced then traced,
//! and replays the traced phase's datagrams through the layers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_net::server::{NetServerConfig, NetServerStats};
use tank_net::{LeaseServer, ServerHandle};
use tank_obs::{names, Registry};

use crate::netgen::{schedule, Capture, Gen, OpKind, PhaseOut};
use crate::report::{Check, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::{replay, sys};

/// Client sockets of the generator.
const CLIENTS: u8 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Length of the traced phase: long enough that one host stall does not
/// decide its medians, short enough that the span file stays in the tens
/// of megabytes.
const TRACED_WINDOW: Duration = Duration::from_secs(1);
/// Window of the windowed quantiles, ns.
const WINDOW_NS: u64 = crate::netgen::MARK_EVERY_NS;
/// p99 limit of a capacity point, µs.
const P99_LIMIT_US: f64 = 10_000.0;
/// Failure limit of a capacity point.
const FAIL_LIMIT: f64 = 0.001;
/// A point is harness-bound when its send-lag p99 exceeds this share of
/// its latency p99.
const LAG_SHARE: f64 = 0.10;
/// A capacity or overload point is generator-bound when the generator
/// was busy (sending or receiving, not polling) above this share of it.
const GEN_BUSY_LIMIT: f64 = 0.90;
/// Server socket receive buffer, as the repository's capacity experiment
/// (E19) sets it: a reactor stall of a few milliseconds then shows as
/// latency instead of kernel drops.
const RECV_BUF: usize = 8 << 20;

/// A real-server workload.
pub struct NetWorkload {
    /// Name.
    pub name: &'static str,
    /// Files created at set-up.
    pub files: usize,
    /// Nominal rate, ops/s.
    pub nominal: f64,
    /// Capacity ladder, ops/s, rising.
    pub ladder: &'static [f64],
    /// Fixed overload rate, ops/s.
    pub overload: f64,
    /// Draws an op's kind.
    pub pick: fn(&mut ChaCha8Rng) -> OpKind,
}

fn meta_pick(rng: &mut ChaCha8Rng) -> OpKind {
    if rng.random_range(0..10u32) == 0 {
        OpKind::Lookup
    } else {
        OpKind::GetAttr
    }
}

fn lock_pick(rng: &mut ChaCha8Rng) -> OpKind {
    if rng.random_bool(0.5) {
        OpKind::SharedCycle
    } else {
        OpKind::ExclusiveCycle
    }
}

/// `meta_read`: GetAttr:Lookup 9:1 over 512 files, Zipf(1).
pub const META_READ: NetWorkload = NetWorkload {
    name: "meta_read",
    files: 512,
    nominal: 40_000.0,
    ladder: &[
        40_000.0, 60_000.0, 80_000.0, 90_000.0, 100_000.0, 110_000.0, 120_000.0, 130_000.0,
        140_000.0,
    ],
    overload: 150_000.0,
    pick: meta_pick,
};

/// `lock_churn`: SharedRead and Exclusive lock cycles, half each, over
/// 16 hot files, Zipf(1).
pub const LOCK_CHURN: NetWorkload = NetWorkload {
    name: "lock_churn",
    files: 16,
    nominal: 6_000.0,
    ladder: &[
        6_000.0, 11_000.0, 14_000.0, 17_000.0, 20_000.0, 22_000.0, 24_000.0, 26_000.0, 28_000.0,
        30_000.0, 33_000.0,
    ],
    overload: 33_000.0,
    pick: lock_pick,
};

/// A running server and the generator attached to it.
struct Rig {
    server: ServerHandle,
    gen: Gen,
}

impl Rig {
    fn stop(self) -> NetServerStats {
        self.server.stop()
    }
}

/// Which CPUs the server's threads and the generator thread run on:
/// the generator polls, so it gets a CPU of its own (the last one this
/// process may use) and the server gets the rest. With a single CPU
/// both share it.
struct Cpus {
    server: Vec<usize>,
    gen: Vec<usize>,
}

impl Cpus {
    fn split() -> Cpus {
        let mut all = sys::allowed_cpus();
        match all.pop() {
            Some(last) if !all.is_empty() => Cpus {
                server: all,
                gen: vec![last],
            },
            Some(only) => Cpus {
                server: vec![only],
                gen: vec![only],
            },
            None => Cpus {
                server: Vec::new(),
                gen: Vec::new(),
            },
        }
    }
}

/// Spawn a server and set the workload up on it: files, sockets,
/// sessions. The server's threads inherit the server CPUs; the calling
/// thread moves to the generator's CPU afterwards.
fn setup(w: &NetWorkload, registry: Option<&Arc<Registry>>, cpus: &Cpus) -> std::io::Result<Rig> {
    let cfg = NetServerConfig {
        service: Duration::ZERO,
        recv_buf: Some(RECV_BUF),
        ..NetServerConfig::default()
    };
    sys::pin_to(&cpus.server);
    let server = LeaseServer::spawn_observed("127.0.0.1:0", cfg, registry);
    sys::pin_to(&cpus.gen);
    let server = server?;
    let gen = Gen::setup(server.addr, CLIENTS as usize, w.files)?;
    Ok(Rig { server, gen })
}

/// Set up `SETUPS` times, keeping the last rig; returns it with the
/// median set-up time.
fn timed_setups(
    w: &NetWorkload,
    registry: Option<&Arc<Registry>>,
) -> std::io::Result<(Rig, f64, usize)> {
    let cpus = Cpus::split();
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let rig = setup(w, registry.filter(|_| i + 1 == SETUPS), &cpus)?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(rig) {
            old.stop();
        }
    }
    Ok((
        kept.expect("SETUPS > 0"),
        stats::median(&times),
        times.len(),
    ))
}

/// Derive a phase's schedule seed from the run seed.
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase
}

fn run_phase(
    rig: &mut Rig,
    w: &NetWorkload,
    seed: u64,
    phase: u64,
    rate: f64,
    window: Duration,
    check: &mut Check,
) -> std::io::Result<PhaseOut> {
    let sched = schedule(
        phase_seed(seed, phase),
        rate,
        window,
        CLIENTS,
        w.files,
        w.pick,
    );
    let out = rig.gen.run(&sched, window)?;
    rig.gen.quiesce(Duration::from_millis(50));
    for msg in out.wrong.iter().chain(&out.overlaps).take(5) {
        check.require(false, format!("{} at {rate} ops/s: {msg}", w.name));
    }
    Ok(out)
}

/// Does a ladder point meet the capacity conditions?
fn meets(p: &PhaseOut) -> bool {
    let (_, p99) = stats::p50_p99(&p.lat_us);
    p99.value <= P99_LIMIT_US
        && (p.failed as f64) <= FAIL_LIMIT * p.attempted as f64
        && p.last_q_completed as f64 >= 0.99 * p.last_q_offered as f64
}

fn gen_cpu_frac(p: &PhaseOut) -> f64 {
    p.gen_cpu_ns as f64 / p.wall_ns.max(1) as f64
}

/// Ops completed per CPU-second of the server's threads (the process
/// less the generator thread): the median over the phase's windows.
fn ops_per_server_cpu_s(p: &PhaseOut) -> f64 {
    let per: Vec<f64> = p
        .marks
        .windows(2)
        .filter_map(|w| {
            let server_ns = (w[1].proc_cpu_ns - w[0].proc_cpu_ns)
                .saturating_sub(w[1].gen_cpu_ns - w[0].gen_cpu_ns);
            (server_ns > 0)
                .then(|| (w[1].completed - w[0].completed) as f64 * 1e9 / server_ns as f64)
        })
        .collect();
    if per.is_empty() {
        let server_ns = p.proc_cpu_ns.saturating_sub(p.gen_cpu_ns).max(1);
        return p.completed as f64 * 1e9 / server_ns as f64;
    }
    stats::median(&per)
}

fn gen_busy_frac(p: &PhaseOut) -> f64 {
    p.busy_ns as f64 / p.wall_ns.max(1) as f64
}

/// Run `w` for about `budget` and fill `out`.
pub fn run(
    w: &NetWorkload,
    seed: u64,
    budget: Duration,
    traced: bool,
    out: &mut Report,
    check: &mut Check,
) -> std::io::Result<()> {
    sys::tighten_timer_slack();
    if traced {
        return run_traced(w, seed, budget, out, check);
    }
    let (mut rig, setup_s, setups) = timed_setups(w, None)?;
    let secs = budget.as_secs_f64();
    // Warm-up at the nominal rate: the server's tables and the
    // generator's buffers grow to their working size before timing.
    run_phase(
        &mut rig,
        w,
        seed,
        1_000,
        w.nominal,
        Duration::from_secs_f64(secs * 0.05),
        check,
    )?;
    let nominal = run_phase(
        &mut rig,
        w,
        seed,
        0,
        w.nominal,
        Duration::from_secs_f64(secs * 0.40),
        check,
    )?;
    // Memory is read here: the ladder and overload phases that follow
    // hold backlogs whose size is the harness's, not the server's.
    let rss_mb = sys::peak_rss_mb();

    // Capacity ladder: stop at the first point that misses.
    let step = Duration::from_secs_f64(secs * 0.35 / 8.0);
    let mut capacity = 0.0;
    let mut flags = Vec::new();
    for (i, &rate) in w.ladder.iter().enumerate() {
        let p = run_phase(&mut rig, w, seed, 1 + i as u64, rate, step, check)?;
        if gen_busy_frac(&p) > GEN_BUSY_LIMIT {
            flags.push(format!(
                "ladder {rate} ops/s generator-bound (busy {:.2})",
                gen_busy_frac(&p)
            ));
        }
        if !meets(&p) {
            break;
        }
        capacity = rate;
    }
    let over_window = Duration::from_secs_f64(secs * 0.12);
    let over = run_phase(&mut rig, w, seed, 100, w.overload, over_window, check)?;
    let goodput = over.steady_completed as f64 / (0.75 * over.window_s);
    if gen_busy_frac(&over) > GEN_BUSY_LIMIT {
        flags.push(format!(
            "overload generator-bound (busy {:.2})",
            gen_busy_frac(&over)
        ));
    }
    rig.stop();

    let lat = |q| stats::windowed(&nominal.lat_us, &nominal.lat_at_ns, WINDOW_NS, q);
    let (p50, p90, p99) = (lat(0.5), lat(0.9), lat(0.99));
    let (_, p99_all) = stats::p50_p99(&nominal.lat_us);
    let lag = |q| stats::windowed(&nominal.send_lag_us, &nominal.lag_at_ns, WINDOW_NS, q);
    let (lag50, lag99) = (lag(0.5), lag(0.99));
    if lag99.value > LAG_SHARE * p99.value {
        flags.push(format!(
            "nominal point harness-bound: send-lag p99 {:.1} us > 10% of p99 {:.1} us",
            lag99.value, p99.value
        ));
    }
    out.attempted = nominal.attempted;
    out.failed = nominal.failed;
    out.e2e("setup_s", "s", setup_s, setups);
    out.e2e("peak_rss_mb", "MB", rss_mb, 1);
    out.e2e("p50_us", "us", p50.value, p50.samples);
    out.row("p90_us", "us", p90.value, p90.samples);
    out.e2e(
        "ops_per_cpu_s",
        "1/s",
        ops_per_server_cpu_s(&nominal),
        nominal.completed as usize,
    );
    out.row(
        "fail_frac",
        "ratio",
        nominal.failed as f64 / nominal.attempted.max(1) as f64,
        nominal.attempted as usize,
    );
    out.row("p99_us", "us", p99.value, p99.samples);
    out.row("p99_us(all samples)", "us", p99_all.value, p99_all.samples);
    out.row("capacity_rps", "1/s", capacity, w.ladder.len());
    out.row(
        "overload_goodput_rps",
        "1/s",
        goodput,
        over.steady_completed as usize,
    );
    out.row(
        "overload_fail_frac",
        "ratio",
        over.failed as f64 / over.attempted.max(1) as f64,
        over.attempted as usize,
    );
    if !nominal.acquire_us.is_empty() {
        let (a50, a99) = stats::p50_p99(&nominal.acquire_us);
        out.row("acquire_p50_us", "us", a50.value, a50.samples);
        out.row("acquire_p99_us", "us", a99.value, a99.samples);
    }
    out.row("send_lag_p50_us", "us", lag50.value, lag50.samples);
    out.row("send_lag_p99_us", "us", lag99.value, lag99.samples);
    out.row("overload_gen_busy_frac", "ratio", gen_busy_frac(&over), 1);
    out.note(&format!(
        "p50_us, p90_us, p99_us and ops_per_cpu_s are at the nominal {} ops/s, each the median over 0.5 s windows",
        w.nominal
    ));
    out.note(&format!("overload is {} ops/s", w.overload));
    for f in &flags {
        out.note(f);
    }
    Ok(())
}

/// The traced run: the nominal rate untraced, then traced with the
/// datagrams captured and replayed, against a server that exports its
/// reactor counters.
fn run_traced(
    w: &NetWorkload,
    seed: u64,
    budget: Duration,
    out: &mut Report,
    check: &mut Check,
) -> std::io::Result<()> {
    let reg = Arc::new(Registry::new());
    let (mut rig, _, _) = timed_setups(w, Some(&reg))?;
    let window = Duration::from_secs_f64((budget.as_secs_f64() * 0.35).max(1.0));
    let port = rig.server.addr.port();
    run_phase(&mut rig, w, seed, 1_000, w.nominal, window / 4, check)?;
    let plain = run_phase(&mut rig, w, seed, 0, w.nominal, window, check)?;
    let drops0 = sys::udp_drops(port);
    let wakeups0 = reg
        .snapshot()
        .counter(names::NET_REACTOR_WAKEUPS.name)
        .unwrap_or(0);
    rig.gen.trace = Some((Tracer::new(Instant::now()), Capture::default()));
    let traced = run_phase(
        &mut rig,
        w,
        seed,
        0,
        w.nominal,
        window.min(TRACED_WINDOW),
        check,
    )?;
    let (mut tracer, capture) = rig.gen.trace.take().expect("set above");
    let snap = reg.snapshot();
    let wakeups = snap.counter(names::NET_REACTOR_WAKEUPS.name).unwrap_or(0) - wakeups0;
    let drops = match (drops0, sys::udp_drops(port)) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64,
        _ => 0.0,
    };
    let server_stats = rig.stop();
    out.attempted = traced.attempted;
    out.failed = traced.failed;

    let ops = traced.completed.max(1);
    let p50_plain = stats::windowed(&plain.lat_us, &plain.lat_at_ns, WINDOW_NS, 0.5);
    let p50 = stats::windowed(&traced.lat_us, &traced.lat_at_ns, WINDOW_NS, 0.5);
    let lag50 = stats::windowed(&plain.send_lag_us, &plain.lag_at_ns, WINDOW_NS, 0.5);
    let lag99 = stats::windowed(&plain.send_lag_us, &plain.lag_at_ns, WINDOW_NS, 0.99);
    out.layer("bench.send_lag_p50_us", lag50.value);
    out.layer("bench.send_lag_p99_us", lag99.value);
    out.layer("bench.gen_cpu_frac", gen_cpu_frac(&plain));
    out.layer(
        "bench.trace_overhead_frac",
        p50.value / p50_plain.value - 1.0,
    );
    out.layer(
        "net.server_cpu_us_per_op",
        1e6 / ops_per_server_cpu_s(&plain),
    );
    out.layer("net.reactor.wakeups_per_op", wakeups as f64 / ops as f64);
    out.layer(
        "net.reactor.datagrams_per_wakeup",
        snap.histogram(names::NET_REACTOR_DATAGRAMS_PER_WAKEUP.name)
            .map_or(0.0, |h| h.mean()),
    );
    out.layer(
        "net.reactor.worker_queue_depth_p99",
        snap.histogram(names::NET_REACTOR_WORKER_QUEUE_DEPTH.name)
            .and_then(|h| h.quantile(0.99))
            .unwrap_or(0) as f64,
    );
    out.layer("net.kernel_drops", drops);
    out.layer("net.server.nacks", server_stats.nacks as f64);
    out.layer("net.server.replays", server_stats.replays as f64);
    out.layer("proto.bytes_per_op", traced.bytes as f64 / ops as f64);
    out.layer(
        "proto.datagrams_per_op",
        traced.datagrams as f64 / ops as f64,
    );
    out.layer(
        "server.revoke_share",
        traced.revoked as f64 / traced.acquires.max(1) as f64,
    );
    out.layer("server.push_dups", traced.push_dups as f64);

    let costs = replay::replay_net(&capture, w.files, &mut tracer);
    out.layer("proto.decode_ns", costs.decode_ns);
    out.layer("proto.encode_ns", costs.encode_ns);
    out.layer("server.session_admit_ns", costs.session_admit_ns);
    out.layer("server.lock_request_ns", costs.lock_request_ns);
    out.layer("server.lock_release_ns", costs.lock_release_ns);
    out.layer("core.on_ack_ns", costs.on_ack_ns);
    out.layer("meta.getattr_ns", costs.getattr_ns);
    out.layer("meta.lookup_ns", costs.lookup_ns);
    out.layer("meta.setattr_ns", costs.setattr_ns);

    // Ledger: the generator's own steps per op (median over ops of each
    // step's self time, summed over the op's exchanges) plus the layer
    // work replayed per op, against the traced p50.
    let gen_us: f64 = tracer
        .self_us_per_id_by_name()
        .iter()
        .filter(|(name, _)| {
            name.starts_with("gen.") && !["gen.wait", "gen.exchange"].contains(name)
        })
        .map(|(_, v)| stats::median(v))
        .sum();
    // Only the ops the capture saw completely count toward the replay
    // share of the ledger.
    let captured_ops = capture_ops(&capture, traced.datagrams, traced.completed);
    let layers_us = costs.per_op_us(captured_ops);
    out.layer("unattributed_us", p50.value - gen_us - layers_us);
    if w.name == "meta_read" && traced.failed == 0 {
        check.require(
            traced.datagrams == 2 * traced.completed,
            format!(
                "meta_read: {} datagrams for {} requests, expected exactly 2 per request",
                traced.datagrams, traced.completed
            ),
        );
    }
    out.trace = Some(tracer);
    Ok(())
}

/// Ops covered by a capture that may have stopped early: its share of
/// the phase's datagrams, scaled to the completed ops.
fn capture_ops(cap: &Capture, datagrams: u64, completed: u64) -> u64 {
    let seen = (cap.requests.len() + cap.replies.len()) as f64;
    ((completed as f64) * (seen / datagrams.max(1) as f64)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: &NetWorkload) {
        let t0 = Instant::now();
        let mut out = Report::new(w.name);
        let mut check = Check::default();
        run(w, 3, Duration::from_secs(1), false, &mut out, &mut check).expect("run");
        assert!(check.failures().is_empty(), "{:?}", check.failures());
        assert!(out.attempted > 0);
        let line = out.json_line(false);
        for (name, _) in crate::report::END_TO_END {
            assert!(line.contains(name), "{line}");
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
    }

    #[test]
    fn meta_read_smoke_run_finishes_in_seconds() {
        smoke(&META_READ);
    }

    #[test]
    fn lock_churn_smoke_run_finishes_in_seconds() {
        smoke(&LOCK_CHURN);
    }
}
