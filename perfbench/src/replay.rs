//! Replay passes: the datagrams a traced run captured, fed through the
//! public functions of the layers the server runs for them, each pass
//! timed as a whole. This measures each layer from outside, on the run's
//! own traffic, without instrumenting the program.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use tank_core::{ClientLease, LeaseConfig};
use tank_meta::{DurableStore, MetaStore, WalRecord};
use tank_proto::message::{ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Incarnation, Ino, NetMsg, NodeId, ReqSeq, Response, SessionId, WireDecode, WireEncode,
};
use tank_server::lock::{LockManager, LockRequestOutcome};
use tank_server::session::SessionTable;
use tank_sim::LocalNs;

use crate::netgen::Capture;
use crate::stats;
use crate::trace::{SpanIdx, Tracer};

/// Passes per layer; each value reported is the median over passes.
const PASSES: usize = 5;

/// Mean cost of each replayed call, ns, plus how often the run made it.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub session_admit_ns: f64,
    pub lock_request_ns: f64,
    pub lock_release_ns: f64,
    pub on_ack_ns: f64,
    pub getattr_ns: f64,
    pub lookup_ns: f64,
    pub setattr_ns: f64,
    /// Captured requests of each kind.
    pub requests: usize,
    pub getattrs: usize,
    pub lookups: usize,
    pub setattrs: usize,
    pub acquires: usize,
    pub releases: usize,
}

impl LayerCosts {
    /// The server- and client-side layer work the run did per op, µs:
    /// per request a decode, a session admission, an encoded reply and a
    /// lease renewal on receipt, plus the lock and metadata calls.
    pub fn per_op_us(&self, ops: u64) -> f64 {
        let ops = ops.max(1) as f64;
        let per_request = self.decode_ns + self.session_admit_ns + self.encode_ns + self.on_ack_ns;
        let total = self.requests as f64 * per_request
            + self.getattrs as f64 * self.getattr_ns
            + self.lookups as f64 * self.lookup_ns
            + self.setattrs as f64 * self.setattr_ns
            + self.acquires as f64 * self.lock_request_ns
            + self.releases as f64 * self.lock_release_ns;
        total / ops / 1_000.0
    }
}

/// Decoded requests of a capture, with the client index that sent them.
fn requests(cap: &Capture) -> Vec<(u8, tank_proto::Request)> {
    cap.requests
        .iter()
        .filter_map(|(c, b)| match NetMsg::decode(&mut b.clone()) {
            Ok(NetMsg::Ctl(CtlMsg::Request(r))) => Some((*c, r)),
            _ => None,
        })
        .collect()
}

/// Time `PASSES` runs of `f` over `n` items, each as one span under
/// `root`, and return the median ns per item.
fn timed(tr: &mut Tracer, root: SpanIdx, name: &'static str, n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let per: Vec<f64> = (0..PASSES)
        .map(|pass| {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            tr.record(name, pass as u64, t0, t1, Some(root));
            (t1 - t0).as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&per)
}

/// Replay a net capture through proto, server, core and meta.
/// `files` is how many files set-up created.
pub fn replay_net(cap: &Capture, files: usize, tr: &mut Tracer) -> LayerCosts {
    let reqs = requests(cap);
    let mut c = LayerCosts {
        requests: reqs.len(),
        ..LayerCosts::default()
    };
    let t0 = Instant::now();
    let root = tr.record("replay", 0, t0, t0, None);
    let all: Vec<&Bytes> = cap
        .requests
        .iter()
        .chain(&cap.replies)
        .map(|(_, b)| b)
        .collect();

    // proto: decode every captured datagram, and encode it again.
    c.decode_ns = timed(tr, root, "replay.proto.decode", all.len(), || {
        for b in &all {
            black_box(NetMsg::decode(&mut (*b).clone()).is_ok());
        }
    });
    let msgs: Vec<NetMsg> = all
        .iter()
        .filter_map(|b| NetMsg::decode(&mut (*b).clone()).ok())
        .collect();
    c.encode_ns = timed(tr, root, "replay.proto.encode", msgs.len(), || {
        for m in &msgs {
            black_box(m.encoded());
        }
    });

    // server: admit each request into a fresh session table and record
    // its response for replay, as the server does.
    let ok = ResponseOutcome::Acked(Ok(ReplyBody::Ok));
    c.session_admit_ns = timed(tr, root, "replay.server.session_admit", reqs.len(), || {
        let mut table = SessionTable::new();
        let sessions: Vec<SessionId> = (0..4).map(|i| table.begin(NodeId(i + 1))).collect();
        for (client, r) in &reqs {
            let node = NodeId(u32::from(*client) + 1);
            let session = sessions[*client as usize];
            black_box(table.admit(node, session, r.seq));
            table.record_response(
                node,
                r.seq,
                Response {
                    dst: node,
                    session,
                    seq: r.seq,
                    incarnation: Incarnation(1),
                    outcome: ok.clone(),
                },
            );
        }
    });

    // server: the lock manager, in captured order.
    let locks: Vec<(u8, &RequestBody)> = reqs
        .iter()
        .filter(|(_, r)| {
            matches!(
                r.body,
                RequestBody::LockAcquire { .. } | RequestBody::LockRelease { .. }
            )
        })
        .map(|(c, r)| (*c, &r.body))
        .collect();
    c.acquires = locks
        .iter()
        .filter(|(_, b)| matches!(b, RequestBody::LockAcquire { .. }))
        .count();
    c.releases = locks.len() - c.acquires;
    let (req_ns, rel_ns) = lock_costs(&locks, tr, root);
    c.lock_request_ns = req_ns;
    c.lock_release_ns = rel_ns;

    // core: a client lease renewed by each reply.
    // Sends are registered a chunk at a time outside the timed part.
    let seqs: Vec<u64> = reqs.iter().map(|(_, r)| r.seq.0).collect();
    let per: Vec<f64> = (0..PASSES)
        .map(|pass| {
            let t0 = Instant::now();
            let mut lease = ClientLease::new(LeaseConfig::default());
            let mut acked_ns = 0u128;
            for chunk in seqs.chunks(256) {
                for &s in chunk {
                    lease.on_send(ReqSeq(s), LocalNs(s));
                }
                let a = Instant::now();
                for &s in chunk {
                    black_box(lease.on_ack(ReqSeq(s), LocalNs(s + 1)));
                }
                acked_ns += a.elapsed().as_nanos();
            }
            tr.record(
                "replay.core.on_ack",
                pass as u64,
                t0,
                Instant::now(),
                Some(root),
            );
            acked_ns as f64 / seqs.len().max(1) as f64
        })
        .collect();
    c.on_ack_ns = stats::median(&per);

    // meta: a store populated as set-up populates the server's.
    let mut meta = MetaStore::new(1 << 16, 4096);
    for k in 0..files {
        meta.create(Ino(1), &format!("f{k}"), 0)
            .expect("fresh name");
    }
    let mut getattrs = Vec::new();
    let mut lookups = Vec::new();
    let mut setattrs = Vec::new();
    for (_, r) in &reqs {
        match &r.body {
            RequestBody::GetAttr { ino } => getattrs.push(*ino),
            RequestBody::Lookup { name, .. } => lookups.push(name.clone()),
            RequestBody::SetAttr { ino, size } => setattrs.push((*ino, *size)),
            _ => {}
        }
    }
    c.getattrs = getattrs.len();
    c.lookups = lookups.len();
    c.setattrs = setattrs.len();
    // The live server numbered its inodes the same way, so the captured
    // inode numbers name the same files here; otherwise the passes would
    // time the not-found path.
    assert!(
        getattrs
            .iter()
            .chain(setattrs.iter().map(|(i, _)| i))
            .all(|i| meta.getattr(*i).is_ok()),
        "a captured inode is missing from the replay store"
    );
    c.getattr_ns = timed(tr, root, "replay.meta.getattr", getattrs.len(), || {
        for ino in &getattrs {
            black_box(meta.getattr(*ino).is_ok());
        }
    });
    c.lookup_ns = timed(tr, root, "replay.meta.lookup", lookups.len(), || {
        for name in &lookups {
            black_box(meta.lookup(Ino(1), name).is_ok());
        }
    });
    c.setattr_ns = timed(tr, root, "replay.meta.setattr", setattrs.len(), || {
        for (i, (ino, size)) in setattrs.iter().enumerate() {
            black_box(meta.setattr(*ino, *size, i as u64).is_ok());
        }
    });
    tr.close(root, Instant::now());
    c
}

/// `(request, release)` ns per call of the lock manager over the
/// captured lock traffic. Each call is timed on its own, minus the
/// cost of reading the clock.
fn lock_costs(locks: &[(u8, &RequestBody)], tr: &mut Tracer, root: SpanIdx) -> (f64, f64) {
    if locks.is_empty() {
        return (0.0, 0.0);
    }
    let clock = clock_cost_ns();
    let mut req = Vec::new();
    let mut rel = Vec::new();
    for pass in 0..PASSES {
        let t0 = Instant::now();
        let mut lm = LockManager::new();
        let (mut rq_ns, mut rq_n, mut rl_ns, mut rl_n) = (0.0, 0, 0.0, 0);
        for (i, (client, body)) in locks.iter().enumerate() {
            let node = NodeId(u32::from(*client) + 1);
            match body {
                RequestBody::LockAcquire { ino, mode } => {
                    let a = Instant::now();
                    let out = lm.request(node, *ino, *mode, SessionId(1), ReqSeq(i as u64));
                    rq_ns += a.elapsed().as_nanos() as f64 - clock;
                    rq_n += 1;
                    black_box(matches!(out, LockRequestOutcome::Granted(_)));
                }
                RequestBody::LockRelease { ino, .. } => {
                    let held = lm.holding_epoch(node, *ino);
                    let a = Instant::now();
                    black_box(lm.release(node, *ino, held));
                    rl_ns += a.elapsed().as_nanos() as f64 - clock;
                    rl_n += 1;
                }
                _ => {}
            }
        }
        tr.record(
            "replay.server.lock",
            pass as u64,
            t0,
            Instant::now(),
            Some(root),
        );
        req.push(rq_ns / rq_n.max(1) as f64);
        rel.push(rl_ns / rl_n.max(1) as f64);
    }
    (stats::median(&req).max(0.0), stats::median(&rel).max(0.0))
}

/// Median cost of one `Instant::now()` + `elapsed()` pair, ns.
fn clock_cost_ns() -> f64 {
    let v: Vec<f64> = (0..1_001)
        .map(|_| {
            let a = Instant::now();
            a.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&v)
}

/// Mean ns to append one of `records` to a fresh durable store (median
/// of several passes); 0 when there is nothing to append.
pub fn wal_append_ns(records: &[WalRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let per: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut store = DurableStore::new(usize::MAX);
            let t0 = Instant::now();
            for r in records {
                store.append(r);
            }
            black_box(store.log_len());
            t0.elapsed().as_nanos() as f64 / records.len() as f64
        })
        .collect();
    stats::median(&per)
}
