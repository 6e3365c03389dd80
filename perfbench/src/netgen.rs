//! The open-loop UDP load generator for the real server.
//!
//! One thread drives two client sockets against an in-process
//! `LeaseServer`. Every operation has a scheduled instant, fixed by the
//! seed before the run starts, and its latency is timed from that
//! instant: a stall in the server or in the generator delays every
//! operation due during it, and shows. The generator never asks to
//! sleep past the next due time (`ppoll` with a 1 ns timer slack instead
//! of epoll's millisecond timeout) and reports how late each send left.
//!
//! Two operation shapes share the engine:
//!
//! * a *request* (`meta_read`): one GetAttr or Lookup, answered by one
//!   reply;
//! * a *cycle* (`lock_churn`): LockAcquire → GetAttr (SharedRead) or
//!   SetAttr (Exclusive) → LockRelease, steps sent back to back. Cycles
//!   on one (client, file) run one at a time; a cycle due while its lane
//!   is busy waits, and that wait counts in its latency. Lock demands
//!   pushed by the server are answered at once with PushAck and an
//!   epoch-qualified LockRelease, as `TankClient` does.
//!
//! Every reply is matched to its request by (client, seq) and checked
//! for the expected kind and inode. On `lock_churn` an audit tracks each
//! client's grants by epoch and flags two clients holding one inode at
//! once where either grant is Exclusive.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_cluster::workload::{Mix, ZipfGen};
use tank_proto::message::{PushBody, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Epoch, Ino, LockMode, NetMsg, NodeId, ReqSeq, Request, SessionId, WireDecode,
    WireEncode, MAX_DATAGRAM,
};

use crate::sys;
use crate::trace::Tracer;

/// A request left unanswered this long after it was sent has failed.
pub const DEADLINE: Duration = Duration::from_millis(500);
/// Below this gap to the next due time the generator polls its sockets
/// instead of sleeping. Waking a sleeping thread on a busy two-CPU
/// machine takes up to milliseconds, so at the nominal rates the
/// generator polls all the time; it sleeps only through long gaps.
const MIN_SLEEP_NS: u64 = 200_000;
/// A sleep ends this long before the due time; polling covers the rest.
const WAKE_EARLY_NS: u64 = 50_000;
/// Longest single wait, so deadlines are noticed promptly.
const MAX_SLEEP_NS: u64 = 1_000_000;

/// What one scheduled operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `GetAttr` of the key's inode.
    GetAttr,
    /// `Lookup` of the key's name under the root.
    Lookup,
    /// SharedRead cycle: acquire, GetAttr, release.
    SharedCycle,
    /// Exclusive cycle: acquire, SetAttr, release.
    ExclusiveCycle,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due instant, ns from the start of the phase.
    pub at_ns: u64,
    /// Issuing client socket.
    pub client: u8,
    /// File index.
    pub key: u16,
    /// Operation.
    pub kind: OpKind,
}

impl Arrival {
    /// Fixed-width little-endian bytes, for byte-identity checks.
    #[cfg(test)]
    pub fn to_bytes(self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[..8].copy_from_slice(&self.at_ns.to_le_bytes());
        b[8] = self.client;
        b[9..11].copy_from_slice(&self.key.to_le_bytes());
        b[11] = self.kind as u8;
        b
    }
}

/// A phase's schedule: `rate × duration` arrivals at fixed spacing,
/// client uniform over `clients`, key Zipf(1) over `files`, kind drawn by
/// `pick`. A pure function of its arguments.
pub fn schedule(
    seed: u64,
    rate: f64,
    duration: Duration,
    clients: u8,
    files: usize,
    pick: impl Fn(&mut ChaCha8Rng) -> OpKind,
) -> Vec<Arrival> {
    let n = (duration.as_secs_f64() * rate) as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let zipf = ZipfGen::new(files, 1.0, Mix::default());
    let gap = 1e9 / rate;
    (0..n)
        .map(|i| Arrival {
            at_ns: (i as f64 * gap) as u64,
            client: rng.random_range(0..clients as u32) as u8,
            key: zipf.sample(&mut rng) as u16,
            kind: pick(&mut rng),
        })
        .collect()
}

/// Progress and CPU use at one instant of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mark {
    /// Ops completed so far.
    pub completed: u64,
    /// Generator-thread CPU so far, ns.
    pub gen_cpu_ns: u64,
    /// Whole-process CPU so far, ns.
    pub proc_cpu_ns: u64,
}

/// Spacing of [`Mark`]s within the schedule window.
pub const MARK_EVERY_NS: u64 = 500_000_000;

/// What a phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseOut {
    /// Schedule window, s.
    pub window_s: f64,
    /// Latency of every scheduled op from its due instant to its last
    /// reply, µs; a failed op counts as the deadline.
    pub lat_us: Vec<f64>,
    /// Due instant of each `lat_us` sample, ns into the phase.
    pub lat_at_ns: Vec<u64>,
    /// Latency of LockAcquires that needed a revocation, from the due
    /// instant of their cycle to the grant, µs.
    pub acquire_us: Vec<f64>,
    /// Lateness of each on-schedule send, µs.
    pub send_lag_us: Vec<f64>,
    /// Due instant of each `send_lag_us` sample, ns into the phase.
    pub lag_at_ns: Vec<u64>,
    /// Ops scheduled.
    pub attempted: u64,
    /// Ops completed.
    pub completed: u64,
    /// Ops failed (deadline, NACK, or a lost demand answer).
    pub failed: u64,
    /// Ops due in the last quarter of the window.
    pub last_q_offered: u64,
    /// Ops completed in the last quarter of the window.
    pub last_q_completed: u64,
    /// Ops completed within the last three quarters of the window, when
    /// the phase has reached its steady state.
    pub steady_completed: u64,
    /// Time the generator spent in loop passes that sent or received a
    /// datagram, ns: its utilisation, which polling does not inflate.
    pub busy_ns: u64,
    /// Generator-thread CPU over the phase, ns.
    pub gen_cpu_ns: u64,
    /// Whole-process CPU over the phase, ns.
    pub proc_cpu_ns: u64,
    /// Marks every [`MARK_EVERY_NS`] through the schedule window.
    pub marks: Vec<Mark>,
    /// Wall time of the phase, ns.
    pub wall_ns: u64,
    /// Datagrams sent and received by the generator.
    pub datagrams: u64,
    /// Bytes sent and received by the generator.
    pub bytes: u64,
    /// Demand pushes received again for an already-answered push.
    pub push_dups: u64,
    /// LockAcquires sent.
    pub acquires: u64,
    /// LockAcquires that needed a revocation.
    pub revoked: u64,
    /// Replies of the wrong kind, inode or outcome (correctness).
    pub wrong: Vec<String>,
    /// Overlapping conflicting grants seen by the audit (correctness).
    pub overlaps: Vec<String>,
}

/// One step of an op in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    GetAttr,
    Lookup,
    Acquire(LockMode),
    SetAttr(u64),
    Release(Epoch),
    /// Answers to a demand push (not part of any op).
    PushAck,
    DemandRelease,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Op index, or `u32::MAX` for demand answers.
    op: u32,
    step: Step,
    sent_ns: u64,
    /// Traced runs: when encoding began.
    enc_ns: u64,
    send_end_ns: u64,
}

const NO_OP: u32 = u32::MAX;
/// Resend interval of a set-up request.
const CALL_RETRY: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy)]
struct OpState {
    arrival: Arrival,
    /// Grant epoch of a cycle's acquire.
    epoch: Option<Epoch>,
    done: bool,
    /// A demand went to another client while this op's acquire was out.
    revoked: bool,
}

/// A client's grant as the audit sees it: live from the grant's arrival
/// until the generator sends a release naming it.
#[derive(Debug, Clone, Copy)]
struct Holding {
    client: u8,
    mode: LockMode,
    epoch: Epoch,
}

/// Datagrams a traced phase keeps for the replay pass.
#[derive(Default)]
pub struct Capture {
    /// Requests as sent: (client, datagram).
    pub requests: Vec<(u8, Bytes)>,
    /// Replies and pushes as received: (client, datagram).
    pub replies: Vec<(u8, Bytes)>,
}

/// Most datagrams a capture keeps in each direction.
const CAPTURE_MAX: usize = 100_000;

/// The two client sockets with their sessions, and the server they talk
/// to. Reused across phases.
pub struct Gen {
    server: SocketAddr,
    socks: Vec<UdpSocket>,
    sessions: Vec<SessionId>,
    next_seq: Vec<u64>,
    /// `key → ino`.
    pub inos: Vec<Ino>,
    buf: Vec<u8>,
    /// Set to capture datagrams and record spans.
    pub trace: Option<(Tracer, Capture)>,
}

impl Gen {
    /// Create `files` files `f0…` under the root over an admin socket,
    /// bind `clients` sockets and open a session on each.
    pub fn setup(server: SocketAddr, clients: usize, files: usize) -> io::Result<Gen> {
        let inos = create_files(server, files)?;
        let mut socks = Vec::new();
        let mut sessions = Vec::new();
        let mut buf = vec![0u8; MAX_DATAGRAM];
        for _ in 0..clients {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            s.set_nonblocking(true)?;
            match call(
                &s,
                server,
                SessionId(0),
                1,
                RequestBody::Hello { map_epoch: 0 },
                &mut buf,
            )? {
                ReplyBody::HelloOk { session, .. } => sessions.push(session),
                other => return Err(invalid(format!("Hello answered {other:?}"))),
            }
            socks.push(s);
        }
        Ok(Gen {
            server,
            socks,
            sessions,
            next_seq: vec![2; clients],
            inos,
            buf,
            trace: None,
        })
    }

    /// Run one phase: send `sched` on time, collect replies until every
    /// op is answered or has failed.
    pub fn run(&mut self, sched: &[Arrival], window: Duration) -> io::Result<PhaseOut> {
        let mut p = Phase::new(sched, window, self.socks.len());
        let cpu0 = (sys::thread_cpu_ns(), sys::process_cpu_ns());
        let t0 = Instant::now();
        let mut next = 0usize;
        let mut next_mark = 0u64;
        loop {
            let now = ns_since(t0);
            if now >= next_mark && next_mark <= p.window_ns {
                p.out.marks.push(Mark {
                    completed: p.out.completed,
                    gen_cpu_ns: sys::thread_cpu_ns() - cpu0.0,
                    proc_cpu_ns: sys::process_cpu_ns() - cpu0.1,
                });
                next_mark += MARK_EVERY_NS;
            }
            let moved = p.out.datagrams;
            while next < sched.len() && sched[next].at_ns <= now {
                self.arrive(&mut p, next as u32, t0)?;
                next += 1;
            }
            self.drain(&mut p, t0)?;
            self.expire(&mut p, t0)?;
            if p.out.datagrams != moved {
                p.out.busy_ns += ns_since(t0) - now;
            }
            if next == sched.len() && p.outstanding.is_empty() && p.lanes_idle() {
                break;
            }
            let now = ns_since(t0);
            let until = if next < sched.len() {
                sched[next].at_ns
            } else {
                now + MAX_SLEEP_NS
            };
            let gap = until.saturating_sub(now).min(MAX_SLEEP_NS);
            if gap >= MIN_SLEEP_NS {
                sys::wait_readable(&self.socks, Duration::from_nanos(gap - WAKE_EARLY_NS));
            }
        }
        let mut out = p.out;
        out.wall_ns = ns_since(t0);
        out.gen_cpu_ns = sys::thread_cpu_ns() - cpu0.0;
        out.proc_cpu_ns = sys::process_cpu_ns() - cpu0.1;
        Ok(out)
    }

    /// An op fell due: send its first step, or queue it behind its lane.
    fn arrive(&mut self, p: &mut Phase, op: u32, t0: Instant) -> io::Result<()> {
        let a = p.ops[op as usize].arrival;
        match a.kind {
            OpKind::GetAttr => self.send(p, op, Step::GetAttr, t0, Some(a.at_ns)),
            OpKind::Lookup => self.send(p, op, Step::Lookup, t0, Some(a.at_ns)),
            OpKind::SharedCycle | OpKind::ExclusiveCycle => {
                let lane = p.lane(a.client, a.key);
                if p.lanes[lane].busy {
                    p.lanes[lane].queue.push_back(op);
                    Ok(())
                } else {
                    p.lanes[lane].busy = true;
                    self.send(p, op, Step::Acquire(cycle_mode(a.kind)), t0, Some(a.at_ns))
                }
            }
        }
    }

    /// Encode and send one step of `op` (or a demand answer) from its
    /// client. `due_ns` is the scheduled instant of an on-time send.
    fn send(
        &mut self,
        p: &mut Phase,
        op: u32,
        step: Step,
        t0: Instant,
        due_ns: Option<u64>,
    ) -> io::Result<()> {
        let Arrival { client, key, .. } = p.ops[op as usize].arrival;
        let ino = self.inos[key as usize];
        let body = match step {
            Step::GetAttr => RequestBody::GetAttr { ino },
            Step::Lookup => RequestBody::Lookup {
                parent: Ino(1),
                name: format!("f{key}"),
            },
            Step::Acquire(mode) => {
                p.out.acquires += 1;
                RequestBody::LockAcquire { ino, mode }
            }
            Step::SetAttr(size) => RequestBody::SetAttr {
                ino,
                size: Some(size),
            },
            Step::Release(epoch) => {
                p.release_sent(client, ino, epoch);
                RequestBody::LockRelease { ino, epoch }
            }
            Step::PushAck | Step::DemandRelease => unreachable!("not an op step"),
        };
        self.transmit(p, client, op, step, body, t0, due_ns)
    }

    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        p: &mut Phase,
        client: u8,
        op: u32,
        step: Step,
        body: RequestBody,
        t0: Instant,
        due_ns: Option<u64>,
    ) -> io::Result<()> {
        let c = client as usize;
        let seq = self.next_seq[c];
        self.next_seq[c] += 1;
        let enc_ns = ns_since(t0);
        let req = Request {
            src: NodeId(0),
            session: self.sessions[c],
            seq: ReqSeq(seq),
            body,
        };
        let bytes = NetMsg::Ctl(CtlMsg::Request(req)).encoded();
        let sent_ns = ns_since(t0);
        // A failed send (full buffer) is a lost datagram: the request
        // stays outstanding and fails at its deadline.
        let _ = self.socks[c].send_to(&bytes, self.server);
        let send_end_ns = ns_since(t0);
        if let Some(due) = due_ns {
            p.out
                .send_lag_us
                .push(enc_ns.saturating_sub(due) as f64 / 1_000.0);
            p.out.lag_at_ns.push(due);
        }
        p.out.datagrams += 1;
        p.out.bytes += bytes.len() as u64;
        if let Some((_, cap)) = &mut self.trace {
            if cap.requests.len() < CAPTURE_MAX {
                cap.requests.push((client, bytes));
            }
        }
        p.outstanding.insert(
            (client, seq),
            Pending {
                op,
                step,
                sent_ns,
                enc_ns,
                send_end_ns,
            },
        );
        p.deadlines
            .push_back((sent_ns + DEADLINE.as_nanos() as u64, client, seq));
        Ok(())
    }

    /// Receive and handle every datagram waiting on either socket.
    fn drain(&mut self, p: &mut Phase, t0: Instant) -> io::Result<()> {
        for c in 0..self.socks.len() {
            loop {
                let recv_start = ns_since(t0);
                let n = match self.socks[c].recv_from(&mut self.buf) {
                    Ok((n, _)) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                };
                let recv_end = ns_since(t0);
                let bytes = Bytes::copy_from_slice(&self.buf[..n]);
                p.out.datagrams += 1;
                p.out.bytes += n as u64;
                if let Some((_, cap)) = &mut self.trace {
                    if cap.replies.len() < CAPTURE_MAX {
                        cap.replies.push((c as u8, bytes.clone()));
                    }
                }
                let mut b = bytes;
                let msg = NetMsg::decode(&mut b);
                let decoded = ns_since(t0);
                let times = RecvTimes {
                    recv_start,
                    recv_end,
                    decoded,
                };
                match msg {
                    Ok(NetMsg::Ctl(CtlMsg::Response(resp))) => {
                        self.on_reply(p, c as u8, resp.seq.0, resp.outcome, times, t0)?
                    }
                    Ok(NetMsg::Ctl(CtlMsg::Push(push))) => {
                        self.on_push(p, c as u8, push.push_seq, push.body, t0)?
                    }
                    other => p
                        .out
                        .wrong
                        .push(format!("client {c}: undecodable datagram {other:?}")),
                }
            }
        }
        Ok(())
    }

    fn on_reply(
        &mut self,
        p: &mut Phase,
        client: u8,
        seq: u64,
        outcome: ResponseOutcome,
        times: RecvTimes,
        t0: Instant,
    ) -> io::Result<()> {
        let Some(pend) = p.outstanding.remove(&(client, seq)) else {
            // The reply to a request already declared failed.
            return Ok(());
        };
        let reply = match outcome {
            ResponseOutcome::Acked(Ok(r)) => r,
            ResponseOutcome::Acked(Err(e)) => {
                p.out.wrong.push(format!(
                    "client {client} seq {seq}: {:?} failed with {e:?}",
                    pend.step
                ));
                return self.fail(p, pend.op, t0);
            }
            ResponseOutcome::Nacked(_) => return self.fail(p, pend.op, t0),
        };
        if pend.op == NO_OP {
            if reply != ReplyBody::Ok {
                p.out.wrong.push(format!(
                    "client {client} seq {seq}: demand answer got {reply:?}"
                ));
            }
            return Ok(());
        }
        let a = p.ops[pend.op as usize].arrival;
        if p.ops[pend.op as usize].done {
            return Ok(());
        }
        let ino = self.inos[a.key as usize];
        let ok = match (&pend.step, &reply) {
            (Step::GetAttr, ReplyBody::Attr { .. }) => true,
            (Step::Lookup, ReplyBody::Resolved { ino: got, .. }) => *got == ino,
            (Step::Acquire(want), ReplyBody::LockGranted { ino: got, mode, .. }) => {
                *got == ino && mode.covers(*want)
            }
            (Step::SetAttr(size), ReplyBody::Attr { attr }) => attr.size == *size,
            (Step::Release(_), ReplyBody::Ok) => true,
            _ => false,
        };
        if !ok {
            p.out.wrong.push(format!(
                "client {client} seq {seq}: {:?} on f{} answered {reply:?}",
                pend.step, a.key
            ));
            return self.fail(p, pend.op, t0);
        }
        if let Some((tr, _)) = &mut self.trace {
            span_step(tr, u64::from(pend.op), a.at_ns, &pend, times);
        }
        let op = pend.op;
        match (pend.step, reply) {
            (Step::Acquire(_), ReplyBody::LockGranted { mode, epoch, .. }) => {
                p.granted(client, ino, mode, epoch);
                let st = &mut p.ops[op as usize];
                st.epoch = Some(epoch);
                if st.revoked {
                    p.out.revoked += 1;
                    p.out
                        .acquire_us
                        .push(times.decoded.saturating_sub(a.at_ns) as f64 / 1_000.0);
                }
                let next = if a.kind == OpKind::SharedCycle {
                    Step::GetAttr
                } else {
                    Step::SetAttr(u64::from(a.key) * 4096 + seq % 4096)
                };
                self.send(p, op, next, t0, None)
            }
            (Step::GetAttr | Step::SetAttr(_), _) if a.kind != OpKind::GetAttr => {
                let epoch = p.ops[op as usize].epoch.expect("acquire came first");
                self.send(p, op, Step::Release(epoch), t0, None)
            }
            _ => {
                self.complete(p, op, times.decoded);
                self.next_in_lane(p, a, t0)
            }
        }
    }

    /// A demand push: acknowledge it and release the named grant, like
    /// `TankClient::on_push`; a repeated push is acknowledged again only.
    fn on_push(
        &mut self,
        p: &mut Phase,
        client: u8,
        push_seq: u64,
        body: PushBody,
        t0: Instant,
    ) -> io::Result<()> {
        let fresh = p.seen_pushes.insert((client, push_seq));
        if !fresh {
            p.out.push_dups += 1;
        }
        self.transmit(
            p,
            client,
            NO_OP,
            Step::PushAck,
            RequestBody::PushAck { push_seq },
            t0,
            None,
        )?;
        if let (true, PushBody::Demand { ino, epoch, .. }) = (fresh, body) {
            // Any acquire of this inode by another client that is still
            // waiting needed this revocation.
            for pend in p.outstanding.values() {
                if let Step::Acquire(_) = pend.step {
                    if pend.op != NO_OP {
                        let a = p.ops[pend.op as usize].arrival;
                        if a.client != client && self.inos[a.key as usize] == ino {
                            p.ops[pend.op as usize].revoked = true;
                        }
                    }
                }
            }
            p.release_sent(client, ino, epoch);
            self.transmit(
                p,
                client,
                NO_OP,
                Step::DemandRelease,
                RequestBody::LockRelease { ino, epoch },
                t0,
                None,
            )?;
        }
        Ok(())
    }

    fn complete(&mut self, p: &mut Phase, op: u32, at_ns: u64) {
        let st = &mut p.ops[op as usize];
        st.done = true;
        let a = st.arrival;
        p.out.completed += 1;
        p.out
            .lat_us
            .push(at_ns.saturating_sub(a.at_ns) as f64 / 1_000.0);
        p.out.lat_at_ns.push(a.at_ns);
        if a.at_ns >= p.last_q_from && at_ns <= p.window_ns {
            p.out.last_q_completed += 1;
        }
        if at_ns >= p.window_ns / 4 && at_ns <= p.window_ns {
            p.out.steady_completed += 1;
        }
    }

    /// An op (or a demand answer) failed: count it once, charge the op
    /// the deadline as its latency, and free its lane.
    fn fail(&mut self, p: &mut Phase, op: u32, t0: Instant) -> io::Result<()> {
        if op == NO_OP {
            p.out.failed += 1;
            return Ok(());
        }
        let st = &mut p.ops[op as usize];
        if st.done {
            return Ok(());
        }
        st.done = true;
        let a = st.arrival;
        p.out.failed += 1;
        p.out.lat_us.push(DEADLINE.as_secs_f64() * 1e6);
        p.out.lat_at_ns.push(a.at_ns);
        self.next_in_lane(p, a, t0)
    }

    /// Start the next queued cycle of a lane whose cycle just ended.
    fn next_in_lane(&mut self, p: &mut Phase, a: Arrival, t0: Instant) -> io::Result<()> {
        if !matches!(a.kind, OpKind::SharedCycle | OpKind::ExclusiveCycle) {
            return Ok(());
        }
        let lane = p.lane(a.client, a.key);
        match p.lanes[lane].queue.pop_front() {
            Some(op) => {
                let kind = p.ops[op as usize].arrival.kind;
                self.send(p, op, Step::Acquire(cycle_mode(kind)), t0, None)
            }
            None => {
                p.lanes[lane].busy = false;
                Ok(())
            }
        }
    }

    /// Fail every request whose deadline has passed.
    fn expire(&mut self, p: &mut Phase, t0: Instant) -> io::Result<()> {
        let now = ns_since(t0);
        while let Some(&(at, client, seq)) = p.deadlines.front() {
            if at > now {
                break;
            }
            p.deadlines.pop_front();
            if let Some(pend) = p.outstanding.remove(&(client, seq)) {
                self.fail(p, pend.op, t0)?;
            }
        }
        Ok(())
    }

    /// Wait until no reply arrives for `quiet`, discarding stragglers of
    /// an earlier phase.
    pub fn quiesce(&mut self, quiet: Duration) {
        let mut last = Instant::now();
        while last.elapsed() < quiet {
            sys::wait_readable(&self.socks, quiet / 4);
            for s in &self.socks {
                while s.recv_from(&mut self.buf).is_ok() {
                    last = Instant::now();
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RecvTimes {
    recv_start: u64,
    recv_end: u64,
    decoded: u64,
}

/// Spans of one request/reply exchange, children of a `gen.exchange`
/// root that runs from the op's due instant (first step) or the step's
/// encode (later steps) to the decoded reply.
fn span_step(tr: &mut Tracer, id: u64, due_ns: u64, pend: &Pending, t: RecvTimes) {
    use crate::trace::Span;
    let first = matches!(pend.step, Step::GetAttr | Step::Lookup | Step::Acquire(_));
    let start = if first {
        due_ns.min(pend.enc_ns)
    } else {
        pend.enc_ns
    };
    let root = tr.push(Span {
        name: "gen.exchange",
        id,
        start_ns: start,
        end_ns: t.decoded,
        parent: None,
    });
    let mut add = |name, a: u64, b: u64| {
        tr.push(Span {
            name,
            id,
            start_ns: a,
            end_ns: b.max(a),
            parent: Some(root),
        });
    };
    if first {
        add("gen.send_lag", due_ns, pend.enc_ns);
    }
    add("gen.encode", pend.enc_ns, pend.sent_ns);
    add("gen.send", pend.sent_ns, pend.send_end_ns);
    add("gen.wait", pend.send_end_ns, t.recv_start);
    add("gen.recv", t.recv_start, t.recv_end);
    add("gen.decode", t.recv_end, t.decoded);
}

fn cycle_mode(kind: OpKind) -> LockMode {
    if kind == OpKind::ExclusiveCycle {
        LockMode::Exclusive
    } else {
        LockMode::SharedRead
    }
}

#[derive(Default)]
struct Lane {
    busy: bool,
    queue: VecDeque<u32>,
}

/// Per-phase bookkeeping.
struct Phase {
    ops: Vec<OpState>,
    outstanding: HashMap<(u8, u64), Pending>,
    deadlines: VecDeque<(u64, u8, u64)>,
    lanes: Vec<Lane>,
    files: usize,
    holdings: HashMap<Ino, Vec<Holding>>,
    /// Every (client, inode, epoch) a release has been sent for.
    released: std::collections::HashSet<(u8, Ino, Epoch)>,
    seen_pushes: std::collections::HashSet<(u8, u64)>,
    last_q_from: u64,
    window_ns: u64,
    out: PhaseOut,
}

impl Phase {
    fn new(sched: &[Arrival], window: Duration, clients: usize) -> Phase {
        let window_ns = window.as_nanos() as u64;
        let last_q_from = window_ns * 3 / 4;
        let files = sched.iter().map(|a| a.key as usize + 1).max().unwrap_or(1);
        Phase {
            ops: sched
                .iter()
                .map(|&arrival| OpState {
                    arrival,
                    epoch: None,
                    done: false,
                    revoked: false,
                })
                .collect(),
            outstanding: HashMap::with_capacity(4096),
            deadlines: VecDeque::with_capacity(4096),
            lanes: (0..clients * files).map(|_| Lane::default()).collect(),
            files,
            holdings: HashMap::new(),
            released: Default::default(),
            seen_pushes: Default::default(),
            last_q_from,
            window_ns,
            out: PhaseOut {
                window_s: window.as_secs_f64(),
                attempted: sched.len() as u64,
                last_q_offered: sched.iter().filter(|a| a.at_ns >= last_q_from).count() as u64,
                ..PhaseOut::default()
            },
        }
    }

    fn lane(&self, client: u8, key: u16) -> usize {
        client as usize * self.files + key as usize
    }

    fn lanes_idle(&self) -> bool {
        self.lanes.iter().all(|l| !l.busy && l.queue.is_empty())
    }

    /// Audit a grant against every other client's live grant on `ino`.
    /// A grant whose release was already sent (a demand can overtake the
    /// grant it names when two server threads send them) is not live.
    fn granted(&mut self, client: u8, ino: Ino, mode: LockMode, epoch: Epoch) {
        if self.released.contains(&(client, ino, epoch)) {
            return;
        }
        let live = self.holdings.entry(ino).or_default();
        for h in live.iter() {
            if h.client != client && !(h.mode.compatible(mode)) {
                self.out.overlaps.push(format!(
                    "{ino:?}: client {client} granted {mode:?} at {epoch:?} while client {} holds {:?} at {:?}",
                    h.client, h.mode, h.epoch
                ));
            }
        }
        live.retain(|h| h.client != client);
        live.push(Holding {
            client,
            mode,
            epoch,
        });
    }

    /// The generator sent a release naming `epoch`: the grant is over.
    fn release_sent(&mut self, client: u8, ino: Ino, epoch: Epoch) {
        self.released.insert((client, ino, epoch));
        if let Some(live) = self.holdings.get_mut(&ino) {
            live.retain(|h| !(h.client == client && h.epoch == epoch));
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Create `files` files under the root over a throwaway socket and
/// return their inodes. Closed loop with retries: set-up is timed as a
/// whole, not per request.
fn create_files(server: SocketAddr, files: usize) -> io::Result<Vec<Ino>> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_nonblocking(true)?;
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let session = match call(
        &sock,
        server,
        SessionId(0),
        1,
        RequestBody::Hello { map_epoch: 0 },
        &mut buf,
    )? {
        ReplyBody::HelloOk { session, .. } => session,
        other => return Err(invalid(format!("admin Hello answered {other:?}"))),
    };
    (0..files)
        .map(|k| {
            let body = RequestBody::Create {
                parent: Ino(1),
                name: format!("f{k}"),
            };
            match call(&sock, server, session, k as u64 + 2, body, &mut buf)? {
                ReplyBody::Created { ino } => Ok(ino),
                other => Err(invalid(format!("create f{k} answered {other:?}"))),
            }
        })
        .collect()
}

/// One request/reply exchange on a nonblocking socket, retried every
/// [`CALL_RETRY`]. It polls for the reply rather than sleeping: waking a
/// sleeping thread costs the machine's wake-up latency on every call,
/// which would make set-up time a measure of the scheduler.
fn call(
    sock: &UdpSocket,
    server: SocketAddr,
    session: SessionId,
    seq: u64,
    body: RequestBody,
    buf: &mut [u8],
) -> io::Result<ReplyBody> {
    let bytes = NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(0),
        session,
        seq: ReqSeq(seq),
        body,
    }))
    .encoded();
    for _ in 0..20 {
        sock.send_to(&bytes, server)?;
        let sent = Instant::now();
        while sent.elapsed() < CALL_RETRY {
            let n = match sock.recv_from(buf) {
                Ok((n, _)) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            };
            let mut b = Bytes::copy_from_slice(&buf[..n]);
            if let Ok(NetMsg::Ctl(CtlMsg::Response(resp))) = NetMsg::decode(&mut b) {
                if resp.seq == ReqSeq(seq) {
                    return match resp.outcome {
                        ResponseOutcome::Acked(Ok(reply)) => Ok(reply),
                        other => Err(invalid(format!("set-up request answered {other:?}"))),
                    };
                }
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        "set-up request unanswered",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(s: &[Arrival]) -> Vec<u8> {
        s.iter().flat_map(|a| a.to_bytes()).collect()
    }

    #[test]
    fn schedules_are_byte_identical_per_seed_and_differ_across_seeds() {
        let pick_meta = |r: &mut ChaCha8Rng| {
            if r.random_range(0..10u32) == 0 {
                OpKind::Lookup
            } else {
                OpKind::GetAttr
            }
        };
        let pick_lock = |r: &mut ChaCha8Rng| {
            if r.random_bool(0.5) {
                OpKind::SharedCycle
            } else {
                OpKind::ExclusiveCycle
            }
        };
        let d = Duration::from_millis(200);
        let meta = |seed| bytes_of(&schedule(seed, 40_000.0, d, 2, 512, pick_meta));
        let lock = |seed| bytes_of(&schedule(seed, 11_000.0, d, 2, 16, pick_lock));
        assert_eq!(meta(7), meta(7));
        assert_ne!(meta(7), meta(8));
        assert_eq!(lock(7), lock(7));
        assert_ne!(lock(7), lock(8));
    }

    #[test]
    fn schedule_spacing_is_fixed_by_the_rate() {
        let s = schedule(1, 2_000.0, Duration::from_millis(500), 2, 8, |_| {
            OpKind::GetAttr
        });
        assert_eq!(s.len(), 1_000);
        assert_eq!(s[1].at_ns - s[0].at_ns, 500_000);
        assert!(s.iter().all(|a| a.client < 2 && a.key < 8));
    }
}
