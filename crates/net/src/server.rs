//! The UDP lease/lock/metadata server, event-driven.
//!
//! One reactor thread owns the protocol state and runs every request to
//! completion. It waits for socket readiness ([`crate::poll`]) with its
//! timeout bounded by the earliest pending protocol timer, drains every
//! ready datagram into an arena batch per wakeup ([`crate::reactor`]),
//! decodes the batch, and executes it request by request, sending each
//! request's replies before starting the next. Push retries, release
//! waits, lease expiries, the steal grace and the recovery window are
//! all multiplexed into the poll timeout and fire between requests, so
//! no thread ever sleeps per event and no request waits for a hand-off.
//! DESIGN.md §15 walks the architecture.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_core::{ClientStanding, LeaseAuthority, LeaseConfig};
use tank_meta::{MetaError, MetaStore};
use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Incarnation, Ino, LockMode, NackReason, NetMsg, NodeId, PushBody, ReqSeq, Request,
    Response, ServerPush, SessionId, WireEncode,
};
use tank_server::lock::{Grant, LockManager, LockRequestOutcome};
use tank_server::session::{Admission, SessionTable};

use crate::fault::{FaultConfig, FaultySocket};
use crate::mono_now;
use crate::poll::{set_recv_buffer, Poller};
use crate::reactor::{decode_batch, drain_ready, recv_scratch, TimerQueue, WakeupBatch};

/// Shortest poll timeout: epoll has millisecond resolution, and a
/// sub-millisecond timeout must not busy-spin.
const MIN_POLL: Duration = Duration::from_millis(1);
/// Longest poll timeout: bounds the latency of noticing a stop request.
const MAX_POLL: Duration = Duration::from_millis(25);
/// Most datagrams drained per wakeup; a deeper backlog surfaces on the
/// next wakeup.
const MAX_BATCH: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Lease contract.
    pub lease: LeaseConfig,
    /// Push retry interval.
    pub push_retry: Duration,
    /// Push retry budget before a delivery error is declared.
    pub push_retries: u32,
    /// Post-PushAck release deadline.
    pub release_timeout: Duration,
    /// This server instance's incarnation number, stamped on every
    /// response. An operator restarting a crashed server must pass a
    /// larger value than the previous instance used, so clients can
    /// tell a restart from a long network outage.
    pub incarnation: u64,
    /// Start in the recovery grace window: refuse lock grants and
    /// metadata mutations for `τ(1+ε)` after startup, so every lease
    /// that might have been outstanding at the crash has expired on its
    /// holder's own clock (and that holder has quiesced) before any
    /// conflicting grant can be issued. Set this whenever the bind
    /// address may have served an earlier incarnation.
    pub recover: bool,
    /// Fault injection applied to this server's socket.
    pub faults: FaultConfig,
    /// Extra delay between a lease expiring and its locks being stolen,
    /// covering SAN writes the holder issued before it quiesced but
    /// that had not landed at expiry (the net mirror of
    /// `ServerConfig::harden_grace` on the sim side). Delaying the
    /// steal only widens the exclusion window, so Theorem 3.1 is
    /// unaffected; zero steals immediately.
    pub harden_grace: Duration,
    /// Modeled per-transaction service time, slept on the reactor
    /// thread for every request except `KeepAlive`. Zero (the default)
    /// disables it. The capacity experiment (E19) sets this so the
    /// saturation resource is the modeled metadata device rather than
    /// the host CPU — on a single-core runner, N shard servers sleeping
    /// concurrently still model N independent devices, so the measured
    /// ceiling scales with shard count the way real spindles would.
    pub service: Duration,
    /// Kernel receive-buffer size to request (`SO_RCVBUF`), letting the
    /// socket absorb a burst while the reactor drains. `None` keeps the
    /// OS default.
    pub recv_buf: Option<usize>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            lease: LeaseConfig::default(),
            push_retry: Duration::from_millis(200),
            push_retries: 3,
            release_timeout: Duration::from_secs(2),
            incarnation: 1,
            recover: false,
            faults: FaultConfig::none(),
            harden_grace: Duration::ZERO,
            service: Duration::ZERO,
            recv_buf: None,
        }
    }
}

/// Timer events multiplexed into the reactor's poll timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerEv {
    PushRetry(u64),
    ReleaseWait(u64),
    LeaseExpiry(NodeId),
    /// Harden grace between lease expiry and the steal (see
    /// [`NetServerConfig::harden_grace`]).
    StealGrace(NodeId),
    RecoveryDone,
}

struct PendingPush {
    addr: SocketAddr,
    dst: NodeId,
    session: SessionId,
    body: PushBody,
    retries_left: u32,
    acked: bool,
}

/// Counters exposed to tests/operators.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetServerStats {
    /// Requests executed.
    pub requests: u64,
    /// NACKs sent.
    pub nacks: u64,
    /// Duplicate requests answered from the replay cache (at-most-once
    /// in action: the request was *not* re-executed).
    pub replays: u64,
    /// Delivery errors declared.
    pub delivery_errors: u64,
    /// Steals performed.
    pub steals: u64,
    /// Requests refused because the recovery grace window was open.
    pub recovery_nacks: u64,
}

/// The server's protocol state, owned by value by the reactor thread,
/// which both executes requests and fires timers against it. All sends
/// go through the `outbox` field and are flushed after each request.
pub struct LeaseServer {
    cfg: NetServerConfig,
    meta: MetaStore,
    locks: LockManager,
    authority: LeaseAuthority,
    sessions: SessionTable,
    /// addr ⟷ node id mapping (ids assigned on first contact).
    ids: HashMap<SocketAddr, NodeId>,
    addrs: HashMap<NodeId, SocketAddr>,
    next_id: u32,
    pushes: HashMap<u64, PendingPush>,
    next_push: u64,
    timers: TimerQueue<TimerEv>,
    incarnation: Incarnation,
    recovering: bool,
    stats: NetServerStats,
    /// Encoded messages awaiting transmission; the reactor sends them
    /// after each request and each round of timers, keeping the buffer's
    /// capacity.
    outbox: Vec<(SocketAddr, Bytes)>,
    /// Wall-clock vectored-batch execution histogram (when observed).
    batch_exec_ns: Option<Arc<Histogram>>,
    /// Scratch buffers for [`Self::deliver_grants`]: the grant-push path
    /// runs on the hot request loop, so each pass reuses these instead of
    /// collecting a fresh `Vec` (see `rotate_grants` and the criterion
    /// datapoint in `tank-bench`).
    grant_queue: std::collections::VecDeque<Grant>,
    grant_batch: Vec<Grant>,
    grant_touched: Vec<Ino>,
}

/// Move all queued grants into `batch` for one delivery pass, reusing
/// `batch`'s capacity. After warm-up neither side allocates: the queue
/// keeps its buffer across `drain`, and `clear` + `extend` refills the
/// batch in place. Public so the allocation claim is benchmarked
/// (`crates/bench/benches/batch_codec.rs`) rather than asserted.
pub fn rotate_grants(queue: &mut std::collections::VecDeque<Grant>, batch: &mut Vec<Grant>) {
    batch.clear();
    batch.extend(queue.drain(..));
}

/// Reactor-loop instruments (when observed).
struct ReactorObs {
    wakeups: Arc<Counter>,
    datagrams_per_wakeup: Arc<Histogram>,
}

/// Handle returned by [`LeaseServer::spawn`].
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    join: std::thread::JoinHandle<NetServerStats>,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Stop the server and return its final counters.
    pub fn stop(self) -> NetServerStats {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().unwrap_or_default()
    }
}

impl LeaseServer {
    /// Bind `addr` and run the server on one reactor thread that
    /// executes every request itself.
    pub fn spawn(addr: &str, cfg: NetServerConfig) -> std::io::Result<ServerHandle> {
        Self::spawn_observed(addr, cfg, None)
    }

    /// [`spawn`](Self::spawn) with an observability registry: records the
    /// `server.batch.exec_ns` execution histogram and the
    /// `net.reactor.*` loop instruments.
    pub fn spawn_observed(
        addr: &str,
        cfg: NetServerConfig,
        registry: Option<&Arc<Registry>>,
    ) -> std::io::Result<ServerHandle> {
        let sock = FaultySocket::bind(addr, cfg.faults)?;
        let bound = sock.local_addr()?;
        if let Some(bytes) = cfg.recv_buf {
            // Best effort: rmem_max may clamp it, and a smaller backlog
            // only costs drops the retry machinery already absorbs.
            let _ = set_recv_buffer(&sock, bytes);
        }
        sock.set_nonblocking(true)?;
        let mut server = LeaseServer {
            meta: MetaStore::new(1 << 16, 4096),
            locks: LockManager::new(),
            authority: LeaseAuthority::new(cfg.lease),
            sessions: SessionTable::new(),
            ids: HashMap::new(),
            addrs: HashMap::new(),
            next_id: 1,
            pushes: HashMap::new(),
            next_push: 1,
            timers: TimerQueue::new(),
            incarnation: Incarnation(cfg.incarnation),
            recovering: false,
            stats: NetServerStats::default(),
            outbox: Vec::new(),
            batch_exec_ns: registry.map(|r| r.histogram_def(&names::SERVER_BATCH_EXEC_NS)),
            grant_queue: std::collections::VecDeque::new(),
            grant_batch: Vec::new(),
            grant_touched: Vec::new(),
            cfg,
        };
        if server.cfg.recover {
            // Diskless recovery (§6): no lease state survived the crash,
            // so wait out one full server-side lease period before
            // granting anything. Every lease that might have been live at
            // the crash expires on its holder's clock within τ(1+ε) of
            // the crash — and the crash predates our startup.
            server.recovering = true;
            let grace = Duration::from_nanos(server.cfg.lease.server_timeout().0);
            server.timers.arm(grace, TimerEv::RecoveryDone);
        }
        let obs = registry.map(|r| ReactorObs {
            wakeups: r.counter_def(&names::NET_REACTOR_WAKEUPS),
            datagrams_per_wakeup: r.histogram_def(&names::NET_REACTOR_DATAGRAMS_PER_WAKEUP),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let join = std::thread::spawn(move || server.run(&sock, obs.as_ref(), &stop2));
        Ok(ServerHandle {
            addr: bound,
            join,
            stop,
        })
    }

    fn node_of(&mut self, addr: SocketAddr) -> NodeId {
        if let Some(&id) = self.ids.get(&addr) {
            return id;
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.ids.insert(addr, id);
        self.addrs.insert(id, addr);
        id
    }

    /// Queue a message for the next [`flush`](Self::flush).
    fn send(&mut self, addr: SocketAddr, msg: &NetMsg) {
        self.outbox.push((addr, msg.encoded()));
    }

    fn respond(
        &mut self,
        addr: SocketAddr,
        client: NodeId,
        session: SessionId,
        seq: ReqSeq,
        outcome: ResponseOutcome,
    ) {
        let resp = Response {
            dst: client,
            session,
            seq,
            incarnation: self.incarnation,
            outcome,
        };
        if resp.is_ack() {
            self.sessions.record_response(client, seq, resp.clone());
        } else {
            self.stats.nacks += 1;
        }
        self.send(addr, &NetMsg::Ctl(CtlMsg::Response(resp)));
    }

    fn on_timer(&mut self, ev: TimerEv) {
        match ev {
            TimerEv::PushRetry(push_seq) => {
                let Some(p) = self.pushes.get_mut(&push_seq) else {
                    return;
                };
                if p.acked {
                    return;
                }
                if p.retries_left == 0 {
                    let dst = p.dst;
                    self.delivery_error(dst);
                } else {
                    p.retries_left -= 1;
                    self.send_push(push_seq);
                }
            }
            TimerEv::ReleaseWait(push_seq) => {
                if let Some(p) = self.pushes.remove(&push_seq) {
                    let still_held = match &p.body {
                        PushBody::Demand { ino, epoch, .. } => {
                            self.locks.holding_epoch(p.dst, *ino) == Some(*epoch)
                        }
                        // An Invalidate push carries no lock to re-demand.
                        PushBody::Invalidate { .. } => false,
                    };
                    if still_held {
                        self.delivery_error(p.dst);
                    }
                }
            }
            TimerEv::LeaseExpiry(client) => {
                if self.authority.on_timer(client, mono_now()) {
                    if self.cfg.harden_grace > Duration::ZERO {
                        // Expiry already bans the client from acks; hold
                        // the steal back so in-flight hardens can land.
                        self.timers
                            .arm(self.cfg.harden_grace, TimerEv::StealGrace(client));
                    } else {
                        self.steal(client);
                    }
                }
            }
            TimerEv::StealGrace(client) => {
                // A Hello in the grace window clears the Expired
                // standing (new session), making the steal moot — the
                // Hello path already stole and regranted.
                if self.authority.standing_of(client) == ClientStanding::Expired {
                    self.steal(client);
                }
            }
            TimerEv::RecoveryDone => {
                self.recovering = false;
            }
        }
    }

    /// Take an expired client's locks. No SAN sits behind this server, so
    /// fencing is a no-op and the steal happens directly.
    fn steal(&mut self, client: NodeId) {
        self.stats.steals += 1;
        let (_stolen, grants) = self.locks.steal_all(client);
        self.deliver_grants(grants);
    }

    /// Requests that need the server's full authority: lock grants and
    /// metadata mutations. These are refused during the recovery grace
    /// window; everything else (Hello, KeepAlive, reads, releases,
    /// PushAcks) is served so surviving clients can wind down cleanly.
    fn needs_full_service(body: &RequestBody) -> bool {
        match body {
            RequestBody::LockAcquire { .. }
            | RequestBody::Create { .. }
            | RequestBody::Mkdir { .. }
            | RequestBody::Unlink { .. }
            | RequestBody::RenameLink { .. }
            | RequestBody::RenameUnlink { .. }
            | RequestBody::SetAttr { .. }
            | RequestBody::AllocBlocks { .. }
            | RequestBody::CommitWrite { .. }
            | RequestBody::WriteData { .. } => true,
            // A batch needs full service exactly when any element does.
            RequestBody::Batch(elems) => elems.iter().any(Self::needs_full_service),
            RequestBody::Hello { .. }
            | RequestBody::KeepAlive
            | RequestBody::Lookup { .. }
            | RequestBody::ReadDir { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. }
            | RequestBody::ReadData { .. } => false,
        }
    }

    fn delivery_error(&mut self, client: NodeId) {
        self.stats.delivery_errors += 1;
        let done: Vec<u64> = self
            .pushes
            .iter()
            .filter(|(_, p)| p.dst == client)
            .map(|(k, _)| *k)
            .collect();
        for k in done {
            self.pushes.remove(&k);
        }
        if let Some(fires_at) = self.authority.on_delivery_error(client, mono_now()) {
            let delay = Duration::from_nanos(fires_at.0.saturating_sub(mono_now().0));
            self.timers.arm(delay, TimerEv::LeaseExpiry(client));
        }
    }

    fn send_push(&mut self, push_seq: u64) {
        let Some(p) = self.pushes.get(&push_seq) else {
            return;
        };
        let msg = NetMsg::Ctl(CtlMsg::Push(ServerPush {
            dst: p.dst,
            session: p.session,
            push_seq,
            body: p.body.clone(),
        }));
        let addr = p.addr;
        self.send(addr, &msg);
        let delay = self.cfg.push_retry;
        self.timers.arm(delay, TimerEv::PushRetry(push_seq));
    }

    /// Returns grants unblocked when the holder had no live session.
    fn start_demand(&mut self, holder: NodeId, ino: Ino, mode_needed: LockMode) -> Vec<Grant> {
        let dup = self.pushes.values().any(|p| {
            p.dst == holder && matches!(p.body, PushBody::Demand { ino: i, .. } if i == ino)
        });
        if dup {
            return Vec::new();
        }
        let (Some(session), Some(&addr)) = (self.sessions.current(holder), self.addrs.get(&holder))
        else {
            return self.locks.release(holder, ino, None);
        };
        let Some(epoch) = self.locks.holding_epoch(holder, ino) else {
            return Vec::new();
        };
        let push_seq = self.next_push;
        self.next_push += 1;
        self.pushes.insert(
            push_seq,
            PendingPush {
                addr,
                dst: holder,
                session,
                body: PushBody::Demand {
                    ino,
                    mode_needed,
                    epoch,
                },
                retries_left: self.cfg.push_retries,
                acked: false,
            },
        );
        self.send_push(push_seq);
        Vec::new()
    }

    fn deliver_grants(&mut self, grants: Vec<Grant>) {
        // The scratch buffers live on `self` so repeated passes reuse
        // their capacity; they are taken out for the loop because
        // `respond`/`start_demand` need `&mut self`.
        let mut queue = std::mem::take(&mut self.grant_queue);
        let mut batch = std::mem::take(&mut self.grant_batch);
        let mut touched = std::mem::take(&mut self.grant_touched);
        queue.extend(grants);
        while !queue.is_empty() {
            rotate_grants(&mut queue, &mut batch);
            touched.clear();
            touched.extend(batch.iter().map(|g| g.ino));
            touched.sort();
            touched.dedup();
            for g in batch.drain(..) {
                if let Some((session, seq)) = g.answers {
                    let Some(&addr) = self.addrs.get(&g.client) else {
                        continue;
                    };
                    let (blocks, size) = self.meta.file_extent(g.ino).unwrap_or((Vec::new(), 0));
                    self.respond(
                        addr,
                        g.client,
                        session,
                        seq,
                        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted {
                            ino: g.ino,
                            mode: g.mode,
                            epoch: g.epoch,
                            blocks,
                            size,
                        })),
                    );
                }
            }
            for &ino in &touched {
                for (holder, mode) in self.locks.pending_demands(ino) {
                    let more = self.start_demand(holder, ino, mode);
                    queue.extend(more);
                }
            }
        }
        self.grant_queue = queue;
        self.grant_batch = batch;
        self.grant_touched = touched;
    }

    fn map_meta<T>(r: Result<T, MetaError>) -> Result<T, FsError> {
        r.map_err(|e| match e {
            MetaError::NotFound => FsError::NotFound,
            MetaError::Exists => FsError::Exists,
            MetaError::Invalid => FsError::Invalid,
            MetaError::NoSpace => FsError::NoSpace,
        })
    }

    fn on_request(&mut self, addr: SocketAddr, req: Request) {
        let client = self.node_of(addr);
        // The recovery gate comes first: while the grace window is open
        // nothing may be granted or mutated, no matter how fresh the
        // session looks. The NACK does not condemn the client's cache —
        // it means "retry after a delay".
        if self.recovering && Self::needs_full_service(&req.body) {
            self.stats.recovery_nacks += 1;
            return self.respond(
                addr,
                client,
                req.session,
                req.seq,
                ResponseOutcome::Nacked(NackReason::Recovering),
            );
        }
        match self.authority.standing_of(client) {
            ClientStanding::Good => {}
            ClientStanding::Suspect { .. } => {
                return self.respond(
                    addr,
                    client,
                    req.session,
                    req.seq,
                    ResponseOutcome::Nacked(NackReason::LeaseTimingOut),
                );
            }
            ClientStanding::Expired => {
                if !matches!(req.body, RequestBody::Hello { .. }) {
                    return self.respond(
                        addr,
                        client,
                        req.session,
                        req.seq,
                        ResponseOutcome::Nacked(NackReason::SessionExpired),
                    );
                }
            }
        }
        if matches!(req.body, RequestBody::Hello { .. }) {
            // Hello sits outside the session dedup window; duplicates
            // are suppressed by (client, seq) so a replayed datagram
            // cannot mint a second session and orphan the first.
            if let Some(resp) = self.sessions.hello_replay(client, req.seq) {
                self.stats.replays += 1;
                self.send(addr, &NetMsg::Ctl(CtlMsg::Response(resp)));
                return;
            }
            self.stats.requests += 1;
            let (_stolen, grants) = self.locks.steal_all(client);
            self.deliver_grants(grants);
            self.authority.on_new_session(client);
            let session = self.sessions.begin(client);
            let resp = Response {
                dst: client,
                session,
                seq: req.seq,
                incarnation: self.incarnation,
                outcome: ResponseOutcome::Acked(Ok(ReplyBody::HelloOk {
                    session,
                    map_epoch: 0,
                })),
            };
            self.sessions.record_hello(client, req.seq, resp.clone());
            self.send(addr, &NetMsg::Ctl(CtlMsg::Response(resp)));
            return;
        }
        match self.sessions.admit(client, req.session, req.seq) {
            Admission::Execute => {
                self.stats.requests += 1;
                self.execute(addr, client, req);
            }
            Admission::Replay(resp) => {
                self.stats.replays += 1;
                self.send(addr, &NetMsg::Ctl(CtlMsg::Response(*resp)));
            }
            Admission::InProgress => {}
            Admission::WrongSession => {
                self.respond(
                    addr,
                    client,
                    req.session,
                    req.seq,
                    ResponseOutcome::Nacked(NackReason::StaleSession),
                );
            }
        }
    }

    fn execute(&mut self, addr: SocketAddr, client: NodeId, req: Request) {
        let session = req.session;
        let seq = req.seq;
        match req.body {
            RequestBody::Hello { .. } => unreachable!(),
            RequestBody::LockAcquire { ino, mode } => {
                self.do_lock_acquire(addr, client, session, seq, ino, mode);
            }
            RequestBody::Batch(elems) => {
                self.do_batch(addr, client, session, seq, elems);
            }
            body => {
                let result = self.execute_sync(client, body);
                self.respond(addr, client, session, seq, ResponseOutcome::Acked(result));
            }
        }
    }

    /// Vectored batch execution: elements run in order, the first
    /// file-system error stops the rest, and the whole batch is answered
    /// with one ACK carrying per-element outcomes. Wall-clock execution
    /// time lands in `server.batch.exec_ns` when observed.
    fn do_batch(
        &mut self,
        addr: SocketAddr,
        client: NodeId,
        session: SessionId,
        seq: ReqSeq,
        elems: Vec<RequestBody>,
    ) {
        let t0 = Instant::now();
        let mut outcomes: Vec<Result<ReplyBody, FsError>> = Vec::with_capacity(elems.len());
        for body in elems {
            let result = if body.batchable() {
                self.execute_sync(client, body)
            } else {
                Err(FsError::Invalid)
            };
            let stop = result.is_err();
            outcomes.push(result);
            if stop {
                break;
            }
        }
        if let Some(h) = &self.batch_exec_ns {
            h.observe(t0.elapsed().as_nanos() as u64);
        }
        self.respond(
            addr,
            client,
            session,
            seq,
            ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn do_lock_acquire(
        &mut self,
        addr: SocketAddr,
        client: NodeId,
        session: SessionId,
        seq: ReqSeq,
        ino: Ino,
        mode: LockMode,
    ) {
        let result = if let Err(e) = Self::map_meta(self.meta.getattr(ino)) {
            Err(e)
        } else {
            match self.locks.request(client, ino, mode, session, seq) {
                LockRequestOutcome::Granted(g) => {
                    let (blocks, size) = self.meta.file_extent(ino).unwrap_or((Vec::new(), 0));
                    Ok(ReplyBody::LockGranted {
                        ino,
                        mode,
                        epoch: g.epoch,
                        blocks,
                        size,
                    })
                }
                LockRequestOutcome::AlreadyHeld(epoch, held) => {
                    let (blocks, size) = self.meta.file_extent(ino).unwrap_or((Vec::new(), 0));
                    Ok(ReplyBody::LockGranted {
                        ino,
                        mode: held,
                        epoch,
                        blocks,
                        size,
                    })
                }
                LockRequestOutcome::Queued { demand_from } => {
                    let mut grants = Vec::new();
                    for holder in demand_from {
                        grants.extend(self.start_demand(holder, ino, mode));
                    }
                    self.deliver_grants(grants);
                    return; // grant answers later
                }
            }
        };
        self.respond(addr, client, session, seq, ResponseOutcome::Acked(result));
    }

    /// Execute one synchronously-answerable body. `LockAcquire` (which
    /// may queue and answer later) and session shapes are `Invalid` here;
    /// [`Self::execute`] routes them first, and batches exclude them.
    fn execute_sync(&mut self, client: NodeId, body: RequestBody) -> Result<ReplyBody, FsError> {
        // Modeled metadata-device service time (see
        // [`NetServerConfig::service`]). KeepAlive is pure lease
        // maintenance and costs no device work.
        if !self.cfg.service.is_zero() && !matches!(body, RequestBody::KeepAlive) {
            std::thread::sleep(self.cfg.service);
        }
        let now = mono_now().0;
        match body {
            RequestBody::KeepAlive => Ok(ReplyBody::Ok),
            RequestBody::Create { parent, name } => {
                Self::map_meta(self.meta.create(parent, &name, now))
                    .map(|ino| ReplyBody::Created { ino })
            }
            RequestBody::Mkdir { parent, name } => {
                Self::map_meta(self.meta.mkdir(parent, &name, now))
                    .map(|ino| ReplyBody::Created { ino })
            }
            RequestBody::Lookup { parent, name } => Self::map_meta(self.meta.lookup(parent, &name))
                .map(|(ino, attr)| ReplyBody::Resolved { ino, attr }),
            RequestBody::ReadDir { dir } => {
                Self::map_meta(self.meta.readdir(dir)).map(|entries| ReplyBody::Dir { entries })
            }
            RequestBody::RenameLink { dir, name, ino } => {
                Self::map_meta(self.meta.rename_link(dir, &name, ino)).map(|_| ReplyBody::Ok)
            }
            RequestBody::RenameUnlink { dir, name } => {
                Self::map_meta(self.meta.rename_unlink(dir, &name)).map(|_| ReplyBody::Ok)
            }
            RequestBody::Unlink { parent, name } => match self.meta.lookup(parent, &name) {
                Ok((ino, _)) if self.locks.is_contended(ino) => Err(FsError::Unavailable),
                _ => Self::map_meta(self.meta.unlink(parent, &name)).map(|_| ReplyBody::Ok),
            },
            RequestBody::GetAttr { ino } => {
                Self::map_meta(self.meta.getattr(ino)).map(|attr| ReplyBody::Attr { attr })
            }
            RequestBody::SetAttr { ino, size } => Self::map_meta(self.meta.setattr(ino, size, now))
                .map(|attr| ReplyBody::Attr { attr }),
            RequestBody::LockRelease { ino, epoch } => {
                let grants = self.locks.release(client, ino, Some(epoch));
                let done: Vec<u64> = self
                    .pushes
                    .iter()
                    .filter(|(_, p)| {
                        p.dst == client
                            && matches!(p.body, PushBody::Demand { ino: i, .. } if i == ino)
                    })
                    .map(|(k, _)| *k)
                    .collect();
                for k in done {
                    self.pushes.remove(&k);
                }
                self.deliver_grants(grants);
                Ok(ReplyBody::Ok)
            }
            RequestBody::PushAck { push_seq } => {
                let mut arm_release = false;
                if let Some(p) = self.pushes.get_mut(&push_seq) {
                    if !p.acked {
                        p.acked = true;
                        arm_release = true;
                    }
                }
                if arm_release {
                    let delay = self.cfg.release_timeout;
                    self.timers.arm(delay, TimerEv::ReleaseWait(push_seq));
                }
                Ok(ReplyBody::Ok)
            }
            RequestBody::AllocBlocks { ino, count } => {
                if !self.locks.holds(client, ino, LockMode::Exclusive) {
                    Err(FsError::NotLocked)
                } else {
                    Self::map_meta(self.meta.alloc_blocks(ino, count))
                        .map(|blocks| ReplyBody::Allocated { blocks })
                }
            }
            RequestBody::CommitWrite { ino, new_size } => {
                if !self.locks.holds(client, ino, LockMode::Exclusive) {
                    Err(FsError::NotLocked)
                } else {
                    Self::map_meta(self.meta.commit_write(ino, new_size, now))
                        .map(|_| ReplyBody::Ok)
                }
            }
            RequestBody::ReadData { .. } | RequestBody::WriteData { .. } => {
                // No SAN behind this server; data stays with the client.
                Err(FsError::Invalid)
            }
            RequestBody::Hello { .. } | RequestBody::LockAcquire { .. } | RequestBody::Batch(_) => {
                Err(FsError::Invalid)
            }
        }
    }
}

impl LeaseServer {
    /// The reactor loop: fire due timers, flush their output, wait for
    /// readiness bounded by the next deadline, drain the backlog into the
    /// one reused batch, and execute it request by request on this
    /// thread. Timers that come due mid-batch fire between requests.
    /// Returns the final counters once the stop flag is seen.
    fn run(
        mut self,
        sock: &FaultySocket,
        obs: Option<&ReactorObs>,
        stop: &AtomicBool,
    ) -> NetServerStats {
        let mut poller = match Poller::new() {
            Ok(mut p) => match p.register(sock, 0) {
                Ok(()) => p,
                Err(_) => sleeper_poller(),
            },
            Err(_) => sleeper_poller(),
        };
        let mut scratch = recv_scratch();
        let mut batch = WakeupBatch::new();
        let mut requests: Vec<(SocketAddr, Request)> = Vec::new();
        loop {
            // Fire everything due and compute how long the next wait may be.
            let now = Instant::now();
            self.fire_timers(now);
            self.flush(sock);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let wait = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(now))
                .unwrap_or(MAX_POLL)
                .clamp(MIN_POLL, MAX_POLL);
            let ready = match poller.wait(wait) {
                Ok(tokens) => !tokens.is_empty(),
                Err(_) => false,
            };
            let mut drained = 0;
            if ready {
                drained = drain_ready(sock, &mut scratch, &mut batch, MAX_BATCH);
                decode_batch(&batch, &mut requests);
                for (peer, req) in requests.drain(..) {
                    self.on_request(peer, req);
                    self.fire_timers(Instant::now());
                    self.flush(sock);
                }
            }
            poller.note_progress(drained > 0);
            if let Some(o) = obs {
                o.wakeups.inc();
                o.datagrams_per_wakeup.observe(drained as u64);
            }
        }
        self.stats
    }

    /// Fire every timer due at or before `now`.
    fn fire_timers(&mut self, now: Instant) {
        while let Some(ev) = self.timers.pop_due(now) {
            self.on_timer(ev);
        }
    }

    /// Send everything queued in the outbox, keeping its capacity. Send
    /// errors are the peer's loss, as everywhere.
    fn flush(&mut self, sock: &FaultySocket) {
        for (dst, bytes) in self.outbox.drain(..) {
            let _ = sock.send_to(&bytes, dst);
        }
    }
}

/// The portable fallback with the server socket's token registered.
fn sleeper_poller() -> Poller {
    let mut p = Poller::sleeper();
    p.register_token(0);
    p
}
