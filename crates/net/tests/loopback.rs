//! Real-network loopback tests: the sans-io protocol over actual UDP
//! sockets and OS threads.
//!
//! These use short leases (τ = 600ms) so lease expiry is observable in
//! test time; they are wall-clock tests and tolerate scheduling slop.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_core::{LeaseConfig, Phase};
use tank_net::client::NetClientError;
use tank_net::server::{LeaseServer, NetServerConfig};
use tank_net::{DirFaults, FaultConfig, TankClient};
use tank_proto::message::{ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Ino, LockMode, NackReason, NetMsg, NodeId, ReqSeq, Request, SessionId, WireDecode,
    WireEncode,
};
use tank_sim::LocalNs;

fn short_lease() -> LeaseConfig {
    let mut l = LeaseConfig::with_tau(LocalNs::from_millis(600));
    l.epsilon = 0.01;
    l
}

fn server_cfg() -> NetServerConfig {
    NetServerConfig {
        lease: short_lease(),
        push_retry: Duration::from_millis(50),
        push_retries: 2,
        release_timeout: Duration::from_millis(500),
        ..NetServerConfig::default()
    }
}

#[test]
fn metadata_roundtrip_over_udp() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr.to_string();
    let client = TankClient::connect(&addr, short_lease()).unwrap();

    let root = client.root();
    let dir = client.mkdir(root, "docs").unwrap();
    let file = client.create(dir, "a.txt").unwrap();
    let (resolved, attr) = client.lookup(dir, "a.txt").unwrap();
    assert_eq!(resolved, file);
    assert!(!attr.is_dir);
    let listing = client.readdir(dir).unwrap();
    assert_eq!(listing.len(), 1);
    assert_eq!(listing[0].0, "a.txt");
    client.unlink(dir, "a.txt").unwrap();
    assert!(matches!(
        client.lookup(dir, "a.txt"),
        Err(NetClientError::Fs(tank_proto::message::FsError::NotFound))
    ));
    drop(client);
    let stats = server.stop();
    assert!(stats.requests >= 6);
    assert_eq!(stats.delivery_errors, 0);
}

#[test]
fn keepalives_maintain_the_lease_while_idle() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let client = TankClient::connect(&server.addr.to_string(), short_lease()).unwrap();
    // Idle for several lease periods (τ = 600ms): the background thread
    // must keep the lease out of Suspect/Expired the whole time.
    std::thread::sleep(Duration::from_millis(2_500));
    let phase = client.lease_phase();
    assert!(
        matches!(phase, Phase::Valid | Phase::Renewal),
        "idle client stayed leased, got {phase:?}"
    );
    assert!(client.keepalives() > 0, "keep-alives actually flowed");
    // And the client still works.
    client.create(client.root(), "later").unwrap();
    server.stop();
}

#[test]
fn lock_demand_moves_between_live_clients() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr.to_string();
    let c1 = TankClient::connect(&addr, short_lease()).unwrap();
    let c2 = TankClient::connect(&addr, short_lease()).unwrap();

    let file = c1.create(c1.root(), "contested").unwrap();
    let e1 = c1.lock(file, LockMode::Exclusive).unwrap();
    // C2's acquire triggers a demand at C1, which auto-releases; the
    // server then grants C2 with a newer epoch.
    let e2 = c2.lock(file, LockMode::Exclusive).unwrap();
    assert!(e2 > e1, "epochs are monotone across the handover");
    let stats = server.stop();
    assert_eq!(
        stats.delivery_errors, 0,
        "live clients answered their demands"
    );
}

#[test]
fn dead_client_is_timed_out_and_its_lock_stolen() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr.to_string();
    let c1 = TankClient::connect(&addr, short_lease()).unwrap();
    let file = c1.create(c1.root(), "orphan").unwrap();
    c1.lock(file, LockMode::Exclusive).unwrap();
    // Kill the client (its threads exit): demands go unanswered, the
    // server declares a delivery error and arms τ(1+ε).
    drop(c1);

    let c2 = TankClient::connect(&addr, short_lease()).unwrap();
    let t0 = Instant::now();
    // The grant arrives only after the lease expires (~600ms·1.01 past
    // the delivery error) — the client retries until then.
    let mut granted = None;
    for _ in 0..40 {
        match c2.lock(file, LockMode::Exclusive) {
            Ok(e) => {
                granted = Some(e);
                break;
            }
            Err(NetClientError::Timeout) => continue,
            Err(other) => panic!("unexpected: {other}"),
        }
    }
    granted.expect("lock eventually granted");
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(400),
        "grant cannot beat the lease timeout, got {waited:?}"
    );
    let stats = server.stop();
    assert!(stats.delivery_errors >= 1);
    assert!(stats.steals >= 1);
}

#[test]
fn suspect_client_is_nacked_and_recovers_with_hello() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr.to_string();
    let c1 = TankClient::connect(&addr, short_lease()).unwrap();
    let file = c1.create(c1.root(), "f").unwrap();
    c1.lock(file, LockMode::Exclusive).unwrap();

    // Simulate C1 missing the demand: we cannot block UDP on loopback, so
    // emulate the § 3.3 window by dropping C1 entirely and verifying the
    // NACK-until-steal window from a *new* socket reusing nothing.
    drop(c1);
    let c2 = TankClient::connect(&addr, short_lease()).unwrap();
    // Force the delivery error (the lock call blocks until granted; we
    // only need the demand to fire, so run it on a scratch thread).
    {
        let c2addr = addr.clone();
        std::thread::spawn(move || {
            let c3 = TankClient::connect(&c2addr, short_lease()).unwrap();
            let _ = c3.lock(file, LockMode::Exclusive);
        });
    }
    // Eventually the steal frees it.
    std::thread::sleep(Duration::from_millis(900));
    let epoch = c2.lock(file, LockMode::Exclusive).unwrap();
    assert!(epoch.0 >= 2);
    let stats = server.stop();
    assert!(stats.steals >= 1);
}

#[test]
fn restarted_server_enforces_the_grace_window_then_serves() {
    let s1 = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = s1.addr.to_string();
    let client = TankClient::connect(&addr, short_lease()).unwrap();
    client.create(client.root(), "pre").unwrap();
    assert_eq!(client.server_incarnation(), Some(1));

    // Fail-stop: the server vanishes with all its volatile state.
    let _ = s1.stop();
    // ... and restarts on the same address as the next incarnation,
    // inside the recovery grace window.
    let mut cfg = server_cfg();
    cfg.incarnation = 2;
    cfg.recover = true;
    let t0 = Instant::now();
    let s2 = LeaseServer::spawn(&addr, cfg).unwrap();

    // A mutation issued immediately is NACKed `Recovering` until the
    // grace window (τ(1+ε) ≈ 606ms) has passed; the client rides the
    // NACKs out, re-hellos its stale session, and then succeeds.
    client.create(client.root(), "post").unwrap();
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(500),
        "grace window held the mutation back, got {waited:?}"
    );
    assert_eq!(
        client.server_incarnation(),
        Some(2),
        "client saw the restart"
    );
    let stats = s2.stop();
    assert!(
        stats.recovery_nacks >= 1,
        "the mutation was refused during grace"
    );
}

/// Send one raw request datagram from `sock` to `server`.
fn send_raw(sock: &UdpSocket, server: &str, session: SessionId, seq: u64, body: RequestBody) {
    let req = Request {
        src: NodeId(0),
        session,
        seq: ReqSeq(seq),
        body,
    };
    sock.send_to(&NetMsg::Ctl(CtlMsg::Request(req)).encoded(), server)
        .unwrap();
}

/// Receive responses on `sock` until `want` distinct sequence numbers
/// have answered or the socket's read timeout passes.
fn recv_outcomes(sock: &UdpSocket, want: usize) -> HashMap<u64, ResponseOutcome> {
    let mut buf = vec![0u8; tank_proto::MAX_DATAGRAM];
    let mut out = HashMap::new();
    while out.len() < want {
        let Ok((n, _)) = sock.recv_from(&mut buf) else {
            break;
        };
        let mut b = Bytes::copy_from_slice(&buf[..n]);
        if let Ok(NetMsg::Ctl(CtlMsg::Response(resp))) = NetMsg::decode(&mut b) {
            out.insert(resp.seq.0, resp.outcome);
        }
    }
    out
}

#[test]
fn recovery_window_closes_between_requests_of_one_batch() {
    // Grace window τ(1+ε) ≈ 202ms; every GetAttr/SetAttr the server
    // executes costs 5ms of modeled service time on its one thread.
    let mut lease = LeaseConfig::with_tau(LocalNs::from_millis(200));
    lease.epsilon = 0.01;
    let cfg = NetServerConfig {
        lease,
        recover: true,
        service: Duration::from_millis(5),
        recv_buf: Some(1 << 20),
        ..server_cfg()
    };
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr.to_string();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Hello is served inside the grace window.
    send_raw(
        &sock,
        &addr,
        SessionId(0),
        1,
        RequestBody::Hello { map_epoch: 0 },
    );
    let Some(ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, .. }))) =
        recv_outcomes(&sock, 1).remove(&1)
    else {
        panic!("no HelloOk during the grace window");
    };

    // A plug first: one vectored request of 10 GetAttrs keeps the
    // reactor busy for ≈50ms, so the burst sent right behind it lands in
    // the kernel backlog and is drained as one batch. The burst, far
    // inside the window: a SetAttr, then 80 GetAttrs (≈400ms of
    // execution, well past the window's end), then 10 more SetAttrs.
    let root = Ino(1);
    let getattr = RequestBody::GetAttr { ino: root };
    let setattr = RequestBody::SetAttr {
        ino: root,
        size: None,
    };
    let (plug, head, reads, tail) = (2u64, 3u64, 80u64, 10u64);
    send_raw(
        &sock,
        &addr,
        session,
        plug,
        RequestBody::Batch(vec![getattr.clone(); 10]),
    );
    send_raw(&sock, &addr, session, head, setattr.clone());
    for seq in head + 1..=head + reads {
        send_raw(&sock, &addr, session, seq, getattr.clone());
    }
    let tail_seqs = head + reads + 1..=head + reads + tail;
    for seq in tail_seqs.clone() {
        send_raw(&sock, &addr, session, seq, setattr.clone());
    }
    let outcomes = recv_outcomes(&sock, (2 + reads + tail) as usize);
    let stats = server.stop();

    assert!(
        matches!(
            outcomes.get(&head),
            Some(ResponseOutcome::Nacked(NackReason::Recovering))
        ),
        "the head SetAttr ran inside the window: {:?}",
        outcomes.get(&head)
    );
    // RecoveryDone came due while the GetAttrs executed; it must fire
    // between two requests of the batch, not after the whole batch.
    for seq in tail_seqs {
        assert!(
            matches!(
                outcomes.get(&seq),
                Some(ResponseOutcome::Acked(Ok(ReplyBody::Attr { .. })))
            ),
            "SetAttr {seq} executed after the window closed must be served: {:?}",
            outcomes.get(&seq)
        );
    }
    assert_eq!(stats.recovery_nacks, 1);
}

#[test]
fn restart_without_grace_serves_immediately_negative_control() {
    let s1 = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = s1.addr.to_string();
    let client = TankClient::connect(&addr, short_lease()).unwrap();
    client.create(client.root(), "pre").unwrap();
    let _ = s1.stop();

    // Restart WITHOUT the grace window: the unsafe configuration. The
    // mutation goes through (after a re-hello) well before τ(1+ε).
    let mut cfg = server_cfg();
    cfg.incarnation = 2;
    let t0 = Instant::now();
    let s2 = LeaseServer::spawn(&addr, cfg).unwrap();
    client.create(client.root(), "post").unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "no grace window: served straight away (which is exactly the hazard)"
    );
    let stats = s2.stop();
    assert_eq!(stats.recovery_nacks, 0);
}

#[test]
fn duplicated_requests_execute_at_most_once() {
    // The server's socket duplicates every datagram it receives: each
    // request is admitted twice, and the second copy must be answered
    // from the replay cache, not re-executed.
    let mut cfg = server_cfg();
    cfg.faults = FaultConfig {
        seed: 7,
        recv: DirFaults::duplicating(1.0),
        ..FaultConfig::none()
    };
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let client = TankClient::connect(&server.addr.to_string(), short_lease()).unwrap();

    let root = client.root();
    for i in 0..10 {
        client.create(root, &format!("f{i}")).unwrap();
    }
    // Re-creating any name fails with Exists — proof the duplicates did
    // not create doppelgänger files under the same name.
    assert!(matches!(
        client.create(root, "f0"),
        Err(NetClientError::Fs(tank_proto::message::FsError::Exists))
    ));
    assert_eq!(client.readdir(root).unwrap().len(), 10);
    drop(client);
    let stats = server.stop();
    assert!(
        stats.replays >= 10,
        "duplicates hit the replay cache: {}",
        stats.replays
    );
}

#[test]
fn lossy_client_socket_is_covered_by_retransmission() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    // 30% of this client's datagrams (requests AND keep-alives) vanish;
    // the exponential-backoff retransmission still lands every request.
    let faults = FaultConfig {
        seed: 42,
        send: DirFaults::dropping(0.3),
        ..FaultConfig::none()
    };
    let client = TankClient::connect_with(&server.addr.to_string(), short_lease(), faults).unwrap();
    let root = client.root();
    for i in 0..10 {
        client.create(root, &format!("g{i}")).unwrap();
    }
    assert_eq!(client.readdir(root).unwrap().len(), 10);
    drop(client);
    server.stop();
}

#[test]
fn observed_client_records_rtt_and_fault_metrics() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let registry = std::sync::Arc::new(tank_obs::Registry::new());
    // A drop rate high enough that some request almost surely needs a
    // retransmission across the run, but low enough to always converge.
    let faults = FaultConfig {
        seed: 7,
        send: DirFaults::dropping(0.3),
        ..FaultConfig::none()
    };
    let client = TankClient::connect_observed(
        &server.addr.to_string(),
        short_lease(),
        faults,
        Some(&registry),
    )
    .unwrap();
    let root = client.root();
    for i in 0..10 {
        client.create(root, &format!("m{i}")).unwrap();
    }
    drop(client);
    server.stop();

    let snap = registry.snapshot();
    let rtt = snap.histogram("net.client.rtt_ns").unwrap();
    // Hello + 10 creates all completed, each stamping one round trip.
    assert!(rtt.count >= 11, "rtt count = {}", rtt.count);
    assert!(rtt.max > Some(0) && rtt.min <= rtt.max);
    let retx = snap.histogram("net.client.retransmissions").unwrap();
    assert_eq!(retx.count, rtt.count);
    // 30% send-drop over ~20+ datagrams: the fault layer must have
    // recorded drops, and every drop forces a retransmission eventually.
    assert!(snap.counter("net.fault.send_dropped").unwrap_or(0) > 0);
    assert_eq!(snap.counter("net.client.timeouts").unwrap_or(0), 0);
}
