//! Building blocks of the event-driven server: a deadline heap that
//! multiplexes every timer into the poll timeout, and a batch-drain of
//! ready datagrams with reusable scratch.
//!
//! The server composes them as one run-to-completion loop (DESIGN.md
//! §15): the reactor thread waits on the socket with `timeout = next
//! timer deadline`, drains *every* ready datagram into an arena per
//! wakeup, decodes it, and executes the requests one by one against the
//! protocol state it owns. Timers — push retries, release waits, lease
//! expiries, steal grace, recovery — fire on the same thread between
//! requests and between wakeups, so no path ever sleeps per event.

use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_proto::{CtlMsg, NetMsg, Request, WireDecode, MAX_DATAGRAM};

use crate::fault::FaultySocket;

// ------------------------------------------------------------- timers

/// Heap entry ordered so the earliest deadline pops first.
struct TimerEntry<E> {
    at: Instant,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for TimerEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for TimerEntry<E> {}
impl<E> PartialOrd for TimerEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for TimerEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// All of a server's timers in one deadline heap. The reactor asks for
/// [`next_deadline`](Self::next_deadline) to bound its poll timeout and
/// pops due events after every wakeup — timer multiplexing instead of a
/// sleeping thread per event.
pub struct TimerQueue<E> {
    heap: BinaryHeap<TimerEntry<E>>,
    next_seq: u64,
}

impl<E> Default for TimerQueue<E> {
    fn default() -> Self {
        TimerQueue::new()
    }
}

impl<E> TimerQueue<E> {
    /// Empty queue.
    pub fn new() -> TimerQueue<E> {
        TimerQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Arm `ev` to fire `after` from now. Ties fire in arm order.
    pub fn arm(&mut self, after: Duration, ev: E) {
        self.arm_at(Instant::now() + after, ev);
    }

    /// Arm `ev` at an absolute deadline.
    pub fn arm_at(&mut self, at: Instant, ev: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(TimerEntry { at, seq, ev });
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|t| t.at)
    }

    /// Pop the next event due at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<E> {
        match self.heap.peek() {
            Some(t) if t.at <= now => self.heap.pop().map(|t| t.ev),
            _ => None,
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// -------------------------------------------------------------- drain

/// Everything one wakeup drained off the socket: raw datagram bytes
/// packed end-to-end in `arena`, framed by `(offset, len, peer)`. Both
/// vectors keep their capacity across wakeups (the `rotate_grants`
/// scratch pattern applied to the receive path), so a warm drain
/// allocates nothing.
pub struct WakeupBatch {
    /// Datagram payloads, packed contiguously.
    pub arena: Vec<u8>,
    /// One `(offset, len, peer)` frame per datagram, in arrival order.
    pub frames: Vec<(usize, usize, SocketAddr)>,
}

impl Default for WakeupBatch {
    fn default() -> Self {
        WakeupBatch::new()
    }
}

impl WakeupBatch {
    /// Empty batch.
    pub fn new() -> WakeupBatch {
        WakeupBatch {
            arena: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Forget the frames but keep the capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.frames.clear();
    }

    /// Number of datagrams in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch holds no datagrams.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Drain every ready datagram (up to `max_frames`) from `sock` into
/// `batch`: recv until `WouldBlock`, the contract that makes one wakeup
/// observe the entire backlog. `scratch` is the fixed per-datagram
/// receive buffer (≥ [`MAX_DATAGRAM`]), reused across calls. Returns the
/// number of datagrams drained.
pub fn drain_ready(
    sock: &FaultySocket,
    scratch: &mut [u8],
    batch: &mut WakeupBatch,
    max_frames: usize,
) -> usize {
    batch.clear();
    while batch.frames.len() < max_frames {
        match sock.recv_from(scratch) {
            Ok((n, peer)) => {
                let off = batch.arena.len();
                batch.arena.extend_from_slice(&scratch[..n]);
                batch.frames.push((off, n, peer));
            }
            // WouldBlock = backlog empty; any transient error ends the
            // drain the same way and the next wakeup retries.
            Err(_) => break,
        }
    }
    batch.frames.len()
}

/// Decode a drained batch into requests, appending `(peer, request)` to
/// `out` in arrival order. One shared buffer backs every frame — a
/// single allocation per wakeup rather than one per datagram — and
/// undecodable datagrams (noise, truncation) are skipped, exactly as the
/// synchronous loop dropped them. Public (with [`WakeupBatch`]) so the
/// criterion suite can benchmark a full wakeup's drain-and-decode.
pub fn decode_batch(batch: &WakeupBatch, out: &mut Vec<(SocketAddr, Request)>) {
    let shared = Bytes::copy_from_slice(&batch.arena);
    for &(off, len, peer) in &batch.frames {
        let mut frame = shared.slice(off..off + len);
        if let Ok(NetMsg::Ctl(CtlMsg::Request(req))) = NetMsg::decode(&mut frame) {
            out.push((peer, req));
        }
    }
}

/// The fixed per-datagram receive buffer for [`drain_ready`].
pub fn recv_scratch() -> Vec<u8> {
    vec![0u8; MAX_DATAGRAM]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    #[test]
    fn timer_queue_fires_in_deadline_order_with_stable_ties() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        let base = Instant::now();
        q.arm_at(base + Duration::from_millis(20), 2);
        q.arm_at(base + Duration::from_millis(10), 1);
        q.arm_at(base + Duration::from_millis(20), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(base + Duration::from_millis(10)));
        let late = base + Duration::from_millis(30);
        assert_eq!(q.pop_due(late), Some(1));
        assert_eq!(q.pop_due(late), Some(2), "tie fires in arm order");
        assert_eq!(q.pop_due(late), Some(3));
        assert!(q.pop_due(late).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn timer_queue_holds_future_events_back() {
        let mut q: TimerQueue<&'static str> = TimerQueue::new();
        q.arm(Duration::from_secs(60), "later");
        assert!(q.pop_due(Instant::now()).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_empties_the_entire_backlog_in_one_wakeup() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind rx");
        let tx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind tx");
        let addr = rx.local_addr().expect("addr");
        for i in 0..17u8 {
            tx.send_to(&[i; 3], addr).expect("send");
        }
        // Let the datagrams land in the kernel queue.
        std::thread::sleep(Duration::from_millis(100));
        rx.set_nonblocking(true).expect("nonblocking");
        let mut batch = WakeupBatch::new();
        let mut scratch = recv_scratch();
        let n = drain_ready(&rx, &mut scratch, &mut batch, 1024);
        assert_eq!(n, 17, "one wakeup drains everything queued");
        assert_eq!(batch.arena.len(), 17 * 3);
        // Drained dry: the next drain finds nothing (WouldBlock).
        let n = drain_ready(&rx, &mut scratch, &mut batch, 1024);
        assert_eq!(n, 0);
    }

    #[test]
    fn drain_respects_the_frame_cap() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind rx");
        let tx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind tx");
        let addr = rx.local_addr().expect("addr");
        for _ in 0..8 {
            tx.send_to(b"x", addr).expect("send");
        }
        std::thread::sleep(Duration::from_millis(100));
        rx.set_nonblocking(true).expect("nonblocking");
        let mut batch = WakeupBatch::new();
        let mut scratch = recv_scratch();
        assert_eq!(drain_ready(&rx, &mut scratch, &mut batch, 5), 5);
        assert_eq!(drain_ready(&rx, &mut scratch, &mut batch, 5), 3);
    }
}
