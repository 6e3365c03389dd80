//! Real-network binding of the Storage Tank lease protocol.
//!
//! The simulator proves the protocol's properties; this crate proves the
//! protocol is not simulator-bound. The *same* sans-io state machines —
//! [`tank_core::ClientLease`], [`tank_core::LeaseAuthority`], the lock
//! manager, session table and metadata store — are driven here by OS
//! threads, wall-clock timers and UDP datagrams instead of virtual time
//! and a virtual network:
//!
//! * [`LeaseServer`] — a metadata/lock/lease server on a UDP socket
//!   (`tankd` is its binary form), event-driven: a readiness reactor
//!   ([`poll`] + [`reactor`]) batch-drains every ready datagram per
//!   wakeup and runs each request to completion on that same thread,
//!   with all protocol timers multiplexed into the poll timeout and
//!   fired between requests (DESIGN.md §15). No SAN exists
//!   here, so the data path is metadata + locks only and fencing is
//!   recorded rather than enforced; everything lease-related is the real
//!   protocol: opportunistic renewal, NACKs for suspect clients,
//!   `τ(1+ε)` timers, steal-on-expiry behind an optional harden grace,
//!   and the fail-stop recovery grace window (`--recover`): a restarted
//!   server refuses grants and mutations for `τ(1+ε)` so every lease
//!   that might have been outstanding at the crash has expired on its
//!   holder's clock.
//! * [`TankClient`] — a synchronous client: request/retry with stable
//!   sequence numbers (at-most-once at the server) under exponential
//!   backoff with jitter, implicit lease renewal on every acknowledged
//!   request, a keep-alive thread driven by the lease machine's own wakeup
//!   schedule, automatic demand handling, and server-restart detection via
//!   the incarnation number stamped on every response.
//! * [`FaultySocket`] — a seeded fault-injection shim (drop / duplicate /
//!   delay, per direction) both endpoints use as their transport, so the
//!   retry and dedup machinery is exercised against real datagram loss.
//!
//! Timestamps given to the sans-io cores are monotonic nanoseconds from a
//! process-local epoch ([`mono_now`]), which is exactly the "local clock"
//! the paper's rate-synchronization assumption speaks about.

pub mod client;
pub mod fault;
pub mod poll;
pub mod reactor;
pub mod server;

pub use client::TankClient;
pub use fault::{DirFaults, FaultConfig, FaultySocket};
pub use poll::Poller;
pub use server::{LeaseServer, ServerHandle};

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use tank_sim::LocalNs;

/// Monotonic local time in nanoseconds since the first call in this
/// process — the node's "local clock".
pub fn mono_now() -> LocalNs {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    LocalNs(epoch.elapsed().as_nanos() as u64)
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it.
///
/// The net-layer mutexes guard plain state (counters, maps, RNGs) whose
/// invariants hold between statements; a panic elsewhere must degrade
/// into that thread's failure, not poison-propagate panics through every
/// socket path (tank-lint L3 bans `unwrap` there).
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_now_is_monotone() {
        let a = mono_now();
        let b = mono_now();
        assert!(b >= a);
    }
}
