//! Consistent-hash routing with deterministic failover.
//!
//! Requests are routed by the STG's content digest using **rendezvous
//! (highest-random-weight) hashing**: every replica scores
//! `mix(digest ^ salt(replica))`, and the replicas are tried in descending
//! score order. Two properties fall out:
//!
//! * **Stability** — the same digest always prefers the same replica, so
//!   each replica's synthesis store warms up on *its* slice of the corpus
//!   instead of every replica paying for everything.
//! * **Minimal disruption** — when a replica dies, only the digests it
//!   owned move (to their second choice); the rest of the fleet's warm
//!   state is untouched. When it comes back, they move back.
//!
//! Failover is the client's job: [`FleetRouter::route`] walks the
//! rendezvous order, retrying transient failures per replica with the
//! existing [`client::request_with_backoff`] machinery, and falls to the
//! next replica on connect errors, torn responses, or 5xx statuses — a
//! `kill -9`'d replica costs one failed connect, not a failed request.

use std::net::SocketAddr;
use std::time::Duration;

use modsyn_fault::SplitMix64;
use modsyn_svc::client::{self, BackoffPolicy, ClientResponse};

/// A fixed set of replica addresses with rendezvous routing.
#[derive(Debug, Clone)]
pub struct FleetRouter {
    addrs: Vec<SocketAddr>,
}

impl FleetRouter {
    /// A router over `addrs` (typically [`crate::Supervisor::addrs`]).
    pub fn new(addrs: Vec<SocketAddr>) -> FleetRouter {
        FleetRouter { addrs }
    }

    /// The replica addresses, in configuration order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The failover order for `digest`: every replica, highest rendezvous
    /// score first. Deterministic in (digest, addrs).
    pub fn order(&self, digest: u64) -> Vec<SocketAddr> {
        let mut scored: Vec<(u64, usize)> = (0..self.addrs.len())
            .map(|i| {
                let mut rng = SplitMix64::new(digest ^ (i as u64).wrapping_mul(0x9E37_79B9));
                (rng.next_u64(), i)
            })
            .collect();
        // Descending score; index breaks the (astronomically unlikely) tie
        // so the order is total and platform-independent.
        scored.sort_by(|a, b| b.cmp(a));
        scored.into_iter().map(|(_, i)| self.addrs[i]).collect()
    }

    /// The preferred (first-choice) replica for `digest`.
    pub fn primary(&self, digest: u64) -> Option<SocketAddr> {
        self.order(digest).into_iter().next()
    }

    /// Routes one request by digest: walks [`FleetRouter::order`], giving
    /// each replica its own `request_with_backoff` budget, and fails over
    /// to the next on a socket error, torn response, or 5xx. Returns the
    /// first non-5xx response; when every replica fails, the last error or
    /// 5xx response.
    ///
    /// # Errors
    ///
    /// The final replica's socket failure, when every replica failed.
    pub fn route(
        &self,
        digest: u64,
        method: &str,
        target: &str,
        body: &[u8],
        timeout: Duration,
        policy: &BackoffPolicy,
    ) -> std::io::Result<ClientResponse> {
        let mut last: Option<std::io::Result<ClientResponse>> = None;
        for addr in self.order(digest) {
            let result = client::request_with_backoff(addr, method, target, body, timeout, policy);
            match &result {
                Ok(r) if r.status < 500 => return result,
                _ => last = Some(result),
            }
        }
        last.unwrap_or_else(|| {
            Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "fleet has no replicas",
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7800 + i).parse().unwrap())
            .collect()
    }

    #[test]
    fn order_is_deterministic_and_total() {
        let r = FleetRouter::new(addrs(5));
        for digest in [0u64, 1, 0xdead_beef, u64::MAX] {
            let a = r.order(digest);
            assert_eq!(a, r.order(digest), "same digest, same order");
            assert_eq!(a.len(), 5);
            let mut sorted = a.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "order is a permutation");
        }
    }

    #[test]
    fn digests_spread_across_replicas() {
        let r = FleetRouter::new(addrs(3));
        let mut counts = [0usize; 3];
        for digest in 0..300u64 {
            let primary = r
                .primary(digest.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .unwrap();
            let i = r.addrs().iter().position(|a| *a == primary).unwrap();
            counts[i] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "replica {i} owns {c}/300 digests — not a spread");
        }
    }

    #[test]
    fn losing_a_replica_only_moves_its_own_digests() {
        let full = FleetRouter::new(addrs(3));
        let degraded = FleetRouter::new(addrs(2)); // replica 2 "dead"
        for digest in 0..200u64 {
            let d = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let first = full.primary(d).unwrap();
            if full.addrs()[..2].contains(&first) {
                // A digest the dead replica did not own keeps its primary.
                assert_eq!(degraded.primary(d).unwrap(), first);
            }
        }
    }

    #[test]
    fn empty_fleet_is_an_error_not_a_panic() {
        let r = FleetRouter::new(Vec::new());
        let err = r
            .route(
                1,
                "GET",
                "/healthz",
                b"",
                Duration::from_millis(10),
                &BackoffPolicy {
                    max_attempts: 1,
                    ..BackoffPolicy::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
    }
}
