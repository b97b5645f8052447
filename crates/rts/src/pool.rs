//! Warm pilot pool: bootstrapped runtimes leased across workflows.
//!
//! The paper's Fig. 7 shows pilot bootstrap and RTS setup dominating EnTK
//! overhead; a long-running service should pay that cost once and amortize
//! it over many workflows. A [`PilotPool`] keeps fully bootstrapped
//! (RTS started, pilot submitted and ready) runtimes idle between leases.
//! [`PilotPool::lease`] hands out a warm runtime when one is available and
//! cold-boots one otherwise; dropping the [`PilotLease`] health-checks the
//! runtime and returns it to the pool — or tears it down if it died, the
//! pool is full, or the pool is draining.

use crate::api::{PilotDescription, PilotId, PilotState};
use crate::rts::{RtsConfig, RuntimeSystem};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Pool configuration: every pooled pilot is interchangeable, built from the
/// same RTS config and pilot description.
#[derive(Debug, Clone)]
pub struct PilotPoolConfig {
    /// RTS configuration for every incarnation.
    pub rts: RtsConfig,
    /// Pilot description for every incarnation. Give pooled pilots a large
    /// walltime: they keep consuming it while idle between leases.
    pub pilot: PilotDescription,
    /// Maximum idle runtimes kept warm; returns beyond this are torn down.
    /// This is the *initial* target — [`PilotPool::set_capacity`] adjusts it
    /// at runtime (telemetry-driven prescaling).
    pub capacity: usize,
}

/// Point-in-time counters describing pool behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases served by a cold boot (nothing warm available).
    pub cold_boots: u64,
    /// Leases served from the warm pool.
    pub warm_hits: u64,
    /// Leases returned warm to the pool.
    pub returned: u64,
    /// Leases discarded on return (dead, pool full, or draining).
    pub discarded: u64,
}

struct PoolInner {
    config: PilotPoolConfig,
    /// Live capacity target; starts at `config.capacity` and moves under
    /// [`PilotPool::set_capacity`]. Lease returns and prewarm consult this,
    /// so a shrink takes effect on the very next return.
    target: AtomicUsize,
    idle: Mutex<Vec<(Arc<RuntimeSystem>, PilotId)>>,
    draining: AtomicBool,
    cold_boots: AtomicU64,
    warm_hits: AtomicU64,
    returned: AtomicU64,
    discarded: AtomicU64,
}

impl PoolInner {
    fn boot(&self) -> (Arc<RuntimeSystem>, PilotId) {
        let rts = Arc::new(RuntimeSystem::start(self.config.rts.clone()));
        let pilot = rts.submit_pilot(&self.config.pilot);
        rts.wait_pilot_ready(pilot, Duration::from_secs(30));
        (rts, pilot)
    }
}

fn healthy(rts: &RuntimeSystem, pilot: PilotId) -> bool {
    rts.is_alive()
        && matches!(
            rts.pilot_state(pilot),
            Some(PilotState::Ready | PilotState::Queued | PilotState::Active)
        )
}

/// A pool of warm, ready-to-serve pilot runtimes. Cheap to clone; clones
/// share the pool.
#[derive(Clone)]
pub struct PilotPool {
    inner: Arc<PoolInner>,
}

impl PilotPool {
    /// An empty pool (no pilots booted yet).
    pub fn new(config: PilotPoolConfig) -> Self {
        PilotPool {
            inner: Arc::new(PoolInner {
                target: AtomicUsize::new(config.capacity),
                config,
                idle: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                cold_boots: AtomicU64::new(0),
                warm_hits: AtomicU64::new(0),
                returned: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// Boot up to `n` pilots into the warm pool (bounded by the live
    /// capacity target).
    pub fn prewarm(&self, n: usize) {
        for _ in 0..n {
            {
                let idle = self.inner.idle.lock();
                if idle.len() >= self.inner.target.load(Ordering::Acquire) {
                    return;
                }
            }
            let slot = self.inner.boot();
            self.inner.idle.lock().push(slot);
        }
    }

    /// Current capacity target.
    pub fn capacity(&self) -> usize {
        self.inner.target.load(Ordering::Acquire)
    }

    /// Retarget the warm-pool capacity at runtime. Shrinking tears down
    /// excess idle runtimes immediately and causes surplus lease returns to
    /// be discarded; growing takes effect lazily — call
    /// [`PilotPool::prewarm`] to boot warm pilots up to the new target
    /// eagerly. Returns how many idle runtimes were torn down.
    pub fn set_capacity(&self, n: usize) -> usize {
        self.inner.target.store(n, Ordering::Release);
        let excess: Vec<_> = {
            let mut idle = self.inner.idle.lock();
            if idle.len() > n {
                idle.split_off(n)
            } else {
                Vec::new()
            }
        };
        let torn = excess.len();
        for (rts, _) in excess {
            self.inner.discarded.fetch_add(1, Ordering::Relaxed);
            rts.teardown();
        }
        torn
    }

    /// Lease a runtime: warm when available (health-checked), cold-booted
    /// otherwise.
    pub fn lease(&self) -> PilotLease {
        loop {
            let candidate = self.inner.idle.lock().pop();
            match candidate {
                Some((rts, pilot)) if healthy(&rts, pilot) => {
                    self.inner.warm_hits.fetch_add(1, Ordering::Relaxed);
                    return PilotLease {
                        rts: Some(rts),
                        pilot,
                        warm: true,
                        pool: Arc::downgrade(&self.inner),
                    };
                }
                Some((rts, _)) => {
                    // Died while idle (walltime expiry, CI failure): discard
                    // and try the next one.
                    self.inner.discarded.fetch_add(1, Ordering::Relaxed);
                    rts.teardown();
                }
                None => {
                    self.inner.cold_boots.fetch_add(1, Ordering::Relaxed);
                    let (rts, pilot) = self.inner.boot();
                    return PilotLease {
                        rts: Some(rts),
                        pilot,
                        warm: false,
                        pool: Arc::downgrade(&self.inner),
                    };
                }
            }
        }
    }

    /// How many runtimes sit warm in the pool right now.
    pub fn warm_count(&self) -> usize {
        self.inner.idle.lock().len()
    }

    /// Summed DocDb cost counters `(round_trips, documents)` over the idle
    /// runtimes, for the telemetry sampler. Leased runtimes report through
    /// their own holder.
    pub fn db_stats(&self) -> (u64, u64) {
        let idle = self.inner.idle.lock();
        idle.iter()
            .filter_map(|(rts, _)| rts.db_stats())
            .fold((0, 0), |(rt, d), (a, b)| (rt + a, d + b))
    }

    /// Per-unit entries the idle runtimes still hold (see
    /// [`RuntimeSystem::resident_units`]): what finished sessions left
    /// behind, so 0 unless a canceled session's units are still running.
    pub fn resident_units(&self) -> usize {
        let idle = self.inner.idle.lock();
        idle.iter().map(|(rts, _)| rts.resident_units()).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            cold_boots: self.inner.cold_boots.load(Ordering::Relaxed),
            warm_hits: self.inner.warm_hits.load(Ordering::Relaxed),
            returned: self.inner.returned.load(Ordering::Relaxed),
            discarded: self.inner.discarded.load(Ordering::Relaxed),
        }
    }

    /// Drain the pool: tear down every idle runtime and discard future
    /// returns. Returns the cumulative teardown wall time.
    pub fn drain(&self) -> Duration {
        self.inner.draining.store(true, Ordering::Release);
        let idle: Vec<_> = std::mem::take(&mut *self.inner.idle.lock());
        let mut total = Duration::ZERO;
        for (rts, _) in idle {
            total += rts.teardown();
        }
        total
    }
}

/// An exclusive lease on one bootstrapped runtime + ready pilot. Dropping
/// the lease returns the runtime to its pool (when still healthy and the
/// pool has room) or tears it down.
pub struct PilotLease {
    rts: Option<Arc<RuntimeSystem>>,
    pilot: PilotId,
    warm: bool,
    pool: Weak<PoolInner>,
}

impl PilotLease {
    /// The leased runtime.
    pub fn rts(&self) -> &Arc<RuntimeSystem> {
        self.rts.as_ref().expect("lease holds an RTS until dropped")
    }

    /// The leased (ready) pilot on that runtime.
    pub fn pilot(&self) -> PilotId {
        self.pilot
    }

    /// Whether this lease was served warm from the pool (vs cold-booted).
    pub fn was_warm(&self) -> bool {
        self.warm
    }

    /// Return the lease to the pool explicitly (same as dropping it).
    pub fn release(self) {}
}

impl Drop for PilotLease {
    fn drop(&mut self) {
        let Some(rts) = self.rts.take() else { return };
        let pool = self.pool.upgrade();
        // Failpoint `rts.pool.dead_lease_return`: the leased RTS dies at
        // the instant of return — the health check below must catch it and
        // discard the runtime instead of parking a corpse in the warm pool.
        if entk_fail::hit_sleep("rts.pool.dead_lease_return").is_some() {
            rts.kill();
        }
        let ok = healthy(&rts, self.pilot);
        if ok {
            if let Some(pool) = &pool {
                if !pool.draining.load(Ordering::Acquire) {
                    let mut idle = pool.idle.lock();
                    if idle.len() < pool.target.load(Ordering::Acquire) {
                        idle.push((rts, self.pilot));
                        pool.returned.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
        if let Some(pool) = &pool {
            pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
        rts.teardown();
    }
}

impl std::fmt::Debug for PilotLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PilotLease")
            .field("pilot", &self.pilot)
            .field("warm", &self.warm)
            .field("held", &self.rts.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::PlatformId;

    fn pool(capacity: usize) -> PilotPool {
        PilotPool::new(PilotPoolConfig {
            rts: RtsConfig::sim(PlatformId::TestRig),
            pilot: PilotDescription {
                platform: PlatformId::TestRig,
                nodes: 1,
                walltime_secs: 1_000_000_000,
                bootstrap_secs: 0.0,
            },
            capacity,
        })
    }

    #[test]
    fn cold_then_warm_reuse() {
        let pool = pool(2);
        assert_eq!(pool.warm_count(), 0);
        let lease = pool.lease();
        assert!(!lease.was_warm());
        assert!(lease.rts().is_alive());
        let rts_ptr = Arc::as_ptr(lease.rts());
        lease.release();
        assert_eq!(pool.warm_count(), 1);
        let lease = pool.lease();
        assert!(lease.was_warm(), "second lease reuses the returned runtime");
        assert_eq!(Arc::as_ptr(lease.rts()), rts_ptr);
        drop(lease);
        let stats = pool.stats();
        assert_eq!(stats.cold_boots, 1);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.returned, 2);
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn prewarm_fills_pool() {
        let pool = pool(2);
        pool.prewarm(5); // capped at capacity
        assert_eq!(pool.warm_count(), 2);
        let a = pool.lease();
        let b = pool.lease();
        assert!(a.was_warm() && b.was_warm());
        assert_eq!(pool.warm_count(), 0);
    }

    #[test]
    fn dead_runtime_discarded_not_returned() {
        let pool = pool(2);
        let lease = pool.lease();
        lease.rts().kill();
        drop(lease);
        assert_eq!(pool.warm_count(), 0);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn dead_idle_runtime_skipped_on_lease() {
        let pool = pool(2);
        pool.prewarm(1);
        pool.inner.idle.lock()[0].0.kill();
        let lease = pool.lease();
        assert!(!lease.was_warm(), "dead warm runtime must not be served");
        assert!(lease.rts().is_alive());
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn failpoint_dead_lease_return_is_discarded_and_next_lease_is_cold() {
        let _guard = entk_fail::scenario();
        let pool = pool(2);
        let lease = pool.lease();
        entk_fail::arm_once(
            "rts.pool.dead_lease_return",
            entk_fail::InjectedAction::Fail,
        );
        drop(lease); // dies at the return instant
        assert_eq!(pool.warm_count(), 0, "a corpse must not be parked warm");
        assert_eq!(pool.stats().discarded, 1);
        let next = pool.lease();
        assert!(!next.was_warm());
        assert!(next.rts().is_alive(), "replacement lease is healthy");
    }

    #[test]
    fn capacity_bounds_returns() {
        let pool = pool(1);
        let a = pool.lease();
        let b = pool.lease();
        drop(a);
        drop(b); // pool already full: torn down
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn set_capacity_grows_and_shrinks_at_runtime() {
        let pool = pool(1);
        pool.prewarm(1);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.warm_count(), 1);

        // Grow: prewarm now fills up to the new target.
        pool.set_capacity(3);
        assert_eq!(pool.capacity(), 3);
        pool.prewarm(5);
        assert_eq!(pool.warm_count(), 3);

        // Shrink: excess idle runtimes are torn down immediately...
        assert_eq!(pool.set_capacity(1), 2);
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.stats().discarded, 2);

        // ...and surplus lease returns are discarded against the new target.
        let a = pool.lease();
        let b = pool.lease();
        drop(a);
        drop(b);
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.stats().discarded, 3);
    }

    #[test]
    fn drain_tears_down_idle_and_rejects_returns() {
        let pool = pool(4);
        pool.prewarm(2);
        let lease = pool.lease();
        pool.drain();
        assert_eq!(pool.warm_count(), 0);
        drop(lease); // late return discarded
        assert_eq!(pool.warm_count(), 0);
    }
}
