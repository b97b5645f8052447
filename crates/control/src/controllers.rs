//! The pool prescaler: demand-driven warm pilot-pool capacity.

use crate::ControlObservation;

/// [`PoolPrescaler`] thresholds.
#[derive(Debug, Clone)]
pub struct PrescalerConfig {
    /// Never shrink the pool target below this.
    pub min_capacity: usize,
    /// Never grow the pool target above this.
    pub max_capacity: usize,
    /// Consecutive ticks of backlog pressure before growing (debounce).
    pub grow_ticks: u32,
    /// Consecutive fully-idle ticks before shrinking by one.
    pub shrink_ticks: u32,
    /// Ticks to hold still after any actuation.
    pub cooldown_ticks: u32,
}

impl Default for PrescalerConfig {
    fn default() -> Self {
        PrescalerConfig {
            min_capacity: 1,
            max_capacity: 16,
            grow_ticks: 2,
            // Shrinking is deliberately an order of magnitude slower than
            // growing: releasing a warm pilot during a short inter-burst lull
            // forces a cold boot on the next burst, which costs far more than
            // the idle pilot-seconds the early shrink would have saved.
            shrink_ticks: 60,
            cooldown_ticks: 3,
        }
    }
}

/// Grows the warm pilot-pool capacity ahead of demand (queued submissions
/// with no warm pilot left) and shrinks it back once the pool has sat idle:
/// the paper's warm-pool amortization, made demand-driven instead of a
/// hand-picked `warm_pilots` constant.
#[derive(Debug)]
pub struct PoolPrescaler {
    config: PrescalerConfig,
    pressure: u32,
    idle: u32,
    cooldown: u32,
}

impl PoolPrescaler {
    /// Prescaler with the given thresholds.
    pub fn new(config: PrescalerConfig) -> Self {
        PoolPrescaler {
            config,
            pressure: 0,
            idle: 0,
            cooldown: 0,
        }
    }

    /// Observe one sampler tick. Returns the new pool capacity and the
    /// evidence that justified it, or `None` to leave the pool as it is.
    pub fn tick(&mut self, obs: &ControlObservation) -> Option<(usize, String)> {
        let capacity = obs.pool_capacity.max(0) as usize;
        // Pressure: work is waiting and the warm pool can't cover it.
        let pressured = obs.queued > 0 && obs.warm_pilots == 0;
        // Idle: nothing waiting and at least one warm pilot never leased.
        let idle = obs.queued == 0 && obs.warm_pilots > obs.active.max(0);
        self.pressure = if pressured { self.pressure + 1 } else { 0 };
        self.idle = if idle { self.idle + 1 } else { 0 };
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if self.pressure >= self.config.grow_ticks && capacity < self.config.max_capacity {
            // Target peak concurrency — running plus waiting submissions —
            // so every returned lease stays warm for the next burst instead
            // of being discarded back down to a too-small capacity. No more
            // than max_active can ever be leased at once, so pilots beyond
            // that would only idle; and if the target is already covered the
            // backlog is a worker-slot problem, not a pool problem — growing
            // further would just ratchet capacity to the ceiling.
            let mut demand = (obs.active.max(0) + obs.queued.max(0)) as usize;
            if obs.max_active > 0 {
                demand = demand.min(obs.max_active as usize);
            }
            self.pressure = 0;
            if demand > capacity {
                let target = demand.min(self.config.max_capacity);
                self.cooldown = self.config.cooldown_ticks;
                return Some((
                    target,
                    format!(
                        "queued={} active={} warm=0 for {} ticks: capacity {}->{}",
                        obs.queued, obs.active, self.config.grow_ticks, capacity, target
                    ),
                ));
            }
        }
        if self.idle >= self.config.shrink_ticks && capacity > self.config.min_capacity {
            let target = capacity - 1;
            self.idle = 0;
            self.cooldown = self.config.cooldown_ticks;
            return Some((
                target,
                format!(
                    "idle (queued=0, warm={}) for {} ticks: capacity {}->{}",
                    obs.warm_pilots, self.config.shrink_ticks, capacity, target
                ),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> ControlObservation {
        ControlObservation {
            pool_capacity: 2,
            max_active: 4,
            ..Default::default()
        }
    }

    #[test]
    fn prescaler_grows_under_sustained_backlog_only() {
        let mut p = PoolPrescaler::new(PrescalerConfig {
            grow_ticks: 2,
            cooldown_ticks: 1,
            max_capacity: 8,
            ..Default::default()
        });
        let mut o = obs();
        o.queued = 3;
        o.active = 4;
        o.warm_pilots = 0;
        assert!(p.tick(&o).is_none(), "one pressured tick is a blip");
        let (capacity, evidence) = p.tick(&o).expect("grows");
        assert_eq!(
            capacity, 4,
            "targets peak concurrency, capped by max_active(4)"
        );
        assert!(evidence.contains("queued=3"));
        // Cooldown holds the next actuation back even under pressure.
        assert!(p.tick(&o).is_none());
    }

    #[test]
    fn prescaler_growth_respects_ceiling() {
        let mut p = PoolPrescaler::new(PrescalerConfig {
            grow_ticks: 1,
            max_capacity: 3,
            ..Default::default()
        });
        let mut o = obs();
        o.queued = 50;
        o.warm_pilots = 0;
        assert_eq!(p.tick(&o).map(|(c, _)| c), Some(3));
        // At the ceiling: no further growth.
        o.pool_capacity = 3;
        for _ in 0..5 {
            assert!(p.tick(&o).is_none());
        }
    }

    #[test]
    fn prescaler_shrinks_after_sustained_idle() {
        let mut p = PoolPrescaler::new(PrescalerConfig {
            shrink_ticks: 3,
            cooldown_ticks: 0,
            min_capacity: 1,
            ..Default::default()
        });
        let mut o = obs();
        o.pool_capacity = 4;
        o.warm_pilots = 4;
        o.queued = 0;
        o.active = 0;
        assert!(p.tick(&o).is_none());
        assert!(p.tick(&o).is_none());
        assert_eq!(p.tick(&o).map(|(c, _)| c), Some(3));
        // A lease resets the idle streak.
        o.active = 4;
        o.warm_pilots = 0;
        assert!(p.tick(&o).is_none());
    }
}
