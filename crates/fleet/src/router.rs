//! The shard router: seeded consistent hashing with bounded-load
//! overflow.
//!
//! Each shard owns `vnodes` points on a 64-bit hash ring; a key is owned
//! by the first active point clockwise of its hash. Two properties matter
//! to a fleet:
//!
//! * **Bounded remapping** — draining or losing a shard moves only the
//!   keys that shard owned (≈ `vnodes/total` of the ring); every other
//!   key keeps its shard, so warm queues and batches stay warm. The
//!   property tests pin this.
//! * **Bounded load** — a key whose home shard is already loaded past
//!   `bound ×` the mean walks the ring to the next active shard under the
//!   threshold (the "power of consistent choices" construction), falling
//!   back to the least-loaded active shard when every successor is hot.
//!
//! The ring is a pure function of `(seed, shards, vnodes)` — reruns and
//! remote replicas agree on every route without coordination.

use crate::hash::hash2;

/// A consistent-hash ring over shard indices `0..shards`.
#[derive(Clone, Debug)]
pub struct Router {
    /// `(point, shard)`, sorted by point.
    ring: Vec<(u64, usize)>,
    active: Vec<bool>,
    seed: u64,
}

impl Router {
    /// Builds the ring for `shards` shards with `vnodes` points each.
    pub fn new(seed: u64, shards: usize, vnodes: usize) -> Router {
        assert!(shards > 0, "a router needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one ring point");
        let mut ring = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                ring.push((hash2(seed, ((s as u64) << 32) | v as u64), s));
            }
        }
        ring.sort_unstable();
        Router {
            ring,
            active: vec![true; shards],
            seed,
        }
    }

    /// Number of shards (active or not).
    pub fn shards(&self) -> usize {
        self.active.len()
    }

    /// Marks a shard active (serving) or drained.
    pub fn set_active(&mut self, shard: usize, active: bool) {
        self.active[shard] = active;
    }

    /// Active shard count.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Index into the ring of the first point at or after `key`'s hash.
    fn home_position(&self, key: u64) -> usize {
        let h = hash2(self.seed ^ 0x5EED_0001, key);
        match self.ring.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.ring.len(),
        }
    }

    /// The key's home shard: the first *active* shard clockwise of its
    /// hash. `None` when every shard is drained.
    pub fn route(&self, key: u64) -> Option<usize> {
        let start = self.home_position(key);
        for off in 0..self.ring.len() {
            let (_, s) = self.ring[(start + off) % self.ring.len()];
            if self.active[s] {
                return Some(s);
            }
        }
        None
    }

    /// Routes with bounded load: starting at the key's home shard, walks
    /// successive distinct active shards clockwise and picks the first
    /// whose `loads` entry is at most `bound ×` the mean active load;
    /// when every shard is past the threshold, the least-loaded active
    /// shard (lowest index on ties) takes the key. Returns the shard and
    /// whether the key overflowed past its home.
    ///
    /// `loads` is indexed by shard; entries of drained shards are
    /// ignored. `None` when every shard is drained.
    pub fn route_bounded(&self, key: u64, loads: &[f64], bound: f64) -> Option<(usize, bool)> {
        assert_eq!(loads.len(), self.active.len(), "one load per shard");
        let home = self.route(key)?;
        let active: Vec<usize> = (0..self.active.len()).filter(|&s| self.active[s]).collect();
        let mean = active.iter().map(|&s| loads[s]).sum::<f64>() / active.len() as f64;
        let threshold = bound * mean;
        // Walk distinct active shards in ring order from the home point.
        let start = self.home_position(key);
        let mut seen = vec![false; self.active.len()];
        let mut visited = 0usize;
        for off in 0..self.ring.len() {
            let (_, s) = self.ring[(start + off) % self.ring.len()];
            if !self.active[s] || seen[s] {
                continue;
            }
            seen[s] = true;
            visited += 1;
            if loads[s] <= threshold {
                return Some((s, s != home));
            }
            if visited == active.len() {
                break;
            }
        }
        let least = active
            .into_iter()
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            .expect("at least one active shard");
        Some((least, least != home))
    }

    /// The next distinct *active* shard clockwise of `key`'s home point,
    /// skipping `exclude` — the hedge target for a request already routed
    /// to `exclude`. `None` when no other active shard exists.
    pub fn next_distinct(&self, key: u64, exclude: usize) -> Option<usize> {
        let start = self.home_position(key);
        for off in 0..self.ring.len() {
            let (_, s) = self.ring[(start + off) % self.ring.len()];
            if s != exclude && self.active[s] {
                return Some(s);
            }
        }
        None
    }
}

/// Consecutive capacity-attributed timeouts that trip a closed breaker
/// open.
const OPEN_AFTER: usize = 3;

/// Knobs of the per-shard circuit breaker.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Simulated seconds an open breaker rests before admitting a
    /// half-open probe.
    pub cooldown_s: f64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy { cooldown_s: 0.25 }
    }
}

/// Circuit-breaker state of one shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BreakerState {
    /// Healthy: requests route normally.
    Closed,
    /// Ejected from the ring until `until_s`; its keys overflow to ring
    /// successors.
    Open {
        /// Simulated second the cooldown expires and a probe is allowed.
        until_s: f64,
    },
    /// Back on the ring for probe traffic; the next outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for transition logs and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One logged breaker transition.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerTransition {
    /// Simulated second of the transition.
    pub t_s: f64,
    /// State left.
    pub from: &'static str,
    /// State entered.
    pub to: &'static str,
}

/// Health score and circuit breaker of one shard, fed by the fleet
/// driver's completion/timeout signals.
///
/// The state machine is the classic three-state breaker: three
/// consecutive capacity-attributed timeouts trip **closed → open** (the
/// shard leaves the ring); after `cooldown_s` the breaker turns
/// **half-open** and readmits the shard for probe traffic; the probe's
/// outcome either closes the breaker or re-opens it for another cooldown.
/// Every transition is timestamped in [`transitions`](Self::transitions).
#[derive(Clone, Debug)]
pub struct ShardHealth {
    policy: HealthPolicy,
    state: BreakerState,
    consecutive_timeouts: usize,
    transitions: Vec<BreakerTransition>,
}

impl ShardHealth {
    /// A closed breaker under `policy`.
    pub fn new(policy: HealthPolicy) -> ShardHealth {
        ShardHealth {
            policy,
            state: BreakerState::Closed,
            consecutive_timeouts: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The timestamped transition log, oldest first.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, t_s: f64, to: BreakerState) {
        self.transitions.push(BreakerTransition {
            t_s,
            from: self.state.label(),
            to: to.label(),
        });
        self.state = to;
    }

    /// Records a capacity-attributed timeout at `t_s`. Returns `true`
    /// when this timeout newly opened the breaker (closed → open or a
    /// failed half-open probe).
    pub fn on_timeout(&mut self, t_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_timeouts += 1;
                if self.consecutive_timeouts >= OPEN_AFTER {
                    self.consecutive_timeouts = 0;
                    self.transition(
                        t_s,
                        BreakerState::Open {
                            until_s: t_s + self.policy.cooldown_s,
                        },
                    );
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                self.transition(
                    t_s,
                    BreakerState::Open {
                        until_s: t_s + self.policy.cooldown_s,
                    },
                );
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records a completion at `t_s`. Closed: clears the timeout streak.
    /// Half-open: the probe passed, so the breaker closes.
    pub fn on_success(&mut self, t_s: f64) {
        match self.state {
            BreakerState::Closed => self.consecutive_timeouts = 0,
            BreakerState::HalfOpen => self.transition(t_s, BreakerState::Closed),
            BreakerState::Open { .. } => {}
        }
    }

    /// Advances the clock: an open breaker past its cooldown turns
    /// half-open. Returns `true` on that transition (the caller readmits
    /// the shard to the ring for probe traffic).
    pub fn tick(&mut self, t_s: f64) -> bool {
        if let BreakerState::Open { until_s } = self.state {
            if t_s >= until_s {
                self.transition(t_s, BreakerState::HalfOpen);
                return true;
            }
        }
        false
    }

    /// Pushes an open breaker's cooldown out to at least `until_s` — the
    /// self-healing path parks the breaker until the re-placement's
    /// estimated restore time so probes land on working boards.
    pub fn extend_open(&mut self, until_s: f64) {
        if let BreakerState::Open { until_s: cur } = self.state {
            self.state = BreakerState::Open {
                until_s: cur.max(until_s),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;

    const KEYS: u64 = 20_000;
    const SHARDS: usize = 10;
    const VNODES: usize = 64;

    fn keys() -> impl Iterator<Item = u64> {
        (0..KEYS).map(|i| splitmix64(0xABCD ^ i))
    }

    #[test]
    fn routing_is_deterministic_in_the_seed() {
        let a = Router::new(7, SHARDS, VNODES);
        let b = Router::new(7, SHARDS, VNODES);
        let c = Router::new(8, SHARDS, VNODES);
        assert!(keys().all(|k| a.route(k) == b.route(k)));
        assert!(keys().any(|k| a.route(k) != c.route(k)));
    }

    #[test]
    fn draining_any_shard_only_remaps_its_own_keys() {
        // The consistent-hashing contract, as a property over every
        // possible victim: keys not homed on the drained shard keep
        // their shard, exactly; the drained shard's share of the ring is
        // O(1/n) with vnode-level concentration bounds.
        let before: Vec<usize> = {
            let r = Router::new(42, SHARDS, VNODES);
            keys().map(|k| r.route(k).unwrap()).collect()
        };
        for victim in 0..SHARDS {
            let mut r = Router::new(42, SHARDS, VNODES);
            let owned = before.iter().filter(|&&s| s == victim).count();
            r.set_active(victim, false);
            let mut moved = 0usize;
            for (k, &was) in keys().zip(&before) {
                let now = r.route(k).unwrap();
                assert_ne!(now, victim, "drained shard must receive nothing");
                if was != victim {
                    assert_eq!(now, was, "key {k:#x} moved without losing its home");
                } else {
                    moved += 1;
                }
            }
            assert_eq!(moved, owned);
            // The victim's share of the keyspace stays near 1/n.
            let share = owned as f64 / KEYS as f64;
            assert!(
                share < 2.5 / SHARDS as f64,
                "shard {victim} owned {share:.3} of the keyspace"
            );
        }
    }

    #[test]
    fn reactivating_restores_the_original_routing() {
        let mut r = Router::new(42, SHARDS, VNODES);
        let before: Vec<usize> = keys().map(|k| r.route(k).unwrap()).collect();
        r.set_active(5, false);
        r.set_active(5, true);
        let after: Vec<usize> = keys().map(|k| r.route(k).unwrap()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn bounded_load_spreads_within_the_bound() {
        // Route a key stream while accounting unit load per key; no shard
        // may end past bound x mean + 1 (the +1 absorbing the in-flight
        // key that crossed the threshold).
        let r = Router::new(9, SHARDS, VNODES);
        let bound = 1.25f64;
        let mut loads = vec![0.0f64; SHARDS];
        for k in keys() {
            let (s, _) = r.route_bounded(k, &loads, bound).unwrap();
            loads[s] += 1.0;
        }
        let mean = loads.iter().sum::<f64>() / SHARDS as f64;
        for (s, &l) in loads.iter().enumerate() {
            assert!(
                l <= bound * mean + 1.0,
                "shard {s} holds {l} of mean {mean} (bound {bound})"
            );
        }
    }

    #[test]
    fn unloaded_routes_stay_home_and_every_drain_leaves_a_route() {
        let mut r = Router::new(11, 4, 32);
        let loads = vec![0.0; 4];
        for k in keys().take(500) {
            let (s, overflowed) = r.route_bounded(k, &loads, 1.5).unwrap();
            assert_eq!(Some(s), r.route(k));
            assert!(!overflowed, "zero load must never overflow");
        }
        for s in 0..3 {
            r.set_active(s, false);
        }
        assert!(keys().take(100).all(|k| r.route(k) == Some(3)));
        r.set_active(3, false);
        assert_eq!(r.route(1), None);
        assert_eq!(r.route_bounded(1, &loads, 1.5), None);
    }

    #[test]
    fn hedge_target_is_a_distinct_active_shard() {
        let mut r = Router::new(13, 5, 32);
        for k in keys().take(500) {
            let home = r.route(k).unwrap();
            let hedge = r.next_distinct(k, home).unwrap();
            assert_ne!(hedge, home, "hedge must leave the primary shard");
        }
        // With one shard left there is nowhere to hedge to.
        for s in 0..4 {
            r.set_active(s, false);
        }
        assert_eq!(r.next_distinct(1, 4), None);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut h = ShardHealth::new(HealthPolicy { cooldown_s: 1.0 });
        assert_eq!(h.state(), BreakerState::Closed);
        // Two timeouts then a success: the streak resets, no trip.
        assert!(!h.on_timeout(0.1));
        assert!(!h.on_timeout(0.2));
        h.on_success(0.3);
        assert!(!h.on_timeout(0.4));
        assert!(!h.on_timeout(0.5));
        assert!(h.on_timeout(0.6), "third consecutive timeout trips");
        assert_eq!(h.state(), BreakerState::Open { until_s: 1.6 });
        // Open ignores further signals and holds until the cooldown.
        assert!(!h.on_timeout(0.7));
        h.on_success(0.8);
        assert!(!h.tick(1.0), "cooldown not yet elapsed");
        assert!(h.tick(1.6), "cooldown elapsed: half-open");
        // One probe success closes the breaker.
        h.on_success(1.7);
        assert_eq!(h.state(), BreakerState::Closed);
        let labels: Vec<(&str, &str)> = h.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            labels,
            vec![
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed")
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_without_flapping_closed() {
        // A shard that keeps timing out must cycle open → half-open →
        // open, never touching closed, and extend_open must push the
        // cooldown out instead of resetting state.
        let mut h = ShardHealth::new(HealthPolicy::default());
        for i in 0..OPEN_AFTER {
            h.on_timeout(0.01 * (i + 1) as f64);
        }
        let BreakerState::Open { until_s } = h.state() else {
            panic!("breaker must be open");
        };
        assert!(h.tick(until_s));
        assert!(h.on_timeout(until_s + 0.01), "failed probe re-opens");
        h.extend_open(until_s + 10.0);
        assert_eq!(
            h.state(),
            BreakerState::Open {
                until_s: until_s + 10.0
            }
        );
        assert!(!h.tick(until_s + 5.0), "extended cooldown holds");
        assert!(
            h.transitions().iter().all(|t| t.to != "closed"),
            "breaker never closed: {:?}",
            h.transitions()
        );
    }
}
