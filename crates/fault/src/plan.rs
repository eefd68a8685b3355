//! Fault plans and the armed handle the instrumented layers probe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::rng::{fnv1a64, SplitMix64};

/// Well-known injection sites. The string is the contract between a
/// [`FaultRule`] and the layer that probes it; every site wired into the
/// workspace is listed here and in [`site::ALL`], so plans and docs have
/// one vocabulary and a parsed plan cannot name a site nothing probes.
pub mod site {
    /// SAT search loop: force an early `Outcome::Aborted`.
    pub const SAT_ABORT: &str = "sat.abort";
    /// SAT search loop: spurious conflict storm — the solver behaves as if
    /// it burned through its whole backtrack budget (`BacktrackLimit`).
    pub const SAT_CONFLICT_STORM: &str = "sat.conflict-storm";
    /// Service accept loop: the freshly accepted connection is dropped as
    /// if `accept(2)` had failed.
    pub const SVC_ACCEPT: &str = "svc.accept";
    /// Service handler: the connection is dropped before the request is
    /// read (premature EOF towards the client).
    pub const SVC_READ_TORN: &str = "svc.read-torn";
    /// Service handler: only a prefix of the response is written before
    /// the connection drops (torn write).
    pub const SVC_WRITE_TORN: &str = "svc.write-torn";
    /// Service handler: the response is delayed by the rule's delay
    /// (slow peer).
    pub const SVC_SLOW_PEER: &str = "svc.slow-peer";
    /// Service synthesis: the run panics after synthesis returned, inside
    /// the handler's containment, so its result is discarded (a 500).
    pub const SVC_SYNTH_PANIC: &str = "svc.synth-panic";
    /// Synthesis store: every resident entry is evicted before an insert
    /// (eviction storm).
    pub const CACHE_EVICT_STORM: &str = "cache.evict-storm";
    /// Durable store journal: only half of the frame reaches the file
    /// before the "crash" (torn append). Recovery must truncate the tail.
    pub const STORE_WAL_TORN_WRITE: &str = "store.wal-torn-write";
    /// Durable store recovery: the snapshot generation under inspection is
    /// treated as corrupt, forcing the previous-generation (or cold)
    /// fallback path.
    pub const STORE_SNAPSHOT_CORRUPT: &str = "store.snapshot-corrupt";
    /// Replica fleet supervisor: SIGKILL one replica, as if the OOM killer
    /// got it mid-traffic.
    pub const FLEET_REPLICA_KILL: &str = "fleet.replica-kill";

    /// Every site above: the names [`FaultPlan::parse`](super::FaultPlan::parse)
    /// accepts.
    pub const ALL: &[&str] = &[
        SAT_ABORT,
        SAT_CONFLICT_STORM,
        SVC_ACCEPT,
        SVC_READ_TORN,
        SVC_WRITE_TORN,
        SVC_SLOW_PEER,
        SVC_SYNTH_PANIC,
        CACHE_EVICT_STORM,
        STORE_WAL_TORN_WRITE,
        STORE_SNAPSHOT_CORRUPT,
        FLEET_REPLICA_KILL,
    ];
}

/// One site's injection rule inside a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The site this rule fires at (see [`site`]).
    pub site: String,
    /// Let the first `skip` eligible probes pass untouched.
    pub skip: u64,
    /// Inject at most this many times (`u64::MAX` = unlimited).
    pub max_hits: u64,
    /// Probability of injecting on an eligible probe, as `num/denom`.
    pub num: u32,
    /// See [`FaultRule::num`].
    pub denom: u32,
    /// Delay carried by the stall-style site (`svc.slow-peer`); ignored by
    /// the boolean sites.
    pub delay: Duration,
}

impl FaultRule {
    /// A rule that always fires at `site`, every eligible probe, forever.
    pub fn at(site: &str) -> FaultRule {
        FaultRule {
            site: site.to_string(),
            skip: 0,
            max_hits: u64::MAX,
            num: 1,
            denom: 1,
            delay: Duration::from_millis(25),
        }
    }

    /// Let the first `n` probes pass before becoming eligible.
    #[must_use]
    pub fn skip(mut self, n: u64) -> FaultRule {
        self.skip = n;
        self
    }

    /// Inject at most `n` times, then fall silent (faults "clear").
    #[must_use]
    pub fn times(mut self, n: u64) -> FaultRule {
        self.max_hits = n;
        self
    }

    /// Fire with probability `num/denom` per eligible probe.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn chance(mut self, num: u32, denom: u32) -> FaultRule {
        assert!(denom > 0, "chance denominator must be non-zero");
        self.num = num;
        self.denom = denom;
        self
    }

    /// Delay for stall-style sites.
    #[must_use]
    pub fn delay(mut self, delay: Duration) -> FaultRule {
        self.delay = delay;
        self
    }
}

/// A named, seeded description of which faults to inject where.
///
/// A plan is inert data; [`FaultPlan::arm`] turns it into a live
/// [`Faults`] handle. Equal plans (same name, seed and rules) arm into
/// handles that make identical injection decisions given identical probe
/// sequences — chaos runs are reproducible from the plan alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name, carried into reports and logs.
    pub name: String,
    /// Seed for every rule's decision stream.
    pub seed: u64,
    /// The injection rules.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (arms into a handle that never injects).
    pub fn new(name: &str, seed: u64) -> FaultPlan {
        FaultPlan {
            name: name.to_string(),
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Arms the plan: the returned handle (and its clones) injects.
    pub fn arm(&self) -> Faults {
        let rules = self
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| RuleState {
                rule: rule.clone(),
                state: Mutex::new(Decider {
                    rng: SplitMix64::new(
                        self.seed ^ fnv1a64(rule.site.as_bytes()) ^ (i as u64) << 32,
                    ),
                    probes: 0,
                    hits: 0,
                }),
            })
            .collect();
        Faults {
            inner: Some(Arc::new(Armed {
                name: self.name.clone(),
                enabled: AtomicBool::new(true),
                rules,
                injected: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Parses a compact plan spec: comma-separated rules of the form
    /// `site[*max][+skip][@num/denom][~delay_ms]`, e.g.
    /// `sat.abort*2,svc.synth-panic@1/4,svc.slow-peer~50`. Used by the
    /// `chaosmat` matrix and the `modsynd --faults` flag.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed rule; a site
    /// outside [`site::ALL`] is malformed, since nothing would probe it.
    pub fn parse(name: &str, spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(name, seed);
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let mut rest = part;
            let site_end = rest.find(['*', '+', '@', '~']).unwrap_or(rest.len());
            let at = &rest[..site_end];
            if at.is_empty() {
                return Err(format!("rule {part:?}: empty site"));
            }
            if !site::ALL.contains(&at) {
                return Err(format!(
                    "rule {part:?}: unknown site {at:?} (known: {})",
                    site::ALL.join(", ")
                ));
            }
            let mut rule = FaultRule::at(at);
            rest = &rest[site_end..];
            while !rest.is_empty() {
                let (op, tail) = rest.split_at(1);
                let val_end = tail.find(['*', '+', '@', '~']).unwrap_or(tail.len());
                let (value, next) = tail.split_at(val_end);
                match op {
                    "*" => {
                        rule.max_hits = value
                            .parse()
                            .map_err(|_| format!("rule {part:?}: bad max {value:?}"))?;
                    }
                    "+" => {
                        rule.skip = value
                            .parse()
                            .map_err(|_| format!("rule {part:?}: bad skip {value:?}"))?;
                    }
                    "@" => {
                        let (n, d) = value
                            .split_once('/')
                            .ok_or_else(|| format!("rule {part:?}: chance needs num/denom"))?;
                        rule.num = n
                            .parse()
                            .map_err(|_| format!("rule {part:?}: bad num {n:?}"))?;
                        rule.denom = d
                            .parse()
                            .map_err(|_| format!("rule {part:?}: bad denom {d:?}"))?;
                        if rule.denom == 0 {
                            return Err(format!("rule {part:?}: denom must be non-zero"));
                        }
                    }
                    "~" => {
                        let ms: u64 = value
                            .parse()
                            .map_err(|_| format!("rule {part:?}: bad delay {value:?}"))?;
                        rule.delay = Duration::from_millis(ms);
                    }
                    _ => unreachable!("split on known operators"),
                }
                rest = next;
            }
            plan.rules.push(rule);
        }
        Ok(plan)
    }
}

/// One injection, as recorded in the armed plan's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that fired.
    pub site: String,
    /// 1-based probe count at that site when it fired.
    pub probe: u64,
    /// 1-based hit count at that site (this event included).
    pub hit: u64,
}

struct Decider {
    rng: SplitMix64,
    probes: u64,
    hits: u64,
}

struct RuleState {
    rule: FaultRule,
    state: Mutex<Decider>,
}

struct Armed {
    name: String,
    enabled: AtomicBool,
    rules: Vec<RuleState>,
    injected: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
}

/// Anything that can decide whether a named site should fail right now.
///
/// [`Faults`] is the standard implementation; the trait exists so tests
/// can substitute scripted hooks without building a plan.
pub trait FaultHook: Send + Sync {
    /// Probes `site`; `true` means inject the site's fault now.
    fn fire(&self, site: &str) -> bool;

    /// Probes a stall-style `site`; `Some(delay)` means stall for `delay`.
    fn stall(&self, site: &str) -> Option<Duration>;
}

/// A cloneable handle to an armed [`FaultPlan`] — or to nothing.
///
/// Mirrors the `CancelToken` idiom: [`Faults::none`] (the `Default`)
/// carries no state, so probing a disarmed handle is a branch on `None`
/// and the instrumented hot paths pay nothing when chaos is off. All
/// clones share the armed plan's counters, so a plan threaded into
/// several layers (solver + store + service) draws every decision from one
/// deterministic per-site stream.
#[derive(Clone, Default)]
pub struct Faults {
    inner: Option<Arc<Armed>>,
}

impl Faults {
    /// The inert handle: never injects, costs one branch per probe.
    pub fn none() -> Faults {
        Faults { inner: None }
    }

    /// Whether a plan is armed behind this handle.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The armed plan's name, if any.
    pub fn plan_name(&self) -> Option<String> {
        self.inner.as_ref().map(|a| a.name.clone())
    }

    /// Pauses or resumes injection without dropping the plan's counters;
    /// `set_enabled(false)` is how a chaos run "clears" its faults while
    /// keeping the log for assertions.
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(armed) = &self.inner {
            armed.enabled.store(enabled, Ordering::Release);
        }
    }

    /// Total injections across all sites so far.
    pub fn total_injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |a| a.injected.load(Ordering::Acquire))
    }

    /// Injections at one site so far.
    pub fn injected_at(&self, site: &str) -> u64 {
        let Some(armed) = &self.inner else { return 0 };
        armed
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|e| e.site == site)
            .count() as u64
    }

    /// A copy of the injection log, in firing order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |a| {
            a.log.lock().unwrap_or_else(PoisonError::into_inner).clone()
        })
    }

    fn decide(&self, site: &str) -> Option<&RuleState> {
        let armed = self.inner.as_deref()?;
        if !armed.enabled.load(Ordering::Acquire) {
            return None;
        }
        armed.rules.iter().find(|r| r.rule.site == site)
    }

    fn probe(&self, site: &str) -> bool {
        let Some(rule_state) = self.decide(site) else {
            return false;
        };
        let rule = &rule_state.rule;
        let mut decider = rule_state
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        decider.probes += 1;
        if decider.probes <= rule.skip || decider.hits >= rule.max_hits {
            return false;
        }
        // Draw even on certain rules so adding `@1/1` to a plan does not
        // shift the stream of a later probabilistic rule at the same site.
        if !decider.rng.chance(rule.num as usize, rule.denom as usize) {
            return false;
        }
        decider.hits += 1;
        let event = FaultEvent {
            site: rule.site.clone(),
            probe: decider.probes,
            hit: decider.hits,
        };
        drop(decider);
        let armed = self.inner.as_deref().expect("decide returned a rule");
        armed.injected.fetch_add(1, Ordering::AcqRel);
        armed
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
        true
    }
}

impl FaultHook for Faults {
    fn fire(&self, site: &str) -> bool {
        self.probe(site)
    }

    fn stall(&self, site: &str) -> Option<Duration> {
        if !self.probe(site) {
            return None;
        }
        let rule_state = self.decide(site).expect("probe hit implies a rule");
        Some(rule_state.rule.delay)
    }
}

impl std::fmt::Debug for Faults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Faults(none)"),
            Some(a) => f
                .debug_struct("Faults")
                .field("plan", &a.name)
                .field("rules", &a.rules.len())
                .field("injected", &a.injected.load(Ordering::Acquire))
                .finish(),
        }
    }
}

/// Handles compare by identity: clones of one armed handle are equal, two
/// independently armed plans are not, and all disarmed handles are equal —
/// the same contract as `CancelToken`, so options structs holding a
/// `Faults` keep a meaningful `PartialEq`.
impl PartialEq for Faults {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_handle_never_fires() {
        let faults = Faults::none();
        assert!(!faults.is_armed());
        assert!(!faults.fire(site::SAT_ABORT));
        assert!(faults.stall(site::SVC_SLOW_PEER).is_none());
        assert_eq!(faults.total_injected(), 0);
        assert_eq!(faults, Faults::default());
    }

    #[test]
    fn certain_rule_fires_every_probe_up_to_max() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(3))
            .arm();
        let hits = (0..10).filter(|_| faults.fire(site::SAT_ABORT)).count();
        assert_eq!(hits, 3, "max_hits bounds injections");
        assert_eq!(faults.injected_at(site::SAT_ABORT), 3);
        let events = faults.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].probe, 1);
        assert_eq!(events[2].hit, 3);
    }

    #[test]
    fn skip_lets_early_probes_pass() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SVC_ACCEPT).skip(2).times(1))
            .arm();
        assert!(!faults.fire(site::SVC_ACCEPT));
        assert!(!faults.fire(site::SVC_ACCEPT));
        assert!(faults.fire(site::SVC_ACCEPT));
        assert!(!faults.fire(site::SVC_ACCEPT), "exhausted after one hit");
    }

    #[test]
    fn same_plan_same_decisions() {
        let plan = FaultPlan::new("t", 99)
            .rule(FaultRule::at(site::SVC_ACCEPT).chance(1, 3))
            .rule(FaultRule::at(site::SAT_ABORT).chance(1, 2));
        let a = plan.arm();
        let b = plan.arm();
        for _ in 0..200 {
            assert_eq!(a.fire(site::SVC_ACCEPT), b.fire(site::SVC_ACCEPT));
            assert_eq!(a.fire(site::SAT_ABORT), b.fire(site::SAT_ABORT));
        }
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let f = FaultPlan::new("t", seed)
                .rule(FaultRule::at(site::SVC_ACCEPT).chance(1, 2))
                .arm();
            (0..64)
                .map(|_| f.fire(site::SVC_ACCEPT))
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn unlisted_site_never_fires() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT))
            .arm();
        assert!(!faults.fire(site::SVC_ACCEPT));
        assert!(faults.fire(site::SAT_ABORT));
    }

    #[test]
    fn set_enabled_pauses_and_resumes() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT))
            .arm();
        assert!(faults.fire(site::SAT_ABORT));
        faults.set_enabled(false);
        assert!(!faults.fire(site::SAT_ABORT), "paused plans do not inject");
        faults.set_enabled(true);
        assert!(faults.fire(site::SAT_ABORT));
        assert_eq!(faults.total_injected(), 2);
    }

    #[test]
    fn stall_returns_the_rule_delay() {
        let faults = FaultPlan::new("t", 1)
            .rule(
                FaultRule::at(site::SVC_SLOW_PEER)
                    .times(1)
                    .delay(Duration::from_millis(7)),
            )
            .arm();
        assert_eq!(
            faults.stall(site::SVC_SLOW_PEER),
            Some(Duration::from_millis(7))
        );
        assert_eq!(faults.stall(site::SVC_SLOW_PEER), None);
    }

    #[test]
    fn clones_share_counters() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .arm();
        let clone = faults.clone();
        assert!(clone.fire(site::SAT_ABORT));
        assert!(!faults.fire(site::SAT_ABORT), "hit budget is shared");
        assert_eq!(faults, clone);
    }

    #[test]
    fn parse_round_trips_the_operators() {
        let plan = FaultPlan::parse(
            "mix",
            "sat.abort*2,svc.synth-panic+3@1/4,svc.slow-peer~50,cache.evict-storm",
            7,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].site, "sat.abort");
        assert_eq!(plan.rules[0].max_hits, 2);
        assert_eq!(plan.rules[1].skip, 3);
        assert_eq!(plan.rules[1].num, 1);
        assert_eq!(plan.rules[1].denom, 4);
        assert_eq!(plan.rules[2].delay, Duration::from_millis(50));
        assert_eq!(plan.rules[3].max_hits, u64::MAX);
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        assert!(FaultPlan::parse("t", "*3", 0).is_err());
        assert!(FaultPlan::parse("t", "sat.abort@1", 0).is_err());
        assert!(FaultPlan::parse("t", "sat.abort@1/0", 0).is_err());
        assert!(FaultPlan::parse("t", "svc.slow-peer~ms", 0).is_err());
        assert!(FaultPlan::parse("t", "sat.abort*many", 0).is_err());
    }

    #[test]
    fn parse_accepts_every_known_site_and_only_those() {
        for &at in site::ALL {
            let plan = FaultPlan::parse("t", at, 0).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(plan.rules[0].site, at);
        }
        // A site nothing probes would arm a plan that never fires.
        for unknown in ["pool.run", "svc.write-tron", "site"] {
            let err = FaultPlan::parse("t", &format!("sat.abort,{unknown}*1"), 0).unwrap_err();
            assert!(err.contains(&format!("unknown site {unknown:?}")), "{err}");
            assert!(
                err.contains(site::SVC_WRITE_TORN),
                "lists the known sites: {err}"
            );
        }
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Faults>();
    }
}
