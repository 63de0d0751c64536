//! Seeded fault plans: the one decision core behind every chaos layer.
//!
//! Each fault family — device channel faults, manual corruption, serving
//! disturbances, persistence crashes — is a [`FaultClass`] enum plus an
//! apply step that knows what the fault does. Deciding *whether* and
//! *which* fault strikes is shared: a [`SeededPlan`] draws from a seeded
//! RNG under one lock and records every injection in a drainable log, so a
//! chaos run replays bit-for-bit from its seed.
//!
//! The draw discipline, per decision:
//!
//! 1. for each class in [`FaultClass::ALL`] order, draw
//!    `rate > 0.0 && gen_bool(rate)`;
//! 2. keep drawing after a hit, so every decision consumes the same draws
//!    whatever its outcome;
//! 3. the first hit the caller's filter accepts wins;
//! 4. [`SeededPlan::decide_placed`] then draws one more `f64` in `[0, 1)`,
//!    hit or miss, to place the fault (the crash plan's byte offset).
//!
//! Every plan is armed from a `seed:rate` spec ([`parse_seed_rate`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A closed family of injectable fault classes.
pub trait FaultClass: Copy + PartialEq + fmt::Display + 'static {
    /// Every class, in the order a [`SeededPlan`] draws them.
    const ALL: &'static [Self];
}

/// One recorded injection: which class hit which subject, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection<K, S> {
    /// Monotonic injection sequence number (0-based).
    pub seq: u64,
    pub kind: K,
    /// What the fault hit: a request line, a page URL, a script index or
    /// a persistence site.
    pub subject: S,
}

struct Draws<K, S> {
    rng: StdRng,
    seq: u64,
    log: Vec<Injection<K, S>>,
}

/// A seeded, shareable fault plan over the classes `K`, logging the
/// subjects `S` it strikes.
///
/// Thread-safe: concurrent callers serialize their draws through an
/// internal lock, so a single caller sees a fully deterministic fault
/// sequence per seed.
pub struct SeededPlan<K, S> {
    seed: u64,
    rate: f64,
    /// When set, every other class is at rate zero.
    only: Option<K>,
    draws: Mutex<Draws<K, S>>,
}

impl<K: FaultClass, S> SeededPlan<K, S> {
    fn new(seed: u64, rate: f64, only: Option<K>) -> SeededPlan<K, S> {
        SeededPlan {
            seed,
            rate,
            only,
            draws: Mutex::new(Draws {
                rng: StdRng::seed_from_u64(seed),
                seq: 0,
                log: Vec::new(),
            }),
        }
    }

    /// Every class at the same `rate` (in `[0, 1]`), seeded.
    pub fn uniform(seed: u64, rate: f64) -> SeededPlan<K, S> {
        SeededPlan::new(seed, rate, None)
    }

    /// Only `kind`, at `rate`; every other class is never drawn.
    pub fn only(seed: u64, kind: K, rate: f64) -> SeededPlan<K, S> {
        SeededPlan::new(seed, rate, Some(kind))
    }

    /// A uniform plan from the `seed:rate` spec in environment variable
    /// `var`. `None` when unset or unparseable.
    pub fn from_env(var: &str) -> Option<SeededPlan<K, S>> {
        let (seed, rate) = parse_seed_rate(&std::env::var(var).ok()?)?;
        Some(SeededPlan::uniform(seed, rate))
    }

    /// The seed the plan was armed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether `subject` is hit, and by which class.
    pub fn decide<Q>(&self, subject: &Q) -> Option<K>
    where
        Q: ToOwned<Owned = S> + ?Sized,
    {
        let mut draws = self.lock();
        let kind = self.draw(&mut draws.rng, |_| true)?;
        draws.record(kind, subject.to_owned());
        Some(kind)
    }

    /// [`SeededPlan::decide`] for families whose classes exist only
    /// inside some operations: only a class `applies` accepts can win,
    /// and one extra `f64` in `[0, 1)` is drawn under the same lock, hit
    /// or miss, and handed to `subject` to place the fault.
    pub fn decide_placed(
        &self,
        applies: impl Fn(K) -> bool,
        subject: impl FnOnce(K, f64) -> S,
    ) -> Option<Injection<K, S>>
    where
        S: Clone,
    {
        let mut draws = self.lock();
        let hit = self.draw(&mut draws.rng, applies);
        let place: f64 = draws.rng.gen_range(0.0..1.0);
        let kind = hit?;
        Some(draws.record(kind, subject(kind, place)).clone())
    }

    /// Drain the injection log (everything injected since the last
    /// drain, in injection order).
    pub fn take_injections(&self) -> Vec<Injection<K, S>> {
        std::mem::take(&mut self.lock().log)
    }

    /// Injections so far, without draining.
    pub fn injection_count(&self) -> u64 {
        self.lock().seq
    }

    /// A panic under the lock can only come from the RNG's rate
    /// assertion, before any log write, so a poisoned lock still guards
    /// a consistent log and is recovered.
    fn lock(&self) -> MutexGuard<'_, Draws<K, S>> {
        self.draws.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn rate(&self, kind: K) -> f64 {
        match self.only {
            Some(only) if only != kind => 0.0,
            _ => self.rate,
        }
    }

    /// The fixed-draw loop: one draw per class with a non-zero rate, even
    /// after a hit, so replay never depends on which class won.
    fn draw(&self, rng: &mut StdRng, applies: impl Fn(K) -> bool) -> Option<K> {
        let mut hit = None;
        for &kind in K::ALL {
            let rate = self.rate(kind);
            let drawn = rate > 0.0 && rng.gen_bool(rate);
            if drawn && hit.is_none() && applies(kind) {
                hit = Some(kind);
            }
        }
        hit
    }
}

impl<K, S> Draws<K, S> {
    fn record(&mut self, kind: K, subject: S) -> &Injection<K, S> {
        let seq = self.seq;
        self.seq += 1;
        self.log.push(Injection { seq, kind, subject });
        &self.log[self.log.len() - 1]
    }
}

/// Parse a `seed:rate` spec, the format of every fault knob
/// (`NASSIM_FAULTS`, `NASSIM_CORRUPT`, `NASSIM_CRASH`). `None` unless the
/// seed is a `u64` and the rate lies in `[0, 1]`.
pub fn parse_seed_rate(value: &str) -> Option<(u64, f64)> {
    let (seed, rate) = value.split_once(':')?;
    let seed: u64 = seed.trim().parse().ok()?;
    let rate: f64 = rate.trim().parse().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    Some((seed, rate))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::collections::HashSet;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Class {
        A,
        B,
        C,
    }

    impl FaultClass for Class {
        const ALL: &'static [Class] = &[Class::A, Class::B, Class::C];
    }

    impl fmt::Display for Class {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self:?}")
        }
    }

    type Plan = SeededPlan<Class, String>;

    fn decisions(plan: &Plan, n: usize) -> Vec<Option<Class>> {
        (0..n).map(|i| plan.decide(&format!("s{i}"))).collect()
    }

    #[test]
    fn zero_rate_never_injects() {
        let plan = Plan::uniform(1, 0.0);
        assert!(decisions(&plan, 200).iter().all(Option::is_none));
        assert!(plan.take_injections().is_empty());
        assert_eq!(plan.injection_count(), 0);
    }

    #[test]
    fn full_rate_hits_the_first_class() {
        let plan = Plan::uniform(1, 1.0);
        assert!(decisions(&plan, 20).iter().all(|d| *d == Some(Class::A)));
    }

    #[test]
    fn only_restricts_to_one_class() {
        assert!(decisions(&Plan::only(5, Class::C, 1.0), 20)
            .iter()
            .all(|d| *d == Some(Class::C)));
        let hits = decisions(&Plan::only(5, Class::B, 0.5), 200);
        assert!(hits.iter().flatten().all(|k| *k == Class::B));
        assert!(hits.iter().any(Option::is_some));
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = decisions(&Plan::uniform(42, 0.3), 100);
        assert_eq!(a, decisions(&Plan::uniform(42, 0.3), 100));
        assert_ne!(a, decisions(&Plan::uniform(43, 0.3), 100));
        assert!(a.iter().any(Option::is_some), "0.3 over 100 draws must hit");
    }

    #[test]
    fn log_is_ordered_and_drainable() {
        let plan = Plan::uniform(7, 0.5);
        let hits: Vec<(usize, Class)> = decisions(&plan, 50)
            .into_iter()
            .enumerate()
            .filter_map(|(i, d)| Some((i, d?)))
            .collect();
        let log = plan.take_injections();
        assert_eq!(log.len(), hits.len());
        for (seq, (inj, (i, kind))) in log.iter().zip(&hits).enumerate() {
            assert_eq!(inj.seq, seq as u64);
            assert_eq!(inj.kind, *kind);
            assert_eq!(inj.subject, format!("s{i}"));
        }
        // Drained: a second take is empty, but the seq counter persists.
        assert!(plan.take_injections().is_empty());
        assert_eq!(plan.injection_count(), hits.len() as u64);
    }

    #[test]
    fn all_classes_fire_at_moderate_rates() {
        let seen: HashSet<Class> = decisions(&Plan::uniform(3, 0.25), 400)
            .into_iter()
            .flatten()
            .collect();
        for kind in Class::ALL {
            assert!(seen.contains(kind), "class {kind} never injected");
        }
    }

    #[test]
    fn placed_decisions_respect_the_filter_and_draw_fixed() {
        let not_a = |k: Class| k != Class::A;
        let place = |_: Class, frac: f64| format!("{frac}");
        let plan = Plan::uniform(9, 1.0);
        for _ in 0..20 {
            let inj = plan.decide_placed(not_a, place).expect("rate 1.0 hits");
            assert_eq!(inj.kind, Class::B, "filtered class A won");
            let frac: f64 = inj.subject.parse().unwrap();
            assert!((0.0..1.0).contains(&frac));
        }
        // A miss consumes the same draws as a hit: after one rejected and
        // one accepted decision, both plans place the next fault alike.
        let (missed, hit) = (Plan::uniform(4, 0.6), Plan::uniform(4, 0.6));
        assert!(missed.decide_placed(|_| false, place).is_none());
        hit.decide_placed(|_| true, place);
        let next = |p: &Plan| {
            p.decide_placed(|_| true, place)
                .map(|i| (i.kind, i.subject))
        };
        assert_eq!(next(&missed), next(&hit));
    }

    #[test]
    fn a_panicking_decision_does_not_wedge_the_plan() {
        // Rate 1.5 trips the RNG's range assertion inside the lock.
        let plan = Plan::uniform(1, 1.5);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.decide("x");
        }));
        assert!(caught.is_err());
        assert!(plan.take_injections().is_empty());
        assert_eq!(plan.seed(), 1);
    }

    #[test]
    fn seed_rate_parsing() {
        assert_eq!(parse_seed_rate("7:0.2"), Some((7, 0.2)));
        assert_eq!(parse_seed_rate(" 11 : 1.0 "), Some((11, 1.0)));
        assert_eq!(parse_seed_rate("7"), None);
        assert_eq!(parse_seed_rate("x:0.2"), None);
        assert_eq!(parse_seed_rate("7:1.5"), None);
        assert_eq!(parse_seed_rate("7:-0.1"), None);
        assert_eq!(parse_seed_rate("7:NaN"), None);
    }

    #[test]
    fn from_env_reads_a_seed_rate_knob() {
        let var = "NASSIM_DIAG_CHAOS_TEST_KNOB";
        assert!(Plan::from_env(var).is_none(), "unset knob arms nothing");
        std::env::set_var(var, "17:0.25");
        let plan = Plan::from_env(var).expect("valid knob arms a plan");
        assert_eq!(plan.seed(), 17);
        assert_eq!(
            decisions(&plan, 100),
            decisions(&Plan::uniform(17, 0.25), 100)
        );
        std::env::set_var(var, "17:2");
        assert!(
            Plan::from_env(var).is_none(),
            "out-of-range rate arms nothing"
        );
        std::env::remove_var(var);
    }
}
