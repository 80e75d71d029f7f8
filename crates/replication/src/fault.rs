//! Deterministic, seed-driven fault injection for sync sessions.
//!
//! The paper's whole point is cheap reconnection for *unreliable* mobile
//! nodes, so the simulator must be able to break the merge handshake the
//! way real links do: lose, duplicate, and reorder messages, drop the
//! mobile mid-merge, and crash the base between installing forwarded
//! updates and re-executing backed-out transactions. A [`FaultPlan`] draws
//! those events from its own seeded stream — completely separate from the
//! workload RNG, so two runs with the same workload seed and different
//! fault plans generate identical transactions and differ only in how the
//! handshake unfolds. With every rate at zero the plan never consumes
//! randomness and the session path reproduces the fault-free run
//! byte-for-byte.

use rand::rngs::StdRng;
use rand::Rng;

/// The fault categories a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A handshake message is lost in transit (either direction); the
    /// sender times out and retransmits.
    MessageLoss,
    /// A handshake message is delivered twice; the receiver must dedupe by
    /// session id and step sequence number.
    MessageDuplication,
    /// A stale copy of an earlier message arrives before the current one;
    /// the receiver must reject it by sequence number.
    MessageReorder,
    /// The mobile disconnects while the base is computing the merge; the
    /// base retains the computed outcome and resumes on retry.
    MidMergeDisconnect,
    /// The base node crashes after committing the install (step 5) but
    /// before re-executing backed-out transactions (step 6); only the
    /// durable log and session ledger survive.
    BaseCrash,
}

impl FaultKind {
    /// All injectable fault kinds, in a fixed order (sweep matrices).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::MessageLoss,
        FaultKind::MessageDuplication,
        FaultKind::MessageReorder,
        FaultKind::MidMergeDisconnect,
        FaultKind::BaseCrash,
    ];

    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::MessageLoss => "loss",
            FaultKind::MessageDuplication => "duplication",
            FaultKind::MessageReorder => "reorder",
            FaultKind::MidMergeDisconnect => "mid-merge-disconnect",
            FaultKind::BaseCrash => "base-crash",
        }
    }
}

/// Per-kind fault probabilities, each rolled independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a handshake message is dropped.
    pub drop: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate: f64,
    /// Probability a stale copy precedes a delivered message.
    pub reorder: f64,
    /// Probability the mobile disconnects during the merge step.
    pub mid_merge_disconnect: f64,
    /// Probability the base crashes between install and re-execution.
    pub base_crash: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn zero() -> FaultRates {
        FaultRates {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            mid_merge_disconnect: 0.0,
            base_crash: 0.0,
        }
    }

    /// Every fault kind at probability `p`.
    pub fn uniform(p: f64) -> FaultRates {
        FaultRates { drop: p, duplicate: p, reorder: p, mid_merge_disconnect: p, base_crash: p }
    }

    /// Only `kind` at probability `p`, every other kind at zero.
    pub fn only(kind: FaultKind, p: f64) -> FaultRates {
        let mut rates = FaultRates::zero();
        match kind {
            FaultKind::MessageLoss => rates.drop = p,
            FaultKind::MessageDuplication => rates.duplicate = p,
            FaultKind::MessageReorder => rates.reorder = p,
            FaultKind::MidMergeDisconnect => rates.mid_merge_disconnect = p,
            FaultKind::BaseCrash => rates.base_crash = p,
        }
        rates
    }

    /// Every rate multiplied by `factor` and clamped to 1.0 — the
    /// trace-conditioned burst a connectivity model applies during
    /// handoff windows and post-outage surges. A factor of exactly 1.0
    /// returns the rates bit-identical (IEEE 754 multiplication by 1.0 is
    /// the identity on finite values), so unconditioned ticks draw the
    /// exact same fault stream.
    pub fn scaled(&self, factor: f64) -> FaultRates {
        let scale = |rate: f64| (rate * factor).min(1.0);
        FaultRates {
            drop: scale(self.drop),
            duplicate: scale(self.duplicate),
            reorder: scale(self.reorder),
            mid_merge_disconnect: scale(self.mid_merge_disconnect),
            base_crash: scale(self.base_crash),
        }
    }

    /// `true` when at least one rate is positive.
    pub fn any(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.mid_merge_disconnect > 0.0
            || self.base_crash > 0.0
    }

    /// Checks every rate is a probability in `[0.0, 1.0]`. A NaN,
    /// negative, or >1.0 rate would otherwise fail silently (a negative
    /// rate simply never fires; a >1.0 rate would panic deep inside the
    /// RNG mid-run) — reject it up front with the offending field named.
    pub fn validate(&self) -> Result<(), InvalidFaultRate> {
        let fields = [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("mid_merge_disconnect", self.mid_merge_disconnect),
            ("base_crash", self.base_crash),
        ];
        for (field, value) in fields {
            if !(0.0..=1.0).contains(&value) {
                return Err(InvalidFaultRate { field, value });
            }
        }
        Ok(())
    }
}

/// A fault rate that is not a probability — NaN, negative, or above 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidFaultRate {
    /// The offending [`FaultRates`] field.
    pub field: &'static str,
    /// Its rejected value.
    pub value: f64,
}

impl std::fmt::Display for InvalidFaultRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault rate `{}` is {} — must be a probability in [0.0, 1.0]",
            self.field, self.value
        )
    }
}

impl std::error::Error for InvalidFaultRate {}

/// How the transport delivered one handshake message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered exactly once.
    Ok,
    /// Lost; the sender must retransmit (consumes one retry).
    Dropped,
    /// Delivered twice; the receiver's idempotence guard absorbs the copy.
    Duplicated,
    /// A stale out-of-order copy arrived first and was rejected by
    /// sequence number; the current message then arrived.
    Reordered,
}

impl Delivery {
    /// Short name for trace events (`None` for the uneventful
    /// [`Delivery::Ok`], which is not worth recording).
    pub fn fault_name(&self) -> Option<&'static str> {
        match self {
            Delivery::Ok => None,
            Delivery::Dropped => Some(FaultKind::MessageLoss.name()),
            Delivery::Duplicated => Some(FaultKind::MessageDuplication.name()),
            Delivery::Reordered => Some(FaultKind::MessageReorder.name()),
        }
    }
}

/// A deterministic fault schedule: a seed plus per-kind rates.
///
/// The plan is pure configuration; the event stream is drawn from an
/// [`StdRng`] the simulation seeds from [`FaultPlan::seed`] — see
/// [`FaultPlan::rng`]. Identical `(seed, rates)` always produce the same
/// schedule for the same simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault event stream (independent of the workload seed).
    pub seed: u64,
    /// Per-kind fault probabilities.
    pub rates: FaultRates,
}

impl FaultPlan {
    /// The fault-free plan: no event is ever injected and no randomness is
    /// consumed.
    pub fn none() -> FaultPlan {
        FaultPlan { seed: 0, rates: FaultRates::zero() }
    }

    /// A seeded plan with the given rates.
    pub fn seeded(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan { seed, rates }
    }

    /// `true` when the plan can inject at least one fault kind.
    pub fn active(&self) -> bool {
        self.rates.any()
    }

    /// The fault event stream for this plan. The domain-separation
    /// constant keeps the stream distinct from the workload RNG even when
    /// the same seed is reused for both.
    pub fn rng(&self) -> StdRng {
        use rand::SeedableRng;
        StdRng::seed_from_u64(self.seed ^ 0xFA17_FA17_FA17_FA17)
    }

    /// Rolls the fate of one handshake message. Inactive plans return
    /// [`Delivery::Ok`] without consuming randomness.
    pub fn deliver(&self, rng: &mut StdRng) -> Delivery {
        if !self.active() {
            return Delivery::Ok;
        }
        if self.rates.drop > 0.0 && rng.gen_bool(self.rates.drop) {
            return Delivery::Dropped;
        }
        if self.rates.duplicate > 0.0 && rng.gen_bool(self.rates.duplicate) {
            return Delivery::Duplicated;
        }
        if self.rates.reorder > 0.0 && rng.gen_bool(self.rates.reorder) {
            return Delivery::Reordered;
        }
        Delivery::Ok
    }

    /// Rolls whether the mobile disconnects during the merge step.
    pub fn mid_merge_disconnect(&self, rng: &mut StdRng) -> bool {
        self.rates.mid_merge_disconnect > 0.0 && rng.gen_bool(self.rates.mid_merge_disconnect)
    }

    /// Rolls whether the base crashes between install and re-execution.
    pub fn base_crash(&self, rng: &mut StdRng) -> bool {
        self.rates.base_crash > 0.0 && rng.gen_bool(self.rates.base_crash)
    }

    /// The plan with every rate scaled by `factor` (clamped to 1.0). The
    /// seed is unchanged: a connectivity model conditions the *rates*
    /// tick by tick, while the event stream stays one seeded sequence.
    pub fn scaled(&self, factor: f64) -> FaultPlan {
        FaultPlan { seed: self.seed, rates: self.rates.scaled(factor) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(!plan.active());
        let mut rng = plan.rng();
        for _ in 0..100 {
            assert_eq!(plan.deliver(&mut rng), Delivery::Ok);
            assert!(!plan.mid_merge_disconnect(&mut rng));
            assert!(!plan.base_crash(&mut rng));
        }
    }

    #[test]
    fn rates_only_isolates_one_kind() {
        let rates = FaultRates::only(FaultKind::BaseCrash, 1.0);
        assert_eq!(rates.base_crash, 1.0);
        assert_eq!(rates.drop, 0.0);
        assert!(rates.any());
        assert!(!FaultRates::zero().any());
        assert!(FaultRates::uniform(0.1).any());
        // Every kind maps onto a distinct field.
        for kind in FaultKind::ALL {
            assert!(FaultRates::only(kind, 0.5).any(), "{}", kind.name());
        }
    }

    #[test]
    fn certain_faults_always_fire() {
        let plan = FaultPlan::seeded(1, FaultRates::only(FaultKind::MessageLoss, 1.0));
        let mut rng = plan.rng();
        for _ in 0..20 {
            assert_eq!(plan.deliver(&mut rng), Delivery::Dropped);
        }
        let plan = FaultPlan::seeded(1, FaultRates::only(FaultKind::MidMergeDisconnect, 1.0));
        let mut rng = plan.rng();
        assert!(plan.mid_merge_disconnect(&mut rng));
        assert!(!plan.base_crash(&mut rng));
    }

    #[test]
    fn event_stream_is_deterministic_per_seed() {
        let plan = FaultPlan::seeded(9, FaultRates::uniform(0.3));
        let draw = |plan: &FaultPlan| {
            let mut rng = plan.rng();
            (0..64).map(|_| plan.deliver(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(&plan), draw(&plan));
        let other = FaultPlan::seeded(10, FaultRates::uniform(0.3));
        assert_ne!(draw(&plan), draw(&other), "different seeds, different schedules");
    }

    #[test]
    fn validate_accepts_probabilities_and_names_offenders() {
        assert_eq!(FaultRates::zero().validate(), Ok(()));
        assert_eq!(FaultRates::uniform(0.5).validate(), Ok(()));
        assert_eq!(FaultRates::uniform(1.0).validate(), Ok(()));

        let negative = FaultRates { drop: -0.1, ..FaultRates::zero() };
        let err = negative.validate().unwrap_err();
        assert_eq!(err.field, "drop");
        assert!(err.to_string().contains("drop"), "{err}");

        let too_big = FaultRates { base_crash: 1.5, ..FaultRates::zero() };
        assert_eq!(too_big.validate().unwrap_err().field, "base_crash");

        let nan = FaultRates { reorder: f64::NAN, ..FaultRates::zero() };
        let err = nan.validate().unwrap_err();
        assert_eq!(err.field, "reorder");
        assert!(err.value.is_nan());

        // Every field is checked, not just the first few.
        for kind in FaultKind::ALL {
            assert!(FaultRates::only(kind, 2.0).validate().is_err(), "{}", kind.name());
            assert!(FaultRates::only(kind, 1.0).validate().is_ok(), "{}", kind.name());
        }
    }

    #[test]
    fn scaling_clamps_and_identity_preserves_bits() {
        let rates = FaultRates::uniform(0.3);
        // Identity scale is bit-exact — the byte-identity lever behind
        // trace-conditioned faults.
        assert_eq!(rates.scaled(1.0), rates);
        let boosted = rates.scaled(2.0);
        assert_eq!(boosted.drop, 0.6);
        assert!(boosted.validate().is_ok());
        // Boosts clamp at certainty instead of producing invalid rates.
        assert_eq!(rates.scaled(100.0), FaultRates::uniform(1.0));
        assert_eq!(FaultRates::zero().scaled(100.0), FaultRates::zero());
        // A suppressing scale (link calm) lowers the rates.
        assert_eq!(rates.scaled(0.0), FaultRates::zero());
        let plan = FaultPlan::seeded(4, rates);
        assert_eq!(plan.scaled(2.0).seed, plan.seed);
        assert_eq!(plan.scaled(2.0).rates, boosted);
    }

    #[test]
    fn delivery_fault_names_match_kinds() {
        assert_eq!(Delivery::Ok.fault_name(), None);
        assert_eq!(Delivery::Dropped.fault_name(), Some("loss"));
        assert_eq!(Delivery::Duplicated.fault_name(), Some("duplication"));
        assert_eq!(Delivery::Reordered.fault_name(), Some("reorder"));
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }
}
