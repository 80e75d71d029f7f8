//! Structured connectivity models and base-side admission control.
//!
//! The fault plan (`fault.rs`) breaks individual handshake *messages*;
//! this module breaks the *link schedule* itself, the way real mobile
//! deployments do: radios that sleep on a duty cycle, loss that spikes
//! during cell handoff, and fleet-wide outages that end in a synchronized
//! reconnect storm. A [`ConnectivityModel`] is pure configuration — the
//! per-mobile link trace is a deterministic function of `(model, mobile,
//! tick)`, so two runs with the same model see byte-identical traces and
//! no randomness is consumed beyond the legacy cadence draws.
//!
//! Two hooks feed the simulation:
//!
//! * **cadence shaping** — [`LinkTrace::next_up`] rounds a drawn
//!   reconnection tick forward to the next tick the mobile's link is up.
//!   [`ConnectivityModel::AlwaysOn`] is the identity, so the default
//!   configuration reproduces the plain jittered cadence byte-for-byte
//!   (pinned by `session_differential`);
//! * **trace-conditioned faults** — [`LinkTrace::fault_scale`] multiplies
//!   the configured fault rates during handoff windows and post-outage
//!   surges, turning the i.i.d. per-message fault model into correlated
//!   bursts. A scale of exactly 1.0 leaves the fault stream untouched.
//!
//! The second half of the module is the base's defense against the storm
//! the models can now produce: [`AdmissionConfig`] bounds the per-tick
//! merge cohort. Excess reconnects are shed into a deterministic FIFO
//! deferred queue that the scheduler drains ahead of fresh arrivals every
//! tick, so every deferred mobile is admitted after at most
//! `⌈queue/max_batch⌉` ticks — graceful degradation without starvation,
//! and the convergence oracle holds under every model × fault mix.

use serde::Serialize;

/// A deterministic per-mobile link trace: when the link is up, and how
/// much the ambient fault rates are scaled by the link's current state.
/// [`ConnectivityModel`] is the canonical implementation; the trait keeps
/// the simulation generic over future trace sources (e.g. replayed real
/// traces).
pub trait LinkTrace {
    /// `true` when `mobile`'s link is up at `tick`.
    fn link_up(&self, mobile: usize, tick: u64) -> bool;

    /// The earliest tick `>= from` at which `mobile`'s link is up.
    fn next_up(&self, mobile: usize, from: u64) -> u64;

    /// The factor the fault rates are multiplied by for a handshake of
    /// `mobile` at `tick` (1.0 = unconditioned).
    fn fault_scale(&self, mobile: usize, tick: u64) -> f64;
}

/// A structured, deterministic connectivity model. Pure configuration:
/// the trace is a function of `(model, mobile, tick)` and every
/// per-mobile variation comes from hashing the model's seed with the
/// mobile id — no RNG stream is consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub enum ConnectivityModel {
    /// The link is always up and fault rates are never scaled — the
    /// legacy jittered cadence, byte-for-byte.
    #[default]
    AlwaysOn,
    /// The radio sleeps on a periodic duty cycle: each period of
    /// `period` ticks starts with `on_ticks` awake ticks (per-mobile
    /// phase offset drawn from `seed`), and reconnections drawn into the
    /// sleeping window slide to the next wake-up.
    DutyCycle {
        /// Full cycle length in ticks (must be > 0).
        period: u64,
        /// Awake ticks at the start of each cycle (1..=period).
        on_ticks: u64,
        /// Seed of the per-mobile phase offsets.
        seed: u64,
    },
    /// The link never drops, but each mobile periodically crosses a cell
    /// boundary and its loss/reorder-prone handoff window scales the
    /// fault rates — correlated fault bursts instead of i.i.d. noise.
    CellHandoff {
        /// Ticks between one mobile's successive handoffs (must be > 0).
        interval: u64,
        /// Length of the fault-prone window opening each handoff
        /// (0..=interval).
        handoff_ticks: u64,
        /// Factor the fault rates are multiplied by inside the window
        /// (>= 0; scaled rates are clamped to 1.0).
        fault_boost: f64,
        /// Seed of the per-mobile handoff phase offsets.
        seed: u64,
    },
    /// A fleet-wide outage: every link is down for
    /// `[start, start + outage_ticks)`, every reconnection drawn into
    /// that epoch lands on the first tick after it — the synchronized
    /// reconnect storm — and fault rates are boosted for the
    /// `surge_ticks` that follow (the congested drain).
    OutageStorm {
        /// First tick of the outage.
        start: u64,
        /// Outage length in ticks.
        outage_ticks: u64,
        /// Post-outage ticks during which fault rates are boosted.
        surge_ticks: u64,
        /// Factor the fault rates are multiplied by during the surge
        /// (>= 0; scaled rates are clamped to 1.0).
        fault_boost: f64,
    },
}

/// SplitMix64 finalizer — the per-mobile phase hash. Deterministic and
/// stream-free: traces never touch the simulation's RNGs.
fn mix(seed: u64, mobile: usize) -> u64 {
    let mut z = seed ^ (mobile as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ConnectivityModel {
    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            ConnectivityModel::AlwaysOn => "always-on",
            ConnectivityModel::DutyCycle { .. } => "duty-cycle",
            ConnectivityModel::CellHandoff { .. } => "cell-handoff",
            ConnectivityModel::OutageStorm { .. } => "outage-storm",
        }
    }

    /// Checks the model's parameters are coherent: periods and intervals
    /// non-zero, windows inside their cycle, boosts finite and
    /// non-negative. Rejected up front by `Simulation::new` — a zero
    /// period would otherwise divide by zero mid-run.
    pub fn validate(&self) -> Result<(), InvalidConnectivity> {
        match *self {
            ConnectivityModel::AlwaysOn => Ok(()),
            ConnectivityModel::DutyCycle { period, on_ticks, .. } => {
                if period == 0 {
                    return Err(InvalidConnectivity { field: "period", value: 0.0 });
                }
                if on_ticks == 0 || on_ticks > period {
                    return Err(InvalidConnectivity { field: "on_ticks", value: on_ticks as f64 });
                }
                Ok(())
            }
            ConnectivityModel::CellHandoff { interval, handoff_ticks, fault_boost, .. } => {
                if interval == 0 {
                    return Err(InvalidConnectivity { field: "interval", value: 0.0 });
                }
                if handoff_ticks > interval {
                    return Err(InvalidConnectivity {
                        field: "handoff_ticks",
                        value: handoff_ticks as f64,
                    });
                }
                if !fault_boost.is_finite() || fault_boost < 0.0 {
                    return Err(InvalidConnectivity { field: "fault_boost", value: fault_boost });
                }
                Ok(())
            }
            ConnectivityModel::OutageStorm { fault_boost, .. } => {
                if !fault_boost.is_finite() || fault_boost < 0.0 {
                    return Err(InvalidConnectivity { field: "fault_boost", value: fault_boost });
                }
                Ok(())
            }
        }
    }

    /// The mobile's phase offset within a periodic model's cycle.
    fn phase(seed: u64, mobile: usize, period: u64) -> u64 {
        mix(seed, mobile) % period.max(1)
    }
}

impl LinkTrace for ConnectivityModel {
    fn link_up(&self, mobile: usize, tick: u64) -> bool {
        match *self {
            ConnectivityModel::AlwaysOn | ConnectivityModel::CellHandoff { .. } => true,
            ConnectivityModel::DutyCycle { period, on_ticks, seed } => {
                (tick + Self::phase(seed, mobile, period)) % period < on_ticks
            }
            ConnectivityModel::OutageStorm { start, outage_ticks, .. } => {
                !(start..start.saturating_add(outage_ticks)).contains(&tick)
            }
        }
    }

    fn next_up(&self, mobile: usize, from: u64) -> u64 {
        match *self {
            ConnectivityModel::AlwaysOn | ConnectivityModel::CellHandoff { .. } => from,
            ConnectivityModel::DutyCycle { period, on_ticks, seed } => {
                let phase = Self::phase(seed, mobile, period);
                let pos = (from + phase) % period;
                if pos < on_ticks {
                    from
                } else {
                    // Slide to the start of the next cycle's awake window.
                    from + (period - pos)
                }
            }
            ConnectivityModel::OutageStorm { start, outage_ticks, .. } => {
                let end = start.saturating_add(outage_ticks);
                if (start..end).contains(&from) {
                    end
                } else {
                    from
                }
            }
        }
    }

    fn fault_scale(&self, mobile: usize, tick: u64) -> f64 {
        match *self {
            ConnectivityModel::AlwaysOn | ConnectivityModel::DutyCycle { .. } => 1.0,
            ConnectivityModel::CellHandoff { interval, handoff_ticks, fault_boost, seed } => {
                if (tick + Self::phase(seed, mobile, interval)) % interval < handoff_ticks {
                    fault_boost
                } else {
                    1.0
                }
            }
            ConnectivityModel::OutageStorm { start, outage_ticks, surge_ticks, fault_boost } => {
                let end = start.saturating_add(outage_ticks);
                if (end..end.saturating_add(surge_ticks)).contains(&tick) {
                    fault_boost
                } else {
                    1.0
                }
            }
        }
    }
}

/// A connectivity-model parameter rejected by
/// [`ConnectivityModel::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidConnectivity {
    /// The offending parameter.
    pub field: &'static str,
    /// Its rejected value.
    pub value: f64,
}

impl std::fmt::Display for InvalidConnectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connectivity parameter `{}` is {} — out of range", self.field, self.value)
    }
}

impl std::error::Error for InvalidConnectivity {}

/// Base-side admission control: the cap on how many reconnecting mobiles
/// the base merges in one tick. A same-tick merge cohort pays
/// quadratically for its own installs into the shared epoch, which makes
/// an unbounded reconnect storm a latent availability bug; the cap
/// turns it into bounded per-tick work plus a deterministic deferred
/// queue (drained FIFO, ahead of fresh arrivals, so no mobile starves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AdmissionConfig {
    /// Maximum mobiles synced per tick; `0` disables admission control
    /// entirely (the default — byte-identical to the pre-admission
    /// scheduler).
    pub max_batch: usize,
}

impl AdmissionConfig {
    /// Admission control disabled: every reconnect is served the tick it
    /// arrives.
    pub fn unbounded() -> AdmissionConfig {
        AdmissionConfig { max_batch: 0 }
    }

    /// A per-tick cohort bound.
    pub fn bounded(max_batch: usize) -> AdmissionConfig {
        AdmissionConfig { max_batch }
    }

    /// `true` when a cap is in force.
    pub fn enabled(&self) -> bool {
        self.max_batch > 0
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_is_the_identity() {
        let m = ConnectivityModel::AlwaysOn;
        for mobile in 0..8 {
            for tick in 0..256 {
                assert!(m.link_up(mobile, tick));
                assert_eq!(m.next_up(mobile, tick), tick);
                assert_eq!(m.fault_scale(mobile, tick), 1.0);
            }
        }
    }

    #[test]
    fn duty_cycle_sleeps_and_wakes_on_schedule() {
        let m = ConnectivityModel::DutyCycle { period: 10, on_ticks: 3, seed: 7 };
        assert!(m.validate().is_ok());
        for mobile in 0..16 {
            let mut up_ticks = 0;
            for tick in 0..100 {
                let up = m.link_up(mobile, tick);
                up_ticks += up as usize;
                let next = m.next_up(mobile, tick);
                // next_up lands on an up tick, at or after the query, and
                // never skips an up tick in between.
                assert!(next >= tick);
                assert!(m.link_up(mobile, next), "next_up must land on an up tick");
                for t in tick..next {
                    assert!(!m.link_up(mobile, t), "next_up skipped an up tick");
                }
                assert_eq!(m.fault_scale(mobile, tick), 1.0);
            }
            assert_eq!(up_ticks, 30, "3 of every 10 ticks are awake");
        }
    }

    #[test]
    fn duty_cycle_phases_are_deterministic_and_seed_dependent() {
        let a = ConnectivityModel::DutyCycle { period: 16, on_ticks: 4, seed: 1 };
        let b = ConnectivityModel::DutyCycle { period: 16, on_ticks: 4, seed: 2 };
        let trace = |m: &ConnectivityModel, mobile: usize| {
            (0..64).map(|t| m.link_up(mobile, t)).collect::<Vec<_>>()
        };
        for mobile in 0..8 {
            assert_eq!(trace(&a, mobile), trace(&a, mobile), "same seed, same trace");
        }
        // At least one mobile's phase differs across seeds.
        assert!((0..8).any(|mobile| trace(&a, mobile) != trace(&b, mobile)));
        // And phases vary across mobiles (the fleet is staggered).
        assert!((1..8).any(|mobile| trace(&a, 0) != trace(&a, mobile)));
    }

    #[test]
    fn handoff_windows_boost_faults_periodically() {
        let m = ConnectivityModel::CellHandoff {
            interval: 20,
            handoff_ticks: 4,
            fault_boost: 5.0,
            seed: 3,
        };
        assert!(m.validate().is_ok());
        for mobile in 0..8 {
            let boosted: usize = (0..200).filter(|&t| m.fault_scale(mobile, t) > 1.0).count();
            assert_eq!(boosted, 40, "4 of every 20 ticks are handoff-prone");
            // The link itself never drops.
            assert!((0..200).all(|t| m.link_up(mobile, t)));
            assert_eq!(m.next_up(mobile, 17), 17);
        }
    }

    #[test]
    fn outage_storm_synchronizes_reconnects_and_surges() {
        let m = ConnectivityModel::OutageStorm {
            start: 50,
            outage_ticks: 30,
            surge_ticks: 10,
            fault_boost: 3.0,
        };
        assert!(m.validate().is_ok());
        for mobile in 0..4 {
            assert!(m.link_up(mobile, 49));
            assert!(!m.link_up(mobile, 50));
            assert!(!m.link_up(mobile, 79));
            assert!(m.link_up(mobile, 80));
            // Every reconnection drawn into the outage lands on its end —
            // the synchronized storm.
            for from in 50..80 {
                assert_eq!(m.next_up(mobile, from), 80);
            }
            assert_eq!(m.next_up(mobile, 49), 49);
            assert_eq!(m.next_up(mobile, 80), 80);
            // Fault rates surge for the drain window, then settle.
            assert_eq!(m.fault_scale(mobile, 79), 1.0);
            assert_eq!(m.fault_scale(mobile, 80), 3.0);
            assert_eq!(m.fault_scale(mobile, 89), 3.0);
            assert_eq!(m.fault_scale(mobile, 90), 1.0);
        }
    }

    #[test]
    fn validate_rejects_incoherent_parameters() {
        assert!(ConnectivityModel::DutyCycle { period: 0, on_ticks: 1, seed: 0 }
            .validate()
            .is_err());
        assert!(ConnectivityModel::DutyCycle { period: 4, on_ticks: 0, seed: 0 }
            .validate()
            .is_err());
        assert!(ConnectivityModel::DutyCycle { period: 4, on_ticks: 5, seed: 0 }
            .validate()
            .is_err());
        assert!(ConnectivityModel::CellHandoff {
            interval: 0,
            handoff_ticks: 0,
            fault_boost: 1.0,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(ConnectivityModel::CellHandoff {
            interval: 10,
            handoff_ticks: 11,
            fault_boost: 1.0,
            seed: 0
        }
        .validate()
        .is_err());
        let err = ConnectivityModel::CellHandoff {
            interval: 10,
            handoff_ticks: 2,
            fault_boost: f64::NAN,
            seed: 0,
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "fault_boost");
        assert!(err.to_string().contains("fault_boost"));
        assert!(ConnectivityModel::OutageStorm {
            start: 0,
            outage_ticks: 1,
            surge_ticks: 0,
            fault_boost: -1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn admission_config_defaults_off() {
        assert!(!AdmissionConfig::default().enabled());
        assert_eq!(AdmissionConfig::default(), AdmissionConfig::unbounded());
        assert!(AdmissionConfig::bounded(8).enabled());
        assert_eq!(AdmissionConfig::bounded(8).max_batch, 8);
    }
}
