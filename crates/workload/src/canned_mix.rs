//! A streaming canned workload: the paper's "canned system" setting for
//! the replication simulator.
//!
//! Two flavors, selected by [`CannedFlavor`]:
//!
//! * [`CannedFlavor::BankPromo`] (the default) mixes the [`Bank`] and
//!   [`Promotions`] libraries — additive/scale commutativity plus the
//!   correlated-guard pairs only the declared tables can see;
//! * [`CannedFlavor::Inventory`] mixes the [`Inventory`] and
//!   [`Reservations`] libraries — restock/sell/cap stock movements plus
//!   compensation-heavy reserve/cancel paths, where every booking
//!   movement declares its inverse (Section 6.1 pruning by compensation).
//!
//! Either flavor runs over one shared type registry, so every generated
//! transaction carries its type id and the stacked declared tables apply
//! — the full Section 5.1 canned-system configuration (offline-verified
//! relations consulted in O(1) at merge time).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use histmerge_history::TxnArena;
use histmerge_semantics::{OracleStack, StaticAnalyzer};
use histmerge_txn::registry::TypeRegistry;
use histmerge_txn::{DbState, TxnId, TxnKind, TxnName, VarId};

use crate::canned::{Bank, Inventory, Promotions, Reservations};

/// Which canned library pair the mix streams from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CannedFlavor {
    /// Bank accounts + seasonal promotions (the original mix).
    #[default]
    BankPromo,
    /// Inventory stock + flight reservations with compensating cancels.
    Inventory,
}

/// Parameters of a canned mix.
///
/// The fraction fields are interpreted per flavor — the same four-way
/// roll drives both:
///
/// | field | BankPromo | Inventory |
/// |---|---|---|
/// | `deposit_frac` | deposits | restocks |
/// | `withdraw_frac` | withdrawals | sells |
/// | `bonus_frac` | bonuses (rest: rebates) | reserves (rest: cancels) |
/// | `n_accounts` | bank accounts | flights (each a seats/booked pair) |
/// | `n_prices` | promoted prices | stock items |
#[derive(Debug, Clone)]
pub struct CannedMixParams {
    /// Number of bank accounts (BankPromo) or flights (Inventory).
    pub n_accounts: u32,
    /// Number of promoted price items (BankPromo) or stock items
    /// (Inventory).
    pub n_prices: u32,
    /// Fraction of deposits / restocks.
    pub deposit_frac: f64,
    /// Fraction of withdrawals / sells.
    pub withdraw_frac: f64,
    /// Fraction of seasonal bonuses / reservations (the rest are rebates
    /// / cancels).
    pub bonus_frac: f64,
    /// Which library pair to stream from.
    pub flavor: CannedFlavor,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CannedMixParams {
    fn default() -> Self {
        CannedMixParams {
            n_accounts: 16,
            n_prices: 8,
            deposit_frac: 0.5,
            withdraw_frac: 0.1,
            bonus_frac: 0.25,
            flavor: CannedFlavor::BankPromo,
            seed: 42,
        }
    }
}

/// The flavor-specific libraries, registered over one shared registry.
#[derive(Debug)]
enum Libraries {
    BankPromo { bank: Bank, promo: Promotions },
    Inventory { inv: Inventory, res: Reservations },
}

/// Streaming generator of typed canned transactions.
///
/// Variable layout (BankPromo): item 0 is the shared `season` indicator;
/// items `1..=n_prices` are promoted prices; the following `n_accounts`
/// items are bank accounts.
///
/// Variable layout (Inventory): item 0 is reserved; items `1..=n_prices`
/// are stock items; then `n_accounts` *pairs* of `(seats, booked)` items,
/// one pair per flight.
#[derive(Debug)]
pub struct CannedMix {
    params: CannedMixParams,
    libs: Libraries,
    rng: StdRng,
    counter: usize,
}

impl CannedMix {
    /// Creates the mix with a shared registry across both libraries.
    pub fn new(params: CannedMixParams) -> Self {
        let mut registry = TypeRegistry::new();
        let libs = match params.flavor {
            CannedFlavor::BankPromo => Libraries::BankPromo {
                bank: Bank::register_in(&mut registry),
                promo: Promotions::register_in(&mut registry),
            },
            CannedFlavor::Inventory => Libraries::Inventory {
                inv: Inventory::register_in(&mut registry),
                res: Reservations::register_in(&mut registry),
            },
        };
        let rng = StdRng::seed_from_u64(params.seed);
        CannedMix { params, libs, rng, counter: 0 }
    }

    /// The `season` indicator item (BankPromo layout).
    pub fn season(&self) -> VarId {
        VarId::new(0)
    }

    /// The `i`-th price (BankPromo) or stock (Inventory) item.
    pub fn price(&self, i: u32) -> VarId {
        VarId::new(1 + (i % self.params.n_prices.max(1)))
    }

    /// The `i`-th account item (BankPromo layout).
    pub fn account(&self, i: u32) -> VarId {
        VarId::new(1 + self.params.n_prices + (i % self.params.n_accounts.max(1)))
    }

    /// The `i`-th flight's free-seat item (Inventory layout).
    pub fn seats(&self, i: u32) -> VarId {
        VarId::new(1 + self.params.n_prices + 2 * (i % self.params.n_accounts.max(1)))
    }

    /// The `i`-th flight's booking tally (Inventory layout).
    pub fn booked(&self, i: u32) -> VarId {
        VarId::new(2 + self.params.n_prices + 2 * (i % self.params.n_accounts.max(1)))
    }

    /// The initial state matching the layout. BankPromo: balances and
    /// prices at 500, the season in-season (> 200). Inventory: stock at
    /// 500, every flight opened with 4 free seats and 4 live bookings —
    /// small counters on purpose, so reserve/cancel guards trip near the
    /// boundary and the compensation paths stay hot.
    pub fn initial_state(&self) -> DbState {
        match self.params.flavor {
            CannedFlavor::BankPromo => {
                let n = 1 + self.params.n_prices + self.params.n_accounts;
                let mut s = DbState::uniform(n, 500);
                s.set(self.season(), 250);
                s
            }
            CannedFlavor::Inventory => {
                let n = 1 + self.params.n_prices + 2 * self.params.n_accounts;
                let mut s = DbState::uniform(n, 500);
                s.set(VarId::new(0), 0);
                for flight in 0..self.params.n_accounts {
                    s.set(self.seats(flight), 4);
                    s.set(self.booked(flight), 4);
                }
                s
            }
        }
    }

    /// The canned-system oracle: static analysis plus both libraries'
    /// offline-verified tables.
    pub fn oracle(&self) -> OracleStack {
        let stack = OracleStack::new().with(Box::new(StaticAnalyzer::new()));
        match &self.libs {
            Libraries::BankPromo { bank, promo } => stack
                .with(Box::new(bank.declared_relations()))
                .with(Box::new(promo.declared_relations())),
            Libraries::Inventory { inv, res } => stack
                .with(Box::new(inv.declared_relations()))
                .with(Box::new(res.declared_relations())),
        }
    }

    /// Allocates the next random canned transaction. Both flavors draw
    /// from the RNG in the same positions, so a seed's draw sequence is
    /// flavor-independent.
    pub fn next_txn(&mut self, arena: &mut TxnArena, kind: TxnKind) -> TxnId {
        let (deposit_frac, withdraw_frac, bonus_frac) =
            (self.params.deposit_frac, self.params.withdraw_frac, self.params.bonus_frac);
        let (n_accounts, n_prices) = (self.params.n_accounts.max(1), self.params.n_prices.max(1));
        let roll: f64 = self.rng.gen();
        self.counter += 1;
        let prefix = if kind == TxnKind::Tentative { "m" } else { "b" };
        let name = TxnName::numbered(prefix, self.counter as u64);
        let name = name.as_str();
        let season = self.season();
        let acct_pick = self.rng.gen_range(0..n_accounts);
        let price_pick = self.rng.gen_range(0..n_prices);
        let amt = self.rng.gen_range(1..100);
        let (seats, booked) = (self.seats(acct_pick), self.booked(acct_pick));
        match &self.libs {
            Libraries::BankPromo { bank, promo } => {
                if roll < deposit_frac {
                    let acct = self.account(acct_pick);
                    arena.alloc(|id| bank.deposit(id, name, acct, amt).with_kind(kind).with_id(id))
                } else if roll < deposit_frac + withdraw_frac {
                    let acct = self.account(acct_pick);
                    arena.alloc(|id| bank.withdraw(id, name, acct, amt).with_kind(kind).with_id(id))
                } else if roll < deposit_frac + withdraw_frac + bonus_frac {
                    let price = self.price(price_pick);
                    arena.alloc(|id| {
                        promo.bonus(id, name, season, price).with_kind(kind).with_id(id)
                    })
                } else {
                    let price = self.price(price_pick);
                    arena.alloc(|id| {
                        promo.rebate(id, name, season, price).with_kind(kind).with_id(id)
                    })
                }
            }
            Libraries::Inventory { inv, res } => {
                if roll < deposit_frac {
                    let item = self.price(price_pick);
                    arena.alloc(|id| {
                        inv.restock(id, name, item, amt % 20 + 1).with_kind(kind).with_id(id)
                    })
                } else if roll < deposit_frac + withdraw_frac {
                    let item = self.price(price_pick);
                    arena.alloc(|id| {
                        inv.sell(id, name, item, amt % 10 + 1).with_kind(kind).with_id(id)
                    })
                } else if roll < deposit_frac + withdraw_frac + bonus_frac {
                    arena.alloc(|id| {
                        res.reserve(id, name, seats, booked).with_kind(kind).with_id(id)
                    })
                } else {
                    arena
                        .alloc(|id| res.cancel(id, name, seats, booked).with_kind(kind).with_id(id))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_semantics::SemanticOracle;

    #[test]
    fn layout_is_disjoint() {
        let mix = CannedMix::new(CannedMixParams::default());
        assert_eq!(mix.season().index(), 0);
        assert!(mix.price(0).index() >= 1);
        assert!(mix.account(0).index() > mix.price(7).index());
        let s = mix.initial_state();
        assert_eq!(s.get(mix.season()), 250);
        assert_eq!(s.get(mix.account(3)), 500);
    }

    #[test]
    fn inventory_layout_pairs_are_disjoint() {
        let mix = CannedMix::new(CannedMixParams {
            flavor: CannedFlavor::Inventory,
            ..CannedMixParams::default()
        });
        let n = mix.params.n_accounts;
        let mut seen = std::collections::HashSet::new();
        for flight in 0..n {
            assert!(seen.insert(mix.seats(flight)), "seats var reused");
            assert!(seen.insert(mix.booked(flight)), "booked var reused");
            assert!(mix.seats(flight).index() > mix.price(7).index());
        }
        let s = mix.initial_state();
        assert_eq!(s.get(mix.seats(0)), 4);
        assert_eq!(s.get(mix.booked(0)), 4);
        assert_eq!(s.get(mix.price(0)), 500);
    }

    #[test]
    fn generates_typed_transactions() {
        for flavor in [CannedFlavor::BankPromo, CannedFlavor::Inventory] {
            let mut mix = CannedMix::new(CannedMixParams { flavor, ..CannedMixParams::default() });
            let mut arena = TxnArena::new();
            let mut typed = 0;
            for _ in 0..50 {
                let id = mix.next_txn(&mut arena, TxnKind::Tentative);
                if arena.get(id).type_id().is_some() {
                    typed += 1;
                }
            }
            assert_eq!(typed, 50, "every canned transaction carries its type ({flavor:?})");
        }
    }

    #[test]
    fn oracle_knows_promotions() {
        let mut mix = CannedMix::new(CannedMixParams {
            bonus_frac: 1.0,
            deposit_frac: 0.0,
            withdraw_frac: 0.0,
            ..Default::default()
        });
        let mut arena = TxnArena::new();
        let a = mix.next_txn(&mut arena, TxnKind::Tentative);
        let b = mix.next_txn(&mut arena, TxnKind::Tentative);
        let oracle = mix.oracle();
        // Bonuses on the same price commute via correlated guards — only
        // the declared layer knows.
        let (ta, tb) = (arena.get(a), arena.get(b));
        if ta.writeset() == tb.writeset() {
            assert!(oracle.commutes_backward_through(tb, ta));
        }
    }

    #[test]
    fn inventory_flavor_streams_compensatable_bookings() {
        let mut mix = CannedMix::new(CannedMixParams {
            flavor: CannedFlavor::Inventory,
            bonus_frac: 1.0,
            deposit_frac: 0.0,
            withdraw_frac: 0.0,
            ..CannedMixParams::default()
        });
        let mut arena = TxnArena::new();
        let oracle = mix.oracle();
        let a = mix.next_txn(&mut arena, TxnKind::Tentative);
        let b = mix.next_txn(&mut arena, TxnKind::Tentative);
        let (ta, tb) = (arena.get(a), arena.get(b));
        // Every reservation ships its compensation.
        assert!(ta.inverse().is_some(), "reserve must declare its cancel");
        assert!(tb.inverse().is_some());
        // Same-type pairs commute per the declared table.
        if ta.writeset() == tb.writeset() {
            assert!(oracle.commutes_backward_through(tb, ta));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed, flavor| {
            let mut mix = CannedMix::new(CannedMixParams { seed, flavor, ..Default::default() });
            let mut arena = TxnArena::new();
            (0..20)
                .map(|_| {
                    let id = mix.next_txn(&mut arena, TxnKind::Tentative);
                    arena.get(id).writeset().to_string()
                })
                .collect::<Vec<_>>()
        };
        for flavor in [CannedFlavor::BankPromo, CannedFlavor::Inventory] {
            assert_eq!(gen(5, flavor), gen(5, flavor));
            assert_ne!(gen(5, flavor), gen(6, flavor));
        }
    }
}
