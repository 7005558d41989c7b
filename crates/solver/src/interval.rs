//! Unsigned interval domain used for constraint propagation.
//!
//! Every symbolic variable is given a conservative range `[lo, hi]` over its
//! bit width. Constraints of the common shapes produced by the concolic
//! engine (`var op const`, `const op var`, `var op var`) narrow these
//! ranges; an empty range proves unsatisfiability, and small ranges enable
//! cheap exhaustive enumeration.

use crate::term::{max_value, CmpOp, Leaf, TermArena, TermId, TermKind, TermWalk, VarId};

/// A closed unsigned interval `[lo, hi]`; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    /// Inclusive lower bound.
    pub(crate) lo: u64,
    /// Inclusive upper bound.
    pub(crate) hi: u64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    pub(crate) fn new(lo: u64, hi: u64) -> Self {
        Interval { lo, hi }
    }

    /// The full range of a `width`-bit unsigned integer.
    pub(crate) fn full(width: u32) -> Self {
        Interval {
            lo: 0,
            hi: max_value(width),
        }
    }

    /// A single-point interval.
    pub(crate) fn point(v: u64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// An empty interval.
    pub(crate) fn empty() -> Self {
        Interval { lo: 1, hi: 0 }
    }

    /// Returns true if the interval contains no values.
    pub(crate) fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Returns true if the interval contains exactly one value.
    pub(crate) fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values contained (saturating at `u64::MAX`).
    pub(crate) fn size(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.hi - self.lo).saturating_add(1)
        }
    }

    /// Intersection of two intervals.
    pub(crate) fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Clamps `v` into the interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    pub(crate) fn clamp(&self, v: u64) -> u64 {
        assert!(!self.is_empty(), "cannot clamp into an empty interval");
        v.clamp(self.lo, self.hi)
    }

    /// Narrows the interval so that `x op bound` holds for every remaining x.
    pub(crate) fn refine_cmp_const(&self, op: CmpOp, bound: u64) -> Interval {
        match op {
            CmpOp::Eq => self.intersect(&Interval::point(bound)),
            CmpOp::Ne => {
                // Only narrows when the excluded point is an endpoint.
                if self.is_point() && self.lo == bound {
                    Interval::empty()
                } else if self.lo == bound {
                    Interval::new(self.lo + 1, self.hi)
                } else if self.hi == bound {
                    Interval::new(self.lo, self.hi - 1)
                } else {
                    *self
                }
            }
            CmpOp::Ult => {
                if bound == 0 {
                    Interval::empty()
                } else {
                    self.intersect(&Interval::new(0, bound - 1))
                }
            }
            CmpOp::Ule => self.intersect(&Interval::new(0, bound)),
            CmpOp::Ugt => {
                if bound == u64::MAX {
                    Interval::empty()
                } else {
                    self.intersect(&Interval::new(bound + 1, u64::MAX))
                }
            }
            CmpOp::Uge => self.intersect(&Interval::new(bound, u64::MAX)),
        }
    }
}

/// The outcome of one propagation run, reported by
/// [`Domains::propagate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Propagation {
    /// `false` if an empty domain (contradiction) was derived.
    pub(crate) consistent: bool,
    /// Number of full sweeps over the constraint set performed.
    pub(crate) rounds: usize,
    /// `true` if a fixpoint was reached before the round budget ran out.
    /// When this holds, the domains are independent of the starting point:
    /// re-propagating the same constraints narrows nothing further, which
    /// is what lets an incremental session reuse them across queries.
    pub(crate) converged: bool,
}

/// Per-variable interval state for a constraint set.
///
/// Variable ids are dense arena indices, so the intervals sit in a vector
/// indexed by id, `None` for a variable no constraint has mentioned yet:
/// a lookup is an index, and copying the state — an incremental session
/// saves it once per negation candidate — copies a handful of intervals.
/// [`Domains::iter`] walks the vector, so it yields ascending [`VarId`]
/// order; local search's move set is drawn in that order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Domains {
    /// `slots[v]` is variable `v`'s interval, if it is tracked.
    slots: Vec<Option<Interval>>,
}

impl Domains {
    /// Creates an empty domain map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns the interval for `var`, defaulting to the full width range.
    pub(crate) fn get(&self, arena: &TermArena, var: VarId) -> Interval {
        self.slots
            .get(var.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| Interval::full(arena.var_info(var).width))
    }

    /// Sets the interval for `var`.
    pub(crate) fn set(&mut self, var: VarId, iv: Interval) {
        let index = var.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, None);
        }
        self.slots[index] = Some(iv);
    }

    /// Forgets every variable, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// Returns true if any variable has an empty domain.
    pub(crate) fn any_empty(&self) -> bool {
        self.slots.iter().flatten().any(Interval::is_empty)
    }

    /// Iterates over `(variable, interval)` pairs in ascending variable
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VarId, Interval)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, iv)| iv.map(|iv| (VarId(index as u32), iv)))
    }

    /// Product of domain sizes, saturating at `u64::MAX`.
    pub(crate) fn search_space(&self) -> u64 {
        let mut acc: u64 = 1;
        for iv in self.slots.iter().flatten() {
            acc = acc.saturating_mul(iv.size());
            if acc == 0 {
                return 0;
            }
        }
        acc
    }

    /// Registers every variable appearing in `constraints` that is not yet
    /// tracked, initializing it to the full range of its declared width.
    /// Used by the incremental session when new assertions introduce new
    /// variables on top of an already-propagated stack; `walk` holds the
    /// caller's marks, so a session that registers variables query after
    /// query allocates them once.
    pub(crate) fn ensure_vars(
        &mut self,
        arena: &TermArena,
        constraints: &[TermId],
        walk: &mut TermWalk,
    ) {
        if self.slots.len() < arena.var_count() {
            self.slots.resize(arena.var_count(), None);
        }
        // One walk over all of them: a subterm two constraints share is
        // entered once.
        walk.begin(arena);
        for &c in constraints {
            arena.visit_leaves(c, walk, |leaf| {
                if let Leaf::Var(v) = leaf {
                    let slot = &mut self.slots[v.index()];
                    if slot.is_none() {
                        *slot = Some(Interval::full(arena.var_info(v).width));
                    }
                }
            });
        }
    }

    /// Runs interval propagation over the constraints until a fixpoint is
    /// reached (bounded by `max_rounds`), and reports whether a
    /// contradiction (empty domain) was derived, how many sweeps ran and
    /// whether a fixpoint was reached before the round budget.
    pub(crate) fn propagate(
        &mut self,
        arena: &TermArena,
        constraints: &[TermId],
        max_rounds: usize,
    ) -> Propagation {
        let mut rounds = 0;
        let mut converged = false;
        while rounds < max_rounds {
            rounds += 1;
            let mut changed = false;
            for &c in constraints {
                if !self.propagate_one(arena, c, &mut changed) {
                    return Propagation {
                        consistent: false,
                        rounds,
                        converged: false,
                    };
                }
            }
            if self.any_empty() {
                return Propagation {
                    consistent: false,
                    rounds,
                    converged: false,
                };
            }
            if !changed {
                converged = true;
                break;
            }
        }
        Propagation {
            consistent: !self.any_empty(),
            rounds,
            converged: converged || constraints.is_empty(),
        }
    }

    /// Propagates a single constraint. Returns `false` on contradiction.
    fn propagate_one(&mut self, arena: &TermArena, c: TermId, changed: &mut bool) -> bool {
        match &arena.node(c).kind {
            TermKind::ConstBool(true) => true,
            TermKind::ConstBool(false) => false,
            TermKind::Cmp { op, lhs, rhs } => self.propagate_cmp(arena, *op, *lhs, *rhs, changed),
            TermKind::BoolBin {
                op: crate::term::BoolOp::And,
                lhs,
                rhs,
            } => {
                self.propagate_one(arena, *lhs, changed) && self.propagate_one(arena, *rhs, changed)
            }
            // Other boolean structure (or, not over non-comparisons, ...) is
            // not propagated; the search phases handle it.
            _ => true,
        }
    }

    fn propagate_cmp(
        &mut self,
        arena: &TermArena,
        op: CmpOp,
        lhs: TermId,
        rhs: TermId,
        changed: &mut bool,
    ) -> bool {
        let lv = arena.as_var(lhs);
        let rv = arena.as_var(rhs);
        let lc = arena.as_const_int(lhs).map(|(v, _)| v);
        let rc = arena.as_const_int(rhs).map(|(v, _)| v);
        match (lv, rv, lc, rc) {
            // var op const
            (Some(v), None, None, Some(c)) => self.narrow(arena, v, op, c, changed),
            // const op var  =>  var (swapped op) const
            (None, Some(v), Some(c), None) => self.narrow(arena, v, op.swap(), c, changed),
            // var op var: propagate bounds both ways.
            (Some(a), Some(b), None, None) => {
                let ia = self.get(arena, a);
                let ib = self.get(arena, b);
                if ia.is_empty() || ib.is_empty() {
                    return false;
                }
                let (na, nb) = match op {
                    CmpOp::Eq => {
                        let m = ia.intersect(&ib);
                        (m, m)
                    }
                    CmpOp::Ne => {
                        if ia.is_point() && ib.is_point() && ia.lo == ib.lo {
                            (Interval::empty(), Interval::empty())
                        } else {
                            (ia, ib)
                        }
                    }
                    CmpOp::Ult => (
                        ia.refine_cmp_const(CmpOp::Ult, ib.hi),
                        ib.refine_cmp_const(CmpOp::Ugt, ia.lo),
                    ),
                    CmpOp::Ule => (
                        ia.refine_cmp_const(CmpOp::Ule, ib.hi),
                        ib.refine_cmp_const(CmpOp::Uge, ia.lo),
                    ),
                    CmpOp::Ugt => (
                        ia.refine_cmp_const(CmpOp::Ugt, ib.lo),
                        ib.refine_cmp_const(CmpOp::Ult, ia.hi),
                    ),
                    CmpOp::Uge => (
                        ia.refine_cmp_const(CmpOp::Uge, ib.lo),
                        ib.refine_cmp_const(CmpOp::Ule, ia.hi),
                    ),
                };
                if na != ia {
                    self.set(a, na);
                    *changed = true;
                }
                if nb != ib {
                    self.set(b, nb);
                    *changed = true;
                }
                !na.is_empty() && !nb.is_empty()
            }
            // Structured terms (e.g. `(x & mask) == const`) are not
            // interval-propagated; handled by the search phases.
            _ => true,
        }
    }

    fn narrow(
        &mut self,
        arena: &TermArena,
        var: VarId,
        op: CmpOp,
        bound: u64,
        changed: &mut bool,
    ) -> bool {
        let cur = self.get(arena, var);
        let next = cur.refine_cmp_const(op, bound);
        if next != cur {
            self.set(var, next);
            *changed = true;
        }
        !next.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::TermGen;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The domains of every variable in `constraints`, each over the full
    /// range of its declared width.
    fn init(arena: &TermArena, constraints: &[TermId]) -> Domains {
        let mut domains = Domains::new();
        domains.ensure_vars(arena, constraints, &mut TermWalk::default());
        domains
    }

    /// `Domains` as it was before the dense layout: a `BTreeMap` keyed by
    /// variable, moved here verbatim but for the methods no test calls.
    #[derive(Debug, Clone, Default)]
    struct MapDomains {
        map: BTreeMap<VarId, Interval>,
    }

    impl MapDomains {
        /// Initializes the domain of every variable appearing in `constraints`
        /// to the full range of its declared width.
        fn init(arena: &TermArena, constraints: &[TermId]) -> Self {
            let mut domains = MapDomains::default();
            domains.ensure_vars(arena, constraints);
            domains
        }

        /// Returns the interval for `var`, defaulting to the full width range.
        fn get(&self, arena: &TermArena, var: VarId) -> Interval {
            self.map
                .get(&var)
                .copied()
                .unwrap_or_else(|| Interval::full(arena.var_info(var).width))
        }

        /// Sets the interval for `var`.
        fn set(&mut self, var: VarId, iv: Interval) {
            self.map.insert(var, iv);
        }

        /// Returns true if any variable has an empty domain.
        fn any_empty(&self) -> bool {
            self.map.values().any(Interval::is_empty)
        }

        /// Iterates over `(variable, interval)` pairs.
        fn iter(&self) -> impl Iterator<Item = (VarId, Interval)> + '_ {
            self.map.iter().map(|(&v, &iv)| (v, iv))
        }

        /// Number of tracked variables.
        fn len(&self) -> usize {
            self.map.len()
        }

        /// Product of domain sizes, saturating at `u64::MAX`.
        fn search_space(&self) -> u64 {
            let mut acc: u64 = 1;
            for iv in self.map.values() {
                acc = acc.saturating_mul(iv.size());
                if acc == 0 {
                    return 0;
                }
            }
            acc
        }

        /// Registers every variable appearing in `constraints` that is not yet
        /// tracked, initializing it to the full range of its declared width.
        /// Used by the incremental session when new assertions introduce new
        /// variables on top of an already-propagated stack.
        fn ensure_vars(&mut self, arena: &TermArena, constraints: &[TermId]) {
            // One walk over all of them: a subterm two constraints share is
            // entered once.
            let mut walk = TermWalk::default();
            walk.begin(arena);
            for &c in constraints {
                arena.visit_leaves(c, &mut walk, |leaf| {
                    if let Leaf::Var(v) = leaf {
                        self.map
                            .entry(v)
                            .or_insert_with(|| Interval::full(arena.var_info(v).width));
                    }
                });
            }
        }

        /// Like `propagate`, but additionally reports how many sweeps
        /// ran and whether a fixpoint was reached before the round budget.
        fn propagate_counted(
            &mut self,
            arena: &TermArena,
            constraints: &[TermId],
            max_rounds: usize,
        ) -> Propagation {
            let mut rounds = 0;
            let mut converged = false;
            while rounds < max_rounds {
                rounds += 1;
                let mut changed = false;
                for &c in constraints {
                    if !self.propagate_one(arena, c, &mut changed) {
                        return Propagation {
                            consistent: false,
                            rounds,
                            converged: false,
                        };
                    }
                }
                if self.any_empty() {
                    return Propagation {
                        consistent: false,
                        rounds,
                        converged: false,
                    };
                }
                if !changed {
                    converged = true;
                    break;
                }
            }
            Propagation {
                consistent: !self.any_empty(),
                rounds,
                converged: converged || constraints.is_empty(),
            }
        }

        /// Propagates a single constraint. Returns `false` on contradiction.
        fn propagate_one(&mut self, arena: &TermArena, c: TermId, changed: &mut bool) -> bool {
            match &arena.node(c).kind {
                TermKind::ConstBool(true) => true,
                TermKind::ConstBool(false) => false,
                TermKind::Cmp { op, lhs, rhs } => {
                    self.propagate_cmp(arena, *op, *lhs, *rhs, changed)
                }
                TermKind::BoolBin {
                    op: crate::term::BoolOp::And,
                    lhs,
                    rhs,
                } => {
                    self.propagate_one(arena, *lhs, changed)
                        && self.propagate_one(arena, *rhs, changed)
                }
                // Other boolean structure (or, not over non-comparisons, ...) is
                // not propagated; the search phases handle it.
                _ => true,
            }
        }

        fn propagate_cmp(
            &mut self,
            arena: &TermArena,
            op: CmpOp,
            lhs: TermId,
            rhs: TermId,
            changed: &mut bool,
        ) -> bool {
            let lv = arena.as_var(lhs);
            let rv = arena.as_var(rhs);
            let lc = arena.as_const_int(lhs).map(|(v, _)| v);
            let rc = arena.as_const_int(rhs).map(|(v, _)| v);
            match (lv, rv, lc, rc) {
                // var op const
                (Some(v), None, None, Some(c)) => self.narrow(arena, v, op, c, changed),
                // const op var  =>  var (swapped op) const
                (None, Some(v), Some(c), None) => self.narrow(arena, v, op.swap(), c, changed),
                // var op var: propagate bounds both ways.
                (Some(a), Some(b), None, None) => {
                    let ia = self.get(arena, a);
                    let ib = self.get(arena, b);
                    if ia.is_empty() || ib.is_empty() {
                        return false;
                    }
                    let (na, nb) = match op {
                        CmpOp::Eq => {
                            let m = ia.intersect(&ib);
                            (m, m)
                        }
                        CmpOp::Ne => {
                            if ia.is_point() && ib.is_point() && ia.lo == ib.lo {
                                (Interval::empty(), Interval::empty())
                            } else {
                                (ia, ib)
                            }
                        }
                        CmpOp::Ult => (
                            ia.refine_cmp_const(CmpOp::Ult, ib.hi),
                            ib.refine_cmp_const(CmpOp::Ugt, ia.lo),
                        ),
                        CmpOp::Ule => (
                            ia.refine_cmp_const(CmpOp::Ule, ib.hi),
                            ib.refine_cmp_const(CmpOp::Uge, ia.lo),
                        ),
                        CmpOp::Ugt => (
                            ia.refine_cmp_const(CmpOp::Ugt, ib.lo),
                            ib.refine_cmp_const(CmpOp::Ult, ia.hi),
                        ),
                        CmpOp::Uge => (
                            ia.refine_cmp_const(CmpOp::Uge, ib.lo),
                            ib.refine_cmp_const(CmpOp::Ule, ia.hi),
                        ),
                    };
                    if na != ia {
                        self.set(a, na);
                        *changed = true;
                    }
                    if nb != ib {
                        self.set(b, nb);
                        *changed = true;
                    }
                    !na.is_empty() && !nb.is_empty()
                }
                // Structured terms (e.g. `(x & mask) == const`) are not
                // interval-propagated; handled by the search phases.
                _ => true,
            }
        }

        fn narrow(
            &mut self,
            arena: &TermArena,
            var: VarId,
            op: CmpOp,
            bound: u64,
            changed: &mut bool,
        ) -> bool {
            let cur = self.get(arena, var);
            let next = cur.refine_cmp_const(op, bound);
            if next != cur {
                self.set(var, next);
                *changed = true;
            }
            !next.is_empty()
        }
    }

    proptest! {
        /// The dense layout tracks what the map did: the same variables in
        /// the same ascending order with the same intervals, the same
        /// propagation outcome (consistency, sweeps, convergence) — on a
        /// fresh set and again after a second batch of constraints is
        /// folded in on top, as an incremental session does.
        #[test]
        fn dense_domains_match_the_map(seed in any::<u64>()) {
            let mut gen = TermGen::new(seed, 1 + (seed % 6) as usize, 1..=32);
            let count = 1 + (seed >> 8) as usize % 8;
            let constraints: Vec<TermId> = (0..count).map(|_| gen.constraint(2)).collect();
            let (first, second) = constraints.split_at((seed >> 16) as usize % (count + 1));
            let rounds = 1 + (seed >> 24) as usize % 16;
            let arena = &gen.arena;

            let mut dense = init(arena, first);
            let mut map = MapDomains::init(arena, first);
            let same = |dense: &Domains, map: &MapDomains| {
                prop_assert_eq!(dense.iter().collect::<Vec<_>>(), map.iter().collect::<Vec<_>>());
                prop_assert_eq!(dense.iter().count(), map.len());
                prop_assert_eq!(dense.any_empty(), map.any_empty());
                prop_assert_eq!(dense.search_space(), map.search_space());
                for &(v, _) in &gen.vars {
                    prop_assert_eq!(dense.get(arena, v), map.get(arena, v));
                }
            };
            same(&dense, &map);
            prop_assert_eq!(
                dense.propagate(arena, first, rounds),
                map.propagate_counted(arena, first, rounds)
            );
            same(&dense, &map);
            dense.ensure_vars(arena, second, &mut TermWalk::default());
            map.ensure_vars(arena, second);
            same(&dense, &map);
            prop_assert_eq!(
                dense.propagate(arena, &constraints, rounds),
                map.propagate_counted(arena, &constraints, rounds)
            );
            same(&dense, &map);
        }
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(3, 10);
        assert!(!iv.is_empty());
        assert_eq!(iv.size(), 8);
        assert_eq!(iv.intersect(&Interval::point(3)), Interval::point(3));
        assert_eq!(iv.intersect(&Interval::point(10)), Interval::point(10));
        assert!(iv.intersect(&Interval::point(11)).is_empty());
        assert!(Interval::empty().is_empty());
        assert_eq!(Interval::full(8), Interval::new(0, 255));
        assert_eq!(iv.clamp(100), 10);
        assert_eq!(iv.clamp(0), 3);
    }

    #[test]
    fn refine_against_constants() {
        let iv = Interval::full(8);
        assert_eq!(iv.refine_cmp_const(CmpOp::Ult, 10), Interval::new(0, 9));
        assert_eq!(
            iv.refine_cmp_const(CmpOp::Uge, 200),
            Interval::new(200, 255)
        );
        assert_eq!(iv.refine_cmp_const(CmpOp::Eq, 42), Interval::point(42));
        assert!(iv.refine_cmp_const(CmpOp::Ult, 0).is_empty());
        let pt = Interval::point(5);
        assert!(pt.refine_cmp_const(CmpOp::Ne, 5).is_empty());
        assert_eq!(
            Interval::new(5, 9).refine_cmp_const(CmpOp::Ne, 5),
            Interval::new(6, 9)
        );
    }

    #[test]
    fn propagation_narrows_and_detects_unsat() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c10 = arena.int_const(10, 8);
        let c20 = arena.int_const(20, 8);
        let lo = arena.ugt(xv, c10);
        let hi = arena.ult(xv, c20);

        let mut dom = init(&arena, &[lo, hi]);
        assert!(dom.propagate(&arena, &[lo, hi], 8).consistent);
        assert_eq!(dom.get(&arena, x), Interval::new(11, 19));
        assert_eq!(dom.search_space(), 9);

        let contradiction = arena.ult(xv, c10);
        let mut dom2 = init(&arena, &[lo, contradiction]);
        assert!(!dom2.propagate(&arena, &[lo, contradiction], 8).consistent);
    }

    #[test]
    fn var_var_propagation() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let y = arena.declare_var("y", 8);
        let xv = arena.var(x);
        let yv = arena.var(y);
        let c5 = arena.int_const(5, 8);
        // y <= 5 and x < y  =>  x <= 4.
        let c1 = arena.ule(yv, c5);
        let c2 = arena.ult(xv, yv);
        let cs = [c1, c2];
        let mut dom = init(&arena, &cs);
        assert!(dom.propagate(&arena, &cs, 8).consistent);
        assert_eq!(dom.get(&arena, x).hi, 4);
    }

    #[test]
    fn swapped_constant_comparison() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 16);
        let xv = arena.var(x);
        let c100 = arena.int_const(100, 16);
        // 100 < x  =>  x > 100.
        let c = arena.ult(c100, xv);
        let cs = [c];
        let mut dom = init(&arena, &cs);
        assert!(dom.propagate(&arena, &cs, 4).consistent);
        assert_eq!(dom.get(&arena, x).lo, 101);
    }

    #[test]
    fn conjunction_is_decomposed() {
        let mut arena = TermArena::new();
        let x = arena.declare_var("x", 8);
        let xv = arena.var(x);
        let c3 = arena.int_const(3, 8);
        let c7 = arena.int_const(7, 8);
        let a = arena.uge(xv, c3);
        let b = arena.ule(xv, c7);
        let both = arena.and(a, b);
        let cs = [both];
        let mut dom = init(&arena, &cs);
        assert!(dom.propagate(&arena, &cs, 4).consistent);
        assert_eq!(dom.get(&arena, x), Interval::new(3, 7));
    }
}
