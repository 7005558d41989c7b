//! Test-only oracles and generators shared by this crate's tests: the
//! evaluator the crate had before [`crate::eval`] (kept, as the reference
//! the new core is compared against), a random term generator that reaches
//! every [`TermKind`], and exhaustive satisfiability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::Model;
use crate::term::{mask, BoolOp, CmpOp, Sort, TermArena, TermId, TermKind, VarId};

/// A concrete value produced by evaluating a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value {
    /// An unsigned integer of the given width.
    Int { value: u64, width: u32 },
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Returns the integer payload, panicking on booleans.
    pub fn expect_int(self) -> u64 {
        match self {
            Value::Int { value, .. } => value,
            Value::Bool(_) => panic!("expected integer value, found boolean"),
        }
    }

    /// Returns the boolean payload, panicking on integers.
    pub fn expect_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int { .. } => panic!("expected boolean value, found integer"),
        }
    }
}

/// `Model::eval` as it was before the evaluation core was split by sort:
/// one recursion returning a [`Value`] enum, reading variables from the
/// model's map.
pub(crate) fn reference_eval(model: &Model, arena: &TermArena, term: TermId) -> Value {
    reference_eval_memo(model, arena, term, &mut vec![None; arena.len()])
}

/// [`reference_eval`] that records each term's value in `memo`, indexed by
/// [`TermId`] and holding values under this `model` only: a subterm the
/// DAG shares is evaluated once, however many times its tree repeats it.
fn reference_eval_memo(
    model: &Model,
    arena: &TermArena,
    term: TermId,
    memo: &mut [Option<Value>],
) -> Value {
    if let Some(value) = memo[term.0 as usize] {
        return value;
    }
    let mut eval = |t| reference_eval_memo(model, arena, t, memo);
    let value = match &arena.node(term).kind {
        TermKind::ConstInt { value, width } => Value::Int {
            value: *value,
            width: *width,
        },
        TermKind::ConstBool(b) => Value::Bool(*b),
        TermKind::Var(v) => {
            let width = arena.var_info(*v).width;
            Value::Int {
                value: mask(model.get(*v), width),
                width,
            }
        }
        TermKind::Cmp { op, lhs, rhs } => {
            let a = eval(*lhs).expect_int();
            let b = eval(*rhs).expect_int();
            Value::Bool(op.eval(a, b))
        }
        TermKind::BoolBin { op, lhs, rhs } => {
            let a = eval(*lhs).expect_bool();
            let b = eval(*rhs).expect_bool();
            Value::Bool(op.eval(a, b))
        }
        TermKind::BoolNot(x) => Value::Bool(!eval(*x).expect_bool()),
    };
    memo[term.0 as usize] = Some(value);
    value
}

/// The number of constraints that do not hold under `model`, by
/// [`reference_eval`].
pub(crate) fn reference_count_violations(
    model: &Model,
    arena: &TermArena,
    constraints: &[TermId],
) -> usize {
    constraints
        .iter()
        .filter(|&&c| !reference_eval(model, arena, c).expect_bool())
        .count()
}

/// Builds random well-sorted terms over a few declared variables.
pub(crate) struct TermGen {
    pub rng: StdRng,
    pub arena: TermArena,
    pub vars: Vec<(VarId, u32)>,
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ult,
    CmpOp::Ule,
    CmpOp::Ugt,
    CmpOp::Uge,
];
const BOOL_OPS: [BoolOp; 2] = [BoolOp::And, BoolOp::Or];

/// Levels of [`TermGen::widely_shared`]: enough that the constraint's tree
/// passes the solver's step limit for one compiled structure.
const SHARED_LEVELS: u32 = 6;

impl TermGen {
    /// Declares `var_count` variables with widths drawn from `widths`; about
    /// half of them take the width of an earlier one, so that comparisons
    /// of two variables occur.
    pub fn new(seed: u64, var_count: usize, widths: std::ops::RangeInclusive<u32>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = TermArena::new();
        let mut vars: Vec<(VarId, u32)> = Vec::with_capacity(var_count);
        for i in 0..var_count {
            let width = if i > 0 && rng.gen_range(0..2u32) == 0 {
                vars[rng.gen_range(0..i)].1
            } else {
                rng.gen_range(widths.clone())
            };
            vars.push((arena.declare_var(format!("v{i}"), width), width));
        }
        TermGen { rng, arena, vars }
    }

    /// A random assignment; half the time some variable is left out, and
    /// values may exceed their variable's width (models hold raw values).
    pub fn model(&mut self) -> Model {
        let mut model = Model::new();
        for &(v, width) in &self.vars {
            if self.rng.gen_range(0..8u32) == 0 {
                continue;
            }
            let value = match self.rng.gen_range(0..4u32) {
                0 => self.rng.gen_range(0..=u64::MAX),
                1 => 0,
                _ => self.rng.gen_range(0..=crate::term::max_value(width)),
            };
            model.set(v, value);
        }
        model
    }

    fn constant(&mut self, width: u32) -> TermId {
        let max = crate::term::max_value(width);
        let value = match self.rng.gen_range(0..4u32) {
            0 => 0,
            1 => max,
            _ => self.rng.gen_range(0..=max),
        };
        self.arena.int_const(value, width)
    }

    /// A random integer leaf of `width` bits: a constant, or a variable of
    /// that width when there is one.
    pub fn int_term(&mut self, width: u32) -> TermId {
        let same: Vec<VarId> = self
            .vars
            .iter()
            .filter(|&&(_, w)| w == width)
            .map(|&(v, _)| v)
            .collect();
        if same.is_empty() || self.rng.gen_range(0..2u32) == 0 {
            return self.constant(width);
        }
        let v = same[self.rng.gen_range(0..same.len())];
        self.arena.var(v)
    }

    /// A comparison of two leaves of one variable's width.
    fn comparison(&mut self) -> TermId {
        let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
        let width = self.vars[self.rng.gen_range(0..self.vars.len())].1;
        let lhs = self.int_term(width);
        let rhs = self.int_term(width);
        self.arena.cmp(op, lhs, rhs)
    }

    /// A random boolean term.
    pub fn bool_term(&mut self, depth: u32) -> TermId {
        let pick = if depth == 0 {
            self.rng.gen_range(0..2u32)
        } else {
            self.rng.gen_range(0..6u32)
        };
        match pick {
            0 if self.rng.gen_range(0..4u32) == 0 => {
                let value = self.rng.gen_range(0..2u32) == 0;
                self.arena.bool_const(value)
            }
            0..=2 => self.comparison(),
            3 | 4 => {
                let op = BOOL_OPS[self.rng.gen_range(0..BOOL_OPS.len())];
                let lhs = self.bool_term(depth - 1);
                let rhs = self.bool_term(depth - 1);
                self.arena.bool_bin(op, lhs, rhs)
            }
            _ => {
                let inner = self.bool_term(depth - 1);
                self.arena.not(inner)
            }
        }
    }

    /// A comparison of a variable against a constant, which never folds.
    fn unary(&mut self) -> TermId {
        let (v, width) = self.vars[self.rng.gen_range(0..self.vars.len())];
        let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
        let lhs = self.arena.var(v);
        let rhs = self.constant(width);
        self.arena.cmp(op, lhs, rhs)
    }

    /// A term equivalent to a random comparison `t` whose tree holds
    /// `2^SHARED_LEVELS` copies of it: each level is `(t ∧ u) ∨ (t ∧ ¬u)`
    /// over the level below and a fresh comparison `u`.
    pub fn widely_shared(&mut self) -> TermId {
        let mut term = self.unary();
        for _ in 0..SHARED_LEVELS {
            let split = self.unary();
            let not_split = self.arena.not(split);
            let with = self.arena.and(term, split);
            let without = self.arena.and(term, not_split);
            term = self.arena.or(with, without);
        }
        term
    }

    /// A random constraint shaped like the ones the concolic engine emits:
    /// mostly comparisons of one variable against a constant or another
    /// variable, sometimes arbitrary structure, now and then a widely
    /// shared one.
    pub fn constraint(&mut self, depth: u32) -> TermId {
        match self.rng.gen_range(0..16u32) {
            0 => return self.widely_shared(),
            2..=6 => return self.bool_term(depth),
            _ => {}
        }
        let (v, width) = self.vars[self.rng.gen_range(0..self.vars.len())];
        let partner = self
            .vars
            .iter()
            .find(|&&(u, w)| u != v && w == width)
            .map(|&(u, _)| u);
        match partner {
            Some(u) if self.rng.gen_range(0..4u32) == 0 => {
                let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
                let (lhs, rhs) = (self.arena.var(v), self.arena.var(u));
                self.arena.cmp(op, lhs, rhs)
            }
            _ => self.unary(),
        }
    }
}

/// True if some assignment of the declared variables (each over its full
/// width, which must be small) satisfies every constraint, by trying all of
/// them against [`reference_eval`], each assignment evaluating a shared
/// subterm once.
pub(crate) fn exhaustively_satisfiable(
    arena: &TermArena,
    vars: &[(VarId, u32)],
    constraints: &[TermId],
) -> bool {
    let total_bits: u32 = vars.iter().map(|&(_, w)| w).sum();
    assert!(
        total_bits <= 20,
        "{total_bits} bits is too many to enumerate"
    );
    let mut memo = vec![None; arena.len()];
    (0..1u64 << total_bits).any(|mut packed| {
        let mut model = Model::new();
        for &(v, width) in vars {
            model.set(v, packed & crate::term::max_value(width));
            packed >>= width;
        }
        memo.fill(None);
        constraints
            .iter()
            .all(|&c| reference_eval_memo(&model, arena, c, &mut memo).expect_bool())
    })
}

/// Every [`TermKind`] variant, by name, for tests asserting a generator
/// reached them all.
pub(crate) fn kind_name(kind: &TermKind) -> &'static str {
    match kind {
        TermKind::ConstInt { .. } => "ConstInt",
        TermKind::ConstBool(_) => "ConstBool",
        TermKind::Var(_) => "Var",
        TermKind::Cmp { .. } => "Cmp",
        TermKind::BoolBin { .. } => "BoolBin",
        TermKind::BoolNot(_) => "BoolNot",
    }
}

/// The sort-appropriate root for an evaluation test: half integer leaves,
/// half boolean terms.
pub(crate) fn any_term(gen: &mut TermGen, depth: u32) -> TermId {
    if gen.rng.gen_range(0..2u32) == 0 {
        gen.bool_term(depth)
    } else {
        let width = gen.vars[gen.rng.gen_range(0..gen.vars.len())].1;
        let term = gen.int_term(width);
        debug_assert_eq!(gen.arena.sort(term), Sort::Int(width));
        term
    }
}
