//! Test-only oracles and generators shared by this crate's tests: the
//! evaluator the crate had before [`crate::eval`] (kept verbatim, as the
//! reference the new core is compared against), a random term generator
//! that reaches every [`TermKind`], and exhaustive satisfiability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Model, Value};
use crate::term::{mask, BinOp, BoolOp, CmpOp, Sort, TermArena, TermId, TermKind, VarId};

/// `Model::eval` as it was before the evaluation core was split by sort:
/// one recursion returning a [`Value`] enum, reading variables from the
/// model's map.
pub(crate) fn reference_eval(model: &Model, arena: &TermArena, term: TermId) -> Value {
    match &arena.node(term).kind {
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
        TermKind::Bin { op, lhs, rhs } => {
            let a = reference_eval(model, arena, *lhs).expect_int();
            let b = reference_eval(model, arena, *rhs).expect_int();
            let width = arena.sort(term).width();
            Value::Int {
                value: TermArena::eval_bin(*op, a, b, width),
                width,
            }
        }
        TermKind::Cmp { op, lhs, rhs } => {
            let a = reference_eval(model, arena, *lhs).expect_int();
            let b = reference_eval(model, arena, *rhs).expect_int();
            Value::Bool(op.eval(a, b))
        }
        TermKind::BoolBin { op, lhs, rhs } => {
            let a = reference_eval(model, arena, *lhs).expect_bool();
            let b = reference_eval(model, arena, *rhs).expect_bool();
            Value::Bool(op.eval(a, b))
        }
        TermKind::BoolNot(x) => Value::Bool(!reference_eval(model, arena, *x).expect_bool()),
        TermKind::BitNot(x) => {
            let width = arena.sort(term).width();
            Value::Int {
                value: mask(!reference_eval(model, arena, *x).expect_int(), width),
                width,
            }
        }
        TermKind::Ite {
            cond,
            then_t,
            else_t,
        } => {
            if reference_eval(model, arena, *cond).expect_bool() {
                reference_eval(model, arena, *then_t)
            } else {
                reference_eval(model, arena, *else_t)
            }
        }
        TermKind::Resize { term: inner, width } => {
            let v = reference_eval(model, arena, *inner).expect_int();
            Value::Int {
                value: mask(v, *width),
                width: *width,
            }
        }
    }
}

/// `Model::count_violations` over [`reference_eval`].
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

const BIN_OPS: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::UDiv,
    BinOp::URem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ult,
    CmpOp::Ule,
    CmpOp::Ugt,
    CmpOp::Uge,
];
const BOOL_OPS: [BoolOp; 4] = [BoolOp::And, BoolOp::Or, BoolOp::Implies, BoolOp::Xor];

impl TermGen {
    /// Declares `var_count` variables with widths drawn from `widths`.
    pub fn new(seed: u64, var_count: usize, widths: std::ops::RangeInclusive<u32>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = TermArena::new();
        let vars = (0..var_count)
            .map(|i| {
                let width = rng.gen_range(widths.clone());
                (arena.declare_var(format!("v{i}"), width), width)
            })
            .collect();
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

    /// A random integer term of `width` bits.
    pub fn int_term(&mut self, width: u32, depth: u32) -> TermId {
        let pick = if depth == 0 {
            self.rng.gen_range(0..2u32)
        } else {
            self.rng.gen_range(0..7u32)
        };
        match pick {
            0 => self.constant(width),
            1 => {
                let (v, w) = self.vars[self.rng.gen_range(0..self.vars.len())];
                let term = self.arena.var(v);
                if w == width {
                    term
                } else {
                    self.arena.resize(term, width)
                }
            }
            2 | 3 => {
                let op = BIN_OPS[self.rng.gen_range(0..BIN_OPS.len())];
                let lhs = self.int_term(width, depth - 1);
                let rhs = self.int_term(width, depth - 1);
                self.arena.bin(op, lhs, rhs)
            }
            4 => {
                let inner = self.int_term(width, depth - 1);
                self.arena.bitnot(inner)
            }
            5 => {
                let cond = self.bool_term(depth - 1);
                let then_t = self.int_term(width, depth - 1);
                let else_t = self.int_term(width, depth - 1);
                self.arena.ite(cond, then_t, else_t)
            }
            _ => {
                let other = self.rng.gen_range(1..=64u32);
                let inner = self.int_term(other, depth - 1);
                self.arena.resize(inner, width)
            }
        }
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
            0..=2 => {
                let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
                let width = self.vars[self.rng.gen_range(0..self.vars.len())].1;
                let lhs = self.int_term(width, depth.saturating_sub(1));
                let rhs = self.int_term(width, depth.saturating_sub(1));
                self.arena.cmp(op, lhs, rhs)
            }
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

    /// A random constraint shaped like the ones the concolic engine emits:
    /// mostly comparisons of one variable against a constant, sometimes
    /// arbitrary structure.
    pub fn constraint(&mut self, depth: u32) -> TermId {
        if self.rng.gen_range(0..3u32) == 0 {
            return self.bool_term(depth);
        }
        let (v, width) = self.vars[self.rng.gen_range(0..self.vars.len())];
        let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
        let lhs = self.arena.var(v);
        let rhs = self.constant(width);
        self.arena.cmp(op, lhs, rhs)
    }
}

/// True if some assignment of the declared variables (each over its full
/// width, which must be small) satisfies every constraint, by trying all of
/// them against [`reference_eval`].
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
    (0..1u64 << total_bits).any(|mut packed| {
        let mut model = Model::new();
        for &(v, width) in vars {
            model.set(v, packed & crate::term::max_value(width));
            packed >>= width;
        }
        reference_count_violations(&model, arena, constraints) == 0
    })
}

/// Every [`TermKind`] variant, by name, for tests asserting a generator
/// reached them all.
pub(crate) fn kind_name(kind: &TermKind) -> &'static str {
    match kind {
        TermKind::ConstInt { .. } => "ConstInt",
        TermKind::ConstBool(_) => "ConstBool",
        TermKind::Var(_) => "Var",
        TermKind::Bin { .. } => "Bin",
        TermKind::Cmp { .. } => "Cmp",
        TermKind::BoolBin { .. } => "BoolBin",
        TermKind::BoolNot(_) => "BoolNot",
        TermKind::BitNot(_) => "BitNot",
        TermKind::Ite { .. } => "Ite",
        TermKind::Resize { .. } => "Resize",
    }
}

/// The sort-appropriate root for an evaluation test: half integer terms,
/// half boolean.
pub(crate) fn any_term(gen: &mut TermGen, depth: u32) -> TermId {
    if gen.rng.gen_range(0..2u32) == 0 {
        gen.bool_term(depth)
    } else {
        let width = gen.rng.gen_range(1..=64u32);
        let term = gen.int_term(width, depth);
        debug_assert_eq!(gen.arena.sort(term), Sort::Int(width));
        term
    }
}
