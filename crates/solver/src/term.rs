//! Hash-consed term arena for the DiCE constraint language.
//!
//! Terms are fixed-width unsigned integers (1 to 64 bits) and booleans.
//! All integer arithmetic wraps modulo `2^width`, mirroring the machine
//! semantics of the BGP message fields (prefix bits, masks, ASNs, metric
//! values) that the concolic engine reasons about.
//!
//! The arena performs *hash-consing*: structurally identical terms are
//! stored once and identified by a [`TermId`]. Construction methods also
//! perform light constant folding so that fully-concrete subexpressions
//! never reach the solver.

use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::Arc;

use crate::hash::FastHashMap;

/// Identifier of a term inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Returns the raw index of this term in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a symbolic variable declared in a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Returns the raw index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// A boolean value.
    Bool,
    /// An unsigned integer of the given bit width (1..=64).
    Int(u32),
}

impl Sort {
    /// Returns the bit width for integer sorts, or 1 for booleans.
    pub fn width(self) -> u32 {
        match self {
            Sort::Bool => 1,
            Sort::Int(w) => w,
        }
    }

    /// Returns true if this sort is an integer sort.
    pub fn is_int(self) -> bool {
        matches!(self, Sort::Int(_))
    }
}

/// Metadata describing a declared symbolic variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name (e.g. `"nlri.prefix"`), shared with whoever
    /// declared it: an arena is built per concolic run, its names are not.
    pub name: Arc<str>,
    /// Bit width of the variable (1..=64).
    pub width: u32,
}

/// Binary integer operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (division by zero yields all-ones, like SMT-LIB).
    UDiv,
    /// Unsigned remainder (remainder by zero yields the dividend).
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amounts >= width yield 0).
    Shl,
    /// Logical shift right (shift amounts >= width yield 0).
    Lshr,
}

/// Binary comparison operators producing booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl CmpOp {
    /// Returns the comparison that holds exactly when `self` does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ult => CmpOp::Uge,
            CmpOp::Ule => CmpOp::Ugt,
            CmpOp::Ugt => CmpOp::Ule,
            CmpOp::Uge => CmpOp::Ult,
        }
    }

    /// Returns the comparison obtained by swapping the operands.
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Ult => CmpOp::Ugt,
            CmpOp::Ule => CmpOp::Uge,
            CmpOp::Ugt => CmpOp::Ult,
            CmpOp::Uge => CmpOp::Ule,
        }
    }

    /// Evaluates the comparison on concrete unsigned values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ult => a < b,
            CmpOp::Ule => a <= b,
            CmpOp::Ugt => a > b,
            CmpOp::Uge => a >= b,
        }
    }
}

/// Binary boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Implication.
    Implies,
    /// Exclusive or.
    Xor,
}

impl BoolOp {
    /// Evaluates the connective on concrete booleans.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BoolOp::And => a && b,
            BoolOp::Or => a || b,
            BoolOp::Implies => !a || b,
            BoolOp::Xor => a ^ b,
        }
    }
}

/// The structural kind of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Variant fields are self-describing.
pub enum TermKind {
    /// Integer constant with the given width.
    ConstInt { value: u64, width: u32 },
    /// Boolean constant.
    ConstBool(bool),
    /// Symbolic variable reference.
    Var(VarId),
    /// Binary integer operation.
    Bin { op: BinOp, lhs: TermId, rhs: TermId },
    /// Comparison of two integer terms.
    Cmp { op: CmpOp, lhs: TermId, rhs: TermId },
    /// Binary boolean connective.
    BoolBin {
        op: BoolOp,
        lhs: TermId,
        rhs: TermId,
    },
    /// Boolean negation.
    BoolNot(TermId),
    /// Bitwise complement of an integer term.
    BitNot(TermId),
    /// If-then-else over integer terms, with a boolean condition.
    Ite {
        cond: TermId,
        then_t: TermId,
        else_t: TermId,
    },
    /// Zero-extension (or truncation) of an integer term to a new width.
    Resize { term: TermId, width: u32 },
}

/// A term node: its kind plus its cached sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermNode {
    /// Structural payload.
    pub kind: TermKind,
    /// Sort of the term.
    pub sort: Sort,
}

/// Truncates `value` to `width` bits.
pub fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Returns the maximum value representable in `width` bits.
pub fn max_value(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A leaf a traversal reaches: a variable or an integer constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leaf {
    Var(VarId),
    Const(u64),
}

/// Scratch for [`TermArena::visit_leaves`]: which terms a traversal has
/// entered, kept as epoch stamps so that starting over costs nothing and one
/// allocation serves every constraint of a query.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermWalk {
    marks: Vec<u32>,
    stack: Vec<TermId>,
    epoch: u32,
}

impl TermWalk {
    /// Forgets every term entered so far and covers all of `arena`.
    pub(crate) fn begin(&mut self, arena: &TermArena) {
        self.marks.resize(arena.len(), 0);
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                self.marks.fill(0);
                1
            }
        };
    }
}

/// A hash-consed arena of terms and symbolic variables.
///
/// # Examples
///
/// ```
/// use dice_solver::term::TermArena;
///
/// let mut arena = TermArena::new();
/// let x = arena.declare_var("x", 8);
/// let xv = arena.var(x);
/// let five = arena.int_const(5, 8);
/// let sum = arena.add(xv, five);
/// let ten = arena.int_const(10, 8);
/// let cond = arena.eq(sum, ten);
/// assert!(arena.node(cond).sort.is_int() == false);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    dedup: FastHashMap<TermKind, TermId>,
    vars: Vec<VarInfo>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `terms` more terms and `vars` more variables, so a
    /// run about as large as the one before it grows nothing on the way.
    pub fn reserve(&mut self, terms: usize, vars: usize) {
        self.nodes.reserve(terms);
        self.dedup.reserve(terms);
        self.vars.reserve(vars);
    }

    /// Number of distinct terms stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Returns the node for a term id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this arena.
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.index()]
    }

    /// Returns the sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.nodes[id.index()].sort
    }

    /// Returns variable metadata.
    pub fn var_info(&self, var: VarId) -> &VarInfo {
        &self.vars[var.index()]
    }

    /// Iterates over all declared variables.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, info)| (VarId(i as u32), info))
    }

    /// Declares a fresh symbolic variable with the given name and width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn declare_var(&mut self, name: impl Into<Arc<str>>, width: u32) -> VarId {
        assert!(
            (1..=64).contains(&width),
            "variable width must be in 1..=64"
        );
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.into(),
            width,
        });
        id
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        match self.dedup.entry(kind) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                let id = TermId(self.nodes.len() as u32);
                self.nodes.push(TermNode { kind, sort });
                *slot.insert(id)
            }
        }
    }

    /// Creates an integer constant of the given width.
    pub fn int_const(&mut self, value: u64, width: u32) -> TermId {
        let value = mask(value, width);
        self.intern(TermKind::ConstInt { value, width }, Sort::Int(width))
    }

    /// Creates a boolean constant.
    pub fn bool_const(&mut self, value: bool) -> TermId {
        self.intern(TermKind::ConstBool(value), Sort::Bool)
    }

    /// Creates a reference to a declared variable.
    pub fn var(&mut self, var: VarId) -> TermId {
        let width = self.vars[var.index()].width;
        self.intern(TermKind::Var(var), Sort::Int(width))
    }

    /// Returns the constant integer value of a term, if it is one.
    pub fn as_const_int(&self, id: TermId) -> Option<(u64, u32)> {
        match self.node(id).kind {
            TermKind::ConstInt { value, width } => Some((value, width)),
            _ => None,
        }
    }

    /// Returns the constant boolean value of a term, if it is one.
    pub fn as_const_bool(&self, id: TermId) -> Option<bool> {
        match self.node(id).kind {
            TermKind::ConstBool(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the variable referenced by a term, if it is a plain variable.
    pub fn as_var(&self, id: TermId) -> Option<VarId> {
        match self.node(id).kind {
            TermKind::Var(v) => Some(v),
            _ => None,
        }
    }

    fn int_width(&self, id: TermId) -> u32 {
        match self.sort(id) {
            Sort::Int(w) => w,
            Sort::Bool => panic!("expected integer term, found boolean {id}"),
        }
    }

    /// Applies a concrete binary integer operation with wrapping semantics.
    pub fn eval_bin(op: BinOp, a: u64, b: u64, width: u32) -> u64 {
        let r = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::UDiv => match a.checked_div(b) {
                Some(q) => q,
                None => max_value(width),
            },
            BinOp::URem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => {
                if b >= width as u64 {
                    0
                } else {
                    a << b
                }
            }
            BinOp::Lshr => {
                if b >= width as u64 {
                    0
                } else {
                    a >> b
                }
            }
        };
        mask(r, width)
    }

    /// Creates a binary integer operation term, folding constants.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths or are not integers.
    pub fn bin(&mut self, op: BinOp, lhs: TermId, rhs: TermId) -> TermId {
        let wl = self.int_width(lhs);
        let wr = self.int_width(rhs);
        assert_eq!(wl, wr, "width mismatch in {op:?}: {wl} vs {wr}");
        if let (Some((a, _)), Some((b, _))) = (self.as_const_int(lhs), self.as_const_int(rhs)) {
            return self.int_const(Self::eval_bin(op, a, b, wl), wl);
        }
        // Identity simplifications.
        if let Some((b, _)) = self.as_const_int(rhs) {
            match (op, b) {
                (
                    BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Lshr,
                    0,
                ) => return lhs,
                (BinOp::Mul, 1) | (BinOp::UDiv, 1) => return lhs,
                (BinOp::Mul | BinOp::And, 0) => return self.int_const(0, wl),
                (BinOp::And, b) if b == max_value(wl) => return lhs,
                _ => {}
            }
        }
        if let Some((a, _)) = self.as_const_int(lhs) {
            match (op, a) {
                (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => return rhs,
                (BinOp::Mul, 1) => return rhs,
                (BinOp::Mul | BinOp::And, 0) => return self.int_const(0, wl),
                (BinOp::And, a) if a == max_value(wl) => return rhs,
                _ => {}
            }
        }
        self.intern(TermKind::Bin { op, lhs, rhs }, Sort::Int(wl))
    }

    /// Wrapping addition.
    pub fn add(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// Bitwise and.
    pub fn bitand(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::And, lhs, rhs)
    }

    /// Bitwise or.
    pub fn bitor(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Or, lhs, rhs)
    }

    /// Bitwise xor.
    pub fn bitxor(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Xor, lhs, rhs)
    }

    /// Logical shift left.
    pub fn shl(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Shl, lhs, rhs)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bin(BinOp::Lshr, lhs, rhs)
    }

    /// Bitwise complement.
    pub fn bitnot(&mut self, term: TermId) -> TermId {
        let w = self.int_width(term);
        if let Some((v, _)) = self.as_const_int(term) {
            return self.int_const(!v, w);
        }
        self.intern(TermKind::BitNot(term), Sort::Int(w))
    }

    /// Creates a comparison term, folding constants.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths or are not integers.
    pub fn cmp(&mut self, op: CmpOp, lhs: TermId, rhs: TermId) -> TermId {
        let wl = self.int_width(lhs);
        let wr = self.int_width(rhs);
        assert_eq!(wl, wr, "width mismatch in {op:?}: {wl} vs {wr}");
        if let (Some((a, _)), Some((b, _))) = (self.as_const_int(lhs), self.as_const_int(rhs)) {
            return self.bool_const(op.eval(a, b));
        }
        if lhs == rhs {
            return self.bool_const(matches!(op, CmpOp::Eq | CmpOp::Ule | CmpOp::Uge));
        }
        self.intern(TermKind::Cmp { op, lhs, rhs }, Sort::Bool)
    }

    /// Equality comparison.
    pub fn eq(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Eq, lhs, rhs)
    }

    /// Disequality comparison.
    pub fn ne(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Ne, lhs, rhs)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Ult, lhs, rhs)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Ule, lhs, rhs)
    }

    /// Unsigned greater-than.
    pub fn ugt(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Ugt, lhs, rhs)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.cmp(CmpOp::Uge, lhs, rhs)
    }

    /// Creates a binary boolean connective, folding constants.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not booleans.
    pub fn bool_bin(&mut self, op: BoolOp, lhs: TermId, rhs: TermId) -> TermId {
        assert_eq!(self.sort(lhs), Sort::Bool, "expected boolean lhs");
        assert_eq!(self.sort(rhs), Sort::Bool, "expected boolean rhs");
        if let (Some(a), Some(b)) = (self.as_const_bool(lhs), self.as_const_bool(rhs)) {
            return self.bool_const(op.eval(a, b));
        }
        if let Some(a) = self.as_const_bool(lhs) {
            match (op, a) {
                (BoolOp::And, true) | (BoolOp::Or, false) | (BoolOp::Implies, true) => return rhs,
                (BoolOp::And, false) => return self.bool_const(false),
                (BoolOp::Or, true) | (BoolOp::Implies, false) => return self.bool_const(true),
                (BoolOp::Xor, false) => return rhs,
                (BoolOp::Xor, true) => return self.not(rhs),
            }
        }
        if let Some(b) = self.as_const_bool(rhs) {
            match (op, b) {
                (BoolOp::And, true) | (BoolOp::Or, false) => return lhs,
                (BoolOp::And, false) => return self.bool_const(false),
                (BoolOp::Or, true) | (BoolOp::Implies, true) => return self.bool_const(true),
                (BoolOp::Implies, false) => return self.not(lhs),
                (BoolOp::Xor, false) => return lhs,
                (BoolOp::Xor, true) => return self.not(lhs),
            }
        }
        self.intern(TermKind::BoolBin { op, lhs, rhs }, Sort::Bool)
    }

    /// Boolean conjunction.
    pub fn and(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bool_bin(BoolOp::And, lhs, rhs)
    }

    /// Boolean disjunction.
    pub fn or(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bool_bin(BoolOp::Or, lhs, rhs)
    }

    /// Boolean implication.
    pub fn implies(&mut self, lhs: TermId, rhs: TermId) -> TermId {
        self.bool_bin(BoolOp::Implies, lhs, rhs)
    }

    /// Boolean negation.
    ///
    /// Negating a comparison produces the complementary comparison rather
    /// than a wrapping `BoolNot`, which keeps constraints in the solvable
    /// `lhs op rhs` shape.
    pub fn not(&mut self, term: TermId) -> TermId {
        if let Some(b) = self.as_const_bool(term) {
            return self.bool_const(!b);
        }
        if let TermKind::Cmp { op, lhs, rhs } = self.node(term).kind {
            return self.cmp(op.negate(), lhs, rhs);
        }
        if let TermKind::BoolNot(inner) = self.node(term).kind {
            return inner;
        }
        self.intern(TermKind::BoolNot(term), Sort::Bool)
    }

    /// If-then-else over integer terms.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not boolean or the branches have mismatched widths.
    pub fn ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        assert_eq!(self.sort(cond), Sort::Bool, "ite condition must be boolean");
        let wt = self.int_width(then_t);
        let we = self.int_width(else_t);
        assert_eq!(wt, we, "ite branch width mismatch");
        if let Some(c) = self.as_const_bool(cond) {
            return if c { then_t } else { else_t };
        }
        if then_t == else_t {
            return then_t;
        }
        self.intern(
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            },
            Sort::Int(wt),
        )
    }

    /// Zero-extends or truncates an integer term to `width` bits.
    pub fn resize(&mut self, term: TermId, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "resize width must be in 1..=64");
        let w = self.int_width(term);
        if w == width {
            return term;
        }
        if let Some((v, _)) = self.as_const_int(term) {
            return self.int_const(v, width);
        }
        self.intern(TermKind::Resize { term, width }, Sort::Int(width))
    }

    /// Collects the set of variables appearing in a term.
    pub fn collect_vars(&self, id: TermId, out: &mut Vec<VarId>) {
        let mut walk = TermWalk::default();
        walk.begin(self);
        self.visit_leaves(id, &mut walk, |leaf| match leaf {
            Leaf::Var(v) if !out.contains(&v) => out.push(v),
            _ => {}
        });
    }

    /// Calls `visit` for every variable and integer constant under `root`
    /// whose term `walk` has not reached since its last
    /// [`TermWalk::begin`], depth first, right operand before left. Shared
    /// subterms are entered once, and a variable or constant has one term,
    /// so within one `begin` no leaf is visited twice.
    pub(crate) fn visit_leaves(
        &self,
        root: TermId,
        walk: &mut TermWalk,
        mut visit: impl FnMut(Leaf),
    ) {
        walk.stack.push(root);
        while let Some(t) = walk.stack.pop() {
            if walk.marks[t.index()] == walk.epoch {
                continue;
            }
            walk.marks[t.index()] = walk.epoch;
            match self.node(t).kind {
                TermKind::ConstBool(_) => {}
                TermKind::ConstInt { value, .. } => visit(Leaf::Const(value)),
                TermKind::Var(v) => visit(Leaf::Var(v)),
                TermKind::Bin { lhs, rhs, .. }
                | TermKind::Cmp { lhs, rhs, .. }
                | TermKind::BoolBin { lhs, rhs, .. } => {
                    walk.stack.push(lhs);
                    walk.stack.push(rhs);
                }
                TermKind::BoolNot(x) | TermKind::BitNot(x) => walk.stack.push(x),
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                } => {
                    walk.stack.push(cond);
                    walk.stack.push(then_t);
                    walk.stack.push(else_t);
                }
                TermKind::Resize { term, .. } => walk.stack.push(term),
            }
        }
    }

    /// Pretty-prints a term as an s-expression for debugging.
    pub fn display(&self, id: TermId) -> String {
        match &self.node(id).kind {
            TermKind::ConstInt { value, width } => format!("{value}:{width}"),
            TermKind::ConstBool(b) => b.to_string(),
            TermKind::Var(v) => self.var_info(*v).name.to_string(),
            TermKind::Bin { op, lhs, rhs } => {
                format!("({op:?} {} {})", self.display(*lhs), self.display(*rhs))
            }
            TermKind::Cmp { op, lhs, rhs } => {
                format!("({op:?} {} {})", self.display(*lhs), self.display(*rhs))
            }
            TermKind::BoolBin { op, lhs, rhs } => {
                format!("({op:?} {} {})", self.display(*lhs), self.display(*rhs))
            }
            TermKind::BoolNot(x) => format!("(not {})", self.display(*x)),
            TermKind::BitNot(x) => format!("(bvnot {})", self.display(*x)),
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => format!(
                "(ite {} {} {})",
                self.display(*cond),
                self.display(*then_t),
                self.display(*else_t)
            ),
            TermKind::Resize { term, width } => {
                format!("(resize {} {width})", self.display(*term))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_truncates() {
        assert_eq!(mask(0x1ff, 8), 0xff);
        assert_eq!(mask(0x1ff, 16), 0x1ff);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(max_value(8), 255);
        assert_eq!(max_value(64), u64::MAX);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut a = TermArena::new();
        let x = a.declare_var("x", 32);
        let t1 = a.var(x);
        let t2 = a.var(x);
        assert_eq!(t1, t2);
        let c1 = a.int_const(7, 32);
        let c2 = a.int_const(7, 32);
        assert_eq!(c1, c2);
        let s1 = a.add(t1, c1);
        let s2 = a.add(t2, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding() {
        let mut a = TermArena::new();
        let c3 = a.int_const(3, 8);
        let c250 = a.int_const(250, 8);
        let sum = a.add(c3, c250);
        assert_eq!(a.as_const_int(sum), Some((253, 8)));
        let wrap = a.add(c250, c250);
        assert_eq!(a.as_const_int(wrap), Some((244, 8)));
        let cmp = a.ult(c3, c250);
        assert_eq!(a.as_const_bool(cmp), Some(true));
    }

    #[test]
    fn identity_simplifications() {
        let mut a = TermArena::new();
        let x = a.declare_var("x", 16);
        let xv = a.var(x);
        let zero = a.int_const(0, 16);
        let one = a.int_const(1, 16);
        assert_eq!(a.add(xv, zero), xv);
        assert_eq!(a.mul(xv, one), xv);
        let anded = a.bitand(xv, zero);
        assert_eq!(a.as_const_int(anded), Some((0, 16)));
        let all = a.int_const(u16::MAX as u64, 16);
        assert_eq!(a.bitand(xv, all), xv);
    }

    #[test]
    fn negation_of_comparison_flips_operator() {
        let mut a = TermArena::new();
        let x = a.declare_var("x", 8);
        let xv = a.var(x);
        let c = a.int_const(10, 8);
        let lt = a.ult(xv, c);
        let not_lt = a.not(lt);
        match a.node(not_lt).kind {
            TermKind::Cmp { op, .. } => assert_eq!(op, CmpOp::Uge),
            ref k => panic!("expected comparison, got {k:?}"),
        }
        // Double negation returns the original term.
        assert_eq!(a.not(not_lt), lt);
    }

    #[test]
    fn ite_folds_on_constant_condition() {
        let mut a = TermArena::new();
        let t = a.bool_const(true);
        let c1 = a.int_const(1, 32);
        let c2 = a.int_const(2, 32);
        assert_eq!(a.ite(t, c1, c2), c1);
        let f = a.bool_const(false);
        assert_eq!(a.ite(f, c1, c2), c2);
    }

    #[test]
    fn collect_vars_finds_all() {
        let mut a = TermArena::new();
        let x = a.declare_var("x", 8);
        let y = a.declare_var("y", 8);
        let xv = a.var(x);
        let yv = a.var(y);
        let sum = a.add(xv, yv);
        let c = a.int_const(3, 8);
        let cond = a.ugt(sum, c);
        let mut vars = Vec::new();
        a.collect_vars(cond, &mut vars);
        vars.sort();
        assert_eq!(vars, vec![x, y]);
    }

    #[test]
    fn eval_bin_division_by_zero() {
        assert_eq!(TermArena::eval_bin(BinOp::UDiv, 10, 0, 8), 255);
        assert_eq!(TermArena::eval_bin(BinOp::URem, 10, 0, 8), 10);
        assert_eq!(TermArena::eval_bin(BinOp::Shl, 1, 9, 8), 0);
    }

    #[test]
    fn resize_zero_extends_and_truncates() {
        let mut a = TermArena::new();
        let c = a.int_const(0x1ff, 16);
        let narrowed = a.resize(c, 8);
        assert_eq!(a.as_const_int(narrowed), Some((0xff, 8)));
        let widened = a.resize(narrowed, 32);
        assert_eq!(a.as_const_int(widened), Some((0xff, 32)));
    }

    #[test]
    fn display_is_readable() {
        let mut a = TermArena::new();
        let x = a.declare_var("asn", 32);
        let xv = a.var(x);
        let c = a.int_const(65000, 32);
        let e = a.eq(xv, c);
        assert_eq!(a.display(e), "(Eq asn 65000:32)");
    }
}
