//! Hash-consed term arena for the DiCE constraint language.
//!
//! The language is the one the router's filter interpreter records: integer
//! leaves (symbolic variables and constants of 1 to 64 bits, standing for
//! BGP message fields and configured values) compared by unsigned
//! comparisons, and those comparisons joined by `and`, `or` and `not`.
//! There is no integer arithmetic: a prefix containment test is already a
//! range of two comparisons when the interpreter records it.
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
    pub(crate) fn index(self) -> usize {
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
    pub(crate) fn index(self) -> usize {
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
pub(crate) enum Sort {
    /// A boolean value.
    Bool,
    /// An unsigned integer of the given bit width (1..=64).
    Int(u32),
}

impl Sort {
    /// Returns the bit width for integer sorts, or 1 for booleans.
    pub(crate) fn width(self) -> u32 {
        match self {
            Sort::Bool => 1,
            Sort::Int(w) => w,
        }
    }
}

/// Metadata describing a declared symbolic variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VarInfo {
    /// Human-readable name (e.g. `"nlri.prefix"`), shared with whoever
    /// declared it: an arena is built per concolic run, its names are not.
    pub(crate) name: Arc<str>,
    /// Bit width of the variable (1..=64).
    pub(crate) width: u32,
}

/// Binary comparison operators producing booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CmpOp {
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
    pub(crate) fn negate(self) -> CmpOp {
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
    pub(crate) fn swap(self) -> CmpOp {
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
    pub(crate) fn eval(self, a: u64, b: u64) -> bool {
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
pub(crate) enum BoolOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
}

impl BoolOp {
    /// Evaluates the connective on concrete booleans.
    pub(crate) fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BoolOp::And => a && b,
            BoolOp::Or => a || b,
        }
    }
}

/// The structural kind of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Variant fields are self-describing.
pub(crate) enum TermKind {
    /// Integer constant with the given width.
    ConstInt { value: u64, width: u32 },
    /// Boolean constant.
    ConstBool(bool),
    /// Symbolic variable reference.
    Var(VarId),
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
}

/// A term node: its kind plus its cached sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TermNode {
    /// Structural payload.
    pub(crate) kind: TermKind,
    /// Sort of the term.
    pub(crate) sort: Sort,
}

/// Truncates `value` to `width` bits.
pub(crate) fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Returns the maximum value representable in `width` bits.
pub(crate) fn max_value(width: u32) -> u64 {
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
/// use dice_solver::TermArena;
///
/// let mut arena = TermArena::new();
/// let x = arena.declare_var("x", 8);
/// let xv = arena.var(x);
/// let five = arena.int_const(5, 8);
/// let ten = arena.int_const(10, 8);
/// let above = arena.ugt(xv, five);
/// let below = arena.ult(xv, ten);
/// let cond = arena.and(above, below);
/// assert_eq!(arena.display(cond), "(And (Ugt x 5:8) (Ult x 10:8))");
/// // Structurally identical terms are one term.
/// assert_eq!(arena.ugt(xv, five), above);
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
    pub(crate) fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Returns the node for a term id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this arena.
    pub(crate) fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.index()]
    }

    /// Returns the sort of a term.
    pub(crate) fn sort(&self, id: TermId) -> Sort {
        self.nodes[id.index()].sort
    }

    /// Returns variable metadata.
    pub(crate) fn var_info(&self, var: VarId) -> &VarInfo {
        &self.vars[var.index()]
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
    pub(crate) fn as_const_int(&self, id: TermId) -> Option<(u64, u32)> {
        match self.node(id).kind {
            TermKind::ConstInt { value, width } => Some((value, width)),
            _ => None,
        }
    }

    /// Returns the constant boolean value of a term, if it is one.
    pub(crate) fn as_const_bool(&self, id: TermId) -> Option<bool> {
        match self.node(id).kind {
            TermKind::ConstBool(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the variable referenced by a term, if it is a plain variable.
    pub(crate) fn as_var(&self, id: TermId) -> Option<VarId> {
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

    /// Creates a comparison term, folding constants.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different widths or are not integers.
    pub(crate) fn cmp(&mut self, op: CmpOp, lhs: TermId, rhs: TermId) -> TermId {
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
    pub(crate) fn bool_bin(&mut self, op: BoolOp, lhs: TermId, rhs: TermId) -> TermId {
        assert_eq!(self.sort(lhs), Sort::Bool, "expected boolean lhs");
        assert_eq!(self.sort(rhs), Sort::Bool, "expected boolean rhs");
        if let (Some(a), Some(b)) = (self.as_const_bool(lhs), self.as_const_bool(rhs)) {
            return self.bool_const(op.eval(a, b));
        }
        if let Some(a) = self.as_const_bool(lhs) {
            return match (op, a) {
                (BoolOp::And, true) | (BoolOp::Or, false) => rhs,
                (BoolOp::And, false) | (BoolOp::Or, true) => self.bool_const(a),
            };
        }
        if let Some(b) = self.as_const_bool(rhs) {
            return match (op, b) {
                (BoolOp::And, true) | (BoolOp::Or, false) => lhs,
                (BoolOp::And, false) | (BoolOp::Or, true) => self.bool_const(b),
            };
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
                TermKind::Cmp { lhs, rhs, .. } | TermKind::BoolBin { lhs, rhs, .. } => {
                    walk.stack.push(lhs);
                    walk.stack.push(rhs);
                }
                TermKind::BoolNot(x) => walk.stack.push(x),
            }
        }
    }

    /// Pretty-prints a term as an s-expression for debugging.
    pub fn display(&self, id: TermId) -> String {
        match &self.node(id).kind {
            TermKind::ConstInt { value, width } => format!("{value}:{width}"),
            TermKind::ConstBool(b) => b.to_string(),
            TermKind::Var(v) => self.var_info(*v).name.to_string(),
            TermKind::Cmp { op, lhs, rhs } => {
                format!("({op:?} {} {})", self.display(*lhs), self.display(*rhs))
            }
            TermKind::BoolBin { op, lhs, rhs } => {
                format!("({op:?} {} {})", self.display(*lhs), self.display(*rhs))
            }
            TermKind::BoolNot(x) => format!("(not {})", self.display(*x)),
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
        let s1 = a.ult(t1, c1);
        let s2 = a.ult(t2, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding() {
        let mut a = TermArena::new();
        let c3 = a.int_const(3, 8);
        let c250 = a.int_const(250, 8);
        // Constants are truncated to their width.
        let wrapped = a.int_const(0x1fd, 8);
        assert_eq!(a.as_const_int(wrapped), Some((253, 8)));
        let cmp = a.ult(c3, c250);
        assert_eq!(a.as_const_bool(cmp), Some(true));
        let x = a.declare_var("x", 8);
        let xv = a.var(x);
        let open = a.ule(xv, c3);
        let t = a.bool_const(true);
        let f = a.bool_const(false);
        assert_eq!(a.and(t, open), open);
        assert_eq!(a.or(open, f), open);
        assert_eq!(a.and(open, f), f);
        assert_eq!(a.or(t, open), t);
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
    fn collect_vars_finds_all() {
        let mut a = TermArena::new();
        let x = a.declare_var("x", 8);
        let y = a.declare_var("y", 8);
        let xv = a.var(x);
        let yv = a.var(y);
        let c = a.int_const(3, 8);
        let above = a.ugt(xv, c);
        let below = a.ult(yv, c);
        let either = a.or(above, below);
        let cond = a.not(either);
        let (mut vars, mut consts) = (Vec::new(), Vec::new());
        let mut walk = TermWalk::default();
        walk.begin(&a);
        a.visit_leaves(cond, &mut walk, |leaf| match leaf {
            Leaf::Var(v) => vars.push(v),
            Leaf::Const(value) => consts.push(value),
        });
        // Right operand before left, and the shared constant once.
        assert_eq!(vars, vec![y, x]);
        assert_eq!(consts, vec![3]);
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
