//! Concolic values: pairs of a concrete machine value and an optional
//! symbolic term.
//!
//! Code under test (the BGP UPDATE handler, the policy-filter interpreter)
//! is written against [`Concolic<T>`] instead of plain integers. What the
//! filter interpreter records is a comparison of a message field with a
//! configured constant, or a `&&`, `||` or `!` over such comparisons, so
//! those are the operations here: each computes the concrete result *and*,
//! when an operand carries a symbolic term, builds the corresponding term in
//! the execution context's arena. This is the library-level equivalent of
//! the CIL source instrumentation used by the paper's Oasis engine.

use crate::context::ExecCtx;
use dice_solver::TermId;

/// Machine integer types that can be tracked concolically.
pub trait ConcolicInt: Copy + Eq + Ord + std::fmt::Debug {
    /// Bit width of the type.
    const WIDTH: u32;
    /// Converts to the canonical `u64` representation.
    fn to_u64(self) -> u64;
}

macro_rules! impl_concolic_int {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(
            impl ConcolicInt for $t {
                const WIDTH: u32 = $w;
                fn to_u64(self) -> u64 {
                    self as u64
                }
            }
        )*
    };
}

impl_concolic_int!(u8 => 8, u32 => 32);

/// A concolic integer: concrete value plus optional symbolic term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Concolic<T: ConcolicInt> {
    concrete: T,
    sym: Option<TermId>,
}

/// Convenience aliases for the common widths.
pub type CU8 = Concolic<u8>;
/// 32-bit concolic integer.
pub type CU32 = Concolic<u32>;

impl<T: ConcolicInt> Concolic<T> {
    /// Wraps a purely concrete value (no symbolic part).
    pub fn concrete(value: T) -> Self {
        Concolic {
            concrete: value,
            sym: None,
        }
    }

    /// Creates a value with both concrete and symbolic parts.
    pub(crate) fn with_term(value: T, term: TermId) -> Self {
        Concolic {
            concrete: value,
            sym: Some(term),
        }
    }

    /// The concrete value.
    pub fn value(&self) -> T {
        self.concrete
    }

    /// Returns true if the value carries a symbolic term.
    pub fn is_symbolic(&self) -> bool {
        self.sym.is_some()
    }

    fn term_or_const(&self, ctx: &mut ExecCtx) -> TermId {
        match self.sym {
            Some(t) => t,
            None => ctx.arena_mut().int_const(self.concrete.to_u64(), T::WIDTH),
        }
    }

    fn cmpop(
        &self,
        other: &Self,
        ctx: &mut ExecCtx,
        concrete: bool,
        build: impl FnOnce(&mut dice_solver::TermArena, TermId, TermId) -> TermId,
    ) -> ConcolicBool {
        if self.sym.is_none() && other.sym.is_none() {
            return ConcolicBool::concrete(concrete);
        }
        let a = self.term_or_const(ctx);
        let b = other.term_or_const(ctx);
        let t = build(ctx.arena_mut(), a, b);
        ConcolicBool {
            concrete,
            sym: Some(t),
        }
    }

    /// Equality comparison.
    pub fn eq(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete == other.concrete, |a, x, y| {
            a.eq(x, y)
        })
    }

    /// Disequality comparison.
    pub fn ne(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete != other.concrete, |a, x, y| {
            a.ne(x, y)
        })
    }

    /// Unsigned less-than.
    pub fn lt(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete < other.concrete, |a, x, y| {
            a.ult(x, y)
        })
    }

    /// Unsigned less-or-equal.
    pub fn le(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete <= other.concrete, |a, x, y| {
            a.ule(x, y)
        })
    }

    /// Unsigned greater-than.
    pub fn gt(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete > other.concrete, |a, x, y| {
            a.ugt(x, y)
        })
    }

    /// Unsigned greater-or-equal.
    pub fn ge(&self, other: &Self, ctx: &mut ExecCtx) -> ConcolicBool {
        self.cmpop(other, ctx, self.concrete >= other.concrete, |a, x, y| {
            a.uge(x, y)
        })
    }

    /// Comparison against a concrete constant: equality.
    pub fn eq_const(&self, value: T, ctx: &mut ExecCtx) -> ConcolicBool {
        self.eq(&Concolic::concrete(value), ctx)
    }

    /// Comparison against a concrete constant: less-than.
    pub fn lt_const(&self, value: T, ctx: &mut ExecCtx) -> ConcolicBool {
        self.lt(&Concolic::concrete(value), ctx)
    }

    /// Comparison against a concrete constant: greater-than.
    pub fn gt_const(&self, value: T, ctx: &mut ExecCtx) -> ConcolicBool {
        self.gt(&Concolic::concrete(value), ctx)
    }
}

impl<T: ConcolicInt> From<T> for Concolic<T> {
    fn from(v: T) -> Self {
        Concolic::concrete(v)
    }
}

/// A concolic boolean: concrete truth value plus optional symbolic term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcolicBool {
    pub(crate) concrete: bool,
    pub(crate) sym: Option<TermId>,
}

impl ConcolicBool {
    /// Wraps a purely concrete boolean.
    pub fn concrete(value: bool) -> Self {
        ConcolicBool {
            concrete: value,
            sym: None,
        }
    }

    /// The concrete truth value.
    pub fn value(&self) -> bool {
        self.concrete
    }

    /// The symbolic term, if any.
    pub fn term(&self) -> Option<TermId> {
        self.sym
    }

    /// Returns true if the boolean carries a symbolic term.
    pub(crate) fn is_symbolic(&self) -> bool {
        self.sym.is_some()
    }

    /// Logical negation.
    pub fn not(&self, ctx: &mut ExecCtx) -> Self {
        match self.sym {
            None => ConcolicBool::concrete(!self.concrete),
            Some(t) => {
                let nt = ctx.arena_mut().not(t);
                ConcolicBool {
                    concrete: !self.concrete,
                    sym: Some(nt),
                }
            }
        }
    }

    /// Logical conjunction.
    pub fn and(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let concrete = self.concrete && other.concrete;
        match (self.sym, other.sym) {
            (None, None) => ConcolicBool::concrete(concrete),
            _ => {
                let a = self.term_or_const(ctx);
                let b = other.term_or_const(ctx);
                let t = ctx.arena_mut().and(a, b);
                ConcolicBool {
                    concrete,
                    sym: Some(t),
                }
            }
        }
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let concrete = self.concrete || other.concrete;
        match (self.sym, other.sym) {
            (None, None) => ConcolicBool::concrete(concrete),
            _ => {
                let a = self.term_or_const(ctx);
                let b = other.term_or_const(ctx);
                let t = ctx.arena_mut().or(a, b);
                ConcolicBool {
                    concrete,
                    sym: Some(t),
                }
            }
        }
    }

    fn term_or_const(&self, ctx: &mut ExecCtx) -> TermId {
        match self.sym {
            Some(t) => t,
            None => ctx.arena_mut().bool_const(self.concrete),
        }
    }
}

impl From<bool> for ConcolicBool {
    fn from(v: bool) -> Self {
        ConcolicBool::concrete(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecCtx;

    #[test]
    fn concrete_ops_stay_concrete() {
        let mut ctx = ExecCtx::new();
        let a = CU32::concrete(5);
        let b = CU32::concrete(7);
        let cmp = a.lt(&b, &mut ctx);
        assert!(cmp.value());
        assert!(!cmp.is_symbolic());
        let both = cmp.and(&a.ne(&b, &mut ctx), &mut ctx);
        assert!(both.value());
        assert!(!both.is_symbolic());
        assert_eq!(ctx.arena().len(), 0, "no terms should be allocated");
    }

    #[test]
    fn symbolic_ops_build_terms() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 42);
        let c = CU32::concrete(40);
        let cmp = x.gt(&c, &mut ctx);
        assert!(cmp.value());
        assert!(cmp.is_symbolic());
        let term = cmp.term().expect("symbolic");
        assert_eq!(ctx.arena().display(term), "(Ugt x 40:32)");
        let flipped = c.ge(&x, &mut ctx);
        assert!(!flipped.value());
        assert!(flipped.is_symbolic());
    }

    #[test]
    fn shifts_and_masks() {
        // `addr >> 24 == 10` and `addr & 0xff == 3`, as the filter
        // interpreter records them: each mask denotes a range of `addr`.
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("addr", 0x0a01_0203);
        let in_ten = x
            .ge(&CU32::concrete(0x0a00_0000), &mut ctx)
            .and(&x.le(&CU32::concrete(0x0aff_ffff), &mut ctx), &mut ctx);
        assert!(in_ten.value());
        assert!(in_ten.is_symbolic());
        let byte = ctx.symbolic_u8("low", 0x03);
        let low = byte.eq_const(0x03, &mut ctx);
        assert!(low.value());
        let model = ctx.concrete_model();
        let terms = [in_ten, low].map(|b| b.term().expect("symbolic"));
        assert!(model.satisfies_all(ctx.arena(), &terms));
    }

    #[test]
    fn bool_connectives() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 5);
        let a = x.gt_const(3, &mut ctx);
        let b = x.lt_const(10, &mut ctx);
        let both = a.and(&b, &mut ctx);
        assert!(both.value());
        assert!(both.is_symbolic());
        let neg = both.not(&mut ctx);
        assert!(!neg.value());
        let concrete_or = ConcolicBool::concrete(false).or(&ConcolicBool::concrete(true), &mut ctx);
        assert!(concrete_or.value());
        assert!(!concrete_or.is_symbolic());
    }
}
