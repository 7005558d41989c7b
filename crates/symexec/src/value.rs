//! Concolic values: pairs of a concrete machine value and an optional
//! symbolic term.
//!
//! Code under test (the BGP UPDATE handler, the policy-filter interpreter)
//! is written against [`Concolic<T>`] instead of plain integers. Every
//! arithmetic or comparison operation computes the concrete result *and*,
//! when any operand carries a symbolic term, builds the corresponding term
//! in the execution context's arena. This is the library-level equivalent
//! of the CIL source instrumentation used by the paper's Oasis engine.

use crate::context::ExecCtx;
use dice_solver::term::TermId;

/// Machine integer types that can be tracked concolically.
pub trait ConcolicInt: Copy + Eq + Ord + std::fmt::Debug {
    /// Bit width of the type.
    const WIDTH: u32;
    /// Converts to the canonical `u64` representation.
    fn to_u64(self) -> u64;
    /// Converts from the canonical `u64` representation (truncating).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_concolic_int {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(
            impl ConcolicInt for $t {
                const WIDTH: u32 = $w;
                fn to_u64(self) -> u64 {
                    self as u64
                }
                fn from_u64(v: u64) -> Self {
                    v as $t
                }
            }
        )*
    };
}

impl_concolic_int!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

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
/// 64-bit concolic integer.
pub type CU64 = Concolic<u64>;

impl<T: ConcolicInt> Concolic<T> {
    /// Wraps a purely concrete value (no symbolic part).
    pub fn concrete(value: T) -> Self {
        Concolic {
            concrete: value,
            sym: None,
        }
    }

    /// Creates a value with both concrete and symbolic parts.
    pub fn with_term(value: T, term: TermId) -> Self {
        Concolic {
            concrete: value,
            sym: Some(term),
        }
    }

    /// The concrete value.
    pub fn value(&self) -> T {
        self.concrete
    }

    /// The symbolic term, if the value depends on symbolic input.
    pub fn term(&self) -> Option<TermId> {
        self.sym
    }

    /// Returns true if the value carries a symbolic term.
    pub fn is_symbolic(&self) -> bool {
        self.sym.is_some()
    }

    /// Drops the symbolic part, keeping only the concrete value.
    ///
    /// This is the mechanism the paper uses for operations whose constraints
    /// cannot be reversed by the solver (e.g. hash functions): execution
    /// continues with the concrete result and no constraint is recorded.
    pub fn concretize(&self) -> Self {
        Concolic {
            concrete: self.concrete,
            sym: None,
        }
    }

    fn term_or_const(&self, ctx: &mut ExecCtx) -> TermId {
        match self.sym {
            Some(t) => t,
            None => ctx.arena_mut().int_const(self.concrete.to_u64(), T::WIDTH),
        }
    }

    fn binop(
        &self,
        other: &Self,
        ctx: &mut ExecCtx,
        concrete: u64,
        build: impl FnOnce(&mut dice_solver::TermArena, TermId, TermId) -> TermId,
    ) -> Self {
        let concrete = T::from_u64(concrete);
        if self.sym.is_none() && other.sym.is_none() {
            return Concolic::concrete(concrete);
        }
        let a = self.term_or_const(ctx);
        let b = other.term_or_const(ctx);
        let t = build(ctx.arena_mut(), a, b);
        Concolic {
            concrete,
            sym: Some(t),
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

    /// Wrapping addition.
    pub fn add(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = dice_solver::term::mask(
            self.concrete.to_u64().wrapping_add(other.concrete.to_u64()),
            T::WIDTH,
        );
        self.binop(other, ctx, c, |a, x, y| a.add(x, y))
    }

    /// Wrapping subtraction.
    pub fn sub(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = dice_solver::term::mask(
            self.concrete.to_u64().wrapping_sub(other.concrete.to_u64()),
            T::WIDTH,
        );
        self.binop(other, ctx, c, |a, x, y| a.sub(x, y))
    }

    /// Wrapping multiplication.
    pub fn mul(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = dice_solver::term::mask(
            self.concrete.to_u64().wrapping_mul(other.concrete.to_u64()),
            T::WIDTH,
        );
        self.binop(other, ctx, c, |a, x, y| a.mul(x, y))
    }

    /// Bitwise and.
    pub fn bitand(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = self.concrete.to_u64() & other.concrete.to_u64();
        self.binop(other, ctx, c, |a, x, y| a.bitand(x, y))
    }

    /// Bitwise or.
    pub fn bitor(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = self.concrete.to_u64() | other.concrete.to_u64();
        self.binop(other, ctx, c, |a, x, y| a.bitor(x, y))
    }

    /// Bitwise xor.
    pub fn bitxor(&self, other: &Self, ctx: &mut ExecCtx) -> Self {
        let c = self.concrete.to_u64() ^ other.concrete.to_u64();
        self.binop(other, ctx, c, |a, x, y| a.bitxor(x, y))
    }

    /// Logical shift left by a concrete amount.
    pub fn shl_const(&self, amount: u32, ctx: &mut ExecCtx) -> Self {
        let other = Concolic::concrete(T::from_u64(amount as u64));
        let c = dice_solver::term::TermArena::eval_bin(
            dice_solver::BinOp::Shl,
            self.concrete.to_u64(),
            amount as u64,
            T::WIDTH,
        );
        self.binop(&other, ctx, c, |a, x, y| a.shl(x, y))
    }

    /// Logical shift right by a concrete amount.
    pub fn shr_const(&self, amount: u32, ctx: &mut ExecCtx) -> Self {
        let other = Concolic::concrete(T::from_u64(amount as u64));
        let c = dice_solver::term::TermArena::eval_bin(
            dice_solver::BinOp::Lshr,
            self.concrete.to_u64(),
            amount as u64,
            T::WIDTH,
        );
        self.binop(&other, ctx, c, |a, x, y| a.lshr(x, y))
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

    /// Creates a boolean with both concrete and symbolic parts.
    pub fn with_term(value: bool, term: TermId) -> Self {
        ConcolicBool {
            concrete: value,
            sym: Some(term),
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
    pub fn is_symbolic(&self) -> bool {
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
        let sum = a.add(&b, &mut ctx);
        assert_eq!(sum.value(), 12);
        assert!(!sum.is_symbolic());
        let cmp = a.lt(&b, &mut ctx);
        assert!(cmp.value());
        assert!(!cmp.is_symbolic());
        assert_eq!(ctx.arena().len(), 0, "no terms should be allocated");
    }

    #[test]
    fn symbolic_ops_build_terms() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 10);
        let c = CU32::concrete(32);
        let sum = x.add(&c, &mut ctx);
        assert_eq!(sum.value(), 42);
        assert!(sum.is_symbolic());
        let cmp = sum.gt(&CU32::concrete(40), &mut ctx);
        assert!(cmp.value());
        assert!(cmp.is_symbolic());
    }

    #[test]
    fn wrapping_matches_machine_arithmetic() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u8("x", 250);
        let y = CU8::concrete(10);
        let sum = x.add(&y, &mut ctx);
        assert_eq!(sum.value(), 250u8.wrapping_add(10));
        let diff = y.sub(&x, &mut ctx);
        assert_eq!(diff.value(), 10u8.wrapping_sub(250));
    }

    #[test]
    fn concretize_drops_symbolic_part() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 99);
        assert!(x.is_symbolic());
        let c = x.concretize();
        assert!(!c.is_symbolic());
        assert_eq!(c.value(), 99);
    }

    #[test]
    fn shifts_and_masks() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("addr", 0x0a01_0203);
        let hi = x.shr_const(24, &mut ctx);
        assert_eq!(hi.value(), 0x0a);
        assert!(hi.is_symbolic());
        let mask = CU32::concrete(0xff);
        let low = x.bitand(&mask, &mut ctx);
        assert_eq!(low.value(), 0x03);
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
