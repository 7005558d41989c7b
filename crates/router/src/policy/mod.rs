//! The routing policy (filter) language: AST, lexer, parser and the
//! concolic-aware interpreter.

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{CmpOp, Expr, Field, FilterDef, PrefixPattern, Stmt};
pub use eval::{
    encode_community, eval_filter, eval_filter_at, ArmTrace, FilterOutcome, FilterSites,
    FilterVerdict, RouteView,
};
pub use parser::{parse_filter, ParseError};
