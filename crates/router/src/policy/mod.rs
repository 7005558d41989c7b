//! The routing policy (filter) language: AST, lexer, parser and the
//! concolic-aware interpreter.

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use ast::{CmpOp, Expr, Field, FilterDef, PrefixPattern, Stmt};
pub use eval::{
    decode_community, encode_community, eval_expr, eval_filter, eval_filter_at, ArmTrace,
    FilterOutcome, FilterSites, FilterVerdict, RouteView,
};
pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse_filter, ParseError, Parser};
