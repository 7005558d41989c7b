//! Recursive-descent parser for the filter language.
//!
//! Grammar (simplified BIRD):
//!
//! ```text
//! filter      := "filter" IDENT "{" stmt* "}"
//! stmt        := "if" expr "then" block ("else" block)?
//!              | "accept" ";" | "reject" ";"
//!              | "local_pref" "=" NUMBER ";" | "med" "=" NUMBER ";"
//!              | "prepend" NUMBER ";"
//!              | "add" "community" "(" NUMBER "," NUMBER ")" ";"
//! block       := "{" stmt* "}" | stmt
//! expr        := and_expr ("||" and_expr)*
//! and_expr    := not_expr ("&&" not_expr)*
//! not_expr    := "!" not_expr | primary
//! primary     := "(" expr ")"
//!              | "net" "~" prefix_set
//!              | "community" "~" "(" NUMBER "," NUMBER ")"
//!              | "true" | "false"
//!              | field cmp NUMBER
//! prefix_set  := "[" prefix_pattern ("," prefix_pattern)* "]"
//! prefix_pattern := IP "/" NUMBER ( "+" | "{" NUMBER "," NUMBER "}" )?
//! field       := "source_as" | "neighbor_as" | "path_len" | "med"
//!              | "local_pref" | "origin" | "net.len"
//! cmp         := "=" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! Source text is outside input. The parser recurses once per `if`, `!`
//! and `(`, and everything downstream — evaluation, printing, dropping —
//! recurses once per level of the tree, so a filter may nest at most
//! `MAX_NESTING` levels. The count is taken on the fully parenthesised
//! form the AST prints as, in which every `&&` and `||` is a level of its
//! own: whatever parses prints to text that parses again.

use std::fmt;

use dice_bgp::prefix::Ipv4Prefix;

use super::ast::{CmpOp, Expr, Field, FilterDef, PrefixPattern, Stmt};
use super::lexer::{tokenize, LexError, SpannedToken, Token};

/// Most levels of `if`, `!`, parentheses and `&&` / `||` a filter may nest
/// (see the module docs); ample for any filter written by hand.
const MAX_NESTING: usize = 64;

/// A parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when at end of input).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Token-stream cursor over a filter's source text.
#[derive(Debug)]
struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    next_branch_id: u32,
    /// Levels of `if`, `!` and `(` open at the current token.
    depth: usize,
}

impl Parser {
    /// Creates a parser over the given source text.
    fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
            next_branch_id: 0,
            depth: 0,
        })
    }

    /// Returns true if all tokens have been consumed.
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// The current line number, for error messages.
    fn line(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.line).unwrap_or(0)
    }

    /// Peeks at the current token.
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    /// Consumes and returns the current token.
    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Creates an error at the current position.
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    /// Consumes the expected token or fails.
    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected `{expected}`, found `{t}`"))),
            None => Err(self.error(format!("expected `{expected}`, found end of input"))),
        }
    }

    /// Consumes an identifier with the exact given text.
    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.error(format!("expected `{kw}`, found `{t}`"))),
            None => Err(self.error(format!("expected `{kw}`, found end of input"))),
        }
    }

    /// Returns true (and consumes) if the current token is the identifier.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Returns true (and consumes) if the current token equals `t`.
    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes an identifier.
    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(self.error(format!("expected identifier, found `{t}`"))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    /// Consumes a number.
    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match self.advance() {
            Some(Token::Number(n)) => Ok(n),
            Some(t) => Err(self.error(format!("expected number, found `{t}`"))),
            None => Err(self.error("expected number, found end of input")),
        }
    }

    /// Consumes a number that has to fit the narrower integer `T`.
    fn expect_narrow<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, ParseError> {
        let n = self.expect_number()?;
        T::try_from(n).map_err(|_| self.error(format!("{what} `{n}` is out of range")))
    }

    /// Fails if `levels` of nesting are more than a filter may have.
    fn check_nesting(&self, levels: usize) -> Result<usize, ParseError> {
        if levels > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(levels)
    }

    /// Runs `parse` one level of `if`, `!` or `(` further in.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth = self.check_nesting(self.depth + 1)?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Consumes an IPv4 address literal.
    fn expect_ip(&mut self) -> Result<u32, ParseError> {
        match self.advance() {
            Some(Token::IpAddr(a)) => Ok(a),
            Some(t) => Err(self.error(format!("expected IPv4 address, found `{t}`"))),
            None => Err(self.error("expected IPv4 address, found end of input")),
        }
    }

    /// Consumes a `A.B.C.D/len` prefix.
    fn expect_prefix(&mut self) -> Result<Ipv4Prefix, ParseError> {
        let addr = self.expect_ip()?;
        self.expect(&Token::Slash)?;
        let len = self.expect_narrow("prefix length")?;
        Ipv4Prefix::new(addr, len).map_err(|e| self.error(e.to_string()))
    }

    /// Parses a complete `filter name { ... }` definition.
    fn parse_filter(&mut self) -> Result<FilterDef, ParseError> {
        self.expect_keyword("filter")?;
        let name = self.expect_ident()?;
        self.next_branch_id = 0;
        self.expect(&Token::LBrace)?;
        let body = self.parse_stmts_until_rbrace()?;
        Ok(FilterDef { name, body })
    }

    fn parse_stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if self.eat(&Token::RBrace) {
                return Ok(out);
            }
            if self.at_end() {
                return Err(self.error("unexpected end of input inside block"));
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(&Token::LBrace) {
            self.parse_stmts_until_rbrace()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    /// Parses an `if` statement from past its keyword.
    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let id = self.next_branch_id;
        self.next_branch_id += 1;
        let (cond, height) = self.parse_or_expr()?;
        // The condition's printed form is read this far in.
        self.check_nesting(self.depth + height)?;
        self.expect_keyword("then")?;
        let then_branch = self.parse_block()?;
        let else_branch = if self.eat_keyword("else") {
            self.parse_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            id,
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_keyword("if") {
            return self.nested(Self::parse_if);
        }
        if self.eat_keyword("accept") {
            self.expect(&Token::Semi)?;
            return Ok(Stmt::Accept);
        }
        if self.eat_keyword("reject") {
            self.expect(&Token::Semi)?;
            return Ok(Stmt::Reject);
        }
        if self.eat_keyword("local_pref") {
            self.expect(&Token::Eq)?;
            let v = self.expect_number()?;
            self.expect(&Token::Semi)?;
            return Ok(Stmt::SetLocalPref(v));
        }
        if self.eat_keyword("med") {
            self.expect(&Token::Eq)?;
            let v = self.expect_number()?;
            self.expect(&Token::Semi)?;
            return Ok(Stmt::SetMed(v));
        }
        if self.eat_keyword("prepend") {
            let v = self.expect_number()?;
            self.expect(&Token::Semi)?;
            return Ok(Stmt::Prepend(v));
        }
        if self.eat_keyword("add") {
            self.expect_keyword("community")?;
            self.expect(&Token::LParen)?;
            let a = self.expect_narrow("community part")?;
            self.expect(&Token::Comma)?;
            let b = self.expect_narrow("community part")?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::Semi)?;
            return Ok(Stmt::AddCommunity(a, b));
        }
        match self.peek() {
            Some(t) => Err(self.error(format!("expected statement, found `{t}`"))),
            None => Err(self.error("expected statement, found end of input")),
        }
    }

    /// Parses an `expr`. Like the productions under it, returns the
    /// expression with its height: the levels of `!` and `(` its printed,
    /// fully parenthesised form nests. Every node is checked as it is
    /// built, so no tree grows deep before it is refused.
    fn parse_or_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.parse_and_expr()?;
        while self.eat(&Token::OrOr) {
            let (rhs, rhs_height) = self.parse_and_expr()?;
            height = self.check_nesting(1 + height.max(rhs_height))?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_and_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.parse_not_expr()?;
        while self.eat(&Token::AndAnd) {
            let (rhs, rhs_height) = self.parse_not_expr()?;
            height = self.check_nesting(1 + height.max(rhs_height))?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_not_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        if self.eat(&Token::Bang) {
            let (inner, height) = self.nested(Self::parse_not_expr)?;
            // Prints as `!(inner)`: two levels.
            let height = self.check_nesting(2 + height)?;
            return Ok((Expr::Not(Box::new(inner)), height));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<(Expr, usize), ParseError> {
        if self.eat(&Token::LParen) {
            let e = self.nested(Self::parse_or_expr)?;
            self.expect(&Token::RParen)?;
            return Ok(e);
        }
        Ok((self.parse_atom()?, 0))
    }

    /// Parses a `primary` other than a parenthesised expression.
    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("true") {
            return Ok(Expr::True);
        }
        if self.eat_keyword("false") {
            return Ok(Expr::False);
        }
        if self.eat_keyword("net") {
            self.expect(&Token::Tilde)?;
            let patterns = self.parse_prefix_set()?;
            return Ok(Expr::NetMatch(patterns));
        }
        if self.eat_keyword("community") {
            self.expect(&Token::Tilde)?;
            self.expect(&Token::LParen)?;
            let a = self.expect_narrow("community part")?;
            self.expect(&Token::Comma)?;
            let b = self.expect_narrow("community part")?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::CommunityMatch(a, b));
        }
        // field cmp number
        let ident = self.expect_ident()?;
        let field = match ident.as_str() {
            "source_as" => Field::SourceAs,
            "neighbor_as" => Field::NeighborAs,
            "path_len" => Field::PathLen,
            "med" => Field::Med,
            "local_pref" => Field::LocalPref,
            "origin" => Field::OriginCode,
            "net.len" => Field::PrefixLen,
            other => return Err(self.error(format!("unknown field `{other}`"))),
        };
        let op = match self.advance() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(t) => return Err(self.error(format!("expected comparison operator, found `{t}`"))),
            None => return Err(self.error("expected comparison operator, found end of input")),
        };
        let value = self.expect_number()?;
        Ok(Expr::FieldCmp { field, op, value })
    }

    fn parse_prefix_set(&mut self) -> Result<Vec<PrefixPattern>, ParseError> {
        self.expect(&Token::LBracket)?;
        let mut patterns = Vec::new();
        loop {
            let prefix = self.expect_prefix()?;
            let pattern = if self.eat(&Token::Plus) {
                PrefixPattern::or_longer(prefix)
            } else if self.eat(&Token::LBrace) {
                let min: u8 = self.expect_narrow("prefix length")?;
                self.expect(&Token::Comma)?;
                let max: u8 = self.expect_narrow("prefix length")?;
                self.expect(&Token::RBrace)?;
                if min > max || max > 32 {
                    return Err(self.error(format!("invalid prefix length range {{{min},{max}}}")));
                }
                PrefixPattern::with_range(prefix, min, max)
            } else {
                PrefixPattern::exact(prefix)
            };
            patterns.push(pattern);
            if self.eat(&Token::RBracket) {
                return Ok(patterns);
            }
            self.expect(&Token::Comma)?;
        }
    }
}

/// Parses a single filter definition from source text.
pub fn parse_filter(input: &str) -> Result<FilterDef, ParseError> {
    let mut parser = Parser::new(input)?;
    let filter = parser.parse_filter()?;
    if !parser.at_end() {
        return Err(parser.error("trailing input after filter definition"));
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_customer_filter() {
        let src = r#"
            # Best-practice customer import filter at the Provider.
            filter customer_in {
                if net ~ [ 208.65.152.0/22{22,24}, 198.51.100.0/24 ] then {
                    local_pref = 200;
                    accept;
                }
                reject;
            }
        "#;
        let f = parse_filter(src).expect("parses");
        assert_eq!(f.name, "customer_in");
        assert_eq!(f.body.len(), 2);
        assert_eq!(f.branch_count(), 1);
        match &f.body[0] {
            Stmt::If {
                cond: Expr::NetMatch(pats),
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(pats.len(), 2);
                assert_eq!(pats[0].min_len, 22);
                assert_eq!(pats[0].max_len, 24);
                assert_eq!(pats[1].min_len, 24);
                assert_eq!(then_branch.len(), 2);
                assert!(else_branch.is_empty());
            }
            other => panic!("unexpected statement {other:?}"),
        }
        assert_eq!(f.body[1], Stmt::Reject);
    }

    #[test]
    fn parses_nested_conditions_and_operators() {
        let src = r#"
            filter complex {
                if source_as = 17557 && ( path_len > 3 || med >= 100 ) then {
                    reject;
                } else {
                    if ! ( neighbor_as != 3491 ) then accept;
                }
                if community ~ (65000, 666) then reject;
                if net.len > 24 then reject;
                accept;
            }
        "#;
        let f = parse_filter(src).expect("parses");
        assert_eq!(f.branch_count(), 4);
    }

    #[test]
    fn parses_all_actions() {
        let src = r#"
            filter actions {
                local_pref = 300;
                med = 10;
                prepend 2;
                add community (65000, 120);
                accept;
            }
        "#;
        let f = parse_filter(src).expect("parses");
        assert_eq!(
            f.body,
            vec![
                Stmt::SetLocalPref(300),
                Stmt::SetMed(10),
                Stmt::Prepend(2),
                Stmt::AddCommunity(65000, 120),
                Stmt::Accept,
            ]
        );
    }

    #[test]
    fn or_longer_patterns() {
        let f = parse_filter("filter f { if net ~ [ 10.0.0.0/8+ ] then accept; reject; }")
            .expect("parses");
        match &f.body[0] {
            Stmt::If {
                cond: Expr::NetMatch(pats),
                ..
            } => {
                assert_eq!(pats[0].min_len, 8);
                assert_eq!(pats[0].max_len, 32);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn branch_ids_are_sequential() {
        let src =
            "filter f { if true then { if false then accept; } if true then reject; accept; }";
        let f = parse_filter(src).expect("parses");
        let mut ids = Vec::new();
        fn collect(stmts: &[Stmt], ids: &mut Vec<u32>) {
            for s in stmts {
                if let Stmt::If {
                    id,
                    then_branch,
                    else_branch,
                    ..
                } = s
                {
                    ids.push(*id);
                    collect(then_branch, ids);
                    collect(else_branch, ids);
                }
            }
        }
        collect(&f.body, &mut ids);
        ids.sort();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        let err = parse_filter("filter f {\n  bogus;\n}").expect_err("should fail");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected statement"));
        assert!(parse_filter("filter f { accept; } trailing").is_err());
        assert!(parse_filter("filter f { if net ~ [ 10.0.0.0/8{24,8} ] then accept; }").is_err());
        assert!(parse_filter("filter f { if unknown_field = 3 then accept; }").is_err());
        assert!(parse_filter("filter f { accept; ").is_err());
    }

    /// `filter f { if <cond> then accept; reject; }`.
    fn with_cond(cond: &str) -> String {
        format!("filter f {{ if {cond} then accept; reject; }}")
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |source: String| {
            let err = parse_filter(&source).expect_err("too deep to parse");
            assert!(err.message.contains("nesting deeper than"), "{err}");
        };
        deep(with_cond(&"(".repeat(100_000)));
        deep(with_cond(&"!".repeat(100_000)));
        deep(format!("filter f {{ {}", "if true then { ".repeat(10_000)));
        deep(format!("filter f {{ {}", "if true then ".repeat(10_000)));
        // A flat chain recurses nowhere in the parser, but the tree it
        // builds is as deep as it is long, and printing, evaluating or
        // dropping that tree recurses once per level.
        deep(with_cond(&format!("true{}", " && true".repeat(100_000))));
        deep(with_cond(&format!("true{}", " || true".repeat(100_000))));
    }

    #[test]
    fn nesting_up_to_the_limit_parses_and_prints_to_what_parses() {
        // The `if` is one level; each `(` or operator one, each `!` two
        // (it prints as `!(...)`).
        let parens = |n: usize| with_cond(&format!("{}true{}", "(".repeat(n), ")".repeat(n)));
        let bangs = |n: usize| with_cond(&format!("{}true", "!".repeat(n)));
        let chain = |n: usize| with_cond(&format!("med = 1{}", " || med = 2".repeat(n)));
        let mixed =
            |n: usize| with_cond(&format!("{}true{}", "!(true && ".repeat(n), ")".repeat(n)));
        for (source, over) in [
            (parens(MAX_NESTING - 1), parens(MAX_NESTING)),
            (
                bangs((MAX_NESTING - 1) / 2),
                bangs((MAX_NESTING - 1) / 2 + 1),
            ),
            (chain(MAX_NESTING - 1), chain(MAX_NESTING)),
            (
                mixed((MAX_NESTING - 1) / 3),
                mixed((MAX_NESTING - 1) / 3 + 1),
            ),
        ] {
            let filter = parse_filter(&source).expect("within the limit");
            let printed = filter.to_string();
            assert_eq!(parse_filter(&printed).expect("printed form parses"), filter);
            assert!(parse_filter(&over).is_err(), "one level more: {over}");
        }
        let ifs = |n: usize| {
            format!(
                "filter f {{ {}accept;{} }}",
                "if true then { ".repeat(n),
                " }".repeat(n)
            )
        };
        let filter = parse_filter(&ifs(MAX_NESTING)).expect("within the limit");
        assert_eq!(
            parse_filter(&filter.to_string()).expect("printed form parses"),
            filter
        );
        assert!(parse_filter(&ifs(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn numbers_too_wide_for_their_field_are_rejected_not_truncated() {
        let rejected = |source: &str, token: &str| {
            let err = parse_filter(source).expect_err("out of range");
            assert!(err.message.contains(token), "{err} should name {token}");
        };
        rejected("filter f { add community (70000, 1); accept; }", "`70000`");
        rejected("filter f { add community (1, 65536); accept; }", "`65536`");
        rejected(&with_cond("community ~ (70000, 1)"), "`70000`");
        rejected(&with_cond("community ~ (1, 65536)"), "`65536`");
        rejected(&with_cond("net ~ [ 10.0.0.0/8{8,300} ]"), "`300`");
        rejected(&with_cond("net ~ [ 10.0.0.0/8{256,32} ]"), "`256`");
        rejected(&with_cond("net ~ [ 10.0.0.0/288 ]"), "`288`");
        assert!(parse_filter(&with_cond("net ~ [ 10.0.0.0/33 ]")).is_err());
        assert!(parse_filter(&with_cond("net ~ [ 10.0.0.0/8{8,33} ]")).is_err());

        // The widest values each field holds still parse, as themselves.
        let f = parse_filter(
            "filter f { if community ~ (65535, 65535) then add community (65535, 0); \
             if net ~ [ 0.0.0.0/0{0,32}, 10.1.2.3/32 ] then accept; reject; }",
        )
        .expect("parses");
        match &f.body[..2] {
            [Stmt::If {
                cond: Expr::CommunityMatch(65535, 65535),
                then_branch,
                ..
            }, Stmt::If {
                cond: Expr::NetMatch(patterns),
                ..
            }] => {
                assert_eq!(then_branch[..], [Stmt::AddCommunity(65535, 0)]);
                assert_eq!((patterns[0].min_len, patterns[0].max_len), (0, 32));
                assert_eq!(
                    patterns[1],
                    PrefixPattern::exact("10.1.2.3/32".parse().expect("valid"))
                );
            }
            other => panic!("unexpected statements {other:?}"),
        }
    }
}
