//! Abstract syntax of the routing policy (filter) language.
//!
//! The language is a small BIRD-like filter language: named filters made of
//! `if`/`accept`/`reject`/attribute-setting statements. Filters drive both
//! import and export processing, and — critically for DiCE — their
//! interpretation over symbolic route fields records constraints, so that
//! the explored execution paths cover *configuration* behaviour as well as
//! code behaviour (paper §3.2).

use std::fmt;

use dice_bgp::prefix::Ipv4Prefix;

/// A named filter definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterDef {
    /// Filter name, referenced from `neighbor { import filter <name>; }`.
    pub name: String,
    /// Statement list executed top to bottom.
    pub body: Vec<Stmt>,
}

impl FilterDef {
    /// A filter that accepts every route unchanged.
    pub fn accept_all(name: impl Into<String>) -> Self {
        FilterDef {
            name: name.into(),
            body: vec![Stmt::Accept],
        }
    }

    /// A filter that rejects every route.
    #[cfg(test)]
    pub(crate) fn reject_all(name: impl Into<String>) -> Self {
        FilterDef {
            name: name.into(),
            body: vec![Stmt::Reject],
        }
    }

    /// Number of `if` statements (branch sites) in the filter.
    pub fn branch_count(&self) -> usize {
        self.arm_ids().len()
    }

    /// The branch-site label of arm `id` within this filter.
    ///
    /// Labels are stable across runs and processes: they hash to the
    /// [`dice_symexec::SiteId`](https://docs.rs) equivalent the engine
    /// schedules, so a filter arm is the same exploration site no matter
    /// which router, round or worker evaluates it.
    pub(crate) fn site_label(&self, id: u32) -> String {
        format!("filter:{}:if{}", self.name, id)
    }

    /// Arm identifiers in pre-order (the order the parser assigns them).
    pub(crate) fn arm_ids(&self) -> Vec<u32> {
        fn walk(stmts: &[Stmt], out: &mut Vec<u32>) {
            for s in stmts {
                if let Stmt::If {
                    id,
                    then_branch,
                    else_branch,
                    ..
                } = s
                {
                    out.push(*id);
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Every addressable branch site of this filter as `(arm id, label)`
    /// pairs, in pre-order. This is the registry the engine declares before
    /// evaluation so that arms no execution has ever reached still count in
    /// the policy-coverage denominator.
    pub fn sites(&self) -> Vec<(u32, String)> {
        self.arm_ids()
            .into_iter()
            .map(|id| (id, self.site_label(id)))
            .collect()
    }

    /// Renumbers every `if` arm in pre-order starting from 0 — the exact
    /// numbering [`crate::policy::parse_filter`] produces. Hand-built ASTs
    /// should call this so their site IDs match what the same filter would
    /// get when parsed from text.
    pub fn assign_arm_ids(&mut self) {
        fn walk(stmts: &mut [Stmt], next: &mut u32) {
            for s in stmts {
                if let Stmt::If {
                    id,
                    then_branch,
                    else_branch,
                    ..
                } = s
                {
                    *id = *next;
                    *next += 1;
                    walk(then_branch, next);
                    walk(else_branch, next);
                }
            }
        }
        let mut next = 0;
        walk(&mut self.body, &mut next);
    }
}

impl fmt::Display for FilterDef {
    /// Renders the filter in the concrete syntax the parser accepts, so
    /// `parse_filter(&def.to_string())` round-trips: same structure and —
    /// when the arm IDs are in pre-order, as [`FilterDef::assign_arm_ids`]
    /// and the parser both produce — the same site IDs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "filter {} {{", self.name)?;
        for stmt in &self.body {
            write_stmt(f, stmt, 1)?;
        }
        write!(f, "}}")
    }
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, depth: usize) -> fmt::Result {
    let pad = "    ".repeat(depth);
    match stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            writeln!(f, "{pad}if {cond} then {{")?;
            for s in then_branch {
                write_stmt(f, s, depth + 1)?;
            }
            if else_branch.is_empty() {
                writeln!(f, "{pad}}}")
            } else {
                writeln!(f, "{pad}}} else {{")?;
                for s in else_branch {
                    write_stmt(f, s, depth + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
        }
        Stmt::Accept => writeln!(f, "{pad}accept;"),
        Stmt::Reject => writeln!(f, "{pad}reject;"),
        Stmt::SetLocalPref(v) => writeln!(f, "{pad}local_pref = {v};"),
        Stmt::SetMed(v) => writeln!(f, "{pad}med = {v};"),
        Stmt::Prepend(n) => writeln!(f, "{pad}prepend {n};"),
        Stmt::AddCommunity(a, b) => writeln!(f, "{pad}add community ({a}, {b});"),
    }
}

/// A filter statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Conditional execution; `id` identifies the branch site.
    If {
        /// Branch-site identifier, unique within the filter.
        id: u32,
        /// The condition.
        cond: Expr,
        /// Statements executed when the condition holds.
        then_branch: Vec<Stmt>,
        /// Statements executed otherwise.
        else_branch: Vec<Stmt>,
    },
    /// Accept the route (terminates the filter).
    Accept,
    /// Reject the route (terminates the filter).
    Reject,
    /// Set LOCAL_PREF.
    SetLocalPref(u64),
    /// Set MED.
    SetMed(u64),
    /// Prepend the local AS the given number of times on export.
    Prepend(u64),
    /// Attach a community.
    AddCommunity(u16, u16),
}

/// Route fields that conditions may test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// The origin AS of the route (last AS on the path).
    SourceAs,
    /// The neighboring AS (first AS on the path).
    NeighborAs,
    /// AS-path length.
    PathLen,
    /// MULTI_EXIT_DISC.
    Med,
    /// LOCAL_PREF.
    LocalPref,
    /// ORIGIN code (0 = IGP, 1 = EGP, 2 = incomplete).
    OriginCode,
    /// Prefix length of the announced network.
    PrefixLen,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl fmt::Display for PrefixPattern {
    /// Renders in prefix-set syntax: `10.0.0.0/8`, `10.0.0.0/8+` or
    /// `10.0.0.0/8{9,24}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix)?;
        if self.min_len == self.prefix.len() && self.max_len == 32 && self.prefix.len() != 32 {
            write!(f, "+")
        } else if self.min_len == self.prefix.len() && self.max_len == self.prefix.len() {
            Ok(())
        } else {
            write!(f, "{{{},{}}}", self.min_len, self.max_len)
        }
    }
}

impl fmt::Display for Expr {
    /// Renders in the parser's expression syntax. Compound subexpressions
    /// are fully parenthesised, so the printed text re-parses to exactly
    /// the same tree (parentheses are a `primary` production).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::NetMatch(patterns) => {
                write!(f, "net ~ [ ")?;
                for (i, p) in patterns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, " ]")
            }
            Expr::FieldCmp { field, op, value } => write!(f, "{field} {op} {value}"),
            Expr::CommunityMatch(a, b) => write!(f, "community ~ ({a}, {b})"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Field::SourceAs => "source_as",
            Field::NeighborAs => "neighbor_as",
            Field::PathLen => "path_len",
            Field::Med => "med",
            Field::LocalPref => "local_pref",
            Field::OriginCode => "origin",
            Field::PrefixLen => "net.len",
        };
        f.write_str(s)
    }
}

/// Comparison operators in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// One entry of a prefix set: a prefix plus the range of lengths it admits.
///
/// `10.0.0.0/8` admits only the /8; `10.0.0.0/8+` admits the /8 and
/// anything more specific; `10.0.0.0/8{9,24}` admits covered prefixes whose
/// length is between 9 and 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixPattern {
    /// The covering prefix.
    pub prefix: Ipv4Prefix,
    /// Minimum admitted prefix length.
    pub min_len: u8,
    /// Maximum admitted prefix length.
    pub max_len: u8,
}

impl PrefixPattern {
    /// An exact-match pattern.
    pub fn exact(prefix: Ipv4Prefix) -> Self {
        PrefixPattern {
            prefix,
            min_len: prefix.len(),
            max_len: prefix.len(),
        }
    }

    /// A pattern matching the prefix or anything more specific.
    pub(crate) fn or_longer(prefix: Ipv4Prefix) -> Self {
        PrefixPattern {
            prefix,
            min_len: prefix.len(),
            max_len: 32,
        }
    }

    /// A pattern with an explicit length range.
    pub fn with_range(prefix: Ipv4Prefix, min_len: u8, max_len: u8) -> Self {
        PrefixPattern {
            prefix,
            min_len,
            max_len,
        }
    }

    /// Concrete membership test (used by tests and the concrete fast path).
    pub fn matches(&self, candidate: &Ipv4Prefix) -> bool {
        self.prefix.contains(candidate)
            && candidate.len() >= self.min_len
            && candidate.len() <= self.max_len
    }
}

/// A filter condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// `net ~ [ ... ]`: the announced prefix matches one of the patterns.
    NetMatch(Vec<PrefixPattern>),
    /// `field <op> value`.
    FieldCmp {
        /// The tested field.
        field: Field,
        /// The comparison operator.
        op: CmpOp,
        /// The constant to compare against.
        value: u64,
    },
    /// `community ~ (asn, value)`.
    CommunityMatch(u16, u16),
    /// Logical negation.
    Not(Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Constant true.
    True,
    /// Constant false.
    False,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().expect("valid prefix")
    }

    #[test]
    fn prefix_pattern_matching() {
        let exact = PrefixPattern::exact(p("10.0.0.0/8"));
        assert!(exact.matches(&p("10.0.0.0/8")));
        assert!(!exact.matches(&p("10.1.0.0/16")));

        let longer = PrefixPattern::or_longer(p("10.0.0.0/8"));
        assert!(longer.matches(&p("10.0.0.0/8")));
        assert!(longer.matches(&p("10.1.0.0/16")));
        assert!(!longer.matches(&p("11.0.0.0/8")));

        let ranged = PrefixPattern::with_range(p("208.65.152.0/22"), 22, 24);
        assert!(ranged.matches(&p("208.65.152.0/22")));
        assert!(ranged.matches(&p("208.65.153.0/24")));
        assert!(!ranged.matches(&p("208.65.153.0/25")));
        assert!(!ranged.matches(&p("208.65.0.0/16")));
    }

    #[test]
    fn branch_count_counts_nested_ifs() {
        let filter = FilterDef {
            name: "f".into(),
            body: vec![
                Stmt::If {
                    id: 0,
                    cond: Expr::True,
                    then_branch: vec![Stmt::If {
                        id: 1,
                        cond: Expr::False,
                        then_branch: vec![Stmt::Accept],
                        else_branch: vec![],
                    }],
                    else_branch: vec![Stmt::Reject],
                },
                Stmt::Accept,
            ],
        };
        assert_eq!(filter.branch_count(), 2);
        assert_eq!(FilterDef::accept_all("a").branch_count(), 0);
        assert_eq!(FilterDef::reject_all("r").body, vec![Stmt::Reject]);
    }

    #[test]
    fn field_display_names() {
        assert_eq!(Field::SourceAs.to_string(), "source_as");
        assert_eq!(Field::PrefixLen.to_string(), "net.len");
    }
}
