//! Filter interpretation over concolic route views.
//!
//! The interpreter is the DiCE-critical piece of the router: every `if`
//! statement in a filter becomes a branch site, and when the route view's
//! fields are symbolic (during exploration) the recorded constraints
//! describe the *configured* policy, exactly as the paper obtains
//! configuration constraints by instrumenting BIRD's configuration
//! interpreter (§3.2). When the fields are concrete (the live fast path)
//! nothing is recorded and the interpreter behaves like a plain filter
//! engine.
//!
//! A filter's branch sites do not change from run to run, so their labels
//! are formatted and hashed once into a [`FilterSites`] table — by whoever
//! evaluates the filter repeatedly (the symbolic UPDATE handler builds one
//! per observed input), or by [`eval_filter`] itself for a one-off symbolic
//! evaluation — and a run declares the whole table with a reference-count
//! bump and looks an executed arm's site up by its id.

use std::sync::Arc;

use dice_symexec::{
    Concolic, ConcolicBool, ConcolicInt, ExecCtx, SiteId, SiteInfo, TermId, CU32, CU8,
};

use dice_bgp::route::Route;

use super::ast::{CmpOp, Expr, Field, FilterDef, Stmt};

/// Packs a `(asn, value)` community into the 32-bit wire encoding used by
/// the symbolic community slot (`asn` in the high half). `(0, 0)` encodes
/// to 0, which the slot reserves for "no community attached", so that pair
/// cannot be synthesized — it is not a meaningful community in practice.
pub fn encode_community(asn: u16, value: u16) -> u32 {
    ((asn as u32) << 16) | value as u32
}

/// Unpacks a community slot encoding produced by [`encode_community`].
#[cfg(test)]
pub(crate) fn decode_community(slot: u32) -> (u16, u16) {
    ((slot >> 16) as u16, (slot & 0xffff) as u16)
}

/// The route fields a filter may inspect, as concolic values.
#[derive(Debug, Clone)]
pub struct RouteView {
    /// Network address of the announced prefix.
    pub prefix_addr: CU32,
    /// Length of the announced prefix.
    pub prefix_len: CU8,
    /// Origin AS (last AS on the path); 0 when the path is empty.
    pub source_as: CU32,
    /// Neighbor AS (first AS on the path); 0 when the path is empty.
    pub neighbor_as: CU32,
    /// AS-path length.
    pub path_len: CU32,
    /// MULTI_EXIT_DISC (0 when absent).
    pub med: CU32,
    /// LOCAL_PREF (100 when absent).
    pub local_pref: CU32,
    /// ORIGIN code.
    pub origin_code: CU8,
    /// Attached communities as observed on the route (always concrete).
    pub communities: Vec<(u16, u16)>,
    /// One symbolic "flexible" community slot, encoded with
    /// [`encode_community`]; 0 means no extra community. `community ~`
    /// tests match when the observed list contains the community *or* the
    /// slot equals its encoding, so the solver can synthesize a community
    /// no observed trace carries.
    pub community_slot: CU32,
}

impl RouteView {
    /// Builds a fully concrete view of a route (the live router path).
    pub fn concrete(route: &Route) -> Self {
        RouteView {
            prefix_addr: Concolic::concrete(route.prefix.addr()),
            prefix_len: Concolic::concrete(route.prefix.len()),
            source_as: Concolic::concrete(route.attrs.origin_as().map(|a| a.value()).unwrap_or(0)),
            neighbor_as: Concolic::concrete(
                route
                    .attrs
                    .as_path
                    .neighbor_as()
                    .map(|a| a.value())
                    .unwrap_or(0),
            ),
            path_len: Concolic::concrete(route.attrs.as_path.length() as u32),
            med: Concolic::concrete(route.attrs.effective_med()),
            local_pref: Concolic::concrete(route.attrs.effective_local_pref()),
            origin_code: Concolic::concrete(route.attrs.origin.code()),
            communities: route
                .attrs
                .communities
                .iter()
                .map(|c| (c.asn_part(), c.value_part()))
                .collect(),
            community_slot: Concolic::concrete(0),
        }
    }
}

/// One executed `if` arm of a filter run: which arm, which way it went, and
/// the condition term guarding it (None when the condition was fully
/// concrete, e.g. on the live fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmTrace {
    /// Arm identifier within the filter ([`Stmt::If::id`]).
    pub arm: u32,
    /// Whether the condition held (the `then` branch ran).
    pub taken: bool,
    /// The path constraint guarding the taken direction, when symbolic.
    pub constraint: Option<TermId>,
}

/// Accept/reject decision of a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// The route passes the filter.
    Accept,
    /// The route is rejected.
    Reject,
}

/// The full outcome of running a filter: the verdict plus any attribute
/// modifications requested by the executed statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOutcome {
    /// Accept or reject.
    pub verdict: FilterVerdict,
    /// New LOCAL_PREF, if the filter set one.
    pub local_pref: Option<u32>,
    /// New MED, if the filter set one.
    pub med: Option<u32>,
    /// Extra AS-path prepends requested.
    pub prepend: u32,
    /// Communities added by the filter.
    pub added_communities: Vec<(u16, u16)>,
    /// Ordered trace of every `if` arm the run executed, with the path
    /// constraint guarding each. Empty for the trivial outcomes built by
    /// [`FilterOutcome::accepted`]/[`FilterOutcome::rejected`].
    pub trace: Vec<ArmTrace>,
}

impl FilterOutcome {
    /// The outcome of a filter (or absent filter) that rejects the route
    /// outright, with no attribute changes and no arms executed.
    pub fn rejected() -> Self {
        FilterOutcome {
            verdict: FilterVerdict::Reject,
            local_pref: None,
            med: None,
            prepend: 0,
            added_communities: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The outcome of an absent filter that accepts the route unchanged.
    pub fn accepted() -> Self {
        FilterOutcome {
            verdict: FilterVerdict::Accept,
            ..FilterOutcome::rejected()
        }
    }

    /// Returns true if the filter accepted the route.
    pub fn is_accept(&self) -> bool {
        self.verdict == FilterVerdict::Accept
    }
}

enum Flow {
    Continue,
    Stop(FilterVerdict),
}

/// The branch sites of one filter — every `if` arm's
/// `FilterDef::site_label`, hashed to its [`SiteId`] — computed once and
/// reused by every symbolic evaluation of that filter
/// ([`eval_filter_at`]).
///
/// A table describes the filter as it was when the table was built: build
/// a new one after renaming the filter or renumbering its arms.
#[derive(Debug, Clone)]
pub struct FilterSites {
    /// What a run declares: every arm as a labelled policy site.
    info: Arc<SiteInfo>,
    /// `(arm id, site)`, sorted by arm id.
    arms: Vec<(u32, SiteId)>,
}

impl FilterSites {
    /// Labels and hashes every arm of `filter`.
    pub fn of(filter: &FilterDef) -> Self {
        let mut info = SiteInfo::default();
        let mut arms: Vec<(u32, SiteId)> = filter
            .sites()
            .into_iter()
            .map(|(arm, label)| (arm, info.add_policy_site(&label)))
            .collect();
        arms.sort_unstable();
        arms.dedup();
        FilterSites {
            info: Arc::new(info),
            arms,
        }
    }

    /// The labelled policy sites a run of the filter declares.
    pub fn info(&self) -> &Arc<SiteInfo> {
        &self.info
    }

    /// The site of arm `arm`, if the filter had such an arm.
    pub fn site_of(&self, arm: u32) -> Option<SiteId> {
        self.arms
            .binary_search_by_key(&arm, |&(id, _)| id)
            .ok()
            .map(|at| self.arms[at].1)
    }
}

/// Evaluates `filter` over `view`, recording branch constraints in `ctx`
/// when the view contains symbolic fields.
///
/// A filter that falls off the end without executing `accept` or `reject`
/// rejects the route, matching BIRD's default.
///
/// A symbolic evaluation builds the filter's [`FilterSites`] first; callers
/// that evaluate one filter many times build it once and call
/// [`eval_filter_at`].
pub fn eval_filter(filter: &FilterDef, view: &RouteView, ctx: &mut ExecCtx) -> FilterOutcome {
    if ctx.var_map().is_empty() {
        run_filter(filter, None, view, ctx)
    } else {
        run_filter(filter, Some(&FilterSites::of(filter)), view, ctx)
    }
}

/// [`eval_filter`] with the filter's site table supplied: `sites` must be
/// [`FilterSites::of`] this `filter`.
pub fn eval_filter_at(
    filter: &FilterDef,
    sites: &FilterSites,
    view: &RouteView,
    ctx: &mut ExecCtx,
) -> FilterOutcome {
    let symbolic = !ctx.var_map().is_empty();
    run_filter(filter, symbolic.then_some(sites), view, ctx)
}

/// `sites` is `None` on the fully concrete fast path (no symbolic inputs
/// declared): live ingest does no site bookkeeping at all, it just follows
/// the arms.
fn run_filter(
    filter: &FilterDef,
    sites: Option<&FilterSites>,
    view: &RouteView,
    ctx: &mut ExecCtx,
) -> FilterOutcome {
    // Every arm of the filter is a policy site before anything executes,
    // so arms no run has ever reached still count in the policy-coverage
    // denominator.
    if let Some(sites) = sites {
        ctx.declare_policy_sites(sites.info());
    }
    let mut outcome = FilterOutcome::rejected();
    match eval_stmts(filter, sites, &filter.body, view, ctx, &mut outcome) {
        Flow::Stop(v) => outcome.verdict = v,
        Flow::Continue => outcome.verdict = FilterVerdict::Reject,
    }
    outcome
}

fn eval_stmts(
    filter: &FilterDef,
    sites: Option<&FilterSites>,
    stmts: &[Stmt],
    view: &RouteView,
    ctx: &mut ExecCtx,
    outcome: &mut FilterOutcome,
) -> Flow {
    for stmt in stmts {
        match stmt {
            Stmt::Accept => return Flow::Stop(FilterVerdict::Accept),
            Stmt::Reject => return Flow::Stop(FilterVerdict::Reject),
            Stmt::SetLocalPref(v) => outcome.local_pref = Some(*v as u32),
            Stmt::SetMed(v) => outcome.med = Some(*v as u32),
            Stmt::Prepend(n) => outcome.prepend += *n as u32,
            Stmt::AddCommunity(a, b) => outcome.added_communities.push((*a, *b)),
            Stmt::If {
                id,
                cond,
                then_branch,
                else_branch,
            } => {
                let condition = eval_expr(cond, view, ctx);
                let constraint = condition.term();
                // The branch site is the configuration AST node, so
                // recorded constraints attribute coverage to the
                // *configuration*.
                let taken = match sites.map(|sites| sites.site_of(*id)) {
                    None => condition.value(),
                    Some(Some(site)) => ctx.branch_at(site, condition),
                    // A table built before the filter got this arm.
                    Some(None) => ctx.policy_branch_labeled(&filter.site_label(*id), condition),
                };
                outcome.trace.push(ArmTrace {
                    arm: *id,
                    taken,
                    constraint,
                });
                let branch = if taken { then_branch } else { else_branch };
                match eval_stmts(filter, sites, branch, view, ctx, outcome) {
                    Flow::Continue => {}
                    stop => return stop,
                }
            }
        }
    }
    Flow::Continue
}

/// Evaluates a condition to a concolic boolean.
pub(crate) fn eval_expr(expr: &Expr, view: &RouteView, ctx: &mut ExecCtx) -> ConcolicBool {
    match expr {
        Expr::True => ConcolicBool::concrete(true),
        Expr::False => ConcolicBool::concrete(false),
        Expr::Not(inner) => {
            let v = eval_expr(inner, view, ctx);
            v.not(ctx)
        }
        Expr::And(a, b) => {
            let va = eval_expr(a, view, ctx);
            let vb = eval_expr(b, view, ctx);
            va.and(&vb, ctx)
        }
        Expr::Or(a, b) => {
            let va = eval_expr(a, view, ctx);
            let vb = eval_expr(b, view, ctx);
            va.or(&vb, ctx)
        }
        Expr::CommunityMatch(a, b) => {
            // A route matches when the observed (always concrete) community
            // list contains the community, or when the symbolic flexible
            // slot carries it — the latter is what lets the solver attach a
            // community no observed announcement had. `(0, 0)` is excluded:
            // its encoding collides with the slot's "no community" value.
            let observed = ConcolicBool::concrete(view.communities.contains(&(*a, *b)));
            let encoded = encode_community(*a, *b);
            if encoded == 0 {
                observed
            } else {
                let slot_hit = view.community_slot.eq(&Concolic::concrete(encoded), ctx);
                observed.or(&slot_hit, ctx)
            }
        }
        Expr::FieldCmp { field, op, value } => match field {
            Field::SourceAs => apply_cmp(*op, &view.source_as, *value as u32, ctx),
            Field::NeighborAs => apply_cmp(*op, &view.neighbor_as, *value as u32, ctx),
            Field::PathLen => apply_cmp(*op, &view.path_len, *value as u32, ctx),
            Field::Med => apply_cmp(*op, &view.med, *value as u32, ctx),
            Field::LocalPref => apply_cmp(*op, &view.local_pref, *value as u32, ctx),
            Field::OriginCode => apply_cmp(*op, &view.origin_code, *value as u8, ctx),
            Field::PrefixLen => apply_cmp(*op, &view.prefix_len, *value as u8, ctx),
        },
        Expr::NetMatch(patterns) => {
            let mut acc = ConcolicBool::concrete(false);
            for p in patterns {
                let m = match_pattern(p, view, ctx);
                acc = acc.or(&m, ctx);
            }
            acc
        }
    }
}

fn apply_cmp<T: ConcolicInt>(
    op: CmpOp,
    lhs: &Concolic<T>,
    value: T,
    ctx: &mut ExecCtx,
) -> ConcolicBool {
    let rhs = Concolic::concrete(value);
    match op {
        CmpOp::Eq => lhs.eq(&rhs, ctx),
        CmpOp::Ne => lhs.ne(&rhs, ctx),
        CmpOp::Lt => lhs.lt(&rhs, ctx),
        CmpOp::Le => lhs.le(&rhs, ctx),
        CmpOp::Gt => lhs.gt(&rhs, ctx),
        CmpOp::Ge => lhs.ge(&rhs, ctx),
    }
}

/// Matches the announced prefix against one prefix pattern: the announced
/// network must lie inside the pattern's covering prefix and its length
/// must fall in the admitted range.
///
/// Containment is expressed as a range check (`network <= addr <=
/// broadcast` plus `len >= pattern.len`) rather than a shift-and-compare:
/// the two are equivalent, but range constraints are what the solver's
/// interval propagation digests directly, so negated prefix-set predicates
/// reliably yield concrete NLRI values inside/outside the set — the
/// "manipulation of the NLRI" the route-leak experiment relies on.
fn match_pattern(
    pattern: &super::ast::PrefixPattern,
    view: &RouteView,
    ctx: &mut ExecCtx,
) -> ConcolicBool {
    let plen = pattern.prefix.len();
    let covered = if plen == 0 {
        ConcolicBool::concrete(true)
    } else {
        let lo = Concolic::concrete(pattern.prefix.addr());
        let hi = Concolic::concrete(pattern.prefix.broadcast());
        let ge_lo = view.prefix_addr.ge(&lo, ctx);
        let le_hi = view.prefix_addr.le(&hi, ctx);
        let len_ok = view.prefix_len.ge(&Concolic::concrete(plen), ctx);
        let in_block = ge_lo.and(&le_hi, ctx);
        in_block.and(&len_ok, ctx)
    };
    let min = Concolic::concrete(pattern.min_len);
    let max = Concolic::concrete(pattern.max_len);
    let ge_min = view.prefix_len.ge(&min, ctx);
    let le_max = view.prefix_len.le(&max, ctx);
    let in_range = ge_min.and(&le_max, ctx);
    covered.and(&in_range, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::parser::parse_filter;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::prefix::Ipv4Prefix;
    use dice_bgp::route::{PeerId, Route};
    use dice_bgp::AsPath;
    use std::net::Ipv4Addr;

    fn route(prefix: &str, path: &[u32]) -> Route {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        Route::new(
            prefix.parse::<Ipv4Prefix>().expect("valid"),
            attrs,
            PeerId(1),
            1,
        )
    }

    const CUSTOMER_FILTER: &str = r#"
        filter customer_in {
            if net ~ [ 208.65.152.0/22{22,24} ] then {
                if source_as = 36561 then {
                    local_pref = 200;
                    accept;
                }
            }
            reject;
        }
    "#;

    #[test]
    fn concrete_evaluation_accepts_legitimate_route() {
        let filter = parse_filter(CUSTOMER_FILTER).expect("parses");
        let mut ctx = ExecCtx::new();
        let r = route("208.65.152.0/22", &[36561]);
        let out = eval_filter(&filter, &RouteView::concrete(&r), &mut ctx);
        assert!(out.is_accept());
        assert_eq!(out.local_pref, Some(200));
        // Concrete evaluation records no constraints.
        assert!(ctx.branches().is_empty());
    }

    #[test]
    fn concrete_evaluation_rejects_foreign_route() {
        let filter = parse_filter(CUSTOMER_FILTER).expect("parses");
        let mut ctx = ExecCtx::new();
        // Wrong origin AS (the hijacker).
        let r = route("208.65.153.0/24", &[17557]);
        let out = eval_filter(&filter, &RouteView::concrete(&r), &mut ctx);
        assert!(!out.is_accept());
        // Prefix outside the customer's block.
        let r = route("8.8.8.0/24", &[36561]);
        assert!(!eval_filter(&filter, &RouteView::concrete(&r), &mut ctx).is_accept());
        // Too-specific prefix (/25 exceeds the {22,24} range).
        let r = route("208.65.153.0/25", &[36561]);
        assert!(!eval_filter(&filter, &RouteView::concrete(&r), &mut ctx).is_accept());
    }

    #[test]
    fn symbolic_evaluation_records_configuration_branches() {
        let filter = parse_filter(CUSTOMER_FILTER).expect("parses");
        let mut ctx = ExecCtx::new();
        let view = RouteView {
            prefix_addr: ctx.symbolic_u32("nlri.addr", u32::from_be_bytes([208, 65, 152, 0])),
            prefix_len: ctx.symbolic_u8("nlri.len", 22),
            source_as: ctx.symbolic_u32("attr.source_as", 36561),
            neighbor_as: Concolic::concrete(36561),
            path_len: Concolic::concrete(1),
            med: Concolic::concrete(0),
            local_pref: Concolic::concrete(100),
            origin_code: Concolic::concrete(0),
            communities: Vec::new(),
            community_slot: Concolic::concrete(0),
        };
        let out = eval_filter(&filter, &view, &mut ctx);
        assert!(out.is_accept());
        // Both `if` statements were evaluated over symbolic data.
        assert_eq!(ctx.branches().len(), 2);
        // The outcome carries the ordered arm trace with constraints.
        assert_eq!(out.trace.len(), 2);
        assert_eq!((out.trace[0].arm, out.trace[0].taken), (0, true));
        assert_eq!((out.trace[1].arm, out.trace[1].taken), (1, true));
        assert!(out.trace.iter().all(|t| t.constraint.is_some()));
        // Every arm of the filter is registered as a policy site, keyed by
        // its stable label.
        assert_eq!(ctx.policy_sites().len(), 2);
        // The path constraints hold for the concrete input used.
        let constraints = ctx.path_constraints();
        let model = ctx.concrete_model().clone();
        assert!(model.satisfies_all(ctx.arena(), &constraints));
    }

    /// What the interpreter did before the table: every arm's label
    /// formatted and hashed on the spot.
    fn reference_sites(filter: &FilterDef) -> Vec<(u32, SiteId, String)> {
        filter
            .arm_ids()
            .into_iter()
            .map(|id| {
                let label = filter.site_label(id);
                (id, SiteId::from_label(&label), label)
            })
            .collect()
    }

    fn assert_table_matches_labels(filter: &FilterDef) {
        let sites = FilterSites::of(filter);
        let reference = reference_sites(filter);
        for (id, site, label) in &reference {
            assert_eq!(
                sites.site_of(*id),
                Some(*site),
                "arm {id} of {}",
                filter.name
            );
            assert_eq!(sites.info().label(*site), Some(label.as_str()));
            assert!(sites.info().policy_sites().contains(site));
        }
        let distinct: std::collections::BTreeSet<SiteId> =
            reference.iter().map(|(_, site, _)| *site).collect();
        assert_eq!(sites.info().policy_sites(), &distinct);
        assert_eq!(sites.info().labels().len(), distinct.len());
        assert_eq!(sites.site_of(u32::MAX), None);
    }

    fn nested_ifs(name: &str) -> FilterDef {
        let leaf = |cond| Stmt::If {
            id: 0,
            cond,
            then_branch: vec![Stmt::Accept],
            else_branch: vec![],
        };
        FilterDef {
            name: name.into(),
            body: vec![
                Stmt::If {
                    id: 0,
                    cond: Expr::True,
                    then_branch: vec![leaf(Expr::False)],
                    else_branch: vec![leaf(Expr::True), Stmt::Reject],
                },
                leaf(Expr::CommunityMatch(65000, 1)),
            ],
        }
    }

    #[test]
    fn site_table_matches_labels_for_parsed_and_hand_built_filters() {
        assert_table_matches_labels(&parse_filter(CUSTOMER_FILTER).expect("parses"));
        assert_table_matches_labels(&FilterDef::accept_all("no_arms"));

        // Hand-built, then numbered as the parser would.
        let mut built = nested_ifs("built");
        built.assign_arm_ids();
        assert_eq!(built.arm_ids(), vec![0, 1, 2, 3]);
        assert_table_matches_labels(&built);
        let reparsed = parse_filter(&built.to_string()).expect("display re-parses");
        assert_eq!(
            FilterSites::of(&reparsed).info(),
            FilterSites::of(&built).info()
        );

        // Never numbered: every arm carries id 0, one site stands for all.
        let unnumbered = nested_ifs("unnumbered");
        assert_table_matches_labels(&unnumbered);
        assert_eq!(FilterSites::of(&unnumbered).info().policy_sites().len(), 1);

        // Sparse, out-of-order ids.
        let mut sparse = nested_ifs("sparse");
        if let Stmt::If { id, .. } = &mut sparse.body[1] {
            *id = 1_000_000;
        }
        assert_table_matches_labels(&sparse);
    }

    #[test]
    fn same_shape_under_another_name_is_another_set_of_sites() {
        let (mut a, mut b) = (nested_ifs("edge_in"), nested_ifs("core_in"));
        a.assign_arm_ids();
        b.assign_arm_ids();
        let (sites_a, sites_b) = (FilterSites::of(&a), FilterSites::of(&b));
        assert_table_matches_labels(&a);
        assert_table_matches_labels(&b);
        assert_eq!(sites_a.info().policy_sites().len(), 4);
        assert!(sites_a
            .info()
            .policy_sites()
            .is_disjoint(sites_b.info().policy_sites()));
    }

    #[test]
    fn evaluating_at_a_table_records_what_labelled_evaluation_recorded() {
        let filter = parse_filter(CUSTOMER_FILTER).expect("parses");
        let sites = FilterSites::of(&filter);
        let r = route("208.65.152.0/22", &[36561]);
        let symbolic_view = |ctx: &mut ExecCtx| RouteView {
            prefix_addr: ctx.symbolic_u32("nlri.addr", r.prefix.addr()),
            prefix_len: ctx.symbolic_u8("nlri.len", r.prefix.len()),
            source_as: ctx.symbolic_u32("attr.source_as", 36561),
            ..RouteView::concrete(&r)
        };

        let mut at_table = ExecCtx::new();
        let view = symbolic_view(&mut at_table);
        let outcome = eval_filter_at(&filter, &sites, &view, &mut at_table);
        let mut one_off = ExecCtx::new();
        let view = symbolic_view(&mut one_off);
        assert_eq!(eval_filter(&filter, &view, &mut one_off), outcome);
        assert_eq!(at_table.branches(), one_off.branches());
        assert_eq!(at_table.site_info(), one_off.site_info());

        // The branch sites are the arms' labels, hashed.
        let expected: Vec<SiteId> = outcome
            .trace
            .iter()
            .map(|arm| SiteId::from_label(&filter.site_label(arm.arm)))
            .collect();
        let recorded: Vec<SiteId> = at_table.branches().iter().map(|b| b.site).collect();
        assert_eq!(recorded, expected);

        // The concrete fast path ignores the table altogether.
        let mut concrete = ExecCtx::new();
        let out = eval_filter_at(&filter, &sites, &RouteView::concrete(&r), &mut concrete);
        assert!(out.is_accept());
        assert!(concrete.policy_sites().is_empty() && concrete.site_labels().is_empty());

        // A table of some other filter leaves the arms their own sites.
        let other = FilterSites::of(&FilterDef::accept_all("other"));
        let mut mismatched = ExecCtx::new();
        let view = symbolic_view(&mut mismatched);
        eval_filter_at(&filter, &other, &view, &mut mismatched);
        let recorded: Vec<SiteId> = mismatched.branches().iter().map(|b| b.site).collect();
        assert_eq!(recorded, expected);
    }

    #[test]
    fn default_is_reject_and_actions_accumulate() {
        let filter = parse_filter(
            "filter f { med = 30; prepend 2; add community (65000, 1); if false then accept; }",
        )
        .expect("parses");
        let mut ctx = ExecCtx::new();
        let out = eval_filter(
            &filter,
            &RouteView::concrete(&route("10.0.0.0/8", &[1])),
            &mut ctx,
        );
        assert!(!out.is_accept());
        assert_eq!(out.med, Some(30));
        assert_eq!(out.prepend, 2);
        assert_eq!(out.added_communities, vec![(65000, 1)]);
    }

    #[test]
    fn else_branches_and_boolean_operators() {
        let src = r#"
            filter f {
                if path_len > 5 || med >= 1000 then {
                    reject;
                } else {
                    if ! (origin = 2) && neighbor_as != 666 then accept;
                }
                reject;
            }
        "#;
        let filter = parse_filter(src).expect("parses");
        let mut ctx = ExecCtx::new();
        let good = route("10.0.0.0/8", &[100, 200]);
        assert!(eval_filter(&filter, &RouteView::concrete(&good), &mut ctx).is_accept());
        let long = route("10.0.0.0/8", &[1, 2, 3, 4, 5, 6]);
        assert!(!eval_filter(&filter, &RouteView::concrete(&long), &mut ctx).is_accept());
        let from_666 = route("10.0.0.0/8", &[666, 200]);
        assert!(!eval_filter(&filter, &RouteView::concrete(&from_666), &mut ctx).is_accept());
    }

    #[test]
    fn community_match_is_concrete() {
        let src = "filter f { if community ~ (65000, 666) then reject; accept; }";
        let filter = parse_filter(src).expect("parses");
        let mut ctx = ExecCtx::new();
        let mut r = route("10.0.0.0/8", &[100]);
        assert!(eval_filter(&filter, &RouteView::concrete(&r), &mut ctx).is_accept());
        std::sync::Arc::make_mut(&mut r.attrs)
            .communities
            .push(dice_bgp::attributes::Community::new(65000, 666));
        assert!(!eval_filter(&filter, &RouteView::concrete(&r), &mut ctx).is_accept());
    }

    #[test]
    fn symbolic_community_slot_makes_community_match_explorable() {
        let src = "filter f { if community ~ (65000, 666) then accept; reject; }";
        let filter = parse_filter(src).expect("parses");
        let mut ctx = ExecCtx::new();
        let r = route("10.0.0.0/8", &[100]);
        // Slot carries no community, so the concrete run is rejected — but
        // the condition is symbolic, so the branch is recorded and its
        // untaken direction can be negated to synthesize the community.
        let view = RouteView {
            community_slot: ctx.symbolic_u32("attr.community", 0),
            ..RouteView::concrete(&r)
        };
        assert!(!eval_filter(&filter, &view, &mut ctx).is_accept());
        assert_eq!(ctx.branches().len(), 1);
        assert!(!ctx.branches()[0].taken);
        // A slot carrying the encoding satisfies the match.
        let mut ctx = ExecCtx::new();
        let view = RouteView {
            community_slot: ctx.symbolic_u32("attr.community", encode_community(65000, 666)),
            ..RouteView::concrete(&r)
        };
        assert!(eval_filter(&filter, &view, &mut ctx).is_accept());
    }

    #[test]
    fn community_encoding_round_trips() {
        assert_eq!(decode_community(encode_community(65000, 666)), (65000, 666));
        assert_eq!(encode_community(0, 0), 0);
        assert_eq!(decode_community(0), (0, 0));
    }

    #[test]
    fn prefix_len_field_comparison() {
        let src = "filter f { if net.len > 24 then reject; accept; }";
        let filter = parse_filter(src).expect("parses");
        let mut ctx = ExecCtx::new();
        assert!(eval_filter(
            &filter,
            &RouteView::concrete(&route("10.0.0.0/24", &[1])),
            &mut ctx
        )
        .is_accept());
        assert!(!eval_filter(
            &filter,
            &RouteView::concrete(&route("10.0.0.0/25", &[1])),
            &mut ctx
        )
        .is_accept());
    }
}
