//! The concolic execution context.
//!
//! An [`ExecCtx`] is created for each execution of the program under test.
//! It owns what is the run's alone: the term arena (interned in execution
//! order — [`TermId`] numbering is observable, see below), the symbolic
//! input variables and their concrete values, and the branch records along
//! the executed path. What outlives a run is shared into it instead of
//! rebuilt: variable names are `Arc<str>`s, and site labels and the policy
//! site set arrive as one reference-counted [`SiteInfo`] — a filter's
//! table, built once, declared by every run that evaluates the filter —
//! which the context copies only if the program then labels a site of its
//! own.
//!
//! `TermId`s order the solver's assertion list and the walk that collects
//! local search's jump constants, so they decide which input a negated
//! branch yields: one arena per run, terms interned as execution meets
//! them, never an arena shared or pre-built across runs.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dice_solver::{FastBuildHasher, FastHashMap, Model, TermArena, TermId, VarId};

use crate::path::ExecTrace;
use crate::value::{Concolic, ConcolicBool, ConcolicInt, CU32, CU8};

/// A stable identifier of a branch site in the program under test.
///
/// Sites are hashes of labels: code names its branch sites, as CIL
/// instrumentation identifies branches by static program location, and the
/// policy-filter interpreter uses the filter name and AST node index, so
/// that the *configuration* contributes its own branch sites, as in the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u64);

impl SiteId {
    /// Builds a site id from an arbitrary label.
    pub fn from_label(label: &str) -> Self {
        let mut h = DefaultHasher::new();
        label.hash(&mut h);
        SiteId(h.finish())
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{:016x}", self.0)
    }
}

/// Human-readable labels of branch sites.
pub type SiteLabels = FastHashMap<SiteId, Arc<str>>;

/// Symbolic input names and the solver variables declared for them.
pub type VarMap = FastHashMap<Arc<str>, VarId>;

/// What is known about branch sites beyond their ids: labels for reports,
/// and which sites are *policy* sites (filter arms, not code).
///
/// Runs share one behind an `Arc` when they declare the same sites — the
/// filter interpreter builds a filter's table once and every run of that
/// filter declares it with a reference-count bump
/// ([`ExecCtx::declare_policy_sites`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteInfo {
    labels: SiteLabels,
    policy: BTreeSet<SiteId>,
}

/// What a context that declared nothing reports.
static NO_SITES: SiteInfo = SiteInfo {
    labels: SiteLabels::with_hasher(FastBuildHasher::new()),
    policy: BTreeSet::new(),
};

impl SiteInfo {
    fn add_label(&mut self, site: SiteId, label: impl FnOnce() -> Arc<str>) {
        self.labels.entry(site).or_insert_with(label);
    }

    /// Hashes and labels one policy site, and returns it.
    pub fn add_policy_site(&mut self, label: &str) -> SiteId {
        let site = SiteId::from_label(label);
        self.add_label(site, || Arc::from(label));
        self.policy.insert(site);
        site
    }

    /// Adds everything `other` knows; known labels win.
    pub(crate) fn merge(&mut self, other: &SiteInfo) {
        for (&site, label) in &other.labels {
            self.add_label(site, || Arc::clone(label));
        }
        self.policy.extend(other.policy.iter().copied());
    }

    /// The label of a site, if known.
    pub fn label(&self, site: SiteId) -> Option<&str> {
        self.labels.get(&site).map(|label| &**label)
    }

    /// Every known label.
    pub fn labels(&self) -> &SiteLabels {
        &self.labels
    }

    /// The policy sites, in stable order.
    pub fn policy_sites(&self) -> &BTreeSet<SiteId> {
        &self.policy
    }
}

/// A branch observed during one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRecord {
    /// The branch site.
    pub site: SiteId,
    /// The symbolic condition term (boolean sort).
    pub(crate) condition: TermId,
    /// The direction the concrete execution took.
    pub taken: bool,
}

impl BranchRecord {
    /// The constraint that holds on the executed path.
    pub fn taken_constraint(&self, arena: &mut TermArena) -> TermId {
        if self.taken {
            self.condition
        } else {
            arena.not(self.condition)
        }
    }

    /// The constraint describing the *other* side of the branch.
    pub fn negated_constraint(&self, arena: &mut TermArena) -> TermId {
        if self.taken {
            arena.not(self.condition)
        } else {
            self.condition
        }
    }
}

/// Execution context for one concolic run.
///
/// # Examples
///
/// ```
/// use dice_symexec::ExecCtx;
///
/// let mut ctx = ExecCtx::new();
/// let med = ctx.symbolic_u32("med", 50);
/// let threshold = dice_symexec::CU32::concrete(100);
/// let cond = med.lt(&threshold, &mut ctx);
/// let taken = ctx.branch_labeled("med-check", cond);
/// assert!(taken);
/// assert_eq!(ctx.branches().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ExecCtx {
    arena: TermArena,
    vars: VarMap,
    concrete: Model,
    branches: Vec<BranchRecord>,
    /// `None` until a site is labelled or declared: the fully concrete
    /// fast path builds a context per route and must not allocate for it.
    sites: Option<Arc<SiteInfo>>,
    max_branches: usize,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecCtx {
    /// Creates a fresh context with no symbolic variables.
    pub fn new() -> Self {
        ExecCtx {
            arena: TermArena::new(),
            vars: VarMap::default(),
            concrete: Model::new(),
            branches: Vec::new(),
            sites: None,
            max_branches: 100_000,
        }
    }

    /// Limits the number of branch records kept for a single run (guards
    /// against pathological loops over symbolic data).
    pub(crate) fn with_max_branches(mut self, max: usize) -> Self {
        self.max_branches = max;
        self
    }

    /// Makes room for a run the size of `like`: the engine passes the run
    /// before, so a run allocates its tables once instead of growing them
    /// through every power of two.
    pub(crate) fn with_capacity_like(mut self, like: &ExecTrace) -> Self {
        self.arena.reserve(like.arena.len(), like.var_map.len());
        self.vars.reserve(like.var_map.len());
        self.concrete.reserve(like.var_map.len());
        self.branches.reserve(like.branches.len());
        self
    }

    /// Makes room for the first run over an input of `fields` fields, when
    /// there is no run before it to size by: a variable per field, a few
    /// terms and a branch or two over each.
    pub(crate) fn with_input_capacity(mut self, fields: usize) -> Self {
        self.arena.reserve(4 * fields, fields);
        self.vars.reserve(fields);
        self.concrete.reserve(fields);
        self.branches.reserve(fields);
        self
    }

    /// Read access to the term arena.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Mutable access to the term arena (used by [`Concolic`] operations).
    pub(crate) fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Consumes the context, returning its arena, branches and input model.
    pub(crate) fn into_parts(self) -> (TermArena, Vec<BranchRecord>, Model, VarMap) {
        (self.arena, self.branches, self.concrete, self.vars)
    }

    /// Takes what the context knows about its sites — the shared table the
    /// run declared, or its own — leaving it knowing none.
    pub(crate) fn take_sites(&mut self) -> Arc<SiteInfo> {
        self.sites.take().unwrap_or_default()
    }

    /// The branches recorded so far, in execution order.
    pub fn branches(&self) -> &[BranchRecord] {
        &self.branches
    }

    /// The concrete assignment of all symbolic inputs declared so far.
    pub fn concrete_model(&self) -> &Model {
        &self.concrete
    }

    /// The mapping from symbolic input names to solver variables.
    pub fn var_map(&self) -> &VarMap {
        &self.vars
    }

    /// Labels and policy membership of the sites seen or declared so far.
    pub fn site_info(&self) -> &SiteInfo {
        self.sites.as_deref().unwrap_or(&NO_SITES)
    }

    /// Human-readable labels for branch sites, when known.
    pub fn site_labels(&self) -> &SiteLabels {
        self.site_info().labels()
    }

    /// Records a site's label, and that it is a policy site if `policy`.
    /// A shared table is copied only when this tells it something new.
    fn note_site(&mut self, site: SiteId, policy: bool, label: impl FnOnce() -> Arc<str>) {
        let known = self.site_info();
        if known.labels.contains_key(&site) && (!policy || known.policy.contains(&site)) {
            return;
        }
        let mine = Arc::make_mut(self.sites.get_or_insert_with(Arc::default));
        mine.add_label(site, label);
        if policy {
            mine.policy.insert(site);
        }
    }

    fn declare<T: ConcolicInt>(&mut self, name: &str, concrete: T) -> Concolic<T> {
        let var = match self.vars.get(name) {
            Some(&v) => v,
            None => {
                let name: Arc<str> = Arc::from(name);
                let v = self.arena.declare_var(Arc::clone(&name), T::WIDTH);
                self.vars.insert(name, v);
                v
            }
        };
        self.bind(var, concrete)
    }

    /// Gives a declared variable its concrete value for this run.
    fn bind<T: ConcolicInt>(&mut self, var: VarId, concrete: T) -> Concolic<T> {
        self.concrete.set(var, concrete.to_u64());
        let term = self.arena.var(var);
        Concolic::with_term(concrete, term)
    }

    /// Declares (or re-binds) a symbolic input of any width under a name
    /// the caller already holds as a shared string, so declaring it copies
    /// nothing. Otherwise the same as [`ExecCtx::symbolic_u32`] and its
    /// siblings.
    pub fn symbolic_shared<T: ConcolicInt>(&mut self, name: &Arc<str>, concrete: T) -> Concolic<T> {
        let var = match self.vars.entry(Arc::clone(name)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => *slot.insert(self.arena.declare_var(Arc::clone(name), T::WIDTH)),
        };
        self.bind(var, concrete)
    }

    /// Declares (or re-binds) an 8-bit symbolic input with a concrete value.
    pub fn symbolic_u8(&mut self, name: &str, concrete: u8) -> CU8 {
        self.declare(name, concrete)
    }

    /// Declares (or re-binds) a 32-bit symbolic input with a concrete value.
    pub fn symbolic_u32(&mut self, name: &str, concrete: u32) -> CU32 {
        self.declare(name, concrete)
    }

    /// Records a branch at an explicitly-identified site and returns the
    /// concrete outcome, which the caller should use to decide control flow
    /// (used by the policy-filter interpreter, where the site is a
    /// configuration AST node).
    pub fn branch_at(&mut self, site: SiteId, cond: ConcolicBool) -> bool {
        if cond.is_symbolic() && self.branches.len() < self.max_branches {
            // The symbolic term is present by the `is_symbolic` check.
            let condition = cond.term().expect("symbolic condition has a term");
            self.branches.push(BranchRecord {
                site,
                condition,
                taken: cond.value(),
            });
        }
        cond.value()
    }

    /// Records a labelled branch, remembering the label for reports.
    pub fn branch_labeled(&mut self, label: &str, cond: ConcolicBool) -> bool {
        let site = SiteId::from_label(label);
        self.note_site(site, false, || Arc::from(label));
        self.branch_at(site, cond)
    }

    /// Declares a *policy* branch site — a site that lives in the router's
    /// configuration (a filter `if` arm) rather than in code. Declaration
    /// is independent of execution: the filter interpreter declares every
    /// arm of a filter up front, so arms no run has reached still count in
    /// the policy-coverage denominator.
    pub(crate) fn declare_policy_site(&mut self, label: &str) -> SiteId {
        let site = SiteId::from_label(label);
        self.note_site(site, true, || Arc::from(label));
        site
    }

    /// Declares a whole group of policy sites hashed and labelled
    /// beforehand — a filter's table. The first declaration of a run shares
    /// the table; only a run that knows other sites as well copies.
    pub fn declare_policy_sites(&mut self, group: &Arc<SiteInfo>) {
        match &mut self.sites {
            None => self.sites = Some(Arc::clone(group)),
            Some(mine) if Arc::ptr_eq(mine, group) => {}
            Some(mine) => Arc::make_mut(mine).merge(group),
        }
    }

    /// Records a labelled branch at a policy site (declaring it as such).
    pub fn policy_branch_labeled(&mut self, label: &str, cond: ConcolicBool) -> bool {
        let site = self.declare_policy_site(label);
        self.branch_at(site, cond)
    }

    /// The policy sites declared during this run, in stable order.
    pub fn policy_sites(&self) -> &BTreeSet<SiteId> {
        self.site_info().policy_sites()
    }

    /// The conjunction of constraints describing the executed path.
    pub fn path_constraints(&mut self) -> Vec<TermId> {
        let ExecCtx {
            arena, branches, ..
        } = self;
        branches.iter().map(|b| b.taken_constraint(arena)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_names_declare_exactly_what_borrowed_names_do() {
        let names: Vec<Arc<str>> = ["a", "b"].into_iter().map(Arc::from).collect();
        let mut borrowed = ExecCtx::new();
        let mut shared = ExecCtx::new().with_input_capacity(names.len());
        for (round, value) in [(0, 5u32), (1, 9)] {
            for name in &names {
                let b = borrowed.symbolic_u32(name, value + round);
                let s = shared.symbolic_shared(name, value + round);
                assert_eq!(b, s);
            }
        }
        assert_eq!(borrowed.var_map(), shared.var_map());
        assert_eq!(borrowed.concrete_model(), shared.concrete_model());
        assert_eq!(borrowed.arena().len(), shared.arena().len());
        // The declared name is the caller's string, not a copy of it.
        let (declared, _) = shared.var_map().get_key_value("a").expect("declared");
        assert!(Arc::ptr_eq(declared, &names[0]));
    }

    #[test]
    fn symbolic_inputs_are_registered() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 7);
        assert!(x.is_symbolic());
        assert_eq!(x.value(), 7);
        assert_eq!(ctx.var_map().len(), 1);
        let var = ctx.var_map()["x"];
        assert_eq!(ctx.concrete_model().get(var), 7);
        // Re-declaring the same name reuses the variable.
        let x2 = ctx.symbolic_u32("x", 9);
        assert_eq!(ctx.var_map().len(), 1);
        assert_eq!(x2.value(), 9);
    }

    #[test]
    fn branches_are_recorded_with_direction() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 5);
        let c10 = CU32::concrete(10);
        let cond = x.lt(&c10, &mut ctx);
        let taken = ctx.branch_labeled("below-10", cond);
        assert!(taken);
        let c3 = CU32::concrete(3);
        let cond2 = x.lt(&c3, &mut ctx);
        let taken2 = ctx.branch_labeled("below-3", cond2);
        assert!(!taken2);
        assert_eq!(ctx.branches().len(), 2);
        assert!(ctx.branches()[0].taken);
        assert!(!ctx.branches()[1].taken);
        // The two branch sites must be distinct (different labels).
        assert_ne!(ctx.branches()[0].site, ctx.branches()[1].site);
    }

    #[test]
    fn concrete_conditions_are_not_recorded() {
        let mut ctx = ExecCtx::new();
        let a = CU32::concrete(1);
        let b = CU32::concrete(2);
        let cond = a.lt(&b, &mut ctx);
        let taken = ctx.branch_labeled("constant", cond);
        assert!(taken);
        assert!(ctx.branches().is_empty());
    }

    #[test]
    fn path_constraints_reflect_taken_directions() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 5);
        let c10 = CU32::concrete(10);
        let c3 = CU32::concrete(3);
        let c1 = x.lt(&c10, &mut ctx);
        let c2 = x.lt(&c3, &mut ctx);
        ctx.branch_labeled("below-10", c1); // taken
        ctx.branch_labeled("below-3", c2); // not taken
        let constraints = ctx.path_constraints();
        assert_eq!(constraints.len(), 2);
        // The concrete model must satisfy the path constraints it generated.
        let model = ctx.concrete_model().clone();
        assert!(model.satisfies_all(ctx.arena(), &constraints));
    }

    #[test]
    fn labeled_branch_sites_are_stable() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 1);
        let zero = CU32::concrete(0);
        let cond = x.gt(&zero, &mut ctx);
        ctx.branch_labeled("filter:line1", cond);
        ctx.branch_labeled("filter:line1", cond);
        assert_eq!(ctx.branches()[0].site, ctx.branches()[1].site);
        assert_eq!(&*ctx.site_labels()[&ctx.branches()[0].site], "filter:line1");
        assert_eq!(SiteId::from_label("filter:line1"), ctx.branches()[0].site);
    }

    #[test]
    fn policy_sites_are_declared_independently_of_execution() {
        let mut ctx = ExecCtx::new();
        let declared = ctx.declare_policy_site("filter:f:if0");
        let unexecuted = ctx.declare_policy_site("filter:f:if1");
        assert_eq!(declared, SiteId::from_label("filter:f:if0"));
        assert_eq!(ctx.policy_sites().len(), 2);
        assert!(ctx.branches().is_empty(), "declaration records no branch");
        // Executing one of them records a branch at the same site.
        let x = ctx.symbolic_u32("x", 1);
        let cond = x.gt(&CU32::concrete(0), &mut ctx);
        ctx.policy_branch_labeled("filter:f:if0", cond);
        assert_eq!(ctx.branches().len(), 1);
        assert_eq!(ctx.branches()[0].site, declared);
        assert!(ctx.policy_sites().contains(&unexecuted));
        assert_eq!(ctx.site_info().label(unexecuted), Some("filter:f:if1"));
    }

    fn filter_table(labels: &[&str]) -> Arc<SiteInfo> {
        let mut info = SiteInfo::default();
        for label in labels {
            info.add_policy_site(label);
        }
        Arc::new(info)
    }

    #[test]
    fn a_fresh_context_knows_no_sites_and_holds_no_table() {
        let ctx = ExecCtx::new();
        assert!(
            ctx.sites.is_none(),
            "the concrete fast path allocates nothing"
        );
        assert!(ctx.site_labels().is_empty());
        assert!(ctx.policy_sites().is_empty());
        assert_eq!(ctx.site_info().label(SiteId(7)), None);
    }

    #[test]
    fn declaring_a_table_shares_it_until_the_run_labels_a_site_of_its_own() {
        let table = filter_table(&["filter:f:if0", "filter:f:if1"]);
        let mut ctx = ExecCtx::new();
        ctx.declare_policy_sites(&table);
        ctx.declare_policy_sites(&table);
        assert!(Arc::ptr_eq(ctx.sites.as_ref().expect("declared"), &table));
        assert_eq!(ctx.policy_sites().len(), 2);
        let if1 = SiteId::from_label("filter:f:if1");
        assert_eq!(ctx.site_info().label(if1), Some("filter:f:if1"));

        // Naming a site the table already knows copies nothing.
        ctx.declare_policy_site("filter:f:if0");
        assert!(Arc::ptr_eq(ctx.sites.as_ref().expect("declared"), &table));

        // A label of the run's own copies the table; the shared one is
        // left as it was.
        let x = ctx.symbolic_u32("x", 1);
        let cond = x.gt(&CU32::concrete(0), &mut ctx);
        ctx.branch_labeled("code:check", cond);
        assert!(!Arc::ptr_eq(ctx.sites.as_ref().expect("declared"), &table));
        assert_eq!(ctx.site_labels().len(), 3);
        assert_eq!(
            ctx.policy_sites().len(),
            2,
            "a code site is not a policy site"
        );
        assert_eq!(table.labels().len(), 2);

        // A second table merges into the copy.
        ctx.declare_policy_sites(&filter_table(&["filter:g:if0"]));
        assert_eq!(ctx.policy_sites().len(), 3);
        assert_eq!(ctx.take_sites().labels().len(), 4);
        assert!(ctx.site_labels().is_empty(), "taken");
    }

    #[test]
    fn capacity_hints_change_nothing_observable() {
        let mut first = ExecCtx::new();
        let x = first.symbolic_u32("x", 5);
        let cond = x.lt(&CU32::concrete(10), &mut first);
        first.branch_labeled("b", cond);
        let trace = ExecTrace::from_ctx(first, crate::InputValues::new().with("x", 5));

        let mut sized = ExecCtx::new().with_capacity_like(&trace);
        let x = sized.symbolic_u32("x", 5);
        let cond = x.lt(&CU32::concrete(10), &mut sized);
        sized.branch_labeled("b", cond);
        assert_eq!(sized.branches(), &trace.branches[..]);
        assert_eq!(sized.arena().len(), trace.arena.len());
        assert_eq!(sized.var_map(), &trace.var_map);
    }

    #[test]
    fn max_branches_caps_recording() {
        let mut ctx = ExecCtx::new().with_max_branches(3);
        let x = ctx.symbolic_u32("x", 5);
        let c = CU32::concrete(10);
        for _ in 0..10 {
            let cond = x.lt(&c, &mut ctx);
            ctx.branch_labeled("loop", cond);
        }
        assert_eq!(ctx.branches().len(), 3);
    }

    #[test]
    fn negated_constraint_flips_direction() {
        let mut ctx = ExecCtx::new();
        let x = ctx.symbolic_u32("x", 5);
        let c = CU32::concrete(10);
        let cond = x.lt(&c, &mut ctx);
        ctx.branch_labeled("below-10", cond);
        let rec = ctx.branches()[0];
        let (mut arena, _, model, _) = ctx.into_parts();
        let taken = rec.taken_constraint(&mut arena);
        let negated = rec.negated_constraint(&mut arena);
        assert!(model.holds(&arena, taken));
        assert!(!model.holds(&arena, negated));
    }
}
