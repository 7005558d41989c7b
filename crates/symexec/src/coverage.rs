//! Branch coverage accounting across exploration runs.
//!
//! The paper's exploration strategy "attempts to cover all execution paths
//! reachable by the set of controlled symbolic inputs"; coverage statistics
//! tell the engine (and the operator) how close it is.

use std::sync::Arc;

use dice_solver::FastHashMap;

use crate::context::{SiteId, SiteInfo};

/// Which directions of a branch site have been observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCoverage {
    /// The true/taken direction has been observed.
    pub(crate) taken: bool,
    /// The false/not-taken direction has been observed.
    pub(crate) not_taken: bool,
    /// Number of times the site was executed.
    pub(crate) hits: u64,
}

impl SiteCoverage {
    /// Returns true if both directions have been observed.
    pub(crate) fn is_complete(&self) -> bool {
        self.taken && self.not_taken
    }
}

/// Aggregate coverage over all branch sites seen so far.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    sites: FastHashMap<SiteId, SiteCoverage>,
    /// Labels, and the sites that live in router *configuration* (filter
    /// arms) rather than code. Registration is independent of execution,
    /// so [`Coverage::policy_site_count`], the denominator of policy
    /// coverage, includes arms no run has reached.
    info: SiteInfo,
    /// The table [`Coverage::register_sites`] folded in last. Runs of one
    /// filter all bring the same one, so after the first a run's sites are
    /// registered by comparing two pointers.
    last_registered: Option<Arc<SiteInfo>>,
}

impl Coverage {
    /// Creates empty coverage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of a branch direction.
    pub(crate) fn record(&mut self, site: SiteId, taken: bool) {
        let entry = self.sites.entry(site).or_default();
        entry.hits += 1;
        if taken {
            entry.taken = true;
        } else {
            entry.not_taken = true;
        }
    }

    /// Registers what a run knows about its sites: every label, and every
    /// policy site (a filter arm). Registering a policy site does not mark
    /// any direction covered — it only adds the site to the
    /// policy-coverage denominator.
    pub(crate) fn register_sites(&mut self, sites: &Arc<SiteInfo>) {
        if self
            .last_registered
            .as_ref()
            .is_some_and(|last| Arc::ptr_eq(last, sites))
        {
            return;
        }
        self.info.merge(sites);
        self.last_registered = Some(Arc::clone(sites));
    }

    /// Returns the label of a site, if known.
    pub fn label(&self, site: SiteId) -> Option<&str> {
        self.info.label(site)
    }

    /// Number of distinct branch sites observed.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of sites for which both directions were observed.
    pub fn complete_sites(&self) -> usize {
        self.sites.values().filter(|c| c.is_complete()).count()
    }

    /// Returns true if the site was registered as a policy site.
    pub fn is_policy_site(&self, site: SiteId) -> bool {
        self.info.policy_sites().contains(&site)
    }

    /// Number of registered policy branch sites (executed or not).
    pub fn policy_site_count(&self) -> usize {
        self.info.policy_sites().len()
    }

    /// Number of policy sites for which both directions were observed.
    pub fn policy_complete_sites(&self) -> usize {
        self.info
            .policy_sites()
            .iter()
            .filter(|s| self.sites.get(s).is_some_and(|c| c.is_complete()))
            .count()
    }

    /// Number of `(policy site, direction)` pairs observed.
    pub fn policy_directions_covered(&self) -> usize {
        self.info
            .policy_sites()
            .iter()
            .filter_map(|s| self.sites.get(s))
            .map(|c| usize::from(c.taken) + usize::from(c.not_taken))
            .sum()
    }

    /// Iterates over `(site, coverage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, SiteCoverage)> + '_ {
        self.sites.iter().map(|(&s, &c)| (s, c))
    }

    /// Merges another coverage map into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (&site, cov) in &other.sites {
            let entry = self.sites.entry(site).or_default();
            entry.hits += cov.hits;
            entry.taken |= cov.taken;
            entry.not_taken |= cov.not_taken;
        }
        self.info.merge(&other.info);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId(n)
    }

    /// A filter's table of policy sites.
    fn table(labels: &[&str]) -> Arc<SiteInfo> {
        let mut info = SiteInfo::default();
        for label in labels {
            info.add_policy_site(label);
        }
        Arc::new(info)
    }

    #[test]
    fn recording_accumulates_directions() {
        let mut cov = Coverage::new();
        cov.record(site(1), true);
        cov.record(site(1), true);
        cov.record(site(2), false);
        assert_eq!(cov.site_count(), 2);
        assert_eq!(cov.complete_sites(), 0);
        let entry = |cov: &Coverage, s| cov.sites.get(&s).copied().expect("seen");
        assert!(entry(&cov, site(1)).taken && !entry(&cov, site(1)).not_taken);
        assert!(!entry(&cov, site(2)).taken && entry(&cov, site(2)).not_taken);
        cov.record(site(1), false);
        assert_eq!(cov.complete_sites(), 1);
        assert!(entry(&cov, site(1)).is_complete());
        assert_eq!(entry(&cov, site(1)).hits, 3);
    }

    #[test]
    fn empty_coverage_is_fully_covered() {
        let cov = Coverage::new();
        assert_eq!(cov.site_count(), 0);
        assert_eq!(cov.complete_sites(), cov.site_count());
        assert_eq!(cov.policy_complete_sites(), cov.policy_site_count());
    }

    #[test]
    fn policy_sites_count_registered_arms_even_when_unexecuted() {
        let mut cov = Coverage::new();
        assert_eq!(cov.policy_site_count(), 0);
        cov.register_sites(&table(&["f:if0", "f:if1"]));
        let (if0, if1) = (SiteId::from_label("f:if0"), SiteId::from_label("f:if1"));
        assert_eq!(cov.policy_site_count(), 2);
        assert!(cov.is_policy_site(if0));
        assert!(!cov.is_policy_site(site(3)));
        assert_eq!(cov.policy_directions_covered(), 0);
        cov.record(if0, true);
        cov.record(site(9), true);
        cov.record(site(9), false);
        assert_eq!(
            cov.policy_directions_covered(),
            1,
            "a code site is not counted"
        );
        assert_eq!(cov.policy_complete_sites(), 0);
        cov.record(if0, false);
        assert_eq!(cov.policy_complete_sites(), 1);
        assert!(!cov.sites.contains_key(&if1), "registered, never executed");
    }

    #[test]
    fn merge_unions_policy_registrations() {
        let mut a = Coverage::new();
        a.register_sites(&table(&["f:if0"]));
        let mut b = Coverage::new();
        b.register_sites(&table(&["g:if0"]));
        b.record(SiteId::from_label("g:if0"), true);
        a.merge(&b);
        assert_eq!(a.policy_site_count(), 2);
        assert_eq!(a.policy_directions_covered(), 1);
    }

    #[test]
    fn registering_the_same_table_again_is_a_pointer_comparison() {
        let mut info = SiteInfo::default();
        let arm = info.add_policy_site("filter:f:if0");
        let table = Arc::new(info);
        let mut cov = Coverage::new();
        cov.register_sites(&table);
        assert!(cov.is_policy_site(arm));
        assert_eq!(cov.label(arm), Some("filter:f:if0"));
        assert_eq!(
            cov.policy_directions_covered(),
            0,
            "registered, not covered"
        );
        // Every further run of the filter brings the same table.
        cov.register_sites(&table);
        assert_eq!(cov.policy_site_count(), 1);
        assert!(Arc::ptr_eq(
            cov.last_registered.as_ref().expect("remembered"),
            &table
        ));
        // An equal table built elsewhere (another handler of the same
        // filter) adds nothing new.
        let mut again = SiteInfo::default();
        again.add_policy_site("filter:f:if0");
        cov.register_sites(&Arc::new(again));
        assert_eq!(cov.policy_site_count(), 1);
    }

    #[test]
    fn merge_combines_sites_and_labels() {
        let mut a = Coverage::new();
        let first = SiteId::from_label("first");
        let second = SiteId::from_label("second");
        let table = |label| {
            let mut info = SiteInfo::default();
            info.add_policy_site(label);
            Arc::new(info)
        };
        a.record(first, true);
        a.register_sites(&table("first"));
        let mut b = Coverage::new();
        b.record(first, false);
        b.record(second, true);
        b.register_sites(&table("second"));
        a.merge(&b);
        assert_eq!(a.site_count(), 2);
        assert_eq!(a.complete_sites(), 1);
        assert_eq!(a.label(first), Some("first"));
        assert_eq!(a.label(second), Some("second"));
        assert_eq!(a.policy_site_count(), 2);
    }
}
