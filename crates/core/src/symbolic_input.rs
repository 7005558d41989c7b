//! Deriving symbolic inputs from observed UPDATE messages.
//!
//! The paper marks *selected, small-sized fields* of observed UPDATE
//! messages as symbolic — the NLRI prefix and netmask length plus path
//! attribute values — rather than whole messages, so that every generated
//! exploratory message is syntactically valid and exploration goes deep
//! into route processing instead of the parser (§3.2). [`UpdateTemplate`]
//! implements exactly that: it captures the observed message, exposes the
//! symbolic fields as an input assignment, and rebuilds a valid UPDATE from
//! any assignment the solver produces.

use std::sync::Arc;

use dice_bgp::attributes::{Community, Origin, RouteAttrs};
use dice_bgp::message::UpdateMessage;
use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::{AsPath, Asn, SegmentKind};
use dice_router::policy::RouteView;
use dice_symexec::{Concolic, ExecCtx, InputValues};

/// Names of the symbolic input fields.
pub(crate) mod fields {
    /// Network address of the announced NLRI prefix (32 bits).
    pub(crate) const NLRI_ADDR: &str = "nlri.addr";
    /// Netmask length of the announced NLRI prefix (8 bits).
    pub(crate) const NLRI_LEN: &str = "nlri.len";
    /// ORIGIN attribute code (8 bits).
    pub(crate) const ORIGIN: &str = "attr.origin";
    /// MULTI_EXIT_DISC (32 bits).
    pub(crate) const MED: &str = "attr.med";
    /// LOCAL_PREF (32 bits).
    pub(crate) const LOCAL_PREF: &str = "attr.local_pref";
    /// Origin AS — the last AS on the path (32 bits).
    pub(crate) const SOURCE_AS: &str = "attr.source_as";
    /// An extra COMMUNITIES attribute slot the solver may fill, encoded as
    /// `asn << 16 | value` (32 bits). Zero means "no extra community"; the
    /// `(0, 0)` community therefore cannot be synthesized through this slot.
    pub(crate) const COMMUNITY: &str = "attr.community";
    /// AS-path length (32 bits, clamped to `1..=64` on materialization).
    pub(crate) const PATH_LEN: &str = "attr.path_len";
}

/// Every symbolic field, in declaration order.
const FIELDS: [&str; 8] = [
    fields::NLRI_ADDR,
    fields::NLRI_LEN,
    fields::ORIGIN,
    fields::MED,
    fields::LOCAL_PREF,
    fields::SOURCE_AS,
    fields::COMMUNITY,
    fields::PATH_LEN,
];

// Positions in `FIELDS`.
const NLRI_ADDR: usize = 0;
const NLRI_LEN: usize = 1;
const ORIGIN: usize = 2;
const MED: usize = 3;
const LOCAL_PREF: usize = 4;
const SOURCE_AS: usize = 5;
const COMMUNITY: usize = 6;
const PATH_LEN: usize = 7;

thread_local! {
    /// The field names as shared strings, one set per thread. Every seed
    /// and every run names the same fields; handing out a clone of one of
    /// these is a reference-count bump where a fresh name copies the string.
    static FIELD_NAMES: [Arc<str>; 8] = FIELDS.map(Arc::from);
}

/// A template derived from one observed UPDATE message.
#[derive(Debug, Clone)]
pub struct UpdateTemplate {
    observed_prefix: Ipv4Prefix,
    /// Shared with the observed UPDATE.
    observed_attrs: Arc<RouteAttrs>,
    /// The observed value of every field in [`FIELDS`].
    observed: [u64; 8],
}

impl UpdateTemplate {
    /// Builds a template from an observed announcement. Returns `None` for
    /// messages that announce nothing (pure withdrawals), which the paper
    /// leaves to future work.
    pub fn from_update(update: &UpdateMessage) -> Option<Self> {
        let prefix = *update.nlri.first()?;
        let attrs = update.attrs.clone().unwrap_or_default();
        let mut observed = [0; 8];
        observed[NLRI_ADDR] = prefix.addr() as u64;
        observed[NLRI_LEN] = prefix.len() as u64;
        observed[ORIGIN] = attrs.origin.code() as u64;
        observed[MED] = attrs.effective_med() as u64;
        observed[LOCAL_PREF] = attrs.effective_local_pref() as u64;
        observed[SOURCE_AS] = attrs.origin_as().map(|x| x.value()).unwrap_or(0) as u64;
        observed[COMMUNITY] = 0;
        observed[PATH_LEN] = (attrs.as_path.length() as u64).clamp(1, 64);
        Some(UpdateTemplate {
            observed_prefix: prefix,
            observed_attrs: attrs,
            observed,
        })
    }

    /// The seed input: the values observed on the wire, one per field.
    pub fn seed(&self) -> InputValues {
        FIELD_NAMES.with(|names| {
            names
                .iter()
                .zip(self.observed)
                .map(|(name, value)| (Arc::clone(name), value))
                .collect()
        })
    }

    /// Reconstructs a *syntactically valid* UPDATE message from an input
    /// assignment: the prefix length is clamped to 32, host bits beyond the
    /// length are masked off, and the origin code is folded into the three
    /// defined values.
    pub fn build_update(&self, values: &InputValues) -> UpdateMessage {
        let (prefix, attrs) = self.materialize(values);
        UpdateMessage::announce(vec![prefix], &attrs)
    }

    /// Returns the concrete prefix and attributes described by an input
    /// assignment.
    pub(crate) fn materialize(&self, values: &InputValues) -> (Ipv4Prefix, RouteAttrs) {
        let len = values
            .get_or(fields::NLRI_LEN, self.observed_prefix.len() as u64)
            .min(32) as u8;
        let addr = values.get_or(fields::NLRI_ADDR, self.observed_prefix.addr() as u64) as u32;
        let prefix = Ipv4Prefix::new(addr, len).expect("length clamped to 32");
        let mut attrs = RouteAttrs::clone(&self.observed_attrs);
        attrs.origin = Origin::from_code((values.get_or(fields::ORIGIN, 0) % 3) as u8)
            .expect("code folded into 0..=2");
        attrs.med = Some(values.get_or(fields::MED, 0) as u32);
        attrs.local_pref = Some(values.get_or(fields::LOCAL_PREF, 100) as u32);
        let source_as = values.get_or(fields::SOURCE_AS, self.observed[SOURCE_AS]) as u32;
        attrs.as_path = replace_origin_as(&self.observed_attrs.as_path, Asn(source_as));
        let target = values
            .get_or(fields::PATH_LEN, self.observed[PATH_LEN])
            .clamp(1, 64) as usize;
        attrs.as_path = resize_path(&attrs.as_path, target);
        let slot = values.get_or(fields::COMMUNITY, 0) as u32;
        if slot != 0 {
            let community = Community(slot);
            if !attrs.communities.contains(&community) {
                attrs.communities.push(community);
            }
        }
        (prefix, attrs)
    }

    /// Builds the symbolic [`RouteView`] the filter interpreter evaluates:
    /// the selected fields are registered as symbolic variables in `ctx`
    /// with the assignment's concrete values; everything else stays
    /// concrete from the observed message.
    pub(crate) fn symbolic_view(&self, ctx: &mut ExecCtx, values: &InputValues) -> RouteView {
        FIELD_NAMES.with(|names| {
            // An assignment the engine generated names every field; the
            // observed value stands in for one a hand-written assignment
            // omits.
            let get = |field: usize| values.get(&names[field]).unwrap_or(self.observed[field]);
            let a = &self.observed_attrs;
            let path_len = ctx.symbolic_shared(&names[PATH_LEN], get(PATH_LEN).clamp(1, 64) as u32);
            let community_slot = ctx.symbolic_shared(&names[COMMUNITY], get(COMMUNITY) as u32);
            RouteView {
                prefix_addr: ctx.symbolic_shared(&names[NLRI_ADDR], get(NLRI_ADDR) as u32),
                prefix_len: ctx.symbolic_shared(&names[NLRI_LEN], get(NLRI_LEN).min(32) as u8),
                source_as: ctx.symbolic_shared(&names[SOURCE_AS], get(SOURCE_AS) as u32),
                neighbor_as: Concolic::concrete(
                    a.as_path.neighbor_as().map(|x| x.value()).unwrap_or(0),
                ),
                path_len,
                med: ctx.symbolic_shared(&names[MED], get(MED) as u32),
                local_pref: ctx.symbolic_shared(&names[LOCAL_PREF], get(LOCAL_PREF) as u32),
                origin_code: ctx.symbolic_shared(&names[ORIGIN], (get(ORIGIN) % 3) as u8),
                communities: a
                    .communities
                    .iter()
                    .map(|c| (c.asn_part(), c.value_part()))
                    .collect(),
                community_slot,
            }
        })
    }
}

/// Returns a copy of `path` whose origin AS (last ASN of the last sequence
/// segment) is replaced with `origin`. Empty paths become a one-hop path.
fn replace_origin_as(path: &AsPath, origin: Asn) -> AsPath {
    // A one-sequence path that already ends in `origin` is its own result.
    let mut segments = path.segments();
    if let (Some((SegmentKind::Sequence, asns)), None) = (segments.next(), segments.next()) {
        if asns.last() == Some(&origin) {
            return path.clone();
        }
    }
    let mut asns: Vec<u32> = path.flatten().iter().map(|a| a.value()).collect();
    match asns.last_mut() {
        Some(last) => *last = origin.value(),
        None => asns.push(origin.value()),
    }
    AsPath::from_sequence(asns)
}

/// Returns a copy of `path` resized to exactly `target` hops. The origin AS
/// (last hop) is preserved; longer paths are produced by repeating the first
/// hop (mimicking neighbor-side prepending), shorter ones by dropping hops
/// from the front. Empty paths stay empty — there is no AS to repeat.
fn resize_path(path: &AsPath, target: usize) -> AsPath {
    let hops: usize = path.segments().map(|(_, asns)| asns.len()).sum();
    if hops == 0 || hops == target {
        return path.clone();
    }
    let asns: Vec<u32> = path.flatten().iter().map(|a| a.value()).collect();
    let mut resized = asns.clone();
    if asns.len() < target {
        let first = asns[0];
        let mut padded = vec![first; target - asns.len()];
        padded.extend(resized);
        resized = padded;
    } else {
        resized = resized.split_off(asns.len() - target);
    }
    AsPath::from_sequence(resized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn observed() -> UpdateMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([17557, 36561]);
        attrs.next_hop = Ipv4Addr::new(10, 0, 1, 1);
        attrs.med = Some(5);
        UpdateMessage::announce(vec!["208.65.152.0/22".parse().expect("valid")], &attrs)
    }

    #[test]
    fn template_captures_observed_values() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        let seed = template.seed();
        assert_eq!(seed.get(fields::NLRI_LEN), Some(22));
        assert_eq!(seed.get(fields::SOURCE_AS), Some(36561));
        assert_eq!(seed.get(fields::MED), Some(5));
        assert_eq!(seed.get(fields::COMMUNITY), Some(0));
        assert_eq!(seed.get(fields::PATH_LEN), Some(2));
        assert_eq!(seed.len(), 8);
        assert!(UpdateTemplate::from_update(&UpdateMessage::withdraw(vec![])).is_none());
    }

    #[test]
    fn rebuilt_update_from_seed_matches_observed_prefix() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        let rebuilt = template.build_update(&template.seed());
        assert_eq!(
            rebuilt.nlri,
            vec!["208.65.152.0/22".parse().expect("valid")]
        );
        let attrs = rebuilt.route_attrs();
        assert_eq!(attrs.origin_as().map(|a| a.value()), Some(36561));
        assert_eq!(attrs.med, Some(5));
    }

    #[test]
    fn generated_updates_are_always_syntactically_valid() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        // Hostile assignments: oversized length, unmasked host bits, origin
        // code out of range.
        let values = InputValues::new()
            .with(fields::NLRI_ADDR, 0xd041_99ff)
            .with(fields::NLRI_LEN, 250)
            .with(fields::ORIGIN, 200)
            .with(fields::SOURCE_AS, 17557);
        let update = template.build_update(&values);
        let prefix = update.nlri[0];
        assert!(prefix.len() <= 32);
        // Wire round-trip proves syntactic validity.
        let bytes = dice_bgp::wire::encode(&dice_bgp::message::BgpMessage::Update(update.clone()));
        let (decoded, _) = dice_bgp::wire::decode(&bytes).expect("valid on the wire");
        assert_eq!(decoded.as_update(), Some(&update));
        let attrs = update.route_attrs();
        assert_eq!(attrs.origin_as().map(|a| a.value()), Some(17557));
        assert!(attrs.origin.code() <= 2);
    }

    #[test]
    fn symbolic_view_registers_symbolic_fields() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        let mut ctx = ExecCtx::new();
        let view = template.symbolic_view(&mut ctx, &template.seed());
        assert!(view.prefix_addr.is_symbolic());
        assert!(view.prefix_len.is_symbolic());
        assert!(view.source_as.is_symbolic());
        assert!(view.med.is_symbolic());
        assert!(!view.neighbor_as.is_symbolic());
        assert!(view.community_slot.is_symbolic());
        assert!(view.path_len.is_symbolic());
        assert_eq!(view.prefix_len.value(), 22);
        assert_eq!(view.path_len.value(), 2);
        assert_eq!(view.community_slot.value(), 0);
        assert_eq!(ctx.var_map().len(), 8);
    }

    #[test]
    fn materialize_synthesizes_community_and_path_length() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        let values = template
            .seed()
            .with(
                fields::COMMUNITY,
                dice_router::policy::encode_community(3491, 666) as u64,
            )
            .with(fields::PATH_LEN, 4);
        let (_, attrs) = template.materialize(&values);
        assert_eq!(
            attrs.communities,
            vec![Community::new(3491, 666)],
            "solver-chosen community is attached"
        );
        assert_eq!(attrs.as_path.length(), 4);
        // Origin AS survives the resize; padding repeats the first hop.
        assert_eq!(attrs.origin_as().map(|a| a.value()), Some(36561));
        assert_eq!(
            attrs.as_path.flatten(),
            vec![Asn(17557), Asn(17557), Asn(17557), Asn(36561)]
        );
        // An out-of-range length request is clamped, not rejected.
        let (_, attrs) = template.materialize(&template.seed().with(fields::PATH_LEN, 10_000));
        assert_eq!(attrs.as_path.length(), 64);
        let (_, attrs) = template.materialize(&template.seed().with(fields::PATH_LEN, 0));
        assert_eq!(attrs.as_path.length(), 1);
        assert_eq!(attrs.origin_as().map(|a| a.value()), Some(36561));
    }

    #[test]
    fn materialize_uses_solver_assignment_over_observed() {
        let template = UpdateTemplate::from_update(&observed()).expect("has NLRI");
        let values = template
            .seed()
            .with(
                fields::NLRI_ADDR,
                u32::from_be_bytes([208, 65, 153, 0]) as u64,
            )
            .with(fields::NLRI_LEN, 24);
        let (prefix, attrs) = template.materialize(&values);
        assert_eq!(prefix.to_string(), "208.65.153.0/24");
        // Unmentioned fields keep observed values.
        assert_eq!(attrs.as_path.neighbor_as().map(|a| a.value()), Some(17557));
    }

    #[test]
    fn replace_origin_handles_empty_paths() {
        let empty = AsPath::empty();
        let replaced = replace_origin_as(&empty, Asn(65001));
        assert_eq!(replaced.origin_as(), Some(Asn(65001)));
        let path = AsPath::from_sequence([1, 2, 3]);
        let replaced = replace_origin_as(&path, Asn(9));
        assert_eq!(replaced.flatten(), vec![Asn(1), Asn(2), Asn(9)]);
    }
}
