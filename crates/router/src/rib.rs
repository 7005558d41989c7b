//! Routing information bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! The RIB is the node state that DiCE checkpoints and that the hijack
//! checker inspects ("a route already in the routing table prior to
//! starting exploration", paper §4.2).
//!
//! # Sharding and copy-on-write
//!
//! At the paper's scale (a 319,355-prefix full table) a single table makes
//! loading serialize on one core. The RIB is therefore split into `N`
//! independent [`PrefixMap`]s (`N` a power of two, sized from the
//! machine's available cores by default) keyed by the top `log2(N)` bits
//! of the prefix address; prefixes shorter than `log2(N)` bits live in a
//! small shared "short" map. Every shard sits behind an [`Arc`]:
//!
//! * **sharded operation** — announce, withdraw, reselection and lookups
//!   touch exactly one shard (plus, for covering queries, the short map),
//!   and [`Rib::load_parallel`] loads disjoint shard buckets on worker
//!   threads with no cross-shard locking;
//! * **copy-on-write forking** — `Rib::clone` is `N` reference-count
//!   bumps (the fork/checkpoint operation). The first write to a shard
//!   after a fork copies the shard's counters and its map's chunk
//!   directory ([`Arc::make_mut`]; one reference-count bump per chunk of
//!   128 prefixes), and the map then copies the one chunk the write lands
//!   in, so a live router and its exploration checkpoints share every
//!   chunk neither side has written.
//!
//! Sharding is an implementation detail: for any shard count the RIB is
//! observationally identical (asserted by property test), and
//! [`Rib::loc_rib`] merges shards back into the exact canonical prefix
//! order a single map iterates in, so every digest built by walking the
//! table stays byte-identical.

use std::cmp::Ordering;
use std::iter::Peekable;
use std::sync::{Arc, OnceLock};

use dice_bgp::prefix::Ipv4Prefix;
use dice_bgp::route::{PeerId, Route};

use crate::decision::best_of;
use crate::trie::{Iter as MapIter, PrefixMap};

/// The effect of applying an announcement or withdrawal to the Loc-RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibChange {
    /// The best route for the prefix changed to the contained route.
    Updated(Route),
    /// The prefix no longer has any route.
    Removed(Ipv4Prefix),
    /// The best route did not change.
    Unchanged,
}

impl RibChange {
    /// Returns true if the Loc-RIB was modified.
    pub fn is_change(&self) -> bool {
        !matches!(self, RibChange::Unchanged)
    }
}

/// The candidate routes of one prefix, at most one per peer, sorted by the
/// peer they were learned from.
///
/// Almost every prefix of a full table has exactly one candidate, so the
/// set is a plain vector whose first allocation holds exactly one route;
/// only contested prefixes grow it.
#[derive(Debug, Clone, Default)]
struct Candidates(Vec<Route>);

impl Candidates {
    fn position(&self, peer: PeerId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&peer, |r| r.learned_from)
    }

    fn get(&self, peer: PeerId) -> Option<&Route> {
        self.position(peer).ok().map(|i| &self.0[i])
    }

    /// Inserts the route, or replaces the one already held from its peer
    /// and returns that.
    fn insert(&mut self, route: Route) -> Option<Route> {
        match self.position(route.learned_from) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i], route)),
            Err(i) => {
                if self.0.is_empty() {
                    // `Vec` would start at four slots; a table is mostly
                    // single-candidate prefixes.
                    self.0.reserve_exact(1);
                }
                self.0.insert(i, route);
                None
            }
        }
    }

    fn remove(&mut self, peer: PeerId) -> Option<Route> {
        self.position(peer).ok().map(|i| self.0.remove(i))
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The candidates in peer order.
    fn iter(&self) -> std::slice::Iter<'_, Route> {
        self.0.iter()
    }
}

/// The per-prefix candidate set plus the selected best route.
///
/// The map stores entries inline, 128 to a chunk, and the first write to a
/// chunk after a fork moves all of them, so this stays a vector header and
/// a peer id.
#[derive(Debug, Clone, Default)]
struct PrefixEntry {
    candidates: Candidates,
    /// The peer the best route was learned from, if any.
    best: Option<PeerId>,
}

impl PrefixEntry {
    /// The selected (Loc-RIB) route.
    fn best_route(&self) -> Option<&Route> {
        self.candidates.get(self.best?)
    }

    fn reselect(&mut self) {
        self.best = best_of(self.candidates.iter()).map(|r| r.learned_from);
    }
}

/// One independent slice of the routing table: a map of the prefixes
/// whose top bits route to this shard, plus its local counters. Shards
/// never reference each other, so per-shard operations need no
/// coordination and a shard is the unit of copy-on-write.
#[derive(Debug, Clone, Default)]
struct RibShard {
    table: PrefixMap<PrefixEntry>,
    /// Number of prefixes with at least one candidate, in this shard.
    prefixes: usize,
    /// Total number of candidate routes, in this shard.
    candidates: usize,
    /// Write generation: bumped by every write that would copy this shard
    /// were a fork holding it ([`Rib::shard_generations`]).
    generation: u64,
}

impl RibShard {
    /// Inserts or replaces the route learned from `route.learned_from`,
    /// re-runs the decision process and reports the Loc-RIB change.
    ///
    /// This is the hot path of UPDATE processing (and of every concolic
    /// re-execution), so it searches the map once and allocates nothing
    /// beyond map and candidate-set growth; reselection scans the
    /// candidates without materializing them.
    fn announce(&mut self, route: Route) -> RibChange {
        self.generation += 1;
        let peer = route.learned_from;
        let (entry, inserted) = self
            .table
            .get_or_insert_with(route.prefix, PrefixEntry::default);
        if inserted {
            self.prefixes += 1;
        }
        let old_best_peer = entry.best;
        let replaced = entry.candidates.insert(route);
        if replaced.is_none() {
            self.candidates += 1;
        }
        entry.reselect();
        let new_best = entry.best_route();
        match (old_best_peer, new_best) {
            // An announce never empties a candidate set.
            (_, None) => RibChange::Unchanged,
            // Same best peer: the Loc-RIB view changed only if this
            // announce replaced that peer's route with a different one.
            (Some(old), Some(new)) if old == new.learned_from => {
                if old != peer || replaced.as_ref() == Some(new) {
                    RibChange::Unchanged
                } else {
                    RibChange::Updated(new.clone())
                }
            }
            (_, Some(new)) => RibChange::Updated(new.clone()),
        }
    }

    /// Removes the route learned from `peer` for `prefix`, if any.
    fn withdraw(&mut self, prefix: &Ipv4Prefix, peer: PeerId) -> RibChange {
        let Some(entry) = self.table.get_mut(prefix) else {
            return RibChange::Unchanged;
        };
        let old_best_peer = entry.best;
        if entry.candidates.remove(peer).is_none() {
            return RibChange::Unchanged;
        }
        self.generation += 1;
        self.candidates -= 1;
        if entry.candidates.is_empty() {
            self.table.remove(prefix);
            self.prefixes -= 1;
            return match old_best_peer {
                Some(_) => RibChange::Removed(*prefix),
                None => RibChange::Unchanged,
            };
        }
        if old_best_peer != Some(peer) {
            // Removing a non-best candidate cannot change the winner.
            return RibChange::Unchanged;
        }
        entry.reselect();
        match entry.best_route() {
            Some(new) => RibChange::Updated(new.clone()),
            None => RibChange::Removed(*prefix),
        }
    }
}

/// Filters one bucket of a bulk load, then announces the survivors into
/// `shard`, and returns how many survived. The filter runs first, so a
/// shard a fork holds is copied only when some route survives: a bucket
/// the filter rejects entirely leaves the shard shared and its generation
/// where it was.
fn load_filtered_bucket<F>(shard: &mut Arc<RibShard>, bucket: Vec<Route>, filter: &F) -> usize
where
    F: Fn(Route) -> Option<Route>,
{
    let survivors: Vec<Route> = bucket.into_iter().filter_map(filter).collect();
    let kept = survivors.len();
    if kept > 0 {
        let shard = Arc::make_mut(shard);
        for route in survivors {
            shard.announce(route);
        }
    }
    kept
}

/// The canonical table order: lexicographic over prefix bit strings, with
/// a prefix sorting before anything it covers. This is exactly the order a
/// single [`PrefixMap`] iterates in (the pre-order of a binary trie), so
/// merging shards under it reproduces the unsharded iteration byte for byte.
pub fn canonical_cmp(a: Ipv4Prefix, b: Ipv4Prefix) -> Ordering {
    let common = a.len().min(b.len());
    let mask = if common == 0 {
        0
    } else {
        u32::MAX << (32 - common)
    };
    (a.addr() & mask)
        .cmp(&(b.addr() & mask))
        .then(a.len().cmp(&b.len()))
}

/// The router's routing table.
///
/// Internally a power-of-two set of independent prefix maps (see the module
/// docs) maps each prefix to its candidate set (the Adj-RIBs-In merged per
/// prefix) and the selected best route (the Loc-RIB view). `Clone` is the
/// copy-on-write fork: shards are shared until written.
#[derive(Debug, Clone)]
pub struct Rib {
    /// `2^shard_bits` shards, each owning the prefixes whose top
    /// `shard_bits` address bits equal the shard index.
    shards: Vec<Arc<RibShard>>,
    /// Prefixes shorter than `shard_bits` (they span several shards).
    short: Arc<RibShard>,
    shard_bits: u8,
}

impl Default for Rib {
    fn default() -> Self {
        Rib::with_shard_count(default_shard_count())
    }
}

/// The machine's available parallelism, read once per process. Asking the
/// OS costs tens of microseconds (it reads the cgroup quota and the
/// affinity mask), and every `Rib::new` used to ask.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}

/// The default shard count: the machine's available parallelism rounded up
/// to a power of two, clamped to `[1, 64]` so forks stay a handful of
/// reference-count bumps even on very wide machines.
fn default_shard_count() -> usize {
    available_cores().next_power_of_two().clamp(1, 64)
}

impl Rib {
    /// Creates an empty RIB with the default shard count (sized from the
    /// machine's available cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty RIB with `count` shards, rounded up to the nearest
    /// power of two and clamped to `[1, 256]`. Shard count is invisible to
    /// every query — it only changes how operations spread across cores
    /// and how much a fork copies on first write.
    pub fn with_shard_count(count: usize) -> Self {
        let count = count.next_power_of_two().clamp(1, 256);
        let shard_bits = count.trailing_zeros() as u8;
        Rib {
            shards: (0..count).map(|_| Arc::new(RibShard::default())).collect(),
            short: Arc::new(RibShard::default()),
            shard_bits,
        }
    }

    /// The number of shards the table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `prefix`, or `None` for prefixes shorter
    /// than the shard key (those live in the shared short map).
    fn shard_index(&self, prefix: &Ipv4Prefix) -> Option<usize> {
        if self.shard_bits == 0 {
            return Some(0);
        }
        if prefix.len() < self.shard_bits {
            return None;
        }
        Some((prefix.addr() >> (32 - self.shard_bits as u32)) as usize)
    }

    /// The shard (or short map) holding `prefix`, read-only.
    fn home(&self, prefix: &Ipv4Prefix) -> &RibShard {
        match self.shard_index(prefix) {
            Some(i) => &self.shards[i],
            None => &self.short,
        }
    }

    /// The shard (or short map) holding `prefix`, for writing: the
    /// copy-on-write point — a shard still shared with a fork is copied
    /// here, and only here (chunks and all still shared; the shard's map
    /// copies the chunk it writes).
    fn home_mut(&mut self, prefix: &Ipv4Prefix) -> &mut RibShard {
        match self.shard_index(prefix) {
            Some(i) => Arc::make_mut(&mut self.shards[i]),
            None => Arc::make_mut(&mut self.short),
        }
    }

    /// Number of prefixes with at least one route.
    pub fn prefix_count(&self) -> usize {
        self.short.prefixes + self.shards.iter().map(|s| s.prefixes).sum::<usize>()
    }

    /// Total number of candidate routes across all peers.
    pub fn route_count(&self) -> usize {
        self.short.candidates + self.shards.iter().map(|s| s.candidates).sum::<usize>()
    }

    /// Inserts or replaces the route learned from `route.learned_from` for
    /// `route.prefix`, re-runs the decision process and reports the change.
    /// Touches exactly one shard.
    pub fn announce(&mut self, route: Route) -> RibChange {
        let prefix = route.prefix;
        self.home_mut(&prefix).announce(route)
    }

    /// Removes the route learned from `peer` for `prefix`, if any.
    /// Touches exactly one shard.
    pub fn withdraw(&mut self, prefix: &Ipv4Prefix, peer: PeerId) -> RibChange {
        let slot = match self.shard_index(prefix) {
            Some(i) => &mut self.shards[i],
            None => &mut self.short,
        };
        // Uniquely owned shard (the steady state of a live router whose
        // checkpoints have diverged): mutate in place, one search.
        if let Some(shard) = Arc::get_mut(slot) {
            return shard.withdraw(prefix, peer);
        }
        // The shard is shared with a fork: pay the copy-on-write clone
        // only when the withdrawal will actually change something.
        let held = slot
            .table
            .get(prefix)
            .is_some_and(|e| e.candidates.get(peer).is_some());
        if !held {
            return RibChange::Unchanged;
        }
        Arc::make_mut(slot).withdraw(prefix, peer)
    }

    /// Loads a batch of routes, fanned out across `workers` threads
    /// (`0` uses the machine's available parallelism) with each worker
    /// announcing into a disjoint set of shards — no locks, no contention.
    /// Returns the number of routes applied.
    ///
    /// Equivalent to announcing the routes in order (asserted by test):
    /// routes for the same prefix keep their relative order because they
    /// share a shard bucket.
    pub fn load_parallel(&mut self, routes: Vec<Route>, workers: usize) -> usize {
        let total = routes.len();
        let mut buckets: Vec<Vec<Route>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut short_routes = Vec::new();
        for route in routes {
            match self.shard_index(&route.prefix) {
                Some(i) => buckets[i].push(route),
                None => short_routes.push(route),
            }
        }
        // Short prefixes are rare in real tables; load them inline.
        if !short_routes.is_empty() {
            let short = Arc::make_mut(&mut self.short);
            for route in short_routes {
                short.announce(route);
            }
        }
        let workers = match workers {
            0 => available_cores(),
            n => n,
        };
        let mut jobs: Vec<(&mut RibShard, Vec<Route>)> = self
            .shards
            .iter_mut()
            .zip(buckets)
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(shard, bucket)| (Arc::make_mut(shard), bucket))
            .collect();
        if jobs.is_empty() {
            return total;
        }
        if workers <= 1 || jobs.len() == 1 {
            for (shard, bucket) in jobs {
                for route in bucket {
                    shard.announce(route);
                }
            }
            return total;
        }
        // Balance by route volume, not shard count: real tables skew
        // heavily across the top address bits, so contiguous chunking
        // could hand one worker almost everything. Greedy
        // longest-processing-time assignment: largest buckets first, each
        // to the currently lightest worker.
        let worker_count = workers.min(jobs.len());
        jobs.sort_by_key(|(_, bucket)| std::cmp::Reverse(bucket.len()));
        // Per worker: (routes assigned, shard jobs to run).
        type WorkerGroup<'a> = (usize, Vec<(&'a mut RibShard, Vec<Route>)>);
        let mut groups: Vec<WorkerGroup<'_>> = (0..worker_count).map(|_| (0, Vec::new())).collect();
        for job in jobs {
            let lightest = groups
                .iter_mut()
                .min_by_key(|(load, _)| *load)
                .expect("worker_count >= 1");
            lightest.0 += job.1.len();
            lightest.1.push(job);
        }
        std::thread::scope(|scope| {
            for (_, group) in groups {
                scope.spawn(move || {
                    for (shard, bucket) in group {
                        for route in bucket {
                            shard.announce(route);
                        }
                    }
                });
            }
        });
        total
    }

    /// Like [`Rib::load_parallel`], but runs `filter` over every route *on
    /// the worker threads* before announcing it; routes mapped to `None`
    /// are dropped. Returns the number of routes accepted.
    ///
    /// This is the filtered table-dump fast path: policy evaluation — the
    /// expensive per-route step — is fanned out together with the map
    /// inserts instead of serializing in front of them. Equivalent to
    /// filtering the batch in order and announcing the survivors (asserted
    /// by test): the filter only sees one route at a time and routes for
    /// the same prefix keep their relative order within a shard bucket.
    /// Each bucket is filtered before its shard is touched, so a shard a
    /// fork holds is copied only when a route of its bucket survives.
    pub fn load_parallel_filtered<F>(
        &mut self,
        routes: Vec<Route>,
        workers: usize,
        filter: F,
    ) -> usize
    where
        F: Fn(Route) -> Option<Route> + Sync,
    {
        let mut buckets: Vec<Vec<Route>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut short_routes = Vec::new();
        for route in routes {
            // The filter never rewrites the prefix (import policy only
            // touches attributes), so bucketing before filtering is safe.
            match self.shard_index(&route.prefix) {
                Some(i) => buckets[i].push(route),
                None => short_routes.push(route),
            }
        }
        let accepted = load_filtered_bucket(&mut self.short, short_routes, &filter);
        let workers = match workers {
            0 => available_cores(),
            n => n,
        };
        // The shards stay behind their `Arc`s until a bucket's filter has
        // run: a shard a fork holds is copied only if a route survives.
        let mut jobs: Vec<(&mut Arc<RibShard>, Vec<Route>)> = self
            .shards
            .iter_mut()
            .zip(buckets)
            .filter(|(_, bucket)| !bucket.is_empty())
            .collect();
        if jobs.is_empty() {
            return accepted;
        }
        if workers <= 1 || jobs.len() == 1 {
            return accepted
                + jobs
                    .into_iter()
                    .map(|(shard, bucket)| load_filtered_bucket(shard, bucket, &filter))
                    .sum::<usize>();
        }
        // Same greedy longest-processing-time balancing as the unfiltered
        // path; the filter cost is proportional to bucket volume, so route
        // counts remain the right load measure.
        let worker_count = workers.min(jobs.len());
        jobs.sort_by_key(|(_, bucket)| std::cmp::Reverse(bucket.len()));
        type WorkerGroup<'a> = (usize, Vec<(&'a mut Arc<RibShard>, Vec<Route>)>);
        let mut groups: Vec<WorkerGroup<'_>> = (0..worker_count).map(|_| (0, Vec::new())).collect();
        for job in jobs {
            let lightest = groups
                .iter_mut()
                .min_by_key(|(load, _)| *load)
                .expect("worker_count >= 1");
            lightest.0 += job.1.len();
            lightest.1.push(job);
        }
        let filter = &filter;
        accepted
            + std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|(_, group)| {
                        scope.spawn(move || {
                            group
                                .into_iter()
                                .map(|(shard, bucket)| load_filtered_bucket(shard, bucket, filter))
                                .sum::<usize>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rib load worker panicked"))
                    .sum::<usize>()
            })
    }

    /// Copy-on-write accounting against another fork of the same table:
    /// `(shared, total)` shard units (including the short map) still
    /// physically shared between the two. Tables with different shard
    /// layouts share nothing.
    pub fn cow_shard_sharing(&self, other: &Rib) -> (usize, usize) {
        let total = self.shards.len() + 1;
        if self.shards.len() != other.shards.len() {
            return (0, total);
        }
        let mut shared = usize::from(Arc::ptr_eq(&self.short, &other.short));
        shared += self
            .shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, total)
    }

    /// The write generation of every copy-on-write unit, shards first and
    /// the short map last (`shard_count() + 1` entries, the `total` of
    /// [`Rib::cow_shard_sharing`]).
    ///
    /// A unit's generation moves with every write that would have copied
    /// it had a fork been holding it: each announce, and each withdrawal
    /// that removes a candidate. Comparing two readings therefore counts
    /// the shards a fork held between them would still share, without
    /// holding one. That includes a filtered bulk load: it filters a
    /// bucket before touching its shard, so a bucket the filter rejects
    /// entirely neither copies a held shard nor moves its generation.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.cow_units().map(|shard| shard.generation).collect()
    }

    /// How many copy-on-write units (shards and the short map) some
    /// clone of this table currently shares, i.e. how many the next write
    /// to each would have to copy. Zero while no fork is alive.
    pub fn shards_shared_with_a_fork(&self) -> usize {
        self.cow_units()
            .filter(|shard| Arc::strong_count(shard) > 1)
            .count()
    }

    /// Every copy-on-write unit: the shards, then the short map.
    fn cow_units(&self) -> impl Iterator<Item = &Arc<RibShard>> {
        self.shards.iter().chain(std::iter::once(&self.short))
    }

    /// The best (Loc-RIB) route for a prefix, if any.
    pub fn best_route(&self, prefix: &Ipv4Prefix) -> Option<&Route> {
        self.home(prefix).table.get(prefix)?.best_route()
    }

    /// All candidate routes for a prefix, in peer order.
    ///
    /// Returns a lazy iterator (empty for unknown prefixes) — the decision
    /// process and checkpoint serializer walk candidate sets on every
    /// operation, so no per-call `Vec` is built.
    pub fn candidates(&self, prefix: &Ipv4Prefix) -> impl Iterator<Item = &Route> {
        self.home(prefix)
            .table
            .get(prefix)
            .into_iter()
            .flat_map(|entry| entry.candidates.iter())
    }

    /// The best route whose prefix covers the given prefix (most specific).
    /// This is the route an exploratory announcement for `prefix` would
    /// compete with, used by the origin-hijack checker.
    pub fn best_covering_route(&self, prefix: &Ipv4Prefix) -> Option<&Route> {
        // A covering prefix at least `shard_bits` long shares the top bits
        // with `prefix`, so it lives in the same shard; shorter covers live
        // in the short map. The shard hit is always the more specific.
        let entry = match self.shard_index(prefix) {
            Some(i) => self.shards[i]
                .table
                .longest_covering(prefix)
                .or_else(|| self.short.table.longest_covering(prefix)),
            None => self.short.table.longest_covering(prefix),
        };
        entry?.1.best_route()
    }

    /// Longest-prefix-match forwarding lookup for an IP address.
    pub fn lookup_ip(&self, ip: u32) -> Option<&Route> {
        let shard_hit = if self.shard_bits == 0 {
            self.shards[0].table.longest_match_ip(ip)
        } else {
            let i = (ip >> (32 - self.shard_bits as u32)) as usize;
            self.shards[i]
                .table
                .longest_match_ip(ip)
                .or_else(|| self.short.table.longest_match_ip(ip))
        };
        shard_hit?.1.best_route()
    }

    /// Iterates over every `(prefix, entry)` pair across all shards in the
    /// canonical table order: shards are disjoint, already-sorted runs, so
    /// this is a two-way merge of the short map against the shard chain.
    fn entries(&self) -> ShardedEntries<'_> {
        ShardedEntries {
            short: self.short.table.iter().peekable(),
            shards: self.shards.iter(),
            current: None,
        }
    }

    /// Iterates over all `(prefix, best route)` pairs (the Loc-RIB view),
    /// lazily and in canonical order — identical for every shard count.
    pub fn loc_rib(&self) -> impl Iterator<Item = (Ipv4Prefix, &Route)> {
        self.entries()
            .filter_map(|(p, entry)| entry.best_route().map(|r| (p, r)))
    }

    /// Rough memory footprint estimate in bytes, used by the checkpoint
    /// layer's page accounting.
    pub fn approx_size_bytes(&self) -> usize {
        // Each candidate route carries a prefix, attributes and an AS path;
        // 160 bytes is a conservative per-route estimate, plus trie nodes.
        self.route_count() * 160 + self.prefix_count() * 64
    }
}

/// Lazy merge of all shard maps (plus the short map) in canonical
/// prefix order, returned by [`Rib::loc_rib`]'s implementation.
struct ShardedEntries<'a> {
    short: Peekable<MapIter<'a, PrefixEntry>>,
    shards: std::slice::Iter<'a, Arc<RibShard>>,
    current: Option<Peekable<MapIter<'a, PrefixEntry>>>,
}

impl<'a> Iterator for ShardedEntries<'a> {
    type Item = (Ipv4Prefix, &'a PrefixEntry);

    fn next(&mut self) -> Option<Self::Item> {
        // Advance to the next shard with entries remaining. Shard runs are
        // disjoint and ordered by shard index, so chaining them yields one
        // sorted run to merge against the short map.
        let shard_head = loop {
            match self.current.as_mut() {
                Some(iter) => match iter.peek() {
                    Some(&(prefix, _)) => break Some(prefix),
                    None => self.current = None,
                },
                None => match self.shards.next() {
                    Some(shard) => self.current = Some(shard.table.iter().peekable()),
                    None => break None,
                },
            }
        };
        match (self.short.peek().map(|&(p, _)| p), shard_head) {
            (None, None) => None,
            (Some(_), None) => self.short.next(),
            (None, Some(_)) => self.current.as_mut().expect("head peeked").next(),
            (Some(s), Some(h)) => {
                // Never equal: short entries are strictly shorter than the
                // shard key, shard entries at least as long.
                if canonical_cmp(s, h) == Ordering::Less {
                    self.short.next()
                } else {
                    self.current.as_mut().expect("head peeked").next()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::AsPath;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().expect("valid prefix")
    }

    fn route(prefix: &str, peer: u32, path: &[u32]) -> Route {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = Ipv4Addr::new(10, 0, 0, peer as u8);
        Route::new(p(prefix), attrs, PeerId(peer), peer)
    }

    #[test]
    fn announce_installs_best_route() {
        let mut rib = Rib::new();
        let change = rib.announce(route("203.0.113.0/24", 1, &[100, 200]));
        assert!(matches!(change, RibChange::Updated(_)));
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.route_count(), 1);
        assert_eq!(
            rib.best_route(&p("203.0.113.0/24")).map(|r| r.learned_from),
            Some(PeerId(1))
        );
    }

    #[test]
    fn better_route_replaces_best() {
        let mut rib = Rib::new();
        rib.announce(route("203.0.113.0/24", 1, &[100, 200, 300]));
        let change = rib.announce(route("203.0.113.0/24", 2, &[400]));
        match change {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(2)),
            other => panic!("expected update, got {other:?}"),
        }
        assert_eq!(rib.route_count(), 2);
        // A worse route from peer 3 leaves the best unchanged.
        let change = rib.announce(route("203.0.113.0/24", 3, &[1, 2, 3, 4]));
        assert_eq!(change, RibChange::Unchanged);
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut rib = Rib::new();
        rib.announce(route("203.0.113.0/24", 1, &[100, 200, 300]));
        rib.announce(route("203.0.113.0/24", 2, &[400]));
        let change = rib.withdraw(&p("203.0.113.0/24"), PeerId(2));
        match change {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(1)),
            other => panic!("expected fallback, got {other:?}"),
        }
        let change = rib.withdraw(&p("203.0.113.0/24"), PeerId(1));
        assert_eq!(change, RibChange::Removed(p("203.0.113.0/24")));
        assert_eq!(rib.prefix_count(), 0);
        assert_eq!(rib.route_count(), 0);
    }

    #[test]
    fn withdraw_of_unknown_route_is_noop() {
        let mut rib = Rib::new();
        assert_eq!(
            rib.withdraw(&p("10.0.0.0/8"), PeerId(1)),
            RibChange::Unchanged
        );
        rib.announce(route("10.0.0.0/8", 1, &[100]));
        assert_eq!(
            rib.withdraw(&p("10.0.0.0/8"), PeerId(9)),
            RibChange::Unchanged
        );
    }

    #[test]
    fn same_route_twice_is_unchanged_but_replaces() {
        let mut rib = Rib::new();
        let r = route("10.0.0.0/8", 1, &[100]);
        rib.announce(r.clone());
        assert_eq!(rib.announce(r), RibChange::Unchanged);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn covering_route_lookup_for_hijack_check() {
        // The YouTube scenario: the /22 is installed; a bogus /24 is more
        // specific, and the checker must find the /22 it would override.
        let mut rib = Rib::new();
        rib.announce(route("208.65.152.0/22", 1, &[3356, 36561]));
        let covering = rib
            .best_covering_route(&p("208.65.153.0/24"))
            .expect("covered");
        assert_eq!(covering.prefix, p("208.65.152.0/22"));
        assert_eq!(covering.origin_as().map(|a| a.value()), Some(36561));
        assert!(rib.best_covering_route(&p("1.2.3.0/24")).is_none());
    }

    #[test]
    fn forwarding_lookup_uses_longest_match() {
        let mut rib = Rib::new();
        rib.announce(route("0.0.0.0/0", 1, &[100]));
        rib.announce(route("10.0.0.0/8", 2, &[200]));
        let r = rib
            .lookup_ip(u32::from_be_bytes([10, 1, 1, 1]))
            .expect("route");
        assert_eq!(r.learned_from, PeerId(2));
        let r = rib
            .lookup_ip(u32::from_be_bytes([8, 8, 8, 8]))
            .expect("route");
        assert_eq!(r.learned_from, PeerId(1));
    }

    #[test]
    fn loc_rib_lists_only_best_routes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[300]));
        rib.announce(route("192.168.0.0/16", 1, &[100]));
        assert_eq!(rib.loc_rib().count(), 2);
        let (_, ten) = rib
            .loc_rib()
            .find(|(q, _)| *q == p("10.0.0.0/8"))
            .expect("present");
        assert_eq!(ten.learned_from, PeerId(2));
        assert!(rib.approx_size_bytes() > 0);
    }

    #[test]
    fn candidates_iterates_per_peer_routes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[300]));
        let peers: Vec<PeerId> = rib
            .candidates(&p("10.0.0.0/8"))
            .map(|r| r.learned_from)
            .collect();
        assert_eq!(peers, vec![PeerId(1), PeerId(2)]);
        assert_eq!(rib.candidates(&p("1.2.3.0/24")).count(), 0);
    }

    #[test]
    fn candidates_stay_in_peer_order_whatever_the_announce_order() {
        let prefix = p("10.0.0.0/8");
        let mut rib = Rib::new();
        // Peer 2 has the shortest path, then 1, then 3.
        rib.announce(route("10.0.0.0/8", 3, &[100, 200, 300]));
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        rib.announce(route("10.0.0.0/8", 2, &[100]));
        let peers =
            |rib: &Rib| -> Vec<u32> { rib.candidates(&prefix).map(|r| r.learned_from.0).collect() };
        assert_eq!(peers(&rib), [1, 2, 3]);
        assert_eq!(rib.route_count(), 3);
        assert_eq!(
            rib.best_route(&prefix).map(|r| r.learned_from),
            Some(PeerId(2))
        );
        // A re-announcement replaces in place.
        rib.announce(route("10.0.0.0/8", 3, &[100, 200, 300, 400]));
        assert_eq!(peers(&rib), [1, 2, 3]);
        assert_eq!(rib.route_count(), 3);

        // Withdrawing the best reselects among the rest, still in order.
        match rib.withdraw(&prefix, PeerId(2)) {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(1)),
            other => panic!("expected fallback to peer 1, got {other:?}"),
        }
        assert_eq!(peers(&rib), [1, 3]);
        match rib.withdraw(&prefix, PeerId(1)) {
            RibChange::Updated(r) => assert_eq!(r.learned_from, PeerId(3)),
            other => panic!("expected fallback to peer 3, got {other:?}"),
        }
        assert_eq!(rib.withdraw(&prefix, PeerId(3)), RibChange::Removed(prefix));
        assert_eq!((rib.prefix_count(), rib.route_count()), (0, 0));
    }

    #[test]
    fn prefix_entry_stays_small_enough_to_sit_in_every_trie_node() {
        assert!(std::mem::size_of::<PrefixEntry>() <= 32);
    }

    #[test]
    fn generations_move_with_effective_writes_only() {
        let mut rib = Rib::with_shard_count(4);
        let start = rib.shard_generations();
        assert_eq!(start.len(), rib.shard_count() + 1);

        // 10/8 lives in shard 0, 0/0 in the short map (last entry).
        rib.announce(route("10.0.0.0/8", 1, &[100]));
        let one = rib.shard_generations();
        assert_ne!(one[0], start[0]);
        assert_eq!(one[1..], start[1..]);
        rib.announce(route("0.0.0.0/0", 1, &[100]));
        let two = rib.shard_generations();
        assert_ne!(two[4], one[4]);
        assert_eq!(two[..4], one[..4]);
        // An identical re-announcement still writes.
        rib.announce(route("10.0.0.0/8", 1, &[100]));
        assert_ne!(rib.shard_generations()[0], two[0]);

        // No-op withdrawals move nothing, through an owned shard...
        let before = rib.shard_generations();
        rib.withdraw(&p("10.0.0.0/8"), PeerId(9));
        rib.withdraw(&p("11.0.0.0/8"), PeerId(1));
        assert_eq!(rib.shard_generations(), before);
        // ...and through one a fork holds, which they must not copy either.
        assert_eq!(rib.shards_shared_with_a_fork(), 0);
        let fork = rib.clone();
        assert_eq!(rib.shards_shared_with_a_fork(), 5);
        rib.withdraw(&p("10.0.0.0/8"), PeerId(9));
        rib.withdraw(&p("11.0.0.0/8"), PeerId(1));
        assert_eq!(rib.shard_generations(), before);
        assert_eq!(rib.shards_shared_with_a_fork(), 5);

        // An effective withdrawal moves its shard, and the generations
        // agree with what the held fork sees.
        rib.withdraw(&p("10.0.0.0/8"), PeerId(1));
        let after = rib.shard_generations();
        assert_ne!(after[0], before[0]);
        assert_eq!(after[1..], before[1..]);
        let unchanged = after.iter().zip(&before).filter(|(a, b)| a == b).count();
        assert_eq!(fork.cow_shard_sharing(&rib), (unchanged, 5));
        assert_eq!(rib.shards_shared_with_a_fork(), 4);
        drop(fork);
        assert_eq!(rib.shards_shared_with_a_fork(), 0);
    }

    #[test]
    fn reannouncement_from_best_peer_reports_attribute_changes() {
        let mut rib = Rib::new();
        rib.announce(route("10.0.0.0/8", 1, &[100, 200]));
        // Identical re-announcement: unchanged.
        assert_eq!(
            rib.announce(route("10.0.0.0/8", 1, &[100, 200])),
            RibChange::Unchanged
        );
        // Same (best) peer, different attributes: the Loc-RIB view changed
        // even though the winning peer did not.
        match rib.announce(route("10.0.0.0/8", 1, &[100, 200, 300])) {
            RibChange::Updated(r) => assert_eq!(r.attrs.as_path.length(), 3),
            other => panic!("expected update, got {other:?}"),
        }
    }

    /// A route mix that exercises every shard-count corner: short prefixes
    /// (/0../5), prefixes exactly at common shard boundaries, deep /32s,
    /// and adjacent address space in different shards.
    fn mixed_routes() -> Vec<Route> {
        vec![
            route("0.0.0.0/0", 1, &[100]),
            route("128.0.0.0/1", 2, &[200]),
            route("64.0.0.0/3", 1, &[100, 200]),
            route("10.0.0.0/8", 1, &[100]),
            route("10.0.0.0/8", 2, &[300, 400]),
            route("10.1.0.0/16", 3, &[500]),
            route("192.168.0.0/16", 1, &[100]),
            route("192.168.1.1/32", 2, &[200]),
            route("208.65.152.0/22", 1, &[3356, 36561]),
            route("208.65.153.0/24", 2, &[17557]),
            route("223.255.255.0/24", 3, &[999]),
        ]
    }

    #[test]
    fn every_shard_count_is_observationally_identical() {
        let reference = {
            let mut rib = Rib::with_shard_count(1);
            for r in mixed_routes() {
                rib.announce(r);
            }
            rib
        };
        let ref_loc: Vec<(Ipv4Prefix, Route)> =
            reference.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        for count in [2usize, 4, 16, 64, 256] {
            let mut rib = Rib::with_shard_count(count);
            assert_eq!(rib.shard_count(), count);
            for r in mixed_routes() {
                rib.announce(r);
            }
            assert_eq!(rib.prefix_count(), reference.prefix_count(), "{count}");
            assert_eq!(rib.route_count(), reference.route_count(), "{count}");
            // The merged iteration reproduces the single-map order exactly.
            let loc: Vec<(Ipv4Prefix, Route)> =
                rib.loc_rib().map(|(p, r)| (p, r.clone())).collect();
            assert_eq!(loc, ref_loc, "loc_rib order diverged at {count} shards");
            // Point queries agree, including covers resolved from the
            // short map.
            for ip in [0x0a010203u32, 0xc0a80101, 0xd0419901, 0x55555555] {
                assert_eq!(
                    rib.lookup_ip(ip).map(|r| r.prefix),
                    reference.lookup_ip(ip).map(|r| r.prefix),
                    "lookup_ip({ip:#x}) at {count} shards"
                );
            }
            assert_eq!(
                rib.best_covering_route(&p("208.65.153.128/25"))
                    .map(|r| r.prefix),
                Some(p("208.65.153.0/24"))
            );
            assert_eq!(
                rib.best_covering_route(&p("55.0.0.0/24")).map(|r| r.prefix),
                Some(p("0.0.0.0/0")),
                "short-map cover at {count} shards"
            );
        }
    }

    #[test]
    fn shard_counts_round_up_and_clamp() {
        assert_eq!(Rib::with_shard_count(0).shard_count(), 1);
        assert_eq!(Rib::with_shard_count(3).shard_count(), 4);
        assert_eq!(Rib::with_shard_count(1024).shard_count(), 256);
        let default = Rib::new().shard_count();
        assert!(default.is_power_of_two() && default <= 64);
    }

    #[test]
    fn clone_is_a_cow_fork_and_a_rebuilt_table_shares_nothing() {
        let mut live = Rib::with_shard_count(8);
        for r in mixed_routes() {
            live.announce(r);
        }
        let fork = live.clone();
        let (shared, total) = fork.cow_shard_sharing(&live);
        assert_eq!(total, 9, "8 shards plus the short map");
        assert_eq!(shared, total, "an untouched fork shares every unit");

        // Writing one prefix copies exactly the affected shard.
        live.announce(route("203.0.113.0/24", 1, &[100]));
        let (shared_after, _) = fork.cow_shard_sharing(&live);
        assert_eq!(shared_after, total - 1, "one shard copied on write");
        // The fork is unaffected by the live write.
        assert!(fork.best_route(&p("203.0.113.0/24")).is_none());
        assert!(live.best_route(&p("203.0.113.0/24")).is_some());

        // A no-op withdrawal must not break sharing.
        let mut fork2 = live.clone();
        assert_eq!(
            fork2.withdraw(&p("1.2.3.0/24"), PeerId(9)),
            RibChange::Unchanged
        );
        assert_eq!(
            fork2.withdraw(&p("10.0.0.0/8"), PeerId(9)),
            RibChange::Unchanged,
            "unknown peer on a known prefix is also a no-op"
        );
        let (shared2, total2) = fork2.cow_shard_sharing(&live);
        assert_eq!(shared2, total2, "no-op withdrawals copy nothing");

        // Sharing is physical, not logical: the same routes announced into
        // a table of the same layout share nothing with it.
        let mut rebuilt = Rib::with_shard_count(8);
        for r in mixed_routes() {
            rebuilt.announce(r);
        }
        rebuilt.announce(route("203.0.113.0/24", 1, &[100]));
        assert_eq!(rebuilt.cow_shard_sharing(&live), (0, total));
        let a: Vec<_> = rebuilt.loc_rib().map(|(p, _)| p).collect();
        let b: Vec<_> = live.loc_rib().map(|(p, _)| p).collect();
        assert_eq!(a, b);

        // Different layouts never report sharing.
        let other = Rib::with_shard_count(2);
        assert_eq!(live.cow_shard_sharing(&other).0, 0);
    }

    #[test]
    fn first_write_after_a_fork_copies_one_chunk_of_one_shard() {
        let mut live = Rib::with_shard_count(2);
        for i in 0..10_000u32 {
            // 5,000 prefixes under 10/8 (shard 0), 5,000 under 200/8 (shard 1).
            let high = if i % 2 == 0 { 10 } else { 200 };
            let prefix = Ipv4Prefix::must((high << 24) | (i << 8), 24);
            live.announce(Route::new(prefix, RouteAttrs::default(), PeerId(1), 1));
        }
        let fork = live.clone();
        let before: Vec<(Ipv4Prefix, Route)> =
            fork.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        assert_eq!(before.len(), 10_000);
        let chunks_shared = |live: &Rib, shard: usize| {
            live.shards[shard]
                .table
                .chunks_shared_with(&fork.shards[shard].table)
        };

        // A second candidate for a prefix the table holds.
        live.announce(route("10.0.2.0/24", 2, &[100]));
        assert_eq!(fork.cow_shard_sharing(&live), (2, 3), "shard 0 copied");
        let (shared, total) = chunks_shared(&live, 0);
        assert!(total > 30, "5,000 prefixes fill {total} chunks");
        assert_eq!(shared, total - 1, "all chunks but the written one shared");
        let after: Vec<(Ipv4Prefix, Route)> = fork.loc_rib().map(|(p, r)| (p, r.clone())).collect();
        assert_eq!(after, before, "the fork reads the table it was taken from");
        assert_eq!(live.route_count(), 10_001);

        // Withdrawing what shard 1, still shared, does not hold: nothing
        // is copied, neither the shard nor a chunk of it.
        assert_eq!(
            live.withdraw(&p("200.0.0.128/25"), PeerId(1)),
            RibChange::Unchanged
        );
        assert_eq!(
            live.withdraw(&p("200.0.1.0/24"), PeerId(9)),
            RibChange::Unchanged
        );
        assert_eq!(fork.cow_shard_sharing(&live), (2, 3));
        let (shared, total) = chunks_shared(&live, 1);
        assert_eq!(shared, total);
        assert_eq!(chunks_shared(&live, 0).0, chunks_shared(&live, 0).1 - 1);
    }

    #[test]
    fn load_parallel_equals_sequential_announce() {
        let routes: Vec<Route> = (0..2_000u32)
            .map(|i| {
                let prefix = Ipv4Prefix::new(((i % 200 + 1) << 24) | (i << 8), 24).expect("valid");
                Route::new(
                    prefix,
                    {
                        let mut attrs = RouteAttrs::default();
                        attrs.as_path = AsPath::from_sequence([1299, 100_000 + i]);
                        attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
                        attrs
                    },
                    PeerId(2),
                    2,
                )
            })
            .chain(std::iter::once(route("0.0.0.0/0", 1, &[100])))
            .collect();

        let mut sequential = Rib::with_shard_count(16);
        for r in routes.clone() {
            sequential.announce(r);
        }
        for workers in [0usize, 1, 4] {
            let mut parallel = Rib::with_shard_count(16);
            assert_eq!(
                parallel.load_parallel(routes.clone(), workers),
                routes.len()
            );
            assert_eq!(parallel.prefix_count(), sequential.prefix_count());
            assert_eq!(parallel.route_count(), sequential.route_count());
            let a: Vec<(Ipv4Prefix, Route)> =
                parallel.loc_rib().map(|(p, r)| (p, r.clone())).collect();
            let b: Vec<(Ipv4Prefix, Route)> =
                sequential.loc_rib().map(|(p, r)| (p, r.clone())).collect();
            assert_eq!(a, b, "workers={workers}");
        }
        // An empty load is a no-op.
        let mut empty = Rib::new();
        assert_eq!(empty.load_parallel(Vec::new(), 0), 0);
        assert_eq!(empty.prefix_count(), 0);
    }

    #[test]
    fn load_parallel_filtered_equals_sequential_filter_then_announce() {
        // Reject every odd source index and rewrite MED on the survivors,
        // so the test catches both dropped routes and lost modifications.
        let filter = |route: Route| -> Option<Route> {
            let last = route.attrs.as_path.flatten().last()?.value();
            if last % 2 == 1 {
                return None;
            }
            let mut route = route;
            route.attrs.med = Some(last);
            Some(route)
        };
        let routes: Vec<Route> = (0..2_000u32)
            .map(|i| {
                let prefix = Ipv4Prefix::new(((i % 200 + 1) << 24) | (i << 8), 24).expect("valid");
                Route::new(
                    prefix,
                    {
                        let mut attrs = RouteAttrs::default();
                        attrs.as_path = AsPath::from_sequence([1299, 100_000 + i]);
                        attrs.next_hop = Ipv4Addr::new(10, 0, 2, 1);
                        attrs
                    },
                    PeerId(2),
                    2,
                )
            })
            .chain(std::iter::once(route("0.0.0.0/0", 1, &[100])))
            .collect();

        let mut sequential = Rib::with_shard_count(16);
        let mut kept = 0usize;
        for r in routes.clone() {
            if let Some(r) = filter(r) {
                sequential.announce(r);
                kept += 1;
            }
        }
        assert!(kept > 0 && kept < routes.len(), "filter must bite");
        for workers in [0usize, 1, 4] {
            let mut parallel = Rib::with_shard_count(16);
            assert_eq!(
                parallel.load_parallel_filtered(routes.clone(), workers, filter),
                kept,
                "workers={workers}"
            );
            let a: Vec<(Ipv4Prefix, Route)> =
                parallel.loc_rib().map(|(p, r)| (p, r.clone())).collect();
            let b: Vec<(Ipv4Prefix, Route)> =
                sequential.loc_rib().map(|(p, r)| (p, r.clone())).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn a_filtered_load_leaves_a_held_shard_alone_when_its_bucket_is_rejected() {
        // Of 4 shards, shard 0 holds 0/2 and shard 3 holds 192/2; the
        // short map holds the /0 and /1 prefixes.
        let batch = || {
            vec![
                route("10.0.0.0/8", 1, &[100]),
                route("10.1.0.0/16", 1, &[100]),
                route("200.0.0.0/8", 1, &[200]),
                route("0.0.0.0/0", 1, &[100]),
            ]
        };
        // Keep only routes through AS 200: shard 0's bucket and the short
        // map's are rejected whole.
        let through_200 = |route: Route| {
            let hops = route.attrs.as_path.flatten();
            hops.iter().any(|asn| asn.value() == 200).then_some(route)
        };
        for workers in [1usize, 4] {
            let mut live = Rib::with_shard_count(4);
            live.announce(route("10.2.0.0/16", 2, &[300]));
            live.announce(route("200.1.0.0/16", 2, &[300]));
            live.announce(route("0.0.0.0/0", 2, &[300]));
            let fork = live.clone();
            let before = live.shard_generations();

            assert_eq!(
                live.load_parallel_filtered(batch(), workers, through_200),
                1
            );
            let after = live.shard_generations();
            let (shard0, shard3, short) = (0, 3, live.shard_count());
            assert_eq!(after[shard0], before[shard0], "workers={workers}");
            assert_eq!(after[short], before[short], "workers={workers}");
            assert_ne!(after[shard3], before[shard3], "workers={workers}");
            assert!(Arc::ptr_eq(&live.shards[shard0], &fork.shards[shard0]));
            assert!(Arc::ptr_eq(&live.short, &fork.short));
            // Only the shard a route survived into was copied.
            assert_eq!(fork.cow_shard_sharing(&live), (4, 5), "workers={workers}");
            assert!(live.best_route(&p("200.0.0.0/8")).is_some());
            assert!(live.best_route(&p("10.0.0.0/8")).is_none());
        }
    }
}
