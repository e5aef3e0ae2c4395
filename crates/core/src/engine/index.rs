//! The engine's per-run EI state: the incremental candidate index, the flat
//! capture flags, and the window buckets, all on storage allocated once per
//! run.
//!
//! Every EI of the instance has a dense global id ([`CandidateIndex::gid`]:
//! per-CEI prefix sums over CEI sizes, so each CEI owns one contiguous id
//! range). That one id space indexes the pool's liveness bitmap *and* the
//! captured / expired-uncaptured flags, next to per-CEI captured and
//! expired counters: an arrival allocates nothing, a capture or expiry is a
//! flag write plus a counter bump, and a CEI's captured flags are a
//! subslice of the shared array (the policy's
//! [`CeiView::captured`](crate::policy::CeiView)).
//!
//! The same id space carries the static facts the run path reads per EI:
//! each EI's resource ([`CandidateIndex::resource`]), next to each CEI's
//! `required` count, both filled in the one traversal that sizes the index.
//! Insertion, removal, expiry, shedding, capture completion and keyed
//! selection read these dense tables instead of chasing
//! `instance.ceis[id].eis[idx]` through each CEI's own allocation.
//!
//! The Algorithm-1 loop needs, per chronon: the live candidates grouped by
//! resource (selection seeding, shared captures, fan-out counts), the live
//! total (candidate-set accounting), and cheap removal when captures,
//! expiries, and sheds kill entries. The index keeps:
//!
//! * per-resource entry lists in insertion order (exact capacity reserved
//!   up front, so pushes never reallocate),
//! * the liveness bitmap over global EI ids, giving O(1) removal as a
//!   tombstone,
//! * incrementally maintained live counts, global and per resource (the
//!   per-resource count doubles as the shared-probe fan-out pre-count), and
//! * a lazy per-resource sweep that compacts a list once tombstones
//!   outnumber live entries — amortized O(1) per removal.
//!
//! **Order contract.** The pool holds entries in `(start, cei, ei_idx)`
//! lexicographic order: insertion is chronological, and within a chronon
//! CEIs are visited in dense id order ([`Instance::from_parts`] asserts
//! dense in-order ids). Each per-resource list preserves exactly that order
//! restricted to its resource — `retain`-style sweeps keep relative order —
//! so shared-capture event order is fixed, and whole-pool passes (expiry,
//! shed) recover the global order from the end buckets
//! ([`window_buckets`]) or by sorting on the same key.
//!
//! **Liveness invariant.** `in_pool[gid(e)]` implies the entry was inserted
//! (its window has opened with an `Active` parent), its parent is still
//! `Active`, and the EI is neither captured nor expired — every transition
//! that falsifies one of these removes the entry in the same step. In
//! particular every in-pool entry's window is active (`start ≤ t ≤ end`):
//! the expiry pass removes uncaptured entries exactly at `end`, and
//! captures remove them earlier.
//!
//! **Flag lifetime.** A CEI's capture flags are meaningful only while it is
//! `Active`. Before its arrival they are all clear (only entries of active
//! CEIs are captured or expired), and once it resolves they are never read
//! again, so a snapshot records them for `Active` CEIs only.

use crate::model::{Cei, CeiId, Chronon, Instance, ResourceId};

/// One candidate EI in the pool: `(parent CEI, index of the EI within it)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolEntry {
    pub(crate) cei: CeiId,
    pub(crate) ei_idx: u16,
}

/// See the [module docs](self).
pub(crate) struct CandidateIndex {
    /// Live + tombstoned entries per resource, in insertion (= pool) order.
    by_resource: Vec<Vec<PoolEntry>>,
    /// Tombstones per resource list (entries whose liveness flag cleared).
    dead: Vec<u32>,
    /// Liveness flag per global EI id ([`Self::gid`]).
    in_pool: Vec<bool>,
    /// Captured flag per global EI id.
    captured: Vec<bool>,
    /// Expired-uncaptured flag per global EI id.
    expired: Vec<bool>,
    /// Captured EIs per CEI.
    n_captured: Vec<u16>,
    /// Expired-uncaptured EIs per CEI.
    n_expired: Vec<u16>,
    /// Resource per global EI id.
    resource: Vec<ResourceId>,
    /// `required` per CEI: captures needed to satisfy it.
    required: Vec<u16>,
    /// First global EI id of each CEI (prefix sums over CEI sizes), plus
    /// the total EI count as a final sentinel, so CEI `i` owns ids
    /// `ei_base[i]..ei_base[i + 1]`.
    ei_base: Vec<u32>,
    /// Total live entries.
    live: u32,
    /// Live entries per resource.
    active_now: Vec<u32>,
}

impl CandidateIndex {
    /// Builds the (empty) index for `instance`, reserving every list at its
    /// exact maximum occupancy so the run's hot path never reallocates.
    pub(crate) fn new(instance: &Instance) -> Self {
        let n_res = instance.n_resources as usize;
        let n_ceis = instance.ceis.len();
        let mut ei_base = Vec::with_capacity(n_ceis + 1);
        let mut required = Vec::with_capacity(n_ceis);
        let mut resource = Vec::with_capacity(instance.total_eis());
        let mut per_resource = vec![0usize; n_res];
        let mut total = 0u32;
        for cei in &instance.ceis {
            ei_base.push(total);
            required.push(cei.required);
            total += cei.size() as u32;
            for ei in &cei.eis {
                per_resource[ei.resource.index()] += 1;
                resource.push(ei.resource);
            }
        }
        ei_base.push(total);
        CandidateIndex {
            by_resource: per_resource
                .iter()
                .map(|&n| Vec::with_capacity(n))
                .collect(),
            dead: vec![0; n_res],
            in_pool: vec![false; total as usize],
            captured: vec![false; total as usize],
            expired: vec![false; total as usize],
            n_captured: vec![0; n_ceis],
            n_expired: vec![0; n_ceis],
            resource,
            required,
            ei_base,
            live: 0,
            active_now: vec![0; n_res],
        }
    }

    /// Dense global id of an entry (unique per `(CeiId, ei_idx)`).
    #[inline]
    pub(crate) fn gid(&self, e: PoolEntry) -> usize {
        self.ei_base[e.cei.index()] as usize + e.ei_idx as usize
    }

    /// Total EIs of the instance (the `ei_base` sentinel): the size of the
    /// global id space.
    #[inline]
    pub(crate) fn n_eis(&self) -> usize {
        self.ei_base[self.ei_base.len() - 1] as usize
    }

    /// The resource an entry's EI watches.
    #[inline]
    pub(crate) fn resource(&self, e: PoolEntry) -> ResourceId {
        self.resource[self.gid(e)]
    }

    /// Every entry of a CEI, live or not, in EI order.
    #[inline]
    pub(crate) fn entries_of(&self, id: CeiId) -> impl Iterator<Item = PoolEntry> {
        (0..self.ids(id).len() as u16).map(move |ei_idx| PoolEntry { cei: id, ei_idx })
    }

    /// Captures a CEI needs to be satisfied (`cei.required`).
    #[inline]
    pub(crate) fn required(&self, id: CeiId) -> u16 {
        self.required[id.index()]
    }

    /// The global id range of a CEI's EIs.
    #[inline]
    fn ids(&self, id: CeiId) -> std::ops::Range<usize> {
        self.ei_base[id.index()] as usize..self.ei_base[id.index() + 1] as usize
    }

    /// `true` if the entry is currently live in the pool.
    #[inline]
    pub(crate) fn is_live(&self, e: PoolEntry) -> bool {
        self.in_pool[self.gid(e)]
    }

    /// Total live entries — the candidate-set size.
    #[inline]
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    /// Live entries on one resource — the engine's `active_eis` aggregate
    /// and the shared-probe capture fan-out.
    #[inline]
    pub(crate) fn live_on(&self, resource: usize) -> u32 {
        self.active_now[resource]
    }

    /// The per-resource live counts (tombstones excluded), for snapshotting
    /// into the policy context.
    #[inline]
    pub(crate) fn active_now(&self) -> &[u32] {
        &self.active_now
    }

    /// The entry list of one resource, tombstones included — filter with
    /// [`Self::is_live`].
    #[inline]
    pub(crate) fn entries(&self, resource: usize) -> &[PoolEntry] {
        &self.by_resource[resource]
    }

    /// Exclusive access to one resource's entry list (the shared-capture
    /// swap; pair with [`Self::mark_captured`] and [`Self::reset_cleared`]).
    #[inline]
    pub(crate) fn list_mut(&mut self, resource: usize) -> &mut Vec<PoolEntry> {
        &mut self.by_resource[resource]
    }

    /// Inserts a newly opened entry into its resource's list and returns
    /// that resource. Must be called at most once per entry per run (each
    /// EI's window opens once).
    #[inline]
    pub(crate) fn insert(&mut self, e: PoolEntry) -> usize {
        let g = self.gid(e);
        debug_assert!(!self.in_pool[g], "entry inserted twice");
        let resource = self.resource[g].index();
        self.in_pool[g] = true;
        self.live += 1;
        self.active_now[resource] += 1;
        self.by_resource[resource].push(e);
        resource
    }

    /// Removes an entry if live (capture, expiry, shed, or a parent
    /// resolution), leaving a tombstone in its list. Returns whether the
    /// entry was live.
    #[inline]
    pub(crate) fn remove(&mut self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        if !self.in_pool[g] {
            return false;
        }
        let resource = self.resource[g].index();
        self.in_pool[g] = false;
        self.live -= 1;
        self.active_now[resource] -= 1;
        self.dead[resource] += 1;
        true
    }

    /// Removes every still-live entry of a resolved CEI.
    pub(crate) fn remove_cei(&mut self, id: CeiId) {
        for e in self.entries_of(id) {
            self.remove(e);
        }
    }

    /// Clears liveness accounting for an entry whose list is held swapped
    /// out during a shared-capture pass (the caller clears the list
    /// afterwards, so no tombstone is recorded).
    #[inline]
    pub(crate) fn mark_captured(&mut self, e: PoolEntry, resource: usize) {
        let g = self.gid(e);
        debug_assert!(self.in_pool[g], "captured entry was not live");
        self.in_pool[g] = false;
        self.live -= 1;
        self.active_now[resource] -= 1;
    }

    /// Resets the tombstone count after the caller emptied a resource's
    /// list wholesale (shared capture: every live entry on the probed
    /// resource is captured, so the survivors are all tombstones).
    #[inline]
    pub(crate) fn reset_cleared(&mut self, resource: usize) {
        debug_assert!(self.by_resource[resource].is_empty());
        debug_assert_eq!(self.active_now[resource], 0);
        self.dead[resource] = 0;
    }

    /// Compacts any list whose tombstones outnumber its live entries.
    /// Called once per chronon (while no list is borrowed); each removal is
    /// swept at most once, so maintenance stays amortized O(1) per
    /// transition instead of an O(|pool|) `retain` per chronon.
    pub(crate) fn sweep(&mut self) {
        for r in 0..self.by_resource.len() {
            let len = self.by_resource[r].len();
            if self.dead[r] as usize * 2 > len {
                let in_pool = &self.in_pool;
                let ei_base = &self.ei_base;
                self.by_resource[r]
                    .retain(|e| in_pool[ei_base[e.cei.index()] as usize + e.ei_idx as usize]);
                self.dead[r] = 0;
            }
        }
    }

    /// Marks EI `e` captured. Idempotent; returns `true` if newly captured.
    ///
    /// # Panics
    /// Panics if the EI already expired uncaptured — a closed window cannot
    /// be captured.
    #[inline]
    pub(crate) fn capture(&mut self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        assert!(
            !self.expired[g],
            "EI {} of {} already expired uncaptured",
            e.ei_idx, e.cei
        );
        if self.captured[g] {
            return false;
        }
        self.captured[g] = true;
        self.n_captured[e.cei.index()] += 1;
        true
    }

    /// Marks an uncaptured EI's window closed. Idempotent; no effect on a
    /// captured EI. Returns `true` if newly expired.
    #[inline]
    pub(crate) fn mark_expired(&mut self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        if self.captured[g] || self.expired[g] {
            return false;
        }
        self.expired[g] = true;
        self.n_expired[e.cei.index()] += 1;
        true
    }

    /// `true` iff EI `e` is neither captured nor expired.
    #[inline]
    pub(crate) fn is_open(&self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        !self.captured[g] && !self.expired[g]
    }

    /// Per-EI captured flags of a CEI, parallel to `cei.eis`.
    #[inline]
    pub(crate) fn captured(&self, id: CeiId) -> &[bool] {
        &self.captured[self.ids(id)]
    }

    /// Per-EI expired-uncaptured flags of a CEI, parallel to `cei.eis`.
    #[inline]
    pub(crate) fn expired(&self, id: CeiId) -> &[bool] {
        &self.expired[self.ids(id)]
    }

    /// Number of a CEI's EIs captured so far (`Σ_{I' ∈ η} X(I', S)`).
    #[inline]
    pub(crate) fn n_captured(&self, id: CeiId) -> u16 {
        self.n_captured[id.index()]
    }

    /// Number of a CEI's EIs that can still be captured (not yet expired),
    /// counting already-captured ones — the ceiling on its final capture
    /// count.
    #[inline]
    pub(crate) fn n_possible(&self, id: CeiId) -> u16 {
        let size = self.ei_base[id.index() + 1] - self.ei_base[id.index()];
        size as u16 - self.n_expired[id.index()]
    }

    /// `true` iff fewer than `required` of the CEI's EIs can ever be
    /// captured — the CEI is doomed.
    #[inline]
    pub(crate) fn is_doomed(&self, id: CeiId) -> bool {
        self.n_possible(id) < self.required(id)
    }

    /// Restores a CEI's capture flags from a snapshot's per-EI vectors,
    /// recomputing its counters.
    ///
    /// # Panics
    /// Panics if the two flag vectors disagree in length or any EI claims
    /// to be both captured and expired.
    pub(crate) fn restore_flags(&mut self, id: CeiId, captured: &[bool], expired: &[bool]) {
        assert_eq!(captured.len(), expired.len(), "flag vectors must align");
        assert!(
            captured.iter().zip(expired).all(|(&c, &e)| !(c && e)),
            "an EI cannot be both captured and expired"
        );
        let ids = self.ids(id);
        self.captured[ids.clone()].copy_from_slice(captured);
        self.expired[ids].copy_from_slice(expired);
        self.n_captured[id.index()] = captured.iter().filter(|&&c| c).count() as u16;
        self.n_expired[id.index()] = expired.iter().filter(|&&e| e).count() as u16;
    }
}

/// Pool entries grouped by chronon in one flat array (compressed sparse
/// rows): bucket `t` is `entries[offsets[t]..offsets[t + 1]]`.
pub(crate) struct Buckets {
    offsets: Vec<u32>,
    entries: Vec<PoolEntry>,
}

impl Buckets {
    /// The entries of bucket `t`.
    #[inline]
    pub(crate) fn at(&self, t: Chronon) -> &[PoolEntry] {
        let t = t as usize;
        &self.entries[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// Turns bucket sizes stored one slot late (`counts[t + 1]` is the size of
/// bucket `t`, `counts[0]` is 0) into CSR offsets (`counts[t]` is where
/// bucket `t` starts), in place.
fn prefix_sums(counts: &mut [u32]) {
    for t in 1..counts.len() {
        counts[t] += counts[t - 1];
    }
}

/// The `(starts, ends)` window buckets of a run over `horizon` chronons:
/// every EI in the bucket of its window's start, and every EI whose window
/// closes inside the epoch (`end < horizon`) in the bucket of its end —
/// a window ending at or past the horizon never expires inside the epoch.
///
/// `starts[t]` is in pool order `(start, cei, ei_idx)` and `ends[t]` in
/// `(end, start, cei, ei_idx)` order. Both are counting sorts: one pass
/// counts the buckets, one pass over `ceis` (cei-major, so stable) fills
/// `starts` with each entry's end carried alongside, and a pass over that
/// fills `ends` — stable again, so each end bucket inherits pool order.
/// Nothing is sorted and nothing is looked up per entry.
///
/// # Panics
/// Panics if a window starts at or past `horizon`.
pub(crate) fn window_buckets(ceis: &[Cei], horizon: Chronon) -> (Buckets, Buckets) {
    let h = horizon as usize;
    let mut start_offsets = vec![0u32; h + 1];
    let mut end_offsets = vec![0u32; h + 1];
    for ei in ceis.iter().flat_map(|c| &c.eis) {
        start_offsets[ei.start as usize + 1] += 1;
        if (ei.end as usize) < h {
            end_offsets[ei.end as usize + 1] += 1;
        }
    }
    prefix_sums(&mut start_offsets);
    prefix_sums(&mut end_offsets);

    let placeholder = PoolEntry {
        cei: CeiId(0),
        ei_idx: 0,
    };
    let mut cursor = start_offsets.clone();
    let mut starts = vec![placeholder; start_offsets[h] as usize];
    let mut start_ends = vec![0 as Chronon; starts.len()];
    for cei in ceis {
        for (idx, ei) in cei.eis.iter().enumerate() {
            let slot = &mut cursor[ei.start as usize];
            starts[*slot as usize] = PoolEntry {
                cei: cei.id,
                ei_idx: idx as u16,
            };
            start_ends[*slot as usize] = ei.end;
            *slot += 1;
        }
    }

    cursor.copy_from_slice(&end_offsets);
    let mut ends = vec![placeholder; end_offsets[h] as usize];
    for (&e, &end) in starts.iter().zip(&start_ends) {
        if (end as usize) < h {
            let slot = &mut cursor[end as usize];
            ends[*slot as usize] = e;
            *slot += 1;
        }
    }

    (
        Buckets {
            offsets: start_offsets,
            entries: starts,
        },
        Buckets {
            offsets: end_offsets,
            entries: ends,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Budget, Ei, InstanceBuilder, ProfileId, ResourceId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_resource_instance() -> Instance {
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 5)]);
        b.cei(p, &[(0, 1, 4)]);
        b.build()
    }

    /// One CEI of `size` EIs, for exercising the capture flags.
    fn one_cei(size: u32) -> CandidateIndex {
        one_cei_requiring(size, size as u16)
    }

    /// One CEI of `size` EIs on resources `0..size`, satisfied by
    /// `required` captures.
    fn one_cei_requiring(size: u32, required: u16) -> CandidateIndex {
        let mut b = InstanceBuilder::new(size, 10, Budget::Uniform(1));
        let p = b.profile();
        let eis: Vec<(u32, u32, u32)> = (0..size).map(|r| (r, 0, 5)).collect();
        b.cei_threshold(p, required, &eis);
        CandidateIndex::new(&b.build())
    }

    fn entry(cei: u32, ei_idx: u16) -> PoolEntry {
        PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        }
    }

    #[test]
    fn insert_remove_and_counts() {
        let inst = two_resource_instance();
        let mut idx = CandidateIndex::new(&inst);
        let a = entry(0, 0);
        let b = entry(1, 0);
        idx.insert(a);
        idx.insert(b);
        assert_eq!(idx.live(), 2);
        assert_eq!(idx.live_on(0), 2);
        assert!(idx.is_live(a));
        assert!(idx.remove(a));
        assert!(!idx.remove(a), "double removal is a no-op");
        assert_eq!(idx.live(), 1);
        assert_eq!(idx.live_on(0), 1);
        assert!(!idx.is_live(a));
        // The tombstone stays in the list until tombstones outnumber live
        // entries — one of two is exactly half, so no compaction yet.
        idx.sweep();
        assert_eq!(idx.entries(0).len(), 2);
        assert!(idx.remove(b));
        idx.sweep();
        assert!(idx.entries(0).is_empty());
    }

    #[test]
    fn sweep_preserves_relative_order() {
        let mut b = InstanceBuilder::new(1, 10, Budget::Uniform(1));
        let p = b.profile();
        for s in 0..6u32 {
            b.cei(p, &[(0, s, 9)]);
        }
        let inst = b.build();
        let mut idx = CandidateIndex::new(&inst);
        for id in 0..6u32 {
            idx.insert(entry(id, 0));
        }
        for id in [0u32, 2, 4, 5] {
            idx.remove(entry(id, 0));
        }
        idx.sweep();
        let ids: Vec<u32> = idx.entries(0).iter().map(|e| e.cei.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn capacity_is_exact_and_stable() {
        let inst = two_resource_instance();
        let mut idx = CandidateIndex::new(&inst);
        assert_eq!(idx.by_resource[0].capacity(), 2);
        assert_eq!(idx.by_resource[1].capacity(), 1);
        idx.insert(entry(0, 0));
        idx.insert(entry(1, 0));
        assert_eq!(idx.by_resource[0].capacity(), 2, "no reallocation");
    }

    #[test]
    fn capture_flags_are_subslices_of_one_id_space() {
        let inst = two_resource_instance();
        let mut idx = CandidateIndex::new(&inst);
        assert!(idx.capture(entry(0, 1)));
        assert!(idx.mark_expired(entry(1, 0)));
        assert_eq!(idx.captured(CeiId(0)), &[false, true]);
        assert_eq!(idx.captured(CeiId(1)), &[false]);
        assert_eq!(idx.expired(CeiId(0)), &[false, false]);
        assert_eq!(idx.expired(CeiId(1)), &[true]);
        assert!(!idx.is_open(entry(0, 1)));
        assert!(idx.is_open(entry(0, 0)));
    }

    #[test]
    fn capture_flags_track_progress() {
        let mut idx = one_cei(3);
        let id = CeiId(0);
        assert_eq!(idx.n_captured(id), 0);
        assert!(idx.capture(entry(0, 1)));
        assert!(!idx.capture(entry(0, 1))); // idempotent
        assert_eq!(idx.n_captured(id), 1);
        assert_eq!(3 - idx.n_captured(id), 2, "two EIs remain");
        idx.capture(entry(0, 0));
        idx.capture(entry(0, 2));
        assert_eq!(idx.n_captured(id), 3, "complete");
        assert_eq!(idx.captured(id), &[true, true, true]);
    }

    #[test]
    fn capture_flags_threshold_semantics() {
        let mut idx = one_cei(3);
        let id = CeiId(0);
        assert!(idx.n_captured(id) < 2);
        idx.capture(entry(0, 0));
        idx.capture(entry(0, 2));
        assert!(idx.n_captured(id) >= 2, "meets 2-of-3");
        assert!(idx.n_captured(id) < 3, "not complete");
    }

    #[test]
    fn capture_flags_expiry_and_doom() {
        let mut idx = one_cei(3);
        let id = CeiId(0);
        assert_eq!(idx.n_possible(id), 3);
        assert!(idx.mark_expired(entry(0, 0)));
        assert!(!idx.mark_expired(entry(0, 0))); // idempotent
        assert_eq!(idx.n_possible(id), 2);
        assert!(idx.is_doomed(id)); // AND can never complete
        idx.capture(entry(0, 1));
        assert!(!idx.mark_expired(entry(0, 1))); // captured EIs never expire
        assert_eq!(idx.n_possible(id), 2);

        let mut threshold = one_cei_requiring(3, 2);
        assert!(threshold.mark_expired(entry(0, 0)));
        assert!(!threshold.is_doomed(id)); // 2-of-3 still viable
        assert!(threshold.mark_expired(entry(0, 2)));
        assert!(threshold.is_doomed(id));
    }

    #[test]
    fn static_tables_follow_the_dense_id_space() {
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(2, 0, 2), (0, 3, 5)]);
        b.cei_threshold(p, 1, &[(1, 1, 4), (2, 1, 4), (0, 2, 6)]);
        let inst = b.build();
        let mut idx = CandidateIndex::new(&inst);
        assert_eq!(idx.n_eis(), inst.total_eis());
        let resources: Vec<usize> = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
            .iter()
            .map(|&(c, i)| idx.resource(entry(c, i)).index())
            .collect();
        assert_eq!(resources, vec![2, 0, 1, 2, 0]);
        assert_eq!((idx.required(CeiId(0)), idx.required(CeiId(1))), (2, 1));
        // Insertion and removal file an entry under its table resource.
        assert_eq!(idx.insert(entry(1, 1)), 2);
        assert_eq!(idx.live_on(2), 1);
        assert!(idx.remove(entry(1, 1)));
        assert_eq!(idx.live_on(2), 0);
        idx.insert(entry(1, 0));
        idx.insert(entry(1, 2));
        idx.remove_cei(CeiId(1));
        assert_eq!(idx.live(), 0);
    }

    #[test]
    #[should_panic(expected = "already expired")]
    fn capturing_expired_ei_rejected() {
        let mut idx = one_cei(1);
        idx.mark_expired(entry(0, 0));
        idx.capture(entry(0, 0));
    }

    /// The bucket construction the CSR build replaced: nested per-chronon
    /// vectors filled cei-major, each end bucket stable-sorted by start.
    fn reference_buckets(ceis: &[Cei], horizon: Chronon) -> [Vec<Vec<PoolEntry>>; 2] {
        let mut starts: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon as usize];
        let mut ends: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon as usize];
        for cei in ceis {
            for (idx, ei) in cei.eis.iter().enumerate() {
                let e = entry(cei.id.0, idx as u16);
                starts[ei.start as usize].push(e);
                if (ei.end as usize) < ends.len() {
                    ends[ei.end as usize].push(e);
                }
            }
        }
        for bucket in &mut ends {
            bucket.sort_by_key(|e| ceis[e.cei.index()].eis[e.ei_idx as usize].start);
        }
        [starts, ends]
    }

    fn assert_buckets_match(ceis: &[Cei], horizon: Chronon, label: &str) {
        let (starts, ends) = window_buckets(ceis, horizon);
        let [ref_starts, ref_ends] = reference_buckets(ceis, horizon);
        for t in 0..horizon {
            assert_eq!(
                starts.at(t),
                &ref_starts[t as usize][..],
                "{label}: starts[{t}]"
            );
            assert_eq!(ends.at(t), &ref_ends[t as usize][..], "{label}: ends[{t}]");
        }
        let total: usize = ceis.iter().map(Cei::size).sum();
        assert_eq!(starts.entries.len(), total, "{label}: every EI starts once");
    }

    /// Random CEIs over `n_res` resources whose windows start inside
    /// `horizon` and may end anywhere up to `horizon + 3`: zero-length
    /// windows, windows ending at or past the horizon, and duplicate EIs
    /// on one resource all occur.
    fn random_ceis(rng: &mut StdRng, n_ceis: u32, n_res: u32, horizon: Chronon) -> Vec<Cei> {
        (0..n_ceis)
            .map(|id| {
                let size = rng.random_range(1..=4u32);
                let mut eis: Vec<Ei> = (0..size)
                    .map(|_| {
                        let start = rng.random_range(0..horizon);
                        let len = if rng.random_range(0..4u32) == 0 {
                            0
                        } else {
                            rng.random_range(0..=6u32)
                        };
                        Ei::new(
                            ResourceId(rng.random_range(0..n_res)),
                            start,
                            (start + len).min(horizon + 3),
                        )
                    })
                    .collect();
                if rng.random_range(0..5u32) == 0 {
                    eis.push(eis[0]); // an exact duplicate on the same resource
                }
                Cei::new(CeiId(id), ProfileId(0), eis)
            })
            .collect()
    }

    #[test]
    fn csr_buckets_match_the_nested_reference() {
        let mut rng = StdRng::seed_from_u64(0xB0C4);
        for case in 0..40 {
            let horizon = rng.random_range(1..=24u32);
            let n_res = rng.random_range(1..=3u32);
            let n_ceis = rng.random_range(0..=60u32);
            let ceis = random_ceis(&mut rng, n_ceis, n_res, horizon);
            assert_buckets_match(&ceis, horizon, &format!("case {case}"));
        }
    }

    #[test]
    fn csr_buckets_cover_the_edge_windows() {
        // Windows ending exactly at and past the horizon (no end bucket),
        // zero-length windows, and duplicate EIs on one resource, with
        // starts out of CEI order so the end buckets need the start key.
        let h = 6;
        let ceis = vec![
            Cei::new(
                CeiId(0),
                ProfileId(0),
                vec![Ei::new(ResourceId(0), 4, 5), Ei::new(ResourceId(0), 4, 5)],
            ),
            Cei::new(
                CeiId(1),
                ProfileId(0),
                vec![Ei::new(ResourceId(1), 2, 5), Ei::new(ResourceId(0), 3, 3)],
            ),
            Cei::new(
                CeiId(2),
                ProfileId(0),
                vec![Ei::new(ResourceId(0), 0, 6), Ei::new(ResourceId(1), 5, 9)],
            ),
        ];
        assert_buckets_match(&ceis, h, "edges");
        let (starts, ends) = window_buckets(&ceis, h);
        assert_eq!(ends.at(5), &[entry(1, 0), entry(0, 0), entry(0, 1)]);
        assert_eq!(ends.at(3), &[entry(1, 1)]);
        assert_eq!(starts.at(5), &[entry(2, 1)]);
        assert_eq!(ends.entries.len(), 4, "ends at 6 and 9 are never bucketed");
    }
}
