//! Content-addressed storage for [`SystemView`]s.
//!
//! Under a lossy communication plane most nodes still converge to one of
//! a few distinct views — the same clustering that lets the execution
//! plane run the planner once per distinct view lets the plane store each
//! distinct view **once**. A [`ViewPool`] keys views by their incremental
//! 64-bit [`fingerprint`](SystemView::fingerprint) (with a full equality
//! check on the rare collision), hands out reference-counted
//! [`ViewHandle`]s, and reclaims an entry the moment its last handle is
//! released. This collapses lossy/packet-mode view memory from
//! O(nodes · devices) records to O(distinct views · devices), and gives
//! the execution plane a collision-proof group key for free: two nodes
//! plan together exactly when they hold the same handle.
//!
//! Reclaimed slots keep their buffers, copying into a slot reuses its
//! allocation, and the content index links same-key entries through the
//! slots instead of keeping a bucket per key, so the steady-state round
//! loop (views forking and re-deduplicating as records arrive) allocates
//! nothing.

use crate::checkpoint::{ensure, CheckpointError};
use crate::state::SystemView;
use han_device::status::StatusRecord;
use std::collections::HashMap;

/// A reference into a [`ViewPool`] entry.
///
/// Handles are plain indices: copying one does **not** adjust the entry's
/// reference count — use [`ViewPool::retain`] to register an extra owner
/// and [`ViewPool::release`] to drop one. A handle is valid until as many
/// releases as acquires/retains have been issued for it; slot ids are
/// reused after reclamation, so two live handles are equal **iff** they
/// name the same (content-identical) entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ViewHandle(u32);

impl ViewHandle {
    /// The raw slot index — stable while the handle is live, reused after
    /// reclamation. Two live handles with equal ids share one entry, so
    /// this is the execution plane's planning-group key.
    pub(crate) fn id(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from its raw id — only for checkpoint restore,
    /// where the id was captured from a live handle of the exported pool.
    pub(crate) fn from_id(id: u32) -> Self {
        ViewHandle(id)
    }
}

/// One pool slot. Reclaimed slots stay allocated (refs = 0, parked on the
/// free list) so their buffers are reused by the next insertion.
#[derive(Debug, Clone)]
struct Entry {
    view: SystemView,
    refs: u32,
    /// The index key this entry is filed under while live (its content
    /// fingerprint; kept explicitly so release can unfile without
    /// recomputing).
    key: u64,
    /// The next live entry filed under the same key ([`NO_ENTRY`] ends
    /// the chain). A chain longer than one means a genuine 64-bit
    /// collision between different contents.
    next: u32,
}

/// End of a same-key chain.
const NO_ENTRY: u32 = u32::MAX;

/// Live memory-usage counters of the communication plane's view pool,
/// snapshotted into [`CpStats`](crate::cp::CpStats) after every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewPoolStats {
    /// Distinct views currently alive.
    pub live_views: usize,
    /// High-water mark of distinct live views.
    pub peak_views: usize,
    /// Slots ever allocated (live + reclaimed-but-parked buffers).
    pub slots: usize,
    /// Estimated bytes resident in allocated slots.
    pub resident_bytes: usize,
    /// Estimated bytes the naive dense layout (one view per node) would
    /// hold — the before/after comparison baseline.
    pub per_node_bytes: usize,
}

/// A content-addressed, reference-counted store of [`SystemView`]s.
///
/// All views in one pool must have the same slot count (one per device of
/// the fleet the pool serves); [`acquire`](ViewPool::acquire) enforces
/// this. See the [module docs](self) for the idea.
#[derive(Debug, Default)]
pub(crate) struct ViewPool {
    entries: Vec<Entry>,
    /// Reclaimed slot ids, reused before growing `entries`.
    free: Vec<u32>,
    /// Fingerprint → the first live entry filed under it; the rest of
    /// the key's entries follow [`Entry::next`]. Lookups compare full
    /// contents, so a collision costs a record-by-record comparison,
    /// never a wrong match. Filing and unfiling only relink ids, so the
    /// index allocates nothing once its table has grown to the peak
    /// number of distinct views.
    index: HashMap<u64, u32>,
    device_count: usize,
    live: usize,
    peak: usize,
    /// Entries created (a view forked off shared content). Observability
    /// only: published to the metrics registry, never read by the pool,
    /// and absent from checkpoints.
    forks: u64,
    /// Sole-owner in-place edits (the copy-free CoW half). Observability
    /// only, like `forks`.
    in_place_edits: u64,
}

impl ViewPool {
    /// Creates an empty pool for views over `device_count` devices.
    pub(crate) fn new(device_count: usize) -> Self {
        ViewPool {
            device_count,
            ..ViewPool::default()
        }
    }

    /// Returns a handle to the entry whose content equals `view`, creating
    /// the entry (by copying `view` in) if none exists. The entry's
    /// reference count is incremented either way.
    ///
    /// # Panics
    ///
    /// Panics if `view` has a different slot count than the pool.
    pub(crate) fn acquire(&mut self, view: &SystemView) -> ViewHandle {
        self.acquire_keyed(view, view.fingerprint())
    }

    /// The keyed workhorse behind [`acquire`](ViewPool::acquire), split
    /// out so tests can force two different contents onto one key and
    /// exercise the collision path.
    fn acquire_keyed(&mut self, view: &SystemView, key: u64) -> ViewHandle {
        assert_eq!(
            view.len(),
            self.device_count,
            "view size must match the pool's fleet"
        );
        // A fingerprint hit is confirmed by a full content comparison, so
        // a 64-bit collision between different views can never alias them
        // onto one entry.
        if let Some(id) = self.find(key, view) {
            self.entries[id as usize].refs += 1;
            return ViewHandle(id);
        }
        self.forks += 1;
        let id = match self.free.pop() {
            Some(id) => {
                // Reuse the parked slot's buffers: `clone_from` copies into
                // the existing allocation instead of a fresh clone.
                let entry = &mut self.entries[id as usize];
                entry.view.clone_from(view);
                entry.refs = 1;
                entry.key = key;
                id
            }
            None => {
                let id = u32::try_from(self.entries.len()).expect("pool slots fit in u32");
                self.entries.push(Entry {
                    view: view.clone(),
                    refs: 1,
                    key,
                    next: NO_ENTRY,
                });
                id
            }
        };
        self.file(key, id);
        self.live += 1;
        self.peak = self.peak.max(self.live);
        ViewHandle(id)
    }

    /// The live entry filed under `key` whose content equals `view`.
    fn find(&self, key: u64, view: &SystemView) -> Option<u32> {
        let mut id = *self.index.get(&key)?;
        while id != NO_ENTRY {
            let entry = &self.entries[id as usize];
            if entry.view == *view {
                return Some(id);
            }
            id = entry.next;
        }
        None
    }

    /// Files entry `id` under `key`, at the head of the key's chain.
    fn file(&mut self, key: u64, id: u32) {
        let head = self.index.insert(key, id);
        self.entries[id as usize].next = head.unwrap_or(NO_ENTRY);
    }

    /// Removes entry `id` from the chain of `key`.
    fn unfile(&mut self, key: u64, id: u32) {
        let next = self.entries[id as usize].next;
        let head = self
            .index
            .get_mut(&key)
            .expect("live entry is always filed");
        if *head == id {
            if next == NO_ENTRY {
                self.index.remove(&key);
            } else {
                *head = next;
            }
            return;
        }
        let mut prev = *head;
        while self.entries[prev as usize].next != id {
            prev = self.entries[prev as usize].next;
            assert_ne!(prev, NO_ENTRY, "live entry is in its key's chain");
        }
        self.entries[prev as usize].next = next;
    }

    /// Whether `handle` is the only owner of its entry — the case where
    /// [`update_sole_owner`](ViewPool::update_sole_owner) can edit in
    /// place instead of forking.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live.
    pub(crate) fn is_sole_owner(&self, handle: ViewHandle) -> bool {
        let entry = &self.entries[handle.0 as usize];
        assert!(entry.refs > 0, "ownership query on a reclaimed handle");
        entry.refs == 1
    }

    /// Mutates a solely-owned entry **in place** — the copy-free half of
    /// copy-on-write. The entry is unfiled, `mutate` edits its view, and
    /// the result is re-deduplicated: if the new content already exists in
    /// the pool the slot is parked and the existing entry returned,
    /// otherwise the entry is refiled under its new fingerprint and the
    /// same handle returned. Either way the caller's ownership carries
    /// over to the returned handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live or has other owners.
    pub(crate) fn update_sole_owner(
        &mut self,
        handle: ViewHandle,
        mutate: impl FnOnce(&mut SystemView),
    ) -> ViewHandle {
        let id = handle.0 as usize;
        assert_eq!(
            self.entries[id].refs, 1,
            "in-place update requires sole ownership"
        );
        self.in_place_edits += 1;
        self.unfile(self.entries[id].key, handle.0);
        mutate(&mut self.entries[id].view);
        let new_key = self.entries[id].view.fingerprint();
        // The mutated content may now equal another entry (nodes
        // re-converging): merge into it and park this slot.
        if let Some(other) = self.find(new_key, &self.entries[id].view) {
            self.entries[other as usize].refs += 1;
            self.entries[id].refs = 0;
            self.free.push(handle.0);
            self.live -= 1;
            return ViewHandle(other);
        }
        self.entries[id].key = new_key;
        self.file(new_key, handle.0);
        handle
    }

    /// Registers one more owner of a live entry.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live.
    pub(crate) fn retain(&mut self, handle: ViewHandle) {
        let entry = &mut self.entries[handle.0 as usize];
        assert!(entry.refs > 0, "retain of a reclaimed handle");
        entry.refs += 1;
    }

    /// Drops one owner of a live entry. When the last owner releases, the
    /// entry is unfiled from the content index and its slot parked for
    /// reuse — the pool never grows past the peak number of *concurrently*
    /// distinct views.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live.
    pub(crate) fn release(&mut self, handle: ViewHandle) {
        let entry = &mut self.entries[handle.0 as usize];
        assert!(entry.refs > 0, "release of a reclaimed handle");
        entry.refs -= 1;
        if entry.refs > 0 {
            return;
        }
        let key = entry.key;
        self.unfile(key, handle.0);
        self.free.push(handle.0);
        self.live -= 1;
    }

    /// The view a live handle points to.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live.
    pub(crate) fn view(&self, handle: ViewHandle) -> &SystemView {
        let entry = &self.entries[handle.0 as usize];
        assert!(entry.refs > 0, "lookup of a reclaimed handle");
        &entry.view
    }

    /// Entries ever created — every time a view *forked* off shared
    /// content (or seeded a fresh pool). Observability-only; resets on
    /// checkpoint restore.
    pub(crate) fn forks(&self) -> u64 {
        self.forks
    }

    /// Sole-owner in-place edits — the copy-free half of copy-on-write.
    /// Observability-only; resets on checkpoint restore.
    pub(crate) fn in_place_edits(&self) -> u64 {
        self.in_place_edits
    }

    /// Estimated bytes per pooled view (records + fingerprint
    /// contributions + container overhead).
    pub(crate) fn bytes_per_view(&self) -> usize {
        std::mem::size_of::<SystemView>()
            + self.device_count
                * (std::mem::size_of::<Option<StatusRecord>>() + std::mem::size_of::<u64>())
    }

    /// Serializes the pool's exact structural state for a checkpoint:
    /// per-slot `(refs, key, records-if-live)` in slot order, the free
    /// list verbatim (its LIFO order decides which slot the next
    /// acquisition reuses, so future handle ids depend on it), and the
    /// live/peak counters. Parked slots export no records — their buffers
    /// are fully overwritten before reuse.
    pub(crate) fn export(&self) -> ViewPoolExport {
        ViewPoolExport {
            slots: self
                .entries
                .iter()
                .map(|e| PoolSlotExport {
                    refs: e.refs,
                    key: e.key,
                    records: if e.refs > 0 {
                        (0..self.device_count)
                            .map(|i| e.view.record(han_device::appliance::DeviceId(i as u32)))
                            .map(|r| r.copied())
                            .collect()
                    } else {
                        Vec::new()
                    },
                })
                .collect(),
            free: self.free.clone(),
            live: self.live,
            peak: self.peak,
        }
    }

    /// Rebuilds a pool from an [`export`](ViewPool::export) and the raw
    /// handle ids that reference it. The content index is reconstructed
    /// from the live slots (filed in ascending slot order — chain order
    /// only matters on 64-bit fingerprint collisions, where equality
    /// checks disambiguate regardless of order).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Inconsistent`] unless the export is one a pool
    /// could have been in: every handle names a live slot, each live
    /// slot's reference count equals the handles naming it and its key
    /// is its content's fingerprint, free ids are distinct, in range and
    /// unreferenced, and the live counter matches.
    pub(crate) fn restore(
        device_count: usize,
        export: &ViewPoolExport,
        handles: &[u32],
    ) -> Result<Self, CheckpointError> {
        let slots = export.slots.len();
        let mut held = vec![0u64; slots];
        for &h in handles {
            ensure((h as usize) < slots, || {
                format!("view handle {h} outside the pool's {slots} slots")
            })?;
            held[h as usize] += 1;
        }
        let mut parked = vec![false; slots];
        for &f in &export.free {
            let free_slot = export.slots.get(f as usize);
            ensure(
                free_slot.is_some_and(|s| s.refs == 0) && !parked[f as usize],
                || format!("free view slot {f} is out of range, referenced or listed twice"),
            )?;
            parked[f as usize] = true;
        }
        let mut pool = ViewPool {
            entries: Vec::with_capacity(slots),
            free: export.free.clone(),
            index: HashMap::new(),
            device_count,
            live: export.live,
            peak: export.peak,
            // Churn counters are observability, not state: a restored
            // pool restarts them at zero (the registry's monotonic
            // publish absorbs the reset).
            forks: 0,
            in_place_edits: 0,
        };
        for (id, slot) in export.slots.iter().enumerate() {
            ensure(u64::from(slot.refs) == held[id], || {
                format!(
                    "view slot {id} counts {} references but {} handles name it",
                    slot.refs, held[id]
                )
            })?;
            let view = if slot.refs > 0 {
                let view = SystemView::restore(device_count, &slot.records)?;
                ensure(view.fingerprint() == slot.key, || {
                    format!("view slot {id} is filed under a key its content does not hash to")
                })?;
                view
            } else {
                SystemView::new(device_count)
            };
            pool.entries.push(Entry {
                view,
                refs: slot.refs,
                key: slot.key,
                next: NO_ENTRY,
            });
            if slot.refs > 0 {
                pool.file(slot.key, id as u32);
            }
        }
        let live = pool.entries.iter().filter(|e| e.refs > 0).count();
        ensure(export.live == live && export.peak >= live, || {
            format!(
                "pool counters live={} peak={} for {live} live views",
                export.live, export.peak
            )
        })?;
        Ok(pool)
    }

    /// Current memory counters, with the dense one-view-per-`nodes` layout
    /// as the comparison baseline.
    pub(crate) fn stats(&self, nodes: usize) -> ViewPoolStats {
        ViewPoolStats {
            live_views: self.live,
            peak_views: self.peak,
            slots: self.entries.len(),
            resident_bytes: self.entries.len() * self.bytes_per_view(),
            per_node_bytes: nodes * self.bytes_per_view(),
        }
    }
}

/// The checkpointable structural state of a [`ViewPool`] — see
/// [`ViewPool::export`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ViewPoolExport {
    pub(crate) slots: Vec<PoolSlotExport>,
    pub(crate) free: Vec<u32>,
    pub(crate) live: usize,
    pub(crate) peak: usize,
}

/// One exported pool slot: refcount, index key and (for live slots) the
/// record contents per device slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PoolSlotExport {
    pub(crate) refs: u32,
    pub(crate) key: u64,
    pub(crate) records: Vec<Option<StatusRecord>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_device::appliance::DeviceId;
    use han_sim::time::{SimDuration, SimTime};

    fn record(id: u32, owed_mins: u64) -> StatusRecord {
        StatusRecord {
            active: true,
            owed: SimDuration::from_mins(owed_mins),
            deadline: Some(SimTime::from_mins(30)),
            ..StatusRecord::idle(DeviceId(id))
        }
    }

    fn view_with(n: usize, recs: &[StatusRecord]) -> SystemView {
        let mut v = SystemView::new(n);
        for r in recs {
            v.refresh(*r);
        }
        v
    }

    #[test]
    fn dedup_by_content() {
        let mut pool = ViewPool::new(3);
        let v = view_with(3, &[record(0, 15), record(2, 10)]);
        let a = pool.acquire(&v);
        let b = pool.acquire(&v.clone());
        assert_eq!(a, b, "identical content shares one entry");
        assert_eq!(pool.stats(0).live_views, 1);
        assert_eq!(pool.view(a), &v);
    }

    #[test]
    fn distinct_content_distinct_entries() {
        let mut pool = ViewPool::new(3);
        let x = view_with(3, &[record(0, 15)]);
        let y = view_with(3, &[record(0, 14)]);
        let a = pool.acquire(&x);
        let b = pool.acquire(&y);
        assert_ne!(a, b);
        assert_eq!(pool.stats(0).live_views, 2);
        assert_eq!(pool.view(a), &x);
        assert_eq!(pool.view(b), &y, "the forked entry holds the new content");
        // Releasing every handle reclaims both; the peak remembers them.
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.stats(0).live_views, 0);
        assert_eq!(pool.stats(0).peak_views, 2);
    }

    #[test]
    fn fingerprint_collision_falls_back_to_full_comparison() {
        // Force two different contents onto the same index key: the pool
        // must keep them as separate entries (full comparison detects the
        // mismatch) and still resolve each content to its own entry.
        let mut pool = ViewPool::new(2);
        let x = view_with(2, &[record(0, 15)]);
        let y = view_with(2, &[record(1, 15)]);
        assert_ne!(x.fingerprint(), y.fingerprint(), "honest collision setup");
        let hx = pool.acquire_keyed(&x, 42);
        let hy = pool.acquire_keyed(&y, 42);
        assert_ne!(hx, hy, "colliding key must not alias different contents");
        assert_eq!(pool.stats(0).live_views, 2);
        // Re-acquiring under the colliding key still finds the right entry.
        assert_eq!(pool.acquire_keyed(&x, 42), hx);
        assert_eq!(pool.acquire_keyed(&y, 42), hy);
        assert_eq!(pool.view(hx), &x);
        assert_eq!(pool.view(hy), &y);
        // Releasing one collided entry leaves the other resolvable.
        pool.release(hx);
        pool.release(hx);
        assert_eq!(pool.acquire_keyed(&y, 42), hy);
        assert_eq!(pool.stats(0).live_views, 1);
    }

    #[test]
    fn last_release_reclaims_and_reuses_the_slot() {
        let mut pool = ViewPool::new(2);
        let a = pool.acquire(&view_with(2, &[record(0, 15)]));
        pool.retain(a);
        pool.release(a);
        assert_eq!(pool.stats(0).live_views, 1, "still one owner");
        pool.release(a);
        assert_eq!(pool.stats(0).live_views, 0);
        assert_eq!(pool.stats(0).slots, 1, "slot parked, not dropped");
        // A different content reuses the parked slot: no growth.
        let b = pool.acquire(&view_with(2, &[record(1, 9)]));
        assert_eq!(b.id(), a.id(), "parked slot reused");
        assert_eq!(pool.stats(0).slots, 1);
        assert_eq!(pool.stats(0).peak_views, 1);
    }

    #[test]
    fn reclaimed_content_is_unfindable() {
        let mut pool = ViewPool::new(2);
        let v = view_with(2, &[record(0, 15)]);
        let a = pool.acquire(&v);
        pool.release(a);
        // Re-acquiring the same content builds a fresh entry (refs start
        // over), it does not resurrect the reclaimed one.
        let b = pool.acquire(&v);
        assert_eq!(pool.stats(0).live_views, 1);
        pool.release(b);
        assert_eq!(pool.stats(0).live_views, 0);
    }

    #[test]
    #[should_panic(expected = "release of a reclaimed handle")]
    fn double_release_panics() {
        let mut pool = ViewPool::new(1);
        let a = pool.acquire(&SystemView::new(1));
        pool.release(a);
        pool.release(a);
    }

    #[test]
    #[should_panic(expected = "view size must match")]
    fn wrong_size_rejected() {
        let mut pool = ViewPool::new(3);
        pool.acquire(&SystemView::new(2));
    }

    #[test]
    fn export_restore_preserves_structure_and_future_handles() {
        let mut pool = ViewPool::new(2);
        let a = pool.acquire(&view_with(2, &[record(0, 15)]));
        let b = pool.acquire(&view_with(2, &[record(1, 9)]));
        let c = pool.acquire(&view_with(2, &[record(0, 3)]));
        pool.retain(a);
        pool.release(b); // park slot 1
        pool.release(c); // park slot 2 — free list is [1, 2]
        let export = pool.export();
        let mut restored = ViewPool::restore(2, &export, &[a.id(), a.id()]).expect("consistent");
        assert_eq!(restored.stats(2), pool.stats(2));
        assert_eq!(restored.view(a), pool.view(a));
        assert!(restored.is_sole_owner(a) == pool.is_sole_owner(a));
        // Future behavior must match: dedup onto the live entry…
        let v0 = view_with(2, &[record(0, 15)]);
        assert_eq!(restored.acquire(&v0), pool.acquire(&v0));
        // …and parked-slot reuse in the same LIFO order.
        let v_new = view_with(2, &[record(1, 4)]);
        assert_eq!(restored.acquire(&v_new), pool.acquire(&v_new));
        let v_new2 = view_with(2, &[record(1, 5)]);
        assert_eq!(restored.acquire(&v_new2), pool.acquire(&v_new2));
        // A second export of the restored pool is identical.
        assert_eq!(restored.export(), pool.export());
    }

    #[test]
    fn stats_track_memory() {
        let mut pool = ViewPool::new(4);
        let a = pool.acquire(&view_with(4, &[record(0, 15)]));
        let b = pool.acquire(&view_with(4, &[record(1, 15)]));
        pool.release(a);
        let s = pool.stats(10);
        assert_eq!(s.live_views, 1);
        assert_eq!(s.peak_views, 2);
        assert_eq!(s.slots, 2);
        assert_eq!(s.resident_bytes, 2 * pool.bytes_per_view());
        assert_eq!(s.per_node_bytes, 10 * pool.bytes_per_view());
        assert!(s.per_node_bytes > s.resident_bytes);
        pool.release(b);
    }
}
