//! The per-node view of system state.
//!
//! After each communication-plane round a Device Interface holds (its best
//! knowledge of) every device's [`StatusRecord`]. The scheduling algorithm
//! is a pure function of this view, which is exactly what makes the
//! decentralized scheme work: identical views ⇒ identical schedules.
//!
//! A [`SystemView`] is **pure record content**: which record each node
//! holds per device, plus an incrementally maintained 64-bit
//! [`fingerprint`](SystemView::fingerprint) of that content. Per-node
//! staleness (how many rounds ago each record was refreshed) is
//! deliberately *not* stored here — it lives in the
//! [`CommunicationPlane`](crate::cp::CommunicationPlane), which tracks the
//! last refresh round per `(node, origin)` pair. Keeping the view pure is
//! what lets the plane store one copy of each distinct view in a
//! content-addressed [`ViewPool`](crate::pool::ViewPool): nodes whose
//! record contents have converged share a single `SystemView` even when
//! they refreshed those records in different rounds.

use crate::checkpoint::{ensure, CheckpointError};
use han_device::appliance::DeviceId;
use han_device::status::StatusRecord;

/// One node's belief about all devices: the record contents only.
///
/// Cheap to compare (fingerprint first, then records) and cheap to update
/// (each [`refresh`](SystemView::refresh) is O(1) including the
/// fingerprint). Shared between nodes by the
/// [`ViewPool`](crate::pool::ViewPool) whenever contents coincide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemView {
    records: Vec<Option<StatusRecord>>,
    /// Per-slot contribution to the view fingerprint (0 for empty slots).
    contribs: Vec<u64>,
    /// XOR of all slot contributions — the incremental view fingerprint.
    fingerprint: u64,
}

/// Mixes one record into a 64-bit slot contribution.
///
/// Word-at-a-time multiply-xor-shift over every field the planner can
/// observe, finished with a splitmix64 avalanche so XOR-combining slot
/// contributions keeps full 64-bit dispersion. This runs on *every*
/// record refresh — once per (node, origin) delivery per round — so it is
/// ten 64-bit multiplies, not a byte-stream hash.
fn record_contribution(rec: &StatusRecord) -> u64 {
    const NONE_SENTINEL: u64 = u64::MAX;
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(GOLDEN);
        h ^= h >> 29;
    };
    mix(u64::from(rec.device.0));
    mix(u64::from(rec.active) | (u64::from(rec.on) << 1));
    mix(rec.owed.as_micros());
    mix(rec.deadline.map_or(NONE_SENTINEL, |t| t.as_micros()));
    mix(u64::from(rec.windows_remaining));
    mix(rec.arrival.map_or(NONE_SENTINEL, |t| t.as_micros()));
    mix(rec.planned_start.map_or(NONE_SENTINEL, |t| t.as_micros()));
    mix(u64::from(rec.power_w));
    mix(rec.min_dcd.as_micros());
    mix(rec.max_dcp.as_micros());
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SystemView {
    /// Creates an empty view with one slot per device in the fleet.
    pub fn new(device_count: usize) -> Self {
        SystemView {
            records: vec![None; device_count],
            contribs: vec![0; device_count],
            fingerprint: 0,
        }
    }

    /// Rebuilds a view from checkpointed slot contents (slot `i` holding
    /// device `i`'s record, as exported).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Inconsistent`] unless there is one slot per
    /// device and every record sits in its own device's slot.
    pub(crate) fn restore(
        device_count: usize,
        records: &[Option<StatusRecord>],
    ) -> Result<Self, CheckpointError> {
        ensure(records.len() == device_count, || {
            format!(
                "a view of {} slots for {device_count} devices",
                records.len()
            )
        })?;
        let mut view = SystemView::new(device_count);
        for (slot, rec) in records.iter().enumerate() {
            if let Some(rec) = rec {
                ensure(rec.device.index() == slot, || {
                    format!("record of device {} in view slot {slot}", rec.device.0)
                })?;
                view.refresh(*rec);
            }
        }
        Ok(view)
    }

    /// Number of device slots in the view.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the view holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.iter().all(Option::is_none)
    }

    /// Installs a record, replacing whatever the slot held.
    ///
    /// The view fingerprint is updated incrementally in O(1): the slot's
    /// old contribution is XORed out and the new one XORed in — no full
    /// rehash of the view.
    ///
    /// # Panics
    ///
    /// Panics if the record's device id is out of range.
    pub fn refresh(&mut self, record: StatusRecord) {
        let idx = record.device.index();
        let contrib = record_contribution(&record);
        self.fingerprint ^= self.contribs[idx] ^ contrib;
        self.contribs[idx] = contrib;
        self.records[idx] = Some(record);
    }

    /// A 64-bit fingerprint of the view's record contents, maintained
    /// incrementally on every [`refresh`](SystemView::refresh).
    ///
    /// Two views with equal fingerprints hold (up to a vanishing 2⁻⁶⁴
    /// collision chance) identical record sets, and therefore — because
    /// the planner is a pure function of the records — compute identical
    /// schedules. The [`ViewPool`](crate::pool::ViewPool) uses the
    /// fingerprint as its content-address key (with a full equality check
    /// on collision).
    ///
    /// Staleness is invisible here by design: the scheduling algorithm is
    /// age-blind (how *old* a record is influences plans only through the
    /// record contents), so mixing refresh times into the fingerprint
    /// would only split groups that plan identically. Slot contributions
    /// are combined with XOR, which is what makes the per-refresh update
    /// O(1) rather than a rehash of all `n` slots.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The record for a device, if any.
    pub fn record(&self, device: DeviceId) -> Option<&StatusRecord> {
        self.records.get(device.index()).and_then(Option::as_ref)
    }

    /// Empties a slot, XORing its contribution back out of the
    /// fingerprint (the update is an involution, so clearing then
    /// re-refreshing the same record restores the fingerprint exactly).
    ///
    /// Used by the staleness filter: a node planning with a TTL drops
    /// records whose age exceeds the bound before handing the view to the
    /// (age-blind) planner.
    ///
    /// # Panics
    ///
    /// Panics if the device id is out of range.
    pub fn clear_slot(&mut self, device: DeviceId) {
        let idx = device.index();
        self.fingerprint ^= self.contribs[idx];
        self.contribs[idx] = 0;
        self.records[idx] = None;
    }

    /// Iterates the records present in the view, in device order.
    pub fn iter(&self) -> impl Iterator<Item = &StatusRecord> {
        self.records.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::time::{SimDuration, SimTime};

    fn active_record(id: u32) -> StatusRecord {
        StatusRecord {
            device: DeviceId(id),
            active: true,
            on: false,
            owed: SimDuration::from_mins(15),
            deadline: Some(SimTime::from_mins(30)),
            windows_remaining: 1,
            arrival: Some(SimTime::ZERO),
            planned_start: None,
            power_w: 1000,
            min_dcd: SimDuration::from_mins(15),
            max_dcp: SimDuration::from_mins(30),
        }
    }

    #[test]
    fn refresh_and_lookup() {
        let mut v = SystemView::new(3);
        assert!(v.is_empty());
        v.refresh(active_record(1));
        assert!(v.record(DeviceId(1)).is_some());
        assert!(v.record(DeviceId(0)).is_none());
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn iter_skips_missing() {
        let mut v = SystemView::new(5);
        v.refresh(active_record(2));
        v.refresh(active_record(4));
        let ids: Vec<u32> = v.iter().map(|r| r.device.0).collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn fingerprint_tracks_content_not_order() {
        let mut a = SystemView::new(4);
        let mut b = SystemView::new(4);
        assert_eq!(a.fingerprint(), 0, "empty view fingerprints to zero");
        a.refresh(active_record(1));
        a.refresh(active_record(3));
        b.refresh(active_record(3));
        b.refresh(active_record(1));
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same records, any refresh order"
        );
        assert_ne!(a.fingerprint(), 0);
        assert_eq!(a, b, "equal content means equal views");
    }

    #[test]
    fn fingerprint_changes_with_record_content() {
        let mut v = SystemView::new(2);
        v.refresh(active_record(0));
        let before = v.fingerprint();
        let mut changed = active_record(0);
        changed.owed = SimDuration::from_mins(7);
        v.refresh(changed);
        assert_ne!(v.fingerprint(), before, "content change must show");
        // Restoring the original record restores the fingerprint exactly
        // (the XOR update is an involution on the slot contribution).
        v.refresh(active_record(0));
        assert_eq!(v.fingerprint(), before);
    }

    #[test]
    fn refresh_with_identical_content_is_a_noop() {
        let mut v = SystemView::new(3);
        v.refresh(active_record(1));
        let snapshot = v.clone();
        v.refresh(active_record(1));
        assert_eq!(v, snapshot, "idempotent refresh");
    }

    #[test]
    fn clear_slot_is_fingerprint_involution() {
        let mut v = SystemView::new(3);
        v.refresh(active_record(0));
        let one_record = v.fingerprint();
        v.refresh(active_record(2));
        v.clear_slot(DeviceId(2));
        assert_eq!(v.fingerprint(), one_record);
        assert!(v.record(DeviceId(2)).is_none());
        v.clear_slot(DeviceId(0));
        assert_eq!(v.fingerprint(), 0);
        assert!(v.is_empty());
        // Clearing an already-empty slot is a no-op.
        v.clear_slot(DeviceId(1));
        assert_eq!(v.fingerprint(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_slots() {
        // The same record content in different device slots must not
        // collide trivially.
        let mut a = SystemView::new(3);
        a.refresh(active_record(0));
        let mut b = SystemView::new(3);
        b.refresh(active_record(1));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_matches_identical_refresh_streams() {
        // Two nodes that saw the same rounds hold the same fingerprint —
        // the property the grouped execution plane relies on.
        let mut a = SystemView::new(5);
        let mut b = SystemView::new(5);
        for round in 0..10u64 {
            for id in 0..5 {
                let mut rec = active_record(id);
                rec.owed = SimDuration::from_mins(round % 4);
                a.refresh(rec);
                b.refresh(rec);
            }
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }
}
