//! The schedule: which devices run during the next interval.
//!
//! A [`Schedule`] is the output of the planning algorithm: the exact set of
//! devices whose power element should be ON until the next round. Because
//! every DI computes its schedule independently, schedules carry a stable
//! content hash so the simulation can detect divergence between nodes.

use han_device::appliance::DeviceId;

/// An ON-set for the next interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Schedule {
    /// Devices to keep ON, sorted ascending (canonical form).
    on: Vec<DeviceId>,
}

impl Schedule {
    /// Replaces the ON set with `ids` (deduplicated, sorted), reusing the
    /// schedule's buffer — the planner rebuilds recycled plans this way.
    pub(crate) fn refill(&mut self, ids: impl IntoIterator<Item = DeviceId>) {
        self.on.clear();
        self.on.extend(ids);
        self.on.sort_unstable();
        self.on.dedup();
    }

    /// The empty schedule.
    pub(crate) fn empty() -> Self {
        Schedule::default()
    }

    /// Whether `device` should be ON.
    pub(crate) fn is_on(&self, device: DeviceId) -> bool {
        self.on.binary_search(&device).is_ok()
    }

    /// A stable content hash (FNV-1a over the sorted ids) for divergence
    /// detection across nodes.
    pub(crate) fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in &self.on {
            for b in id.0.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

#[cfg(test)]
impl Schedule {
    /// Number of devices ON.
    pub(crate) fn on_count(&self) -> usize {
        self.on.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule of `ids` (deduplicated, sorted).
    fn on(ids: impl IntoIterator<Item = DeviceId>) -> Schedule {
        let mut schedule = Schedule::empty();
        schedule.refill(ids);
        schedule
    }

    #[test]
    fn canonical_form() {
        let a = on([DeviceId(3), DeviceId(1), DeviceId(3)]);
        let b = on([DeviceId(1), DeviceId(3)]);
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.on_count(), 2);
    }

    #[test]
    fn membership() {
        let s = on([DeviceId(2), DeviceId(5)]);
        assert!(s.is_on(DeviceId(2)));
        assert!(!s.is_on(DeviceId(3)));
    }

    #[test]
    fn hash_differs_for_different_sets() {
        let a = on([DeviceId(1)]);
        let b = on([DeviceId(2)]);
        let c = Schedule::empty();
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
    }
}
