//! Data items shared through the communication plane.
//!
//! Every Device Interface publishes one small *item* (its status record plus
//! any pending user request); the MiniCast round disseminates the latest
//! item of every origin to every node. An [`ItemStore`] keeps, per origin,
//! the freshest item seen so far — versioned by a monotone sequence number
//! so stale retransmissions never overwrite newer state.

use bytes::Bytes;
use han_net::NodeId;
use std::collections::BTreeMap;

/// Serialized per-item header overhead on air: origin (1 B), sequence (2 B),
/// payload length (1 B).
pub(crate) const ITEM_HEADER_BYTES: usize = 4;

/// One versioned datum published by an origin node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The node that produced this item.
    pub origin: NodeId,
    /// Monotone per-origin version; higher wins.
    pub seq: u32,
    /// Opaque application payload (a status record in `han-core`).
    pub payload: Bytes,
}

impl Item {
    /// Creates an item.
    pub fn new(origin: NodeId, seq: u32, payload: impl Into<Bytes>) -> Self {
        Item {
            origin,
            seq,
            payload: payload.into(),
        }
    }

    /// On-air size of this item inside an aggregate packet.
    pub(crate) fn wire_bytes(&self) -> usize {
        ITEM_HEADER_BYTES + self.payload.len()
    }

    /// A content identity for capture-effect modelling: two aggregates with
    /// equal content ids are bit-identical on air.
    pub(crate) fn content_key(&self) -> u64 {
        // FNV-1a over origin, seq and payload.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for b in self.origin.0.to_le_bytes() {
            eat(b);
        }
        for b in self.seq.to_le_bytes() {
            eat(b);
        }
        for &b in self.payload.iter() {
            eat(b);
        }
        h
    }
}

/// Per-node store of the freshest item per origin.
#[derive(Debug, Clone, Default)]
pub struct ItemStore {
    items: BTreeMap<NodeId, Item>,
}

impl ItemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ItemStore::default()
    }

    /// Merges an item, keeping it only if it is newer than what is stored
    /// for its origin. Returns `true` if the store changed.
    pub fn merge(&mut self, item: &Item) -> bool {
        match self.items.get(&item.origin) {
            Some(existing) if existing.seq >= item.seq => false,
            _ => {
                self.items.insert(item.origin, item.clone());
                true
            }
        }
    }

    /// Merges every item from an iterator; returns how many changed the
    /// store.
    pub(crate) fn merge_all<'a>(&mut self, items: impl IntoIterator<Item = &'a Item>) -> usize {
        items.into_iter().filter(|i| self.merge(i)).count()
    }

    /// Returns the stored item for `origin`, if any.
    pub fn get(&self, origin: NodeId) -> Option<&Item> {
        self.items.get(&origin)
    }

    /// Returns the stored sequence number for `origin`, if any.
    pub fn seq_of(&self, origin: NodeId) -> Option<u32> {
        self.items.get(&origin).map(|i| i.seq)
    }

    /// Number of distinct origins stored.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterates stored items in origin order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Item> {
        self.items.values()
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl FromIterator<Item> for ItemStore {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        let mut store = ItemStore::new();
        for item in iter {
            store.merge(&item);
        }
        store
    }
}

impl Extend<Item> for ItemStore {
    fn extend<T: IntoIterator<Item = Item>>(&mut self, iter: T) {
        for item in iter {
            self.merge(&item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(origin: u32, seq: u32, payload: &[u8]) -> Item {
        Item::new(NodeId(origin), seq, payload.to_vec())
    }

    #[test]
    fn merge_keeps_freshest() {
        let mut s = ItemStore::new();
        assert!(s.merge(&item(1, 1, b"old")));
        assert!(s.merge(&item(1, 3, b"new")));
        assert!(!s.merge(&item(1, 2, b"stale")));
        assert!(!s.merge(&item(1, 3, b"dup")));
        assert_eq!(s.get(NodeId(1)).unwrap().payload.as_ref(), b"new");
        assert_eq!(s.seq_of(NodeId(1)), Some(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_origin_ordered() {
        let s: ItemStore = [item(5, 1, b"x"), item(1, 1, b"y"), item(3, 1, b"z")]
            .into_iter()
            .collect();
        let origins: Vec<u32> = s.iter().map(|i| i.origin.0).collect();
        assert_eq!(origins, vec![1, 3, 5]);
    }

    #[test]
    fn wire_bytes_accounts_header() {
        assert_eq!(item(0, 0, b"12345678").wire_bytes(), 12);
    }

    #[test]
    fn content_key_distinguishes() {
        let a = item(1, 1, b"p");
        let b = item(1, 2, b"p");
        let c = item(2, 1, b"p");
        let d = item(1, 1, b"q");
        assert_ne!(a.content_key(), b.content_key());
        assert_ne!(a.content_key(), c.content_key());
        assert_ne!(a.content_key(), d.content_key());
        assert_eq!(a.content_key(), item(1, 1, b"p").content_key());
    }

    #[test]
    fn merge_all_counts_changes() {
        let mut s = ItemStore::new();
        let items = [item(0, 1, b"a"), item(1, 1, b"b"), item(0, 1, b"a")];
        assert_eq!(s.merge_all(items.iter()), 2);
        s.clear();
        assert_eq!(s.len(), 0);
    }
}
