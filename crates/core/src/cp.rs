//! Communication-plane models.
//!
//! The Communication Plane (CP) is how every Device Interface obtains the
//! shared system view each round. Four models with identical interfaces let
//! experiments trade fidelity for speed:
//!
//! * [`CpModel::Ideal`] — perfect all-to-all delivery every round; isolates
//!   the scheduling algorithm from networking effects.
//! * [`CpModel::LossyRound`] — a node misses a whole round with probability
//!   `p` and keeps its stale view (models a lost sync/round).
//! * [`CpModel::LossyRecord`] — each (node, origin) record independently
//!   misses with probability `p`.
//! * [`CpModel::Packet`] — the real thing: MiniCast rounds simulated packet
//!   by packet over the radio model on a topology (what the paper ran on
//!   FlockLab).
//!
//! # Invariants
//!
//! * A node's **own** record is always fresh — a device needs no network
//!   to know itself.
//! * View *contents* evolve exactly as if every node kept a private copy:
//!   the pooled storage below is an implementation detail that is
//!   bit-invisible to the execution plane (proved differentially against
//!   the per-node reference store, see
//!   [`HanSimulation::set_reference_planning`]).
//! * Per-node staleness is tracked per `(node, origin)` pair from refresh
//!   rounds (`CommunicationPlane::age`); it is *not* part of a view and
//!   never influences which pool entry a node shares.
//!
//! # View storage
//!
//! Under loss most nodes still converge to one of a few distinct views
//! (everyone who heard the last full round holds the *same* content), so
//! the plane stores views in a content-addressed view pool and gives
//! each node a handle.
//! Round delivery is **copy-on-write**: a node whose delivered records
//! would not change its view keeps its handle (the common converged
//! case); otherwise it forks the content and immediately re-deduplicates
//! into the pool — landing on an existing entry when another node already
//! holds the same content. Memory is O(distinct views · devices) instead
//! of O(nodes · devices), and two nodes hold equal handles exactly when
//! their views are identical, which the execution plane uses as its
//! planning-group key (`CommunicationPlane::view_handle`). Under
//! [`CpModel::Ideal`] every node's view is identical by definition, so
//! the plane keeps a single shared handle — O(n) record refreshes per
//! round instead of O(n²) — and the pool holds exactly one entry.
//!
//! A round costs what changed, in two ways:
//!
//! * **One shared transition.** In a round with no down node and no
//!   outage, every pooled row that hears the round under
//!   [`CpModel::Ideal`] (per-node rows), [`CpModel::LossyRound`] or
//!   [`CpModel::GilbertElliott`] hears every record, so each of them
//!   ends holding exactly this round's statuses. Only the first such row
//!   applies its delivery; every later one stamps and counts its
//!   refreshes as usual, then retains the first row's handle and
//!   releases its own. That leaves the pool exactly as applying would —
//!   reference counts, free-list order, live and peak counts — because
//!   applying would have deduplicated onto the same entry.
//! * **Versioned delivery.** Every row that still applies skips each
//!   record whose version equals the one that row last installed, kept
//!   in a `rows × n` matrix beside the refresh stamps. A version is the
//!   publisher's sequence number plus its source: a record installed
//!   straight from the published status never passes for the same
//!   sequence number decoded from a packet item, whose wire format
//!   rounds times to whole seconds. The matrix starts "unknown" (equal
//!   to no version) and is reset, not exported, whenever the rows are
//!   rebuilt, so a restored plane re-applies each record once and
//!   checkpoint bytes do not change.
//!
//! Skipping touches only copies and comparisons: every RNG draw, refresh
//! stamp and refresh count happens in the same order as before. The
//! per-node reference store takes neither shortcut — it receives every
//! heard record — so the differential tests check both against an
//! oracle that does not share them.
//!
//! # One round
//!
//! `CommunicationPlane::round` is the whole synchronous exchange the
//! paper's MiniCast round performs: every live node publishes its status
//! (under a packet CP it merges its own item into its store), the floods
//! run (packet CP only; the abstract models deliver instantly), each view
//! row receives its delivery in row order — which is the lossy models'
//! RNG order — and the round's statistics close. Nothing observes the
//! plane mid-round, so the execution plane only ever sees whole rounds.
//!
//! [`HanSimulation::set_reference_planning`]:
//!   crate::simulation::HanSimulation::set_reference_planning

use crate::checkpoint::{ensure, CheckpointError};
use crate::pool::{ViewHandle, ViewPool, ViewPoolStats};
use crate::state::SystemView;
use han_device::appliance::DeviceId;
use han_device::status::StatusRecord;
use han_net::{NodeId, Topology};
use han_sim::rng::DetRng;
use han_sim::time::SimDuration;
use han_st::item::{Item, ItemStore};
use han_st::minicast;
use han_st::stats::DisseminationStats;
use han_st::sync::SyncTracker;
use han_st::StConfig;

/// Which communication-plane fidelity to simulate.
#[derive(Debug, Clone)]
pub enum CpModel {
    /// Perfect dissemination.
    Ideal,
    /// Whole-round misses per node with the given probability.
    LossyRound {
        /// Probability a node misses an entire round.
        miss_probability: f64,
    },
    /// Independent per-record misses with the given probability.
    LossyRecord {
        /// Probability a given record fails to reach a given node.
        miss_probability: f64,
    },
    /// Gilbert–Elliott burst loss: each node's channel is a two-state
    /// Markov chain (good/bad) advanced once per round, and the node
    /// misses the whole round with the loss probability of its current
    /// state. The stationary whole-round loss rate is
    /// `π_bad·loss_bad + (1−π_bad)·loss_good` with
    /// `π_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good)`.
    GilbertElliott {
        /// Per-round probability of a good→bad transition.
        p_good_to_bad: f64,
        /// Per-round probability of a bad→good transition.
        p_bad_to_good: f64,
        /// Whole-round miss probability while in the good state.
        loss_good: f64,
        /// Whole-round miss probability while in the bad state.
        loss_bad: f64,
    },
    /// Full packet-level MiniCast over a topology.
    Packet {
        /// Protocol parameters (round period, slots, N_TX …).
        st: StConfig,
        /// The deployment to simulate on.
        topology: Topology,
    },
}

impl CpModel {
    /// The paper's deployment: packet-level MiniCast on the 26-node
    /// FlockLab-like layout with default ST parameters.
    pub fn paper_packet(channel_seed: u64) -> Self {
        CpModel::Packet {
            st: StConfig::default(),
            topology: han_net::flocklab::flocklab26(channel_seed),
        }
    }
}

/// Aggregate CP statistics over a run.
#[derive(Debug, Clone, Default)]
pub struct CpStats {
    /// Rounds executed.
    pub rounds: u64,
    /// (node, origin) record refreshes delivered.
    pub refreshed_records: u64,
    /// (node, origin) record refreshes attempted.
    pub expected_records: u64,
    /// Rounds in which every node refreshed every record.
    pub full_rounds: u64,
    /// Packet-level dissemination details (packet mode only).
    pub dissemination: Option<DisseminationStats>,
    /// Worst clock-boundary error accumulated by any node between sync
    /// beacons (packet mode only; TelosB-class 20 ppm crystals).
    pub worst_sync_error: Option<SimDuration>,
    /// View-pool memory counters, snapshotted after every round (absent in
    /// the per-node reference store).
    pub view_pool: Option<ViewPoolStats>,
}

impl CpStats {
    /// Fraction of expected record deliveries that arrived.
    pub fn delivery_rate(&self) -> f64 {
        if self.expected_records == 0 {
            1.0
        } else {
            self.refreshed_records as f64 / self.expected_records as f64
        }
    }

    /// Fraction of rounds with complete all-to-all delivery.
    pub fn full_round_rate(&self) -> f64 {
        if self.rounds == 0 {
            1.0
        } else {
            self.full_rounds as f64 / self.rounds as f64
        }
    }
}

// The Packet variant is large and CpState is held exactly once per
// simulation; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum CpState {
    Abstract,
    Packet {
        st: StConfig,
        /// The topology's link budget, audible neighbours and CI-slot PRR
        /// memo, built once with the plane.
        links: minicast::LinkTable,
        stores: Vec<ItemStore>,
        /// Last sequence number each node has decoded per origin, to detect
        /// which records are fresh this round.
        last_seen: Vec<Vec<Option<u32>>>,
        sync: SyncTracker,
        /// Reusable MiniCast working buffers (aggregates, flood buffers)
        /// and the round report they fill.
        scratch: minicast::RoundScratch,
        /// Reusable status-encoding buffer.
        encode_buf: Vec<u8>,
    },
}

/// How node views are physically stored.
enum ViewStore {
    /// The default: one content-addressed pool entry per *distinct* view,
    /// nodes hold handles, delivery is copy-on-write. A single shared
    /// handle row under [`CpModel::Ideal`].
    Pooled {
        pool: ViewPool,
        handles: Vec<ViewHandle>,
        /// Reusable fork buffer for copy-on-write updates.
        staging: SystemView,
    },
    /// The naive oracle: one privately mutated view per node, exactly the
    /// paper's literal formulation. Enabled by
    /// [`CommunicationPlane::set_reference_views`] for differential tests
    /// and benchmarks.
    PerNode { views: Vec<SystemView> },
}

impl ViewStore {
    /// A pooled store whose rows hold `handles` into `pool`.
    fn pooled(pool: ViewPool, handles: Vec<ViewHandle>, device_count: usize) -> Self {
        ViewStore::Pooled {
            pool,
            handles,
            staging: SystemView::new(device_count),
        }
    }

    /// Number of view rows (1 for the shared Ideal row, node count
    /// otherwise).
    fn rows(&self) -> usize {
        match self {
            ViewStore::Pooled { handles, .. } => handles.len(),
            ViewStore::PerNode { views } => views.len(),
        }
    }

    /// The row holding `node`'s view.
    fn row_of(&self, node: usize) -> usize {
        if self.rows() == 1 {
            0
        } else {
            node
        }
    }

    /// Applies one node's delivered records to its view.
    ///
    /// Pooled, in cheapest-first order: if nothing delivered changes the
    /// content, the node keeps its handle (no work, no allocation). If
    /// the node is the sole owner of its entry (an ideal CP's shared row,
    /// or a lossy node whose stale view nobody else holds), the entry is
    /// edited in place and re-deduplicated — no copy. Only a genuinely
    /// shared entry forks: copy the content into the staging buffer,
    /// install the deltas, release the old handle and acquire the
    /// (possibly already existing) entry for the new content.
    fn apply(&mut self, row: usize, delivery: &[StatusRecord]) {
        match self {
            ViewStore::Pooled {
                pool,
                handles,
                staging,
            } => {
                let handle = handles[row];
                let current = pool.view(handle);
                if delivery
                    .iter()
                    .all(|rec| current.record(rec.device) == Some(rec))
                {
                    return;
                }
                if pool.is_sole_owner(handle) {
                    handles[row] = pool.update_sole_owner(handle, |view| {
                        for rec in delivery {
                            view.refresh(*rec);
                        }
                    });
                    return;
                }
                staging.clone_from(current);
                for rec in delivery {
                    staging.refresh(*rec);
                }
                pool.release(handle);
                handles[row] = pool.acquire(staging);
            }
            ViewStore::PerNode { views } => {
                for rec in delivery {
                    views[row].refresh(*rec);
                }
            }
        }
    }

    /// Moves pooled row `row` onto row `from`'s entry. The shared round
    /// transition calls this for a row whose delivery would leave it
    /// holding exactly `from`'s content: applying would have
    /// deduplicated onto `from`'s entry (merging a sole-owned entry into
    /// it and parking the slot, or releasing a shared one and acquiring
    /// it), and retaining then releasing has the same effect on every
    /// count and on the free list.
    fn adopt(&mut self, row: usize, from: usize) {
        let ViewStore::Pooled { pool, handles, .. } = self else {
            unreachable!("only pooled rows take the shared transition");
        };
        let shared = handles[from];
        if handles[row] != shared {
            pool.retain(shared);
            pool.release(handles[row]);
            handles[row] = shared;
        }
    }

    fn view(&self, row: usize) -> &SystemView {
        match self {
            ViewStore::Pooled { pool, handles, .. } => pool.view(handles[row]),
            ViewStore::PerNode { views } => &views[row],
        }
    }
}

/// Sentinel for "this (node, origin) pair has never been refreshed".
const NEVER: u64 = u64::MAX;

/// The installed version of a `(row, origin)` pair whose record the row
/// has not installed since its version matrix was last reset. No real
/// version equals it.
const UNKNOWN: u64 = u64::MAX;

/// The version of a record installed straight from the published status.
fn direct_version(seq: u32) -> u64 {
    u64::from(seq) << 1
}

/// The version of a record decoded from a packet item. It differs from
/// [`direct_version`] of the same sequence number: the wire format rounds
/// times to whole seconds, so the two records may differ.
fn decoded_version(seq: u32) -> u64 {
    (u64::from(seq) << 1) | 1
}

/// Queues the record of `version` for a row's delivery unless entry
/// `idx` of the version matrix says the row already holds it, and
/// returns whether the row holds that version afterwards. `record` runs
/// only when the record is queued; `None` (an undecodable packet
/// payload) queues nothing and leaves the matrix as it was. An empty
/// matrix — the per-node reference store — holds nothing, so every
/// heard record is queued.
fn queue_unless_held(
    installed: &mut [u64],
    delivery: &mut Vec<StatusRecord>,
    idx: usize,
    version: u64,
    record: impl FnOnce() -> Option<StatusRecord>,
) -> bool {
    let held = installed.get_mut(idx);
    if held.as_deref() == Some(&version) {
        return true;
    }
    let Some(rec) = record() else {
        return false;
    };
    delivery.push(rec);
    if let Some(held) = held {
        *held = version;
    }
    true
}

/// The communication plane: every node's [`SystemView`], stored in a
/// content-addressed [`ViewPool`] and updated copy-on-write each round
/// according to the model (see the [module docs](self)).
pub(crate) struct CommunicationPlane {
    model: CpModel,
    state: CpState,
    store: ViewStore,
    device_count: usize,
    /// Flattened `rows × n` matrix of the round index at which each
    /// `(node, origin)` record was last refreshed ([`NEVER`] = not yet) —
    /// the per-node staleness that content-addressed views must not carry.
    last_refresh: Vec<u64>,
    /// Flattened `rows × n` matrix of the version of each `(row, origin)`
    /// record a pooled row last installed ([`UNKNOWN`] = none since the
    /// rows were built); empty under the per-node reference store. Never
    /// exported (see the [module docs](self#view-storage)).
    installed: Vec<u64>,
    /// Reusable per-node delivery buffer for the current round.
    delivery: Vec<StatusRecord>,
    rng: DetRng,
    stats: CpStats,
    round_index: u64,
    /// Per-node Gilbert–Elliott channel state (`true` = bad); empty
    /// unless the model is [`CpModel::GilbertElliott`].
    ge_bad: Vec<bool>,
    /// Whether the Ideal model was switched from its single shared row to
    /// one delivery row per node (required for fault injection, where
    /// down nodes break the "all views identical" shortcut).
    per_node_rows: bool,
    /// Nodes down this round (set by [`Self::set_round_faults`]; all-false
    /// when no fault plan is in force).
    down: Vec<bool>,
    /// Whether a correlated CP outage is in force this round.
    outage: bool,
}

impl std::fmt::Debug for CommunicationPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommunicationPlane")
            .field("model", &self.model)
            .field("rounds", &self.round_index)
            .finish()
    }
}

impl CommunicationPlane {
    /// Creates a plane over `device_count` co-located device interfaces.
    ///
    /// # Panics
    ///
    /// Panics if a packet-mode topology has fewer nodes than devices, or if
    /// a loss probability is outside `[0, 1]`.
    pub(crate) fn new(model: CpModel, device_count: usize, seed: u64) -> Self {
        let state = match &model {
            CpModel::Ideal => CpState::Abstract,
            CpModel::LossyRound { miss_probability }
            | CpModel::LossyRecord { miss_probability } => {
                assert!(
                    (0.0..=1.0).contains(miss_probability),
                    "miss probability must be in [0, 1]"
                );
                CpState::Abstract
            }
            CpModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
                    assert!(
                        (0.0..=1.0).contains(p),
                        "miss probability must be in [0, 1]"
                    );
                }
                CpState::Abstract
            }
            CpModel::Packet { st, topology } => {
                assert!(
                    topology.len() >= device_count,
                    "topology has {} nodes for {} devices",
                    topology.len(),
                    device_count
                );
                // Checked once here, not every round.
                st.validate().expect("invalid ST configuration");
                st.check_fits_round(topology.len())
                    .expect("network too large for the round period");
                CpState::Packet {
                    st: st.clone(),
                    links: minicast::LinkTable::new(&topology.rssi_matrix()),
                    stores: vec![ItemStore::new(); topology.len()],
                    last_seen: vec![vec![None; topology.len()]; topology.len()],
                    sync: SyncTracker::new(topology.len(), 20.0, st.round_period, seed),
                    scratch: minicast::RoundScratch::default(),
                    encode_buf: Vec::new(),
                }
            }
        };
        // Packet-mode accumulators live directly in `stats`, so reading
        // statistics is a borrow instead of a per-call clone.
        let mut stats = CpStats::default();
        if matches!(state, CpState::Packet { .. }) {
            stats.dissemination = Some(DisseminationStats::new());
            stats.worst_sync_error = Some(SimDuration::ZERO);
        }
        // Ideal dissemination keeps all views identical forever: one
        // shared handle row. Lossy and packet nodes each hold a handle,
        // but all start on the single empty-view pool entry.
        let rows = match &model {
            CpModel::Ideal => 1,
            _ => device_count,
        };
        let store = {
            let mut pool = ViewPool::new(device_count);
            let empty = SystemView::new(device_count);
            let handles = (0..rows).map(|_| pool.acquire(&empty)).collect();
            ViewStore::pooled(pool, handles, device_count)
        };
        let ge_bad = if matches!(model, CpModel::GilbertElliott { .. }) {
            // Every channel starts in the good state.
            vec![false; device_count]
        } else {
            Vec::new()
        };
        CommunicationPlane {
            model,
            state,
            store,
            device_count,
            last_refresh: vec![NEVER; rows * device_count],
            installed: vec![UNKNOWN; rows * device_count],
            delivery: Vec::with_capacity(device_count),
            rng: DetRng::for_stream(seed, "communication-plane"),
            stats,
            round_index: 0,
            ge_bad,
            per_node_rows: false,
            down: vec![false; device_count],
            outage: false,
        }
    }

    /// Switches the [`CpModel::Ideal`] store from its single shared
    /// delivery row to one row per node. Fault injection requires this:
    /// a down node keeps a stale view while survivors advance, so "all
    /// views identical" no longer holds. A no-op for every other model
    /// (they already deliver per node). Refresh statistics are counted
    /// per delivery row afterwards, which for fault-free rounds adds up
    /// to the same totals the shared row reports.
    ///
    /// May be called mid-run: on a fault-free Ideal plane every node's
    /// view *is* the shared row, so fanning the single entry out to one
    /// handle per node (still one resident entry — the pool is
    /// content-addressed) and replicating its refresh row is
    /// behavior-identical. The online service relies on this to keep the
    /// shared-row fast path until the first fault telemetry arrives.
    pub(crate) fn enable_per_node_rows(&mut self) {
        self.per_node_rows = true;
        let n = self.device_count;
        if self.store.rows() == n {
            return;
        }
        let (pool, handles) = match &self.store {
            ViewStore::Pooled { pool, handles, .. } => {
                let shared = pool.view(handles[0]);
                let mut fanned = ViewPool::new(n);
                let fanned_handles = (0..n).map(|_| fanned.acquire(shared)).collect();
                (fanned, fanned_handles)
            }
            // Reference views always hold one row per node, caught by
            // the early return above.
            ViewStore::PerNode { .. } => unreachable!("per-node reference views have n rows"),
        };
        self.store = ViewStore::pooled(pool, handles, n);
        let row: Vec<u64> = self.last_refresh[..n].to_vec();
        self.last_refresh = row.repeat(n);
        self.installed = vec![UNKNOWN; n * n];
    }

    /// Installs this round's fault exposure: `down[i] = true` suppresses
    /// node `i`'s publish *and* receive this round; `outage` suppresses
    /// everyone's. Call before [`Self::round`]; the flags stay in force
    /// until the next call. With everything false this is exactly
    /// the fault-free plane.
    ///
    /// # Panics
    ///
    /// Panics if `down` has the wrong length, or if a fault is injected
    /// while an Ideal plane still shares a single delivery row (call
    /// [`Self::enable_per_node_rows`] first).
    pub(crate) fn set_round_faults(&mut self, down: &[bool], outage: bool) {
        assert_eq!(down.len(), self.device_count, "one down flag per device");
        assert!(
            self.store.rows() == self.device_count || (!outage && !down.contains(&true)),
            "enable per-node delivery rows before injecting faults"
        );
        self.down.copy_from_slice(down);
        self.outage = outage;
    }

    /// Replaces the pooled store with the naive one-view-per-node layout
    /// (the paper's literal formulation) — the differential-testing and
    /// benchmarking oracle the pooled plane is proved against. Not part of
    /// the supported API surface.
    ///
    /// # Panics
    ///
    /// Panics if any round has already run.
    #[doc(hidden)]
    pub(crate) fn set_reference_views(&mut self) {
        assert_eq!(self.round_index, 0, "switch stores before the first round");
        let n = self.device_count;
        self.store = ViewStore::PerNode {
            views: vec![SystemView::new(n); n],
        };
        self.last_refresh = vec![NEVER; n * n];
        self.installed = Vec::new();
        self.stats.view_pool = None;
    }

    /// The view node `node` currently holds (possibly shared with other
    /// nodes holding identical content).
    pub(crate) fn view(&self, node: usize) -> &SystemView {
        assert!(node < self.device_count, "node out of range");
        self.store.view(self.store.row_of(node))
    }

    /// The planning-group key of node `node`'s view: two nodes return the
    /// same key **iff** their views are identical this round (they share
    /// one pool entry), so the execution plane groups nodes by this key
    /// directly instead of re-hashing views. Falls back to the node index
    /// (no sharing) in the per-node reference store.
    pub(crate) fn view_handle(&self, node: usize) -> u32 {
        assert!(node < self.device_count, "node out of range");
        match &self.store {
            ViewStore::Pooled { handles, .. } => handles[self.store.row_of(node)].id(),
            ViewStore::PerNode { .. } => node as u32,
        }
    }

    /// Rounds since node `node` last refreshed `device`'s record
    /// (0 = this round), or `None` if it never has. This is the staleness
    /// the views themselves no longer carry; it is derived from refresh
    /// rounds, so no per-round aging sweep exists anywhere.
    pub(crate) fn age(&self, node: usize, device: DeviceId) -> Option<u32> {
        assert!(node < self.device_count, "node out of range");
        assert!(device.index() < self.device_count, "device out of range");
        let row = self.store.row_of(node);
        let refreshed = self.last_refresh[row * self.device_count + device.index()];
        if refreshed == NEVER {
            return None;
        }
        let age = self.round_index.saturating_sub(1).saturating_sub(refreshed);
        Some(u32::try_from(age).unwrap_or(u32::MAX))
    }

    /// Statistics accumulated so far (a borrow — all accumulators,
    /// including packet-mode dissemination and the view-pool counters, are
    /// folded in place as rounds run, so nothing is cloned here).
    pub(crate) fn stats(&self) -> &CpStats {
        &self.stats
    }

    /// Pool churn counters `(forks, in_place_edits)` — observability
    /// only, `None` under the per-node reference store.
    pub(crate) fn pool_churn(&self) -> Option<(u64, u64)> {
        match &self.store {
            ViewStore::Pooled { pool, .. } => Some((pool.forks(), pool.in_place_edits())),
            ViewStore::PerNode { .. } => None,
        }
    }

    /// Consumes the plane, yielding owned statistics — for the one caller
    /// (the end-of-run outcome) that needs ownership.
    pub(crate) fn into_stats(self) -> CpStats {
        self.stats
    }

    /// Executes one CP round: every node publishes `statuses[i]` (version
    /// `seqs[i]`), the packet CP runs its MiniCast floods, every view row
    /// receives its delivery per the model, in row order, and the round's
    /// statistics close (see the [module docs](self#one-round)).
    ///
    /// `seqs[i]` must identify the content of `statuses[i]`: a device that
    /// publishes the same sequence number twice publishes the same record
    /// (a Device Interface bumps its version whenever its record changes).
    /// Rows skip re-applying a version they already hold.
    ///
    /// # Panics
    ///
    /// Panics if `statuses` / `seqs` lengths differ from the device count.
    pub(crate) fn round(&mut self, statuses: &[StatusRecord], seqs: &[u32]) {
        let n = self.device_count;
        assert_eq!(statuses.len(), n, "one status per device");
        assert_eq!(seqs.len(), n, "one sequence number per device");
        // Staleness is keyed by slice position (`last_refresh[node·n + i]`)
        // while view contents key by `record.device` — both only agree when
        // the slice is in device order.
        debug_assert!(
            statuses
                .iter()
                .enumerate()
                .all(|(i, r)| r.device.index() == i),
            "statuses must be ordered by device id"
        );
        let round = self.round_index;
        if let CpState::Packet {
            st,
            links,
            stores,
            sync,
            scratch,
            encode_buf,
            ..
        } = &mut self.state
        {
            // Publish: each node merges its own fresh item. A down node
            // (or everyone, during an outage) does not publish — its
            // stored item keeps its old sequence number, so survivors
            // treat it as stale rather than fresh. A store that already
            // holds `seq` (or newer) would reject the item, so it is
            // neither encoded nor built.
            for (i, (rec, &seq)) in statuses.iter().zip(seqs).enumerate() {
                let node = NodeId(i as u32);
                let held = stores[i].seq_of(node).is_some_and(|held| held >= seq);
                if self.outage || self.down[i] || held {
                    continue;
                }
                encode_buf.clear();
                rec.encode_into(encode_buf);
                stores[i].merge(&Item::new(node, seq, encode_buf.as_slice()));
            }
            let report = minicast::run_round_with(
                links,
                stores,
                NodeId(0),
                st,
                round,
                &mut self.rng,
                scratch,
            );
            self.stats
                .dissemination
                .as_mut()
                .expect("packet mode pre-seeds dissemination stats")
                .record(report);
            // The tracker covers every topology node (relay-only nodes
            // drift too), so it gets the full sync vector — not just the
            // first `n` device slots.
            sync.record_round(&report.synced);
            let worst = sync.worst_boundary_error();
            let entry = self.stats.worst_sync_error.get_or_insert(SimDuration::ZERO);
            *entry = (*entry).max(worst);
        }
        let shared_row =
            matches!(self.model, CpModel::Ideal) && !self.per_node_rows && self.store.rows() == 1;
        let refreshed = if shared_row {
            // Perfect dissemination ⇒ identical views: one delivery of
            // everything to the single shared row. Statistics count
            // node-level refreshes — every node hears every record.
            self.deliver(0, statuses, seqs, None);
            (n * n) as u64
        } else {
            // Whether every row that hears this round hears every record
            // and so ends holding exactly `statuses` (see the module
            // docs' "View storage").
            let converges = matches!(self.store, ViewStore::Pooled { .. })
                && !self.outage
                && !self.down.contains(&true)
                && matches!(
                    self.model,
                    CpModel::Ideal | CpModel::LossyRound { .. } | CpModel::GilbertElliott { .. }
                );
            let mut first_hearer = None;
            let mut refreshed = 0;
            for node in 0..n {
                let first = converges.then_some(&mut first_hearer);
                refreshed += self.deliver(node, statuses, seqs, first);
            }
            refreshed
        };
        self.round_index += 1;
        self.stats.rounds += 1;
        self.stats.refreshed_records += refreshed;
        self.stats.expected_records += (n * n) as u64;
        if refreshed == (n * n) as u64 {
            self.stats.full_rounds += 1;
        }
        if let ViewStore::Pooled { pool, .. } = &self.store {
            self.stats.view_pool = Some(pool.stats(n));
        }
    }

    /// Applies this round's delivery to node `node`'s view row and returns
    /// how many of its `(node, origin)` records were refreshed with the
    /// publisher's current version. Nodes go in order: the lossy models
    /// draw their coins here, so node order *is* the RNG order.
    ///
    /// A faulted node (down, or everyone during an outage) hears nothing
    /// but its own record, and a down origin's record reaches no one (it
    /// never published). With no fault plan both flags stay false and
    /// every draw below is the fault-free plane's.
    ///
    /// Every refresh is stamped and counted, but the row applies only the
    /// records whose version it does not hold yet. `first_hearer` is
    /// `Some` in a round where every row that hears it ends holding
    /// exactly `statuses`: the first such row records itself there and
    /// applies, every later one adopts its entry without applying (see
    /// the [module docs](self#view-storage)).
    fn deliver(
        &mut self,
        node: usize,
        statuses: &[StatusRecord],
        seqs: &[u32],
        first_hearer: Option<&mut Option<usize>>,
    ) -> u64 {
        let n = self.device_count;
        let round = self.round_index;
        let faulted = self.outage || self.down[node];
        // Whole-round coins: a missed round leaves only the own record.
        let missed = match &self.model {
            // A faulted node is not listening: no coin.
            CpModel::LossyRound { miss_probability } => {
                !faulted && self.rng.gen_bool(*miss_probability)
            }
            // The channel is physics: its state advances (and both coins
            // are drawn) every round, including rounds in which the node
            // itself is down — so the burst process is independent of the
            // fault plan.
            CpModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let bad = &mut self.ge_bad[node];
                if self
                    .rng
                    .gen_bool(if *bad { *p_bad_to_good } else { *p_good_to_bad })
                {
                    *bad = !*bad;
                }
                self.rng.gen_bool(if *bad { *loss_bad } else { *loss_good })
            }
            _ => false,
        };
        self.delivery.clear();
        let row = node * n;
        let mut refreshed = 0;
        if faulted || missed {
            // A device needs no network to know itself.
            queue_unless_held(
                &mut self.installed,
                &mut self.delivery,
                row + node,
                direct_version(seqs[node]),
                || Some(statuses[node]),
            );
            self.last_refresh[row + node] = round;
            refreshed = 1;
        } else if let CpState::Packet {
            stores, last_seen, ..
        } = &mut self.state
        {
            // Decode stored items into the view. A record counts as
            // *fresh* only when the stored version matches the
            // publisher's current sequence number; holding an older
            // version installs the newer-than-before content but the pair
            // still counts as stale for statistics. A down origin never
            // published this round, so its item keeps its old sequence
            // and fails the freshness test without any special casing
            // here. (A faulted receiver's store still accumulates flood
            // traffic, which it drains on revival.)
            //
            // `origin` indexes three parallel structures (seqs, the
            // last-seen matrix, the refresh matrix); an iterator over any
            // one of them would obscure the other two.
            #[allow(clippy::needless_range_loop)]
            for origin in 0..n {
                let Some(item) = stores[node].get(NodeId(origin as u32)) else {
                    continue;
                };
                let is_current = item.seq == seqs[origin];
                let newly = last_seen[node][origin] != Some(item.seq);
                if !(is_current || newly) {
                    continue;
                }
                // A version the row already holds was decoded before and
                // would decode to the same record: stamp it, skip the
                // decode.
                let held = queue_unless_held(
                    &mut self.installed,
                    &mut self.delivery,
                    row + origin,
                    decoded_version(item.seq),
                    || StatusRecord::decode(&item.payload).ok(),
                );
                if held {
                    last_seen[node][origin] = Some(item.seq);
                    self.last_refresh[row + origin] = round;
                    refreshed += u64::from(is_current);
                }
            }
        } else {
            if let Some(first_hearer) = first_hearer {
                // Every origin is heard: this row ends holding exactly
                // `statuses`, like the first row that heard this round.
                if let Some(first) = *first_hearer {
                    self.last_refresh[row..row + n].fill(round);
                    self.store.adopt(node, first);
                    self.installed.copy_within(first * n..first * n + n, row);
                    return n as u64;
                }
                *first_hearer = Some(node);
            }
            // Every live origin is heard. Under `LossyRecord` each live
            // foreign record also draws its own coin; a silent origin
            // transmits nothing, so it draws none.
            let record_loss = match &self.model {
                CpModel::LossyRecord { miss_probability } => Some(*miss_probability),
                _ => None,
            };
            for (origin, rec) in statuses.iter().enumerate() {
                let heard = origin == node
                    || (!self.down[origin] && !record_loss.is_some_and(|p| self.rng.gen_bool(p)));
                if heard {
                    queue_unless_held(
                        &mut self.installed,
                        &mut self.delivery,
                        row + origin,
                        direct_version(seqs[origin]),
                        || Some(*rec),
                    );
                    self.last_refresh[row + origin] = round;
                    refreshed += 1;
                }
            }
        }
        self.store.apply(node, &self.delivery);
        refreshed
    }

    /// Captures the plane's full between-rounds state for a checkpoint.
    /// A round runs in one call, so the plane is always between rounds;
    /// the per-round fault flags are re-derived from the fault plan on
    /// resume. Everything reconstructible from the configuration
    /// (topology RSSI, crystal drifts, ST parameters) is deliberately
    /// absent.
    pub(crate) fn export(&self) -> CpExport {
        let n = self.device_count;
        let store = match &self.store {
            ViewStore::Pooled { pool, handles, .. } => StoreExport::Pooled {
                pool: pool.export(),
                handles: handles.iter().map(|h| h.id()).collect(),
            },
            ViewStore::PerNode { views } => StoreExport::PerNode {
                views: views
                    .iter()
                    .map(|v| {
                        (0..n)
                            .map(|d| v.record(DeviceId(d as u32)).copied())
                            .collect()
                    })
                    .collect(),
            },
        };
        let packet = match &self.state {
            CpState::Packet {
                stores,
                last_seen,
                sync,
                ..
            } => Some(PacketExport {
                items: stores
                    .iter()
                    .map(|s| {
                        s.iter()
                            .map(|item| (item.origin.0, item.seq, item.payload.as_ref().to_vec()))
                            .collect()
                    })
                    .collect(),
                last_seen: last_seen.clone(),
                staleness: sync.staleness_snapshot().to_vec(),
            }),
            CpState::Abstract => None,
        };
        CpExport {
            rng: self.rng.state(),
            round_index: self.round_index,
            stats: self.stats.clone(),
            last_refresh: self.last_refresh.clone(),
            ge_bad: self.ge_bad.clone(),
            per_node_rows: self.per_node_rows,
            store,
            packet,
        }
    }

    /// Overwrites this freshly built plane's dynamic state with an
    /// [`export`](CommunicationPlane::export)ed one, after checking that
    /// the export has the shape this plane's configuration builds (store
    /// kind and rows, freshness matrix, channel states, packet stores,
    /// record ids). The result continues bit-identically to the plane
    /// that was exported.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Inconsistent`] naming the first shape that
    /// does not match.
    pub(crate) fn restore(&mut self, export: &CpExport) -> Result<(), CheckpointError> {
        let n = self.device_count;
        // Delivery rows follow from the model and the exported flag, not
        // from this plane: an online run that ingested a CP fault without
        // a CP in use never fanned out, though a fresh build would.
        let rows = match (&self.model, &export.store) {
            (CpModel::Ideal, StoreExport::Pooled { .. }) if !export.per_node_rows => 1,
            _ => n,
        };
        ensure(export.last_refresh.len() == rows * n, || {
            format!(
                "{} freshness entries for {rows} rows of {n}",
                export.last_refresh.len()
            )
        })?;
        ensure(export.ge_bad.len() == self.ge_bad.len(), || {
            format!(
                "{} channel states for {} expected",
                export.ge_bad.len(),
                self.ge_bad.len()
            )
        })?;
        ensure(
            export.stats.refreshed_records <= export.stats.expected_records,
            || "more records refreshed than expected".into(),
        )?;
        self.store = match (&export.store, &self.store) {
            (StoreExport::Pooled { pool, handles }, ViewStore::Pooled { .. }) => {
                ensure(handles.len() == rows, || {
                    format!("{} view handles for {rows} delivery rows", handles.len())
                })?;
                ViewStore::pooled(
                    ViewPool::restore(n, pool, handles)?,
                    handles.iter().map(|&id| ViewHandle::from_id(id)).collect(),
                    n,
                )
            }
            (StoreExport::PerNode { views }, ViewStore::PerNode { .. }) => {
                ensure(views.len() == rows, || {
                    format!("{} per-node views for {rows} nodes", views.len())
                })?;
                ViewStore::PerNode {
                    views: views
                        .iter()
                        .map(|records| SystemView::restore(n, records))
                        .collect::<Result<_, _>>()?,
                }
            }
            _ => {
                return Err(CheckpointError::Inconsistent {
                    reason: "view store kind differs from this configuration's".into(),
                })
            }
        };
        match (&export.packet, &mut self.state) {
            (None, CpState::Abstract) => {}
            (
                Some(packet),
                CpState::Packet {
                    stores,
                    last_seen,
                    sync,
                    ..
                },
            ) => {
                let t = stores.len();
                ensure(
                    packet.items.len() == t
                        && packet.staleness.len() == t
                        && packet.last_seen.len() == t
                        && packet.last_seen.iter().all(|row| row.len() == t),
                    || format!("packet state is not shaped for a {t}-node topology"),
                )?;
                for (store, items) in stores.iter_mut().zip(&packet.items) {
                    store.clear();
                    for (origin, seq, payload) in items {
                        // Delivery decodes stored payloads into views:
                        // each must be its origin device's own record.
                        let own = StatusRecord::decode(payload)
                            .map_or(true, |rec| rec.device.0 == *origin);
                        ensure((*origin as usize) < n && own, || {
                            format!("packet item from node {origin} outside the fleet")
                        })?;
                        store.merge(&Item::new(NodeId(*origin), *seq, payload.as_slice()));
                    }
                }
                last_seen.clone_from(&packet.last_seen);
                sync.restore_staleness(&packet.staleness);
            }
            _ => {
                return Err(CheckpointError::Inconsistent {
                    reason: "packet state present without a packet model, or missing".into(),
                })
            }
        }
        self.per_node_rows = export.per_node_rows;
        self.last_refresh.clone_from(&export.last_refresh);
        self.installed = match self.store {
            ViewStore::Pooled { .. } => vec![UNKNOWN; rows * n],
            ViewStore::PerNode { .. } => Vec::new(),
        };
        self.rng = DetRng::from_state(export.rng);
        self.round_index = export.round_index;
        self.stats = export.stats.clone();
        self.ge_bad.clone_from(&export.ge_bad);
        Ok(())
    }
}

/// The checkpointable state of a [`CommunicationPlane`] — see
/// [`CommunicationPlane::export`].
#[derive(Debug, Clone)]
pub(crate) struct CpExport {
    pub(crate) rng: [u64; 4],
    pub(crate) round_index: u64,
    pub(crate) stats: CpStats,
    pub(crate) last_refresh: Vec<u64>,
    pub(crate) ge_bad: Vec<bool>,
    pub(crate) per_node_rows: bool,
    pub(crate) store: StoreExport,
    pub(crate) packet: Option<PacketExport>,
}

/// Exported view storage: the pool's exact structure, or the per-node
/// reference views.
#[derive(Debug, Clone)]
pub(crate) enum StoreExport {
    Pooled {
        pool: crate::pool::ViewPoolExport,
        handles: Vec<u32>,
    },
    PerNode {
        views: Vec<Vec<Option<StatusRecord>>>,
    },
}

/// Packet-mode extras: per-node item stores, the freshness matrix and the
/// sync-staleness counters (crystal drifts are redrawn from the seed).
#[derive(Debug, Clone)]
pub(crate) struct PacketExport {
    /// Per node: `(origin, seq, payload)` for every stored item.
    pub(crate) items: Vec<Vec<(u32, u32, Vec<u8>)>>,
    pub(crate) last_seen: Vec<Vec<Option<u32>>>,
    pub(crate) staleness: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_sim::time::{SimDuration, SimTime};

    fn statuses(n: usize, on_mask: u64) -> Vec<StatusRecord> {
        (0..n)
            .map(|i| StatusRecord {
                on: on_mask & (1 << i) != 0,
                active: true,
                deadline: Some(SimTime::from_mins(30)),
                arrival: Some(SimTime::ZERO),
                owed: han_sim::time::SimDuration::from_mins(15),
                ..StatusRecord::idle(DeviceId(i as u32))
            })
            .collect()
    }

    #[test]
    fn ideal_delivers_everything() {
        let mut cp = CommunicationPlane::new(CpModel::Ideal, 4, 1);
        cp.round(&statuses(4, 0b0101), &[1; 4]);
        for node in 0..4 {
            for dev in 0..4u32 {
                let rec = cp.view(node).record(DeviceId(dev)).expect("record");
                assert_eq!(rec.on, dev % 2 == 0);
                assert_eq!(cp.age(node, DeviceId(dev)), Some(0));
            }
        }
        assert_eq!(cp.stats().delivery_rate(), 1.0);
        assert_eq!(cp.stats().full_round_rate(), 1.0);
    }

    #[test]
    fn ideal_cp_stores_exactly_one_view() {
        let mut cp = CommunicationPlane::new(CpModel::Ideal, 8, 1);
        for round in 0..20 {
            // Content changes every round (different on-mask), so the
            // shared view forks and re-deduplicates each time — the pool
            // must still never hold more than the one live entry.
            cp.round(&statuses(8, round % 7), &[round as u32 + 1; 8]);
            let pool = cp.stats().view_pool.expect("pooled store");
            assert_eq!(pool.live_views, 1, "ideal CP shares one view");
            assert_eq!(pool.peak_views, 1);
        }
        for node in 0..8 {
            assert_eq!(cp.view_handle(node), cp.view_handle(0));
        }
    }

    #[test]
    fn lossy_round_keeps_stale_views() {
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 0.5,
            },
            6,
            3,
        );
        for _ in 0..50 {
            cp.round(&statuses(6, 0), &[1; 6]);
        }
        let stats = cp.stats();
        let rate = stats.delivery_rate();
        assert!(rate > 0.4 && rate < 0.75, "delivery rate {rate}");
        assert!(stats.full_round_rate() < 0.2);
    }

    #[test]
    fn lossy_pool_stays_bounded_and_dedups() {
        let n = 10;
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 0.4,
            },
            n,
            7,
        );
        let mut peak = 0;
        for round in 0..500u64 {
            // Churn the content so views genuinely fork and reconverge.
            cp.round(&statuses(n, round % 11), &vec![round as u32 + 1; n]);
            let pool = cp.stats().view_pool.expect("pooled store");
            assert!(
                pool.live_views <= n,
                "live views can never exceed node count"
            );
            // Reclamation bound: slots = live entries + parked buffers; a
            // run can never allocate more slots than its peak concurrent
            // distinct views plus the one transient a fork holds.
            assert!(
                pool.slots <= pool.peak_views + 1,
                "slots {} vs peak {}: reclaimed entries must be reused",
                pool.slots,
                pool.peak_views
            );
            peak = pool.peak_views;
        }
        // The whole point: most nodes share a handful of distinct views.
        assert!(peak < n, "peak distinct views {peak} should stay below {n}");
        // Nodes that heard the last round share one entry: count handles.
        let distinct: std::collections::HashSet<u32> =
            (0..n).map(|node| cp.view_handle(node)).collect();
        let pool = cp.stats().view_pool.expect("pooled store");
        assert_eq!(distinct.len(), pool.live_views);
    }

    #[test]
    fn equal_handles_mean_equal_views() {
        let n = 8;
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRecord {
                miss_probability: 0.3,
            },
            n,
            11,
        );
        for round in 0..40u64 {
            cp.round(&statuses(n, round % 5), &vec![round as u32 + 1; n]);
            for a in 0..n {
                for b in (a + 1)..n {
                    let same_handle = cp.view_handle(a) == cp.view_handle(b);
                    let same_content = cp.view(a) == cp.view(b);
                    assert_eq!(
                        same_handle, same_content,
                        "handles group exactly by content (nodes {a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn own_record_always_fresh_under_loss() {
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 1.0,
            },
            3,
            1,
        );
        for r in 0..5 {
            cp.round(&statuses(3, 0), &[r; 3]);
        }
        for node in 0..3 {
            assert_eq!(
                cp.age(node, DeviceId(node as u32)),
                Some(0),
                "own record must never go stale"
            );
        }
    }

    #[test]
    fn ages_count_rounds_since_refresh() {
        // Lossless rounds keep every age at zero (and `None` before any
        // round has run); `round_stamped_ages` below covers nonzero ages.
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 0.0,
            },
            3,
            1,
        );
        assert_eq!(cp.age(0, DeviceId(1)), None, "nothing refreshed yet");
        cp.round(&statuses(3, 0), &[1; 3]);
        assert_eq!(cp.age(0, DeviceId(1)), Some(0));
        for device in 0..3 {
            assert_eq!(cp.age(0, DeviceId(device)), Some(0), "device {device}");
        }
        // A reference-store plane derives identical ages.
        let mut reference = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 0.0,
            },
            3,
            1,
        );
        reference.set_reference_views();
        reference.round(&statuses(3, 0), &[1; 3]);
        assert_eq!(reference.age(0, DeviceId(1)), Some(0));
    }

    #[test]
    fn round_stamped_ages() {
        // Publish records whose content encodes the round that produced
        // them (`owed = round + 1` minutes), so every held record reveals
        // when its node last heard that origin — `age` must agree exactly,
        // including the rounds a node spent deaf.
        let n = 5;
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 0.5,
            },
            n,
            9,
        );
        let mut saw_stale_record = false;
        for round in 0..30u64 {
            let st: Vec<StatusRecord> = (0..n)
                .map(|i| StatusRecord {
                    active: true,
                    owed: SimDuration::from_mins(round + 1),
                    deadline: Some(SimTime::from_mins(90)),
                    ..StatusRecord::idle(DeviceId(i as u32))
                })
                .collect();
            cp.round(&st, &vec![round as u32 + 1; n]);
            for node in 0..n {
                for dev in 0..n {
                    let Some(rec) = cp.view(node).record(DeviceId(dev as u32)) else {
                        continue;
                    };
                    let published_round = rec.owed.as_micros() / 60_000_000 - 1;
                    let expected = u32::try_from(round - published_round).expect("past round");
                    assert_eq!(
                        cp.age(node, DeviceId(dev as u32)),
                        Some(expected),
                        "round {round}, node {node}, dev {dev}"
                    );
                    saw_stale_record |= expected > 0;
                }
            }
        }
        assert!(
            saw_stale_record,
            "p=0.5 over 30 rounds must leave some record stale, \
             or this test never exercised nonzero ages"
        );
    }

    #[test]
    fn pooled_and_reference_stores_hold_identical_contents() {
        // Every abstract model against the per-node reference store, which
        // takes neither the shared transition nor the version skip. Node 2
        // is down in rounds 10–14, nodes 4 and 5 in round 20, and round 30
        // is an outage; every other round is fault-free, which is where
        // the shared transition applies.
        let n = 7;
        let models = [
            (
                "lossy-record",
                CpModel::LossyRecord {
                    miss_probability: 0.35,
                },
            ),
            (
                "lossy-round",
                CpModel::LossyRound {
                    miss_probability: 0.35,
                },
            ),
            (
                "gilbert-elliott",
                CpModel::GilbertElliott {
                    p_good_to_bad: 0.2,
                    p_bad_to_good: 0.4,
                    loss_good: 0.05,
                    loss_bad: 0.9,
                },
            ),
            ("ideal, per-node rows", CpModel::Ideal),
        ];
        for (name, model) in models {
            let make = || {
                let mut cp = CommunicationPlane::new(model.clone(), n, 13);
                cp.enable_per_node_rows();
                cp
            };
            let mut pooled = make();
            let mut reference = make();
            reference.set_reference_views();
            let mut published: Vec<Option<StatusRecord>> = vec![None; n];
            let mut seqs = vec![0u32; n];
            for round in 0..60u64 {
                let mut down = vec![false; n];
                down[2] = (10..15).contains(&round);
                down[4] = round == 20;
                down[5] = round == 20;
                let outage = round == 30;
                pooled.set_round_faults(&down, outage);
                reference.set_round_faults(&down, outage);
                // Devices 4–6 never change. Like a Device Interface, a
                // device bumps its version only when its record changes,
                // so unchanged records keep their versions.
                let st = statuses(n, round % 9);
                for (i, rec) in st.iter().enumerate() {
                    if published[i] != Some(*rec) {
                        published[i] = Some(*rec);
                        seqs[i] += 1;
                    }
                }
                pooled.round(&st, &seqs);
                reference.round(&st, &seqs);
                for node in 0..n {
                    assert_eq!(
                        pooled.view(node),
                        reference.view(node),
                        "{name}, round {round}, node {node}: pooling must be content-invisible"
                    );
                    for dev in 0..n {
                        assert_eq!(
                            pooled.age(node, DeviceId(dev as u32)),
                            reference.age(node, DeviceId(dev as u32)),
                            "{name}, round {round}: staleness must match too"
                        );
                    }
                    for other in 0..n {
                        assert_eq!(
                            pooled.view_handle(node) == pooled.view_handle(other),
                            reference.view(node) == reference.view(other),
                            "{name}, round {round}: handles group nodes {node} and {other} \
                             exactly by content"
                        );
                    }
                }
            }
            assert_eq!(
                (pooled.stats().refreshed_records, pooled.stats().full_rounds),
                (
                    reference.stats().refreshed_records,
                    reference.stats().full_rounds
                ),
                "{name}: refresh counts"
            );
        }
    }

    #[test]
    fn lossy_record_partial_delivery() {
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRecord {
                miss_probability: 0.3,
            },
            5,
            2,
        );
        for _ in 0..50 {
            cp.round(&statuses(5, 0), &[1; 5]);
        }
        let rate = cp.stats().delivery_rate();
        // Own records (1/5 of pairs) always deliver: expected ≈ 0.2 + 0.8·0.7.
        assert!((rate - 0.76).abs() < 0.05, "delivery rate {rate}");
    }

    #[test]
    fn packet_mode_delivers_on_testbed() {
        let mut cp = CommunicationPlane::new(CpModel::paper_packet(1), 26, 7);
        let st = statuses(26, 0b1010);
        for r in 0..3 {
            cp.round(&st, &[r + 1; 26]);
        }
        let stats = cp.stats();
        assert!(
            stats.delivery_rate() > 0.9,
            "packet delivery {}",
            stats.delivery_rate()
        );
        // Packet mode pools views like any other non-ideal model.
        let pool = stats.view_pool.expect("pooled store");
        assert!(pool.peak_views <= 26);
        // All-to-all sharing of 26 aggregates every 2 s keeps the radio on
        // for roughly half the round — the honest cost of a 2-second
        // all-to-all cadence at this network size.
        let dc = stats
            .dissemination
            .as_ref()
            .expect("packet mode")
            .duty_cycle(SimDuration::from_secs(2));
        assert!(dc > 0.0 && dc < 0.8, "radio duty cycle {dc}");
    }

    #[test]
    fn gilbert_elliott_hits_stationary_loss_rate() {
        // π_bad = p_gb / (p_gb + p_bg) = 0.1 / 0.4 = 0.25. With
        // loss_good = 0 and loss_bad = 1 a node misses exactly the rounds
        // its channel spends bad, so per-node delivery is
        // π_good·n + π_bad·1 out of n records.
        let n = 4;
        let mut cp = CommunicationPlane::new(
            CpModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            n,
            5,
        );
        let rounds = 4000u64;
        for r in 0..rounds {
            cp.round(&statuses(n, r % 3), &vec![r as u32 + 1; n]);
        }
        let expected = (0.75 * n as f64 + 0.25) / n as f64;
        let rate = cp.stats().delivery_rate();
        assert!(
            (rate - expected).abs() < 0.03,
            "stationary delivery {rate}, expected {expected}"
        );
        // Burstiness: misses must clump (a bad state persists ~1/0.3 ≈ 3
        // rounds), so full rounds are rarer than an independent model with
        // the same marginal loss would give — just sanity-check the two
        // extremes are both exercised.
        assert!(cp.stats().full_rounds > 0, "good stretches exist");
        assert!(cp.stats().full_rounds < rounds, "bad stretches exist too");
    }

    #[test]
    #[should_panic(expected = "miss probability")]
    fn gilbert_elliott_validates_probabilities() {
        CommunicationPlane::new(
            CpModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 1.3,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            3,
            1,
        );
    }

    #[test]
    fn down_node_neither_publishes_nor_receives() {
        const N: usize = 4;
        let mut cp = CommunicationPlane::new(CpModel::Ideal, N, 1);
        cp.enable_per_node_rows();
        let mut down = vec![false; N];
        cp.round(&statuses(N, 0b1111), &[1; N]);
        // Round 2: node 2 is down; everyone publishes a different mask.
        down[2] = true;
        cp.set_round_faults(&down, false);
        cp.round(&statuses(N, 0b0000), &[2; N]);
        // The down node kept its round-1 view of others but sees its own
        // fresh record.
        assert!(cp.view(2).record(DeviceId(0)).unwrap().on, "stale");
        assert!(!cp.view(2).record(DeviceId(2)).unwrap().on, "own is fresh");
        assert_eq!(cp.age(2, DeviceId(0)), Some(1));
        assert_eq!(cp.age(2, DeviceId(2)), Some(0));
        // Survivors hold the down node's ghost record from round 1.
        assert!(cp.view(0).record(DeviceId(2)).unwrap().on, "ghost record");
        assert_eq!(cp.age(0, DeviceId(2)), Some(1));
        assert!(!cp.view(0).record(DeviceId(1)).unwrap().on, "live is fresh");
        // Revival: the node catches up the next round.
        down[2] = false;
        cp.set_round_faults(&down, false);
        cp.round(&statuses(N, 0b0000), &[3; N]);
        assert!(!cp.view(2).record(DeviceId(0)).unwrap().on);
        assert_eq!(cp.age(0, DeviceId(2)), Some(0));
    }

    #[test]
    fn outage_freezes_everyone() {
        const N: usize = 3;
        let mut cp = CommunicationPlane::new(
            CpModel::LossyRecord {
                miss_probability: 0.2,
            },
            N,
            3,
        );
        cp.round(&statuses(N, 0b111), &[1; N]);
        cp.set_round_faults(&[false; N], true);
        cp.round(&statuses(N, 0b000), &[2; N]);
        for node in 0..N {
            for dev in 0..N as u32 {
                let rec = cp.view(node).record(DeviceId(dev)).unwrap();
                if dev as usize == node {
                    assert!(!rec.on, "own record refreshed during outage");
                } else {
                    assert!(rec.on, "foreign records frozen during outage");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "enable per-node delivery rows")]
    fn ideal_shared_row_rejects_faults() {
        let mut cp = CommunicationPlane::new(CpModel::Ideal, 3, 1);
        cp.set_round_faults(&[true, false, false], false);
    }

    #[test]
    fn packet_down_origin_goes_stale_for_survivors() {
        const N: usize = 5;
        let mut cp = CommunicationPlane::new(CpModel::paper_packet(1), N, 7);
        cp.round(&statuses(N, 0b11111), &[1; N]);
        let mut down = vec![false; N];
        down[1] = true;
        cp.set_round_faults(&down, false);
        cp.round(&statuses(N, 0b00000), &[2; N]);
        // Node 1 published nothing: survivors still hold its round-1 item.
        assert!(cp.view(0).record(DeviceId(1)).unwrap().on, "stale item");
        assert!(cp.age(0, DeviceId(1)).unwrap() >= 1);
        // The down node received only itself.
        assert!(!cp.view(1).record(DeviceId(1)).unwrap().on);
        assert_eq!(cp.age(1, DeviceId(1)), Some(0));
    }

    #[test]
    fn a_published_record_never_passes_for_its_packet_decode() {
        // Node 0 owes 90.5 s, which the 23-byte wire format rounds down
        // to 90 s. Down in round 1, it installs its own record straight
        // from its status; up in round 2 with the same version, it must
        // install what its packet item decodes to, as the reference store
        // (which applies every decode) does.
        const N: usize = 3;
        let mut st = statuses(N, 0);
        st[0].owed = SimDuration::from_micros(90_500_000);
        let make = || CommunicationPlane::new(CpModel::paper_packet(1), N, 7);
        let mut pooled = make();
        let mut reference = make();
        reference.set_reference_views();
        for down in [true, false] {
            for cp in [&mut pooled, &mut reference] {
                cp.set_round_faults(&[down, false, false], false);
                cp.round(&st, &[1; N]);
            }
            assert_eq!(pooled.view(0), reference.view(0), "node 0 down: {down}");
        }
        let own = pooled.view(0).record(DeviceId(0)).expect("own record");
        assert_eq!(own.owed, SimDuration::from_secs(90), "the decoded record");
    }

    #[test]
    fn export_restore_continues_bit_identically() {
        let run = |split: Option<u64>| {
            let model = CpModel::GilbertElliott {
                p_good_to_bad: 0.2,
                p_bad_to_good: 0.4,
                loss_good: 0.05,
                loss_bad: 0.9,
            };
            let mut cp = CommunicationPlane::new(model.clone(), 5, 11);
            for r in 0..40u64 {
                if split == Some(r) {
                    let export = cp.export();
                    cp = CommunicationPlane::new(model.clone(), 5, 11);
                    cp.restore(&export).expect("consistent export");
                }
                cp.round(&statuses(5, r % 6), &[r as u32 + 1; 5]);
            }
            let views: Vec<SystemView> = (0..5).map(|i| cp.view(i).clone()).collect();
            let ages: Vec<Option<u32>> = (0..5)
                .flat_map(|i| (0..5).map(move |d| (i, d)))
                .map(|(i, d)| cp.age(i, DeviceId(d)))
                .collect();
            let s = cp.stats().clone();
            (views, ages, (s.rounds, s.refreshed_records, s.full_rounds))
        };
        let uninterrupted = run(None);
        let resumed = run(Some(17));
        assert_eq!(uninterrupted.0, resumed.0, "views");
        assert_eq!(uninterrupted.1, resumed.1, "ages");
        assert_eq!(uninterrupted.2, resumed.2, "stats");
    }

    #[test]
    #[should_panic(expected = "miss probability")]
    fn bad_probability_panics() {
        CommunicationPlane::new(
            CpModel::LossyRound {
                miss_probability: 1.5,
            },
            3,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "one status per device")]
    fn wrong_status_count_panics() {
        let mut cp = CommunicationPlane::new(CpModel::Ideal, 3, 1);
        cp.round(&statuses(2, 0), &[1; 2]);
    }
}
