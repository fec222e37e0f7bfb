//! Ethtool-style hierarchical hardware counters.
//!
//! Real mlx5 debugging runs on `ethtool -S` / `devlink`: per-queue,
//! per-QP, per-function hardware counters, not aggregate stage
//! latencies. This module is that surface for the simulation: a
//! [`CounterTree`] holds named monotonic counters under `/`-separated
//! paths (`port/0/queue/3/tx/packets`, `qp/256/retransmits`,
//! `pcie/fn/0/completion_timeouts`, `faults/fld/drop`), components
//! resolve a [`Counter`] handle **once** at wiring time, and the hot
//! path pays a single relaxed atomic add per increment — no string
//! hashing, no map lookup, no lock.
//!
//! A component's handle is the only store of the count it names: the
//! component keeps a [`Counter::detached`] handle from construction,
//! moves it into the tree with [`Counter::wire_into`] at wiring time,
//! and its accessors read the handle. A [`CounterSnapshot`] freezes the
//! tree for export: a versioned JSON dump plus an `ethtool -S`-style
//! text rendering.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{JsonWriter, SCHEMA_VERSION};

/// A pre-resolved handle on one counter cell.
///
/// Cloning shares the cell. Increments are relaxed atomic adds —
/// deterministic in the single-threaded engine loop, and safe to carry
/// across the sweep-runner threads. A [`Counter::detached`] handle
/// counts into a private cell nobody reads, so components stay fully
/// functional (and unit-testable) before anything wires them.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not registered in any tree (the pre-wiring default).
    pub fn detached() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Moves this handle into `tree` at `path`: registers the path,
    /// carries over whatever was counted while detached, and points the
    /// handle at the tree's cell. Wiring-time only.
    ///
    /// The path must be new to `tree` (checked by `debug_assert!`): the
    /// handle is the only store of its count, so two owners wired onto
    /// one path would silently merge their counts.
    pub fn wire_into(&mut self, tree: &CounterTree, path: &str) {
        debug_assert!(
            tree.get(path).is_none(),
            "counter path {path:?} is already registered"
        );
        let wired = tree.counter(path);
        wired.add(self.get());
        *self = wired;
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::detached()
    }
}

/// The per-entity counter registry: `/`-separated paths to shared
/// cells, in sorted order.
///
/// Cloning yields another handle on the same tree (a system hands it to
/// every component it wires). Every tree method takes the lock —
/// registration, [`CounterTree::get`], the sums and
/// [`CounterTree::snapshot`]; increments through the returned
/// [`Counter`] never do.
///
/// The sums the auditor runs at every flight-recorder tick are served
/// from a cache of resolved counter groups: the first
/// [`CounterTree::sum_prefix`] or [`CounterTree::sum_leaf`] query for a
/// `(prefix, leaf)` pair collects the matching cells once, and later
/// queries load just those cells. Registering a new path bumps the
/// tree's generation, and a group resolved under an older generation is
/// collected again on its next query, so paths registered after the
/// first tick (new flows, late-wired entities) are never missed.
#[derive(Debug, Clone, Default)]
pub struct CounterTree {
    inner: Arc<Mutex<Registry>>,
}

#[derive(Debug, Default)]
struct Registry {
    paths: BTreeMap<String, Arc<AtomicU64>>,
    /// Bumped by every registration of a new path.
    generation: u64,
    /// Resolved groups by prefix: the whole subtree, and per leaf.
    groups: HashMap<String, PrefixGroups>,
}

#[derive(Debug, Default)]
struct PrefixGroups {
    whole: Group,
    by_leaf: HashMap<String, Group>,
}

/// The cells one sum reads, as of `generation`. The default — no
/// cells at generation 0 — is exact for a tree with nothing registered.
#[derive(Debug, Default)]
struct Group {
    generation: u64,
    cells: Vec<Arc<AtomicU64>>,
}

impl CounterTree {
    /// An empty tree.
    pub fn new() -> CounterTree {
        CounterTree::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().expect("counter tree poisoned")
    }

    /// Resolves `path` to a handle, registering an empty counter on
    /// first use. Wiring-time only: the handle is what the hot path
    /// increments.
    ///
    /// # Panics
    ///
    /// Panics on a malformed path (empty, leading/trailing `/`, or an
    /// empty segment) — counter names are compiled-in, so this is a
    /// programming error, not input validation.
    pub fn counter(&self, path: &str) -> Counter {
        assert!(
            !path.is_empty()
                && !path.starts_with('/')
                && !path.ends_with('/')
                && !path.contains("//"),
            "malformed counter path {path:?}"
        );
        let mut reg = self.lock();
        let reg = &mut *reg;
        let cell = match reg.paths.entry(path.to_string()) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                reg.generation += 1;
                Arc::clone(e.insert(Arc::new(AtomicU64::new(0))))
            }
        };
        Counter { cell }
    }

    /// The value at `path`, if registered.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.lock()
            .paths
            .get(path)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.lock().paths.len()
    }

    /// Whether no counter is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().paths.is_empty()
    }

    /// Sum of every counter at or below `prefix` (`prefix` itself, or
    /// `prefix/...`).
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.lock().sum_group(prefix, None)
    }

    /// Sum of every counter below `prefix` whose last segment is
    /// `leaf` — e.g. `sum_leaf("faults", "drop")` totals
    /// `faults/<entity>/drop` across entities.
    pub fn sum_leaf(&self, prefix: &str, leaf: &str) -> u64 {
        self.lock().sum_group(prefix, Some(leaf))
    }

    /// Freezes the tree into a sorted snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            entries: self
                .lock()
                .paths
                .iter()
                .map(|(path, c)| (path.clone(), c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Registry {
    /// Sums the cached group for `(prefix, leaf)` (`leaf: None` is the
    /// whole subtree), collecting it first if it is older than the
    /// newest registration. A hit allocates nothing.
    fn sum_group(&mut self, prefix: &str, leaf: Option<&str>) -> u64 {
        let Registry {
            paths,
            generation,
            groups,
        } = self;
        let by_prefix = get_or_default(groups, prefix);
        let group = match leaf {
            None => &mut by_prefix.whole,
            Some(leaf) => get_or_default(&mut by_prefix.by_leaf, leaf),
        };
        group.sum(paths, *generation, prefix, leaf)
    }
}

/// The value under `key`, inserted as the default on first use. Looks
/// up by `&str`, so only a miss allocates the key.
fn get_or_default<'a, V: Default>(map: &'a mut HashMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

impl Group {
    fn sum(
        &mut self,
        paths: &BTreeMap<String, Arc<AtomicU64>>,
        generation: u64,
        prefix: &str,
        leaf: Option<&str>,
    ) -> u64 {
        if self.generation != generation {
            // Every path under `prefix` sorts in one run starting at
            // `prefix` itself; the scan ends at the first path that no
            // longer starts with it.
            self.cells.clear();
            self.cells.extend(
                paths
                    .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                    .take_while(|(path, _)| path.starts_with(prefix))
                    .filter(|(path, _)| {
                        under_prefix(path, prefix) && leaf.is_none_or(|l| ends_in_leaf(path, l))
                    })
                    .map(|(_, c)| Arc::clone(c)),
            );
            self.generation = generation;
        }
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Whether the last `/`-separated segment of `path` is `leaf`.
fn ends_in_leaf(path: &str, leaf: &str) -> bool {
    path.strip_suffix(leaf)
        .is_some_and(|head| head.ends_with('/'))
}

fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// A frozen, sorted copy of a [`CounterTree`]: what experiments attach
/// to reports, dumps serialize, and goldens pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    entries: Vec<(String, u64)>,
}

impl CounterSnapshot {
    /// An empty snapshot (for systems that never wired counters).
    pub fn new() -> CounterSnapshot {
        CounterSnapshot::default()
    }

    /// The `(path, value)` entries in sorted path order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// The value at `path`, if present.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Sum of every entry at or below `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(path, _)| under_prefix(path, prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Whether the snapshot holds no counters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of counters captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Writes the snapshot into `w` as one flat JSON object
    /// (`{"path": value, ...}` in sorted order).
    pub fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (path, value) in &self.entries {
            w.field_u64(path, *value);
        }
        w.end_object();
    }

    /// A standalone versioned JSON document for this snapshot alone
    /// (multi-run dumps go through [`write_dump`]).
    pub fn to_json(&self, label: &str) -> String {
        write_dump("counters", &[(label.to_string(), self.clone())])
    }

    /// `ethtool -S`-style text rendering: a header naming the entity,
    /// then one indented `path: value` line per counter.
    pub fn render_text(&self, title: &str) -> String {
        let mut out = format!("{title} counters ({}):", self.entries.len());
        for (path, value) in &self.entries {
            out.push_str(&format!("\n     {path}: {value}"));
        }
        out.push('\n');
        out
    }
}

/// Renders the versioned counters dump document shared by
/// `--counters`, the quickstart example and the goldens:
/// `{"schema_version": N, "experiment": ..., "counters": {label: {path: value}}}`.
pub fn write_dump(experiment: &str, runs: &[(String, CounterSnapshot)]) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("experiment", experiment);
    w.key("counters");
    w.begin_object();
    for (label, snap) in runs {
        w.key(label);
        snap.write_into(&mut w);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_increments_through_handles() {
        let tree = CounterTree::new();
        let a = tree.counter("port/0/rx/packets");
        let b = tree.counter("port/0/rx/bytes");
        a.inc();
        a.inc();
        b.add(1500);
        assert_eq!(tree.get("port/0/rx/packets"), Some(2));
        assert_eq!(tree.get("port/0/rx/bytes"), Some(1500));
        assert_eq!(tree.get("port/0/rx/nope"), None);
        assert_eq!(tree.len(), 2);
        // Re-resolving the same path shares the cell.
        tree.counter("port/0/rx/packets").inc();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn detached_counters_count_into_the_void() {
        let c = Counter::detached();
        c.add(7);
        assert_eq!(c.get(), 7);
        assert!(CounterTree::new().is_empty());
    }

    #[test]
    fn wire_into_carries_the_detached_count_into_the_tree() {
        let tree = CounterTree::new();
        let mut c = Counter::detached();
        c.add(3);
        c.wire_into(&tree, "qp/256/retransmits");
        assert_eq!(tree.get("qp/256/retransmits"), Some(3));
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn increments_after_wire_into_land_in_the_tree() {
        let tree = CounterTree::new();
        let mut c = Counter::detached();
        c.inc();
        c.wire_into(&tree, "port/0/rx/packets");
        c.add(4);
        assert_eq!(tree.get("port/0/rx/packets"), Some(5));
        assert_eq!(tree.sum_prefix("port/0"), 5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already registered")]
    fn wire_into_refuses_a_path_already_in_the_tree() {
        let tree = CounterTree::new();
        let mut first = Counter::detached();
        first.wire_into(&tree, "vf/0/rx_packets");
        let mut second = Counter::detached();
        second.wire_into(&tree, "vf/0/rx_packets");
    }

    #[test]
    #[should_panic(expected = "malformed counter path")]
    fn rejects_malformed_paths() {
        CounterTree::new().counter("a//b");
    }

    #[test]
    fn prefix_sums_respect_segment_boundaries() {
        let tree = CounterTree::new();
        tree.counter("port/0/queue/0/tx/packets").add(3);
        tree.counter("port/0/queue/1/tx/packets").add(4);
        tree.counter("port/0/queue/1/tx/drops").add(1);
        tree.counter("port/01/queue/0/tx/packets").add(100);
        assert_eq!(tree.sum_prefix("port/0"), 8);
        assert_eq!(tree.sum_prefix("port/0/queue/1"), 5);
        assert_eq!(tree.sum_prefix("port"), 108);
        assert_eq!(tree.sum_prefix("por"), 0, "not a whole segment");
    }

    #[test]
    fn leaf_sums_total_one_counter_across_entities() {
        let tree = CounterTree::new();
        tree.counter("faults/fld/drop").add(2);
        tree.counter("faults/accel/drop").add(3);
        tree.counter("faults/fld/pcie_timeout").add(9);
        assert_eq!(tree.sum_leaf("faults", "drop"), 5);
        assert_eq!(tree.sum_leaf("faults", "pcie_timeout"), 9);
        assert_eq!(tree.sum_leaf("faults", "rnr"), 0);
    }

    #[test]
    fn paths_registered_after_a_sum_join_its_group() {
        let tree = CounterTree::new();
        assert_eq!(tree.sum_prefix("port/0"), 0);
        tree.counter("port/0/queue/0/tx/packets").add(3);
        assert_eq!(tree.sum_leaf("port/0", "packets"), 3);
        assert_eq!(tree.sum_prefix("port/0"), 3);
        // A new leaf under an already-summed prefix, and a sibling whose
        // name extends the prefix's last segment.
        tree.counter("port/0/queue/1/tx/packets").add(4);
        tree.counter("port/01/queue/0/tx/packets").add(100);
        assert_eq!(tree.sum_leaf("port/0", "packets"), 7);
        assert_eq!(tree.sum_prefix("port/0"), 7);
        assert_eq!(tree.sum_prefix("port/01"), 100);
        // Cached groups read live cells: increments show without a rebuild.
        tree.counter("port/0/queue/0/tx/packets").inc();
        assert_eq!(tree.sum_prefix("port/0"), 8);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let tree = CounterTree::new();
        tree.counter("b/x").add(2);
        tree.counter("a/y").add(1);
        let snap = tree.snapshot();
        assert_eq!(
            snap.entries(),
            &[("a/y".to_string(), 1), ("b/x".to_string(), 2)]
        );
        assert_eq!(snap.get("b/x"), Some(2));
        assert_eq!(snap.get("c"), None);
        assert_eq!(snap.sum_prefix("a"), 1);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn dump_is_versioned_and_text_rendering_is_ethtool_shaped() {
        let tree = CounterTree::new();
        tree.counter("qp/256/retransmits").add(4);
        let snap = tree.snapshot();
        let json = snap.to_json("run1");
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"qp/256/retransmits\": 4"));
        let text = snap.render_text("fldr");
        assert!(text.starts_with("fldr counters (1):"));
        assert!(text.contains("\n     qp/256/retransmits: 4"));
    }
}
