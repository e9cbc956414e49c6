//! Algorithm-level work counters.
//!
//! The device model (see [`crate::DeviceModel`]) cannot infer how much work a
//! traversal kernel did from the number of work items alone — two traversals
//! of the same tree can differ by orders of magnitude in visited nodes. The
//! algorithms therefore record their dominant operations here. The counters
//! are also what the ablation benches report (e.g. distance computations
//! saved by the paper's Optimization 1).

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe work counters.
///
/// All increments are `Relaxed`: the counts are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Counters {
    /// Point-to-point distance evaluations.
    pub distance_computations: AtomicU64,
    /// Internal BVH/kd nodes popped or examined during traversals.
    pub node_visits: AtomicU64,
    /// Escape-pointer follows of the stackless rope traversal (zero for
    /// stack-based walks). A rope hop is one dependent index load; the ratio
    /// `rope_hops / node_visits` measures how often the walker exits a
    /// subtree instead of descending.
    pub rope_hops: AtomicU64,
    /// Leaf nodes tested as nearest-neighbour candidates.
    pub leaf_visits: AtomicU64,
    /// Subtrees skipped by the same-component check (Optimization 1).
    pub subtrees_skipped: AtomicU64,
    /// Tree traversals actually issued. A point whose answer is decided
    /// without walking — by its carried Borůvka state or by a bound — does
    /// not count, in the monolithic kernel and the cross-shard merge alike.
    pub queries: AtomicU64,
    /// Borůvka iterations executed.
    pub iterations: AtomicU64,
    /// Bytes moved by structured global-memory phases (sorts, label passes);
    /// an estimate fed to the device model's bandwidth term.
    pub bytes_accessed: AtomicU64,
    /// Per-thread priority-queue operations (k-NN heaps). Charged separately
    /// by the device model: on a GPU these serialize divergent lanes, which
    /// is the cost the paper blames for the k_pts growth in §4.5.
    pub heap_ops: AtomicU64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add_distance_computations(&self, n: u64) {
        self.distance_computations.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_node_visits(&self, n: u64) {
        self.node_visits.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_rope_hops(&self, n: u64) {
        self.rope_hops.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_leaf_visits(&self, n: u64) {
        self.leaf_visits.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_subtrees_skipped(&self, n: u64) {
        self.subtrees_skipped.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_iterations(&self, n: u64) {
        self.iterations.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_bytes(&self, n: u64) {
        self.bytes_accessed.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_heap_ops(&self, n: u64) {
        self.heap_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Copies the current values into a plain snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
            rope_hops: self.rope_hops.load(Ordering::Relaxed),
            leaf_visits: self.leaf_visits.load(Ordering::Relaxed),
            subtrees_skipped: self.subtrees_skipped.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            bytes_accessed: self.bytes_accessed.load(Ordering::Relaxed),
            heap_ops: self.heap_ops.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.distance_computations.store(0, Ordering::Relaxed);
        self.node_visits.store(0, Ordering::Relaxed);
        self.rope_hops.store(0, Ordering::Relaxed);
        self.leaf_visits.store(0, Ordering::Relaxed);
        self.subtrees_skipped.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.iterations.store(0, Ordering::Relaxed);
        self.bytes_accessed.store(0, Ordering::Relaxed);
        self.heap_ops.store(0, Ordering::Relaxed);
    }
}

/// A plain-old-data copy of [`Counters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub distance_computations: u64,
    pub node_visits: u64,
    pub rope_hops: u64,
    pub leaf_visits: u64,
    pub subtrees_skipped: u64,
    pub queries: u64,
    pub iterations: u64,
    pub bytes_accessed: u64,
    pub heap_ops: u64,
}

impl CounterSnapshot {
    /// True when every counter is zero — e.g. the build-work report of a
    /// cache-served query that never ran a construction kernel.
    pub fn is_zero(&self) -> bool {
        *self == CounterSnapshot::default()
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The destructuring is deliberately exhaustive (no `..`): adding a
    /// field to [`CounterSnapshot`] without extending this list is a
    /// compile error, so downstream consumers that iterate the names —
    /// the serving layer's metrics bridge, the CLI — can never silently
    /// miss a counter.
    pub fn named_fields(&self) -> [(&'static str, u64); 9] {
        let CounterSnapshot {
            distance_computations,
            node_visits,
            rope_hops,
            leaf_visits,
            subtrees_skipped,
            queries,
            iterations,
            bytes_accessed,
            heap_ops,
        } = *self;
        [
            ("distance_computations", distance_computations),
            ("node_visits", node_visits),
            ("rope_hops", rope_hops),
            ("leaf_visits", leaf_visits),
            ("subtrees_skipped", subtrees_skipped),
            ("queries", queries),
            ("iterations", iterations),
            ("bytes_accessed", bytes_accessed),
            ("heap_ops", heap_ops),
        ]
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            distance_computations: self.distance_computations - earlier.distance_computations,
            node_visits: self.node_visits - earlier.node_visits,
            rope_hops: self.rope_hops - earlier.rope_hops,
            leaf_visits: self.leaf_visits - earlier.leaf_visits,
            subtrees_skipped: self.subtrees_skipped - earlier.subtrees_skipped,
            queries: self.queries - earlier.queries,
            iterations: self.iterations - earlier.iterations,
            bytes_accessed: self.bytes_accessed - earlier.bytes_accessed,
            heap_ops: self.heap_ops - earlier.heap_ops,
        }
    }
}

/// Field-wise accumulation: aggregating per-shard or per-query work reports
/// is just `a + b` (used by the sharded solver and the serving layer).
impl std::ops::Add for CounterSnapshot {
    type Output = CounterSnapshot;

    fn add(self, rhs: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            distance_computations: self.distance_computations + rhs.distance_computations,
            node_visits: self.node_visits + rhs.node_visits,
            rope_hops: self.rope_hops + rhs.rope_hops,
            leaf_visits: self.leaf_visits + rhs.leaf_visits,
            subtrees_skipped: self.subtrees_skipped + rhs.subtrees_skipped,
            queries: self.queries + rhs.queries,
            iterations: self.iterations + rhs.iterations,
            bytes_accessed: self.bytes_accessed + rhs.bytes_accessed,
            heap_ops: self.heap_ops + rhs.heap_ops,
        }
    }
}

impl std::ops::AddAssign for CounterSnapshot {
    fn add_assign(&mut self, rhs: CounterSnapshot) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let c = Counters::new();
        (0..1000u32).into_par_iter().for_each(|_| {
            c.add_distance_computations(2);
            c.add_node_visits(1);
        });
        let s = c.snapshot();
        assert_eq!(s.distance_computations, 2000);
        assert_eq!(s.node_visits, 1000);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new();
        c.add_queries(5);
        c.add_bytes(100);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn add_accumulates_field_wise_and_is_zero_detects_default() {
        let a = CounterSnapshot { queries: 3, node_visits: 10, ..Default::default() };
        let b = CounterSnapshot { queries: 2, iterations: 1, ..Default::default() };
        let mut c = a + b;
        assert_eq!(c.queries, 5);
        assert_eq!(c.node_visits, 10);
        assert_eq!(c.iterations, 1);
        assert!(!c.is_zero());
        c += CounterSnapshot::default();
        assert_eq!(c, a + b);
        assert!(CounterSnapshot::default().is_zero());
    }

    #[test]
    fn named_fields_cover_every_counter_in_order() {
        let snap = CounterSnapshot {
            distance_computations: 1,
            node_visits: 2,
            rope_hops: 3,
            leaf_visits: 4,
            subtrees_skipped: 5,
            queries: 6,
            iterations: 7,
            bytes_accessed: 8,
            heap_ops: 9,
        };
        let fields = snap.named_fields();
        assert_eq!(fields.len(), 9);
        assert_eq!(fields[0], ("distance_computations", 1));
        assert_eq!(fields[8], ("heap_ops", 9));
        let sum: u64 = fields.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, 45, "every field value appears exactly once");
    }

    #[test]
    fn since_computes_deltas() {
        let c = Counters::new();
        c.add_leaf_visits(10);
        let before = c.snapshot();
        c.add_leaf_visits(7);
        c.add_iterations(1);
        let after = c.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.leaf_visits, 7);
        assert_eq!(delta.iterations, 1);
        assert_eq!(delta.distance_computations, 0);
    }
}
