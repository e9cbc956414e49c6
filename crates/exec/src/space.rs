//! The execution-space abstraction and its three backends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rayon::prelude::*;

/// A bulk-synchronous execution resource, mirroring Kokkos execution spaces.
///
/// Every parallel pattern launches one *kernel*: a pure function of the work
/// index that may communicate with other indices only through atomics (as on
/// a GPU). All patterns are synchronous — they return only after every work
/// item completed, which models the `Kokkos::fence()` at the end of each
/// phase in the paper's Figure 3.
pub trait ExecSpace: Sync {
    /// Human-readable backend name (used by the figure harnesses).
    fn name(&self) -> &'static str;

    /// Executes `f(i)` for every `i in 0..n`.
    fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send;

    /// Map-reduce over `0..n`: combines `map(i)` with `combine`, starting
    /// from `identity`. `combine` must be associative and commutative, as on
    /// a device.
    fn parallel_reduce<T, M, C>(&self, n: usize, identity: T, map: M, combine: C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync + Send,
        C: Fn(T, T) -> T + Sync + Send;

    /// Exclusive prefix sum in place; returns the total.
    fn parallel_scan_exclusive(&self, data: &mut [usize]) -> usize;

    /// Sorts `(key, index)` pairs by key then index — the Morton-code sort
    /// of the BVH construction. The paper discusses this phase explicitly
    /// (§4.2: `Kokkos::BinSort` was replaced by `std::sort` on the host);
    /// the default is the serial standard sort and parallel backends
    /// override it.
    fn sort_pairs(&self, pairs: &mut [(u64, u32)]) {
        pairs.sort_unstable();
    }

    /// 128-bit variant of [`ExecSpace::sort_pairs`], used when the BVH is
    /// built with the high-resolution Z-curve (the paper's §4.1 proposal
    /// for extremely dense datasets).
    fn sort_pairs_u128(&self, pairs: &mut [(u128, u32)]) {
        pairs.sort_unstable();
    }

    /// Kernel statistics, recorded only by instrumented backends.
    fn kernel_stats(&self) -> Option<&KernelStats> {
        None
    }

    /// True for backends whose reported time should come from the device
    /// model rather than the wall clock.
    fn is_simulated_device(&self) -> bool {
        false
    }
}

/// Work recorded by an instrumented backend: one entry per launched kernel
/// pattern plus the total number of work items.
#[derive(Debug, Default)]
pub struct KernelStats {
    launches: AtomicU64,
    items: AtomicU64,
}

impl KernelStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one kernel launch over `items` work items.
    #[inline]
    pub fn record_launch(&self, items: usize) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Number of kernels launched so far.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// Total work items across all launches.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Resets both counters.
    pub fn reset(&self) {
        self.launches.store(0, Ordering::Relaxed);
        self.items.store(0, Ordering::Relaxed);
    }
}

/// Sequential backend: plain loops, no synchronization overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serial;

impl ExecSpace for Serial {
    fn name(&self) -> &'static str {
        "Serial"
    }

    #[inline]
    fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        for i in 0..n {
            f(i);
        }
    }

    #[inline]
    fn parallel_reduce<T, M, C>(&self, n: usize, identity: T, map: M, combine: C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync + Send,
        C: Fn(T, T) -> T + Sync + Send,
    {
        let mut acc = identity;
        for i in 0..n {
            acc = combine(acc, map(i));
        }
        acc
    }

    fn parallel_scan_exclusive(&self, data: &mut [usize]) -> usize {
        scan_exclusive_serial(data)
    }
}

/// Multithreaded backend on the process-wide worker pool of the vendored
/// `rayon` (the paper's OpenMP analogue): the calling thread and the idle
/// workers claim blocks of each kernel's index range from a shared counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Threads;

impl ExecSpace for Threads {
    fn name(&self) -> &'static str {
        "Threads"
    }

    #[inline]
    fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        (0..n).into_par_iter().for_each(f);
    }

    #[inline]
    fn parallel_reduce<T, M, C>(&self, n: usize, identity: T, map: M, combine: C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync + Send,
        C: Fn(T, T) -> T + Sync + Send,
    {
        reduce_per_worker(n, identity, map, combine)
    }

    fn parallel_scan_exclusive(&self, data: &mut [usize]) -> usize {
        scan_exclusive_parallel(data)
    }

    fn sort_pairs(&self, pairs: &mut [(u64, u32)]) {
        pairs.par_sort_unstable();
    }

    fn sort_pairs_u128(&self, pairs: &mut [(u128, u32)]) {
        pairs.par_sort_unstable();
    }
}

/// Simulated-device backend.
///
/// Kernels execute for real on the worker pool (results are bit-identical to
/// [`Threads`] up to atomics races the algorithms already tolerate) while
/// [`KernelStats`] accumulates launches and work items. Together with the
/// algorithm-level [`crate::Counters`], a [`crate::DeviceModel`] converts the
/// recorded work into a modeled GPU time — the substitution for the paper's
/// A100/MI250X hardware.
#[derive(Debug, Default)]
pub struct GpuSim {
    stats: KernelStats,
}

impl GpuSim {
    /// Creates a fresh simulated device with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Immutable access to the accumulated kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

impl ExecSpace for GpuSim {
    fn name(&self) -> &'static str {
        "GpuSim"
    }

    #[inline]
    fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.stats.record_launch(n);
        (0..n).into_par_iter().for_each(f);
    }

    #[inline]
    fn parallel_reduce<T, M, C>(&self, n: usize, identity: T, map: M, combine: C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync + Send,
        C: Fn(T, T) -> T + Sync + Send,
    {
        self.stats.record_launch(n);
        reduce_per_worker(n, identity, map, combine)
    }

    fn parallel_scan_exclusive(&self, data: &mut [usize]) -> usize {
        self.stats.record_launch(data.len());
        scan_exclusive_parallel(data)
    }

    fn sort_pairs(&self, pairs: &mut [(u64, u32)]) {
        self.stats.record_launch(pairs.len());
        pairs.par_sort_unstable();
    }

    fn sort_pairs_u128(&self, pairs: &mut [(u128, u32)]) {
        self.stats.record_launch(pairs.len());
        pairs.par_sort_unstable();
    }

    fn kernel_stats(&self) -> Option<&KernelStats> {
        Some(&self.stats)
    }

    fn is_simulated_device(&self) -> bool {
        true
    }
}

/// The map-reduce of the threaded backends: each pool participant folds
/// the blocks it claims into one partial of its own, so only one partial
/// per participant meets the others — never an `n`-length buffer of map
/// outputs, and nothing allocated. `identity` enters the result exactly
/// once, as on [`Serial`]; regrouping the combines is sound because the
/// trait requires them to be associative and commutative.
fn reduce_per_worker<T, M, C>(n: usize, identity: T, map: M, combine: C) -> T
where
    T: Send,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let fold_in = |into: &mut Option<T>, part: T| {
        *into = Some(match into.take() {
            Some(acc) => combine(acc, part),
            None => part,
        });
    };
    let total: Mutex<Option<T>> = Mutex::new(None);
    rayon::scatter_blocks(n, rayon::BLOCK_LEN, |blocks| {
        let mut acc = None;
        while let Some(claimed) = blocks.claim() {
            let (lo, hi) = (claimed.start, claimed.end);
            fold_in(&mut acc, (lo + 1..hi).fold(map(lo), |a, i| combine(a, map(i))));
        }
        if let Some(acc) = acc {
            // A poisoned lock means another participant's combine panicked;
            // the launch re-raises that panic, so this value is never read.
            fold_in(&mut total.lock().unwrap_or_else(PoisonError::into_inner), acc);
        }
    });
    match total.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some(t) => combine(identity, t),
        None => identity,
    }
}

/// Serial exclusive scan, shared with the chaos backend.
pub(crate) fn scan_exclusive_serial_for_chaos(data: &mut [usize]) -> usize {
    scan_exclusive_serial(data)
}

fn scan_exclusive_serial(data: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in data.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

/// Two-pass blocked exclusive scan (the standard device algorithm): block
/// sums, scan of block sums, then per-block local scans with offsets.
fn scan_exclusive_parallel(data: &mut [usize]) -> usize {
    const BLOCK: usize = 1 << 14;
    if data.len() <= BLOCK {
        return scan_exclusive_serial(data);
    }
    let mut block_sums: Vec<usize> =
        data.par_chunks(BLOCK).map(|chunk| chunk.iter().sum()).collect();
    let total = scan_exclusive_serial(&mut block_sums);
    data.par_chunks_mut(BLOCK).zip(block_sums.par_iter()).for_each(|(chunk, &offset)| {
        let mut acc = offset;
        for x in chunk.iter_mut() {
            let v = *x;
            *x = acc;
            acc += v;
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn check_space<S: ExecSpace>(space: &S) {
        // parallel_for touches every index exactly once, on either side of
        // the pool's inline threshold too
        for n in [1, rayon::BLOCK_LEN - 1, rayon::BLOCK_LEN + 1, 10_000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            space.parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n}");
        }
        let n = 10_000;

        // reduce computes a sum
        let sum = space.parallel_reduce(n, 0usize, |i| i, |a, b| a + b);
        assert_eq!(sum, n * (n - 1) / 2);

        // reduce with min
        let min = space.parallel_reduce(n, usize::MAX, |i| (i + 7) % n, |a, b| a.min(b));
        assert_eq!(min, 0);

        // scan
        let mut data: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let expect_total: usize = data.iter().sum();
        let mut expected = data.clone();
        let mut acc = 0;
        for x in expected.iter_mut() {
            let v = *x;
            *x = acc;
            acc += v;
        }
        let total = space.parallel_scan_exclusive(&mut data);
        assert_eq!(total, expect_total);
        assert_eq!(data, expected);

        // empty and unit inputs
        space.parallel_for(0, |_| panic!("must not run"));
        assert_eq!(space.parallel_reduce(0, 42usize, |_| 0, |a, b| a + b), 42);
        let mut empty: Vec<usize> = vec![];
        assert_eq!(space.parallel_scan_exclusive(&mut empty), 0);
        let mut one = vec![9usize];
        assert_eq!(space.parallel_scan_exclusive(&mut one), 9);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn serial_patterns_are_correct() {
        check_space(&Serial);
    }

    #[test]
    fn threads_patterns_are_correct() {
        check_space(&Threads);
    }

    #[test]
    fn gpusim_patterns_are_correct() {
        check_space(&GpuSim::new());
    }

    #[test]
    fn gpusim_records_launches_and_items() {
        let gpu = GpuSim::new();
        gpu.parallel_for(100, |_| {});
        gpu.parallel_reduce(50, 0usize, |_| 1usize, |a, b| a + b);
        let mut data = vec![1usize; 25];
        gpu.parallel_scan_exclusive(&mut data);
        let stats = gpu.kernel_stats().unwrap();
        assert_eq!(stats.launches(), 3);
        assert_eq!(stats.items(), 175);
        stats.reset();
        assert_eq!(stats.launches(), 0);
        assert_eq!(stats.items(), 0);
    }

    #[test]
    fn serial_and_threads_report_no_stats() {
        assert!(Serial.kernel_stats().is_none());
        assert!(Threads.kernel_stats().is_none());
        assert!(!Serial.is_simulated_device());
        assert!(GpuSim::new().is_simulated_device());
    }

    #[test]
    fn struct_reduce_matches_serial_at_edge_sizes() {
        // The shape of the traversal-stats reductions: integer sums plus a
        // float minimum, folded per worker on the threaded backends.
        #[derive(Clone, Debug, PartialEq)]
        struct Work {
            count: u64,
            sum: u64,
            min: f32,
        }
        let identity = Work { count: 0, sum: 0, min: f32::INFINITY };
        let map = |i: usize| Work {
            count: 1,
            sum: (i as u64).wrapping_mul(0x9E37_79B9) % 1_000_003,
            min: ((i * 7919) % 10_007) as f32 * 0.5 + 1.0,
        };
        let combine = |a: Work, b: Work| Work {
            count: a.count + b.count,
            sum: a.sum + b.sum,
            min: a.min.min(b.min),
        };
        let block = rayon::BLOCK_LEN;
        for n in [0, 1, block - 1, block, block + 1, 100_007] {
            let serial = Serial.parallel_reduce(n, identity.clone(), map, combine);
            assert_eq!(serial.count, n as u64);
            let threaded = Threads.parallel_reduce(n, identity.clone(), map, combine);
            let gpu = GpuSim::new().parallel_reduce(n, identity.clone(), map, combine);
            assert_eq!(threaded, serial, "Threads n={n}");
            assert_eq!(gpu, serial, "GpuSim n={n}");
        }
    }

    /// Launches from many OS threads at once (as from a server's worker
    /// threads) share one pool: none deadlocks, and each gets the serial
    /// answer.
    #[test]
    fn concurrent_reduces_from_many_threads_match_serial() {
        let n = 20 * rayon::BLOCK_LEN + 7;
        let map = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9) % 1_000_003, i as u32);
        let combine = |a: (u64, u32), b: (u64, u32)| (a.0 + b.0, a.1.min(b.1));
        let expect = Serial.parallel_reduce(n, (0, u32::MAX), map, combine);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..25 {
                        let got = if t % 2 == 0 {
                            Threads.parallel_reduce(n, (0, u32::MAX), map, combine)
                        } else {
                            GpuSim::new().parallel_reduce(n, (0, u32::MAX), map, combine)
                        };
                        assert_eq!(got, expect, "thread {t}");
                    }
                });
            }
        });
    }

    #[test]
    fn large_parallel_scan_crosses_block_boundaries() {
        let n = (1 << 14) * 3 + 17; // force multiple blocks + remainder
        let mut data: Vec<usize> = (0..n).map(|i| (i * 31) % 11).collect();
        let mut expected = data.clone();
        let expect_total = scan_exclusive_serial(&mut expected);
        let total = scan_exclusive_parallel(&mut data);
        assert_eq!(total, expect_total);
        assert_eq!(data, expected);
    }
}
