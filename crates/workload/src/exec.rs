//! Deterministic parallel execution of experiment task grids.
//!
//! Every experiment in this workspace is a grid of independent tasks
//! (error rate × fold × repetition, proxy × rotation × seed, …). This
//! module fans such grids across a configurable number of threads while
//! guaranteeing **bit-identical results regardless of thread count**:
//!
//! - results are written into a slot indexed by task id, so the output
//!   order never depends on scheduling;
//! - every task derives its RNG seed from the experiment's master seed and
//!   its own grid coordinates with [`derive_seed`] (a splitmix64-style
//!   avalanche mixer), never from a shared sequential RNG stream or a
//!   thread id.
//!
//! The engine is std-only and has one claim loop, [`parallel_for_each`]:
//! workers take items from one shared, mutex-guarded iterator, so an idle
//! worker immediately claims the next unstarted item, and each worker owns
//! one mutable state for the whole call. The calling thread is worker 0
//! and the others are [`std::thread::scope`] threads, so a one-worker call
//! spawns nothing and the serial and threaded cases run the same loop.
//! [`parallel_map_n`] is that loop over task indices, each writing its own
//! result slot.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The odd increment of the splitmix64 sequence (2⁶⁴ / φ).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche mixer over `u64`.
///
/// Every output bit depends on every input bit, so structured inputs
/// (small counters, grid coordinates) map to statistically independent
/// outputs — unlike the additive `seed + a·i + b·j` compositions it
/// replaces, which collide whenever one coordinate's stride overflows into
/// another's (e.g. `(fi, rep)` vs `(fi + 1, rep − 256)` for strides
/// 0x1000/0x100/1).
#[inline]
pub fn mix_seed(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed from a master seed and a task's grid
/// coordinates.
///
/// The derivation folds each coordinate through [`mix_seed`] sequentially,
/// so `(a, b)` and `(b, a)` — and paths of different lengths — yield
/// unrelated seeds. Use one coordinate per grid axis, with a leading
/// experiment tag when several experiments share a master seed:
///
/// ```
/// use shmd_workload::exec::derive_seed;
/// let s1 = derive_seed(42, &[1, 0, 7]);
/// let s2 = derive_seed(42, &[1, 1, 7]);
/// assert_ne!(s1, s2);
/// ```
#[inline]
pub fn derive_seed(master: u64, path: &[u64]) -> u64 {
    let mut state = mix_seed(master ^ GOLDEN_GAMMA);
    for &coordinate in path {
        state = mix_seed(state.wrapping_add(GOLDEN_GAMMA).wrapping_add(coordinate));
    }
    state
}

/// Thread-count configuration for [`parallel_for_each`], [`parallel_map`]
/// and [`parallel_map_n`].
///
/// The configuration only affects wall-clock time, never results: the same
/// task grid produces bit-identical output under [`ExecConfig::serial`],
/// [`ExecConfig::threads`], and [`ExecConfig::auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl ExecConfig {
    /// Runs every task on the calling thread.
    pub fn serial() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// Uses exactly `threads` worker threads (clamped to at least 1).
    pub fn threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// Uses one worker per available hardware thread.
    pub fn auto() -> ExecConfig {
        ExecConfig {
            threads: hardware_threads(),
        }
    }

    /// The worker count for data parallelism inside one piece of work,
    /// such as training one model: [`ExecConfig::auto`] on a thread that is
    /// not running a [`parallel_for_each`] worker (every grid task runs in
    /// one), and [`ExecConfig::serial`] inside one, serial grid or
    /// threaded. A task's inner work therefore never multiplies the grid's
    /// threads.
    pub fn nested() -> ExecConfig {
        if IN_TASK.get() {
            ExecConfig::serial()
        } else {
            ExecConfig::auto()
        }
    }

    /// From an optional `--threads` flag: `None` means [`ExecConfig::auto`].
    pub fn from_flag(threads: Option<usize>) -> ExecConfig {
        threads.map_or_else(ExecConfig::auto, ExecConfig::threads)
    }

    /// The configured worker count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::auto()
    }
}

/// Hardware threads available to this process, read once.
/// `available_parallelism` reads cgroup files and allocates, so a caller
/// on a per-batch path reads this cached count instead.
pub fn hardware_threads() -> usize {
    static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
    *HARDWARE_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

thread_local! {
    /// Whether this thread is running a [`parallel_for_each`] worker.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a worker until dropped, then
/// restores the previous mark (a task may itself run a grid).
struct TaskMark(bool);

impl TaskMark {
    fn set() -> TaskMark {
        TaskMark(IN_TASK.replace(true))
    }
}

impl Drop for TaskMark {
    fn drop(&mut self) {
        IN_TASK.set(self.0);
    }
}

/// Runs `f` over every item of `items`, each item exactly once, on
/// `min(config.thread_count(), workers.len())` workers.
///
/// Worker `w` owns `workers[w]` for the whole call and takes items one at
/// a time from the shared iterator, so load balances dynamically. The
/// calling thread is worker 0: a one-worker call spawns no thread, and
/// the serial and threaded cases run the same loop. Which worker takes
/// which item is a matter of scheduling, so `f` must make each item's
/// effect a function of the item alone for the result to be
/// thread-count-invariant. Every worker runs under the mark that makes
/// [`ExecConfig::nested`] serial. A panicking item stops its worker; the
/// others finish, and the first panic is re-raised on the caller with its
/// original payload.
///
/// # Panics
///
/// When `workers` is empty, or when `f` panics.
pub fn parallel_for_each<S, I, F>(config: &ExecConfig, workers: &mut [S], items: I, f: F)
where
    S: Send,
    I: Iterator + Send,
    I::Item: Send,
    F: Fn(&mut S, I::Item) + Sync,
{
    let threads = config.thread_count().min(workers.len());
    let items = Mutex::new(items);
    let caught: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = |state: &mut S| {
        let _mark = TaskMark::set();
        loop {
            // The guard drops at the end of this statement, before `f`.
            let next = items.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some(item) = next else { break };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(state, item))) {
                // Re-raised on the caller with the original message, not
                // the scope's generic join panic.
                caught
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
                break;
            }
        }
    };
    let (first, rest) = workers[..threads]
        .split_first_mut()
        .expect("parallel_for_each needs a worker state");
    if rest.is_empty() {
        // `std::thread::scope` allocates even when it spawns nothing.
        work(first);
    } else {
        std::thread::scope(|scope| {
            for state in rest {
                let work = &work;
                scope.spawn(move || work(state));
            }
            work(first);
        });
    }
    if let Some(payload) = caught.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

/// Maps `f` over the task indices `0..tasks`, returning results in index
/// order.
///
/// The tasks are [`parallel_for_each`]'s items, so load balances
/// dynamically; each result lands in its own slot, so the output is
/// independent of which worker ran which task. A panicking task propagates
/// the panic to the caller with its original message. Every task, serial
/// or threaded, runs under the mark that makes [`ExecConfig::nested`]
/// serial.
pub fn parallel_map_n<R, F>(config: &ExecConfig, tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(tasks).collect();
    let mut workers = vec![(); config.thread_count().min(tasks).max(1)];
    parallel_for_each(
        config,
        &mut workers,
        slots.iter_mut().enumerate(),
        |(), (i, slot)| *slot = Some(f(i)),
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("every task fills its slot"))
        .collect()
}

/// Maps `f` over a slice, returning results in item order.
///
/// `f` receives each item's index alongside the item — derive per-task
/// seeds from the index, never from a shared RNG.
pub fn parallel_map<T, R, F>(config: &ExecConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_n(config, items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix_seed_is_bijective_on_a_sample() {
        let outputs: HashSet<u64> = (0..10_000u64).map(mix_seed).collect();
        assert_eq!(outputs.len(), 10_000);
    }

    #[test]
    fn derive_seed_avalanches_neighbouring_coordinates() {
        let a = derive_seed(1, &[0, 0, 0]);
        let b = derive_seed(1, &[0, 0, 1]);
        assert_ne!(a, b);
        // Hamming distance should be near 32 for an avalanche mixer.
        let distance = (a ^ b).count_ones();
        assert!((10..=54).contains(&distance), "weak avalanche: {distance}");
    }

    #[test]
    fn derive_seed_distinguishes_path_structure() {
        assert_ne!(derive_seed(7, &[1, 2]), derive_seed(7, &[2, 1]));
        assert_ne!(derive_seed(7, &[1]), derive_seed(7, &[1, 0]));
        assert_ne!(derive_seed(7, &[]), derive_seed(8, &[]));
    }

    #[test]
    fn derived_grid_seeds_are_collision_free() {
        // The additive scheme this replaces collided at reps > 256; the
        // mixed derivation must keep a full 3-axis grid distinct.
        let mut seen = HashSet::new();
        for gi in 0..6u64 {
            for fi in 0..3u64 {
                for rep in 0..300u64 {
                    seen.insert(derive_seed(42, &[gi, fi, rep]));
                }
            }
        }
        assert_eq!(seen.len(), 6 * 3 * 300);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&ExecConfig::threads(8), &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| mix_seed(i as u64);
        let serial = parallel_map_n(&ExecConfig::serial(), 257, f);
        for threads in [2, 3, 8, 64] {
            let parallel = parallel_map_n(&ExecConfig::threads(threads), 257, f);
            assert_eq!(serial, parallel, "results differ at {threads} threads");
        }
    }

    #[test]
    fn parallel_for_each_hands_out_each_item_exactly_once() {
        for workers in [1, 2, 3, 8] {
            for items in [0, 1, workers - 1, workers, workers + 1, 10 * workers + 3] {
                let mut states: Vec<Vec<usize>> = vec![Vec::new(); workers];
                parallel_for_each(
                    &ExecConfig::threads(workers),
                    &mut states,
                    0..items,
                    |seen, item| seen.push(item),
                );
                let counts: usize = states.iter().map(Vec::len).sum();
                assert_eq!(counts, items, "{workers} workers, {items} items");
                let mut all: Vec<usize> = states.concat();
                all.sort_unstable();
                assert_eq!(all, (0..items).collect::<Vec<_>>(), "{workers} workers");
            }
        }
    }

    #[test]
    fn empty_and_single_task_grids_work() {
        let none: Vec<u64> = parallel_map_n(&ExecConfig::threads(4), 0, |i| i as u64);
        assert!(none.is_empty());
        let one = parallel_map_n(&ExecConfig::threads(4), 1, |i| i as u64);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn thread_config_accessors() {
        assert_eq!(ExecConfig::serial().thread_count(), 1);
        assert_eq!(ExecConfig::threads(0).thread_count(), 1);
        assert_eq!(ExecConfig::threads(6).thread_count(), 6);
        assert_eq!(ExecConfig::from_flag(Some(3)).thread_count(), 3);
        assert!(ExecConfig::from_flag(None).thread_count() >= 1);
        assert!(ExecConfig::default().thread_count() >= 1);
    }

    #[test]
    fn nested_work_is_serial_inside_every_task() {
        let auto = ExecConfig::auto().thread_count();
        assert_eq!(ExecConfig::nested().thread_count(), auto);
        for config in [ExecConfig::serial(), ExecConfig::threads(3)] {
            let inner = parallel_map_n(&config, 5, |_| {
                let nested = ExecConfig::nested().thread_count();
                let grid = parallel_map_n(&config, 2, |_| ExecConfig::nested().thread_count());
                (nested, grid, ExecConfig::nested().thread_count())
            });
            assert!(inner.iter().all(|t| *t == (1, vec![1, 1], 1)), "{inner:?}");
        }
        assert_eq!(ExecConfig::nested().thread_count(), auto, "mark restored");
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn worker_panics_propagate() {
        let _ = parallel_map_n(&ExecConfig::threads(4), 16, |i| {
            if i == 7 {
                panic!("task boom");
            }
            i
        });
    }
}
