//! Work-stealing scheduler for embarrassingly-parallel per-cell work.
//!
//! Library characterization is a batch of independent per-cell jobs whose
//! costs vary wildly (a tie cell solves in microseconds; a flip-flop runs
//! clock-to-q grids plus setup/hold bisection). A static partition would
//! leave workers idle behind the slow cells, so the scheduler uses the
//! classic injector/stealer shape: every worker owns a local deque seeded
//! with a slice of the work, drains it LIFO, then falls back to a shared
//! FIFO injector, then steals FIFO from siblings. Upstream this is
//! `crossbeam-deque`; the build environment is offline, so this module
//! implements the same topology over mutexed deques — per-cell jobs are
//! milliseconds of SPICE, so queue-pop cost is noise.
//!
//! **Determinism contract.** The scheduler never makes result *values*
//! depend on scheduling: each item is processed exactly once, results are
//! returned in item order, and callers are responsible for making each
//! item's computation a pure function of the item (see
//! `cryo_spice::fault::set_context` for how fault injection meets this).
//! [`map`] is the entry point; it also hands every worker's
//! [`cryo_spice::work`] ledger back to the caller, so the work a batch
//! counts does not depend on the job count either.
//!
//! Job-count resolution: explicit config wins, then the `CRYO_JOBS`
//! environment variable, then [`std::thread::available_parallelism`].

use std::collections::VecDeque;
use std::sync::Mutex;

use cryo_spice::{fault, work};

/// One work deque: the owner pushes/pops the back (LIFO keeps its cache
/// warm), thieves steal from the front (FIFO minimizes contention with the
/// owner's end).
struct Deque<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> Deque<T> {
    fn new() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, item: T) {
        self.items.lock().expect("deque poisoned").push_back(item);
    }

    fn pop(&self) -> Option<T> {
        self.items.lock().expect("deque poisoned").pop_back()
    }

    fn steal(&self) -> Option<T> {
        self.items.lock().expect("deque poisoned").pop_front()
    }
}

/// The injector + per-worker deques for one batch of work items.
///
/// Items are whatever the caller enqueues ([`map`] uses indices). No new
/// work may be produced while running, which is what makes the simple
/// "everything empty → done" termination correct.
struct WorkSet<T> {
    injector: Deque<T>,
    locals: Vec<Deque<T>>,
}

impl<T> WorkSet<T> {
    /// Distribute `items` over `workers` local deques round-robin, with the
    /// remainder parked in the shared injector. Round-robin (rather than
    /// contiguous slices) interleaves cheap and expensive cells, so initial
    /// local queues are roughly cost-balanced before any stealing happens.
    fn new(items: impl IntoIterator<Item = T>, workers: usize) -> Self {
        let workers = workers.max(1);
        let set = Self {
            injector: Deque::new(),
            locals: (0..workers).map(|_| Deque::new()).collect(),
        };
        for (i, item) in items.into_iter().enumerate() {
            set.locals[i % workers].push(item);
        }
        set
    }

    /// Handle for worker `id` (must be `< workers`).
    fn worker(&self, id: usize) -> WorkerHandle<'_, T> {
        assert!(id < self.locals.len(), "worker id out of range");
        WorkerHandle { set: self, id }
    }
}

/// A worker's view of the [`WorkSet`]: local pops, injector takes, sibling
/// steals.
struct WorkerHandle<'a, T> {
    set: &'a WorkSet<T>,
    id: usize,
}

impl<T> WorkerHandle<'_, T> {
    /// Find the next work item: local deque first, then the injector, then
    /// steal from siblings (scanning from `id + 1` so thieves spread out
    /// instead of all mobbing worker 0). `None` means the batch is drained
    /// — since no new work is ever produced, the worker can exit.
    fn find_task(&self) -> Option<T> {
        if let Some(t) = self.set.locals[self.id].pop() {
            return Some(t);
        }
        if let Some(t) = self.set.injector.steal() {
            return Some(t);
        }
        let n = self.set.locals.len();
        for offset in 1..n {
            let victim = (self.id + offset) % n;
            if let Some(t) = self.set.locals[victim].steal() {
                return Some(t);
            }
        }
        None
    }
}

/// Run `f(i)` for every `i` in `0..n` and return the results in index
/// order, fanning out to `jobs` work-stealing workers (capped at `n`).
///
/// One job runs the plain serial loop on the calling thread and then
/// resets the fault context to `""`. More jobs run scoped workers that
/// each enter the caller's [`work::capture`]d context, drain the batch,
/// and hand their whole [`work::Work`] and fired-fault count back once;
/// the caller folds them in, so its [`work::get`] and
/// [`fault::injection_count`] cover every solve and fault the batch ran,
/// at any job count.
pub fn map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.min(n).max(1);
    if jobs == 1 {
        let out = (0..n).map(&f).collect();
        fault::set_context("");
        return out;
    }
    let ctx = work::capture();
    let set = WorkSet::new(0..n, jobs);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|w| {
                let (handle, ctx, f) = (set.worker(w), &ctx, &f);
                s.spawn(move || {
                    let entered = ctx.enter();
                    let mut done = Vec::new();
                    while let Some(i) = handle.find_task() {
                        done.push((i, f(i)));
                    }
                    (done, entered.leave())
                })
            })
            .collect();
        for worker in workers {
            let (done, handback) = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            handback.fold();
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every queued item produced a result"))
        .collect()
}

/// Resolve a configured job count: `configured` wins when nonzero, then a
/// positive `CRYO_JOBS`, then [`std::thread::available_parallelism`] (1 if
/// even that is unknowable).
///
/// Malformed `CRYO_JOBS` values are silently ignored here (resolution
/// happens deep inside characterization, where aborting would forfeit
/// work); supervised entry points validate the variable up front with
/// [`env_jobs_checked`] so a typo surfaces as a config error at flow
/// start.
#[must_use]
pub fn resolve_jobs(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(raw) = std::env::var("CRYO_JOBS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Strictly parse a `CRYO_JOBS`-format value. `Ok(None)` means "auto"
/// (empty or `0`); anything that is not a non-negative integer is an
/// error naming the offending value.
///
/// # Errors
///
/// A human-readable description of the malformed value.
pub fn parse_jobs_spec(raw: &str) -> std::result::Result<Option<usize>, String> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("`{t}` is not a non-negative integer")),
    }
}

/// Strictly validate the `CRYO_JOBS` environment variable via
/// [`parse_jobs_spec`]. `Ok(None)` when unset, empty, or `0` (auto).
///
/// # Errors
///
/// A description of the malformed value, suitable for wrapping in a
/// flow-level config error.
pub fn env_jobs_checked() -> std::result::Result<Option<usize>, String> {
    match std::env::var("CRYO_JOBS") {
        Ok(raw) => parse_jobs_spec(&raw),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_is_processed_exactly_once() {
        let n_items = 103;
        let workers = 5;
        let set = WorkSet::new(0..n_items, workers);
        let seen = Mutex::new(Vec::new());
        let picked = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..workers {
                let handle = set.worker(w);
                let seen = &seen;
                let picked = &picked;
                s.spawn(move || {
                    while let Some(item) = handle.find_task() {
                        picked.fetch_add(1, Ordering::Relaxed);
                        seen.lock().unwrap().push(item);
                    }
                });
            }
        });
        assert_eq!(picked.load(Ordering::Relaxed), n_items);
        let unique: BTreeSet<usize> = seen.lock().unwrap().iter().copied().collect();
        assert_eq!(unique.len(), n_items, "no item dropped or duplicated");
    }

    #[test]
    fn idle_workers_steal_from_a_loaded_sibling() {
        // All work lands on worker 0's deque; workers 1..4 must steal it.
        let set = WorkSet::new(std::iter::empty::<usize>(), 4);
        for i in 0..40 {
            set.locals[0].push(i);
        }
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 1..4 {
                let handle = set.worker(w);
                let done = &done;
                s.spawn(move || {
                    while handle.find_task().is_some() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            done.load(Ordering::Relaxed),
            40,
            "thieves drained the victim"
        );
    }

    #[test]
    fn single_worker_drains_in_seed_order() {
        let set = WorkSet::new(0..6, 1);
        let handle = set.worker(0);
        let mut got = Vec::new();
        while let Some(i) = handle.find_task() {
            got.push(i);
        }
        // Owner pops LIFO off its own deque.
        assert_eq!(got, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn map_returns_in_index_order_and_folds_every_workers_ledger() {
        for jobs in [1, 4] {
            let _ = work::take();
            let out = map(50, jobs, |i| {
                work::bump(|w| w.dc += 1);
                i * 2
            });
            assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(work::take().dc, 50, "jobs={jobs}");
        }
    }

    #[test]
    fn map_folds_every_workers_fired_faults() {
        for jobs in [1, 4] {
            let _g = fault::install_guard(fault::FaultPlan {
                sta_lookup: 1.0,
                ..fault::FaultPlan::new(5)
            });
            let fired = map(8, jobs, |i| {
                fault::set_context(&format!("item{i}"));
                fault::should_fault_sta_lookup()
            });
            assert_eq!(fired, [true; 8], "jobs={jobs}");
            assert_eq!(fault::injection_count(), 8, "jobs={jobs}");
        }
    }

    #[test]
    fn resolve_jobs_prefers_explicit_config() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1, "auto always yields a usable count");
    }

    #[test]
    fn parse_jobs_spec_is_strict() {
        assert_eq!(parse_jobs_spec(""), Ok(None));
        assert_eq!(parse_jobs_spec(" 0 "), Ok(None), "0 means auto");
        assert_eq!(parse_jobs_spec("8"), Ok(Some(8)));
        for bad in ["four", "-2", "1.5", "8x"] {
            let err = parse_jobs_spec(bad).unwrap_err();
            assert!(err.contains(bad.trim()), "error names the value: {err}");
        }
    }
}
