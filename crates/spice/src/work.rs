//! The per-thread work ledger.
//!
//! The simulator and the timing engine count the work they do on the
//! thread that does it: DC and transient solves, Newton iterations, LU
//! factorizations, DC warm-start memo traffic and STA arc evaluations. The
//! counters are always on, independent of any fault plan, so
//! checkpoint/resume tests can assert that finished cells and stages are
//! *not* re-simulated, and kernel tests can prove that symbolic reuse and
//! warm starts actually skip work.
//!
//! A worker thread starts in its caller's [`capture`]d [`Inherited`]
//! context and, when it finishes, [`Entered::leave`]s it with a
//! [`Handback`]: its whole ledger and the faults its injector fired. The
//! thread that handed it the work [`Handback::fold`]s that in, so from the
//! caller's perspective [`get`] and `fault::injection_count` cover all the
//! work it fanned out, while unrelated threads (e.g. other `#[test]`s) stay
//! untouched. Work crosses threads only through `cryo_cells::sched::map`,
//! `cryo_core::supervise::spawn_counted` and [`fork`].

use std::cell::Cell;
use std::ops::{AddAssign, Range};

use crate::fault::{self, FaultGuard, FaultPlan};
use crate::sparse::{self, WarmstartOverrideGuard};

/// One thread's work counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Work {
    /// DC operating-point solves started (transient analyses start one for
    /// their initial condition, so a transient bumps both counters).
    pub dc: u64,
    /// Transient analyses started.
    pub tran: u64,
    /// Newton iterations executed (each assembles and factors once).
    pub newton_iters: u64,
    /// Numeric refactorizations that reused the symbolic analysis.
    pub lu_fast: u64,
    /// Full dense factorizations: first factor of a circuit, or pivot
    /// drift on the fast path.
    pub lu_bootstrap: u64,
    /// DC operating points served from the warm-start memo.
    pub dc_memo_hits: u64,
    /// Converged DC operating points stored into the memo.
    pub dc_memo_stores: u64,
    /// STA timing-arc evaluations.
    pub arc_evals: u64,
}

impl Work {
    const ZERO: Work = Work {
        dc: 0,
        tran: 0,
        newton_iters: 0,
        lu_fast: 0,
        lu_bootstrap: 0,
        dc_memo_hits: 0,
        dc_memo_stores: 0,
        arc_evals: 0,
    };
}

impl AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.dc += o.dc;
        self.tran += o.tran;
        self.newton_iters += o.newton_iters;
        self.lu_fast += o.lu_fast;
        self.lu_bootstrap += o.lu_bootstrap;
        self.dc_memo_hits += o.dc_memo_hits;
        self.dc_memo_stores += o.dc_memo_stores;
        self.arc_evals += o.arc_evals;
    }
}

thread_local! {
    static LEDGER: Cell<Work> = const { Cell::new(Work::ZERO) };
}

/// This thread's work so far.
#[must_use]
pub fn get() -> Work {
    LEDGER.with(Cell::get)
}

/// Read *and zero* this thread's work.
#[must_use]
pub fn take() -> Work {
    LEDGER.with(|l| l.replace(Work::ZERO))
}

/// Fold work taken on another thread into this thread's ledger.
pub fn add(extra: Work) {
    bump(|w| *w += extra);
}

/// Update this thread's ledger in place (one counter at a time at the
/// counting sites).
pub fn bump(f: impl FnOnce(&mut Work)) {
    LEDGER.with(|l| {
        let mut w = l.get();
        f(&mut w);
        l.set(w);
    });
}

/// What a worker thread inherits from the thread that hands it work: the
/// fault plan and the warm-start setting. Both are per-thread, and the
/// fault and warm-start invisibility tests rely on workers following them.
#[derive(Debug, Clone)]
pub struct Inherited {
    plan: Option<FaultPlan>,
    warmstart: bool,
}

/// Capture this thread's [`Inherited`] context for a worker to
/// [`Inherited::enter`].
#[must_use]
pub fn capture() -> Inherited {
    Inherited {
        plan: fault::current_plan(),
        warmstart: sparse::warmstart_enabled(),
    }
}

impl Inherited {
    /// Install the captured context on this thread until the guard drops.
    /// Each worker gets a private injector cloned from the plan; per-cell
    /// reseeding (`fault::set_context`) then makes its fault streams the
    /// serial path's.
    pub fn enter(&self) -> Entered {
        Entered {
            _plan: self.plan.clone().map(fault::install_guard),
            _warmstart: sparse::warmstart_override_guard(self.warmstart),
        }
    }
}

/// Guard returned by [`Inherited::enter`]; restores the thread's previous
/// context when dropped.
#[must_use]
pub struct Entered {
    _plan: Option<FaultGuard>,
    _warmstart: WarmstartOverrideGuard,
}

impl Entered {
    /// Leave the context and hand back what this thread did in it: its
    /// whole ledger (drained) and the faults its private injector fired.
    pub fn leave(self) -> Handback {
        Handback {
            work: take(),
            faults: fault::injection_count(),
        }
    }
}

/// What a worker hands back to the thread that gave it work, from
/// [`Entered::leave`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Handback {
    work: Work,
    faults: u32,
}

impl Handback {
    /// Fold the worker's work into this thread's ledger and its fired
    /// faults into this thread's injector count; returns the work.
    pub fn fold(self) -> Work {
        add(self.work);
        fault::add_injections(self.faults);
        self.work
    }
}

/// Threads a fan-out may use: [`std::thread::available_parallelism`],
/// which follows the process's CPU affinity, or 1 if it is unknowable.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Split `0..n` into contiguous ranges, in order: as many as `threads`
/// allows with at least `min` items each, and at least one.
#[must_use]
pub fn split(n: usize, threads: usize, min: usize) -> Vec<Range<usize>> {
    let parts = threads.min(n / min.max(1)).max(1);
    let len = n.div_ceil(parts).max(1);
    (0..parts)
        .map(|k| (k * len).min(n)..((k + 1) * len).min(n))
        .collect()
}

/// Run `f` on every part and return the results in part order: the first
/// part on this thread, each other part on a scoped thread that enters
/// this thread's [`capture`]d context and folds its [`Handback`] in when
/// it ends.
///
/// The first error in part order wins, and the parts after it fold
/// nothing back: the ledger and the injector count then read what a
/// serial loop over the parts, stopping at that error, would leave.
///
/// # Errors
///
/// The error of the first part, in part order, that returned one.
pub fn fork<P: Send, R: Send, E: Send>(
    parts: Vec<P>,
    f: impl Fn(P) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let mut parts = parts.into_iter();
    let Some(own) = parts.next() else {
        return Ok(Vec::new());
    };
    let ctx = capture();
    std::thread::scope(|s| {
        let (ctx, f) = (&ctx, &f);
        let workers: Vec<_> = parts
            .map(|part| {
                s.spawn(move || {
                    let entered = ctx.enter();
                    let out = f(part);
                    (out, entered.leave())
                })
            })
            .collect();
        let mut out = f(own).map(|r| vec![r]);
        for worker in workers {
            let (r, handback) = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            if let Ok(done) = &mut out {
                handback.fold();
                match r {
                    Ok(r) => done.push(r),
                    Err(e) => out = Err(e),
                }
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_in_order_with_a_minimum_per_part() {
        assert_eq!(split(10, 3, 1), [0..4, 4..8, 8..10]);
        assert_eq!(split(10, 3, 4), [0..5, 5..10]);
        assert_eq!(split(3, 7, 4), vec![0..3], "one part below the minimum");
        assert_eq!(split(0, 2, 1), vec![0..0]);
    }

    #[test]
    fn fork_keeps_part_order_and_folds_only_up_to_the_first_error() {
        let _ = take();
        let _g = fault::install_guard(FaultPlan {
            sta_lookup: 1.0,
            ..FaultPlan::new(1)
        });
        let run = |k: usize| {
            bump(|w| w.arc_evals += 1);
            fault::set_context(&format!("part{k}"));
            assert!(fault::should_fault_sta_lookup());
            if k == 2 || k == 4 {
                Err(k)
            } else {
                Ok(k * 10)
            }
        };
        assert_eq!(fork(vec![0, 1, 3], run), Ok(vec![0, 10, 30]));
        assert_eq!((take().arc_evals, fault::injection_count()), (3, 3));
        assert_eq!(fork(vec![0, 1, 2, 3, 4], run), Err(2));
        assert_eq!(
            (take().arc_evals, fault::injection_count()),
            (3, 6),
            "parts 3 and 4 ran but fold nothing"
        );
    }

    #[test]
    fn take_drains_add_folds_and_threads_stay_apart() {
        let _ = take();
        bump(|w| w.dc += 1);
        bump(|w| w.arc_evals += 2);
        let taken = take();
        assert_eq!((taken.dc, taken.arc_evals), (1, 2));
        assert_eq!(get(), Work::default(), "take drains");
        add(taken);
        add(taken);
        assert_eq!((get().dc, get().arc_evals), (2, 4), "add folds");

        let spawned = std::thread::spawn(|| {
            bump(|w| w.tran += 3);
            bump(|w| w.newton_iters += 5);
            take()
        })
        .join()
        .expect("worker");
        add(spawned);
        let want = Work {
            dc: 2,
            tran: 3,
            newton_iters: 5,
            arc_evals: 4,
            ..Work::default()
        };
        assert_eq!(take(), want, "a worker's take, folded here, sums exactly");
        let third = std::thread::spawn(get).join().expect("bystander");
        assert_eq!(third, Work::default(), "an unrelated thread reads zero");
    }
}
