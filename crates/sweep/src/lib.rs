//! # armbar-sweep — deterministic parallel sweep engine
//!
//! Every sweep in the workspace (figure regeneration, the chaos matrix,
//! repeated overhead measurements) is a list of *independent* jobs: each
//! simulator run is a pure function of `(topology, seed, program)`, so the
//! only thing serial execution buys is wasted wall time. [`SweepPool`]
//! fans such a list out over a scoped worker pool while keeping every
//! observable output **byte-identical to the serial path**:
//!
//! * results are collected into slots indexed by *submission order*, never
//!   by completion order;
//! * a panicking job does not race its siblings — the first panic in
//!   submission order is the one re-raised, regardless of worker count;
//! * jobs that measure host wall time ([`Job::serial`]) bypass the pool
//!   entirely and run alone on the caller thread after the parallel batch
//!   has drained, so oversubscription can never skew their timings. The
//!   bypass is part of the job's type, not a calling convention.
//!
//! Nesting is safe by construction: a `run` issued from inside a pool
//! worker executes its jobs inline on that worker, so layered sweeps
//! (curve → repetitions) parallelize at the outermost level only instead
//! of multiplying worker counts.
//!
//! [`bench_json`] is the workspace's one bench-JSON writer.

pub mod bench_json;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a job interacts with the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Pure CPU work (simulator runs): may share the machine with other
    /// jobs.
    Parallel,
    /// Wall-clock-sensitive work (host-backend measurements): must run
    /// alone, on the caller thread, with the pool idle.
    Serial,
}

/// One unit of sweep work producing a `T`.
pub struct Job<'a, T> {
    kind: JobKind,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T: Send> Job<'a, T> {
    /// A job the pool may run concurrently with others — correct for any
    /// deterministic simulation (virtual time cannot observe the host
    /// scheduler).
    pub fn parallel(f: impl FnOnce() -> T + Send + 'a) -> Self {
        Self { kind: JobKind::Parallel, run: Box::new(f) }
    }

    /// A job that measures host wall time and therefore bypasses the
    /// worker pool: it runs on the submitting thread after all parallel
    /// jobs have finished, one at a time.
    pub fn serial(f: impl FnOnce() -> T + Send + 'a) -> Self {
        Self { kind: JobKind::Serial, run: Box::new(f) }
    }
}

thread_local! {
    /// Set while the current thread is a pool worker; makes nested `run`
    /// calls execute inline instead of spawning a second tier of workers.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Requested worker count for ambient pools: 0 = unset (resolve from the
/// environment on first use).
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the ambient worker count (the `--jobs` CLI flag). Takes
/// precedence over `ARMBAR_JOBS`; clamped to at least 1.
pub fn set_global_jobs(n: usize) {
    GLOBAL_JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The host's core count, the upper bound and default for worker counts.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}

/// Resolves the ambient worker request: [`set_global_jobs`] wins, then
/// `ARMBAR_JOBS`, then every available core. Malformed `ARMBAR_JOBS`
/// values warn once on stderr and fall back to the default — they are
/// never silently dropped.
fn requested_jobs() -> usize {
    match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => match std::env::var_os("ARMBAR_JOBS") {
            // var_os, not var: a non-unicode value must reach the warning
            // below, not vanish into a silent `VarError` fallback.
            Some(raw) => match raw.to_str().and_then(parse_jobs_var) {
                Some(n) => n,
                None => {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "armbar: ignoring unparseable ARMBAR_JOBS={raw:?} \
                             (expected a positive integer); using all cores"
                        );
                    });
                    available_parallelism()
                }
            },
            None => available_parallelism(),
        },
        n => n,
    }
}

/// Parses an `ARMBAR_JOBS`-style value: a positive integer, or `None` for
/// anything else (empty, zero, garbage).
fn parse_jobs_var(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// A deterministic scoped worker pool. Cheap to construct: threads are
/// spawned per [`SweepPool::run`] call and joined before it returns, so a
/// pool owns no state beyond its worker count.
#[derive(Debug, Clone)]
pub struct SweepPool {
    workers: usize,
}

impl SweepPool {
    /// A pool with exactly `workers` workers (at least 1). `new(1)` is the
    /// reference serial path: jobs run on the caller thread in submission
    /// order.
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// The process-wide pool: `min(--jobs | ARMBAR_JOBS, available
    /// cores)`, defaulting to all cores.
    pub fn ambient() -> Self {
        Self::new(requested_jobs().min(available_parallelism()))
    }

    /// Worker count this pool runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns their results in submission order.
    ///
    /// [`Job::parallel`] jobs are distributed over the workers;
    /// [`Job::serial`] jobs then run one at a time on the calling thread
    /// while the pool is idle. If any job panics, the panic of the
    /// *lowest-indexed* panicking job is re-raised after all jobs have been
    /// attempted — the same panic the serial path would surface first.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Vec<T> {
        let n = jobs.len();
        if self.workers <= 1 || n <= 1 || IN_POOL_WORKER.with(Cell::get) {
            // The serial reference path (also taken for nested runs).
            return collect(jobs.into_iter().map(|j| catch_unwind_job(j.run)));
        }

        let mut slots: Vec<Mutex<Option<std::thread::Result<T>>>> = Vec::with_capacity(n);
        slots.resize_with(n, || Mutex::new(None));
        let mut parallel = VecDeque::new();
        let mut serial = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            match job.kind {
                JobKind::Parallel => parallel.push_back((i, job.run)),
                JobKind::Serial => serial.push((i, job.run)),
            }
        }

        let queue = Mutex::new(parallel);
        let spawn_count = self.workers.min(queue.lock().unwrap().len());
        if spawn_count > 0 {
            std::thread::scope(|s| {
                for _ in 0..spawn_count {
                    s.spawn(|| {
                        IN_POOL_WORKER.with(|f| f.set(true));
                        loop {
                            // Pop under the lock, run outside it.
                            let Some((i, f)) = queue.lock().unwrap().pop_front() else {
                                break;
                            };
                            *slots[i].lock().unwrap() = Some(catch_unwind_job(f));
                        }
                    });
                }
            });
        }

        // Host-measurement jobs: caller thread, pool drained, no overlap.
        for (i, f) in serial {
            *slots[i].lock().unwrap() = Some(catch_unwind_job(f));
        }

        collect(slots.into_iter().map(|m| m.into_inner().unwrap().expect("job slot unfilled")))
    }
}

fn catch_unwind_job<T>(f: Box<dyn FnOnce() -> T + Send + '_>) -> std::thread::Result<T> {
    catch_unwind(AssertUnwindSafe(f))
}

/// Unwraps job results in submission order, re-raising the first panic.
fn collect<T>(results: impl IntoIterator<Item = std::thread::Result<T>>) -> Vec<T> {
    let mut out = Vec::new();
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn squares(pool: &SweepPool, n: usize) -> Vec<usize> {
        pool.run((0..n).map(|i| Job::parallel(move || i * i)).collect())
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        for workers in [1, 2, 4, 16] {
            assert_eq!(squares(&SweepPool::new(workers), 64), expected, "workers={workers}");
        }
    }

    #[test]
    fn serial_jobs_never_overlap_parallel_ones() {
        // While a serial job runs, no parallel job may be in flight.
        let in_flight = AtomicUsize::new(0);
        let jobs: Vec<Job<'_, bool>> = (0..32)
            .map(|i| {
                let in_flight = &in_flight;
                if i % 4 == 0 {
                    Job::serial(move || in_flight.load(Ordering::SeqCst) == 0)
                } else {
                    Job::parallel(move || {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        true
                    })
                }
            })
            .collect();
        let results = SweepPool::new(8).run(jobs);
        assert_eq!(results.len(), 32);
        assert!(results.iter().all(|&alone| alone), "a serial job saw parallel work in flight");
    }

    #[test]
    fn nested_runs_execute_inline() {
        // A job that runs a sub-sweep must not deadlock or over-spawn; the
        // inner run happens inline on the worker.
        let pool = SweepPool::new(4);
        let outer = pool.run(
            (0..4)
                .map(|i| {
                    Job::parallel(move || {
                        let inner = SweepPool::new(4)
                            .run((0..4).map(|j| Job::parallel(move || i * 10 + j)).collect());
                        inner.iter().sum::<usize>()
                    })
                })
                .collect(),
        );
        assert_eq!(outer, vec![6, 46, 86, 126]);
    }

    #[test]
    fn first_panic_in_submission_order_wins() {
        for workers in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                SweepPool::new(workers).run(vec![
                    Job::parallel(|| 1),
                    Job::parallel(|| panic!("first failure")),
                    Job::parallel(|| -> i32 { panic!("second failure") }),
                ]);
            }))
            .expect_err("must propagate the panic");
            let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "first failure", "workers={workers}");
        }
    }

    #[test]
    fn later_jobs_still_run_after_a_panic() {
        // The pool attempts every job before re-raising, so sibling work
        // is never silently skipped (matters for serial host cells).
        let ran = AtomicBool::new(false);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            SweepPool::new(2).run(vec![
                Job::parallel(|| panic!("boom")),
                Job::serial(|| ran.store(true, Ordering::SeqCst)),
            ]);
        }));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn worker_count_is_clamped_to_at_least_one() {
        assert_eq!(SweepPool::new(0).workers(), 1);
        assert!(SweepPool::ambient().workers() >= 1);
    }

    #[test]
    fn jobs_var_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_jobs_var("8"), Some(8));
        assert_eq!(parse_jobs_var(" 2 "), Some(2));
        assert_eq!(parse_jobs_var("0"), None);
        assert_eq!(parse_jobs_var("-3"), None);
        assert_eq!(parse_jobs_var("many"), None);
        assert_eq!(parse_jobs_var(""), None);
    }

    #[test]
    fn jobs_var_non_unicode_values_hit_the_malformed_path() {
        // `requested_jobs` reads with `var_os` precisely so a non-unicode
        // value takes the warn-and-default branch (`to_str()` -> None)
        // rather than disappearing into a `VarError::NotUnicode` fallback.
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt as _;
            let raw = std::ffi::OsStr::from_bytes(&[0x38, 0xFF, 0xFE]); // "8" + invalid UTF-8
            assert_eq!(raw.to_str().and_then(parse_jobs_var), None);
        }
        assert_eq!(std::ffi::OsStr::new("8").to_str().and_then(parse_jobs_var), Some(8));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = SweepPool::new(4).run(Vec::new());
        assert!(out.is_empty());
    }
}
