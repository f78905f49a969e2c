//! Thread primitives for independent work items, all on scoped
//! throwaway threads: an order-preserving [`par_map`] and a one-thread-
//! per-item [`fan_out`].
//!
//! Every reproduction experiment maps independently over benchmarks, and
//! the sharded offline profiler maps over trace shards; `par_map` runs
//! those closures on up to [`max_threads`] threads with scoped borrows
//! (no `'static` bound, no external dependencies) while keeping result
//! order. The sharded controller engine instead splits one large chunk
//! into a few contiguous shard ranges and runs them with [`fan_out`]:
//! one scoped thread per range, the first range on the caller, and any
//! range whose thread cannot be spawned on the caller too. No thread
//! outlives the call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global cap on `par_map` fan-out. Zero means "use
/// `available_parallelism`".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads `par_map` spawns. `0` restores the
/// default (`available_parallelism`). The `repro --threads N` flag routes
/// here.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current effective thread cap.
pub fn max_threads() -> usize {
    let cap = MAX_THREADS.load(Ordering::Relaxed);
    if cap > 0 {
        return cap;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

std::thread_local! {
    /// Countdown for [`fail_nth_spawn`]; `0` means no failure armed.
    static FAIL_NTH_SPAWN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Test seam: arms the *n*-th (1-based) subsequent [`fan_out`] spawn
/// attempt **on this thread** to fail with a synthetic [`std::io::Error`],
/// without consuming an OS thread. `fan_out` spawns from the calling
/// thread, so this injects exactly where its recovery path runs. Passing
/// `0` disarms.
///
/// Spawn failures are otherwise nearly impossible to provoke portably
/// (they require hitting an OS thread limit), yet the fallback they
/// trigger — run the item on the caller instead — is a correctness path
/// the sharded engine depends on.
pub fn fail_nth_spawn(n: usize) {
    FAIL_NTH_SPAWN.with(|c| c.set(n));
}

/// Consumes one spawn attempt from the injection countdown; `true` means
/// this attempt must fail.
fn take_injected_spawn_failure() -> bool {
    FAIL_NTH_SPAWN.with(|c| match c.get() {
        0 => false,
        1 => {
            c.set(0);
            true
        }
        n => {
            c.set(n - 1);
            false
        }
    })
}

/// Applies `f` to every item in parallel, preserving input order.
///
/// `f` may borrow from the environment (threads are scoped). Panics in `f`
/// propagate.
///
/// # Examples
///
/// ```
/// use rsc_util::parallel::par_map;
/// let squares = par_map(vec![1, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if n <= 1 || threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each slot is taken once");
                let r = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("all slots filled")
        })
        .collect()
}

/// Runs `f` on every item, one item per thread, and returns the results
/// in item order: items `1..` each get a scoped thread, item 0 runs on
/// the caller. An item whose thread fails to spawn runs on the caller
/// as well, after item 0, so the results never depend on whether a
/// spawn succeeded. Panics in `f` propagate.
///
/// Unlike [`par_map`] this ignores [`max_threads`]: the caller chooses
/// the number of items, and so the number of threads.
///
/// ```
/// use rsc_util::parallel::fan_out;
/// let mut shards = [1u64, 2, 3, 4];
/// let (lo, hi) = shards.split_at_mut(2);
/// let sums = fan_out(vec![lo, hi], |part| {
///     part.iter_mut().for_each(|x| *x *= 10);
///     part.iter().sum::<u64>()
/// });
/// assert_eq!(sums, vec![30, 70]);
/// assert_eq!(shards, [10, 20, 30, 40]);
/// ```
pub fn fan_out<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    // Each item waits in a slot until it runs, so a failed spawn (which
    // drops its closure) leaves the item behind for the caller.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let run = |i: usize| {
        let item = slots[i]
            .lock()
            .expect("item slot poisoned")
            .take()
            .expect("each item runs once");
        f(item)
    };
    let mut out: Vec<Option<R>> = slots.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let run = &run;
        let mut spawned = Vec::new();
        let mut on_caller = vec![0];
        for i in 1..slots.len() {
            let handle = if take_injected_spawn_failure() {
                Err(std::io::Error::other("injected spawn failure"))
            } else {
                std::thread::Builder::new().spawn_scoped(scope, move || run(i))
            };
            match handle {
                Ok(h) => spawned.push((i, h)),
                Err(_) => on_caller.push(i),
            }
        }
        for i in on_caller {
            out[i] = Some(run(i));
        }
        for (i, h) in spawned {
            out[i] = Some(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        assert_eq!(par_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn borrows_environment() {
        let base = 10;
        let out = par_map(vec![1, 2, 3], |x| x + base);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    #[should_panic]
    fn propagates_panics() {
        let _ = par_map(vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn thread_cap_of_one_is_sequential_and_correct() {
        set_max_threads(1);
        let out = par_map((0..32).collect(), |x: i32| x + 1);
        set_max_threads(0);
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_failure_on_first_worker_returns_all_states_in_order() {
        // The first spawn (item 1's) fails: item 1 runs on the caller
        // after item 0, and the seam disarms after firing.
        let caller = std::thread::current().id();
        fail_nth_spawn(1);
        let ran = fan_out(vec![1u8, 2, 3, 4], |x| (x, std::thread::current().id()));
        let items: Vec<u8> = ran.iter().map(|&(x, _)| x).collect();
        assert_eq!(items, vec![1, 2, 3, 4], "every item ran, in order");
        let on_caller: Vec<bool> = ran.iter().map(|&(_, t)| t == caller).collect();
        assert_eq!(on_caller, vec![true, true, false, false]);
        let again = fan_out(vec![1u8, 2], |_| std::thread::current().id());
        assert_ne!(again[1], caller, "the next fan-out spawns again");
    }

    #[test]
    fn spawn_failure_mid_way_recovers_already_spawned_states_in_order() {
        // Items 1 and 2 spawn, item 3's spawn fails: item 3 joins item 0
        // on the caller, and the results keep item order.
        let caller = std::thread::current().id();
        fail_nth_spawn(3);
        let ran = fan_out(vec![10u8, 11, 12, 13, 14], |x| {
            (x, std::thread::current().id() == caller)
        });
        assert_eq!(
            ran,
            vec![
                (10, true),
                (11, false),
                (12, false),
                (13, true),
                (14, false)
            ]
        );
    }

    #[test]
    fn overlap_panic_still_drains_the_barrier() {
        // Item 0 panics on the caller while items 1.. run on threads; the
        // barrier holds the threads until the caller is about to panic.
        // The panic reaches the caller only after every thread finished.
        let start = std::sync::Barrier::new(4);
        let finished = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(vec![0u8, 1, 2, 3], |x| {
                start.wait();
                assert!(x != 0, "caller-side boom");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(r.is_err(), "the panic reaches the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 3, "every thread joined");
    }
}
