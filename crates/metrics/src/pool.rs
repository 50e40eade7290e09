//! The one worker pool every campaign runs on.
//!
//! Campaign items (measurements, handover scripts, fleet replications) are
//! independently seeded, single-threaded simulated worlds, so running them
//! in parallel is a pure throughput optimization: workers pull items off a
//! shared cursor, contend on nothing else, and results come back in input
//! order whatever the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item on `workers` scoped threads and return the
/// results in input order.
///
/// `workers == 0` means one per available core
/// (`std::thread::available_parallelism()`); the count is clamped to
/// `1..=items.len()`, and a single worker runs inline on the caller's
/// thread. A panic in `f` is re-raised on the caller's thread.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
    .clamp(1, n.max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}
