//! The workspace's one job pool: index jobs fanned out over scoped worker
//! threads, collected in index order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs jobs `0..n` on up to `workers` threads and returns their results in
/// index order. Workers pull the next index from a shared counter and write
/// each result into its own [`OnceLock`] slot, so the output is identical
/// at any worker count. With one worker (or at most one job) the jobs run
/// in order on the calling thread.
///
/// Frame pack/unpack fan out group chunks with it, and the experiment
/// matrix fans out its cells.
///
/// ```
/// let squares = codepack_core::run_jobs(5, 3, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_jobs<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(&job).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let done = job(i);
                let _ = slots[i].set(done);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}
