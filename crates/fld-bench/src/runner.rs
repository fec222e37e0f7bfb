//! Parallel sweep execution.
//!
//! Every experiment is a *sweep*: the same simulation run over a list of
//! points (frame sizes, window depths, tenant counts). Points are
//! independent — each builds its own system with its own deterministically
//! seeded RNG — so they can run on worker threads without changing any
//! number: [`run_points`] returns results in input order, and a run's
//! output depends only on its own point, never on which thread or in
//! which order it executed.
//!
//! The worker count is a fact about the host, not a setting:
//! [`run_points`] uses one worker per available core. Because the output
//! never depends on it, there is nothing to configure; the determinism
//! tests pin explicit counts through [`run_points_with`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every point with one worker per available core
/// (`std::thread::available_parallelism`, 1 when undetectable),
/// returning results in input order. See [`run_points_with`].
pub fn run_points<T, R, F>(points: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_points_with(points, workers, f)
}

/// Runs `f` over every point on up to `jobs` worker threads, returning
/// results in input order.
///
/// With `jobs <= 1` (or a single point) this is exactly a serial
/// `points.into_iter().map(f).collect()` on the calling thread — the
/// parallel path must produce byte-identical results, which the
/// determinism regression test asserts.
pub fn run_points_with<T, R, F>(points: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || points.len() <= 1 {
        return points.into_iter().map(&f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let outputs: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(inputs.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let point = inputs[i].lock().unwrap().take().unwrap();
                let result = f(point);
                *outputs[i].lock().unwrap() = Some(result);
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_input_order() {
        let points: Vec<u64> = (0..50).collect();
        let serial = run_points_with(points.clone(), 1, |p| p * p);
        let parallel = run_points_with(points, 8, |p| p * p);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn more_workers_than_points_is_fine() {
        let out = run_points_with(vec![1, 2], 16, |p| p + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u32> = run_points_with(Vec::new(), 4, |p: u32| p);
        assert!(empty.is_empty());
        assert_eq!(run_points_with(vec![9], 4, |p| p * 2), vec![18]);
    }
}
