//! Minimal scoped-thread fan-out helpers for the per-second hot path.
//!
//! The control plane and the simulation engine shard their embarrassingly
//! parallel phases (server stepping, sensing, demand estimation, per-tree
//! allocation) across OS threads with [`std::thread::scope`]. No thread
//! pool and no extra dependency: a scope is cheap enough for phases that
//! process thousands of servers, and `threads <= 1` short-circuits to a
//! plain sequential loop so single-threaded callers pay nothing.
//!
//! Every helper preserves input order in its output, which is what makes
//! the parallel control round bit-identical to the sequential one: each
//! item's computation is independent, and any cross-item reduction is left
//! to the (deterministic) caller.

/// Maps `f` over `items`, fanning out across up to `threads` scoped
/// threads. Results are returned in input order regardless of thread
/// count, so `par_map(.., 8, f)` is bit-identical to
/// `items.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
    });
    out
}

/// Runs `f` on every item, fanning the mutable slice out across up to
/// `threads` scoped threads. Items are independent, so ordering does not
/// matter for the result; chunks are still contiguous for locality.
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for slice in items.chunks_mut(chunk) {
            scope.spawn(move || {
                for item in slice {
                    f(item);
                }
            });
        }
    });
}

/// Maps `f` over the index range `0..len`, fanning out across up to
/// `threads` scoped threads. Results come back in index order, so the
/// output is bit-identical to `(0..len).map(f).collect()` for every
/// thread count. The index-based shape lets callers read shared
/// structure-of-arrays state (e.g. the farm's server slab) without first
/// collecting a `Vec` of references — the per-round fan-outs of the
/// control plane use this to stay allocation-free on the input side.
pub fn par_map_range<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let f = &f;
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(len);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("par_map_range worker panicked"));
        }
    });
    out
}

/// Maps `f` over a mutable slice with each item's index, fanning out
/// across up to `threads` scoped threads. Results come back in input
/// order, so the output is independent of the thread count (see
/// [`par_map`]). The index lets callers read a parallel lane (e.g. the
/// reading for the same farm slot) without zipping it into the slice.
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter_mut().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                scope.spawn(move || {
                    let base = c * chunk;
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(i, x)| f(base + i, x))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("par_map_mut worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 1000, 5000] {
            assert_eq!(par_map(&items, threads, |x| x * 3 + 1), seq);
        }
    }

    #[test]
    fn par_map_handles_empty_and_zero_threads() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(par_map(&[5u32], 0, |x| *x + 1), vec![6]);
    }

    #[test]
    fn par_map_mut_mutates_and_preserves_order() {
        for threads in [1, 3, 16] {
            let mut items: Vec<u64> = (0..100).collect();
            let doubled = par_map_mut(&mut items, threads, |i, x| {
                assert_eq!(*x, i as u64, "index must match the item's position");
                *x *= 2;
                *x
            });
            assert!(doubled.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
            assert_eq!(items, doubled);
        }
    }

    #[test]
    fn par_for_each_mut_touches_every_item_once() {
        for threads in [1, 2, 5, 64] {
            let mut items: Vec<u64> = (0..257).collect();
            par_for_each_mut(&mut items, threads, |x| *x += 1000);
            assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 + 1000));
        }
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let seq: Vec<usize> = (0..257).map(|i| i * 7 + 3).collect();
        for threads in [1, 2, 3, 8, 300] {
            assert_eq!(par_map_range(257, threads, |i| i * 7 + 3), seq);
        }
        assert!(par_map_range(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_map_is_bit_identical_for_floats() {
        // f64 math per item (no cross-item reduction) must not depend on
        // the thread count.
        let items: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let f = |x: &f64| (x.sin() * 1e9).mul_add(3.7, 1.0 / (x + 0.5));
        let seq = par_map(&items, 1, f);
        for threads in [2, 3, 8] {
            let par = par_map(&items, threads, f);
            assert!(seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
