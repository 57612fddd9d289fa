//! Order-preserving scoped-thread fan-out for batch screening, and the
//! worker-count bounds the `tao` session scheduler shares.

pub use tao_tensor::kernel::MAX_PAR_THREADS;

/// Hard upper bound on a requested worker count, so a mistyped request
/// clamps instead of spawning thousands of threads. Pools that run forward
/// passes (batch screening, the session scheduler) also stay within
/// [`MAX_PAR_THREADS`].
pub const MAX_WORKERS: usize = 64;

/// Applies `f` to every item on scoped worker threads, returning results
/// in item order. `threads` is clamped to `[1, MAX_WORKERS]`; an
/// empty input returns an empty vector without spawning.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, MAX_WORKERS);
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut out: Vec<Option<U>> = Vec::new();
    out.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in slots.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, result) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    *result = Some(f(slot.take().expect("slot filled once")));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_handles_edges() {
        assert!(parallel_map(Vec::<i32>::new(), 4, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7], 4, |x: i32| x + 1), vec![8]);
        let doubled = parallel_map((0..37).collect(), 4, |x: i32| x * 2);
        assert_eq!(doubled, (0..37).map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate thread counts clamp instead of panicking.
        assert_eq!(parallel_map(vec![1, 2, 3], 0, |x: i32| x), vec![1, 2, 3]);
    }
}
