//! Scoped-thread data parallelism, replacing the external `rayon`
//! dependency.
//!
//! The reference operators only ever need one shape of parallelism: split a
//! flat output buffer into equal disjoint chunks and fill each chunk
//! independently. `std::thread::scope` covers that without a work-stealing
//! runtime. Each thread takes one contiguous share of the chunks, and the
//! shares differ by at most one chunk, so no lock is taken per chunk; the
//! calling thread runs the first share instead of waiting idle.
//!
//! Results are bit-identical to the sequential loop regardless of thread
//! count: each chunk is written by exactly one closure call with no
//! cross-chunk accumulation.

use std::sync::OnceLock;

/// Elements below this count run sequentially — thread spawn/join costs more
/// than the work itself for small tensors (LeNet-sized planes).
const PAR_THRESHOLD: usize = 1 << 14;

/// Splits `data` into chunks of `size` elements (the last may be shorter)
/// and calls `f(chunk_index, chunk)` for each, in parallel when the buffer
/// is large enough to pay for threads.
///
/// # Panics
/// Panics if `size == 0` while `data` is non-empty.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = if data.len() < PAR_THRESHOLD {
        1
    } else {
        max_threads()
    };
    in_shares(data, size, threads, &f);
}

/// The machine's available parallelism, read once: `std` re-reads the
/// cgroup quota files, allocating, on every call.
fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`for_each_chunk_mut`] on at most `threads` threads: thread `t` runs
/// chunks `t * n / threads .. (t + 1) * n / threads` of the `n` chunks.
fn in_shares<T, F>(data: &mut [T], size: usize, threads: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(size > 0, "chunk size must be positive");
    let (len, n_chunks) = (data.len(), data.len().div_ceil(size));
    let threads = threads.clamp(1, n_chunks);
    if threads == 1 {
        return run_share(data, size, 0, f);
    }
    let first_chunk = |t: usize| t * n_chunks / threads;
    let share_len = |t: usize| (first_chunk(t + 1) * size).min(len) - first_chunk(t) * size;
    let (mine, mut rest) = data.split_at_mut(share_len(0));
    std::thread::scope(|s| {
        for t in 1..threads {
            let (share, tail) = std::mem::take(&mut rest).split_at_mut(share_len(t));
            rest = tail;
            let first = first_chunk(t);
            s.spawn(move || run_share(share, size, first, f));
        }
        run_share(mine, size, 0, f);
    });
}

/// Runs `f` over the chunks of one share, numbering them from `first`.
fn run_share<T, F: Fn(usize, &mut [T])>(share: &mut [T], size: usize, first: usize, f: &F) {
    for (i, chunk) in share.chunks_mut(size).enumerate() {
        f(first + i, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_fill() {
        let mut par = vec![0usize; 100_000];
        for_each_chunk_mut(&mut par, 97, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 1_000_000 + j;
            }
        });
        let mut seq = vec![0usize; 100_000];
        for (i, chunk) in seq.chunks_mut(97).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 1_000_000 + j;
            }
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn small_buffers_run_inline() {
        let mut data = vec![1.0f32; 64];
        for_each_chunk_mut(&mut data, 16, |_, chunk| {
            for v in chunk {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        let mut data: Vec<f32> = Vec::new();
        for_each_chunk_mut(&mut data, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn ragged_tail_chunk_is_processed() {
        let mut data = vec![0u8; 10];
        for_each_chunk_mut(&mut data, 4, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as u8 + 1;
            }
        });
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    /// Fills every element with its chunk index under `threads` threads and
    /// checks that each chunk was visited exactly once, in its own place.
    fn assert_each_chunk_once(len: usize, size: usize, threads: usize) {
        let n_chunks = len.div_ceil(size);
        let visits: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
        let mut data = vec![usize::MAX; len];
        in_shares(&mut data, size, threads, &|i, chunk: &mut [usize]| {
            visits[i].fetch_add(1, Ordering::Relaxed);
            chunk.fill(i);
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert!(data.iter().enumerate().all(|(j, &i)| i == j / size));
    }

    #[test]
    fn fewer_chunks_than_threads_each_run_once() {
        assert_each_chunk_once(3 * 50, 50, 8);
        assert_each_chunk_once(1, 50, 8);
    }

    #[test]
    fn more_chunks_than_threads_with_a_ragged_tail_each_run_once() {
        assert_each_chunk_once(10 * 64 + 17, 64, 3);
        assert_each_chunk_once(PAR_THRESHOLD + 5, 97, 4);
    }
}
