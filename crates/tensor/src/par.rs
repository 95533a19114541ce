//! Data parallelism on a persistent worker pool, replacing the external
//! `rayon` dependency.
//!
//! The reference operators only ever need one shape of parallelism: split a
//! flat output buffer into equal disjoint chunks and fill each chunk
//! independently. Each call splits the chunks into contiguous shares that
//! differ by at most one chunk, so no lock is taken per chunk.
//!
//! The pool keeps its workers, as TVM's CPU runtime keeps its threads
//! (§6.4.2):
//!
//! * It spawns `available_parallelism - 1` workers on the first parallel
//!   call, never before. They block on a condition variable between calls
//!   and are detached, so they never keep the process alive.
//! * The calling thread runs share 0, then any share no worker has taken
//!   yet, then waits for the rest. A call allocates nothing: the job is a
//!   borrowed closure published under the pool's lock.
//! * One call holds the pool at a time. A call that finds it held, from
//!   another thread or from inside a share, runs all its chunks on its own
//!   thread.
//! * A panic in any share is re-raised on the caller once every share has
//!   finished. Shares run outside the pool's lock, so no panic poisons it,
//!   and the pool stays usable.
//!
//! Results are bit-identical to the sequential loop regardless of thread
//! count: each chunk is written by exactly one closure call with no
//! cross-chunk accumulation.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Elements below this count run sequentially: waking a parked worker and
/// waiting for it costs more than the work saves. On a 2-vCPU VM a call
/// that fills 2^14 floats took 23 µs on the pool and 19 µs on one thread
/// (50 µs when every call spawned its threads). LeNet's tensors all stay
/// below it, so its per-image work never touches the pool.
const PAR_THRESHOLD: usize = 1 << 14;

/// Splits `data` into chunks of `size` elements (the last may be shorter)
/// and calls `f(chunk_index, chunk)` for each, in parallel when the buffer
/// is large enough to pay for waking the pool's workers.
///
/// # Panics
/// Panics if `size == 0` while `data` is non-empty, and re-raises the first
/// panic of `f`.
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

/// The process-wide pool, its workers spawned on first use.
fn pool() -> &'static Pool {
    static POOL: Pool = Pool::new();
    static SPAWN: Once = Once::new();
    SPAWN.call_once(|| POOL.spawn_workers(max_threads() - 1));
    &POOL
}

/// [`for_each_chunk_mut`] in at most `threads` shares: share `t` runs
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
    let threads = threads.clamp(1, data.len().div_ceil(size));
    if threads == 1 || !pool().try_shares(data, size, threads, f) {
        run_share(data, size, 0, f);
    }
}

/// Runs `f` over the chunks of one share, numbering them from `first`.
fn run_share<T, F: Fn(usize, &mut [T])>(share: &mut [T], size: usize, first: usize, f: &F) {
    for (i, chunk) in share.chunks_mut(size).enumerate() {
        f(first + i, chunk);
    }
}

/// A job as the workers see it: run share `t` of the current call.
type Job = &'static (dyn Fn(usize) + Sync);

/// A panic payload caught in a share.
type Payload = Box<dyn Any + Send>;

/// The worker pool: one published call at a time, handed out share by
/// share under one lock.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a call publishes its shares.
    work: Condvar,
    /// Signalled when the last handed-out share of a call finishes.
    done: Condvar,
}

/// The pool's current call. Every update happens under the lock and leaves
/// the fields consistent, and no share runs under it.
struct State {
    /// The current call's job; `None` when the pool is free.
    job: Option<Job>,
    /// Shares in the current call, share 0 included.
    shares: usize,
    /// The next share to hand out; share 0 is the caller's.
    next: usize,
    /// Shares other than 0 that have not finished or been withdrawn.
    unfinished: usize,
    /// The first panic a share other than 0 raised.
    panic: Option<Payload>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                job: None,
                shares: 0,
                next: 0,
                unfinished: 0,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Spawns `n` workers, detached so they never keep the process alive.
    /// A worker catches every share's panic and hands it to the caller, so
    /// detaching hides none. A worker that fails to spawn is not replaced:
    /// the caller runs every share no worker takes.
    fn spawn_workers(&'static self, n: usize) {
        for i in 0..n {
            let spawned = std::thread::Builder::new()
                .name(format!("tensor-par-{i}"))
                .spawn(move || self.work_loop());
            if spawned.is_err() {
                break;
            }
        }
    }

    /// Locks the state. No share runs under the lock and every update
    /// leaves the state whole, so a poisoned lock holds valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker: take the next share of the current call, run it, repeat;
    /// sleep while there is none.
    fn work_loop(&self) {
        let mut state = self.lock();
        loop {
            state = match state.claim() {
                Some((job, t)) => {
                    drop(state);
                    self.run_claimed(job, t)
                }
                None => wait(&self.work, state),
            };
        }
    }

    /// Runs a handed-out share outside the lock, then records under it that
    /// the share finished, keeping its panic if it is the call's first.
    fn run_claimed(&self, job: Job, t: usize) -> MutexGuard<'_, State> {
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(t)));
        let mut state = self.lock();
        if state.panic.is_none() {
            state.panic = result.err();
        }
        state.unfinished -= 1;
        if state.unfinished == 0 {
            self.done.notify_one();
        }
        state
    }

    /// Splits `data` into `threads` shares as [`in_shares`] documents and
    /// runs them on the pool, share 0 on the calling thread. Returns false,
    /// running nothing, if another call holds the pool.
    fn try_shares<T, F>(&self, data: &mut [T], size: usize, threads: usize, f: &F) -> bool
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let (len, n_chunks) = (data.len(), data.len().div_ceil(size));
        let first_chunk = |t: usize| t * n_chunks / threads;
        let base = Disjoint(data.as_mut_ptr());
        let share = |t: usize| {
            let (start, end) = (first_chunk(t) * size, (first_chunk(t + 1) * size).min(len));
            // SAFETY: share `t` covers elements `start..end` of `data`, and
            // the shares of one call tile `0..len` without overlap. Each
            // share index of a call is handed out once (`State::claim`), so
            // no two threads ever hold overlapping slices, and `data`'s
            // borrow outlives the call (see `run`).
            let share = unsafe { std::slice::from_raw_parts_mut(base.at(start), end - start) };
            run_share(share, size, first_chunk(t), f);
        };
        self.run(threads, &share)
    }

    /// Runs `job(t)` for every `t < shares`: publishes the call, runs
    /// share 0, runs any share still unclaimed, then waits for the workers'
    /// shares and re-raises the first panic. Returns false, running
    /// nothing, if another call holds the pool.
    fn run(&self, shares: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        {
            let mut state = self.lock();
            if state.job.is_some() {
                return false;
            }
            // SAFETY: the job is only called through `State::job`, which is
            // `Some` from here until `Joined::join` resets it after every
            // handed-out share has finished and no further share can be
            // handed out. `Joined` runs that join even when share 0
            // unwinds, so this frame, and the borrow of `job`, outlive
            // every call of it.
            let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
            state.job = Some(job);
            state.shares = shares;
            state.next = 1;
            state.unfinished = shares - 1;
        }
        let joined = Joined(self);
        self.work.notify_all();
        job(0);
        let mut state = self.lock();
        while let Some((job, t)) = state.claim() {
            drop(state);
            state = self.run_claimed(job, t);
        }
        drop(state);
        if let Some(payload) = joined.join() {
            panic::resume_unwind(payload);
        }
        true
    }
}

/// Waits on `cv`, recovering a poisoned guard as [`Pool::lock`] does.
fn wait<'s>(cv: &Condvar, state: MutexGuard<'s, State>) -> MutexGuard<'s, State> {
    cv.wait(state).unwrap_or_else(PoisonError::into_inner)
}

impl State {
    /// Hands out the current call's next share, if one is left.
    fn claim(&mut self) -> Option<(Job, usize)> {
        let job = self.job.filter(|_| self.next < self.shares)?;
        self.next += 1;
        Some((job, self.next - 1))
    }
}

/// Waits for the current call's handed-out shares and frees the pool, on
/// [`Joined::join`] or, if share 0 unwinds, on drop.
struct Joined<'p>(&'p Pool);

impl Joined<'_> {
    /// Joins the call and returns the first panic of a share other than 0.
    fn join(self) -> Option<Payload> {
        let payload = self.wait_and_free();
        std::mem::forget(self);
        payload
    }

    /// Withdraws the shares no one has taken, waits for the handed-out
    /// ones and frees the pool for the next call.
    fn wait_and_free(&self) -> Option<Payload> {
        let pool = self.0;
        let mut state = pool.lock();
        state.unfinished -= state.shares - state.next;
        state.next = state.shares;
        while state.unfinished > 0 {
            state = wait(&pool.done, state);
        }
        state.job = None;
        state.panic.take()
    }
}

impl Drop for Joined<'_> {
    fn drop(&mut self) {
        // Share 0 is unwinding: its panic wins over any worker's.
        drop(self.wait_and_free());
    }
}

/// The base of a buffer whose disjoint shares several threads fill.
struct Disjoint<T>(*mut T);

// SAFETY: the pointer is only turned into slices of disjoint shares (see
// `Pool::try_shares`), each owned by one thread for the call, which is
// sending a `&mut [T]` to that thread: sound for `T: Send`.
unsafe impl<T: Send> Sync for Disjoint<T> {}

impl<T> Disjoint<T> {
    /// The address of element `i`, which must be within the buffer.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn matches_sequential_fill() {
        let mut par = vec![0usize; 100_000];
        for_each_chunk_mut(&mut par, 97, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 1_000_000 + j;
            }
        });
        assert_eq!(par, sequential_fill(100_000, 97));
    }

    fn sequential_fill(len: usize, size: usize) -> Vec<usize> {
        let mut seq = vec![0usize; len];
        for (i, chunk) in seq.chunks_mut(size).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 1_000_000 + j;
            }
        }
        seq
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

    /// A pool of one worker that no other test shares.
    fn private_pool() -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new()));
        pool.spawn_workers(1);
        pool
    }

    /// Runs a two-share call on `pool` in which share 0 waits until share
    /// 1 has started, so share 1 must run on a worker, then `panics_in`
    /// share 0 or 1 (or neither). Returns the data, or the panic message.
    fn two_share_call(pool: &Pool, panics_in: Option<usize>) -> Result<Vec<usize>, String> {
        let (started, wait) = mpsc::channel();
        let (started, wait) = (Mutex::new(started), Mutex::new(wait));
        let mut data = vec![0usize; 8];
        let call = panic::catch_unwind(AssertUnwindSafe(|| {
            let ran = pool.try_shares(&mut data, 4, 2, &|i, chunk: &mut [usize]| {
                if i == 0 {
                    let wait = wait.lock().unwrap();
                    wait.recv_timeout(Duration::from_secs(10))
                        .expect("share 1 never started on a worker");
                } else {
                    started.lock().unwrap().send(()).unwrap();
                }
                if panics_in == Some(i) {
                    panic!("share {i} failed");
                }
                chunk.fill(i + 1);
            });
            assert!(ran, "the private pool is free");
        }));
        match call {
            Ok(()) => Ok(data),
            Err(payload) => Err(payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()),
        }
    }

    #[test]
    fn a_panic_in_any_share_reaches_the_caller_and_the_pool_survives() {
        let pool = private_pool();
        let filled = Ok(vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(two_share_call(pool, None), filled);
        // A worker's share panics: re-raised on the caller.
        assert_eq!(two_share_call(pool, Some(1)), Err("share 1 failed".into()));
        assert_eq!(two_share_call(pool, None), filled);
        // The caller's own share panics: the caller still waits for the
        // worker, then unwinds with its own panic.
        assert_eq!(two_share_call(pool, Some(0)), Err("share 0 failed".into()));
        assert_eq!(two_share_call(pool, None), filled);
        assert!(pool.state.lock().is_ok(), "no panic poisoned the pool");
    }

    #[test]
    fn concurrent_calls_both_match_the_sequential_fill() {
        const LEN: usize = 4 * PAR_THRESHOLD;
        let (inside, after) = (Barrier::new(2), Barrier::new(2));
        let fill = |i: usize, chunk: &mut [usize]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 1_000_000 + j;
            }
        };
        std::thread::scope(|s| {
            // The first call holds the pool (or runs inline, if another
            // test holds it) while the second runs its whole call.
            let first = s.spawn(|| {
                let mut data = vec![0usize; LEN];
                for_each_chunk_mut(&mut data, 97, |i, chunk| {
                    if i == 0 {
                        inside.wait();
                        after.wait();
                    }
                    fill(i, chunk);
                });
                data
            });
            let second = s.spawn(|| {
                inside.wait();
                let mut data = vec![0usize; LEN];
                for_each_chunk_mut(&mut data, 89, fill);
                after.wait();
                data
            });
            assert_eq!(first.join().unwrap(), sequential_fill(LEN, 97));
            assert_eq!(second.join().unwrap(), sequential_fill(LEN, 89));
        });
    }

    #[test]
    fn a_call_nested_inside_a_share_completes() {
        let mut outer = vec![0usize; 2 * PAR_THRESHOLD];
        for_each_chunk_mut(&mut outer, PAR_THRESHOLD, |i, chunk| {
            for_each_chunk_mut(chunk, 97, |j, inner| inner.fill(i * 1_000 + j));
        });
        for (i, half) in outer.chunks(PAR_THRESHOLD).enumerate() {
            for (j, inner) in half.chunks(97).enumerate() {
                assert!(inner.iter().all(|&v| v == i * 1_000 + j));
            }
        }
    }
}
