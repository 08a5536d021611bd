//! Minimal parallel map over `std::thread::scope`.
//!
//! The per-center loops of the ball-growing metrics are embarrassingly
//! parallel and CPU-bound, so plain scoped threads pulling chunks off a
//! shared atomic index are all we need (per the Tokio guide's own
//! advice, an async runtime buys nothing here).
//!
//! Work is handed out in contiguous chunks: the output vector is split
//! with `chunks_mut`, each chunk guarded by a `Mutex` that its owning
//! worker locks exactly once, and workers claim chunk indices from an
//! `AtomicUsize`. Output order always matches input order, so results
//! are identical for any thread count (including one), and a panicking
//! worker re-raises its *original* panic payload on the calling thread.

use crate::cancel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One contiguous output chunk: its start index in the full output plus
/// the slots themselves, locked exactly once by the claiming worker.
type Chunk<'a, R> = Mutex<(usize, &'a mut [Option<R>])>;

/// Apply `f` to every item, in parallel across up to
/// `available_parallelism` threads, preserving input order in the output.
/// Falls back to a sequential loop for small inputs.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, None, f)
}

/// [`par_map`] with an explicit worker count. `None` means
/// `available_parallelism`; `Some(1)` forces the sequential path (used
/// by the determinism tests to compare 1-thread vs N-thread runs).
pub fn par_map_threads<T, R, F>(items: &[T], threads: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = worker_count(threads, items.len());
    if threads <= 1 {
        return items
            .iter()
            .map(|item| {
                cancel::checkpoint();
                f(item)
            })
            .collect();
    }
    // Capture the caller's deadline, current trace span, and trace sink
    // so workers observe the same cancellation state the caller does,
    // per-item spans parent on the caller's span across threads, and the
    // caller's sink keeps receiving its own workers' events.
    let ambient = cancel::current_deadline();
    let trace_parent = crate::trace::current_parent();
    let sink = crate::trace::active();

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    // Chunks small enough that slow items don't serialize the tail, big
    // enough that the atomic index isn't contended.
    let chunk_len = (items.len() / (threads * 8)).max(1);
    let chunks: Vec<Chunk<'_, R>> = out
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(ci, slice)| Mutex::new((ci * chunk_len, slice)))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let work = || loop {
                        // Expired deadlines stop workers at the next
                        // chunk boundary via a `Cancelled` panic.
                        cancel::checkpoint();
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= chunks.len() {
                            break;
                        }
                        // Each chunk is locked exactly once, by the worker
                        // that claimed its index — never contended.
                        let mut guard = chunks[ci]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        let (start, slice) = &mut *guard;
                        for (k, slot) in slice.iter_mut().enumerate() {
                            *slot = Some(f(&items[*start + k]));
                        }
                    };
                    let scoped = || {
                        crate::trace::with_parent(trace_parent, || match &ambient {
                            Some(d) => cancel::with_deadline(d.clone(), work),
                            None => work(),
                        })
                    };
                    crate::trace::with_sink(sink.clone(), scoped)
                })
            })
            .collect();
        // Join explicitly so a worker panic surfaces its original
        // payload here, not a generic "a scoped thread panicked".
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    out.into_iter()
        .map(|slot| slot.expect("every output slot filled"))
        .collect()
}

/// How many threads [`par_map_threads`] runs `items` items on: `threads`
/// (`None` = `available_parallelism`) capped at the item count, and 1
/// (the calling thread) for fewer than four items. Callers size
/// per-worker state with it before the map starts.
pub fn worker_count(threads: Option<usize>, items: usize) -> usize {
    if items < 4 {
        return 1;
    }
    threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(items)
        .max(1)
}

/// Extract a short, single-line message from a panic payload: the
/// `&str`/`String` panics carry, a fixed marker for deadline
/// cancellations, and a placeholder for exotic payloads. Truncated to
/// 200 characters — what the run ledger records as the redacted payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if cancel::is_cancelled_payload(payload) {
        cancel::Cancelled.to_string()
    } else {
        "non-string panic payload".to_string()
    };
    let line = msg.lines().next().unwrap_or_default();
    let mut out: String = line.chars().take(200).collect();
    if line.chars().count() > 200 {
        out.push('…');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(&[] as &[i32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn small_input_sequential_path() {
        let out = par_map(&[1, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn heavy_work_all_items_processed() {
        let items: Vec<u64> = (0..50).collect();
        let out = par_map(&items, |&x| (0..1000).fold(x, |a, b| a.wrapping_add(b)));
        assert_eq!(out.len(), 50);
        assert_eq!(out[0], (0..1000).sum::<u64>());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map_threads(&items, Some(1), |&x| x.wrapping_mul(0x9E3779B97F4A7C15));
        for threads in [2, 3, 8] {
            let par = par_map_threads(&items, Some(threads), |&x| {
                x.wrapping_mul(0x9E3779B97F4A7C15)
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn worker_count_caps_threads_at_items() {
        assert_eq!(worker_count(Some(8), 3), 1, "under four items stays serial");
        assert_eq!(worker_count(Some(8), 5), 5);
        assert_eq!(worker_count(Some(2), 100), 2);
        assert_eq!(worker_count(Some(0), 100), 1);
        assert!(worker_count(None, 100) >= 1);
    }

    #[test]
    fn expired_deadline_cancels_parallel_map() {
        let d = cancel::Deadline::after(std::time::Duration::from_millis(5));
        let items: Vec<u64> = (0..4096).collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cancel::with_deadline(d, || {
                par_map_threads(&items, Some(4), |&x| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    x
                })
            })
        }))
        .expect_err("deadline must cancel the map");
        assert!(cancel::is_cancelled_payload(err.as_ref()));
    }

    #[test]
    fn panic_message_redacts_to_one_line() {
        let payload: Box<dyn std::any::Any + Send> =
            Box::new(format!("first line {}\nsecond line", "x".repeat(300)));
        let msg = panic_message(payload.as_ref());
        assert!(!msg.contains('\n'));
        assert_eq!(msg.chars().count(), 201); // 200 + ellipsis
        assert!(msg.ends_with('…'));
    }

    #[test]
    fn worker_panic_propagates_original_payload() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                if x == 33 {
                    panic!("item 33 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("item 33 exploded"), "payload was: {msg}");
    }
}
