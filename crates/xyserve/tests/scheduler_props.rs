//! Direct property tests for the work-stealing scheduler: the
//! blocking/refusal contracts the ingest pipeline is built on, checked both
//! as pointed edge-case tests and as model-based properties.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xyserve::{Scheduler, Steal, TryPushError};

// ---------------------------------------------------------------------------
// Pointed edge cases.
// ---------------------------------------------------------------------------

/// A push racing a close never loses its item: the refused push hands the
/// item back to the caller, on the blocking and the non-blocking path alike.
#[test]
fn push_after_close_returns_the_item() {
    let s = Scheduler::new(3, 8, 2);
    s.close();
    let refused = s.push(7, "payload").unwrap_err();
    assert_eq!(refused.0, "payload");
    match s.try_push(7, "other") {
        Err(TryPushError::Closed(item)) => assert_eq!(item, "other"),
        other => panic!("expected Closed, got {other:?}"),
    }
}

/// Consumers blocked on an empty scheduler all wake with `None` when a drain
/// begins; none of them sleeps through the close.
#[test]
fn blocked_consumers_wake_with_none_on_drain() {
    let s = Arc::new(Scheduler::<u32>::new(3, 8, 2));
    let waiters: Vec<_> = (0..3)
        .map(|w| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.pop(w))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    s.close();
    for w in waiters {
        assert_eq!(w.join().unwrap(), None);
    }
}

/// `try_push` discriminates the two refusal reasons: `Full` while at
/// capacity and open, `Closed` afterwards — even when the scheduler is
/// both full and closed (shedding load must not be mistaken for shutdown).
#[test]
fn try_push_discriminates_full_from_closed() {
    let s = Scheduler::new(2, 2, 1);
    s.try_push(0, 1).unwrap();
    s.try_push(1, 2).unwrap();
    assert!(matches!(s.try_push(0, 3), Err(TryPushError::Full(3))));
    s.close();
    // Still at capacity, but closed wins: retrying is pointless now.
    assert!(matches!(s.try_push(0, 4), Err(TryPushError::Closed(4))));
}

/// Capacity 1 is the tightest legal configuration: every push alternates
/// with a pop, blocking pushes park until the single slot frees, and the
/// budget stays global even when the slot sits on another worker's deque:
/// a job parked on deque 1 refuses pushes homed to deque 0 as well.
#[test]
fn capacity_one_alternates_push_and_pop() {
    let s = Arc::new(Scheduler::new(2, 1, 1));
    s.push(1, 0u32).unwrap();
    assert!(matches!(s.try_push(0, 99), Err(TryPushError::Full(99))));
    let consumer = {
        let s = Arc::clone(&s);
        std::thread::spawn(move || {
            let mut popped = 0usize;
            while s.pop(0).is_some() {
                popped += 1;
            }
            popped
        })
    };
    for i in 1..21u32 {
        s.push(u64::from(i) % 2, i).unwrap();
    }
    s.close();
    assert_eq!(consumer.join().unwrap(), 21, "20 pushes + the parked job");
}

/// `try_pop` on a scheduler with work only on other deques steals it rather
/// than reporting empty; a genuinely empty scheduler reports `Empty`.
#[test]
fn try_pop_steals_before_reporting_empty() {
    let s = Scheduler::new(4, 16, 2);
    assert!(matches!(s.try_pop(0), Steal::Empty));
    s.push(3, "far").unwrap(); // homes to deque 3
    match s.try_pop(0) {
        Steal::Item(v) => assert_eq!(v, "far"),
        other => panic!("worker 0 should steal from deque 3, got {other:?}"),
    }
    assert!(s.is_empty());
    assert!(s.steals() >= 1);
}

// ---------------------------------------------------------------------------
// Model-based properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A worker that owns none of the keys drains a foreign deque in the
    /// victim's exact FIFO order, for any key mix and batch size: batches
    /// come off the front, key runs travel whole, and the replay through
    /// the thief's own deque restores the original order.
    #[test]
    fn thief_drains_a_foreign_deque_in_fifo_order(
        items in proptest::collection::vec((0u64..4, 0u32..1000), 1..40),
        batch in 1usize..5,
    ) {
        let s = Scheduler::new(2, 64, batch);
        for (key, v) in &items {
            // Even hashes: every key homes to deque 0, worker 1 only steals.
            s.push(key * 2, (*key, *v)).unwrap();
        }
        let mut drained = Vec::new();
        loop {
            match s.try_pop(1) {
                Steal::Item(item) => drained.push(item),
                Steal::Empty => break,
                Steal::Retry => prop_assert!(false, "Retry is impossible single-threaded"),
            }
        }
        prop_assert_eq!(drained, items);
        prop_assert!(s.steals() >= 1);
    }

    /// A mixed drain — owner LIFO pops interleaved with steals, any worker
    /// count and batch size — neither loses nor duplicates a single job.
    #[test]
    fn mixed_drain_loses_and_duplicates_nothing(
        items in proptest::collection::vec((0u64..7, 0u32..1000), 0..40),
        workers in 1usize..5,
        batch in 1usize..4,
    ) {
        let s = Scheduler::new(workers, 64, batch);
        for (key, v) in &items {
            s.push(*key, (*key, *v)).unwrap();
        }
        prop_assert_eq!(s.len(), items.len());
        s.close();
        let mut drained: Vec<(u64, u32)> = Vec::new();
        let mut w = 0;
        while let Some(item) = s.pop(w % workers) {
            drained.push(item);
            w += 1;
        }
        let mut got = drained;
        got.sort_unstable();
        let mut want = items;
        want.sort_unstable();
        prop_assert_eq!(got, want, "drain lost or duplicated jobs");
    }

    /// The scheduler's capacity is a global budget: `Full` appears exactly
    /// when the summed deque depths hit capacity, regardless of how the
    /// keys spread the jobs across deques.
    #[test]
    fn scheduler_capacity_is_global(
        keys in proptest::collection::vec(0u64..7, 1..24),
        workers in 1usize..5,
        cap in 1usize..8,
    ) {
        let s = Scheduler::new(workers, cap, 1);
        let mut accepted = 0usize;
        for (i, key) in keys.iter().enumerate() {
            match s.try_push(*key, i) {
                Ok(()) => accepted += 1,
                Err(TryPushError::Full(_)) => {
                    prop_assert_eq!(accepted, cap, "Full before the global budget was spent");
                }
                Err(TryPushError::Closed(_)) => prop_assert!(false, "never closed"),
            }
        }
        prop_assert_eq!(s.len(), accepted);
        prop_assert!(accepted <= cap);
    }
}
