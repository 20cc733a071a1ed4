//! The one scoped worker pool of the search core. (Its poison-tolerant
//! locking lives in `rdf_model::sync`.)

use std::sync::Mutex;

use rdf_model::sync::{lock_unpoisoned, unpoisoned};

/// Maps `f` over `jobs` on at most `workers` scoped threads and returns
/// the results in job order.
///
/// Jobs are handed out heaviest first by `weight` (ties keep job order),
/// so the longest job never starts last on a nearly drained pool. With
/// one worker, or one job, everything runs inline on the calling thread
/// in that same order. Each worker keeps its own `(index, result)` list;
/// the lists are merged and put back in job order once the scope joins.
/// A panic in `f` propagates to the caller when the scope joins.
pub(crate) fn ordered_map<J, R>(
    jobs: Vec<J>,
    workers: usize,
    weight: impl Fn(&J) -> usize,
    f: impl Fn(J) -> R + Sync,
) -> Vec<R>
where
    J: Send,
    R: Send,
{
    let n = jobs.len();
    let mut order: Vec<(usize, J)> = jobs.into_iter().enumerate().collect();
    order.sort_by_key(|(_, job)| std::cmp::Reverse(weight(job)));
    let mut done: Vec<(usize, R)> = if workers.min(n) <= 1 {
        order.into_iter().map(|(i, job)| (i, f(job))).collect()
    } else {
        let queue = Mutex::new(order.into_iter());
        let done = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n) {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // A statement of its own: the queue lock is
                        // released before the job runs.
                        let next = lock_unpoisoned(&queue).next();
                        let Some((i, job)) = next else { break };
                        mine.push((i, f(job)));
                    }
                    lock_unpoisoned(&done).append(&mut mine);
                });
            }
        });
        unpoisoned(done.into_inner())
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order_at_every_pool_size() {
        let jobs: Vec<usize> = vec![3, 9, 1, 7, 7, 0, 5];
        let expected: Vec<usize> = jobs.iter().map(|j| j * 10).collect();
        for workers in [1, 2, 3, jobs.len() + 5] {
            let got = ordered_map(jobs.clone(), workers, |&j| j, |j| j * 10);
            assert_eq!(got, expected, "workers = {workers}");
        }
        assert!(ordered_map(Vec::<usize>::new(), 4, |&j| j, |j| j).is_empty());
    }

    #[test]
    fn dispatch_is_heaviest_first() {
        // One worker runs inline, so the start order is the dispatch order;
        // ties keep job order.
        let started = Mutex::new(Vec::new());
        let jobs = vec![(0, 2), (1, 8), (2, 5), (3, 8), (4, 1)];
        let start = |(i, _)| lock_unpoisoned(&started).push(i);
        ordered_map(jobs, 1, |&(_, w)| w, start);
        assert_eq!(*lock_unpoisoned(&started), vec![1, 3, 2, 0, 4]);

        // Two workers: each of the first two jobs to start waits for the
        // other, so neither worker takes a third job before both took
        // their first, and those two are the two heaviest.
        let ticket = AtomicUsize::new(0);
        let both_started = std::sync::Barrier::new(2);
        let jobs: Vec<usize> = vec![1, 2, 9, 3, 8];
        let take = |_| {
            let t = ticket.fetch_add(1, Ordering::Relaxed);
            if t < 2 {
                both_started.wait();
            }
            t
        };
        let tickets = ordered_map(jobs.clone(), 2, |&w| w, take);
        let first_two: Vec<usize> = (0..jobs.len()).filter(|&i| tickets[i] < 2).collect();
        assert_eq!(first_two, vec![2, 4], "tickets {tickets:?}");
    }
}
