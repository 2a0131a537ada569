//! Per-worker deques with work stealing, shared by the campaign executor
//! (one scenario at a time) and the explorer's expand sweep (a batch of
//! frontier slots at a time).
//!
//! A worker pops the *front* of its own queue (cache-friendly sequential
//! order) and, when that is empty, steals from the *back* of the longest
//! other queue. Items are only ever removed between two
//! [`fill`](StealQueues::fill)s, so an empty sweep means the work is
//! drained. Which worker runs an item is a scheduling accident; callers
//! keep their results indexed by item, never by worker.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One deque of item indices per worker.
pub struct StealQueues {
    queues: Vec<Mutex<VecDeque<u32>>>,
}

impl StealQueues {
    /// `workers` empty queues.
    pub fn new(workers: usize) -> StealQueues {
        StealQueues {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Replaces the queues' contents with `0..items`, dealt round-robin.
    pub fn fill(&self, items: u32) {
        let n = self.queues.len() as u32;
        for (w, queue) in self.queues.iter().enumerate() {
            let mut queue = queue.lock().expect("steal queue poisoned");
            queue.clear();
            let mut i = w as u32;
            while i < items {
                queue.push_back(i);
                i += n;
            }
        }
    }

    /// Refills `out` with `worker`'s next items: up to `max` (at least 1)
    /// off the front of its own queue, else half the longest other queue's
    /// back, rounded up and capped at `max`. `false` when every queue is
    /// empty.
    pub fn pop_batch(&self, worker: usize, max: usize, out: &mut Vec<u32>) -> bool {
        out.clear();
        {
            let mut queue = self.queues[worker].lock().expect("steal queue poisoned");
            if !queue.is_empty() {
                let take = queue.len().min(max);
                out.extend(queue.drain(..take));
                return true;
            }
        }
        loop {
            let mut best: Option<(usize, usize)> = None;
            for (v, queue) in self.queues.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let len = queue.lock().expect("steal queue poisoned").len();
                if len > 0 && best.is_none_or(|(l, _)| len > l) {
                    best = Some((len, v));
                }
            }
            let Some((_, v)) = best else {
                return false;
            };
            // The victim may have drained between the scan and the steal;
            // rescan rather than give up.
            let mut queue = self.queues[v].lock().expect("steal queue poisoned");
            let keep = queue.len() - queue.len().div_ceil(2).min(max);
            out.extend(queue.drain(keep..).rev());
            if !out.is_empty() {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_deal_and_drain_exactly_once() {
        for max in [1, 4] {
            let q = StealQueues::new(3);
            q.fill(10);
            let mut seen = [false; 10];
            let mut batch = Vec::new();
            // Worker 2 drains everything: its own queue plus steals.
            while q.pop_batch(2, max, &mut batch) {
                assert!(!batch.is_empty() && batch.len() <= max);
                for &i in &batch {
                    assert!(!seen[i as usize], "index {i} handed out twice");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{seen:?}");
            assert!(!q.pop_batch(0, max, &mut batch));
        }
    }
}
