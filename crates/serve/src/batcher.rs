//! Dynamic batching: requests for one model accumulate until the batch
//! fills or the oldest request has waited long enough.

use crate::service::Request;
use std::collections::VecDeque;

/// When to close a forming batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Dispatch once the oldest queued request has waited this long,
    /// seconds, even if the batch is not full.
    pub max_wait_s: f64,
}

impl BatchPolicy {
    /// A policy that dispatches every request on its own — the
    /// no-batching baseline.
    pub fn unbatched() -> BatchPolicy {
        BatchPolicy {
            max_batch: 1,
            max_wait_s: 0.0,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait_s: 2e-3,
        }
    }
}

/// A per-model request queue applying a [`BatchPolicy`].
#[derive(Debug)]
pub struct DynamicBatcher {
    policy: BatchPolicy,
    queue: VecDeque<Request>,
}

impl DynamicBatcher {
    /// An empty batcher.
    pub fn new(policy: BatchPolicy) -> DynamicBatcher {
        DynamicBatcher {
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                ..policy
            },
            queue: VecDeque::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a request. Returns `true` when the push filled the batch
    /// (the caller should dispatch immediately).
    pub fn push(&mut self, req: Request) -> bool {
        self.queue.push_back(req);
        self.queue.len() >= self.policy.max_batch
    }

    /// The simulated time at which the wait timer forces a dispatch:
    /// `oldest arrival + max_wait`. `None` when the queue is empty.
    pub fn flush_deadline(&self) -> Option<f64> {
        self.queue
            .front()
            .map(|r| r.arrival_s + self.policy.max_wait_s)
    }

    /// Moves the oldest `max_batch` (or fewer) requests onto the end of
    /// `batch`, so a caller can reuse one buffer for every batch.
    pub fn take_batch(&mut self, batch: &mut Vec<Request>) {
        let k = self.queue.len().min(self.policy.max_batch);
        batch.extend(self.queue.drain(..k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tensor::models::Model;

    fn taken(b: &mut DynamicBatcher) -> Vec<Request> {
        let mut batch = Vec::new();
        b.take_batch(&mut batch);
        batch
    }

    fn req(id: u64, arrival_s: f64) -> Request {
        Request {
            id,
            model: Model::LeNet5,
            arrival_s,
            deadline_s: None,
            input: None,
        }
    }

    #[test]
    fn fills_exactly_at_max_batch() {
        let mut b = DynamicBatcher::new(BatchPolicy {
            max_batch: 3,
            max_wait_s: 1.0,
        });
        assert!(!b.push(req(0, 0.0)));
        assert!(!b.push(req(1, 0.1)));
        assert!(b.push(req(2, 0.2)), "third request fills the batch");
        let batch = taken(&mut b);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(b.is_empty());
    }

    #[test]
    fn wait_timer_tracks_the_oldest_request() {
        let mut b = DynamicBatcher::new(BatchPolicy {
            max_batch: 10,
            max_wait_s: 0.5,
        });
        assert_eq!(b.flush_deadline(), None);
        b.push(req(0, 2.0));
        b.push(req(1, 2.4));
        assert_eq!(b.flush_deadline(), Some(2.5));
        taken(&mut b);
        assert_eq!(b.flush_deadline(), None);
    }

    #[test]
    fn take_batch_caps_at_max_batch() {
        let mut b = DynamicBatcher::new(BatchPolicy {
            max_batch: 2,
            max_wait_s: 1.0,
        });
        for i in 0..5 {
            b.push(req(i, i as f64));
        }
        assert_eq!(taken(&mut b).len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn unbatched_policy_dispatches_every_push() {
        let mut b = DynamicBatcher::new(BatchPolicy::unbatched());
        assert!(b.push(req(0, 0.0)));
        assert_eq!(taken(&mut b).len(), 1);
    }
}
