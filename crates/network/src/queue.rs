//! A bounded queue whose memory follows what it holds.
//!
//! std's bounded channel allocates its whole ring when it is built and
//! writes every slot's stamp then, so its capacity is resident from the
//! start: a ring of 65 536 commit events of 200 B is 13 MB before the first
//! commit. [`bounded`] is std's unbounded channel, which allocates per
//! block of 31 queued items and frees a block once it is read, plus a count
//! of what is queued that enforces the same bound. The producer never
//! blocks: past the bound an item is refused, and building it is skipped.
//!
//! Both node-side queues with a large bound use it: commit subscriptions
//! (`narwhal::Node::subscribe_commits`) and the transport's per-peer
//! outboxes (`nt_runtime::Transport`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvError, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// A queue of at most `capacity` items: a capacity of 0 refuses every item.
pub fn bounded<T>(capacity: usize) -> (BoundedSender<T>, BoundedReceiver<T>) {
    let (tx, rx) = mpsc::channel();
    let queued = Arc::new(AtomicUsize::new(0));
    let sender = BoundedSender {
        tx,
        queued: queued.clone(),
        capacity,
    };
    (sender, BoundedReceiver { rx, queued })
}

/// Why [`BoundedSender::try_send_with`] refused an item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refused {
    /// The queue holds `capacity` items.
    Full,
    /// The receiver is gone.
    Disconnected,
}

/// The producing end of a [`bounded`] queue.
///
/// It is not `Clone`: the queue's count is shared by exactly one sender and
/// one receiver, which is how a full queue tells a hang-up from a lagging
/// reader.
pub struct BoundedSender<T> {
    tx: mpsc::Sender<T>,
    queued: Arc<AtomicUsize>,
    capacity: usize,
}

impl<T> BoundedSender<T> {
    /// Queues `make()` if the queue has room, without blocking; `make` runs
    /// only then.
    ///
    /// A hang-up wins over a full queue, as with std's bounded channel.
    pub fn try_send_with(&self, make: impl FnOnce() -> T) -> Result<(), Refused> {
        let capacity = self.capacity;
        let reserved = self
            .queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < capacity).then_some(n + 1)
            });
        if reserved.is_err() {
            // A dropped receiver discards what it held without counting it
            // out, so only the reference count tells it from a slow one.
            return Err(if Arc::strong_count(&self.queued) == 1 {
                Refused::Disconnected
            } else {
                Refused::Full
            });
        }
        self.tx.send(make()).map_err(|_| Refused::Disconnected)
    }

    /// Items queued and not yet received.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }
}

/// The consuming end of a [`bounded`] queue. Items arrive in send order;
/// those queued before the sender went away are still delivered.
pub struct BoundedReceiver<T> {
    rx: mpsc::Receiver<T>,
    queued: Arc<AtomicUsize>,
}

impl<T> BoundedReceiver<T> {
    /// Waits for the next item; an error means the sender is gone and
    /// everything it queued has been received.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.rx.recv().map(|item| self.took(item))
    }

    /// Waits up to `timeout` for the next item.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map(|item| self.took(item))
    }

    /// Takes the next item if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.rx.try_recv().map(|item| self.took(item))
    }

    fn took(&self, item: T) -> T {
        self.queued.fetch_sub(1, Ordering::AcqRel);
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_capacity_items_and_frees_a_slot_per_receive() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.try_send_with(|| 1), Ok(()));
        assert_eq!(tx.try_send_with(|| 2), Ok(()));
        let mut built = false;
        let full = tx.try_send_with(|| {
            built = true;
            3
        });
        assert_eq!(full, Err(Refused::Full));
        assert!(!built, "a refused item is never built");
        assert_eq!(tx.queued(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send_with(|| 4), Ok(()));
        assert_eq!(tx.try_send_with(|| 5), Err(Refused::Full));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(4));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(tx.queued(), 0);
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let (tx, _rx) = bounded::<u8>(0);
        assert_eq!(tx.try_send_with(|| 0), Err(Refused::Full));
    }

    #[test]
    fn a_hang_up_wins_over_a_full_queue() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send_with(|| 1), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send_with(|| 2), Err(Refused::Disconnected));
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.try_send_with(|| 1), Err(Refused::Disconnected));
    }

    #[test]
    fn the_receiver_drains_what_a_gone_sender_queued() {
        let (tx, rx) = bounded(4);
        tx.try_send_with(|| 7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
