//! Per-epoch snapshot broadcast for the serve path.
//!
//! The always-on topology service repairs the graph once per churn epoch
//! and keeps reads running while the splice is in flight. It runs in
//! lockstep: the writer captures epoch *e*'s immutable snapshot and sends
//! one `Arc<T>` of it to every reader; the readers serve *e* while the
//! writer splices *e+1* into the live graph; and the writer publishes *e+1*
//! only once every reader has released *e*. Every reader therefore sees
//! every epoch exactly once and in order, and a released snapshot is freed
//! before its successor goes out.
//!
//! * [`EpochPublisher`] — the single writer. [`EpochPublisher::subscribe`]
//!   opens one reader's link before the first publish (a one-slot channel
//!   of `Arc<T>` plus a release signal back); [`EpochPublisher::publish`]
//!   waits until every link has released the previous epoch, retires it
//!   and sends the new one; [`EpochPublisher::finish`] waits for and
//!   retires the last one.
//! * [`Subscriber`] — one reader's end: [`Subscriber::recv`] blocks for the
//!   next epoch, [`Subscriber::release`] hands it back.
//! * [`run_lockstep`] — the whole loop: the writer on the calling thread,
//!   the readers on scoped threads.
//!
//! **Fail fast.** Nothing waits on a party that has died. A reader whose
//! thread panics drops its link, so the writer's next wait panics with the
//! reader's index and the epoch. A writer that dies drops the publisher,
//! which hangs up every link, so each reader's `recv` returns `None`.
//! Dropping a publisher only hangs up; it never blocks.
//!
//! **Accounting.** `published` counts publishes. `retired` counts
//! snapshots that [`Arc::try_unwrap`] freed at the next publish or at
//! `finish`, which succeeds only if no reader kept a reference past its
//! release. `max_live` is the peak count of published-but-unretired
//! snapshots, read after each publish. Under the lockstep it is 1, and
//! `retired == published` after `finish`.

use std::cell::RefCell;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

/// The writer's end of one reader's link.
struct Link<T> {
    snapshots: SyncSender<Arc<T>>,
    released: Receiver<()>,
}

struct State<T> {
    /// Every link was sent the current snapshot: readers subscribe before
    /// the first publish.
    links: Vec<Link<T>>,
    /// The last published epoch and snapshot, until it retires.
    current: Option<(u64, Arc<T>)>,
    published: u64,
    retired: u64,
    max_live: u64,
}

impl<T> State<T> {
    /// Wait until every reader has released the current snapshot, then
    /// free it unless somebody kept a reference.
    ///
    /// # Panics
    /// If a reader hung up instead of releasing it.
    fn retire_current(&mut self) {
        let Some((epoch, snap)) = self.current.take() else {
            return;
        };
        for (reader, link) in self.links.iter().enumerate() {
            if link.released.recv().is_err() {
                panic!("reader {reader} hung up before releasing epoch {epoch}");
            }
        }
        if Arc::try_unwrap(snap).is_ok() {
            self.retired += 1;
        }
    }
}

/// Write side of the per-epoch broadcast; see the module docs.
pub struct EpochPublisher<T> {
    state: RefCell<State<T>>,
}

/// One reader's end of the broadcast.
pub struct Subscriber<T> {
    snapshots: Receiver<Arc<T>>,
    released: Sender<()>,
}

impl<T> EpochPublisher<T> {
    /// A publisher with no subscribers and nothing published.
    pub fn new() -> Self {
        EpochPublisher {
            state: RefCell::new(State {
                links: Vec::new(),
                current: None,
                published: 0,
                retired: 0,
                max_live: 0,
            }),
        }
    }

    /// Open the next reader's link. Readers are numbered in subscription
    /// order (the index a hang-up panic names).
    ///
    /// # Panics
    /// After the first publish: every reader receives every epoch.
    pub fn subscribe(&self) -> Subscriber<T> {
        let mut st = self.state.borrow_mut();
        assert_eq!(
            st.published, 0,
            "readers subscribe before the first publish"
        );
        let (snapshots, snapshots_rx) = sync_channel(1);
        let (released_tx, released) = channel();
        st.links.push(Link {
            snapshots,
            released,
        });
        Subscriber {
            snapshots: snapshots_rx,
            released: released_tx,
        }
    }

    /// Wait until every subscriber has released the previous epoch, retire
    /// it, and send `(epoch, value)` to every subscriber.
    ///
    /// # Panics
    /// If `epoch` is not strictly greater than the last published epoch,
    /// or if a subscriber has hung up (the message names the reader and
    /// the epoch).
    pub fn publish(&self, epoch: u64, value: T) {
        let mut st = self.state.borrow_mut();
        if let Some((last, _)) = st.current {
            assert!(
                epoch > last,
                "epoch snapshots must be published in strictly increasing \
                 order (got {epoch} after {last})"
            );
        }
        st.retire_current();
        let snap = Arc::new(value);
        for (reader, link) in st.links.iter().enumerate() {
            if link.snapshots.send(Arc::clone(&snap)).is_err() {
                panic!("reader {reader} hung up before receiving epoch {epoch}");
            }
        }
        st.current = Some((epoch, snap));
        st.published += 1;
        st.max_live = st.max_live.max(st.published - st.retired);
    }

    /// Wait until every subscriber has released the last epoch and retire
    /// it.
    ///
    /// # Panics
    /// If a subscriber hung up instead of releasing it.
    pub fn finish(&self) {
        self.state.borrow_mut().retire_current();
    }

    /// Number of [`EpochPublisher::publish`] calls.
    pub fn published(&self) -> u64 {
        self.state.borrow().published
    }

    /// Number of snapshots freed at the next publish or at `finish`.
    pub fn retired(&self) -> u64 {
        self.state.borrow().retired
    }

    /// Peak count of published-but-unretired snapshots.
    pub fn max_live(&self) -> u64 {
        self.state.borrow().max_live
    }
}

impl<T> Default for EpochPublisher<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Subscriber<T> {
    /// Block until the next epoch's snapshot arrives. `None` once the
    /// publisher has hung up.
    pub fn recv(&self) -> Option<Arc<T>> {
        self.snapshots.recv().ok()
    }

    /// Hand a received snapshot back: drop this reader's reference, then
    /// signal the writer. A writer that has hung up is waiting for nobody,
    /// so the signal is then dropped.
    pub fn release(&self, snap: Arc<T>) {
        drop(snap);
        let _ = self.released.send(());
    }
}

/// Run `epochs` lockstep epochs. `write(e)` produces epoch `e`'s snapshot on
/// the calling thread while `readers` scoped threads serve epoch `e − 1`.
/// Reader `r` starts from `init(r)` and calls `read(&mut state, &snapshot)`
/// on every epoch in order. Returns the reader states in reader order and
/// the finished publisher, whose counters record the broadcast.
///
/// The publisher and its links live inside the scope, so a panic on
/// either side ends the run promptly: a writer panic hangs up the readers
/// and is re-raised by the scope; a reader panic hangs up its link, which
/// makes the writer's next wait panic.
pub fn run_lockstep<T, S>(
    epochs: u64,
    readers: usize,
    mut write: impl FnMut(u64) -> T,
    init: impl Fn(usize) -> S + Sync,
    read: impl Fn(&mut S, &T) + Sync,
) -> (Vec<S>, EpochPublisher<T>)
where
    T: Send + Sync,
    S: Send,
{
    std::thread::scope(|scope| {
        let publisher = EpochPublisher::new();
        let workers: Vec<_> = (0..readers)
            .map(|r| {
                let link = publisher.subscribe();
                let (init, read) = (&init, &read);
                scope.spawn(move || {
                    let mut state = init(r);
                    for _ in 0..epochs {
                        let Some(snap) = link.recv() else { break };
                        read(&mut state, &snap);
                        link.release(snap);
                    }
                    state
                })
            })
            .collect();
        for epoch in 0..epochs {
            publisher.publish(epoch, write(epoch));
        }
        publisher.finish();
        let states = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (states, publisher)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hang_up_before_publish_is_none() {
        let pb: EpochPublisher<u32> = EpochPublisher::new();
        let sub = pb.subscribe();
        drop(pb);
        assert!(sub.recv().is_none());
    }

    #[test]
    fn guard_keeps_superseded_snapshot_alive() {
        // A reader that keeps a reference past its release keeps that
        // snapshot alive and unchanged; the publisher cannot retire it.
        let pb = EpochPublisher::new();
        let sub = pb.subscribe();
        pb.publish(1, "one".to_string());
        let kept = sub.recv().unwrap();
        sub.release(Arc::clone(&kept));

        pb.publish(2, "two".to_string());
        assert_eq!(&*kept, "one");
        assert_eq!(&*sub.recv().unwrap(), "two");
        assert_eq!((pb.published(), pb.retired()), (2, 0));
        assert_eq!(pb.max_live(), 2, "the kept epoch 1 stays live");
    }

    #[test]
    fn unpinned_snapshot_retires_on_publish() {
        let pb = EpochPublisher::new();
        pb.publish(1, vec![1u8; 16]);
        pb.publish(2, vec![2u8; 16]);
        assert_eq!((pb.published(), pb.retired(), pb.max_live()), (2, 1, 1));
    }

    #[test]
    fn quiescence_retires_everything() {
        let pb = EpochPublisher::new();
        let sub = pb.subscribe();
        for e in 1..=5u64 {
            pb.publish(e, e);
            let snap = sub.recv().unwrap();
            assert_eq!(*snap, e);
            sub.release(snap);
        }
        assert_eq!(pb.retired(), 4, "the last epoch is live until finish");
        pb.finish();
        assert_eq!((pb.published(), pb.retired()), (5, 5));
        assert_eq!(pb.max_live(), 1);
    }

    #[test]
    fn recv_blocks_until_epoch_arrives() {
        let pb = EpochPublisher::new();
        let sub = pb.subscribe();
        let waiter = std::thread::spawn(move || sub.recv().map(|s| *s));
        pb.publish(3, 30u32);
        assert_eq!(waiter.join().unwrap(), Some(30));
    }

    #[test]
    fn recv_returns_none_on_hang_up() {
        let pb: EpochPublisher<u32> = EpochPublisher::new();
        let sub = pb.subscribe();
        let waiter = std::thread::spawn(move || sub.recv().is_none());
        drop(pb);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn dropping_the_publisher_never_blocks() {
        // The reader holds epoch 0 and never releases it: `finish` would
        // wait, but a plain drop only hangs up.
        let pb = EpochPublisher::new();
        let sub = pb.subscribe();
        pb.publish(0, 7u8);
        let held = sub.recv().unwrap();
        drop(pb);
        assert_eq!(*held, 7);
        assert!(sub.recv().is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_publish_panics() {
        let pb = EpochPublisher::new();
        pb.publish(2, ());
        pb.publish(2, ());
    }

    #[test]
    #[should_panic(expected = "subscribe before the first publish")]
    fn subscribing_after_the_first_publish_panics() {
        let pb = EpochPublisher::new();
        pb.publish(0, ());
        pb.subscribe();
    }

    #[test]
    #[should_panic(expected = "reader 1 hung up before receiving epoch 0")]
    fn publish_to_a_hung_up_reader_panics() {
        let pb = EpochPublisher::new();
        let _live = pb.subscribe();
        drop(pb.subscribe());
        pb.publish(0, ());
    }

    #[test]
    #[should_panic(expected = "reader 0 hung up before releasing epoch 4")]
    fn finish_without_release_panics() {
        let pb = EpochPublisher::new();
        let sub = pb.subscribe();
        pb.publish(4, ());
        drop(sub.recv());
        drop(sub);
        pb.finish();
    }

    #[test]
    fn concurrent_lockstep_sees_whole_snapshots() {
        // Four readers under the lockstep only ever observe internally
        // consistent payloads, every epoch once and in order.
        let (seen, pb) = run_lockstep(
            50,
            4,
            |e| (e, e),
            |_| Vec::new(),
            |seen: &mut Vec<u64>, &(a, b): &(u64, u64)| {
                assert_eq!(a, b, "torn snapshot: {a} != {b}");
                seen.push(a);
            },
        );
        let all: Vec<u64> = (0..50).collect();
        assert!(seen.iter().all(|s| *s == all));
        assert_eq!((pb.published(), pb.retired(), pb.max_live()), (50, 50, 1));
    }
}
