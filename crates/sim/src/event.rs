//! The event queue: a deterministic priority queue of simulation events.
//!
//! Events are ordered by time, then by a fixed kind priority (completions
//! before arrivals before the scheduling round, so a round always sees the
//! freshest job set), then by insertion sequence — making simultaneous
//! events fully deterministic.

use gfair_types::{JobId, ServerId, SimTime, UserId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job completes its service demand (scheduled mid-round at the exact
    /// completion instant).
    Finish(JobId),
    /// A migrating job becomes resident on its destination server.
    MigrationDone(JobId),
    /// A server goes offline, evicting its resident jobs.
    ServerFail(ServerId),
    /// A failed server comes back online.
    ServerRecover(ServerId),
    /// The central scheduler loses contact with a server's local scheduler
    /// (the server itself keeps running).
    PartitionStart(ServerId),
    /// Connectivity to a partitioned server is restored.
    PartitionEnd(ServerId),
    /// A user's ticket endowment changes (priority change).
    TicketChange(UserId, u64),
    /// A job is submitted.
    Arrival(JobId),
    /// The per-quantum scheduling round.
    Round,
}

impl EventKind {
    /// Priority for simultaneous events; lower fires first.
    fn priority(self) -> u8 {
        match self {
            EventKind::Finish(_) => 0,
            EventKind::MigrationDone(_) => 1,
            EventKind::ServerFail(_) => 2,
            EventKind::ServerRecover(_) => 3,
            EventKind::PartitionStart(_) => 4,
            EventKind::PartitionEnd(_) => 5,
            EventKind::TicketChange(_, _) => 6,
            EventKind::Arrival(_) => 7,
            EventKind::Round => 8,
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence, breaking remaining ties deterministically.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then(other.kind.priority().cmp(&self.kind.priority()))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
///
/// Runtime events live in one binary heap. The trace's arrivals — known in
/// full before the run starts — are *staged* once, at construction, in a
/// sorted side list instead of being front-loaded into the heap, so the
/// heap only ever holds the near-future working set (a dozen events on a
/// trace replay, about 1400 at 6250 servers).
///
/// `pop` takes the earlier of the heap top and the staged tail under the
/// same inverted (time, kind-priority, seq) total order, so the delivery
/// sequence is identical to a single heap holding everything — asserted by
/// a differential proptest against exactly that oracle.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Staged events, sorted with the earliest-firing event **last** so the
    /// next one pops in O(1).
    staged: Vec<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates a queue holding `staged` outside the heap: the full arrival
    /// trace, given once, at simulation construction. Sequence numbers are
    /// assigned in iteration order, exactly as a `push` loop would, so the
    /// global delivery order is unchanged.
    pub fn with_staged(staged: impl IntoIterator<Item = (SimTime, EventKind)>) -> Self {
        let mut queue = Self::default();
        // Grown by `push`, not collected at its exact size: peak RSS follows
        // heap layout, and an exact-size list raised `churn-200k`'s peak by
        // 6 MB (while lowering `wide-50k`'s by 9 MB).
        for (time, kind) in staged {
            let seq = queue.next_seq;
            queue.next_seq += 1;
            queue.staged.push(Event { time, seq, kind });
        }
        // `Event`'s Ord is inverted (min-first for the max-heap), so an
        // ascending sort puts the earliest-firing event last. Seqs are
        // unique, so the order is total and `sort_unstable` is safe.
        queue.staged.sort_unstable();
        queue
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pops the next event in deterministic order.
    pub fn pop(&mut self) -> Option<Event> {
        // Inverted Ord: "greater" means "fires earlier". Seqs are unique, so
        // the comparison is unambiguous.
        match (self.heap.peek(), self.staged.last()) {
            (Some(h), Some(s)) if s > h => self.staged.pop(),
            (None, _) => self.staged.pop(),
            _ => self.heap.pop(),
        }
    }

    /// Number of pending events (staged ones included).
    pub fn len(&self) -> usize {
        self.heap.len() + self.staged.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.staged.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_secs(10), EventKind::Round);
        q.push(SimTime::from_secs(5), EventKind::Arrival(JobId::new(1)));
        q.push(SimTime::from_secs(7), EventKind::Finish(JobId::new(2)));
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(5));
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(7));
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(10));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_order_by_kind_priority() {
        let mut q = EventQueue::default();
        let t = SimTime::from_secs(60);
        q.push(t, EventKind::Round);
        q.push(t, EventKind::Arrival(JobId::new(1)));
        q.push(t, EventKind::Finish(JobId::new(2)));
        q.push(t, EventKind::MigrationDone(JobId::new(3)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Finish(JobId::new(2)));
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::MigrationDone(JobId::new(3))
        );
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(1)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Round);
    }

    #[test]
    fn equal_time_and_kind_orders_by_insertion() {
        let mut q = EventQueue::default();
        let t = SimTime::from_secs(1);
        q.push(t, EventKind::Arrival(JobId::new(5)));
        q.push(t, EventKind::Arrival(JobId::new(3)));
        // Insertion order wins, not job id.
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(5)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(3)));
    }

    #[test]
    fn staged_and_pushed_events_merge_in_global_order() {
        // A staged trace plus runtime pushes must pop exactly as if every
        // event had gone through one heap.
        let mut q = EventQueue::with_staged(vec![
            (SimTime::from_secs(10), EventKind::Arrival(JobId::new(1))),
            (SimTime::from_secs(30), EventKind::Arrival(JobId::new(2))),
            (SimTime::from_secs(20), EventKind::Arrival(JobId::new(3))),
        ]);
        q.push(SimTime::from_secs(20), EventKind::Finish(JobId::new(9)));
        q.push(SimTime::from_secs(5), EventKind::Round);
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop().unwrap().kind, EventKind::Round);
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(1)));
        // At t=20 the Finish outranks the Arrival by kind priority.
        assert_eq!(q.pop().unwrap().kind, EventKind::Finish(JobId::new(9)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(3)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn staged_ties_keep_staging_order() {
        // Equal-time staged events keep their staging (trace) order, just as
        // insertion order broke the tie when everything was pushed.
        let t = SimTime::from_secs(7);
        let mut q = EventQueue::with_staged(vec![
            (t, EventKind::Arrival(JobId::new(5))),
            (t, EventKind::Arrival(JobId::new(3))),
        ]);
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(5)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(3)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes a (time, kind-selector) pair into an event, covering every
    /// `EventKind` priority.
    fn decode(time: u64, sel: u8) -> (SimTime, EventKind) {
        let id = u32::from(sel);
        let kind = match sel % 9 {
            0 => EventKind::Finish(JobId::new(id)),
            1 => EventKind::MigrationDone(JobId::new(id)),
            2 => EventKind::ServerFail(ServerId::new(id)),
            3 => EventKind::ServerRecover(ServerId::new(id)),
            4 => EventKind::PartitionStart(ServerId::new(id)),
            5 => EventKind::PartitionEnd(ServerId::new(id)),
            6 => EventKind::TicketChange(UserId::new(id), u64::from(sel)),
            7 => EventKind::Arrival(JobId::new(id)),
            _ => EventKind::Round,
        };
        (SimTime::from_secs(time), kind)
    }

    /// Oracle: one `BinaryHeap` holding everything, staged events
    /// included, seqs assigned in submission order.
    #[derive(Default)]
    struct OracleQueue {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl OracleQueue {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event { time, seq, kind });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A staged trace followed by any mix of runtime pushes and
        /// interleaved pops delivers exactly the sequence a single heap
        /// holding everything would. The staged batch goes first, as the
        /// engine stages its arrivals at construction; each op is then
        /// (selector, batch, pop-count): selector 0 pushes the batch, 1 pops
        /// `pop-count` events. Timestamps are drawn from a small range so
        /// simultaneous events across all kind priorities (the tie-break
        /// cases) are common.
        #[test]
        fn staged_queue_matches_single_heap_oracle(
            staged in collection::vec((0u64..16, 0u8..=255), 0..24),
            ops in collection::vec(
                (
                    0u8..2,
                    collection::vec((0u64..16, 0u8..=255), 0..12),
                    1usize..24,
                ),
                1..24,
            ),
        ) {
            let decoded: Vec<_> = staged.iter().map(|&(t, s)| decode(t, s)).collect();
            let mut q = EventQueue::with_staged(decoded.clone());
            let mut oracle = OracleQueue::default();
            for (time, kind) in decoded {
                oracle.push(time, kind);
            }
            for (sel, batch, pops) in ops {
                if sel == 0 {
                    for (t, s) in batch {
                        let (time, kind) = decode(t, s);
                        q.push(time, kind);
                        oracle.push(time, kind);
                    }
                    continue;
                }
                for _ in 0..pops {
                    prop_assert_eq!(q.len(), oracle.heap.len());
                    let expect = oracle.heap.pop();
                    prop_assert_eq!(q.pop(), expect);
                    if expect.is_none() {
                        break;
                    }
                }
            }
            // Drain the rest: full delivery sequences must match.
            while let Some(expect) = oracle.heap.pop() {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert!(q.is_empty());
        }
    }
}
