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

    /// The shard a runtime push lands in. Kinds that share event-rate
    /// behavior share a heap: job completions (the bulk of runtime pushes)
    /// get their own, migrations their own, the rare control-plane kinds
    /// (failures, recoveries, partitions, ticket changes) one, arrivals one,
    /// and the round timer one.
    fn shard(self) -> usize {
        match self {
            EventKind::Finish(_) => 0,
            EventKind::MigrationDone(_) => 1,
            EventKind::ServerFail(_)
            | EventKind::ServerRecover(_)
            | EventKind::PartitionStart(_)
            | EventKind::PartitionEnd(_)
            | EventKind::TicketChange(_, _) => 2,
            EventKind::Arrival(_) => 3,
            EventKind::Round => 4,
        }
    }
}

/// Number of per-class heaps in the sharded queue.
const NUM_SHARDS: usize = 5;

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

/// Deterministic event queue, sharded by event class.
///
/// Runtime events live in per-class binary heaps (completions, migrations,
/// control-plane events, arrivals, the round timer), so a push or pop costs
/// `log` of the *local* working set — a burst of mid-round completions never
/// inflates the cost of scheduling the next round tick. The trace's arrivals
/// — known in full before the run starts — are *staged* in a sorted side
/// list instead of being front-loaded into any heap, so the heaps only ever
/// hold the near-future working set.
///
/// `pop` takes the lazy max across the shard tops and the staged tail
/// under the same inverted (time, kind-priority, seq) total order, so the
/// delivery sequence is identical to a single heap holding everything —
/// asserted by a differential proptest against exactly that oracle.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Per-class heaps; see [`EventKind::shard`] for the class map.
    shards: [BinaryHeap<Event>; NUM_SHARDS],
    /// Staged events, sorted with the earliest-firing event **last** so the
    /// next one pops in O(1).
    staged: Vec<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[kind.shard()].push(Event { time, seq, kind });
    }

    /// Stages a batch of events without touching the heaps (used for the
    /// full arrival trace at simulation construction). Sequence numbers are
    /// assigned in iteration order, exactly as a `push` loop would, so the
    /// global delivery order is unchanged.
    ///
    /// Only the new batch is sorted; it is then merged with the
    /// already-sorted staged list, so a second `stage()` call costs
    /// O(new·log new + total) instead of re-sorting everything.
    pub fn stage(&mut self, batch: impl IntoIterator<Item = (SimTime, EventKind)>) {
        let start = self.staged.len();
        for (time, kind) in batch {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.staged.push(Event { time, seq, kind });
        }
        // `Event`'s Ord is inverted (min-first for the max-heap), so an
        // ascending sort puts the earliest-firing event last. Seqs are
        // unique, so the order is total and `sort_unstable` is safe.
        self.staged[start..].sort_unstable();
        if start > 0 {
            // Merge the two sorted runs (both ascending under the inverted
            // order) instead of re-sorting the whole staged list.
            let mut merged = Vec::with_capacity(self.staged.len());
            let (old, new) = self.staged.split_at(start);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() && j < new.len() {
                if old[i] <= new[j] {
                    merged.push(old[i]);
                    i += 1;
                } else {
                    merged.push(new[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&old[i..]);
            merged.extend_from_slice(&new[j..]);
            self.staged = merged;
        }
    }

    /// Pops the next event in deterministic order.
    pub fn pop(&mut self) -> Option<Event> {
        // Inverted Ord: "greater" means "fires earlier". Seqs are unique, so
        // the max across shard tops and the staged tail is unambiguous.
        let mut best: Option<(usize, Event)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(&e) = shard.peek() {
                if best.is_none_or(|(_, b)| e > b) {
                    best = Some((i, e));
                }
            }
        }
        if let Some(&s) = self.staged.last() {
            if best.is_none_or(|(_, b)| s > b) {
                return self.staged.pop();
            }
        }
        best.and_then(|(i, _)| self.shards[i].pop())
    }

    /// Number of pending events (staged ones included).
    pub fn len(&self) -> usize {
        self.shards.iter().map(BinaryHeap::len).sum::<usize>() + self.staged.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BinaryHeap::is_empty) && self.staged.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.stage(vec![
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
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        q.stage(vec![
            (t, EventKind::Arrival(JobId::new(5))),
            (t, EventKind::Arrival(JobId::new(3))),
        ]);
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(5)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(JobId::new(3)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn second_stage_batch_merges_with_first() {
        // A later stage() batch interleaves with the first one under the
        // global order (the merge path, not the initial sort path).
        let mut q = EventQueue::new();
        q.stage(vec![
            (SimTime::from_secs(10), EventKind::Arrival(JobId::new(1))),
            (SimTime::from_secs(30), EventKind::Arrival(JobId::new(2))),
        ]);
        q.stage(vec![
            (SimTime::from_secs(5), EventKind::Arrival(JobId::new(3))),
            (SimTime::from_secs(30), EventKind::Arrival(JobId::new(4))),
            (SimTime::from_secs(40), EventKind::Arrival(JobId::new(5))),
        ]);
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![
                EventKind::Arrival(JobId::new(3)),
                EventKind::Arrival(JobId::new(1)),
                // t=30 tie: the first batch's event staged first.
                EventKind::Arrival(JobId::new(2)),
                EventKind::Arrival(JobId::new(4)),
                EventKind::Arrival(JobId::new(5)),
            ]
        );
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

    /// Single-heap oracle: the pre-sharding implementation — one
    /// `BinaryHeap` holding everything, seqs assigned in submission order.
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

        /// Any mix of staged batches, runtime pushes and interleaved
        /// pops delivers exactly the sequence a single global heap
        /// would. Each op is (selector, batch, pop-count): selector 0 pushes
        /// the batch, 1 stages it, 2 pops `pop-count` events. Timestamps are
        /// drawn from a small range so simultaneous events across all kind
        /// priorities (the tie-break cases) are common.
        #[test]
        fn sharded_queue_matches_single_heap_oracle(
            ops in collection::vec(
                (
                    0u8..3,
                    collection::vec((0u64..16, 0u8..=255), 0..12),
                    1usize..24,
                ),
                1..24,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut oracle = OracleQueue::default();
            for (sel, batch, pops) in ops {
                match sel {
                    0 => {
                        for (t, s) in batch {
                            let (time, kind) = decode(t, s);
                            q.push(time, kind);
                            oracle.push(time, kind);
                        }
                    }
                    1 => {
                        let decoded: Vec<_> =
                            batch.iter().map(|&(t, s)| decode(t, s)).collect();
                        q.stage(decoded.clone());
                        for (time, kind) in decoded {
                            oracle.push(time, kind);
                        }
                    }
                    _ => {
                        for _ in 0..pops {
                            prop_assert_eq!(q.len(), oracle.heap.len());
                            let expect = oracle.heap.pop();
                            prop_assert_eq!(q.pop(), expect);
                            if expect.is_none() {
                                break;
                            }
                        }
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
