//! The DISC hardware scheduler.
//!
//! *"In DISC, the sequential order is replaced by a hardware scheduler
//! which selects from among the several possible streams a particular
//! instruction for execution on the next cycle."*
//!
//! DISC1 partitions throughput with a sequence table: *"The computational
//! power of the system can be allocated evenly between ISs, or assigned in
//! increments as low as 1/16 of the total."* When the slot owner is not
//! ready, the slot is **dynamically reallocated** to another ready stream,
//! which is the property that distinguishes *dynamic* interleaving from the
//! fixed barrel scheduling of HEP-style machines.

use disc_snap::{SnapError, SnapReader, SnapWriter};

/// Number of slots in a DISC1 partition sequence (1/16 granularity).
pub const SEQUENCE_SLOTS: usize = 16;

/// Scheduler policy selecting which ready stream issues each cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// DISC1's sequence table. Entry *i* names the stream owning slot
    /// `cycle mod len`. A slot whose owner is not ready is reallocated to
    /// the next ready stream in sequence order starting after the slot
    /// position (so spare throughput is redistributed roughly in proportion
    /// to the static shares).
    Sequence(Vec<u8>),
    /// Weighted deficit round-robin ablation: stream `s` receives
    /// `weights[s]` credits per cycle and the ready stream with the largest
    /// deficit issues. Not part of DISC1; used to study scheduler choices.
    WeightedDeficit(Vec<u32>),
}

impl SchedulePolicy {
    /// An even 16-slot round-robin over `streams` streams (the DISC1
    /// default partition).
    pub fn round_robin(streams: usize) -> Self {
        assert!(streams > 0, "round_robin needs at least one stream");
        let seq = (0..SEQUENCE_SLOTS).map(|i| (i % streams) as u8).collect();
        SchedulePolicy::Sequence(seq)
    }

    /// A sequence table allocating `shares[s]` of every 16 slots to stream
    /// `s`, interleaved as evenly as possible.
    ///
    /// # Panics
    ///
    /// Panics if the shares do not sum to [`SEQUENCE_SLOTS`].
    pub fn partitioned(shares: &[u32]) -> Self {
        let total: u32 = shares.iter().sum();
        assert_eq!(
            total as usize, SEQUENCE_SLOTS,
            "partition shares must sum to {SEQUENCE_SLOTS}"
        );
        // Largest-remainder interleave: walk slots, pick the stream whose
        // accumulated entitlement is furthest behind.
        let mut seq = Vec::with_capacity(SEQUENCE_SLOTS);
        let mut given = vec![0u32; shares.len()];
        for slot in 0..SEQUENCE_SLOTS as u32 {
            let mut best = None;
            let mut best_lag = i64::MIN;
            for (s, &share) in shares.iter().enumerate() {
                if share == 0 {
                    continue;
                }
                let entitled = (share as i64) * (slot as i64 + 1);
                let lag = entitled - (given[s] as i64) * SEQUENCE_SLOTS as i64;
                if lag > best_lag {
                    best_lag = lag;
                    best = Some(s);
                }
            }
            let s = best.expect("at least one nonzero share");
            given[s] += 1;
            seq.push(s as u8);
        }
        SchedulePolicy::Sequence(seq)
    }

    /// Checks that every referenced stream exists.
    ///
    /// # Panics
    ///
    /// Panics on an empty table or an out-of-range stream index.
    pub fn validate(&self, streams: usize) {
        match self {
            SchedulePolicy::Sequence(seq) => {
                assert!(!seq.is_empty(), "schedule sequence must not be empty");
                for &s in seq {
                    assert!(
                        (s as usize) < streams,
                        "schedule references stream {s} but only {streams} exist"
                    );
                }
            }
            SchedulePolicy::WeightedDeficit(w) => {
                assert_eq!(w.len(), streams, "one weight per stream required");
                assert!(w.iter().any(|&x| x > 0), "at least one weight must be > 0");
            }
        }
    }
}

/// Runtime state of the hardware scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedulePolicy,
    slot: usize,
    deficit: Vec<i64>,
    /// Slots granted to each stream (for partition accounting).
    granted: Vec<u64>,
    /// Slots granted to a stream other than the slot owner.
    reallocated: u64,
}

impl Scheduler {
    /// Creates a scheduler for `streams` streams.
    pub fn new(policy: SchedulePolicy, streams: usize) -> Self {
        policy.validate(streams);
        Scheduler {
            policy,
            slot: 0,
            deficit: vec![0; streams],
            granted: vec![0; streams],
            reallocated: 0,
        }
    }

    /// Picks the stream to issue this cycle given per-stream readiness, or
    /// `None` when no stream is ready (pipeline bubble). Advances the
    /// internal slot pointer exactly once per call.
    pub fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        self.pick_with(|s| ready.get(s).copied().unwrap_or(false))
    }

    /// Like [`pick`](Self::pick), but readiness is queried on demand.
    ///
    /// In the common case — the slot owner is ready — only the owner is
    /// ever probed, which lets the machine skip decoding and hazard-
    /// checking every other stream on most cycles. `is_ready` may be
    /// called more than once for the same stream during the reallocation
    /// scan; callers that probe lazily should memoize per cycle.
    pub fn pick_with(&mut self, mut is_ready: impl FnMut(usize) -> bool) -> Option<usize> {
        let choice = match &self.policy {
            SchedulePolicy::Sequence(seq) => {
                let len = seq.len();
                let base = self.slot;
                self.slot += 1;
                if self.slot == len {
                    self.slot = 0;
                }
                let owner = seq[base] as usize;
                if is_ready(owner) {
                    Some((owner, false))
                } else {
                    // Dynamic reallocation: scan the sequence from the next
                    // slot so spare cycles go to streams roughly per share.
                    let mut found = None;
                    let mut idx = base;
                    for _ in 0..len {
                        idx += 1;
                        if idx == len {
                            idx = 0;
                        }
                        let cand = seq[idx] as usize;
                        if is_ready(cand) {
                            found = Some((cand, true));
                            break;
                        }
                    }
                    found
                }
            }
            SchedulePolicy::WeightedDeficit(weights) => {
                for (s, &w) in weights.iter().enumerate() {
                    if is_ready(s) {
                        self.deficit[s] += w as i64;
                    }
                }
                let total: i64 = weights.iter().map(|&w| w as i64).sum();
                let best = (0..weights.len())
                    .filter(|&s| is_ready(s))
                    .max_by_key(|&s| (self.deficit[s], std::cmp::Reverse(s)));
                best.map(|s| {
                    self.deficit[s] -= total;
                    (s, false)
                })
            }
        };
        if let Some((s, realloc)) = choice {
            self.granted[s] += 1;
            if realloc {
                self.reallocated += 1;
            }
            Some(s)
        } else {
            None
        }
    }

    /// Advances the scheduler past `cycles` bubble cycles in one step,
    /// exactly equivalent to that many [`pick_with`](Self::pick_with) calls
    /// in which no stream is ready.
    ///
    /// For a sequence table a bubble still consumes the slot, so the slot
    /// pointer rotates; for weighted deficit a bubble cycle accrues no
    /// deficit and grants no slot, so nothing changes.
    pub fn advance_idle(&mut self, cycles: u64) {
        if let SchedulePolicy::Sequence(seq) = &self.policy {
            let len = seq.len() as u64;
            self.slot = ((self.slot as u64 + cycles % len) % len) as usize;
        }
    }

    /// The sequence table when the policy is [`SchedulePolicy::Sequence`],
    /// `None` otherwise. The superblock dispatcher replays slot picks from
    /// this view without the per-cycle closure machinery.
    pub(crate) fn sequence(&self) -> Option<&[u8]> {
        match &self.policy {
            SchedulePolicy::Sequence(seq) => Some(seq),
            SchedulePolicy::WeightedDeficit(_) => None,
        }
    }

    /// Current slot-pointer position (only meaningful under
    /// [`SchedulePolicy::Sequence`]).
    pub(crate) fn slot_index(&self) -> usize {
        self.slot
    }

    /// Bulk-applies the outcome of a superblock run: the slot pointer
    /// lands on `slot`, each stream's grant counter grows by its delta and
    /// the reallocation counter by `reallocated` — exactly equivalent to
    /// the sequence of [`pick_with`](Self::pick_with) calls the run
    /// replayed.
    pub(crate) fn apply_burst(&mut self, slot: usize, granted: &[u64], reallocated: u64) {
        self.slot = slot;
        for (g, d) in self.granted.iter_mut().zip(granted) {
            *g += d;
        }
        self.reallocated += reallocated;
    }

    /// Slots granted to each stream so far.
    pub fn granted(&self) -> &[u64] {
        &self.granted
    }

    /// Slots that were dynamically reallocated away from their owner.
    pub fn reallocated(&self) -> u64 {
        self.reallocated
    }

    /// Serializes the scheduler's runtime state (`disc-snap/v2`
    /// component). The policy itself is construction state derived from
    /// the configuration and is not written.
    pub(crate) fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.slot);
        w.put_usize(self.deficit.len());
        for &d in &self.deficit {
            w.put_i64(d);
        }
        w.put_usize(self.granted.len());
        for &g in &self.granted {
            w.put_u64(g);
        }
        w.put_u64(self.reallocated);
    }

    /// Restores state written by [`save_into`](Self::save_into) onto a
    /// scheduler built from the same configuration.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let slot = r.get_usize()?;
        if let SchedulePolicy::Sequence(seq) = &self.policy {
            if slot >= seq.len() {
                return Err(SnapError::Corrupt(format!(
                    "slot pointer {slot} outside {}-entry sequence",
                    seq.len()
                )));
            }
        }
        self.slot = slot;
        let n = r.get_usize()?;
        if n != self.deficit.len() {
            return Err(SnapError::Corrupt(format!(
                "deficit table length mismatch: machine {}, snapshot {n}",
                self.deficit.len()
            )));
        }
        for d in self.deficit.iter_mut() {
            *d = r.get_i64()?;
        }
        let n = r.get_usize()?;
        if n != self.granted.len() {
            return Err(SnapError::Corrupt(format!(
                "grant table length mismatch: machine {}, snapshot {n}",
                self.granted.len()
            )));
        }
        for g in self.granted.iter_mut() {
            *g = r.get_u64()?;
        }
        self.reallocated = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_slots(sched: &mut Scheduler, ready: &[bool], n: usize) -> Vec<Option<usize>> {
        (0..n).map(|_| sched.pick(ready)).collect()
    }

    #[test]
    fn round_robin_covers_all_streams() {
        let mut s = Scheduler::new(SchedulePolicy::round_robin(4), 4);
        let picks = run_slots(&mut s, &[true; 4], 16);
        for st in 0..4 {
            assert_eq!(
                picks.iter().filter(|p| **p == Some(st)).count(),
                4,
                "stream {st} should own 4 of 16 slots"
            );
        }
    }

    #[test]
    fn partitioned_respects_shares() {
        let policy = SchedulePolicy::partitioned(&[8, 3, 3, 2]);
        let mut s = Scheduler::new(policy, 4);
        let picks = run_slots(&mut s, &[true; 4], 16);
        let count = |st| picks.iter().filter(|p| **p == Some(st)).count();
        assert_eq!(count(0), 8);
        assert_eq!(count(1), 3);
        assert_eq!(count(2), 3);
        assert_eq!(count(3), 2);
    }

    #[test]
    fn partitioned_interleaves_rather_than_blocks() {
        // With an 8/8 split streams must alternate, not run 8-slot bursts.
        let policy = SchedulePolicy::partitioned(&[8, 8]);
        if let SchedulePolicy::Sequence(seq) = &policy {
            for w in seq.windows(2) {
                assert_ne!(w[0], w[1], "8/8 split should strictly alternate: {seq:?}");
            }
        } else {
            unreachable!();
        }
    }

    #[test]
    fn sole_active_stream_receives_full_throughput() {
        // Figure 3.3: a stream statically assigned T/2 gets T when alone.
        let mut s = Scheduler::new(SchedulePolicy::partitioned(&[8, 3, 3, 2]), 4);
        let ready = [false, true, false, false];
        let picks = run_slots(&mut s, &ready, 32);
        assert!(picks.iter().all(|p| *p == Some(1)));
        assert_eq!(s.reallocated(), 32 - 6); // 3 of every 16 slots were owned
    }

    #[test]
    fn spare_slots_redistribute_in_share_proportion() {
        // Stream 0 (share 8) inactive: its slots should flow to the others
        // roughly in 3:3:2 proportion.
        let mut s = Scheduler::new(SchedulePolicy::partitioned(&[8, 3, 3, 2]), 4);
        let ready = [false, true, true, true];
        let picks = run_slots(&mut s, &ready, 1600);
        let count = |st| picks.iter().filter(|p| **p == Some(st)).count();
        assert_eq!(count(0), 0);
        assert!(count(1) > count(3), "larger share should keep advantage");
        assert_eq!(count(1) + count(2) + count(3), 1600);
    }

    #[test]
    fn no_ready_stream_gives_bubble() {
        let mut s = Scheduler::new(SchedulePolicy::round_robin(2), 2);
        assert_eq!(s.pick(&[false, false]), None);
        assert_eq!(s.granted(), &[0, 0]);
    }

    #[test]
    fn weighted_deficit_tracks_weights() {
        let mut s = Scheduler::new(SchedulePolicy::WeightedDeficit(vec![3, 1]), 2);
        let picks = run_slots(&mut s, &[true, true], 400);
        let c0 = picks.iter().filter(|p| **p == Some(0)).count();
        let c1 = picks.iter().filter(|p| **p == Some(1)).count();
        assert_eq!(c0 + c1, 400);
        let ratio = c0 as f64 / c1 as f64;
        assert!((2.5..=3.5).contains(&ratio), "expected ~3:1, got {ratio}");
    }

    #[test]
    fn weighted_deficit_reallocates_idle_share() {
        let mut s = Scheduler::new(SchedulePolicy::WeightedDeficit(vec![3, 1]), 2);
        let picks = run_slots(&mut s, &[false, true], 100);
        assert!(picks.iter().all(|p| *p == Some(1)));
    }

    #[test]
    #[should_panic(expected = "must sum")]
    fn partitioned_rejects_bad_sum() {
        let _ = SchedulePolicy::partitioned(&[8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "references stream")]
    fn sequence_rejects_unknown_stream() {
        Scheduler::new(SchedulePolicy::Sequence(vec![0, 5]), 2);
    }
}
