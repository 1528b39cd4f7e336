//! Checkpoint management (dimension **P4**).
//!
//! The paper: checkpointing (1) garbage-collects data of completed consensus
//! instances to save space, and (2) restores in-dark replicas so all
//! non-faulty replicas stay up-to-date. It is "typically initiated after a
//! fixed window in a decentralized manner without relying on a leader".
//!
//! [`CheckpointManager`] implements the decentralized PBFT scheme: every
//! `interval` sequence numbers a replica marks its state — `(seq,
//! state-machine seq, digest)`, not a copy: the copy is rebuilt
//! ([`StateMachine::snapshot_at`]) only when a trailing peer or a restart
//! asks — and broadcasts a checkpoint message `(seq, state digest)`; once
//! `quorum` matching checkpoint messages for the same `(seq, digest)` are
//! collected (a [`CheckpointProof`]), the checkpoint is *stable*: the log
//! below it is discarded, and the low/high water marks advance.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bft_types::{Digest, ReplicaId, SeqNum};

use crate::machine::{Snapshot, StateMachine};

/// A quorum of matching checkpoint attestations: proof that the state at
/// `seq` with digest `digest` is agreed by a quorum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointProof {
    /// Checkpoint sequence number.
    pub seq: SeqNum,
    /// Agreed state digest.
    pub digest: Digest,
    /// Replicas that attested.
    pub attesters: Vec<ReplicaId>,
}

/// Tracks checkpoint attestations and stability for one replica.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    /// Snapshot interval in sequence numbers (0 = checkpointing disabled).
    pub interval: u64,
    /// Matching attestations required for stability (2f+1 in PBFT).
    pub quorum: usize,
    /// Attestations seen: (seq, digest) → attesting replicas.
    votes: BTreeMap<(SeqNum, Digest), Vec<ReplicaId>>,
    /// Last stable checkpoint.
    stable: Option<CheckpointProof>,
    /// Local checkpoints at or above the stable one, seq → (state-machine
    /// seq, digest): what this replica attested and can still serve.
    marks: BTreeMap<SeqNum, (SeqNum, Digest)>,
}

impl CheckpointManager {
    /// Create a manager. `interval = 0` disables checkpointing entirely.
    pub fn new(interval: u64, quorum: usize) -> Self {
        CheckpointManager {
            interval,
            quorum,
            votes: BTreeMap::new(),
            stable: None,
            marks: BTreeMap::new(),
        }
    }

    /// Take the local checkpoint at `seq` if one is due (a multiple of the
    /// interval above the stable point) and not taken yet: mark where `sm`
    /// stands and return the state digest to attest.
    pub fn checkpoint(&mut self, seq: SeqNum, sm: &StateMachine) -> Option<Digest> {
        let due = self.interval > 0 && seq.0.is_multiple_of(self.interval);
        if !due || seq <= self.low_water() || self.marks.contains_key(&seq) {
            return None;
        }
        let digest = sm.digest();
        self.marks.insert(seq, (sm.last_executed(), digest));
        Some(digest)
    }

    /// Mark the checkpoint at `seq` that `sm` just installed by state
    /// transfer. The install emptied the undo log, so no earlier mark can
    /// be rebuilt any more: they are dropped.
    pub fn mark_installed(&mut self, seq: SeqNum, sm: &StateMachine) {
        self.marks.clear();
        self.marks.insert(seq, (sm.last_executed(), sm.digest()));
    }

    /// The latest local checkpoint, if above `have` (where a trailing
    /// replica stands), as a snapshot rebuilt from `sm`'s undo log.
    pub fn latest_snapshot(&self, have: SeqNum, sm: &StateMachine) -> Option<(SeqNum, Snapshot)> {
        let (seq, (sm_seq, digest)) = self.marks.range(have.next()..).next_back()?;
        let snapshot = sm.snapshot_at(*sm_seq)?;
        debug_assert_eq!(snapshot.digest, *digest);
        Some((*seq, snapshot))
    }

    /// How far the undo log of a machine standing at `horizon` may be
    /// truncated: `window` executions back, but never past the oldest
    /// retained mark, whose snapshot must stay rebuildable.
    pub fn undo_floor(&self, horizon: SeqNum, window: u64) -> SeqNum {
        let floor = SeqNum(horizon.0.saturating_sub(window));
        let oldest = self.marks.values().next();
        oldest.map_or(floor, |(sm_seq, _)| floor.min(*sm_seq))
    }

    /// Record an attestation from `replica` for `(seq, digest)`. Returns the
    /// new stable proof if this vote made the checkpoint stable.
    pub fn add_attestation(
        &mut self,
        replica: ReplicaId,
        seq: SeqNum,
        digest: Digest,
    ) -> Option<CheckpointProof> {
        // ignore attestations at or below the current stable point
        if let Some(stable) = &self.stable {
            if seq <= stable.seq {
                return None;
            }
        }
        let entry = self.votes.entry((seq, digest)).or_default();
        if entry.contains(&replica) {
            return None;
        }
        entry.push(replica);
        if entry.len() >= self.quorum {
            let proof = CheckpointProof {
                seq,
                digest,
                attesters: entry.clone(),
            };
            self.make_stable(proof.clone());
            Some(proof)
        } else {
            None
        }
    }

    fn make_stable(&mut self, proof: CheckpointProof) {
        let seq = proof.seq;
        self.stable = Some(proof);
        // garbage-collect: votes and marks strictly below the stable point
        // (the stable mark itself is kept to serve catch-ups)
        self.votes.retain(|(s, _), _| *s > seq);
        self.marks.retain(|s, _| *s >= seq);
    }

    /// The last stable checkpoint proof.
    pub fn stable(&self) -> Option<&CheckpointProof> {
        self.stable.as_ref()
    }

    /// Low water mark: sequence numbers at or below this are garbage.
    pub fn low_water(&self) -> SeqNum {
        self.stable.as_ref().map(|p| p.seq).unwrap_or(SeqNum(0))
    }

    /// High water mark given a window size: replicas refuse to order beyond
    /// this until the checkpoint advances (PBFT's throttle on in-dark
    /// divergence).
    pub fn high_water(&self, window: u64) -> SeqNum {
        SeqNum(self.low_water().0 + window)
    }

    /// Amnesia restart: volatile memory is gone, only the last *stable*
    /// checkpoint survives. Drops all in-flight attestation votes and every
    /// mark except the stable one, and returns the stable snapshot (if this
    /// replica checkpointed there) so the caller can reinstall it.
    pub fn reset_to_stable(&mut self, sm: &StateMachine) -> Option<(SeqNum, Snapshot)> {
        self.votes.clear();
        let stable_seq = self.stable.as_ref().map(|p| p.seq);
        self.marks.retain(|s, _| Some(*s) == stable_seq);
        self.latest_snapshot(SeqNum(0), sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::{ClientId, Op, Request, Transaction};

    fn digest(b: u8) -> Digest {
        Digest([b; 32])
    }

    /// Execute one more put on `sm`.
    fn step(sm: &mut StateMachine) {
        let i = sm.last_executed().0 + 1;
        let txn = Transaction {
            ops: vec![Op::Put(i % 7, i as i64)],
        };
        sm.execute(SeqNum(i), &Request::new(ClientId(1), i, txn));
    }

    /// Run `sm` up to `to`, checkpointing wherever one is due; returns the
    /// digests attested, by sequence number.
    fn run_to(m: &mut CheckpointManager, sm: &mut StateMachine, to: u64) -> BTreeMap<u64, Digest> {
        let mut attested = BTreeMap::new();
        while sm.last_executed().0 < to {
            step(sm);
            let seq = sm.last_executed();
            if let Some(d) = m.checkpoint(seq, sm) {
                assert_eq!(d, sm.digest());
                attested.insert(seq.0, d);
            }
        }
        attested
    }

    fn make_stable(m: &mut CheckpointManager, seq: u64, d: Digest) {
        for r in 0..m.quorum as u32 {
            m.add_attestation(ReplicaId(r), SeqNum(seq), d);
        }
        assert_eq!(m.low_water(), SeqNum(seq));
    }

    #[test]
    fn checkpoints_are_due_once_per_interval() {
        let mut m = CheckpointManager::new(10, 3);
        let mut sm = StateMachine::new();
        assert!(m.checkpoint(SeqNum(0), &sm).is_none());
        let attested = run_to(&mut m, &mut sm, 25);
        assert_eq!(attested.keys().copied().collect::<Vec<_>>(), vec![10, 20]);
        // taken already: not due a second time
        assert!(m.checkpoint(SeqNum(20), &sm).is_none());
        // at or below the stable point: never due
        let mut dark = CheckpointManager::new(10, 1);
        dark.add_attestation(ReplicaId(1), SeqNum(20), attested[&20]);
        assert!(dark.checkpoint(SeqNum(20), &sm).is_none());
        let mut off = CheckpointManager::new(0, 3);
        assert!(off.checkpoint(SeqNum(10), &sm).is_none());
    }

    #[test]
    fn stability_requires_quorum_of_distinct_replicas() {
        let mut m = CheckpointManager::new(10, 3);
        assert!(m
            .add_attestation(ReplicaId(0), SeqNum(10), digest(1))
            .is_none());
        // duplicate vote doesn't count
        assert!(m
            .add_attestation(ReplicaId(0), SeqNum(10), digest(1))
            .is_none());
        assert!(m
            .add_attestation(ReplicaId(1), SeqNum(10), digest(1))
            .is_none());
        let proof = m
            .add_attestation(ReplicaId(2), SeqNum(10), digest(1))
            .unwrap();
        assert_eq!(proof.seq, SeqNum(10));
        assert_eq!(proof.attesters.len(), 3);
        assert_eq!(m.low_water(), SeqNum(10));
        assert_eq!(m.high_water(100), SeqNum(110));
    }

    #[test]
    fn conflicting_digests_do_not_mix() {
        let mut m = CheckpointManager::new(10, 3);
        m.add_attestation(ReplicaId(0), SeqNum(10), digest(1));
        m.add_attestation(ReplicaId(1), SeqNum(10), digest(2)); // divergent
        assert!(m
            .add_attestation(ReplicaId(2), SeqNum(10), digest(1))
            .is_none());
        assert!(m.stable().is_none());
        assert!(m
            .add_attestation(ReplicaId(3), SeqNum(10), digest(1))
            .is_some());
    }

    #[test]
    fn old_attestations_ignored_after_stability() {
        let mut m = CheckpointManager::new(10, 2);
        m.add_attestation(ReplicaId(0), SeqNum(20), digest(2));
        m.add_attestation(ReplicaId(1), SeqNum(20), digest(2));
        assert_eq!(m.low_water(), SeqNum(20));
        // a straggler attestation for seq 10 is ignored
        assert!(m
            .add_attestation(ReplicaId(2), SeqNum(10), digest(1))
            .is_none());
        assert!(m
            .add_attestation(ReplicaId(3), SeqNum(10), digest(1))
            .is_none());
        assert_eq!(m.low_water(), SeqNum(20));
    }

    #[test]
    fn a_mark_is_served_as_the_snapshot_taken_there() {
        let mut m = CheckpointManager::new(10, 2);
        let mut sm = StateMachine::new();
        run_to(&mut m, &mut sm, 20);
        let at_20 = sm.snapshot();
        // the machine runs on; the checkpoint at 20 is still what is served
        let attested = run_to(&mut m, &mut sm, 27);
        assert!(attested.is_empty());
        let (seq, snap) = m.latest_snapshot(SeqNum(12), &sm).unwrap();
        assert_eq!((seq, &snap), (SeqNum(20), &at_20));
        // a replica already standing at the checkpoint is served nothing
        assert!(m.latest_snapshot(SeqNum(20), &sm).is_none());
    }

    #[test]
    fn marks_gc_below_stable_and_hold_the_undo_log() {
        let mut m = CheckpointManager::new(10, 2);
        let mut sm = StateMachine::new();
        let attested = run_to(&mut m, &mut sm, 35);
        // marks at 10, 20, 30: the oldest holds the undo log back
        assert_eq!(m.undo_floor(sm.last_executed(), 8), SeqNum(10));
        make_stable(&mut m, 20, attested[&20]);
        // the mark at 10 is gone; the stable one at 20 stays servable
        assert_eq!(m.undo_floor(sm.last_executed(), 8), SeqNum(20));
        sm.truncate_below(m.undo_floor(sm.last_executed(), 8));
        let (seq, snap) = m.latest_snapshot(SeqNum(0), &sm).unwrap();
        assert_eq!((seq, snap.digest), (SeqNum(30), attested[&30]));
        let (seq, snap) = m.reset_to_stable(&sm).unwrap();
        assert_eq!((seq, snap.digest), (SeqNum(20), attested[&20]));
        // without marks only the window counts
        let none = CheckpointManager::new(10, 2);
        assert_eq!(none.undo_floor(SeqNum(35), 8), SeqNum(27));
        assert_eq!(none.undo_floor(SeqNum(5), 8), SeqNum(0));
    }

    #[test]
    fn an_install_overtakes_earlier_marks() {
        let mut m = CheckpointManager::new(10, 2);
        let mut sm = StateMachine::new();
        run_to(&mut m, &mut sm, 15);
        let mut ahead = StateMachine::new();
        run_to(&mut CheckpointManager::new(0, 2), &mut ahead, 40);
        sm.install_snapshot(&ahead.snapshot());
        m.mark_installed(SeqNum(40), &sm);
        // the mark at 10 lost its undo records with the install
        assert_eq!(m.undo_floor(sm.last_executed(), 8), SeqNum(32));
        let (seq, snap) = m.latest_snapshot(SeqNum(0), &sm).unwrap();
        assert_eq!((seq, snap), (SeqNum(40), ahead.snapshot()));
    }

    #[test]
    fn reset_to_stable_keeps_only_the_stable_mark() {
        let mut m = CheckpointManager::new(10, 2);
        let mut sm = StateMachine::new();
        let attested = run_to(&mut m, &mut sm, 30);
        make_stable(&mut m, 20, attested[&20]);
        m.add_attestation(ReplicaId(0), SeqNum(30), digest(9)); // in-flight vote
        let (seq, snap) = m.reset_to_stable(&sm).expect("stable mark retained");
        assert_eq!(
            (seq, snap.seq, snap.digest),
            (SeqNum(20), SeqNum(20), attested[&20])
        );
        // the mark at 30 was volatile
        assert_eq!(m.latest_snapshot(SeqNum(0), &sm).unwrap().0, SeqNum(20));
        assert_eq!(m.low_water(), SeqNum(20)); // stability survives amnesia

        // the in-flight vote for 30 was volatile: two fresh attestations are
        // needed again for seq 30 to become stable
        assert!(m
            .add_attestation(ReplicaId(1), SeqNum(30), digest(9))
            .is_none());

        // no stable checkpoint → nothing survives
        let mut empty = CheckpointManager::new(10, 2);
        run_to(&mut empty, &mut StateMachine::new(), 10);
        assert!(empty.reset_to_stable(&sm).is_none());
        assert!(empty.latest_snapshot(SeqNum(0), &sm).is_none());
    }

    #[test]
    fn retained_bookkeeping_stays_bounded_over_a_long_run() {
        let (interval, window) = (16, 64);
        let mut m = CheckpointManager::new(interval, 2);
        let mut sm = StateMachine::new();
        let mut pending: Option<(u64, Digest)> = None;
        for _ in 0..10_000 {
            step(&mut sm);
            let seq = sm.last_executed();
            if let Some(d) = m.checkpoint(seq, &sm) {
                // the previous checkpoint turns stable one interval late
                if let Some((s, d)) = pending.replace((seq.0, d)) {
                    make_stable(&mut m, s, d);
                    sm.truncate_below(m.undo_floor(seq, window));
                }
                // whatever was truncated, the stable mark can be rebuilt
                let stable = m.clone().reset_to_stable(&sm).map(|(s, _)| s);
                assert_eq!(stable, Some(m.low_water()).filter(|s| s.0 > 0));
            }
            // undo + history, each at most window + one interval
            assert!(sm.retained_entries() as u64 <= 2 * (window + interval));
        }
    }
}
