//! Tendermint-style consensus (Buchman, Kwon; design choice 4).
//!
//! The *non-responsive leader rotation* point of the design space: the
//! leader rotates every height **without** the extra ordering phase HotStuff
//! adds. Instead, a new proposer assumes synchrony and waits the known bound
//! **Δ** (timer τ5) before proposing, so that it is guaranteed to have heard
//! the precommits of slow-but-correct replicas from the previous height.
//! This sacrifices *responsiveness* (dimension E4): commit latency is
//! `Δ + O(δ)` rather than `O(δ)`.
//!
//! The **informed-leader optimization** (attributed to HotStuff-2 in the
//! paper) restores responsiveness opportunistically: a proposer that itself
//! received 2f+1 precommits for the previous height already knows the
//! decided value and proposes immediately.
//!
//! Structure per height: `propose` (linear) → `prevote` (quadratic, quorum
//! 2f+1, lock on success, timeout τ4 → nil) → `precommit` (quadratic,
//! quorum 2f+1 → decide, timeout τ4 → next round with proposer rotation).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    enqueue_unique, launch, reply_to_client, ClientProtocol, Execution, Intake, Scenario,
    SignedRequest, SubmitPolicy,
};

/// Vote kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum VoteKind {
    /// First all-to-all round.
    Prevote,
    /// Second all-to-all round.
    Precommit,
}

/// Tendermint messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum TmMsg {
    /// Client → replicas (broadcast).
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Proposer → all.
    Proposal {
        /// Height (one decision per height).
        height: SeqNum,
        /// Round within the height.
        round: u32,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// All-to-all vote. `digest == None` is a nil vote.
    Vote {
        /// Prevote or precommit.
        kind: VoteKind,
        /// Height.
        height: SeqNum,
        /// Round.
        round: u32,
        /// Voted digest (None = nil).
        digest: Option<Digest>,
        /// Voter.
        from: ReplicaId,
    },
}

impl WireSize for TmMsg {
    fn wire_size(&self) -> usize {
        match self {
            TmMsg::Request(r) => 1 + r.wire_size(),
            TmMsg::Reply(r) => 1 + r.wire_size(),
            TmMsg::Proposal { batch, .. } => 1 + 8 + 4 + 32 + batch.wire_size() + 72,
            TmMsg::Vote { .. } => 1 + 1 + 8 + 4 + 33 + 72,
        }
    }
}

/// A buffered ahead-of-state message (signature already charged and the
/// proposal digest already checked at arrival).
enum PendingMsg {
    Proposal {
        from: ReplicaId,
        round: u32,
        digest: Digest,
        batch: Vec<SignedRequest>,
    },
    Vote {
        from: ReplicaId,
        kind: VoteKind,
        round: u32,
        digest: Option<Digest>,
    },
}

/// How far ahead of the local height buffered traffic is kept; anything
/// further out is dropped (honest peers run at most one height ahead, so
/// the window only needs to cover scheduling skew).
const PENDING_HEIGHT_WINDOW: u64 = 8;

/// A Tendermint replica.
pub struct TendermintReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    height: SeqNum,
    round: u32,
    /// Proposal seen for (height, round).
    proposal: Option<(Digest, Vec<SignedRequest>)>,
    /// Batches by digest for execution.
    batches: BTreeMap<Digest, Vec<SignedRequest>>,
    /// Votes: (kind, height, round, digest) → voters.
    votes: BTreeMap<(VoteKind, SeqNum, u32, Option<Digest>), Vec<ReplicaId>>,
    /// Lock: digest we precommitted, with its round.
    locked: Option<(Digest, u32)>,
    /// This replica received 2f+1 precommits for the previous height
    /// (informed-leader optimization).
    informed: bool,
    /// Enable the informed-leader optimization.
    opt_informed: bool,
    mempool: VecDeque<SignedRequest>,
    exec: Execution,
    /// Sent votes dedup: (kind, height, round).
    voted: BTreeMap<(VoteKind, SeqNum, u32), ()>,
    /// Messages that arrived ahead of our state, keyed by height: the
    /// informed-leader optimization lets a fast proposer ship height-h+1
    /// traffic before a slow replica has decided h (a constant occurrence
    /// on the real-time threaded engine), and a proposer that advanced
    /// rounds faster can ship a future-round proposal. Replayed on
    /// entering the height/round; bounded window against flooding.
    pending: BTreeMap<SeqNum, Vec<PendingMsg>>,
    /// The value decided this height, until it has executed.
    decided: Option<Digest>,
    /// Δ-wait timer before proposing (τ5).
    propose_timer: Option<TimerId>,
    /// Round timeout (τ4).
    round_timer: Option<TimerId>,
    delta: SimDuration,
    round_timeout: SimDuration,
    batch_size: usize,
}

impl TendermintReplica {
    /// Create a replica. `opt_informed` enables the informed-leader
    /// optimization.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        delta: SimDuration,
        opt_informed: bool,
        batch_size: usize,
    ) -> Self {
        TendermintReplica {
            me,
            q,
            store,
            height: SeqNum(1),
            round: 0,
            proposal: None,
            batches: BTreeMap::new(),
            votes: BTreeMap::new(),
            locked: None,
            informed: true, // height 1 has no predecessor to learn about
            opt_informed,
            mempool: VecDeque::new(),
            exec: Execution::new().skipping_executed(),
            voted: BTreeMap::new(),
            pending: BTreeMap::new(),
            decided: None,
            propose_timer: None,
            round_timer: None,
            delta,
            round_timeout: SimDuration(delta.0 * 2),
            batch_size,
        }
    }

    fn proposer(&self, height: SeqNum, round: u32) -> ReplicaId {
        ReplicaId(((height.0 + round as u64) % self.q.n as u64) as u32)
    }

    fn i_propose_now(&self) -> bool {
        self.proposer(self.height, self.round) == self.me
            && self.proposal.is_none()
            && self.decided.is_none()
    }

    fn schedule_propose(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if !self.i_propose_now() || self.mempool.is_empty() || self.propose_timer.is_some() {
            return;
        }
        if self.opt_informed && self.informed {
            // informed-leader optimization: we saw 2f+1 precommits for the
            // previous height ourselves — no Δ-wait needed
            ctx.observe(Observation::Marker {
                label: "informed-skip-delta",
            });
            self.do_propose(ctx);
        } else {
            // non-responsive: wait the full synchrony bound Δ so slow
            // correct replicas' decisions are surely known (τ5)
            ctx.observe(Observation::Marker {
                label: "delta-wait",
            });
            self.propose_timer = Some(ctx.set_timer(TimerKind::T5ViewSync, self.delta));
        }
    }

    fn do_propose(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if !self.i_propose_now() {
            return;
        }
        let exec = &self.exec;
        self.mempool.retain(|r| !exec.is_executed(&r.request.id));
        // re-propose the locked value if we hold a lock, else a new batch
        let (digest, batch) = if let Some((locked_digest, _)) = self.locked {
            // locked on a value whose batch never arrived: nothing to
            // re-propose — the round times out to the next proposer
            let Some(batch) = self.batches.get(&locked_digest).cloned() else {
                return;
            };
            (locked_digest, batch)
        } else {
            if self.mempool.is_empty() {
                return;
            }
            let take = self.batch_size.min(self.mempool.len());
            let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            (digest, batch)
        };
        ctx.charge_crypto(CryptoOp::Sign);
        let height = self.height;
        let round = self.round;
        self.batches.insert(digest, batch.clone());
        ctx.broadcast_replicas(TmMsg::Proposal {
            height,
            round,
            digest,
            batch: batch.clone(),
        });
        self.on_proposal(self.me, height, round, digest, batch, ctx);
    }

    fn on_proposal(
        &mut self,
        from: ReplicaId,
        height: SeqNum,
        round: u32,
        digest: Digest,
        batch: Vec<SignedRequest>,
        ctx: &mut Context<'_, TmMsg>,
    ) {
        if height > self.height || (height == self.height && round > self.round) {
            self.buffer(
                height,
                PendingMsg::Proposal {
                    from,
                    round,
                    digest,
                    batch,
                },
            );
            return;
        }
        if height != self.height || from != self.proposer(height, round) {
            return;
        }
        // whatever the round by now: a precommit quorum may still decide
        // this value, and then the height needs its batch
        self.batches.insert(digest, batch.clone());
        if self.decided == Some(digest) {
            // the quorum outran this proposal and was waiting for it
            return self.execute_decided(digest, ctx);
        }
        if round != self.round || self.decided.is_some() {
            return;
        }
        let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
        self.mempool.retain(|r| !ids.contains(&r.request.id));
        self.proposal = Some((digest, batch));
        self.arm_round_timer(ctx);
        // prevote: the lock rule — vote for the proposal unless locked on a
        // different value
        let vote = match self.locked {
            Some((l, _)) if l != digest => None, // nil
            _ => Some(digest),
        };
        self.cast(VoteKind::Prevote, vote, ctx);
    }

    fn cast(&mut self, kind: VoteKind, digest: Option<Digest>, ctx: &mut Context<'_, TmMsg>) {
        let key = (kind, self.height, self.round);
        if self.voted.contains_key(&key) {
            return;
        }
        self.voted.insert(key, ());
        ctx.charge_crypto(CryptoOp::Sign);
        let height = self.height;
        let round = self.round;
        let me = self.me;
        ctx.broadcast_replicas(TmMsg::Vote {
            kind,
            height,
            round,
            digest,
            from: me,
        });
        self.record_vote(me, kind, height, round, digest, ctx);
    }

    fn record_vote(
        &mut self,
        from: ReplicaId,
        kind: VoteKind,
        height: SeqNum,
        round: u32,
        digest: Option<Digest>,
        ctx: &mut Context<'_, TmMsg>,
    ) {
        if height > self.height {
            self.buffer(
                height,
                PendingMsg::Vote {
                    from,
                    kind,
                    round,
                    digest,
                },
            );
            return;
        }
        if height != self.height {
            return;
        }
        let voters = self.votes.entry((kind, height, round, digest)).or_default();
        if voters.contains(&from) {
            return;
        }
        voters.push(from);
        let count = voters.len();
        if count < self.q.quorum() {
            return;
        }
        match (kind, digest) {
            (VoteKind::Prevote, Some(d)) if round == self.round => {
                // 2f+1 prevotes for a value: lock it and precommit
                self.locked = Some((d, round));
                self.cast(VoteKind::Precommit, Some(d), ctx);
            }
            (VoteKind::Prevote, None) if round == self.round => {
                // 2f+1 nil prevotes: precommit nil
                self.cast(VoteKind::Precommit, None, ctx);
            }
            (VoteKind::Precommit, Some(d)) => {
                self.decide(d, round, ctx);
            }
            (VoteKind::Precommit, None) if round == self.round => {
                // the round failed: rotate the proposer
                self.next_round(ctx);
            }
            _ => {}
        }
    }

    fn decide(&mut self, digest: Digest, round: u32, ctx: &mut Context<'_, TmMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(digest);
        ctx.observe(Observation::Commit {
            seq: self.height,
            view: View(round as u64),
            digest,
            speculative: false,
        });
        self.execute_decided(digest, ctx);
    }

    /// Execute this height's decided value and move on. No batch, no
    /// execution: decided ahead of its proposal, the height waits for it
    /// (the proposal handler re-enters here).
    fn execute_decided(&mut self, digest: Digest, ctx: &mut Context<'_, TmMsg>) {
        let height = self.height;
        let batch = self.batches.get(&digest).map(Vec::as_slice);
        let deliver = reply_to_client(Some(CryptoOp::Sign), TmMsg::Reply);
        if !self.exec.run(ctx, batch, View(height.0), deliver) {
            return;
        }
        // informed? we ourselves saw 2f+1 precommits for this height
        self.informed = true;
        self.enter_height(height.next(), ctx);
    }

    fn enter_height(&mut self, height: SeqNum, ctx: &mut Context<'_, TmMsg>) {
        self.height = height;
        self.round = 0;
        self.proposal = None;
        self.locked = None;
        self.decided = None;
        self.votes.retain(|(_, h, _, _), _| *h >= height);
        self.voted.retain(|(_, h, _), _| *h >= height);
        if let Some(t) = self.round_timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(t) = self.propose_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.observe(Observation::NewView {
            view: View(height.0),
        });
        self.schedule_propose(ctx);
        if !self.mempool.is_empty() {
            self.arm_round_timer(ctx);
        }
        self.replay_pending(ctx);
    }

    fn next_round(&mut self, ctx: &mut Context<'_, TmMsg>) {
        self.round += 1;
        self.proposal = None;
        if let Some(t) = self.propose_timer.take() {
            ctx.cancel_timer(t);
        }
        // a proposer taking over mid-height has not necessarily heard the
        // previous height's precommits recently: apply the Δ-wait rule again
        self.schedule_propose(ctx);
        self.arm_round_timer(ctx);
        self.replay_pending(ctx);
    }

    fn buffer(&mut self, height: SeqNum, msg: PendingMsg) {
        if height.0 > self.height.0 + PENDING_HEIGHT_WINDOW {
            return;
        }
        let slot = self.pending.entry(height).or_default();
        // Per-height cap: honest traffic is one proposal plus two votes
        // per replica per round; anything past a generous multiple is a
        // flood, not a race.
        if slot.len() < 8 * self.q.n {
            slot.push(msg);
        }
    }

    /// Re-deliver traffic buffered for the height/round we just entered.
    /// Entries that are still ahead (a future round of this height) are
    /// re-buffered by the handlers; entries now behind fall through the
    /// handlers' staleness guards.
    fn replay_pending(&mut self, ctx: &mut Context<'_, TmMsg>) {
        let h = self.height;
        self.pending.retain(|ph, _| *ph >= h);
        let Some(msgs) = self.pending.remove(&h) else {
            return;
        };
        for msg in msgs {
            match msg {
                PendingMsg::Proposal {
                    from,
                    round,
                    digest,
                    batch,
                } => self.on_proposal(from, h, round, digest, batch, ctx),
                PendingMsg::Vote {
                    from,
                    kind,
                    round,
                    digest,
                } => self.record_vote(from, kind, h, round, digest, ctx),
            }
        }
    }

    fn arm_round_timer(&mut self, ctx: &mut Context<'_, TmMsg>) {
        if self.round_timer.is_none() {
            self.round_timer =
                Some(ctx.set_timer(TimerKind::T4QuorumConstruction, self.round_timeout));
        }
    }
}

impl Actor<TmMsg> for TendermintReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, TmMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &TmMsg, ctx: &mut Context<'_, TmMsg>) {
        match msg {
            TmMsg::Request(signed) => {
                let view = View(self.height.0);
                let answer = reply_to_client(None, TmMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.exec, signed, view, answer) {
                    return;
                }
                enqueue_unique(&mut self.mempool, signed);
                self.schedule_propose(ctx);
                self.arm_round_timer(ctx);
            }
            TmMsg::Proposal {
                height,
                round,
                digest,
                batch,
            } => {
                let NodeId::Replica(r) = from else { return };
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != *digest {
                    return;
                }
                self.on_proposal(r, *height, *round, *digest, batch.clone(), ctx);
            }
            TmMsg::Vote {
                kind,
                height,
                round,
                digest,
                from: r,
            } => {
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_vote(*r, *kind, *height, *round, *digest, ctx);
            }
            TmMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, TmMsg>) {
        match kind {
            TimerKind::T5ViewSync if Some(id) == self.propose_timer => {
                self.propose_timer = None;
                self.do_propose(ctx);
            }
            TimerKind::T4QuorumConstruction if Some(id) == self.round_timer => {
                self.round_timer = None;
                if self.decided.is_some() || self.mempool.is_empty() && self.proposal.is_none() {
                    return;
                }
                // the round stalled: prevote/precommit nil to unblock
                if self.proposal.is_none() {
                    self.cast(VoteKind::Prevote, None, ctx);
                }
                self.arm_round_timer(ctx);
            }
            _ => {}
        }
    }
}

/// Tendermint client hooks.
pub struct TmClientProto;

impl ClientProtocol for TmClientProto {
    type Msg = TmMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::Broadcast;

    fn wrap_request(req: SignedRequest) -> TmMsg {
        TmMsg::Request(req)
    }

    fn unwrap_reply(msg: &TmMsg) -> Option<&Reply> {
        match msg {
            TmMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run Tendermint. `informed_leader_opt` enables the responsive
/// optimization the paper attributes to HotStuff-2.
pub fn run(scenario: &Scenario, informed_leader_opt: bool) -> RunOutcome {
    let delta = scenario.network.delta;
    launch::<TmClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let batch = scenario.batch_size;
        TendermintReplica::new(me, q, store, delta, informed_leader_opt, batch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    fn mean_latency(out: &RunOutcome) -> f64 {
        let l = out.log.client_latencies();
        l.iter().map(|(_, d)| d.as_millis_f64()).sum::<f64>() / l.len() as f64
    }

    /// Regression: a precommit quorum that outruns its (delayed) proposal
    /// used to decide the height on an empty placeholder batch, "execute"
    /// it and move on, dropping the late proposal as a stale height — the
    /// height's requests were skipped and this replica's state diverged.
    /// The height must wait for its batch and execute it when it lands.
    #[test]
    fn precommit_quorum_ahead_of_its_proposal_waits_for_the_batch() {
        use crate::common::script::{executions, first_write, play, Script};

        let store = Scenario::small(1).key_store();
        let (signed, want) = first_write(&store);
        let batch = vec![signed.clone()];
        let (height, round, digest) = (SeqNum(1), 0, digest_of(&batch));
        let precommit = |from| TmMsg::Vote {
            kind: VoteKind::Precommit,
            height,
            round,
            digest: Some(digest),
            from: ReplicaId(from),
        };
        // replica 1 proposes height 1: 2f+1 precommits reach replica 2
        // first, the proposal itself 5 ms later
        let proposer = Script {
            to: 2,
            now: vec![precommit(0), precommit(1), precommit(3)],
            late: vec![TmMsg::Proposal {
                height,
                round,
                digest,
                batch,
            }],
        };
        let (q, delta) = (QuorumRules { n: 4, f: 1 }, SimDuration::from_millis(10));
        let replica = TendermintReplica::new(ReplicaId(2), q, store, delta, false, 1);
        let out = play(1, proposer, replica);
        assert_eq!(
            executions(&out),
            vec![(NodeId::replica(2), signed.request.id, want)],
            "the height's request executes exactly once, on the state every other replica reaches"
        );
    }

    #[test]
    fn fault_free_progress() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s, false);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert!(
            out.log.marker_count("delta-wait") >= 19,
            "every height waits Δ"
        );
    }

    #[test]
    fn informed_leader_optimization_skips_delta() {
        let s = Scenario::small(1).with_load(1, 20);
        let plain = run(&s, false);
        let opt = run(&s, true);
        assert_eq!(accepted(&opt), 20);
        assert!(opt.log.marker_count("informed-skip-delta") >= 19);
        // the Δ-wait dominates latency: the optimization must be much faster
        assert!(
            mean_latency(&plain) > 2.0 * mean_latency(&opt),
            "Δ-wait {} ms vs informed {} ms",
            mean_latency(&plain),
            mean_latency(&opt)
        );
    }

    #[test]
    fn latency_tracks_delta_not_network_delay() {
        // E4: non-responsive latency is governed by Δ even when the actual
        // network delay δ is tiny
        let fast_net = Scenario::small(1).with_load(1, 10);
        let out = run(&fast_net, false);
        let delta_ms = fast_net.network.delta.as_millis_f64();
        assert!(
            mean_latency(&out) >= delta_ms,
            "each decision must pay Δ = {delta_ms} ms; got {} ms",
            mean_latency(&out)
        );
    }

    #[test]
    fn proposer_crash_rotates_round() {
        let s = Scenario::small(1)
            .with_load(1, 10)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime(1_000_000)));
        let out = run(&s, false);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(
            accepted(&out),
            10,
            "nil-vote rounds must skip the crashed proposer"
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s, false);
        let b = run(&s, false);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
