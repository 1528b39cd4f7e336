//! MinBFT-style consensus with trusted hardware (Veronese et al. '13).
//!
//! Dimension **E1**'s trusted-hardware point: with a tamper-proof *unique
//! sequential identifier generator* (USIG) on every replica, Byzantine
//! behavior is restricted — a replica can no longer *equivocate*, because
//! the hardware will never attest two different messages with the same
//! counter value. That restriction lowers the replica bound from `3f+1` to
//! **`2f+1`** and the commit quorum to a simple majority (`f+1`).
//!
//! ## The hardware substitution (see DESIGN.md)
//!
//! [`Usig`] simulates the trusted component: it hands out strictly
//! increasing counters bound to message digests, and by construction can
//! never attest two different digests under one counter — the exact
//! contract real attested hardware enforces. Verifiers check that each
//! peer's counters advance strictly monotonically, so replayed or forked
//! attestations (the equivocation vectors) are rejected.
//!
//! Structure: `prepare` (leader, with UI) → `commit` (all-to-all, each with
//! its own UI) → execute on `f+1` matching commits.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    drop_ordered, enqueue_unique, launch, reply_to_client, requeue_unexecuted, BatchEntry,
    ClientProtocol, Core, Execution, Intake, Scenario, SignedRequest, SubmitPolicy, ViewChanger,
    ViewMsg,
};

/// A unique identifier produced by the trusted component: an attested
/// (counter, digest) binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct Ui {
    /// The attesting replica.
    pub replica: ReplicaId,
    /// Strictly increasing counter value.
    pub counter: u64,
    /// The digest bound to the counter.
    pub digest: Digest,
}

impl Ui {
    /// Wire size: counter + digest + attestation signature.
    pub const WIRE_SIZE: usize = 8 + 32 + 64;
}

/// The simulated USIG trusted component. Owned by one replica; enforces the
/// hardware contract that counters are strictly increasing and uniquely
/// bound to digests — even a Byzantine replica implementation cannot violate
/// it (the simulation would panic, which models "the hardware refuses").
#[derive(Debug)]
pub struct Usig {
    replica: ReplicaId,
    next: u64,
}

impl Usig {
    /// Initialize the component for a replica.
    pub fn new(replica: ReplicaId) -> Usig {
        Usig { replica, next: 1 }
    }

    /// Attest a digest: consumes the next counter value. The counter can
    /// never be reused — this is the anti-equivocation guarantee.
    pub fn create_ui(&mut self, digest: Digest) -> Ui {
        let counter = self.next;
        self.next += 1;
        Ui {
            replica: self.replica,
            counter,
            digest,
        }
    }
}

/// Receiver-side uniqueness checking of another replica's UIs.
///
/// The equivocation vectors are *replays* (the same attested counter
/// presented twice) and *forks* (two different digests claiming one
/// counter) — both are rejected. Counters arriving out of order are fine:
/// the network does not provide FIFO channels, a replica interleaves
/// attestations for different message types (its prepares and its commits
/// draw from the same counter), and every unseen counter value is a
/// genuine hardware attestation regardless of arrival order. (The MinBFT
/// paper gets to insist on gap-free counters only because it assumes
/// reliable FIFO point-to-point links; rejecting a late lower counter
/// here would silently drop a valid prepare and wedge the slot.)
#[derive(Debug, Clone, Default)]
pub struct UiVerifier {
    seen: BTreeMap<ReplicaId, BTreeMap<u64, Digest>>,
}

impl UiVerifier {
    /// Accept `ui` iff this counter value has never been presented by that
    /// replica before — replays and forked attestations are rejected.
    pub fn accept(&mut self, ui: &Ui) -> bool {
        let seen = self.seen.entry(ui.replica).or_default();
        match seen.get(&ui.counter) {
            Some(_) => false, // replay, or a fork the hardware cannot emit
            None => {
                seen.insert(ui.counter, ui.digest);
                true
            }
        }
    }
}

/// MinBFT messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum MinBftMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Leader → all: attested proposal.
    Prepare {
        /// View.
        view: View,
        /// Slot (the leader's UI counter doubles as the sequence number).
        seq: SeqNum,
        /// Leader's UI over the batch digest.
        ui: Ui,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// All → all: attested commit vote.
    Commit {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest being committed.
        digest: Digest,
        /// The voter's own UI (binds the vote into its attested history).
        ui: Ui,
        /// Voter.
        from: ReplicaId,
    },
    /// View change: a request carries nothing (the new leader re-proposes the
    /// undecided slots of its own log), the new-view message those slots.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for MinBftMsg {
    fn wire_size(&self) -> usize {
        match self {
            MinBftMsg::Request(r) => 1 + r.wire_size(),
            MinBftMsg::Reply(r) => 1 + r.wire_size(),
            MinBftMsg::Prepare { batch, .. } => 1 + 16 + Ui::WIRE_SIZE + batch.wire_size(),
            MinBftMsg::Commit { .. } => 1 + 16 + 32 + Ui::WIRE_SIZE + 4,
            // + 4: unlike the family's signed votes, the attested request
            // carries its sender in the clear
            MinBftMsg::View(m @ ViewMsg::ViewChange { .. }) => m.wire_size(68, WireSize::wire_size),
            MinBftMsg::View(m) => m.wire_size(64, WireSize::wire_size),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct MinSlot {
    commits: Vec<ReplicaId>,
    sent_commit: bool,
}

/// A MinBFT replica with its trusted component.
pub struct MinBftReplica {
    core: Core<MinBftMsg, MinSlot, Vec<SignedRequest>>,
    store: Arc<KeyStore>,
    usig: Usig,
    verifier: UiVerifier,
    mempool: VecDeque<SignedRequest>,
    batch_size: usize,
}

impl MinBftReplica {
    /// Create a replica (provisions its trusted component).
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        MinBftReplica {
            core: Core::new(me, q, view_timeout, Execution::new()),
            store,
            usig: Usig::new(me),
            verifier: UiVerifier::default(),
            mempool: VecDeque::new(),
            batch_size,
        }
    }

    /// Commit quorum: a simple majority (`f+1` of `2f+1`) — trusted
    /// hardware removes equivocation, so single-correct-replica
    /// intersection suffices.
    fn commit_quorum(&self) -> usize {
        self.core.q.trusted_quorum()
    }

    fn propose(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        drop_ordered(&mut self.mempool, &self.core.exec, &self.core.log);
        while !self.mempool.is_empty() {
            let take = self.batch_size.min(self.mempool.len());
            let batch: Vec<SignedRequest> = self.mempool.drain(..take).collect();
            let seq = self.core.next_seq;
            self.core.next_seq = self.core.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            // USIG attestation (modeled at signature cost)
            ctx.charge_crypto(CryptoOp::Sign);
            let ui = self.usig.create_ui(digest);
            let view = self.core.gate.view();
            self.core.log.install(seq, digest, batch.clone());
            ctx.broadcast_replicas(MinBftMsg::Prepare {
                view,
                seq,
                ui,
                batch,
            });
            self.send_commit(seq, digest, ctx);
        }
    }

    fn send_commit(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, MinBftMsg>) {
        let view = self.core.gate.view();
        let me = self.core.me;
        {
            let slot = self.core.log.slot(seq);
            if slot.ext.sent_commit {
                return;
            }
            slot.ext.sent_commit = true;
        }
        ctx.charge_crypto(CryptoOp::Sign);
        let ui = self.usig.create_ui(digest);
        ctx.broadcast_replicas(MinBftMsg::Commit {
            view,
            seq,
            digest,
            ui,
            from: me,
        });
        self.record_commit(me, seq, digest, ctx);
    }

    fn record_commit(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, MinBftMsg>,
    ) {
        let quorum = self.commit_quorum();
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        if !slot.ext.commits.contains(&from) {
            slot.ext.commits.push(from);
        }
        if !slot.committed && slot.ext.commits.len() >= quorum && slot.digest == Some(digest) {
            slot.committed = true;
            ctx.observe(Observation::Commit {
                seq,
                view,
                digest,
                speculative: false,
            });
            self.core
                .execute_ready(ctx, CryptoOp::Sign, MinBftMsg::Reply);
        }
    }
}

impl ViewChanger for MinBftReplica {
    type Msg = MinBftMsg;
    type Ext = MinSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<MinBftMsg, MinSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    fn wire(msg: ViewMsg<Vec<SignedRequest>>) -> MinBftMsg {
        MinBftMsg::View(msg)
    }

    /// f+1: with attested, non-equivocating votes one correct replica in
    /// the quorum suffices.
    fn new_view_quorum(q: QuorumRules) -> usize {
        q.trusted_quorum()
    }

    /// Nothing: the USIG makes every proposal the new leader holds
    /// unforgeable, so it re-proposes from its own log.
    fn report(&mut self, _: &mut Context<'_, MinBftMsg>) -> Vec<BatchEntry> {
        Vec::new()
    }

    fn assemble(&mut self, _: View) -> Vec<BatchEntry> {
        self.core.open_entries(|_| true)
    }

    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, MinBftMsg>) {
        self.core.log.reinstall(seq, digest, batch);
        self.send_commit(seq, digest, ctx);
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        requeue_unexecuted(&mut self.mempool, &self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        self.propose(ctx);
    }
}

impl Actor<MinBftMsg> for MinBftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, MinBftMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &MinBftMsg, ctx: &mut Context<'_, MinBftMsg>) {
        match msg {
            MinBftMsg::Request(signed) => {
                let view = self.core.gate.view();
                let answer = reply_to_client(None, MinBftMsg::Reply);
                if !Intake::admit(ctx, &self.store, &self.core.exec, signed, view, answer) {
                    return;
                }
                enqueue_unique(&mut self.mempool, signed);
                if self.core.is_leader() {
                    self.propose(ctx);
                } else {
                    let may_arm = !self.core.gate.in_view_change();
                    self.core.intake.relay(
                        ctx,
                        signed,
                        self.core.leader(),
                        MinBftMsg::Request,
                        may_arm,
                    );
                }
            }
            MinBftMsg::Prepare {
                view,
                seq,
                ui,
                batch,
            } => {
                let (view, seq, ui) = (*view, *seq, *ui);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.core.leader()) || ui.replica != self.core.leader() {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify); // UI attestation check
                ctx.charge_crypto(CryptoOp::Hash);
                let digest = digest_of(batch);
                if ui.digest != digest {
                    return; // attestation does not match the payload
                }
                // continuity: the trusted counter must advance one by one —
                // gaps reveal suppressed messages, replays reveal forks
                if !self.verifier.accept(&ui) {
                    return; // replayed or rolled-back counter: attack
                }
                let ids: Vec<RequestId> = batch.iter().map(|r| r.request.id).collect();
                self.mempool.retain(|r| !ids.contains(&r.request.id));
                if self.core.log.install(seq, digest, batch.clone()) {
                    self.send_commit(seq, digest, ctx);
                }
            }
            MinBftMsg::Commit {
                view,
                seq,
                digest,
                ui,
                from: r,
            } => {
                let (view, seq, digest, ui, r) = (*view, *seq, *digest, *ui, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if ui.replica != r || ui.digest != digest {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                self.record_commit(r, seq, digest, ctx);
            }
            MinBftMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            MinBftMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, MinBftMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// MinBFT client hooks: f+1 matching replies.
pub struct MinBftClientProto;

impl ClientProtocol for MinBftClientProto {
    type Msg = MinBftMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> MinBftMsg {
        MinBftMsg::Request(req)
    }

    fn unwrap_reply(msg: &MinBftMsg) -> Option<&Reply> {
        match msg {
            MinBftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run MinBFT under a scenario (n = 2f+1).
pub fn run(scenario: &Scenario) -> RunOutcome {
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    launch::<MinBftClientProto, _>(scenario, scenario.n(2 * scenario.f + 1), |me, q, store| {
        MinBftReplica::new(me, q, store, view_timeout, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::SafetyAuditor;

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn three_replicas_tolerate_one_fault_budget() {
        // n = 2f+1 = 3: the headline property of trusted hardware
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert_eq!(
            out.metrics.nodes().filter(|(n, _)| n.is_replica()).count(),
            3
        );
    }

    #[test]
    fn usig_counters_are_sequential() {
        let mut usig = Usig::new(ReplicaId(0));
        let a = usig.create_ui(Digest([1; 32]));
        let b = usig.create_ui(Digest([2; 32]));
        assert_eq!(a.counter, 1);
        assert_eq!(b.counter, 2);
        let mut v = UiVerifier::default();
        assert!(v.accept(&a));
        assert!(v.accept(&b));
        // replays rejected — the anti-equivocation core
        assert!(!v.accept(&a));
        assert!(!v.accept(&b));
        // out-of-order arrival of a fresh attestation is accepted (the
        // network is not FIFO), but replaying it afterwards is not
        let mut v2 = UiVerifier::default();
        assert!(v2.accept(&b));
        assert!(
            v2.accept(&a),
            "late lower counter is still a valid attestation"
        );
        assert!(!v2.accept(&a), "…but only once");
    }

    #[test]
    fn leader_crash_view_change() {
        use bft_sim::{FaultPlan, SimTime};
        let s = Scenario::small(1)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 15, "f+1 = 2 of 3 replicas continue");
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
