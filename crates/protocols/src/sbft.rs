//! SBFT — a scalable, collector-based BFT protocol (Gueta et al. '19).
//!
//! The outcome of design choices 1 and 6 applied to PBFT:
//!
//! * **Linearization (DC1)** — every all-to-all phase is replaced by two
//!   linear phases around a *collector* (the leader): replicas send
//!   threshold-signature *shares* to the collector, which combines them
//!   into one constant-size certificate and broadcasts it. Message
//!   complexity per phase drops from O(n²) to O(n).
//! * **Optimistic phase reduction (DC6)** — the collector optimistically
//!   waits (timer τ3) for shares from **all** `n` replicas. If they all
//!   arrive, a single certificate proves that *every* replica accepted the
//!   proposal, so the second agreement round is unnecessary — replicas
//!   commit on receipt (*fast path*). If τ3 fires with only `2f+1` shares,
//!   SBFT falls back to the *slow path*: a PBFT-equivalent second round
//!   (two more linear phases).
//! * **Single-reply clients (P6)** — replicas send execution shares to the
//!   collector, which hands the client one threshold-signed reply; the
//!   client needs no reply quorum at all.
//!
//! View changes follow the PBFT pattern (signed view-change messages carry
//! the shares each replica produced, so any certified-but-undelivered
//! decision is re-proposed).

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    launch, BatchEntry, ClientProtocol, Core, Execution, Intake, Scenario, SignedRequest,
    SubmitPolicy, ViewChanger, ViewMsg,
};

/// SBFT protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum SbftMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Collector → client: single threshold-backed reply.
    Reply(Reply),
    /// Leader → replicas: proposal.
    PrePrepare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
    },
    /// Replica → collector: threshold share over the proposal.
    SignShare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest signed.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas, fast path: certificate carrying all `n`
    /// shares — commit directly.
    FullCommitProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Number of shares combined (n on the fast path).
        shares: usize,
    },
    /// Collector → replicas, slow path: certificate with 2f+1 shares —
    /// equivalent to "prepared"; a second round follows.
    CommitProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Shares combined (≥ 2f+1).
        shares: usize,
    },
    /// Replica → collector, slow path second round.
    CommitShare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas, slow path: final commit certificate.
    FullExecuteProof {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
    },
    /// Replica → collector: execution share (state digest attestation).
    ExecShare {
        /// Sequence number executed.
        seq: SeqNum,
        /// Request executed (per request in the batch).
        request: RequestId,
        /// Post-state digest.
        state_digest: Digest,
        /// The reply content (the collector forwards one).
        reply: Reply,
        /// Signer.
        from: ReplicaId,
    },
    /// View change: votes carry the signed-but-unexecuted slots.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for SbftMsg {
    fn wire_size(&self) -> usize {
        use bft_crypto::threshold::ThresholdSig;
        match self {
            SbftMsg::Request(r) => 1 + r.wire_size(),
            SbftMsg::Reply(r) => 1 + r.wire_size() + ThresholdSig::WIRE_SIZE,
            SbftMsg::PrePrepare { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 64,
            SbftMsg::SignShare { .. } | SbftMsg::CommitShare { .. } => 1 + 16 + 32 + 4 + 72,
            SbftMsg::FullCommitProof { .. }
            | SbftMsg::CommitProof { .. }
            | SbftMsg::FullExecuteProof { .. } => 1 + 16 + 32 + ThresholdSig::WIRE_SIZE,
            SbftMsg::ExecShare { reply, .. } => 1 + 8 + 16 + 32 + reply.wire_size() + 72,
            SbftMsg::View(m) => m.wire_size(72, WireSize::wire_size),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SbftSlot {
    /// First-round shares (collector only).
    shares: Vec<ReplicaId>,
    /// Second-round shares (collector only, slow path).
    commit_shares: Vec<ReplicaId>,
    /// This replica produced a first-round share.
    signed: bool,
    /// Slow-path state: prepared via CommitProof.
    prepared: bool,
    /// Collector: τ3 timer for the fast path.
    t3: Option<TimerId>,
    /// Collector already certified (fast or slow).
    certified: bool,
}

/// The collector's side of threshold replies.
#[derive(Debug, Default)]
struct ThresholdReplies {
    /// Exec shares per (seq, request).
    shares: BTreeMap<(SeqNum, RequestId), (Vec<ReplicaId>, Option<Reply>)>,
    /// Threshold replies already combined from `weak` exec shares — the
    /// only replies a client may be handed (a bare cached result from one
    /// replica must never stand in for one; the client accepts a single
    /// signature only because it is threshold-backed by f+1 executions).
    combined: BTreeMap<RequestId, Reply>,
}

impl ThresholdReplies {
    /// Record `from`'s execution share; at `weak` (f+1) matching shares
    /// combine them and send the client its ONE reply.
    fn record(
        &mut self,
        weak: usize,
        from: ReplicaId,
        seq: SeqNum,
        reply: Reply,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        let request = reply.request;
        let entry = self.shares.entry((seq, request)).or_default();
        if !entry.0.contains(&from) {
            entry.0.push(from);
        }
        let reply = entry.1.get_or_insert(reply).clone();
        if entry.0.len() >= weak && !self.combined.contains_key(&request) {
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            self.combined.insert(request, reply.clone());
            ctx.send(NodeId::Client(request.client), SbftMsg::Reply(reply));
        }
    }
}

/// An SBFT replica (the leader doubles as the collector).
pub struct SbftReplica {
    core: Core<SbftMsg, SbftSlot, Vec<SignedRequest>>,
    store: Arc<KeyStore>,
    /// Requests seen and not yet executed: what a leader proposes from.
    known: BTreeMap<RequestId, SignedRequest>,
    replies: ThresholdReplies,
    /// τ3 duration: how long the collector waits for the full share set.
    t3_timeout: SimDuration,
    batch_size: usize,
}

impl SbftReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        t3_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        SbftReplica {
            core: Core::new(me, q, view_timeout, Execution::new()),
            store,
            known: BTreeMap::new(),
            replies: ThresholdReplies::default(),
            t3_timeout,
            batch_size,
        }
    }

    fn propose_known(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        let cursor = self.core.exec.cursor();
        let in_slots: Vec<RequestId> = self.core.log.in_flight(cursor).collect();
        let todo: Vec<SignedRequest> = self
            .known
            .values()
            .filter(|r| {
                !self.core.exec.is_executed(&r.request.id) && !in_slots.contains(&r.request.id)
            })
            .cloned()
            .collect();
        for chunk in todo.chunks(self.batch_size.max(1)) {
            let batch = chunk.to_vec();
            let seq = self.core.next_seq;
            self.core.next_seq = self.core.next_seq.next();
            let digest = digest_of(&batch);
            ctx.charge_crypto(CryptoOp::Hash);
            ctx.charge_crypto(CryptoOp::Sign);
            let view = self.core.gate.view();
            self.core.log.install(seq, digest, batch.clone());
            ctx.broadcast_replicas(SbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            });
            // the collector contributes its own share and starts τ3
            self.sign_slot(seq, digest, ctx);
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.core.log.slot(seq).ext.t3 = Some(t3);
            self.record_share(self.core.me, seq, digest, ctx);
        }
    }

    fn sign_slot(&mut self, seq: SeqNum, _digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let slot = &mut self.core.log.slot(seq).ext;
        if !slot.signed {
            slot.signed = true;
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        }
    }

    fn record_share(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        if !self.core.is_leader() {
            return;
        }
        let n = self.core.q.n;
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.digest != Some(digest) || slot.ext.certified {
            return;
        }
        let slot = &mut slot.ext;
        if !slot.shares.contains(&from) {
            slot.shares.push(from);
        }
        if slot.shares.len() >= n {
            // fast path: every replica signed — a single certificate proves
            // universal acceptance, no second round needed (DC6)
            slot.certified = true;
            if let Some(t) = slot.t3.take() {
                ctx.cancel_timer(t);
            }
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.observe(Observation::Marker { label: "fast-path" });
            ctx.broadcast_replicas(SbftMsg::FullCommitProof {
                view,
                seq,
                digest,
                shares: n,
            });
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn on_t3(&mut self, seq: SeqNum, ctx: &mut Context<'_, SbftMsg>) {
        // fast path failed: fall back to the slow (two extra linear phases)
        let view = self.core.gate.view();
        let quorum = self.core.q.quorum();
        let slot = self.core.log.slot(seq);
        let Some(digest) = slot.digest.filter(|_| !slot.ext.certified) else {
            return;
        };
        let slot = &mut slot.ext;
        slot.t3 = None;
        if slot.shares.len() >= quorum {
            slot.certified = true;
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.observe(Observation::Marker { label: "slow-path" });
            ctx.broadcast_replicas(SbftMsg::CommitProof {
                view,
                seq,
                digest,
                shares: slot.shares.len(),
            });
            // the collector participates in round 2 as well
            self.on_commit_proof(seq, digest, ctx);
        } else {
            // not even a quorum of shares: keep waiting; τ2-equivalent view
            // change pressure comes from clients re-broadcasting
            slot.t3 = Some(ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout));
        }
    }

    fn on_commit_proof(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let view = self.core.gate.view();
        let me = self.core.me;
        let leader = self.core.leader();
        let slot = self.core.log.slot(seq);
        if slot.committed {
            return;
        }
        slot.ext.prepared = true;
        ctx.charge_crypto(CryptoOp::ThresholdVerify);
        ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        if me == leader {
            self.record_commit_share(me, seq, digest, ctx);
        } else {
            ctx.send(
                NodeId::Replica(leader),
                SbftMsg::CommitShare {
                    view,
                    seq,
                    digest,
                    from: me,
                },
            );
        }
    }

    fn record_commit_share(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, SbftMsg>,
    ) {
        if !self.core.is_leader() {
            return;
        }
        let quorum = self.core.q.quorum();
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.digest != Some(digest) || slot.committed {
            return;
        }
        if !slot.ext.commit_shares.contains(&from) {
            slot.ext.commit_shares.push(from);
        }
        if slot.ext.commit_shares.len() >= quorum {
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            ctx.broadcast_replicas(SbftMsg::FullExecuteProof { view, seq, digest });
            self.commit_slot(seq, digest, ctx);
        }
    }

    fn commit_slot(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, SbftMsg>) {
        let view = self.core.gate.view();
        let slot = self.core.log.slot(seq);
        if slot.committed {
            return;
        }
        if slot.digest.is_none() {
            // certificate outran the pre-prepare (delayed/reordered
            // leader traffic): adopt the certified digest; the batch
            // arrives with the late pre-prepare and execution waits for it
            slot.digest = Some(digest);
        } else if slot.digest != Some(digest) {
            return;
        }
        slot.committed = true;
        ctx.observe(Observation::Commit {
            seq,
            view,
            digest,
            speculative: false,
        });
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        let (me, leader, weak) = (self.core.me, self.core.leader(), self.core.q.weak());
        let (replies, intake) = (&mut self.replies, &mut self.core.intake);
        let known = &mut self.known;
        // the slot being executed: exec shares are per (slot, request)
        let slot = std::cell::Cell::new(self.core.exec.cursor().next());
        // execution share to the collector (threshold reply)
        let share = |ctx: &mut Context<'_, SbftMsg>, reply: Reply, _| {
            known.remove(&reply.request);
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
            if me == leader {
                replies.record(weak, me, slot.get(), reply, ctx);
            } else {
                ctx.send(
                    NodeId::Replica(leader),
                    SbftMsg::ExecShare {
                        seq: slot.get(),
                        request: reply.request,
                        state_digest: reply.state_digest,
                        reply,
                        from: me,
                    },
                );
            }
        };
        // a slot whose certificate outran its pre-prepare stops the loop;
        // the late pre-prepare re-enters here once it fills the batch in
        self.core.exec.drain(
            ctx,
            &mut self.core.log,
            self.core.gate.view(),
            share,
            |ctx, exec, _, _| {
                slot.set(exec.cursor().next());
                intake.settle(ctx, exec);
            },
        );
    }

    /// A retransmission of an executed request: only the combined threshold
    /// reply may answer it — a bare cached result from a single replica
    /// would let one (possibly compromised-wire) node vouch for a write no
    /// honest quorum has executed.
    fn answer_retransmission(&mut self, id: RequestId, ctx: &mut Context<'_, SbftMsg>) {
        if let Some(reply) = self.replies.combined.get(&id).cloned() {
            ctx.send(NodeId::Client(id.client), SbftMsg::Reply(reply));
        } else if !self.core.is_leader() {
            // re-send our exec share so the collector can (re-)combine the
            // threshold reply
            let executed = self.core.log.range(..=self.core.exec.cursor());
            let seq = executed
                .filter(|(_, s)| s.batch.iter().flatten().any(|r| r.request.id == id))
                .map(|(seq, _)| *seq)
                .next();
            let reply = self.core.exec.cached_reply(id, self.core.gate.view());
            if let (Some(seq), Some(reply)) = (seq, reply) {
                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                ctx.send(
                    NodeId::Replica(self.core.leader()),
                    SbftMsg::ExecShare {
                        seq,
                        request: id,
                        state_digest: reply.state_digest,
                        reply,
                        from: self.core.me,
                    },
                );
            }
        }
    }
}

/// View change, PBFT-pattern over signatures.
impl ViewChanger for SbftReplica {
    type Msg = SbftMsg;
    type Ext = SbftSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<SbftMsg, SbftSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    fn wire(msg: ViewMsg<Vec<SignedRequest>>) -> SbftMsg {
        SbftMsg::View(msg)
    }

    /// The slots this replica produced a share for: any of them may have
    /// been certified without this replica hearing of it.
    fn report(&mut self, _: &mut Context<'_, SbftMsg>) -> Vec<BatchEntry> {
        self.core.open_entries(|s| s.ext.signed)
    }

    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, SbftMsg>) {
        self.core.log.reinstall(seq, digest, batch);
        self.sign_slot(seq, digest, ctx);
        let (from, leader) = (self.core.me, self.core.leader());
        if from == leader {
            let t3 = ctx.set_timer(TimerKind::T3BackupFailure, self.t3_timeout);
            self.core.log.slot(seq).ext.t3 = Some(t3);
            self.record_share(from, seq, digest, ctx);
        } else {
            let view = self.core.gate.view();
            let share = SbftMsg::SignShare {
                view,
                seq,
                digest,
                from,
            };
            ctx.send(NodeId::Replica(leader), share);
        }
    }

    /// Stranded requests go back to the known set the next leader proposes
    /// from.
    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        for r in stranded {
            self.known.entry(r.request.id).or_insert(r);
        }
    }

    fn resume(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        self.propose_known(ctx);
    }
}

impl Actor<SbftMsg> for SbftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &SbftMsg, ctx: &mut Context<'_, SbftMsg>) {
        match msg {
            SbftMsg::Request(signed) => {
                if !Intake::verify(ctx, &self.store, signed) {
                    return;
                }
                if self.core.exec.is_executed(&signed.request.id) {
                    self.answer_retransmission(signed.request.id, ctx);
                    return;
                }
                self.known.insert(signed.request.id, signed.clone());
                if self.core.is_leader() {
                    self.propose_known(ctx);
                } else {
                    let may_arm = !self.core.gate.in_view_change();
                    self.core.intake.relay(
                        ctx,
                        signed,
                        self.core.leader(),
                        SbftMsg::Request,
                        may_arm,
                    );
                }
            }
            SbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.core.leader()) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != digest {
                    return;
                }
                if !self.core.log.install(seq, digest, batch.clone()) {
                    return;
                }
                if self.core.log.slot(seq).committed {
                    // late pre-prepare for a slot whose certificate already
                    // arrived: the batch is in place, execution can resume
                    self.try_execute(ctx);
                    return;
                }
                self.sign_slot(seq, digest, ctx);
                let leader = self.core.leader();
                let me = self.core.me;
                ctx.send(
                    NodeId::Replica(leader),
                    SbftMsg::SignShare {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
            SbftMsg::SignShare {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                self.record_share(r, seq, digest, ctx);
            }
            SbftMsg::FullCommitProof {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if shares < self.core.q.n {
                    return; // not a valid fast-path certificate
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.commit_slot(seq, digest, ctx);
            }
            SbftMsg::CommitProof {
                view,
                seq,
                digest,
                shares,
            } => {
                let (view, seq, digest, shares) = (*view, *seq, *digest, *shares);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if shares < self.core.q.quorum() {
                    return;
                }
                self.on_commit_proof(seq, digest, ctx);
            }
            SbftMsg::CommitShare {
                view,
                seq,
                digest,
                from: r,
            } => {
                let (view, seq, digest, r) = (*view, *seq, *digest, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                self.record_commit_share(r, seq, digest, ctx);
            }
            SbftMsg::FullExecuteProof { view, seq, digest } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.commit_slot(seq, digest, ctx);
            }
            SbftMsg::ExecShare {
                seq,
                reply,
                from: r,
                ..
            } => {
                if self.core.is_leader() {
                    ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
                    self.replies
                        .record(self.core.q.weak(), *r, *seq, reply.clone(), ctx);
                }
            }
            SbftMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            SbftMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, SbftMsg>) {
        match kind {
            TimerKind::T3BackupFailure => {
                // the slot owning this timer is uncertified, so above the cursor
                let mut open = self.core.log.range(self.core.exec.cursor().next()..);
                let owner = open.find(|(_, s)| s.ext.t3 == Some(id));
                if let Some(seq) = owner.map(|(seq, _)| *seq) {
                    self.on_t3(seq, ctx);
                }
            }
            _ => {
                self.on_view_timer(id, ctx);
            }
        }
    }
}

/// SBFT's client hooks: single verifiable reply from the collector.
pub struct SbftClientProto;

impl ClientProtocol for SbftClientProto {
    type Msg = SbftMsg;
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> SbftMsg {
        SbftMsg::Request(req)
    }

    fn unwrap_reply(msg: &SbftMsg) -> Option<&Reply> {
        match msg {
            SbftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn reply_quorum(_q: &QuorumRules) -> usize {
        1 // the reply carries a threshold signature
    }
}

/// Run SBFT under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    let t3 = SimDuration(scenario.network.delta.0 / 2);
    launch::<SbftClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        SbftReplica::new(me, q, store, view_timeout, t3, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, PbftOptions};
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    /// `known` is what every proposal scans: it must hold the requests not
    /// yet executed, not all 300 the run saw.
    #[test]
    fn known_holds_only_requests_not_yet_executed() {
        use crate::common::script::peak_size;
        let s = Scenario::small(1).with_load(2, 150);
        let delta = s.network.delta.0;
        let (out, peak) = peak_size::<SbftClientProto, _>(
            &s,
            4,
            |me, q, store| {
                SbftReplica::new(
                    me,
                    q,
                    store,
                    SimDuration(delta * 4),
                    SimDuration(delta / 2),
                    1,
                )
            },
            |r| r.known.len(),
        );
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 2, "known grew to {peak} requests with 2 clients");
    }

    #[test]
    fn fault_free_uses_fast_path() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        assert!(out.log.marker_count("fast-path") >= 30);
        assert_eq!(out.log.marker_count("slow-path"), 0);
    }

    #[test]
    fn backup_crash_forces_slow_path() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
        assert!(
            out.log.marker_count("slow-path") >= 20,
            "τ3 must fire per slot"
        );
        assert_eq!(out.log.marker_count("fast-path"), 0);
    }

    #[test]
    fn leader_crash_recovers_via_view_change() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= bft_types::View(1));
        assert_eq!(accepted(&out), 20);
    }

    /// Regression: with the leaders of views 0 *and* 1 down, the campaign
    /// for view 1 can never produce a new-view message. SBFT used to refuse
    /// to start a view change while one was in progress and its τ2 only
    /// ever aimed at `view + 1`, so every replica sat in that campaign for
    /// good; the shared escalation rule moves them on to view 2.
    #[test]
    fn silent_new_leader_is_voted_out() {
        let down = vec![NodeId::replica(0), NodeId::replica(1)];
        let faults = down.iter().fold(FaultPlan::none(), |plan, node| {
            plan.crash(*node, SimTime::ZERO)
        });
        let s = Scenario::small(2).with_load(1, 10).with_faults(faults);
        let out = run(&s);
        SafetyAuditor::excluding(down).assert_safe(&out.log);
        assert_eq!(out.log.max_view(), bft_types::View(2));
        assert_eq!(accepted(&out), 10);
    }

    #[test]
    fn linear_messaging_beats_pbft_quadratic_at_scale() {
        // with n = 13 (f = 4), SBFT's per-request message count must be
        // well below PBFT's O(n²)
        let s = Scenario::small(4).with_load(1, 20);
        let sbft_out = run(&s);
        let pbft_out = pbft::run(&s, &PbftOptions::default());
        SafetyAuditor::all_correct().assert_safe(&sbft_out.log);
        let per_req = |o: &RunOutcome| o.metrics.replica_msgs_sent() as f64 / 20.0;
        assert!(
            per_req(&sbft_out) < per_req(&pbft_out) / 2.0,
            "SBFT {} vs PBFT {} messages per request",
            per_req(&sbft_out),
            per_req(&pbft_out)
        );
    }

    #[test]
    fn client_accepts_single_reply() {
        let s = Scenario::small(1).with_load(1, 5);
        let out = run(&s);
        // each request produces exactly one reply message to the client
        let client_received = out.metrics.node(NodeId::client(0)).msgs_received;
        assert_eq!(
            client_received, 5,
            "collector sends exactly one reply per request"
        );
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }

    /// Regression: a strategic-delay adversary on the collector can make a
    /// commit certificate outrun its pre-prepare. The receiving replica
    /// used to commit the empty placeholder slot and "execute" it,
    /// silently skipping the slot's requests and desynchronizing its
    /// execution stream for good (DivergentState at campaign seeds 49/50);
    /// a bare cached reply could also vouch for a write no honest quorum
    /// had executed (lost write at seed 17). Both must stay fixed across
    /// the campaign's hold scales.
    #[test]
    fn delayed_collector_traffic_cannot_skip_or_fabricate_commits() {
        use crate::registry::ProtocolId;
        use crate::suite::semantic_config;
        use bft_sim::campaign::check_outcome_with_semantics;
        use bft_sim::{AdversarySpec, Attack};

        for (hold_us, prob, seed) in [
            (14_467u64, 0.59, 49u64),
            (23_930, 0.59, 50),
            (31_446, 0.71, 17),
        ] {
            let s = Scenario::small(1)
                .with_load(1, 8)
                .with_seed(seed)
                .with_adversaries(vec![AdversarySpec::new(
                    0,
                    Attack::Delay {
                        hold: SimDuration(hold_us * 1_000),
                        prob,
                    },
                )]);
            let out = run(&s);
            let semantic = semantic_config(ProtocolId::Sbft, &s);
            let violation =
                check_outcome_with_semantics(&out.log, vec![NodeId::replica(0)], 8, &semantic);
            assert_eq!(
                violation, None,
                "seed {seed}: delayed collector traffic must stay safe and live"
            );
        }
    }
}
