//! PoE — Proof-of-Execution (Gupta et al. '21): speculative phase
//! reduction (design choice 7).
//!
//! Like SBFT, PoE is collector-based and linear; unlike SBFT's fast path it
//! does **not** wait for all `n` shares. The collector certifies a proposal
//! with only `2f+1` support shares and replicas **execute speculatively**
//! on the certificate, optimistically assuming either all signers were
//! correct or at least `f+1` correct replicas saw the certificate. Clients
//! wait for `2f+1` matching (speculative) replies.
//!
//! The gamble can fail: if fewer than `f+1` correct replicas received the
//! certificate and none of them makes it into the view-change quorum, the
//! new view re-proposes a *different* assignment for that sequence number —
//! replicas that executed the dead assignment **roll back** (the undo-log
//! machinery of `bft-state`) and re-execute. The Byzantine leader variant
//! [`PoeBehavior::WithholdCertify`] manufactures exactly this scenario, and
//! the tests assert both the rollback and the preserved cross-replica
//! safety.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    BatchEntry, Core, Execution, RequestWire, Scenario, SignedRequest, Tally, ViewChanger, ViewMsg,
};

/// PoE messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum PoeMsg {
    /// Client → leader.
    Request(SignedRequest),
    /// Replica → client (speculative).
    Reply(Reply),
    /// Leader → replicas.
    Propose {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// Replica → collector: support share.
    Support {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Signer.
        from: ReplicaId,
    },
    /// Collector → replicas: 2f+1-share certificate — execute
    /// speculatively.
    Certify {
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Shares combined (≥ 2f+1).
        shares: usize,
    },
    /// View change: votes carry every certified slot; the new-view message
    /// the gap-free assignment sequence.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for PoeMsg {
    fn wire_size(&self) -> usize {
        match self {
            PoeMsg::Request(r) => 1 + r.wire_size(),
            PoeMsg::Reply(r) => 1 + r.wire_size(),
            PoeMsg::Propose { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 72,
            PoeMsg::Support { .. } => 1 + 16 + 32 + 4 + 72,
            PoeMsg::Certify { .. } => 1 + 16 + 32 + 96,
            PoeMsg::View(m) => m.wire_size(72, WireSize::wire_size),
        }
    }
}

/// Byzantine leader behaviors for PoE experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoeBehavior {
    /// Follows the protocol.
    Honest,
    /// When certifying the slot with this sequence number, send the
    /// certificate to a single replica only, then fall silent — the
    /// rollback-manufacturing adversary.
    WithholdCertify {
        /// The victimized slot.
        seq: u64,
        /// The only replica that receives the certificate.
        sole_recipient: ReplicaId,
    },
}

/// A PoE replica. A slot's agreement state is the leader's tally of
/// support shares; a certified slot is the log's `committed`, and
/// executing it is PoE's speculative commit.
pub struct PoeReplica {
    core: Core<PoeMsg, Tally, Vec<SignedRequest>>,
    behavior: PoeBehavior,
    known: BTreeMap<RequestId, SignedRequest>,
    batch_size: usize,
    silenced: bool,
}

impl PoeReplica {
    /// Create a replica with its [`Scenario::timing`].
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        behavior: PoeBehavior,
        timing: (SimDuration, u64),
        batch_size: usize,
    ) -> Self {
        let exec = Execution::new().speculative();
        PoeReplica {
            core: Core::new((me, q, store), PoeMsg::View, exec, timing, batch_size),
            behavior,
            known: BTreeMap::new(),
            batch_size,
            silenced: false,
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() || self.silenced {
            return;
        }
        self.core.drop_ordered();
        while let Some((seq, digest, batch)) = self.core.cut(ctx) {
            ctx.charge_crypto(CryptoOp::Sign);
            let view = self.core.gate.view();
            self.core.log.install(seq, digest, batch.clone());
            ctx.broadcast_replicas(PoeMsg::Propose {
                view,
                seq,
                digest,
                batch,
            });
            ctx.charge_crypto(CryptoOp::ThresholdShareGen);
            self.record_support(self.core.me, seq, digest, ctx);
        }
    }

    fn record_support(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, PoeMsg>,
    ) {
        if !self.core.is_leader() || self.silenced {
            return;
        }
        let (quorum, view, behavior) = (self.core.q.quorum(), self.core.gate.view(), self.behavior);
        let slot = self.core.log.slot(seq);
        if slot.committed {
            return;
        }
        if let Some(digest) = slot.ext.vote(from, digest, slot.digest, quorum) {
            slot.committed = true;
            ctx.charge_crypto(CryptoOp::ThresholdCombine);
            let shares = slot.ext.count(digest);
            match behavior {
                PoeBehavior::WithholdCertify {
                    seq: trigger,
                    sole_recipient,
                } if seq.0 == trigger => {
                    // adversary: one replica gets the certificate, then
                    // silence — engineering the rollback scenario
                    ctx.observe(Observation::Marker {
                        label: "withheld-certify",
                    });
                    ctx.send(
                        NodeId::Replica(sole_recipient),
                        PoeMsg::Certify {
                            view,
                            seq,
                            digest,
                            shares,
                        },
                    );
                    self.silenced = true;
                }
                _ => {
                    ctx.broadcast_replicas(PoeMsg::Certify {
                        view,
                        seq,
                        digest,
                        shares,
                    });
                    self.on_certify(seq, digest, ctx);
                }
            }
        }
    }

    fn on_certify(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Context<'_, PoeMsg>) {
        let slot = self.core.log.slot(seq);
        slot.digest.get_or_insert(digest);
        slot.committed = true;
        self.execute(ctx);
    }
}

/// View change with rollback.
impl ViewChanger for PoeReplica {
    type Msg = PoeMsg;
    type Ext = Tally;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<PoeMsg, Tally, Vec<SignedRequest>> {
        &mut self.core
    }

    /// Every certified slot above the stable checkpoint, executed or not:
    /// what this replica executed speculatively only survives if a quorum
    /// vouches for it.
    fn report(&mut self, _: &mut Context<'_, PoeMsg>) -> Vec<BatchEntry> {
        let stable = self.core.ckpt.low_water();
        self.core.log.entries_above(stable, |s| s.committed)
    }

    /// The union of certified entries above the highest stable checkpoint
    /// reported, then fresh slots for the known requests none of them
    /// covers and that did not execute here at or below that checkpoint,
    /// compacted so the sequence is gap-free from the checkpoint on.
    fn assemble(&mut self, target: View) -> Vec<BatchEntry> {
        let stable = self.core.votes.stable(target);
        let union = self.core.votes.first_seen_union(target).into_iter();
        let mut assignments: Vec<(Digest, Vec<SignedRequest>)> = union
            .filter(|(seq, ..)| *seq > stable)
            .map(|(_, d, b)| (d, b))
            .collect();
        let covered: Vec<RequestId> = assignments
            .iter()
            .flat_map(|(_, b)| b.iter().map(|r| r.request.id))
            .collect();
        let open: Vec<RequestId> = self.core.log.in_flight(stable).collect();
        let settled = |id| self.core.exec.is_executed(id) && !open.contains(id);
        let uncovered: Vec<SignedRequest> = self
            .known
            .values()
            .filter(|r| !covered.contains(&r.request.id) && !settled(&r.request.id))
            .cloned()
            .collect();
        for chunk in uncovered.chunks(self.batch_size.max(1)) {
            let batch = chunk.to_vec();
            assignments.push((digest_of(&batch), batch));
        }
        let numbered = assignments.into_iter().enumerate();
        numbered
            .map(|(i, (d, b))| (SeqNum(stable.0 + i as u64 + 1), d, b))
            .collect()
    }

    /// The new-view quorum carries the certificate: an adopted slot is
    /// executable at once.
    fn adopt(&mut self, (seq, digest, batch): BatchEntry, _: &mut Context<'_, PoeMsg>) {
        for r in &batch {
            let known = self.known.entry(r.request.id);
            known.or_insert_with(|| r.clone());
        }
        self.core.log.reinstall(seq, digest, batch).committed = true;
    }

    /// Nothing is stranded: the assignment sequence is gap-free and every
    /// known request is in it.
    fn requeue(&mut self, _: Vec<SignedRequest>) {}

    fn resume(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        self.propose(ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        // a certified slot whose proposal is still in flight stops the loop
        // (the Propose handler re-enters here)
        self.core
            .execute_ready(ctx, CryptoOp::MacGen, PoeMsg::Reply);
    }

    fn forget(&mut self, amnesia: bool) {
        if amnesia {
            self.known = BTreeMap::new();
        }
    }
}

impl Actor<PoeMsg> for PoeReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PoeMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, PoeMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &PoeMsg, ctx: &mut Context<'_, PoeMsg>) {
        match msg {
            PoeMsg::Request(signed) => {
                let wire: RequestWire<PoeMsg> =
                    (Some(|r, _| PoeMsg::Reply(r)), Some(PoeMsg::Request));
                if self.core.take_request(ctx, signed, wire) {
                    self.known.insert(signed.request.id, signed.clone());
                    self.propose(ctx);
                }
            }
            PoeMsg::Propose {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.admit_proposal(ctx, (from, view, msg), (seq, digest), batch) {
                    return;
                }
                for r in batch.iter() {
                    self.known.entry(r.request.id).or_insert_with(|| r.clone());
                }
                self.core.mempool.remove(batch);
                if !self.core.log.install(seq, digest, batch.clone()) {
                    return;
                }
                if self.core.log.slot(seq).committed {
                    // late proposal for a slot whose certificate already
                    // arrived: the batch is in place, execution can resume
                    self.execute(ctx);
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdShareGen);
                let leader = self.core.leader();
                let me = self.core.me;
                ctx.send(
                    NodeId::Replica(leader),
                    PoeMsg::Support {
                        view,
                        seq,
                        digest,
                        from: me,
                    },
                );
            }
            PoeMsg::Support {
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
                self.record_support(r, seq, digest, ctx);
            }
            PoeMsg::Certify {
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
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.on_certify(seq, digest, ctx);
            }
            PoeMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            PoeMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, PoeMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// PoE client hooks: 2f+1 matching speculative replies.
pub struct PoeClientProto;

impl ClientProtocol for PoeClientProto {
    type Msg = PoeMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> PoeMsg {
        PoeMsg::Request(req)
    }

    fn unwrap_reply(msg: &PoeMsg) -> Option<&Reply> {
        match msg {
            PoeMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn reply_quorum(q: &QuorumRules) -> usize {
        q.quorum() // 2f+1
    }
}

/// Run PoE under a scenario.
pub fn run(scenario: &Scenario, behaviors: &[(ReplicaId, PoeBehavior)]) -> RunOutcome {
    let timing = scenario.timing();
    launch::<PoeClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let behavior = behaviors
            .iter()
            .find(|(r, _)| *r == me)
            .map_or(PoeBehavior::Honest, |(_, b)| *b);
        PoeReplica::new(me, q, store, behavior, timing, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    #[test]
    fn fault_free_speculative_commits() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s, &[]);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
        let spec = out.log.count(|e| {
            matches!(
                e.obs,
                Observation::Commit {
                    speculative: true,
                    ..
                }
            )
        });
        assert!(spec >= 30 * 4 - 8, "replicas commit speculatively");
        assert_eq!(
            out.log
                .count(|e| matches!(e.obs, Observation::Rollback { .. })),
            0
        );
    }

    #[test]
    fn leader_crash_recovers() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));
        let out = run(&s, &[]);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn withheld_certificate_causes_rollback_but_stays_safe() {
        // n = 7 (f = 2). The Byzantine leader certifies slot 3 to replica 1
        // only, then goes silent. Replica 1 executes speculatively; the view
        // change may proceed without replica 1's certificate (we partition
        // it briefly), so the new view assigns slot 3 differently — replica
        // 1 must roll back. Safety must hold throughout.
        let peers: Vec<NodeId> = [0u32, 2, 3, 4, 5, 6]
            .iter()
            .map(|i| NodeId::replica(*i))
            .collect();
        let s = Scenario::small(2)
            .with_load(2, 10)
            .with_faults(FaultPlan::none().isolate(
                NodeId::replica(1),
                peers,
                SimTime(1_000_000),
                SimTime(120_000_000),
            ));
        let out = run(
            &s,
            &[(
                ReplicaId(0),
                PoeBehavior::WithholdCertify {
                    seq: 3,
                    sole_recipient: ReplicaId(1),
                },
            )],
        );
        // replica 0 is Byzantine; replica 1's speculative execution is the
        // one under test and it must reconcile (rollback) — the auditor
        // treats it as correct
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        assert!(out.log.marker_count("withheld-certify") >= 1);
        assert_eq!(accepted(&out), 20, "liveness despite the attack");
    }

    /// Regression for the certificate-outruns-its-proposal escape: with the
    /// leader's traffic strategically held, a `Certify` overtakes the
    /// `Propose` it certifies. Executing the empty placeholder slot used to
    /// skip the slot's requests and diverge honest state (the campaign's
    /// `DivergentState` at these seeds); the slot now waits for its batch.
    #[test]
    fn certificate_outrunning_its_proposal_cannot_skip_the_slot() {
        use crate::registry::ProtocolId;
        use crate::suite::semantic_config;
        use bft_sim::campaign::check_outcome_with_semantics;
        use bft_sim::{AdversarySpec, Attack};

        for (hold_us, prob, seed) in [
            (22_259u64, 0.71, 7u64),
            (21_165, 0.56, 13),
            (10_240, 0.60, 20),
            (30_570, 0.58, 55),
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
            let out = run(&s, &[]);
            let semantic = semantic_config(ProtocolId::Poe, &s);
            let violation =
                check_outcome_with_semantics(&out.log, vec![NodeId::replica(0)], 8, &semantic);
            assert_eq!(
                violation, None,
                "seed {seed}: a held proposal must delay its slot, not empty it"
            );
        }
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s, &[]);
        let b = run(&s, &[]);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
