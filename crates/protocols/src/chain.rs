//! Chain — a pipelined BFT protocol (the Chain instance of Aublin et al.'s
//! "700 BFT protocols" Abstract framework): dimension **E2**'s chain
//! topology.
//!
//! Replicas form a pipeline `head → r1 → … → tail`. The head assigns
//! sequence numbers; each replica executes the batch and forwards it to its
//! successor, accumulating authentication as it goes; the **last f+1**
//! replicas reply to the client, whose f+1 matching replies prove at least
//! one correct replica vouches for the whole prefix. Per request the chain
//! moves only `n` messages — the cheapest fault-free message complexity of
//! any topology — at the price of `n` sequential hops of latency and an
//! optimistic assumption (a2: everyone participates; a6: timely links).
//!
//! The replica is a member of the replica skeleton (`Core`). A batch that
//! arrives from the replica's predecessor is committed and executes once
//! every earlier slot has; the forward follows its execution. Execution is
//! speculative, as a history is in Abstract until its instance commits:
//! the head executes a batch before any other replica holds it. The tail
//! observes the final commit, when every replica of the chain holds it.
//!
//! A stalled pipeline (τ2, or a backup seeing a retransmission of a
//! request it executed) runs the family's view change: votes report the
//! executed slots, the next replica in turn re-proposes per slot the batch
//! of the highest view, and every replica rolls back what that replaces.
//! The replicas whose votes the new head did not assemble are the view's
//! *suspects*, left out of its chain; its batches carry the list. This
//! models Abstract's switching (Chain → backup instance) without changing
//! protocol family.

use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    reply_to_client, Core, Entry, Execution, PbftCert, RequestWire, Scenario, SignedRequest, Slot,
    ViewChanger, ViewMsg,
};

/// Chain messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum ChainMsg {
    /// Client → head.
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// The pipelined batch: forwarded hop by hop with accumulated MACs.
    Chained {
        /// Configuration (view).
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The batch.
        batch: Vec<SignedRequest>,
        /// How many hops it has traveled (MAC accumulation count).
        hops: u32,
        /// The view's suspects, whom its chain leaves out (none in view 0).
        suspects: Vec<ReplicaId>,
    },
    /// The family's messages: the view change (votes report executed
    /// slots), checkpoints and state transfer.
    View(ViewMsg<PbftCert>),
}

impl WireSize for ChainMsg {
    fn wire_size(&self) -> usize {
        match self {
            ChainMsg::Request(r) => 1 + r.wire_size(),
            ChainMsg::Reply(r) => 1 + r.wire_size(),
            ChainMsg::Chained {
                batch,
                hops,
                suspects,
                ..
            } => {
                1 + 8 + 8 + 32 + batch.wire_size() + (*hops as usize + 1) * 32 + suspects.len() * 4
            }
            ChainMsg::View(m) => m.wire_size(64, PbftCert::wire_size),
        }
    }
}

/// Chain's agreement state for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChainSlot {
    /// The view its batch was installed in: what a view-change vote
    /// reports it with.
    view: View,
    /// The hops its batch traveled to get here; `None` for a re-proposal,
    /// which every replica takes from the new-view message (not forwarded).
    hops: Option<u32>,
}

/// A chain replica.
pub struct ChainReplica {
    core: Core<ChainMsg, ChainSlot, PbftCert>,
    /// The suspects of the view named, as its head assembled them or as
    /// its batches carry them; unknown for a later view until one arrives.
    suspects: (View, Vec<ReplicaId>),
}

impl ChainReplica {
    /// Create a replica with its [`Scenario::timing`].
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        timing: (SimDuration, u64),
        batch_size: usize,
    ) -> Self {
        let exec = Execution::new().speculative().skipping_executed();
        ChainReplica {
            core: Core::new((me, q, store), ChainMsg::View, exec, timing, batch_size),
            suspects: (View(0), Vec::new()),
        }
    }

    /// The chain of `view` without `suspects`: every other replica, in
    /// turn from the view's leader (its head).
    fn chain_of(&self, view: View, suspects: &[ReplicaId]) -> Vec<ReplicaId> {
        let n = self.core.q.n as u64;
        let turn = (view.0..view.0 + n).map(|v| View(v).leader_of(n as usize));
        turn.filter(|r| !suspects.contains(r)).collect()
    }

    /// The current view's chain, if this replica knows its suspects.
    fn chain(&self) -> Option<Vec<ReplicaId>> {
        let (view, suspects) = &self.suspects;
        (*view == self.core.gate.view()).then(|| self.chain_of(*view, suspects))
    }

    /// Whether this replica answers the clients: in the chain's last f+1
    /// (the reply suffix), or wherever it does not know the chain.
    fn replies_to_clients(&self) -> bool {
        self.chain().is_none_or(|chain| {
            let suffix = self.core.q.weak().min(chain.len());
            chain[chain.len() - suffix..].contains(&self.core.me)
        })
    }

    /// As the head: cut the queued requests into slots, committing and
    /// executing (so forwarding) each.
    fn propose(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        self.core.drop_ordered();
        while let Some((seq, digest, batch)) = self.core.cut(ctx) {
            let view = self.core.gate.view();
            self.install(seq, digest, batch, 0, view);
            self.execute(ctx);
        }
    }

    /// Install a batch that traveled `hops` hops in `view` at slot `seq`,
    /// committed: in the chain, arriving is committing. The first batch for
    /// a slot stands.
    fn install(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        hops: u32,
        view: View,
    ) {
        self.core.mempool.remove(&batch);
        if self.core.log.install(seq, digest, batch) {
            let (slot, hops) = (self.core.log.slot(seq), Some(hops));
            (slot.ext, slot.committed) = (ChainSlot { view, hops }, true);
        }
    }

    /// A vote from a suspect of the current view: it may have missed the
    /// view's new-view message (cut off from the head) and campaign alone
    /// on what it executed; relay the message, so it rolls back what the
    /// view did not keep.
    fn bring_in(&mut self, voter: ReplicaId, ctx: &mut Context<'_, ChainMsg>) {
        let suspect = self.chain().is_some_and(|chain| !chain.contains(&voter));
        if let (true, Some(last)) = (suspect, self.core.last_new_view.clone()) {
            ctx.send(NodeId::Replica(voter), ChainMsg::View(last));
        }
    }

    /// A state transfer ran this replica past requests it had not
    /// executed (above state-machine seq `before`): the chain reaches the
    /// reply suffix last, so a snapshot may overtake the batches it
    /// covers. Answer them from its reply cache, as executing them would.
    fn answer_transferred(&mut self, before: SeqNum, ctx: &mut Context<'_, ChainMsg>) {
        if !self.replies_to_clients() {
            return;
        }
        let (exec, view) = (&self.core.exec, self.core.gate.view());
        let mut send = reply_to_client(Some(CryptoOp::MacGen), ChainMsg::Reply);
        for cached in exec.sm().cached_replies().filter(|c| c.seq > before) {
            if let Some((reply, seq)) = exec.cached_reply(cached.request, view) {
                send(ctx, reply, seq);
            }
        }
    }

    fn on_chained(
        &mut self,
        (from, msg): (NodeId, &ChainMsg),
        (view, seq, digest, hops): (View, SeqNum, Digest, u32),
        (batch, suspects): (&[SignedRequest], &[ReplicaId]),
        ctx: &mut Context<'_, ChainMsg>,
    ) {
        // only from this replica's predecessor in the chain the batch names
        let chain = self.chain_of(view, suspects);
        let at = chain.iter().position(|r| *r == self.core.me);
        let predecessor = at.and_then(|at| chain.get(at.checked_sub(1)?));
        if predecessor.map(|r| NodeId::Replica(*r)) != Some(from) {
            return;
        }
        // restarted and not yet back in step: the chain of a later view
        // reaches here, so the new-view message went by while away
        if self.core.rejoining && view > self.core.gate.view() {
            self.core.enter_view(view, ctx);
            self.replay(ctx);
        }
        // a slot the tail has yet to execute may already lie below a stable
        // checkpoint: the chain reaches it last
        let open = seq > self.core.exec.cursor() && seq <= self.core.high_water();
        if !self.core.gate.admit(from, view, msg) || !open {
            return;
        }
        ctx.charge_crypto(CryptoOp::MacVerify);
        ctx.charge_crypto(CryptoOp::Hash);
        if digest_of(&batch) != digest {
            return;
        }
        self.suspects = (view, suspects.to_vec());
        self.install(seq, digest, batch.to_vec(), hops, view);
        self.execute(ctx);
    }
}

impl ViewChanger for ChainReplica {
    type Msg = ChainMsg;
    type Ext = ChainSlot;
    type Payload = PbftCert;

    fn core(&mut self) -> &mut Core<ChainMsg, ChainSlot, PbftCert> {
        &mut self.core
    }

    /// A stuck campaign steps to the view after its own: campaigns start
    /// apart (a retransmission starts one at once, outstanding requests at
    /// τ2), and jumping past every view voted for would leapfrog the later
    /// campaigners for good.
    fn escalation(&mut self, work_pending: bool) -> Option<View> {
        let (core, me) = (&self.core, self.core.me);
        let at = (core.gate.view(), core.gate.in_view_change());
        core.votes.escalation_past_own(me, at, work_pending)
    }

    /// The slots this replica executed above its stable checkpoint, each
    /// with the view its batch was installed in.
    fn report(&mut self, _: &mut Context<'_, ChainMsg>) -> Vec<Entry<PbftCert>> {
        let (log, cursor) = (&self.core.log, self.core.exec.cursor());
        let above = log.range(self.core.ckpt.low_water().next()..);
        let executed = above.take_while(|(seq, _)| **seq <= cursor);
        let cert = |(seq, s): (&SeqNum, &Slot<ChainSlot>)| {
            Some((*seq, s.digest?, PbftCert(s.ext.view, s.batch.clone()?)))
        };
        executed.filter_map(cert).collect()
    }

    /// PBFT's rule over what the voters executed: per slot, the batch of
    /// the highest view — and where no voter executed past the highest
    /// stable checkpoint, a null batch right above it, so that a replica
    /// that executed further knows where to roll back from. The replicas
    /// whose votes it did not assemble are the new view's suspects.
    fn assemble(&mut self, target: View) -> Vec<Entry<PbftCert>> {
        let votes = self.core.votes.votes(target);
        let voted = |r: &ReplicaId| votes.iter().any(|(voter, ..)| voter == r);
        let everyone = (0..self.core.q.n as u32).map(ReplicaId);
        self.suspects = (target, everyone.filter(|r| !voted(r)).collect());
        let proposals = self.core.votes.highest_certified(target);
        if !proposals.is_empty() {
            return proposals;
        }
        let (base, empty) = (self.core.votes.stable(target), Vec::new());
        vec![(base.next(), digest_of(&empty), PbftCert(target, empty))]
    }

    /// A re-proposal is committed at once: every replica takes it from the
    /// new-view message (not forwarded down the chain).
    fn adopt(&mut self, (seq, digest, cert): Entry<PbftCert>, _: &mut Context<'_, ChainMsg>) {
        let (PbftCert(_, batch), view) = (cert, self.core.gate.view());
        self.core.mempool.remove(&batch);
        let slot = self.core.log.reinstall(seq, digest, batch);
        (slot.ext, slot.committed) = (ChainSlot { view, hops: None }, true);
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        self.propose(ctx);
    }

    /// Run the committed slots in order, answering the clients from the
    /// reply suffix. After each, the tail observes the final commit of a
    /// batch that came down the chain, and every other replica forwards
    /// such a batch to its successor, one MAC more.
    fn execute(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        let (view, suspects) = (self.core.gate.view(), self.suspects.1.clone());
        let chain = self.chain().unwrap_or_default();
        let at = chain.iter().position(|r| *r == self.core.me);
        let successor = at.and_then(|at| chain.get(at + 1).copied());
        let (replies, tail) = (
            self.replies_to_clients(),
            at.is_some() && successor.is_none(),
        );
        let mut send = reply_to_client(Some(CryptoOp::MacGen), ChainMsg::Reply);
        let deliver = |ctx: &mut Context<'_, ChainMsg>, reply, seq| {
            if replies {
                send(ctx, reply, seq);
            }
        };
        self.core.drain(ctx, deliver, |ctx, intake, exec, slot| {
            let (seq, digest) = (exec.cursor(), slot.digest.unwrap_or(Digest::ZERO));
            if tail && slot.ext.hops.is_some() {
                let (view, speculative) = (slot.ext.view, false);
                ctx.observe(Observation::Commit {
                    seq,
                    view,
                    digest,
                    speculative,
                });
            }
            if let (Some(successor), Some(hops)) = (successor, slot.ext.hops) {
                let chained = ChainMsg::Chained {
                    view,
                    seq,
                    digest,
                    batch: slot.batch.clone().unwrap_or_default(),
                    hops: hops + 1,
                    suspects: suspects.clone(),
                };
                ctx.charge_crypto(CryptoOp::MacGen);
                ctx.send(NodeId::Replica(successor), chained);
            }
            intake.settle(ctx, exec);
        });
    }

    /// An amnesia restart forgets the suspects with the view.
    fn forget(&mut self, amnesia: bool) {
        if amnesia {
            self.suspects = (View(0), Vec::new());
        }
    }
}

impl Actor<ChainMsg> for ChainReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, ChainMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &ChainMsg, ctx: &mut Context<'_, ChainMsg>) {
        match msg {
            // only the reply suffix answers a retransmission; at a backup,
            // a retransmission of an executed request also says that the
            // suffix did not answer — the chain is broken — and the backup
            // abandons the view (at the head it may be the network's copy
            // of the first submission)
            ChainMsg::Request(signed) => {
                let suffix = self.replies_to_clients();
                let wire: RequestWire<ChainMsg> = (
                    suffix.then_some(|r, _| ChainMsg::Reply(r)),
                    Some(ChainMsg::Request),
                );
                if self.core.take_request(ctx, signed, wire) {
                    self.propose(ctx);
                } else if !self.core.is_leader() && self.core.exec.is_executed(&signed.request.id) {
                    let next = self.core.gate.view().next();
                    self.start_view_change(next, ctx);
                }
            }
            ChainMsg::Chained {
                view,
                seq,
                digest,
                batch,
                hops,
                suspects,
            } => {
                let at = (*view, *seq, *digest, *hops);
                self.on_chained((from, msg), at, (batch, suspects), ctx);
            }
            // a view installs once: another copy of its new-view message (a
            // duplicate, a replay) would roll back what it ordered since. The
            // message carries its leader's signature, so a peer may relay it
            ChainMsg::View(ViewMsg::NewView { view, proposals }) => {
                if *view > self.core.gate.view() {
                    ctx.charge_crypto(CryptoOp::Verify);
                    self.install_view(*view, proposals.clone(), ctx);
                }
            }
            ChainMsg::View(vc) => {
                let before = self.core.exec.sm().last_executed();
                self.on_view_msg(from, vc, ctx);
                match vc {
                    ViewMsg::ViewChange { from: voter, .. } => self.bring_in(*voter, ctx),
                    ViewMsg::StateTransfer { .. } => self.answer_transferred(before, ctx),
                    _ => {}
                }
            }
            ChainMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, _: TimerKind, ctx: &mut Context<'_, ChainMsg>) {
        self.on_view_timer(id, ctx);
    }
}

/// Chain client hooks: f+1 matching replies from the chain suffix.
pub struct ChainClientProto;

impl ClientProtocol for ChainClientProto {
    type Msg = ChainMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> ChainMsg {
        ChainMsg::Request(req)
    }

    fn unwrap_reply(msg: &ChainMsg) -> Option<&Reply> {
        match msg {
            ChainMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run Chain under a scenario.
pub fn run(scenario: &Scenario) -> RunOutcome {
    let timing = scenario.timing();
    launch::<ChainClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        ChainReplica::new(me, q, store, timing, scenario.batch_size)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::{self, PbftOptions};
    use bft_sim::{
        AdversarySpec, Attack, CampaignViolation, FaultPlan, NetworkConfig, SafetyAuditor, SimTime,
    };

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    /// What the head scans per dissemination — the log above the cursor —
    /// and what a new head requeues from — the mempool — hold only
    /// unexecuted requests, not all 300 the run logged.
    #[test]
    fn scans_cover_only_requests_not_yet_executed() {
        use crate::common::script::peak_size;
        let s = Scenario::small(1).with_load(2, 150);
        let timing = s.timing();
        let (out, peak) = peak_size::<ChainClientProto, _>(
            &s,
            4,
            |me, q, store| ChainReplica::new(me, q, store, timing, 1),
            |r| {
                let in_flight = r.core.log.in_flight(r.core.exec.cursor()).count();
                r.core.mempool.len().max(in_flight)
            },
        );
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 2, "scanned {peak} requests with 2 clients");
    }

    #[test]
    fn fault_free_pipeline_works() {
        let s = Scenario::small(1).with_load(1, 30);
        let out = run(&s);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 30);
    }

    #[test]
    fn chain_uses_fewest_messages() {
        let s = Scenario::small(1).with_load(1, 30);
        let chain = run(&s);
        let pbft = pbft::run(&s, &PbftOptions::default());
        let msgs = |o: &RunOutcome| o.metrics.replica_msgs_sent() as f64 / 30.0;
        assert!(
            msgs(&chain) < msgs(&pbft) / 2.0,
            "pipeline {} vs clique {} messages per request",
            msgs(&chain),
            msgs(&pbft)
        );
    }

    #[test]
    fn chain_latency_grows_with_n() {
        // sequential hops: latency grows ~linearly with chain length
        let mean = |f: usize| {
            let s = Scenario::small(f).with_load(1, 15);
            let out = run(&s);
            let l = out.log.client_latencies();
            l.iter().map(|(_, d)| d.0).sum::<u64>() as f64 / l.len() as f64
        };
        let m1 = mean(1); // n = 4
        let m4 = mean(4); // n = 13
        assert!(
            m4 > 2.0 * m1,
            "n=13 chain must be much slower: {m4} vs {m1}"
        );
    }

    #[test]
    fn mid_chain_crash_reconfigures() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime(3_000_000)));
        let out = run(&s);
        SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
        assert!(out.log.max_view() >= View(1), "reconfiguration must happen");
        assert_eq!(accepted(&out), 20);
    }

    /// A case of the campaign's workload at fault budget `f` and `seed`:
    /// `clients` clients issuing `requests` requests each.
    fn case(f: usize, seed: u64, (clients, requests): (usize, u64)) -> Scenario {
        Scenario::small(f)
            .with_load(clients, requests)
            .with_seed(seed)
    }

    /// The campaign's check of a case: safety, every request accepted, the
    /// semantic checkers.
    fn check(s: &Scenario) -> Option<CampaignViolation> {
        use crate::registry::ProtocolId;
        use bft_sim::campaign::{check_outcome_with_semantics, suspects_with};
        let out = run(s);
        let suspects = suspects_with(&s.faults, &s.adversaries);
        let semantic = crate::suite::semantic_config(ProtocolId::Chain, s);
        check_outcome_with_semantics(&out.log, suspects, s.total_requests(), &semantic)
    }

    /// Unscoped chaos seed 535, shrunk: r0 (the head) and r1 are
    /// partitioned from 2.1 to 8.4 ms under duplication and reordering.
    /// Under the private reconfiguration r0 and r3 committed different
    /// batches at slot 6.
    #[test]
    fn a_healed_partition_between_head_and_successor_stays_safe() {
        let (a, b) = (NodeId::replica(0), NodeId::replica(1));
        let partition = FaultPlan::none().partition(a, b, SimTime(2_123_603), SimTime(8_385_959));
        let network = NetworkConfig::lan()
            .with_duplication(0.24077454804817117)
            .with_reordering(0.23839275851286257);
        let s = case(1, 535, (1, 8)).with_network(network);
        assert_eq!(check(&s.with_faults(partition)), None);
    }

    /// Unscoped Byzantine seed 97: r0 corrupts and holds what it sends.
    /// Under the private reconfiguration a stall report carried only a
    /// cursor, so the view-6 head re-proposed from its own (slot 4) and
    /// gave slots 5–8 new batches that r1 had executed already; and two
    /// replicas each announced view 4 with different suspects. r1 and r2
    /// committed different batches at slot 6.
    #[test]
    fn a_corrupting_and_delaying_head_cannot_split_a_slot() {
        let adversary = AdversarySpec::new(
            0,
            Attack::Corrupt {
                prob: 0.6802301333195655,
            },
        )
        .and(Attack::Delay {
            hold: SimDuration(12_524_182),
            prob: 0.5125643568449125,
        });
        assert_eq!(
            check(&case(1, 97, (1, 8)).with_adversaries(vec![adversary])),
            None
        );
    }

    /// Unscoped Byzantine seed 300: r1 corrupts and replays what it sends.
    /// Under the private reconfiguration r2 and r3 committed different
    /// batches at slots 5 and 6.
    #[test]
    fn a_corrupting_and_replaying_backup_cannot_split_a_slot() {
        let adversary = AdversarySpec::new(
            1,
            Attack::Corrupt {
                prob: 0.5924158398039456,
            },
        )
        .and(Attack::Replay {
            prob: 0.6363216264752887,
        });
        assert_eq!(
            check(&case(1, 300, (1, 8)).with_adversaries(vec![adversary])),
            None
        );
    }

    /// The head executes a batch before any other replica holds it: with
    /// r1, its successor, down from 10.5 to 14.0 ms (amnesia restart) and
    /// three clients, r0 orders slots 50 and 51 alone, and the next view,
    /// assembled without r0's vote, gives them other batches (recovery
    /// seed 2 at three clients). Were that execution final, r0 would hold
    /// a state no other replica reaches; it is speculative, and r0 rolls it
    /// back when it installs the view.
    #[test]
    fn a_head_that_ordered_alone_rolls_back_what_the_next_view_drops() {
        let r1 = NodeId::replica(1);
        let (down, up) = (SimTime(10_480_628), SimTime(13_991_604));
        let faults = FaultPlan::none().crash_recover_amnesia(r1, down, up);
        assert_eq!(check(&case(1, 2, (3, 40)).with_faults(faults)), None);
    }

    /// A view installs once. Chaos seed 20: after a view change under
    /// duplication and reordering, r2, the head of view 2, gets further
    /// copies of the view's new-view message after it ordered slot 5;
    /// re-installing the view rolled slot 5 back and ordered its requests
    /// anew, and r1, the tail, committed two batches at slot 5.
    #[test]
    fn another_copy_of_the_new_view_message_does_not_roll_the_view_back() {
        let (r0, r1, r2) = (NodeId::replica(0), NodeId::replica(1), NodeId::replica(2));
        let peers = vec![r0, r1, NodeId::replica(3)];
        let faults = FaultPlan::none()
            .isolate(r2, peers, SimTime(7_761_614), SimTime(15_834_526))
            .slow_link(r0, r1, SimDuration(94_571));
        let network = NetworkConfig::lan()
            .with_duplication(0.19053128995831933)
            .with_reordering(0.28074137834500223);
        let s = case(1, 20, (1, 8)).with_network(network);
        assert_eq!(check(&s.with_faults(faults)), None);
    }

    /// A new view always assigns a slot. Chaos seed 156 at three clients
    /// and batch 4: no voter for view 2 had executed past the highest
    /// stable checkpoint they reported, so its head re-proposed
    /// nothing; r1 and r2, whose own checkpoint was not yet stable, took
    /// slot 0 as the view's base and rolled back everything they had
    /// executed, and their states parted at state-machine seq 19.
    #[test]
    fn a_view_without_re_proposals_starts_above_the_voters_checkpoint() {
        let (r0, r1, r3) = (NodeId::replica(0), NodeId::replica(1), NodeId::replica(3));
        let ms = |t: u64| SimTime(t);
        let faults = FaultPlan::none()
            .crash_recover(r0, ms(13_044_682), ms(16_226_332))
            .crash_recover(r0, ms(19_396_473), ms(26_646_650))
            .partition(r3, r1, ms(6_887_325), ms(19_668_795));
        let network = NetworkConfig::lan()
            .with_duplication(0.14425167045210746)
            .with_reordering(0.2937672829592809);
        let s = case(1, 156, (3, 8)).with_network(network).with_batch(4);
        assert_eq!(check(&s.with_faults(faults)), None);
    }

    /// Byzantine seed 899 at f = 2 and three clients: r1, the head of
    /// view 1, censors r0 both ways. r0, the head of view 0, had executed
    /// slots 1 and 2 alone; never reached by view 1's new-view message, it
    /// kept them, campaigning alone, and no later view change came. A
    /// member of the chain relays the view's new-view message to a
    /// suspect that votes, and the suspect rolls back.
    #[test]
    fn a_suspect_cut_off_from_the_new_head_is_brought_into_the_view() {
        let adversary = AdversarySpec::new(
            1,
            Attack::Delay {
                hold: SimDuration(36_980_175),
                prob: 0.9008325561432635,
            },
        )
        .and(Attack::Censor {
            victims: vec![NodeId::replica(5), NodeId::replica(0)],
            outbound: true,
            inbound: true,
        });
        assert_eq!(
            check(&case(2, 899, (3, 8)).with_adversaries(vec![adversary])),
            None
        );
    }

    /// Byzantine seed 195 at f = 2: r0 corrupts and replays, r3 corrupts.
    /// A retransmission starts a backup's campaign at once, outstanding
    /// requests another's at τ2; stepping each stuck campaign past every
    /// view voted for kept the later campaigners leapfrogging (2 of 8
    /// requests accepted). A stuck campaign steps past its own.
    #[test]
    fn campaigns_that_start_apart_meet() {
        let corrupt = |node, prob| AdversarySpec::new(node, Attack::Corrupt { prob });
        let r0 = corrupt(0, 0.9516110271649281).and(Attack::Replay {
            prob: 0.7614141137840738,
        });
        let r3 = corrupt(3, 0.43554005492281117);
        assert_eq!(
            check(&case(2, 195, (1, 8)).with_adversaries(vec![r0, r3])),
            None
        );
    }

    /// At n = 13 the chain reaches its last four replicas after nine have
    /// attested the checkpoint at slot 16, so it is stable there first and
    /// the tail's snapshot overtakes the batch. The tail answers the
    /// client from the snapshot's reply cache; when it did not, the client
    /// lacked a fifth reply and its retransmission ended view 0.
    #[test]
    fn a_checkpoint_stable_ahead_of_the_tail_costs_no_view_change() {
        let out = run(&Scenario::small(4).with_load(1, 20));
        assert!(out.log.marker_count("state-transferred") > 0);
        assert_eq!(accepted(&out), 20);
        assert_eq!(out.log.max_view(), View(0));
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
