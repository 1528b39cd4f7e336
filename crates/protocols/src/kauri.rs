//! Kauri-style tree-based BFT (Neiheiser et al. '21): design choice 14,
//! *tree-based load balancer*, and dimensions **E2** (tree topology) /
//! **Q2** (load balancing).
//!
//! The leader bottleneck of star protocols comes from the root sending and
//! receiving `n − 1` messages per phase. Kauri spreads that work over a
//! fan-out tree: proposals are *disseminated* down the tree (each node
//! forwards to its `m` children), and votes are *aggregated* up it (each
//! internal node combines its subtree's threshold shares into one message).
//! Every replica — including the root — touches only `O(m)` messages per
//! phase; the price is `h = log_m n` sequential hops per phase and the
//! optimistic assumption **a3** that internal nodes are correct.
//!
//! When an internal node fails, its whole subtree goes quiet and the
//! aggregation stalls; replicas complain, and a PBFT-style reconfiguration
//! (2f+1 complaints carrying certified slots) installs the next view whose
//! tree is rotated — after a few rotations the faulty replica sits at a
//! leaf, where partial aggregation (timer τ4) tolerates its silence.
//!
//! Two aggregation rounds (prepare, commit) certify each slot, mirroring a
//! two-phase HotStuff over the tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::topology::Topology;
use bft_sim::{Actor, Context, NodeId, Observation, RestartMode, SimDuration, SimTime, TimerId};
use bft_types::{Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, View, WireSize};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{
    BatchEntry, Core, Execution, RequestWire, Scenario, SignedRequest, ViewChanger, ViewMsg,
};

/// Aggregation phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum KauriPhase {
    /// First round (prepare-equivalent).
    Prepare,
    /// Second round (commit-equivalent).
    Commit,
}

/// Kauri messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum KauriMsg {
    /// Client → replicas (broadcast).
    Request(SignedRequest),
    /// Replica → client.
    Reply(Reply),
    /// Root → down the tree: the proposal.
    Disseminate {
        /// View (defines the tree layout).
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Batch.
        batch: Vec<SignedRequest>,
    },
    /// Child → parent: aggregated threshold shares from the subtree.
    Aggregate {
        /// Phase.
        phase: KauriPhase,
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
        /// Number of shares aggregated in the sender's subtree.
        count: usize,
        /// Sender.
        from: ReplicaId,
    },
    /// Root → down the tree: the certificate for a completed phase.
    QcDown {
        /// Certified phase.
        phase: KauriPhase,
        /// View.
        view: View,
        /// Slot.
        seq: SeqNum,
        /// Digest.
        digest: Digest,
    },
    /// Reconfiguration (clique control plane): complaints carry the slots
    /// the sender saw a prepare certificate for; the new root installs the view.
    View(ViewMsg<Vec<SignedRequest>>),
}

impl WireSize for KauriMsg {
    fn wire_size(&self) -> usize {
        match self {
            KauriMsg::Request(r) => 1 + r.wire_size(),
            KauriMsg::Reply(r) => 1 + r.wire_size(),
            KauriMsg::Disseminate { batch, .. } => 1 + 16 + 32 + batch.wire_size() + 96,
            KauriMsg::Aggregate { .. } => 1 + 1 + 16 + 32 + 8 + 4 + 96,
            KauriMsg::QcDown { .. } => 1 + 1 + 16 + 32 + 96,
            KauriMsg::View(m) => m.wire_size(72, WireSize::wire_size),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct KauriSlot {
    /// Per phase: child → reported subtree count.
    child_counts: BTreeMap<(KauriPhase, ReplicaId), usize>,
    /// Per phase: best aggregate forwarded so far (monotone re-send).
    forwarded: BTreeMap<KauriPhase, usize>,
    /// Prepare certificate seen (the commit certificate is the slot's
    /// `committed`).
    prepared: bool,
    /// Own share contributed per phase.
    voted: BTreeMap<KauriPhase, bool>,
}

/// A Kauri replica.
pub struct KauriReplica {
    core: Core<KauriMsg, KauriSlot, Vec<SignedRequest>>,
    fanout: usize,
    /// Pending partial-aggregation timers (τ4) by the slot and phase they
    /// guard; an entry leaves when its timer is cancelled or fires.
    agg_timers: BTreeMap<(SeqNum, KauriPhase), TimerId>,
    agg_timeout: SimDuration,
    view_timeout: SimDuration,
    /// When the oldest outstanding request became the oldest. Clients
    /// broadcast, so with several of them some request is outstanding here
    /// at all times and τ2 never stops for want of work; it must give each
    /// request a full span from this moment (PBFT's rule), not the
    /// remainder of a span armed for requests long executed.
    waiting_since: SimTime,
}

impl KauriReplica {
    /// Create a replica with its [`Scenario::timing`].
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        fanout: usize,
        timing: (SimDuration, u64),
        agg_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        let exec = Execution::new().skipping_executed();
        KauriReplica {
            core: Core::new((me, q, store), KauriMsg::View, exec, timing, batch_size),
            fanout,
            agg_timers: BTreeMap::new(),
            agg_timeout,
            view_timeout: timing.0,
            waiting_since: SimTime::ZERO,
        }
    }

    /// The view's tree: its leader is the root.
    fn tree(&self) -> Topology {
        Topology::Tree {
            root: self.core.leader(),
            fanout: self.fanout,
        }
    }

    fn children(&self) -> Vec<ReplicaId> {
        self.tree().children(self.core.q.n, self.core.me)
    }

    fn parent(&self) -> Option<ReplicaId> {
        self.tree().parent(self.core.q.n, self.core.me)
    }

    fn propose(&mut self, ctx: &mut Context<'_, KauriMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() {
            return;
        }
        self.core.drop_ordered();
        while let Some((seq, digest, batch)) = self.core.cut(ctx) {
            ctx.charge_crypto(CryptoOp::Sign);
            self.adopt_proposal(seq, digest, batch, ctx);
        }
    }

    /// Store a proposal, forward it down the tree, contribute our share and
    /// begin aggregation for the prepare phase.
    fn adopt_proposal(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        ctx: &mut Context<'_, KauriMsg>,
    ) {
        self.core.mempool.remove(&batch);
        if !self.core.log.install(seq, digest, batch.clone()) {
            return;
        }
        let view = self.core.gate.view();
        // disseminate down
        for child in self.children() {
            ctx.send(
                NodeId::Replica(child),
                KauriMsg::Disseminate {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                },
            );
        }
        // vote (prepare phase)
        self.contribute(KauriPhase::Prepare, seq, digest, ctx);
        // a commit certificate that outran this proposal was waiting for it
        self.execute(ctx);
    }

    /// Contribute this replica's own share for a phase and (re)compute the
    /// upward aggregate.
    fn contribute(
        &mut self,
        phase: KauriPhase,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, KauriMsg>,
    ) {
        if self.core.log.slot(seq).ext.voted.insert(phase, true) == Some(true) {
            return;
        }
        ctx.charge_crypto(CryptoOp::ThresholdShareGen);
        // internal nodes wait for their children (with a partial-aggregation
        // timeout); leaves report immediately
        if !self.children().is_empty() {
            let t = ctx.set_timer(TimerKind::T4QuorumConstruction, self.agg_timeout);
            self.agg_timers.insert((seq, phase), t);
        }
        self.push_aggregate(phase, seq, digest, false, ctx);
    }

    /// Send the current best aggregate up (or certify at the root). With
    /// `force`, send even if not all children have reported (timeout).
    fn push_aggregate(
        &mut self,
        phase: KauriPhase,
        seq: SeqNum,
        digest: Digest,
        force: bool,
        ctx: &mut Context<'_, KauriMsg>,
    ) {
        let children = self.children();
        let quorum = self.core.q.quorum();
        let is_root = self.core.is_leader();
        let me = self.core.me;
        let view = self.core.gate.view();
        let parent = self.parent();

        let slot = self.core.log.slot(seq);
        if slot.digest != Some(digest) {
            return;
        }
        let already = match phase {
            KauriPhase::Prepare => slot.ext.prepared,
            KauriPhase::Commit => slot.committed,
        };
        let slot = &mut slot.ext;
        let own = usize::from(*slot.voted.get(&phase).unwrap_or(&false));
        let children_sum: usize = children
            .iter()
            .map(|c| slot.child_counts.get(&(phase, *c)).copied().unwrap_or(0))
            .sum();
        let total = own + children_sum;
        let all_reported = children
            .iter()
            .all(|c| slot.child_counts.contains_key(&(phase, *c)));

        if is_root {
            if !already && total >= quorum {
                if let Some(t) = self.agg_timers.remove(&(seq, phase)) {
                    ctx.cancel_timer(t);
                }
                ctx.charge_crypto(CryptoOp::ThresholdCombine);
                for child in &children {
                    ctx.send(
                        NodeId::Replica(*child),
                        KauriMsg::QcDown {
                            phase,
                            view,
                            seq,
                            digest,
                        },
                    );
                }
                self.on_qc(phase, seq, digest, ctx);
            }
            return;
        }

        // non-root: forward up when complete, forced, or improved
        let forwarded = slot.forwarded.get(&phase).copied().unwrap_or(0);
        if total > forwarded && (all_reported || force || children.is_empty()) {
            slot.forwarded.insert(phase, total);
            if all_reported {
                if let Some(t) = self.agg_timers.remove(&(seq, phase)) {
                    ctx.cancel_timer(t);
                }
            }
            if let Some(p) = parent {
                ctx.charge_crypto(CryptoOp::ThresholdCombine);
                ctx.send(
                    NodeId::Replica(p),
                    KauriMsg::Aggregate {
                        phase,
                        view,
                        seq,
                        digest,
                        count: total,
                        from: me,
                    },
                );
            }
        }
    }

    fn on_aggregate(
        &mut self,
        phase: KauriPhase,
        seq: SeqNum,
        digest: Digest,
        count: usize,
        from: ReplicaId,
        ctx: &mut Context<'_, KauriMsg>,
    ) {
        if !self.children().contains(&from) {
            return; // only children may report
        }
        ctx.charge_crypto(CryptoOp::ThresholdShareVerify);
        {
            let slot = &mut self.core.log.slot(seq).ext;
            let entry = slot.child_counts.entry((phase, from)).or_insert(0);
            *entry = (*entry).max(count);
        }
        // a late-arriving report may complete the aggregate after a timeout
        let all_reported = {
            let children = self.children();
            let slot = &self.core.log.slot(seq).ext;
            children
                .iter()
                .all(|c| slot.child_counts.contains_key(&(phase, *c)))
        };
        self.push_aggregate(phase, seq, digest, all_reported, ctx);
    }

    fn on_qc(
        &mut self,
        phase: KauriPhase,
        seq: SeqNum,
        digest: Digest,
        ctx: &mut Context<'_, KauriMsg>,
    ) {
        let view = self.core.gate.view();
        // forward the certificate down the tree
        for child in self.children() {
            ctx.send(
                NodeId::Replica(child),
                KauriMsg::QcDown {
                    phase,
                    view,
                    seq,
                    digest,
                },
            );
        }
        if seq <= self.core.exec.cursor() {
            return; // executed: a late certificate, for a slot maybe collected
        }
        match phase {
            KauriPhase::Prepare => {
                {
                    let slot = &mut self.core.log.slot(seq).ext;
                    if slot.prepared {
                        return;
                    }
                    slot.prepared = true;
                }
                // second aggregation round
                self.contribute(KauriPhase::Commit, seq, digest, ctx);
            }
            KauriPhase::Commit => {
                let slot = self.core.log.slot(seq);
                if slot.committed {
                    return;
                }
                slot.commit(ctx, seq, view, digest);
                self.execute(ctx);
            }
        }
    }
}

/// Reconfiguration: complaints are the view-change votes, and installing a
/// view rotates the tree.
impl ViewChanger for KauriReplica {
    type Msg = KauriMsg;
    type Ext = KauriSlot;
    type Payload = Vec<SignedRequest>;

    fn core(&mut self) -> &mut Core<KauriMsg, KauriSlot, Vec<SignedRequest>> {
        &mut self.core
    }

    /// The slots this replica saw a prepare certificate for.
    fn report(&mut self, ctx: &mut Context<'_, KauriMsg>) -> Vec<BatchEntry> {
        ctx.observe(Observation::Marker {
            label: "tree-reconfiguration",
        });
        self.core.open_entries(|s| s.ext.prepared)
    }

    /// The per-view aggregation state dies with the old tree; the new root
    /// re-disseminates the slot through the new one.
    fn adopt(&mut self, (seq, digest, batch): BatchEntry, ctx: &mut Context<'_, KauriMsg>) {
        if let Some(slot) = self.core.log.get_mut(&seq) {
            slot.reset();
        }
        if self.core.is_leader() {
            self.adopt_proposal(seq, digest, batch, ctx);
        }
    }

    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
        // aggregation above the cursor dies with the old tree: those slots
        // were stranded just now or are about to be reset by `adopt`
        let cursor = self.core.exec.cursor();
        self.agg_timers.retain(|(at, _), _| *at <= cursor);
    }

    fn resume(&mut self, ctx: &mut Context<'_, KauriMsg>) {
        self.propose(ctx);
    }

    /// Execute what has committed, noting when the oldest outstanding
    /// request changes (see [`KauriReplica::waiting_since`]).
    fn execute(&mut self, ctx: &mut Context<'_, KauriMsg>) {
        let waited_for = self.core.intake.oldest();
        self.core
            .execute_ready(ctx, CryptoOp::Sign, KauriMsg::Reply);
        if self.core.intake.oldest() != waited_for {
            self.waiting_since = ctx.now();
        }
    }

    /// The τ4 partial-aggregation timers died with the crash.
    fn forget(&mut self, _: bool) {
        self.agg_timers.clear();
    }
}

impl Actor<KauriMsg> for KauriReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, KauriMsg>) {
        self.start(ctx);
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, KauriMsg>) {
        self.restart(mode, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &KauriMsg, ctx: &mut Context<'_, KauriMsg>) {
        match msg {
            KauriMsg::Request(signed) => {
                // clients broadcast, so the root has the request too: a
                // backup forwards nothing, only holds the root to it
                let wire: RequestWire<KauriMsg> = (KauriMsg::Reply, None);
                if self.core.take_request(ctx, signed, wire) {
                    self.propose(ctx);
                }
            }
            KauriMsg::Disseminate {
                view,
                seq,
                digest,
                batch,
            } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                // only our tree parent may disseminate to us
                if from != NodeId::Replica(self.parent().unwrap_or(self.core.leader())) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::Verify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != digest {
                    return;
                }
                self.adopt_proposal(seq, digest, batch.clone(), ctx);
            }
            KauriMsg::Aggregate {
                phase,
                view,
                seq,
                digest,
                count,
                from: r,
            } => {
                let (phase, view, seq, digest, count, r) =
                    (*phase, *view, *seq, *digest, *count, *r);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                self.on_aggregate(phase, seq, digest, count, r, ctx);
            }
            KauriMsg::QcDown {
                phase,
                view,
                seq,
                digest,
            } => {
                let (phase, view, seq, digest) = (*phase, *view, *seq, *digest);
                if !self.core.gate.admit(from, view, msg) {
                    return;
                }
                if from != NodeId::Replica(self.parent().unwrap_or(self.core.leader())) {
                    return;
                }
                ctx.charge_crypto(CryptoOp::ThresholdVerify);
                self.on_qc(phase, seq, digest, ctx);
            }
            KauriMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            KauriMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, KauriMsg>) {
        match kind {
            TimerKind::T4QuorumConstruction => {
                // partial aggregation: forward what we have
                let hit = self.agg_timers.iter().find(|(_, t)| **t == id);
                if let Some((seq, phase)) = hit.map(|(at, _)| *at) {
                    self.agg_timers.remove(&(seq, phase));
                    let digest = self.core.log.slot(seq).digest.unwrap_or(Digest::ZERO);
                    self.push_aggregate(phase, seq, digest, true, ctx);
                }
            }
            _ => {
                // τ2 armed for a request that has since executed: the one
                // now oldest gets the rest of its own span
                let due = self.waiting_since + self.view_timeout;
                let early = !self.core.gate.in_view_change() && ctx.now() < due;
                if early && self.core.intake.fired(id) {
                    self.core.intake.rearm_for(ctx, due.since(ctx.now()));
                } else {
                    self.on_view_timer(id, ctx);
                }
            }
        }
    }
}

/// Kauri client hooks.
pub struct KauriClientProto;

impl ClientProtocol for KauriClientProto {
    type Msg = KauriMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::Broadcast;

    fn wrap_request(req: SignedRequest) -> KauriMsg {
        KauriMsg::Request(req)
    }

    fn unwrap_reply(msg: &KauriMsg) -> Option<&Reply> {
        match msg {
            KauriMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// Run Kauri under a scenario with the given tree fan-out.
pub fn run(scenario: &Scenario, fanout: usize) -> RunOutcome {
    let timing = scenario.timing();
    let agg_timeout = SimDuration(scenario.network.delta.0);
    launch::<KauriClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        let batch = scenario.batch_size;
        KauriReplica::new(me, q, store, fanout, timing, agg_timeout, batch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor};

    fn accepted(out: &RunOutcome) -> usize {
        out.log.client_latencies().len()
    }

    #[test]
    fn fault_free_tree_consensus() {
        let s = Scenario::small(1).with_load(1, 20);
        let out = run(&s, 2);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        assert_eq!(accepted(&out), 20);
    }

    fn peak_timers(s: &Scenario) -> (RunOutcome, usize) {
        let delta = s.network.delta;
        let view_timeout = SimDuration(delta.0 * 4);
        crate::common::script::peak_size::<KauriClientProto, _>(
            s,
            4,
            |me, q, store| KauriReplica::new(me, q, store, 2, (view_timeout, 16), delta, 1),
            |r| r.agg_timers.len(),
        )
    }

    /// The τ4 index is what a firing timer searches: it must hold the
    /// aggregations under way, not one entry per slot and phase of the run —
    /// neither when every timer is cancelled (fault-free) nor when every
    /// one fires (r3, the leaf under r1, is down).
    #[test]
    fn timer_index_holds_only_aggregations_under_way() {
        let s = Scenario::small(1).with_load(2, 150);
        let (out, peak) = peak_timers(&s);
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 4, "fault-free: {peak} timers indexed");
        let leaf_down = FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO);
        let (out, peak) = peak_timers(&s.with_faults(leaf_down));
        assert_eq!(accepted(&out), 300);
        assert!(peak <= 4, "leaf down: {peak} timers indexed");
    }

    /// Regression: two clients that broadcast keep some request outstanding
    /// at every replica at all times; τ2, armed once and disarmed only when
    /// nothing is outstanding, then fired 4Δ into a run that was making
    /// progress, and kept firing — 3 views by request 800, 183 views and the
    /// 20 000 000-event guard at 6 400 requests per client. Progress now
    /// restarts it.
    #[test]
    fn steady_progress_needs_no_reconfiguration() {
        let s = Scenario::small(1).with_load(2, 400);
        let out = run(&s, 2);
        assert_eq!(accepted(&out), 800);
        assert_eq!(out.log.max_view(), View(0));
        assert_eq!(out.log.marker_count("tree-reconfiguration"), 0);
    }

    #[test]
    fn root_load_is_bounded_by_fanout() {
        // with n = 13 and fan-out 2, the root's per-phase traffic is 2
        // messages, vs 12 at a stable star collector (SBFT). HotStuff also
        // balances load, but by rotating the hot spot rather than removing
        // it — the fair comparison for the tree is the stable collector.
        let s = Scenario::small(4).with_load(1, 20);
        let kauri = run(&s, 2);
        SafetyAuditor::all_correct().assert_safe(&kauri.log);
        assert_eq!(accepted(&kauri), 20);
        let sbft = crate::sbft::run(&s);
        let imb_kauri = kauri.metrics.load_imbalance();
        let imb_sbft = sbft.metrics.load_imbalance();
        assert!(
            imb_kauri < imb_sbft,
            "tree imbalance {imb_kauri:.2} must beat star imbalance {imb_sbft:.2}"
        );
        // the root itself handles no more than ~2× the mean replica load
        let root = kauri.metrics.node(NodeId::replica(0));
        let mean: f64 = (0..13)
            .map(|i| {
                let c = kauri.metrics.node(NodeId::replica(i));
                (c.msgs_sent + c.msgs_received) as f64
            })
            .sum::<f64>()
            / 13.0;
        let root_load = (root.msgs_sent + root.msgs_received) as f64;
        assert!(root_load < 2.0 * mean, "root {root_load} vs mean {mean}");
    }

    #[test]
    fn leaf_crash_is_absorbed_by_partial_aggregation() {
        // with n = 7, fanout 2, root r0: r5/r6 are leaves (positions 5, 6)
        let s = Scenario::small(2)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(6), SimTime::ZERO));
        let out = run(&s, 2);
        SafetyAuditor::excluding(vec![NodeId::replica(6)]).assert_safe(&out.log);
        assert_eq!(accepted(&out), 15);
        assert_eq!(
            out.log.max_view(),
            View(0),
            "no reconfiguration needed for a leaf"
        );
    }

    #[test]
    fn internal_crash_forces_reconfiguration() {
        // r1 is internal (children r3, r4): its whole subtree goes dark and
        // the tree must be reconfigured (assumption a3 violated)
        let s = Scenario::small(2)
            .with_load(1, 15)
            .with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime(2_000_000)));
        let out = run(&s, 2);
        SafetyAuditor::excluding(vec![NodeId::replica(1)]).assert_safe(&out.log);
        assert!(out.log.marker_count("tree-reconfiguration") > 0);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 15);
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s, 2);
        let b = run(&s, 2);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
