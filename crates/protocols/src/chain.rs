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
//! When the pipeline stalls (a replica crashed), progress detection works
//! by *stall reports*: τ2 fires at replicas with pending work, everyone
//! broadcasts a report carrying their last seen sequence number, and after
//! a settling delay the replicas that reported nothing are the suspects.
//! The next configuration (view) excludes them; the new head re-disseminates
//! from the lowest reported sequence number. This models Abstract's
//! switching (Chain → backup instance) without changing protocol family.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, Stage, TimerId};
use bft_types::{
    Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::client::{launch, ClientProtocol, SubmitPolicy};
use crate::common::{reply_to_client, Execution, Intake, Mempool, Scenario, SignedRequest};

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
    },
    /// Stall report: broadcast when τ2 fires; silence identifies suspects.
    StallReport {
        /// Configuration the stall was observed in.
        view: View,
        /// Sender's highest contiguous executed sequence number.
        last_seq: SeqNum,
        /// Sender.
        from: ReplicaId,
    },
    /// Adopt the next configuration (sent by the prospective head with the
    /// collected suspect evidence).
    Reconfigure {
        /// The new configuration.
        view: View,
        /// Replicas excluded from the new chain.
        suspects: Vec<ReplicaId>,
        /// Resume point (min reported last_seq).
        resume_from: SeqNum,
    },
}

impl WireSize for ChainMsg {
    fn wire_size(&self) -> usize {
        match self {
            ChainMsg::Request(r) => 1 + r.wire_size(),
            ChainMsg::Reply(r) => 1 + r.wire_size(),
            ChainMsg::Chained { batch, hops, .. } => {
                1 + 8 + 8 + 32 + batch.wire_size() + (*hops as usize + 1) * 32
            }
            ChainMsg::StallReport { .. } => 1 + 8 + 8 + 4 + 32,
            ChainMsg::Reconfigure { suspects, .. } => 1 + 8 + suspects.len() * 4 + 8 + 64,
        }
    }
}

/// A chain replica.
pub struct ChainReplica {
    me: ReplicaId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    view: View,
    /// Replicas excluded from the current chain.
    suspects: Vec<ReplicaId>,
    next_seq: SeqNum,
    /// Sequence log: seq → batch (buffered until contiguous, then kept for
    /// re-dissemination after reconfiguration).
    log: BTreeMap<SeqNum, Vec<SignedRequest>>,
    /// Requests seen and not yet executed (a new head re-proposes them).
    known: BTreeMap<RequestId, SignedRequest>,
    exec: Execution,
    mempool: Mempool,
    /// Stall machinery: τ2 over relayed requests, then a settle window.
    intake: Intake,
    settle_timer: Option<TimerId>,
    /// Reports received for the current stall round: replica → last_seq.
    reports: BTreeMap<ReplicaId, SeqNum>,
}

impl ChainReplica {
    /// Create a replica.
    pub fn new(
        me: ReplicaId,
        q: QuorumRules,
        store: Arc<KeyStore>,
        view_timeout: SimDuration,
        batch_size: usize,
    ) -> Self {
        ChainReplica {
            me,
            q,
            store,
            view: View(0),
            suspects: Vec::new(),
            next_seq: SeqNum(1),
            log: BTreeMap::new(),
            known: BTreeMap::new(),
            exec: Execution::new().skipping_executed(),
            mempool: Mempool::new(batch_size),
            intake: Intake::new(view_timeout),
            settle_timer: None,
            reports: BTreeMap::new(),
        }
    }

    /// The chain order for the current configuration: all non-suspect
    /// replicas, starting from `view mod n`.
    fn chain(&self) -> Vec<ReplicaId> {
        let n = self.q.n as u32;
        let start = (self.view.0 % n as u64) as u32;
        (0..n)
            .map(|i| ReplicaId((start + i) % n))
            .filter(|r| !self.suspects.contains(r))
            .collect()
    }

    fn head(&self) -> ReplicaId {
        self.chain()[0]
    }

    fn is_head(&self) -> bool {
        self.head() == self.me
    }

    /// Successor of this replica in the chain, if any.
    fn successor(&self) -> Option<ReplicaId> {
        let chain = self.chain();
        chain
            .iter()
            .position(|r| *r == self.me)
            .and_then(|p| chain.get(p + 1))
            .copied()
    }

    /// Is this replica among the last f+1 (the reply suffix)?
    fn replies_to_clients(&self) -> bool {
        let chain = self.chain();
        let suffix = self.q.weak().min(chain.len());
        chain[chain.len() - suffix..].contains(&self.me)
    }

    /// The requests logged above the execution cursor (what the log holds
    /// at or below it has executed).
    fn unexecuted_in_log(&self) -> Vec<RequestId> {
        let above = self.log.range(self.exec.cursor().next()..);
        above
            .flat_map(|(_, b)| b.iter().map(|r| r.request.id))
            .collect()
    }

    fn disseminate(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        if !self.is_head() {
            return;
        }
        let in_log = self.unexecuted_in_log();
        self.mempool.drop_ordered(&self.exec, in_log);
        while let Some((seq, digest, batch)) = self.mempool.cut(ctx, &mut self.next_seq) {
            self.accept_chained(seq, digest, batch, 0, ctx);
        }
    }

    fn accept_chained(
        &mut self,
        seq: SeqNum,
        _digest: Digest,
        batch: Vec<SignedRequest>,
        hops: u32,
        ctx: &mut Context<'_, ChainMsg>,
    ) {
        let exec = &self.exec;
        for r in batch.iter().filter(|r| !exec.is_executed(&r.request.id)) {
            self.known.entry(r.request.id).or_insert_with(|| r.clone());
        }
        self.log.entry(seq).or_insert(batch);
        self.try_execute_and_forward(hops, ctx);
    }

    fn try_execute_and_forward(&mut self, hops: u32, ctx: &mut Context<'_, ChainMsg>) {
        while let Some(batch) = self.log.get(&self.exec.cursor().next()).cloned() {
            let next = self.exec.cursor().next();
            let digest = digest_of(&batch);
            let view = self.view;
            ctx.observe(Observation::Commit {
                seq: next,
                view,
                digest,
                speculative: false,
            });
            let replies = self.replies_to_clients();
            let mut send = reply_to_client(Some(CryptoOp::MacGen), ChainMsg::Reply);
            let known = &mut self.known;
            self.exec.run(ctx, Some(&batch), view, |ctx, reply, seq| {
                known.remove(&reply.request);
                if replies {
                    send(ctx, reply, seq);
                }
            });
            // forward down the pipeline with one more MAC accumulated
            if let Some(successor) = self.successor() {
                ctx.charge_crypto(CryptoOp::MacGen);
                ctx.send(
                    NodeId::Replica(successor),
                    ChainMsg::Chained {
                        view,
                        seq: next,
                        digest,
                        batch,
                        hops: hops + 1,
                    },
                );
            }
            self.intake.settle(ctx, &self.exec);
        }
    }

    fn on_stall(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        // broadcast a report; silent replicas are the suspects
        let me = self.me;
        let view = self.view;
        let last_seq = self.exec.cursor();
        ctx.charge_crypto(CryptoOp::MacGen);
        ctx.broadcast_replicas(ChainMsg::StallReport {
            view,
            last_seq,
            from: me,
        });
        self.reports.insert(me, last_seq);
        if self.settle_timer.is_none() {
            self.settle_timer = Some(ctx.set_timer(TimerKind::T5ViewSync, ctx.delta()));
        }
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        // reports are in: non-reporters are suspects
        let suspects: Vec<ReplicaId> = (0..self.q.n as u32)
            .map(ReplicaId)
            .filter(|r| !self.reports.contains_key(r))
            .collect();
        let resume_from = self.reports.values().min().copied().unwrap_or(SeqNum(0));
        let next_view = self.view.next();
        // the prospective head of the next configuration announces it
        let n = self.q.n as u32;
        let start = (next_view.0 % n as u64) as u32;
        let new_head = (0..n)
            .map(|i| ReplicaId((start + i) % n))
            .find(|r| !suspects.contains(r))
            .unwrap_or(ReplicaId(start));
        if new_head == self.me {
            ctx.charge_crypto(CryptoOp::Sign);
            ctx.broadcast_replicas(ChainMsg::Reconfigure {
                view: next_view,
                suspects: suspects.clone(),
                resume_from,
            });
            self.adopt_config(next_view, suspects, resume_from, ctx);
        }
        self.reports.clear();
    }

    fn adopt_config(
        &mut self,
        view: View,
        suspects: Vec<ReplicaId>,
        resume_from: SeqNum,
        ctx: &mut Context<'_, ChainMsg>,
    ) {
        if view <= self.view {
            return;
        }
        self.view = view;
        self.suspects = suspects;
        self.reports.clear();
        self.intake.disarm(ctx);
        if let Some(t) = self.settle_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.observe(Observation::NewView { view });
        if self.is_head() {
            // re-disseminate everything above the resume point so stragglers
            // fill their gaps, then fresh requests
            self.next_seq = self.next_seq.max(self.exec.cursor().next());
            let replay: Vec<(SeqNum, Vec<SignedRequest>)> = self
                .log
                .range(resume_from.next()..)
                .map(|(s, b)| (*s, b.clone()))
                .collect();
            let view = self.view;
            if let Some(successor) = self.successor() {
                for (seq, batch) in replay {
                    let digest = digest_of(&batch);
                    ctx.send(
                        NodeId::Replica(successor),
                        ChainMsg::Chained {
                            view,
                            seq,
                            digest,
                            batch,
                            hops: 1,
                        },
                    );
                }
            }
            // anything known but unexecuted and unlogged gets fresh slots
            let in_log = self.unexecuted_in_log();
            let known = self.known.values();
            let todo: Vec<SignedRequest> = known
                .filter(|r| !in_log.contains(&r.request.id))
                .cloned()
                .collect();
            self.mempool.requeue(&self.exec, &todo);
            self.disseminate(ctx);
        }
    }
}

impl Actor<ChainMsg> for ChainReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
    }

    fn on_message(&mut self, from: NodeId, msg: &ChainMsg, ctx: &mut Context<'_, ChainMsg>) {
        match msg {
            ChainMsg::Request(signed) => {
                // only the chain's reply suffix answers clients
                let replies = self.replies_to_clients();
                let mut send = reply_to_client(None, ChainMsg::Reply);
                let answer = |ctx: &mut Context<'_, ChainMsg>, reply, seq| {
                    if replies {
                        send(ctx, reply, seq);
                    }
                };
                if !Intake::admit(ctx, &self.store, &self.exec, signed, self.view, answer) {
                    return;
                }
                self.known.insert(signed.request.id, signed.clone());
                if self.is_head() {
                    self.mempool.push(signed);
                    self.disseminate(ctx);
                } else {
                    self.intake
                        .relay(ctx, signed, self.head(), ChainMsg::Request, true);
                }
            }
            ChainMsg::Chained {
                view,
                seq,
                digest,
                batch,
                hops,
            } => {
                if *view != self.view {
                    return;
                }
                ctx.charge_crypto(CryptoOp::MacVerify);
                ctx.charge_crypto(CryptoOp::Hash);
                if digest_of(batch) != *digest {
                    return;
                }
                self.accept_chained(*seq, *digest, batch.clone(), *hops, ctx);
            }
            ChainMsg::StallReport {
                view,
                last_seq,
                from: r,
            } => {
                if *view != self.view {
                    return;
                }
                ctx.charge_crypto(CryptoOp::MacVerify);
                self.reports.insert(*r, *last_seq);
                // a report from elsewhere means someone stalled: join the
                // round so our own liveness report is counted
                if !self.reports.contains_key(&self.me) {
                    self.on_stall(ctx);
                }
            }
            ChainMsg::Reconfigure {
                view,
                suspects,
                resume_from,
            } => {
                let NodeId::Replica(_) = from else { return };
                ctx.charge_crypto(CryptoOp::Verify);
                self.adopt_config(*view, suspects.clone(), *resume_from, ctx);
            }
            ChainMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, ChainMsg>) {
        match kind {
            TimerKind::T2ViewChange if self.intake.fired(id) && self.intake.has_pending() => {
                self.on_stall(ctx);
            }
            TimerKind::T5ViewSync if Some(id) == self.settle_timer => {
                self.settle_timer = None;
                self.on_settle(ctx);
            }
            _ => {}
        }
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
    let view_timeout = SimDuration(scenario.network.delta.0 * 4);
    launch::<ChainClientProto, _>(scenario, scenario.n(3 * scenario.f + 1), |me, q, store| {
        ChainReplica::new(me, q, store, view_timeout, scenario.batch_size)
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

    /// What the head scans per dissemination — the log above the cursor —
    /// and what a new head scans — `known` — hold only unexecuted requests,
    /// not all 300 the run logged.
    #[test]
    fn scans_cover_only_requests_not_yet_executed() {
        use crate::common::script::peak_size;
        let s = Scenario::small(1).with_load(2, 150);
        let timeout = SimDuration(s.network.delta.0 * 4);
        let (out, peak) = peak_size::<ChainClientProto, _>(
            &s,
            4,
            |me, q, store| ChainReplica::new(me, q, store, timeout, 1),
            |r| r.known.len().max(r.unexecuted_in_log().len()),
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

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(1, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
