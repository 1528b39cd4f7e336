//! PBFT — Practical Byzantine Fault Tolerance (Castro & Liskov '99/'02).
//!
//! The paper's driving example (§2.1, Figure 2). This implementation covers
//! the full replica lifecycle of Figure 1:
//!
//! * **Ordering** — pre-prepare (linear, leader → backups), prepare
//!   (quadratic, guarantees uniqueness of the order within a view; quorum
//!   2f matching prepares + the pre-prepare), commit (quadratic, guarantees
//!   the order survives view changes; quorum 2f+1).
//! * **Execution** — committed batches execute in sequence order; replies
//!   go to clients, which wait for f+1 matching replies.
//! * **View-change** — the family's shared lifecycle
//!   ([`ViewChanger`](crate::common)): timer τ2 triggers a view change; each
//!   vote reports the sender's stable checkpoint and its prepared slots
//!   ([`PbftCert`]); 2f+1 votes let the new leader install the view,
//!   re-proposing the highest-view prepared batch per slot and filling gaps
//!   with null batches. In MAC mode (the Castro-Liskov '02 variant) the new
//!   leader uses a vote only once 2f−1 other replicas acknowledged it,
//!   substituting for the non-repudiation signatures would provide (design
//!   choice 11).
//! * **Checkpointing** — the family's shared stage ([`Core`]): every
//!   `interval` sequence numbers replicas digest their state and exchange
//!   checkpoint attestations; 2f+1 matching attestations make the
//!   checkpoint stable, the log truncates, and in-dark replicas catch up
//!   by transfer of a rebuilt snapshot.
//! * **Recovery** — the family's shared restart stage (a crashed replica
//!   reloads, rejoins and catches up by state transfer), and optional
//!   proactive rejuvenation on the watchdog timer τ8 (replicas take turns;
//!   a recovering replica is unavailable, then rejoins the same way).
//!
//! Byzantine leader variants ([`Behavior`]) implement the adversaries the
//! experiments need: censoring, reordering (unfair), delaying and
//! equivocating leaders. Safety holds under all of them — the audit at the
//! end of every experiment proves it for the run.

use std::sync::Arc;

use bft_core::client::CollectStatus;
use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{
    Actor, Context, NodeId, Observation, RestartMode, SimDuration, SimTime, Stage, TimerId,
};
use bft_types::{
    ClientId, Digest, QuorumRules, ReplicaId, Reply, SeqNum, TimerKind, TxnResult, View, WireSize,
};

use crate::client::{launch, ClientProtocol, Pending, SubmitPolicy};
use crate::common::{
    reply_to_client, Core, Entry, Execution, Intake, Mempool, PbftCert, RoundRules, Rounds,
    Scenario, SignedRequest, Slot, ViewChange, ViewChanger, ViewMsg, VoteAuth,
};

/// Authentication mode for PBFT messages (dimension E3 / design choice 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbftAuth {
    /// MAC authenticators: cheap, repudiable; view-change needs acks.
    Mac,
    /// Signatures: costly, non-repudiable.
    Signature,
}

/// PBFT protocol messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum PbftMsg {
    /// Client → replica: a signed request.
    Request(SignedRequest),
    /// Replica → client: execution result.
    Reply(Reply),
    /// Leader → backups: assign `seq` to `batch` in `view`.
    PrePrepare {
        /// Current view.
        view: View,
        /// Assigned sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// The request batch.
        batch: Vec<SignedRequest>,
    },
    /// Backup → all: agreement on the leader's assignment.
    Prepare {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// All → all: the assignment is durable across views.
    Commit {
        /// View.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Sender.
        from: ReplicaId,
    },
    /// The family's messages: view-change votes carry certificates, the
    /// new-view message the re-proposals, and in MAC mode replicas ack each
    /// other's votes; checkpoints and state transfer.
    View(ViewMsg<PbftCert>),
    /// Client → all replicas: a read-only request served from the current
    /// state without ordering (the paper's P6 read optimization: the client
    /// waits for 2f+1 matching replies instead of f+1).
    ReadOnly(SignedRequest),
}

impl WireSize for PbftMsg {
    fn wire_size(&self) -> usize {
        match self {
            PbftMsg::Request(r) | PbftMsg::ReadOnly(r) => 1 + r.wire_size(),
            PbftMsg::Reply(r) => 1 + r.wire_size(),
            PbftMsg::PrePrepare { batch, .. } => 1 + 8 + 8 + 32 + batch.wire_size(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 1 + 8 + 8 + 32 + 4 + 32,
            // an ack is one MAC to one replica, and so is a checkpoint sized
            PbftMsg::View(m @ (ViewMsg::Ack { .. } | ViewMsg::Checkpoint { .. })) => {
                m.wire_size(32, PbftCert::wire_size)
            }
            PbftMsg::View(m) => m.wire_size(64, PbftCert::wire_size),
        }
    }
}

/// How a (possibly Byzantine) replica behaves.
///
/// These hooks cover *content-dependent* misbehavior that needs protocol
/// state to express (which client a batch favors, which sequence number is
/// equivocated on). Content-*independent* wire attacks — silence, delay,
/// replay, corruption, peer-set equivocation — are expressed at the network
/// boundary instead, via [`bft_sim::AdversarySpec`] on
/// [`crate::common::Scenario::with_adversaries`]; e.g. the old
/// `SilentLeader` variant is now `bft_sim::Attack::mute()` on replica 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol.
    Honest,
    /// As leader, never proposes requests from this client (censorship —
    /// the Q1 fairness adversary).
    Censor(ClientId),
    /// As leader, always proposes this client's requests first (reordering
    /// / front-running — the Q1 fairness adversary).
    Favor(ClientId),
    /// As leader, proposes different batches to different halves of the
    /// backups for every sequence number (equivocation — the safety
    /// adversary; the prepare phase must prevent divergent commits).
    Equivocate,
    /// As leader, delays every pre-prepare by the given virtual duration
    /// (the Prime/robustness adversary: slow enough to hurt, fast enough to
    /// dodge the view-change timer).
    DelayLeader(SimDuration),
}

/// PBFT's agreement state for one consensus slot (a sequence number within
/// a view); the slot is pre-prepared once it holds a digest.
#[derive(Debug, Clone, Default)]
pub(crate) struct PbftSlot {
    /// The view of the pre-prepare.
    view: View,
    rounds: Rounds,
}

/// PBFT replica configuration.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Quorum rules (n, f).
    pub q: QuorumRules,
    /// Authentication mode.
    pub auth: PbftAuth,
    /// Requests per batch.
    pub batch_size: usize,
    /// View-change timeout (τ2).
    pub view_timeout: SimDuration,
    /// How long a partially filled batch waits before being proposed
    /// anyway (only relevant when `batch_size > 1`).
    pub batch_delay: SimDuration,
    /// Proactive recovery period (τ8); `None` disables rejuvenation.
    pub recovery_period: Option<SimDuration>,
    /// Virtual rejuvenation downtime.
    pub recovery_duration: SimDuration,
    /// Test-only invariant sabotage (see [`PbftSabotage`]).
    pub sabotage: PbftSabotage,
}

/// Deliberately broken protocol invariants, behind a test-only switch.
///
/// These exist so the chaos campaign can prove it *catches* violations: a
/// sabotaged run must be flagged by the safety/liveness checker and shrunk
/// to a minimal reproducing fault plan. Never enable outside tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PbftSabotage {
    /// Protocol intact (the default).
    #[default]
    None,
    /// Suppress view changes entirely: a crashed leader is never replaced,
    /// so any leader crash turns into a liveness violation.
    DisableViewChange,
    /// Count the commit quorum one vote short (2f instead of 2f+1),
    /// breaking the quorum-intersection argument.
    CommitQuorumOffByOne,
    /// Every replica silently skips applying the k-th request it would
    /// execute (0-based), fabricating a plausible reply instead. Replica
    /// digests stay unanimous — only the semantic (per-workload) checkers
    /// can catch the lost update/append.
    DropExecution(u64),
}

impl PbftConfig {
    /// What authenticating a broadcast (`count` × `op`) and checking a
    /// received replica message cost, and how many acks a view-change vote
    /// needs: a MAC authenticator convinces only its receiver, so the new
    /// leader uses a MAC'd vote once 2f−1 other replicas vouch for it.
    fn auth_costs(&self) -> VoteAuth {
        match self.auth {
            PbftAuth::Mac => VoteAuth {
                send: (CryptoOp::MacGen, self.q.n - 1),
                check: CryptoOp::MacVerify,
                acks: (2 * self.q.f).saturating_sub(1),
            },
            PbftAuth::Signature => VoteAuth::SIGNED,
        }
    }

    /// Config from a scenario (timeouts derived from Δ).
    pub fn from_scenario(s: &Scenario, n: usize) -> PbftConfig {
        PbftConfig {
            q: QuorumRules { n, f: s.f },
            auth: PbftAuth::Mac,
            batch_size: s.batch_size,
            view_timeout: SimDuration(s.network.delta.0 * 4),
            batch_delay: SimDuration(s.network.base_delay.0 * 4),
            recovery_period: None,
            recovery_duration: SimDuration::from_millis(50),
            sabotage: PbftSabotage::None,
        }
    }
}

/// A PBFT replica actor.
pub struct PbftReplica {
    /// Identity, view gate, view-change votes, τ2, execution, slot log and
    /// the leader's next sequence number. PBFT re-arms τ2 on every relayed
    /// request and disarms it on every executed slot, so the intake's
    /// outstanding set stays unused.
    core: Core<PbftMsg, PbftSlot, PbftCert>,
    cfg: PbftConfig,
    behavior: Behavior,
    /// The prepare → commit pair: 2f prepares besides the pre-prepare,
    /// 2f+1 commits.
    rounds: RoundRules<PbftMsg, PbftSlot>,
    /// Pending partial-batch timer.
    batch_timer: Option<TimerId>,
    /// Timer id for the next proactive recovery (τ8).
    recovery_timer: Option<TimerId>,
    /// True while rejuvenating (unavailable).
    recovering: bool,
    /// Messages that arrive during a rejuvenation window; replayed at
    /// wake-up so the dark window delays traffic instead of losing it.
    recovery_buffer: Vec<(NodeId, PbftMsg)>,
    /// Stage bookkeeping for Figure 1 audits.
    stage: Stage,
}

impl PbftReplica {
    /// Create a replica that checkpoints every `checkpoint_interval` slots.
    pub fn new(
        me: ReplicaId,
        cfg: PbftConfig,
        store: Arc<KeyStore>,
        behavior: Behavior,
        checkpoint_interval: u64,
    ) -> Self {
        let (q, view_timeout) = (cfg.q, cfg.view_timeout);
        let dropped = match cfg.sabotage {
            PbftSabotage::DropExecution(k) => Some(k),
            _ => None,
        };
        let commit_quorum = match cfg.sabotage {
            PbftSabotage::CommitQuorumOffByOne => q.quorum() - 1,
            _ => q.quorum(),
        };
        let rounds = RoundRules {
            me,
            ext: |slot: &mut PbftSlot| &mut slot.rounds,
            prepare_quorum: 2 * q.f,
            commit_quorum,
            auth: cfg.auth_costs().send,
            prepare: |view, seq, digest, from| PbftMsg::Prepare {
                view,
                seq,
                digest,
                from,
            },
            commit: |view, seq, digest, from| PbftMsg::Commit {
                view,
                seq,
                digest,
                from,
            },
        };
        let exec = Execution::new().dropping_nth(dropped);
        let timing = (view_timeout, checkpoint_interval);
        let mut core = Core::new((me, q, store), PbftMsg::View, exec, timing, cfg.batch_size);
        core.auth = cfg.auth_costs();
        PbftReplica {
            core,
            cfg,
            behavior,
            rounds,
            batch_timer: None,
            recovery_timer: None,
            recovering: false,
            recovery_buffer: Vec::new(),
            stage: Stage::Ordering,
        }
    }

    // ---- request intake -------------------------------------------------

    fn on_request(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PbftMsg>) {
        // de-dup: answered already?
        let (core, view) = (&self.core, self.core.gate.view());
        let answer = reply_to_client(None, PbftMsg::Reply);
        if !Intake::admit(ctx, &core.store, &core.exec, &signed, view, answer) {
            return;
        }
        let in_mempool = core.mempool.contains(signed.request.id);
        let in_slot = (core.log.in_flight(core.exec.cursor())).any(|id| id == signed.request.id);
        if in_mempool || in_slot {
            // already queued/proposed; a backup (re)starts its τ2 timer so a
            // leader swallowing the request cannot stall liveness
            self.arm_view_timer(ctx);
            return;
        }
        if self.core.is_leader() {
            if let Behavior::Censor(victim) = self.behavior {
                if signed.request.id.client == victim {
                    return; // censorship: never propose the victim's requests
                }
            }
            self.core.mempool.push(&signed);
            self.propose(false, ctx);
        } else {
            // relay to the leader, keep a copy for when we become leader,
            // and arm τ2
            let leader = self.core.leader();
            self.core.mempool.push(&signed);
            ctx.send(NodeId::Replica(leader), PbftMsg::Request(signed));
            self.arm_view_timer(ctx);
        }
    }

    /// Serve a read-only request from the current state, without running
    /// consensus. The client needs 2f+1 *matching* replies — enough to
    /// guarantee the read reflects a state at least 2f+1 replicas agree on.
    /// Writes in the transaction are refused (the client falls back to the
    /// ordered path).
    fn on_read_only(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PbftMsg>) {
        ctx.charge_crypto(CryptoOp::Verify);
        if !signed.verify(&self.core.store) || !signed.request.txn.is_read_only() {
            return;
        }
        // each read op is answered by the app that serves it (kv get, log
        // offset probe, counter total)
        let sm = self.core.exec.sm();
        let reply = Reply {
            request: signed.request.id,
            view: self.core.gate.view(),
            result: sm.read_only_results(&signed.request.txn),
            state_digest: sm.digest(),
            speculative: true, // tentative: matching across 2f+1 finalizes it
        };
        ctx.charge_crypto(self.core.auth.send.0);
        ctx.send(
            NodeId::Client(signed.request.id.client),
            PbftMsg::Reply(reply),
        );
    }

    fn arm_view_timer(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.core.gate.in_view_change() {
            self.core.intake.arm(ctx);
        }
    }

    /// Recovery-aware τ2 discipline: total time within `[from, to]` in
    /// which *some* replica sat in a scheduled rejuvenation window. The
    /// rotation is deterministic and derived from shared configuration, so
    /// every replica can compute it locally: replica `i` first goes dark at
    /// `(i+1)·period` for `duration`, then every `duration + n·period`.
    /// Time stolen by scheduled unavailability must not indict the leader —
    /// τ2 extends by exactly this amount, so only clear-quorum time counts.
    fn scheduled_dark_overlap(&self, from: SimTime, to: SimTime) -> SimDuration {
        let Some(period) = self.cfg.recovery_period else {
            return SimDuration::ZERO;
        };
        let (p, d) = (period.0, self.cfg.recovery_duration.0);
        if p == 0 || d == 0 || to.0 <= from.0 {
            return SimDuration::ZERO;
        }
        let n = self.cfg.q.n as u64;
        let cycle = d + p * n;
        let mut dark: Vec<(u64, u64)> = Vec::new();
        for i in 0..n {
            let first = p * (i + 1);
            let k0 = from.0.saturating_sub(first + d) / cycle;
            let mut start = first + k0 * cycle;
            while start < to.0 {
                let end = start + d;
                if end > from.0 {
                    dark.push((start.max(from.0), end.min(to.0)));
                }
                start += cycle;
            }
        }
        dark.sort_unstable();
        let (mut stolen, mut cursor) = (0u64, from.0);
        for (s, e) in dark {
            let s = s.max(cursor);
            if e > s {
                stolen += e - s;
                cursor = e;
            }
        }
        SimDuration(stolen)
    }

    /// τ2 fired: the pending work indicts the leader (or the campaign for
    /// its successor failed) — unless scheduled rejuvenation windows stole
    /// the time, which extends τ2 by exactly the stolen amount so only
    /// clear-quorum time accumulates toward the timeout.
    fn on_view_timeout(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let stolen = self.scheduled_dark_overlap(self.core.intake.armed_at(), ctx.now());
        if stolen > SimDuration::ZERO {
            self.core.intake.rearm_for(ctx, stolen);
        } else if self.cfg.sabotage != PbftSabotage::DisableViewChange {
            let (gate, votes) = (&self.core.gate, &self.core.votes);
            if let Some(target) = votes.escalation(gate.view(), gate.in_view_change(), true) {
                self.start_view_change(target, ctx);
            }
        }
    }

    // ---- leader: propose -------------------------------------------------

    /// Propose what is queued; a partial batch waits for the batch timer
    /// unless `force_partial`.
    fn propose(&mut self, force_partial: bool, ctx: &mut Context<'_, PbftMsg>) {
        if !self.core.is_leader() || self.core.gate.in_view_change() || self.recovering {
            return;
        }
        if let Behavior::Favor(favored) = self.behavior {
            // unfair reordering: the favored client's requests jump the
            // queue and everyone else is served in REVERSE arrival order —
            // the adversarial manipulation order-fairness (Q1) is about
            let queue = self.core.mempool.queue_mut();
            queue.reverse();
            // stable sort: favored first, reversed order preserved behind it
            queue.sort_by_key(|r| r.request.id.client != favored);
        }
        self.core.drop_ordered();
        while !self.core.mempool.is_empty() && self.core.next_seq <= self.core.high_water() {
            // partial batch: wait a moment for more requests to amortize
            // the consensus instance over (the classic batching lever)
            if self.core.mempool.len() < self.cfg.batch_size && !force_partial {
                if self.batch_timer.is_none() {
                    self.batch_timer =
                        Some(ctx.set_timer(TimerKind::T7Heartbeat, self.cfg.batch_delay));
                }
                return;
            }
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
            let view = self.core.gate.view();
            if self.behavior == Behavior::Equivocate {
                // one batch to the lower half of the backups, the next — or
                // an empty one when nothing else is queued — to the upper
                // half; the equivocator itself records nothing coherent
                let (seq, n, me) = (self.core.next_seq, self.cfg.q.n as u32, self.core.me.0);
                self.core.next_seq = seq.next();
                ctx.charge_crypto_n(self.core.auth.send.0, self.core.auth.send.1);
                ctx.observe(Observation::Marker {
                    label: "equivocated",
                });
                let mempool = &mut self.core.mempool;
                for (lower, batch) in [(true, mempool.take()), (false, mempool.take())] {
                    let half = (0..n).filter(|i| *i != me && (*i < n / 2) == lower);
                    let digest = digest_of(&batch);
                    let msg = PbftMsg::PrePrepare {
                        view,
                        seq,
                        digest,
                        batch,
                    };
                    ctx.multicast(half.map(NodeId::replica), msg);
                }
                continue;
            }
            let core = &mut self.core;
            let Some((seq, digest, batch)) = core.mempool.cut(ctx, &mut core.next_seq) else {
                return;
            };
            ctx.charge_crypto_n(self.core.auth.send.0, self.core.auth.send.1);
            let slot = self.core.log.slot(seq);
            (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch.clone()), view);
            let msg = PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            };
            if let Behavior::DelayLeader(delay) = self.behavior {
                // the delay adversary charges idle time before every
                // proposal, throttling throughput while staying below τ2
                ctx.charge(delay);
            }
            ctx.broadcast_replicas(msg);
        }
    }

    // ---- ordering phases -------------------------------------------------

    fn on_pre_prepare(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let PbftMsg::PrePrepare {
            view,
            seq,
            digest,
            batch,
        } = msg
        else {
            unreachable!("on_pre_prepare only receives pre-prepares")
        };
        let (view, seq, digest) = (*view, *seq, *digest);
        if !self.admit_proposal(ctx, (from, view, msg), (seq, digest), batch) {
            return;
        }
        let slot = self.core.log.slot(seq);
        if slot.digest.is_some() && slot.ext.view == view {
            // conflicting pre-prepare for the same (view, seq): ignore —
            // this is exactly what stops an equivocating leader
            if slot.digest != Some(digest) {
                ctx.observe(Observation::Marker {
                    label: "equivocation-detected",
                });
            }
            return;
        }
        self.core.mempool.remove(batch);
        (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch.clone()), view);
        self.arm_view_timer(ctx);
        let slot = self.core.log.slot(seq);
        if self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.execute(ctx);
        }
    }

    // ---- execution -------------------------------------------------------

    /// Count a prepare or commit of the current view (also used for
    /// replay); one that raced ahead of its view is buffered by the gate.
    fn on_vote(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let (PbftMsg::Prepare {
            view,
            seq,
            digest,
            from: r,
        }
        | PbftMsg::Commit {
            view,
            seq,
            digest,
            from: r,
        }) = msg
        else {
            unreachable!("on_vote only receives prepares and commits")
        };
        if !self.core.gate.admit(from, *view, msg) {
            return;
        }
        ctx.charge_crypto(self.core.auth.check);
        let commit = matches!(msg, PbftMsg::Commit { .. });
        let slot = self.core.log.slot(*seq);
        // a prepare for a slot pre-prepared in another view is stale
        let stale = !commit && slot.digest.is_some() && slot.ext.view != *view;
        let vote = (commit, *r);
        if !stale && self.rounds.count(ctx, slot, (*view, *seq), vote, *digest) {
            self.execute(ctx);
        }
    }

    // ---- proactive recovery (τ8) ------------------------------------------

    fn on_recovery_watchdog(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.recovering {
            // rejuvenation complete
            self.recovering = false;
            self.core.gate.set_in_view_change(false);
            ctx.observe(Observation::RecoveryDone);
            // schedule the next round (full rotation later)
            if let Some(period) = self.cfg.recovery_period {
                let next = SimDuration(period.0 * self.cfg.q.n as u64);
                self.recovery_timer = Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, next));
            }
            // the dark window delayed traffic instead of losing it: rejoin
            // with everything that arrived
            let buffered = std::mem::take(&mut self.recovery_buffer);
            self.rejoin(buffered, ctx);
        } else {
            // begin rejuvenation: drop volatile state, go dark briefly. Any
            // timer armed for the pre-rejuvenation incarnation is stale —
            // disarming τ2 here is what stops a just-woken replica from
            // firing spurious view changes against a healthy leader.
            self.recovering = true;
            ctx.observe(Observation::RecoveryStart);
            self.enter_stage(Stage::Recovery, ctx);
            self.core.mempool = Mempool::new(self.cfg.batch_size);
            self.core.votes = ViewChange::default();
            self.core.intake.disarm(ctx);
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
            self.recovery_timer =
                Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, self.cfg.recovery_duration));
        }
    }
}

impl ViewChanger for PbftReplica {
    type Msg = PbftMsg;
    type Ext = PbftSlot;
    type Payload = PbftCert;

    fn core(&mut self) -> &mut Core<PbftMsg, PbftSlot, PbftCert> {
        &mut self.core
    }

    /// Enter `stage` (observing the transition) unless already there.
    fn enter_stage(&mut self, stage: Stage, ctx: &mut Context<'_, PbftMsg>) {
        if self.stage != stage {
            self.stage = stage;
            ctx.observe(Observation::StageEnter { stage });
        }
    }

    /// Every slot above the stable checkpoint prepared here, with the view
    /// it was prepared in.
    fn report(&mut self, _: &mut Context<'_, PbftMsg>) -> Vec<Entry<PbftCert>> {
        let above = self.core.log.range(self.core.ckpt.low_water().next()..);
        let prepared = above.filter(|(_, s)| s.ext.rounds.prepared());
        let cert = |(seq, s): (&SeqNum, &Slot<PbftSlot>)| {
            Some((*seq, s.digest?, PbftCert(s.ext.view, s.batch.clone()?)))
        };
        prepared.filter_map(cert).collect()
    }

    fn assemble(&mut self, target: View) -> Vec<Entry<PbftCert>> {
        self.core.votes.highest_certified(target)
    }

    fn adopt(&mut self, (seq, digest, cert): Entry<PbftCert>, ctx: &mut Context<'_, PbftMsg>) {
        let PbftCert(_, batch) = cert;
        self.core.mempool.remove(&batch);
        let (view, leads) = (self.core.gate.view(), self.core.is_leader());
        let slot = self.core.log.reinstall(seq, digest, batch);
        slot.ext.view = view;
        if !leads && self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.execute(ctx);
        }
    }

    /// Above the stable checkpoint and at most the log window beyond it.
    fn in_window(&mut self, seq: SeqNum) -> bool {
        seq > self.core.ckpt.low_water() && seq <= self.core.high_water()
    }

    /// The requests of the new view's dead slots go back to the mempool.
    fn requeue(&mut self, stranded: Vec<SignedRequest>) {
        self.core.mempool.requeue(&self.core.exec, &stranded);
    }

    fn resume(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        self.propose(false, ctx);
    }

    fn execute(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let deliver = reply_to_client(Some(self.core.auth.send.0), PbftMsg::Reply);
        let stage = &mut self.stage;
        self.core.drain(ctx, deliver, |ctx, intake, _, _| {
            *stage = Stage::Ordering;
            // outstanding work done? disarm τ2; else re-arm
            intake.disarm(ctx);
        });
    }

    /// Pending timers died with the crash, and so does a rejuvenation.
    fn forget(&mut self, _: bool) {
        (self.batch_timer, self.recovery_timer, self.recovering) = (None, None, false);
        self.recovery_buffer.clear();
    }

    /// τ8, when proactive recovery is on: replicas take turns, replica i
    /// rejuvenating at (i+1)·period, then every n·period.
    fn arm_periodic(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if let Some(period) = self.cfg.recovery_period {
            let offset = SimDuration(period.0 * (self.core.me.0 as u64 + 1));
            self.recovery_timer = Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, offset));
        }
    }
}

impl Actor<PbftMsg> for PbftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        self.start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        if self.recovering {
            // unavailable during rejuvenation — but dark, not deaf: buffer
            // the traffic and replay it at wake-up
            if self.recovery_buffer.len() < 10_000 {
                self.recovery_buffer.push((from, msg.clone()));
            }
            return;
        }
        match msg {
            PbftMsg::Request(signed) => self.on_request(signed.clone(), ctx),
            PbftMsg::PrePrepare { .. } => self.on_pre_prepare(from, msg, ctx),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => self.on_vote(from, msg, ctx),
            PbftMsg::View(vc) => self.on_view_msg(from, vc, ctx),
            PbftMsg::ReadOnly(signed) => self.on_read_only(signed.clone(), ctx),
            PbftMsg::Reply(_) => {} // replicas ignore replies
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PbftMsg>) {
        if self.recovering && kind != TimerKind::T8RecoveryWatchdog {
            return; // only the wake-up watchdog fires while dark
        }
        match kind {
            TimerKind::T2ViewChange if self.core.intake.fired(id) => self.on_view_timeout(ctx),
            TimerKind::T7Heartbeat if Some(id) == self.batch_timer => {
                self.batch_timer = None;
                self.propose(true, ctx);
            }
            TimerKind::T8RecoveryWatchdog if Some(id) == self.recovery_timer => {
                self.on_recovery_watchdog(ctx);
            }
            _ => self.on_view_timer(id, ctx),
        }
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, PbftMsg>) {
        self.restart(mode, ctx);
    }
}

/// PBFT's client protocol hooks: submit to the leader, retransmit to all,
/// accept on f+1 matching replies.
pub struct PbftClientProto;

impl ClientProtocol for PbftClientProto {
    type Msg = PbftMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;

    fn wrap_request(req: SignedRequest) -> PbftMsg {
        PbftMsg::Request(req)
    }

    fn unwrap_reply(msg: &PbftMsg) -> Option<&Reply> {
        match msg {
            PbftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}

/// PBFT's client hooks with the read-only optimization (dimension P6):
/// read-only transactions are broadcast to all replicas and answered from
/// their current state, with acceptance at **2f+1 matching replies**;
/// writes (and reads whose quorum fails to match under concurrent writes,
/// timer τ1) go through the ordered path with the normal f+1 reply quorum.
pub struct PbftReadProto;

impl PbftReadProto {
    /// Whether the request is still on the read fast path.
    fn reading(rec: &Pending<()>) -> bool {
        rec.signed.request.txn.is_read_only() && !rec.retransmitted
    }
}

impl ClientProtocol for PbftReadProto {
    type Msg = PbftMsg;
    type Extra = ();
    const SUBMIT: SubmitPolicy = SubmitPolicy::LeaderThenBroadcast;
    const RETRANSMIT_DELTAS: u64 = 2;

    fn wrap_request(req: SignedRequest) -> PbftMsg {
        PbftMsg::Request(req)
    }

    fn unwrap_reply(msg: &PbftMsg) -> Option<&Reply> {
        PbftClientProto::unwrap_reply(msg)
    }

    fn submit(signed: SignedRequest, leader: ReplicaId, ctx: &mut Context<'_, PbftMsg>) {
        if signed.request.txn.is_read_only() {
            // fast path: ask every replica's current state
            ctx.broadcast_replicas(PbftMsg::ReadOnly(signed));
        } else {
            ctx.send(NodeId::Replica(leader), PbftMsg::Request(signed));
        }
    }

    fn on_reply(
        from: ReplicaId,
        msg: &PbftMsg,
        rec: &mut Pending<()>,
        q: &QuorumRules,
        ctx: &mut Context<'_, PbftMsg>,
    ) -> Option<(TxnResult, bool)> {
        let reply = Self::unwrap_reply(msg)?;
        // 2f+1 matching reads, f+1 ordered replies
        let quorum = if Self::reading(rec) {
            q.quorum()
        } else {
            q.weak()
        };
        let CollectStatus::Complete { reply: agreed, .. } =
            rec.collector.offer(from, reply.clone(), quorum)
        else {
            return None;
        };
        let fast = agreed.speculative; // read replies are marked tentative
        if fast {
            ctx.observe(Observation::Marker { label: "fast-read" });
        }
        Some((agreed.result, fast))
    }

    fn on_timeout(rec: &mut Pending<()>, _q: &QuorumRules, ctx: &mut Context<'_, PbftMsg>) {
        // read quorum failed to match (concurrent writes) or messages lost:
        // fall back to the ordered path, broadcast so the leader cannot hide
        if Self::reading(rec) {
            ctx.observe(Observation::Marker {
                label: "read-fallback",
            });
            rec.collector.clear();
        }
        ctx.broadcast_replicas(PbftMsg::Request(rec.signed.clone()));
    }
}

/// Options for a PBFT run beyond the common scenario.
#[derive(Debug, Clone)]
pub struct PbftOptions {
    /// Authentication mode.
    pub auth: PbftAuth,
    /// Per-replica behaviors (`Honest` for any replica not listed).
    pub behaviors: Vec<(ReplicaId, Behavior)>,
    /// Proactive recovery period (τ8).
    pub recovery_period: Option<SimDuration>,
    /// Test-only invariant sabotage (see [`PbftSabotage`]); keep the
    /// default outside tests.
    pub sabotage: PbftSabotage,
}

impl Default for PbftOptions {
    fn default() -> Self {
        PbftOptions {
            auth: PbftAuth::Mac,
            behaviors: Vec::new(),
            recovery_period: None,
            sabotage: PbftSabotage::None,
        }
    }
}

/// The replica constructor both PBFT entry points share.
fn replica_for<'a>(
    scenario: &'a Scenario,
    options: &'a PbftOptions,
) -> impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> PbftReplica + 'a {
    move |me, q, store| {
        let mut cfg = PbftConfig::from_scenario(scenario, q.n);
        cfg.auth = options.auth;
        cfg.recovery_period = options.recovery_period;
        cfg.sabotage = options.sabotage;
        let behavior = options
            .behaviors
            .iter()
            .find(|(r, _)| *r == me)
            .map_or(Behavior::Honest, |(_, b)| *b);
        PbftReplica::new(me, cfg, store, behavior, scenario.checkpoint_interval)
    }
}

/// Run PBFT under a scenario. Returns the raw outcome for auditing and
/// reporting.
pub fn run(scenario: &Scenario, options: &PbftOptions) -> RunOutcome {
    let n = scenario.n(3 * scenario.f + 1);
    launch::<PbftClientProto, _>(scenario, n, replica_for(scenario, options))
}

/// Run PBFT with read-optimized clients (P6: read-only requests answered
/// from current state with a 2f+1 reply quorum).
pub fn run_with_read_optimization(scenario: &Scenario, options: &PbftOptions) -> RunOutcome {
    let n = scenario.n(3 * scenario.f + 1);
    launch::<PbftReadProto, _>(scenario, n, replica_for(scenario, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FaultPlan, SafetyAuditor, SimTime};

    fn audit_excluding(outcome: &RunOutcome, byz: &[u32]) {
        SafetyAuditor::excluding(byz.iter().map(|i| NodeId::replica(*i)).collect())
            .assert_safe(&outcome.log);
    }

    fn accepted(outcome: &RunOutcome) -> usize {
        outcome.log.accepted()
    }

    /// What a [`Spy`] saw at its replica.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        /// A checkpoint attestation `(seq, state digest)` arrived.
        Attested(SeqNum, Digest),
        /// A state request arrived while the replica stood at `cursor`.
        Asked { cursor: SeqNum },
        /// A snapshot `(slot seq, state digest)` arrived.
        Shipped(SeqNum, Digest),
        /// The replica restarted: where it stood before, and what it holds
        /// after against its stable checkpoint proof.
        Restarted {
            before: SeqNum,
            after: (SeqNum, Digest),
            stable: Option<(SeqNum, Digest)>,
        },
    }

    /// A PBFT replica that records the checkpoint traffic around it.
    struct Spy {
        inner: PbftReplica,
        seen: Arc<std::sync::Mutex<Vec<Seen>>>,
    }

    impl Spy {
        fn saw(&self, seen: Seen) {
            self.seen.lock().expect("no panic while held").push(seen);
        }
    }

    impl Actor<PbftMsg> for Spy {
        fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
            let cursor = self.inner.core.exec.cursor();
            match msg {
                PbftMsg::View(ViewMsg::Checkpoint {
                    seq, state_digest, ..
                }) => self.saw(Seen::Attested(*seq, *state_digest)),
                PbftMsg::View(ViewMsg::StateRequest { .. }) => self.saw(Seen::Asked { cursor }),
                PbftMsg::View(ViewMsg::StateTransfer { slot_seq, snapshot }) => {
                    self.saw(Seen::Shipped(*slot_seq, snapshot.digest))
                }
                _ => {}
            }
            self.inner.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PbftMsg>) {
            self.inner.on_timer(id, kind, ctx);
        }

        fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, PbftMsg>) {
            let before = self.inner.core.exec.cursor();
            self.inner.on_recover(mode, ctx);
            let exec = &self.inner.core.exec;
            let stable = self.inner.core.ckpt.stable();
            self.saw(Seen::Restarted {
                before,
                after: (exec.cursor(), exec.sm().digest()),
                stable: stable.map(|p| (p.seq, p.digest)),
            });
        }
    }

    /// [`run`] with every replica wrapped in a [`Spy`]; returns what they
    /// saw, in order.
    fn run_spied(scenario: &Scenario) -> (RunOutcome, Vec<Seen>) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let options = PbftOptions::default();
        let mut replica = replica_for(scenario, &options);
        let n = scenario.n(3 * scenario.f + 1);
        let out = launch::<PbftClientProto, _>(scenario, n, |me, q, store| Spy {
            inner: replica(me, q, store),
            seen: seen.clone(),
        });
        let seen = seen.lock().expect("run over").clone();
        (out, seen)
    }

    #[test]
    fn fault_free_run_commits_everything() {
        let s = Scenario::small(1).with_load(2, 20);
        let out = run(&s, &PbftOptions::default());
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 40);
        // no view change needed
        assert_eq!(out.log.max_view(), View(0));
    }

    #[test]
    fn f2_cluster_works() {
        let s = Scenario::small(2).with_load(1, 20);
        let out = run(&s, &PbftOptions::default());
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn batching_reduces_consensus_instances() {
        let s1 = Scenario::small(1).with_load(8, 25).with_batch(1);
        let s8 = Scenario::small(1).with_load(8, 25).with_batch(8);
        let out1 = run(&s1, &PbftOptions::default());
        let out8 = run(&s8, &PbftOptions::default());
        assert_eq!(accepted(&out1), 200);
        assert_eq!(accepted(&out8), 200);
        let commits = |o: &RunOutcome| o.log.count(|e| matches!(e.obs, Observation::Commit { .. }));
        assert!(
            commits(&out8) < commits(&out1),
            "batching must reduce consensus instances: {} vs {}",
            commits(&out8),
            commits(&out1)
        );
    }

    #[test]
    fn leader_crash_triggers_view_change_and_recovers_liveness() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(5_000_000)));
        let out = run(&s, &PbftOptions::default());
        audit_excluding(&out, &[0]);
        assert!(out.log.max_view() >= View(1), "view change must happen");
        assert_eq!(
            accepted(&out),
            20,
            "all requests complete despite leader crash"
        );
    }

    #[test]
    fn silent_leader_triggers_view_change() {
        // The leader is compromised at the wire: every outgoing envelope is
        // censored (the envelope-layer successor of the old
        // `Behavior::SilentLeader` hook). Backups must view-change past it.
        let s = Scenario::small(1).with_load(1, 10).with_adversaries(vec![
            bft_sim::AdversarySpec::new(0, bft_sim::Attack::mute()),
        ]);
        let out = run(&s, &PbftOptions::default());
        audit_excluding(&out, &[0]);
        assert!(out.log.max_view() >= View(1));
        assert_eq!(accepted(&out), 10);
    }

    #[test]
    fn equivocating_leader_cannot_violate_safety() {
        let s = Scenario::small(1).with_load(2, 10);
        let out = run(
            &s,
            &PbftOptions {
                behaviors: vec![(ReplicaId(0), Behavior::Equivocate)],
                ..Default::default()
            },
        );
        // the leader did split its proposals between the halves
        assert!(out.log.marker_count("equivocated") > 0);
        // safety must hold among the three honest replicas
        audit_excluding(&out, &[0]);
        // progress too: the slot the backups prepared is re-proposed by the
        // next view's leader
        assert!(out.log.max_view() >= View(1), "the equivocator is replaced");
        assert_eq!(accepted(&out), 20);
    }

    #[test]
    fn checkpointing_bounds_retained_state() {
        let with = Scenario::small(1).with_load(1, 60);
        let out_with = run(&with, &PbftOptions::default());
        let stable = out_with
            .log
            .count(|e| matches!(e.obs, Observation::StableCheckpoint { .. }));
        assert!(stable > 0, "stable checkpoints must form");
        audit_excluding(&out_with, &[]);
    }

    #[test]
    fn in_dark_replica_catches_up_via_state_transfer() {
        // partition replica 3 from everyone for a while, then heal
        let peers: Vec<NodeId> = (0..3).map(NodeId::replica).collect();
        // traffic must continue past the heal at 100 ms so checkpoint
        // attestations reach the healed replica and reveal it is behind
        let mut faults = FaultPlan::none().isolate(
            NodeId::replica(3),
            peers.clone(),
            SimTime::ZERO,
            SimTime(100_000_000),
        );
        // its own messages travel slowly, so a peer has executed past the
        // checkpoint by the time it is asked for it
        for peer in peers {
            faults = faults.slow_link(NodeId::replica(3), peer, SimDuration::from_millis(3));
        }
        let s = Scenario::small(1).with_load(1, 250).with_faults(faults);
        let (out, seen) = run_spied(&s);
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 250);
        assert!(
            out.log.marker_count("state-transferred") > 0,
            "the in-dark replica must catch up via state transfer"
        );
        // a checkpoint holds no copy of the state: what is shipped is
        // rebuilt when the request arrives, and must still be the state the
        // server attested although it has moved on since
        let mut shipped = seen.iter().enumerate().filter_map(|(i, s)| match *s {
            Seen::Shipped(slot_seq, digest) => Some((i, slot_seq, digest)),
            _ => None,
        });
        let (i, slot_seq, digest) = shipped.next().expect("a snapshot was shipped");
        assert!(seen.contains(&Seen::Attested(slot_seq, digest)));
        let asked = seen[..i].iter().rev().find_map(|s| match s {
            Seen::Asked { cursor } => Some(*cursor),
            _ => None,
        });
        let server_stood_at = asked.expect("shipped on request");
        assert!(server_stood_at > slot_seq, "{server_stood_at} {slot_seq}");
    }

    #[test]
    fn amnesia_restart_reinstalls_the_stable_checkpoint() {
        // replica 2 loses its memory well past the first stable checkpoint
        let s = Scenario::small(1).with_load(4, 100).with_faults(
            FaultPlan::none().crash_recover_amnesia(
                NodeId::replica(2),
                SimTime(21_700_000),
                SimTime(25_000_000),
            ),
        );
        let (out, seen) = run_spied(&s);
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 400);
        assert_eq!(out.log.marker_count("amnesia-restart"), 1);
        let restarted = seen.iter().find_map(|s| match *s {
            Seen::Restarted {
                before,
                after,
                stable,
            } => Some((before, after, stable.expect("a stable checkpoint"))),
            _ => None,
        });
        let (before, after, stable) = restarted.expect("replica 2 restarted");
        assert!(before > stable.0, "the state had moved on: {before}");
        assert_eq!(after, stable, "the stable state is what comes back");
    }

    #[test]
    fn signature_mode_works_and_costs_more_cpu() {
        let s = Scenario::small(1)
            .with_load(1, 20)
            .with_cost_model(bft_crypto::CryptoCostModel::realistic());
        let mac = run(
            &s,
            &PbftOptions {
                auth: PbftAuth::Mac,
                ..Default::default()
            },
        );
        let sig = run(
            &s,
            &PbftOptions {
                auth: PbftAuth::Signature,
                ..Default::default()
            },
        );
        audit_excluding(&mac, &[]);
        audit_excluding(&sig, &[]);
        assert_eq!(accepted(&mac), 20);
        assert_eq!(accepted(&sig), 20);
        let cpu = |o: &RunOutcome| {
            (0..4)
                .map(|i| o.metrics.node(NodeId::replica(i)).cpu.0)
                .sum::<u64>()
        };
        assert!(
            cpu(&sig) > cpu(&mac) * 3,
            "signatures must dominate MAC CPU cost: {} vs {}",
            cpu(&sig),
            cpu(&mac)
        );
    }

    #[test]
    fn proactive_recovery_cycles_replicas() {
        let s = Scenario::small(1).with_load(1, 40);
        let out = run(
            &s,
            &PbftOptions {
                recovery_period: Some(SimDuration::from_millis(30)),
                ..Default::default()
            },
        );
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 40);
        let starts = out
            .log
            .count(|e| matches!(e.obs, Observation::RecoveryStart));
        let dones = out
            .log
            .count(|e| matches!(e.obs, Observation::RecoveryDone));
        assert!(starts > 0, "rejuvenation must run");
        assert!(dones >= starts.saturating_sub(1), "rejuvenations complete");
    }

    #[test]
    fn lifecycle_stages_all_visited() {
        // Figure 1: ordering, execution, checkpointing, view-change,
        // recovery all appear in one run. The leader stays down 2s: τ2
        // discounts scheduled rejuvenation windows, so the backups need
        // that long to accumulate the clear-quorum time that elects a new
        // leader (a short outage is ridden out without a view change).
        let s = Scenario::small(1)
            .with_load(1, 40)
            .with_faults(FaultPlan::none().crash_recover(
                NodeId::replica(0),
                SimTime(5_000_000),
                SimTime(2_000_000_000),
            ));
        let out = run(
            &s,
            &PbftOptions {
                recovery_period: Some(SimDuration::from_millis(40)),
                ..Default::default()
            },
        );
        let stages = out.log.stages_of(NodeId::replica(1));
        for want in [
            Stage::Ordering,
            Stage::Execution,
            Stage::Checkpointing,
            Stage::ViewChange,
            Stage::Recovery,
        ] {
            assert!(stages.contains(&want), "stage {want} missing: {stages:?}");
        }
    }

    #[test]
    fn read_only_optimization_bypasses_consensus() {
        use bft_core::workload::WorkloadConfig;
        // a read-heavy workload: most requests take the fast 2f+1 read path
        let s = Scenario::small(1)
            .with_load(1, 30)
            .with_workload(WorkloadConfig::uniform().with_reads(0.8));
        let out = run_with_read_optimization(&s, &PbftOptions::default());
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 30);
        let fast_reads = out.log.marker_count("fast-read");
        assert!(
            fast_reads >= 15,
            "most reads take the fast path, got {fast_reads}"
        );
        // fast reads run no consensus: commits < requests
        let commits = out
            .log
            .count(|e| e.node == NodeId::replica(1) && matches!(e.obs, Observation::Commit { .. }));
        assert!(
            (commits as u64) < 30,
            "reads must bypass ordering: {commits} consensus instances for 30 requests"
        );
    }

    #[test]
    fn read_optimization_under_concurrent_writers_stays_safe() {
        use bft_core::workload::WorkloadConfig;
        // several clients, mixed reads/writes on a hot key: some read
        // quorums will mismatch and fall back to the ordered path
        let s = Scenario::small(1)
            .with_load(4, 15)
            .with_workload(WorkloadConfig::contended(0.6).with_reads(0.5));
        let out = run_with_read_optimization(&s, &PbftOptions::default());
        audit_excluding(&out, &[]);
        assert_eq!(accepted(&out), 60, "fallback keeps mixed workloads live");
    }

    /// Regression: a vote that reached a slot before its proposal was
    /// counted toward whatever digest the proposal then brought. r1's
    /// prepare for X reaches r2 before leader r0's pre-prepare for Y; with
    /// its own prepare for Y, r2 counted 2f = 2 prepares, became prepared
    /// on {r1: X, r2: Y} and sent Commit(Y).
    #[test]
    fn an_early_prepare_for_another_digest_does_not_prepare_the_slot() {
        use crate::common::script::{play, rival_batches, Script};
        let store = Scenario::small(1).key_store();
        let [(x, _), (y, batch)] = rival_batches(&store);
        let (view, seq) = (View(0), SeqNum(1));
        let early = PbftMsg::Prepare {
            view,
            seq,
            digest: x,
            from: ReplicaId(1),
        };
        let proposal = PbftMsg::PrePrepare {
            view,
            seq,
            digest: y,
            batch,
        };
        let scripts = vec![
            (1, Script::new(2, vec![early], vec![])),
            (0, Script::new(2, vec![], vec![proposal])),
        ];
        let cfg = PbftConfig::from_scenario(&Scenario::small(1), 4);
        let replica = PbftReplica::new(ReplicaId(2), cfg, store, Behavior::Honest, 16);
        let (_, sent) = play(scripts, replica);
        let prepared_y = |m: &PbftMsg| matches!(m, PbftMsg::Prepare { digest, .. } if *digest == y);
        assert!(sent.iter().any(prepared_y), "r2 accepted the proposal");
        for msg in &sent {
            assert!(!matches!(msg, PbftMsg::Commit { .. }), "sent {msg:?}");
            // τ2 fires before the run ends: r2 reports nothing prepared
            if let PbftMsg::View(ViewMsg::ViewChange { report, .. }) = msg {
                assert_eq!(*report, vec![]);
            }
        }
    }

    /// The new-view messages replica r1 — the leader of views 1 and 5 —
    /// broadcast, once per view, while r2 and r3 play their rounds at it.
    fn new_views(
        auth: PbftAuth,
        rounds: [Vec<Vec<PbftMsg>>; 2],
    ) -> Vec<(View, Vec<Entry<PbftCert>>)> {
        use crate::common::script::{play, Script};
        let s = Scenario::small(1);
        let mut cfg = PbftConfig::from_scenario(&s, 4);
        cfg.auth = auth;
        let interval = s.checkpoint_interval;
        let replica =
            PbftReplica::new(ReplicaId(1), cfg, s.key_store(), Behavior::Honest, interval);
        let [r2, r3] = rounds.map(|rounds| Script { to: 1, rounds });
        let (_, sent) = play(vec![(2, r2), (3, r3)], replica);
        let mut views: Vec<(View, Vec<Entry<PbftCert>>)> = Vec::new();
        for msg in sent {
            if let PbftMsg::View(ViewMsg::NewView { view, proposals }) = msg {
                if views.iter().all(|(v, _)| *v != view) {
                    views.push((view, proposals));
                }
            }
        }
        views
    }

    /// `from`'s vote for view `target`, its stable checkpoint at `stable`.
    fn vote(from: u32, target: u64, stable: u64, report: Vec<Entry<PbftCert>>) -> PbftMsg {
        let (new_view, from) = (View(target), ReplicaId(from));
        let stable = (SeqNum(stable), Digest([stable as u8; 32]));
        PbftMsg::View(ViewMsg::ViewChange {
            new_view,
            stable,
            report,
            from,
        })
    }

    #[test]
    fn a_mac_new_view_waits_for_every_vote_to_be_acked() {
        let ack = |from, voter| {
            let (view, voter, from) = (View(1), ReplicaId(voter), ReplicaId(from));
            PbftMsg::View(ViewMsg::Ack { view, voter, from })
        };
        // r2's and r3's votes pull r1 in: 2f+1 = 3 votes, but in MAC mode
        // each foreign one needs 2f−1 = 1 ack
        let votes = |from| vec![vote(from, 1, 0, vec![])];
        let mac = |r2_late, r3_late| {
            new_views(
                PbftAuth::Mac,
                [vec![votes(2), r2_late], vec![votes(3), r3_late]],
            )
        };
        assert_eq!(mac(vec![], vec![]), vec![], "no acks: no new view");
        assert_eq!(mac(vec![], vec![ack(3, 2)]), vec![], "r3's vote is unacked");
        let installed = vec![(View(1), vec![])];
        assert_eq!(mac(vec![ack(2, 3)], vec![ack(3, 2)]), installed);
        // a signed vote convinces on its own
        let signed = new_views(PbftAuth::Signature, [vec![votes(2)], vec![votes(3)]]);
        assert_eq!(signed, installed);
    }

    #[test]
    fn the_new_leader_reproposes_the_highest_view_above_every_stable_checkpoint() {
        use crate::common::script::rival_batches;
        let [(x, bx), (y, by)] = rival_batches(&Scenario::small(1).key_store());
        let prepared = |seq, digest, view, batch: &Vec<SignedRequest>| {
            (SeqNum(seq), digest, PbftCert(View(view), batch.clone()))
        };
        let r2 = vec![prepared(3, x, 0, &bx), prepared(5, x, 1, &bx)];
        let r3 = vec![
            prepared(1, y, 0, &by),
            prepared(2, y, 0, &by),
            prepared(3, y, 2, &by),
        ];
        // r2, stable at 2, reports its lower-view entry for slot 3 first
        let rounds = [
            vec![vec![vote(2, 5, 2, r2)]],
            vec![vec![], vec![vote(3, 5, 0, r3)]],
        ];
        let views = new_views(PbftAuth::Signature, rounds);
        let empty: Vec<SignedRequest> = Vec::new();
        let null = (SeqNum(4), digest_of(&empty), PbftCert(View(5), empty));
        // nothing at or below r2's stable checkpoint 2; slot 3 from the
        // higher view; slot 4 a null batch; slot 5 as reported
        let proposals = vec![prepared(3, y, 2, &by), null, prepared(5, x, 1, &bx)];
        assert_eq!(views, vec![(View(5), proposals)]);
    }

    #[test]
    fn deterministic_runs() {
        let s = Scenario::small(1).with_load(2, 15);
        let a = run(&s, &PbftOptions::default());
        let b = run(&s, &PbftOptions::default());
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.log.entries.len(), b.log.entries.len());
    }
}
