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
//! * **View-change** — timer τ2 triggers a view change; 2f+1 view-change
//!   messages let the new leader install the view with a new-view message
//!   re-proposing every prepared request. In MAC mode (the Castro-Liskov
//!   '02 variant) `view-change-ack` messages substitute for the
//!   non-repudiation signatures would provide (design choice 11).
//! * **Checkpointing** — every `interval` sequence numbers replicas
//!   digest their state and exchange checkpoint attestations; 2f+1
//!   matching attestations make the checkpoint stable, the log truncates,
//!   and in-dark replicas catch up by transfer of a rebuilt snapshot.
//! * **Recovery** — optional proactive rejuvenation on the watchdog timer
//!   τ8 (replicas take turns; a recovering replica is unavailable and
//!   re-syncs via state transfer afterwards).
//!
//! Byzantine leader variants ([`Behavior`]) implement the adversaries the
//! experiments need: silent, censoring, reordering (unfair) and
//! equivocating leaders. Safety holds under all of them — the audit at the
//! end of every experiment proves it for the run.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::{digest_of, CryptoOp, KeyStore};
use bft_sim::runner::RunOutcome;
use bft_sim::{
    Actor, Context, NodeId, Observation, RestartMode, SimDuration, SimTime, Stage, TimerId,
};
use bft_state::{CheckpointManager, Snapshot};
use bft_types::{
    ClientId, Digest, QuorumRules, ReplicaId, Reply, RequestId, SeqNum, TimerKind, View, WireSize,
};

use crate::common::{
    launch, launch_with_clients, reply_to_client, Catchup, ClientProtocol, Execution, Intake,
    Mempool, RoundRules, Rounds, Scenario, SignedRequest, SlotLog, SubmitPolicy, ViewGate,
};

/// Authentication mode for PBFT messages (dimension E3 / design choice 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbftAuth {
    /// MAC authenticators: cheap, repudiable; view-change needs acks.
    Mac,
    /// Signatures: costly, non-repudiable.
    Signature,
}

/// A batch re-proposal entry carried in view-change messages: proof that a
/// request was prepared at a sequence number.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PreparedEntry {
    /// Sequence number the batch was prepared at.
    pub seq: SeqNum,
    /// View in which it was prepared.
    pub view: View,
    /// Batch digest.
    pub digest: Digest,
    /// The batch itself (so the new leader can re-propose it).
    pub batch: Vec<SignedRequest>,
}

impl WireSize for PreparedEntry {
    fn wire_size(&self) -> usize {
        self.seq.wire_size() + self.view.wire_size() + 32 + self.batch.wire_size()
    }
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
    /// Periodic checkpoint attestation.
    Checkpoint {
        /// Checkpoint sequence number.
        seq: SeqNum,
        /// State digest at `seq`.
        state_digest: Digest,
        /// Attesting replica.
        from: ReplicaId,
    },
    /// Replica → all: leave `view`, carrying prepared proofs.
    ViewChange {
        /// The view being proposed (current + k).
        new_view: View,
        /// Last stable checkpoint (seq, state digest).
        stable: (SeqNum, Digest),
        /// Prepared batches above the stable checkpoint.
        prepared: Vec<PreparedEntry>,
        /// Sender.
        from: ReplicaId,
    },
    /// MAC mode only: acknowledge another replica's view-change to the new
    /// leader (substitutes for signature non-repudiation).
    ViewChangeAck {
        /// View being installed.
        new_view: View,
        /// Whose view-change message is acknowledged.
        vc_from: ReplicaId,
        /// Sender of the ack.
        from: ReplicaId,
    },
    /// New leader → all: install `view`, re-proposing prepared batches.
    NewView {
        /// The installed view.
        view: View,
        /// Replicas whose view-change messages were used.
        from_replicas: Vec<ReplicaId>,
        /// Re-proposals: (seq, digest, batch).
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
    },
    /// Client → all replicas: a read-only request served from the current
    /// state without ordering (the paper's P6 read optimization: the client
    /// waits for 2f+1 matching replies instead of f+1).
    ReadOnly(SignedRequest),
    /// Trailing replica → any: ask for a snapshot at or above `have`.
    StateRequest {
        /// Requester.
        from: ReplicaId,
        /// Requester's last executed sequence number.
        have: SeqNum,
    },
    /// Snapshot shipment for catch-up.
    StateTransfer {
        /// Consensus slot the snapshot covers.
        slot_seq: SeqNum,
        /// The snapshot (deep copy of the machine state).
        snapshot: Box<Snapshot>,
    },
}

impl WireSize for PbftMsg {
    fn wire_size(&self) -> usize {
        match self {
            PbftMsg::Request(r) | PbftMsg::ReadOnly(r) => 1 + r.wire_size(),
            PbftMsg::Reply(r) => 1 + r.wire_size(),
            PbftMsg::PrePrepare { batch, .. } => 1 + 8 + 8 + 32 + batch.wire_size(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 1 + 8 + 8 + 32 + 4 + 32,
            PbftMsg::Checkpoint { .. } => 1 + 8 + 32 + 4 + 32,
            PbftMsg::ViewChange { prepared, .. } => 1 + 8 + 8 + 32 + prepared.wire_size() + 64,
            PbftMsg::ViewChangeAck { .. } => 1 + 8 + 4 + 4 + 32,
            PbftMsg::NewView {
                from_replicas,
                pre_prepares,
                ..
            } => {
                1 + 8
                    + from_replicas.len() * 4
                    + pre_prepares
                        .iter()
                        .map(|(_, _, b)| 8 + 32 + b.wire_size())
                        .sum::<usize>()
                    + 64
            }
            PbftMsg::StateRequest { .. } => 1 + 4 + 8,
            PbftMsg::StateTransfer { .. } => {
                // approximated as a fixed-size snapshot shipment
                1 + 8 + 32 + 64 * 128
            }
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
    /// backups for the same sequence number (equivocation — the safety
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
struct PbftSlot {
    /// The view of the pre-prepare.
    view: View,
    rounds: Rounds,
}

/// A collected view-change message: sender, its stable checkpoint, and its
/// prepared proofs.
type VcEntry = (ReplicaId, (SeqNum, Digest), Vec<PreparedEntry>);

/// PBFT replica configuration.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Quorum rules (n, f).
    pub q: QuorumRules,
    /// Authentication mode.
    pub auth: PbftAuth,
    /// Checkpoint interval (0 disables).
    pub checkpoint_interval: u64,
    /// Log window (high-water distance from the stable checkpoint).
    pub window: u64,
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
    /// What authenticating one outgoing broadcast costs: `count` × `op`.
    fn broadcast_auth(&self) -> (CryptoOp, usize) {
        match self.auth {
            PbftAuth::Mac => (CryptoOp::MacGen, self.q.n - 1),
            PbftAuth::Signature => (CryptoOp::Sign, 1),
        }
    }

    /// Charge the cost of authenticating one outgoing broadcast.
    fn charge_broadcast_auth(&self, ctx: &mut Context<'_, PbftMsg>) {
        let (op, count) = self.broadcast_auth();
        ctx.charge_crypto_n(op, count);
    }

    /// Charge the cost of verifying one incoming message.
    fn charge_verify_auth(&self, ctx: &mut Context<'_, PbftMsg>) {
        match self.auth {
            PbftAuth::Mac => ctx.charge_crypto(CryptoOp::MacVerify),
            PbftAuth::Signature => ctx.charge_crypto(CryptoOp::Verify),
        }
    }

    /// Config from a scenario (timeouts derived from Δ).
    pub fn from_scenario(s: &Scenario, n: usize) -> PbftConfig {
        PbftConfig {
            q: QuorumRules { n, f: s.f },
            auth: PbftAuth::Mac,
            checkpoint_interval: s.checkpoint_interval,
            window: (s.checkpoint_interval * 4).max(64),
            batch_size: s.batch_size,
            view_timeout: SimDuration(s.network.delta.0 * 4),
            batch_delay: SimDuration(s.network.base_delay.0 * 4),
            recovery_period: None,
            recovery_duration: SimDuration::from_millis(50),
            sabotage: PbftSabotage::None,
        }
    }
}

/// Enter `to` (observing the transition) unless already there.
fn enter_stage(stage: &mut Stage, to: Stage, ctx: &mut Context<'_, PbftMsg>) {
    if *stage != to {
        *stage = to;
        ctx.observe(Observation::StageEnter { stage: to });
    }
}

/// PBFT's checkpointing stage: a state digest every `checkpoint_interval`
/// slots, attestations towards a stable checkpoint, and the garbage
/// collection a stable checkpoint allows. It is driven from the execution
/// loop (after each slot) and by peers' checkpoint messages, so it borrows
/// the execution stage and the slot log instead of owning them.
struct Checkpoints {
    me: ReplicaId,
    cfg: PbftConfig,
    ckpt: CheckpointManager,
}

impl Checkpoints {
    fn new(me: ReplicaId, cfg: PbftConfig) -> Checkpoints {
        Checkpoints {
            me,
            ckpt: CheckpointManager::new(cfg.checkpoint_interval, cfg.q.quorum()),
            cfg,
        }
    }

    fn maybe_checkpoint(
        &mut self,
        stage: &mut Stage,
        exec: &mut Execution,
        log: &mut SlotLog<PbftSlot>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        let last = exec.cursor();
        if let Some(state_digest) = self.ckpt.checkpoint(last, exec.sm()) {
            enter_stage(stage, Stage::Checkpointing, ctx);
            self.cfg.charge_broadcast_auth(ctx);
            let me = self.me;
            ctx.broadcast_replicas(PbftMsg::Checkpoint {
                seq: last,
                state_digest,
                from: me,
            });
            self.on_checkpoint(me, last, state_digest, exec, log, ctx);
            enter_stage(stage, Stage::Ordering, ctx);
        }
    }

    fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        state_digest: Digest,
        exec: &mut Execution,
        log: &mut SlotLog<PbftSlot>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if from != self.me {
            self.cfg.charge_verify_auth(ctx);
        }
        if let Some(proof) = self.ckpt.add_attestation(from, seq, state_digest) {
            ctx.observe(Observation::StableCheckpoint {
                seq: proof.seq,
                state_digest,
            });
            // garbage-collect executed slots at or below the checkpoint
            let executed_here = exec.cursor();
            log.retain(|s, _| *s > proof.seq.min(executed_here));
            let horizon = exec.sm().last_executed();
            exec.truncate_below(self.ckpt.undo_floor(horizon, self.cfg.window));
            // in-dark? the cluster is at `seq` but we have not executed it
            if executed_here < proof.seq {
                let me = self.me;
                ctx.observe(Observation::Marker {
                    label: "in-dark-catchup",
                });
                // 2f+1 attesters: one of them is not this replica
                if let Some(target) = proof.attesters.iter().find(|r| **r != me) {
                    ctx.send(
                        NodeId::Replica(*target),
                        PbftMsg::StateRequest {
                            from: me,
                            have: executed_here,
                        },
                    );
                }
            }
        }
    }
}

/// A PBFT replica actor.
pub struct PbftReplica {
    me: ReplicaId,
    cfg: PbftConfig,
    behavior: Behavior,
    store: Arc<KeyStore>,
    /// Current view, view-change flag, and the ordering messages that
    /// arrived for a view not installed yet (they race ahead of the
    /// new-view message); replayed on installation.
    gate: ViewGate<PbftMsg>,
    /// Leader-only: next sequence number to assign.
    next_seq: SeqNum,
    log: SlotLog<PbftSlot>,
    /// The prepare → commit pair: 2f prepares besides the pre-prepare,
    /// 2f+1 commits.
    rounds: RoundRules<PbftMsg, PbftSlot>,
    mempool: Mempool,
    exec: Execution,
    ckpts: Checkpoints,
    /// Collected view-change messages per target view.
    vc_msgs: BTreeMap<View, Vec<VcEntry>>,
    /// MAC mode: acks per (view, vc sender).
    vc_acks: BTreeMap<(View, ReplicaId), Vec<ReplicaId>>,
    /// Pending partial-batch timer.
    batch_timer: Option<TimerId>,
    /// τ2 for the currently pending request set (PBFT re-arms it on every
    /// relayed request and disarms it on every executed slot, so the
    /// intake's outstanding set stays unused).
    intake: Intake,
    /// When the live τ2 span started (recovery-aware discipline: scheduled
    /// rejuvenation windows during the span do not count against the
    /// leader).
    vc_armed_at: SimTime,
    /// Timer id for the next proactive recovery (τ8).
    recovery_timer: Option<TimerId>,
    /// True while rejuvenating (unavailable).
    recovering: bool,
    /// Messages that arrive during a rejuvenation window; replayed at
    /// wake-up so the dark window delays traffic instead of losing it.
    recovery_buffer: Vec<(NodeId, PbftMsg)>,
    /// True between a restart/wake-up and re-synchronization with the
    /// quorum's working view (the new-view message that installed it was
    /// broadcast while this replica was dark, so it adopts the view from
    /// the first valid leader message instead).
    rejoining: bool,
    /// Shared state-transfer solicitation service (windowed, retried with
    /// exponential backoff).
    catchup: Catchup,
    /// Stage bookkeeping for Figure 1 audits.
    stage: Stage,
}

impl PbftReplica {
    /// Create a replica.
    pub fn new(me: ReplicaId, cfg: PbftConfig, store: Arc<KeyStore>, behavior: Behavior) -> Self {
        let n = cfg.q.n;
        let view_timeout = cfg.view_timeout;
        let dropped = match cfg.sabotage {
            PbftSabotage::DropExecution(k) => Some(k),
            _ => None,
        };
        let commit_quorum = match cfg.sabotage {
            PbftSabotage::CommitQuorumOffByOne => cfg.q.quorum() - 1,
            _ => cfg.q.quorum(),
        };
        let rounds = RoundRules {
            me,
            ext: |slot: &mut PbftSlot| &mut slot.rounds,
            prepare_quorum: 2 * cfg.q.f,
            commit_quorum,
            auth: cfg.broadcast_auth(),
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
        PbftReplica {
            me,
            ckpts: Checkpoints::new(me, cfg.clone()),
            mempool: Mempool::new(cfg.batch_size),
            cfg,
            behavior,
            store,
            gate: ViewGate::new(),
            next_seq: SeqNum(1),
            log: SlotLog::default(),
            rounds,
            exec: Execution::new().dropping_nth(dropped),
            vc_msgs: BTreeMap::new(),
            vc_acks: BTreeMap::new(),
            batch_timer: None,
            intake: Intake::new(view_timeout),
            vc_armed_at: SimTime::ZERO,
            recovery_timer: None,
            recovering: false,
            recovery_buffer: Vec::new(),
            rejoining: false,
            catchup: Catchup::new(me, n, TimerKind::T1WaitReplies, view_timeout),
            stage: Stage::Ordering,
        }
    }

    fn leader(&self) -> ReplicaId {
        self.gate.view().leader_of(self.cfg.q.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn enter_stage(&mut self, stage: Stage, ctx: &mut Context<'_, PbftMsg>) {
        enter_stage(&mut self.stage, stage, ctx);
    }

    /// What authenticating one reply to a client costs.
    fn reply_auth(&self) -> CryptoOp {
        match self.cfg.auth {
            PbftAuth::Mac => CryptoOp::MacGen,
            PbftAuth::Signature => CryptoOp::Sign,
        }
    }

    fn high_water(&self) -> SeqNum {
        if self.cfg.checkpoint_interval == 0 {
            SeqNum(u64::MAX)
        } else {
            self.ckpts.ckpt.high_water(self.cfg.window)
        }
    }

    fn low_water(&self) -> SeqNum {
        self.ckpts.ckpt.low_water()
    }

    // ---- request intake -------------------------------------------------

    fn on_request(&mut self, signed: SignedRequest, ctx: &mut Context<'_, PbftMsg>) {
        // de-dup: answered already?
        let view = self.gate.view();
        let answer = reply_to_client(None, PbftMsg::Reply);
        if !Intake::admit(ctx, &self.store, &self.exec, &signed, view, answer) {
            return;
        }
        let in_mempool = self.mempool.contains(signed.request.id);
        let cursor = self.exec.cursor();
        let in_slot = (self.log.in_flight(cursor)).any(|id| id == signed.request.id);
        if in_mempool || in_slot {
            // already queued/proposed; a backup (re)starts its τ2 timer so a
            // leader swallowing the request cannot stall liveness
            self.arm_view_timer(ctx);
            return;
        }
        if self.is_leader() {
            if let Behavior::Censor(victim) = self.behavior {
                if signed.request.id.client == victim {
                    return; // censorship: never propose the victim's requests
                }
            }
            self.mempool.push(&signed);
            self.propose(false, ctx);
        } else {
            // relay to the leader, keep a copy for when we become leader,
            // and arm τ2
            let leader = self.leader();
            self.mempool.push(&signed);
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
        if !signed.verify(&self.store) || !signed.request.txn.is_read_only() {
            return;
        }
        // each read op is answered by the app that serves it (kv get, log
        // offset probe, counter total)
        let reply = Reply {
            request: signed.request.id,
            view: self.gate.view(),
            result: self.exec.sm().read_only_results(&signed.request.txn),
            state_digest: self.exec.sm().digest(),
            speculative: true, // tentative: matching across 2f+1 finalizes it
        };
        ctx.charge_crypto(self.reply_auth());
        ctx.send(
            NodeId::Client(signed.request.id.client),
            PbftMsg::Reply(reply),
        );
    }

    fn arm_view_timer(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.gate.in_view_change() && self.intake.arm(ctx) {
            self.vc_armed_at = ctx.now();
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

    // ---- leader: propose -------------------------------------------------

    /// Propose what is queued; a partial batch waits for the batch timer
    /// unless `force_partial`.
    fn propose(&mut self, force_partial: bool, ctx: &mut Context<'_, PbftMsg>) {
        if !self.is_leader() || self.gate.in_view_change() || self.recovering {
            return;
        }
        if let Behavior::Favor(favored) = self.behavior {
            // unfair reordering: the favored client's requests jump the
            // queue and everyone else is served in REVERSE arrival order —
            // the adversarial manipulation order-fairness (Q1) is about
            let queue = self.mempool.queue_mut();
            queue.reverse();
            // stable sort: favored first, reversed order preserved behind it
            queue.sort_by_key(|r| r.request.id.client != favored);
        }
        let open = self.log.in_flight(self.exec.cursor());
        self.mempool.drop_ordered(&self.exec, open);
        while !self.mempool.is_empty() && self.next_seq <= self.high_water() {
            // partial batch: wait a moment for more requests to amortize
            // the consensus instance over (the classic batching lever)
            if self.mempool.len() < self.cfg.batch_size && !force_partial {
                if self.batch_timer.is_none() {
                    self.batch_timer =
                        Some(ctx.set_timer(TimerKind::T7Heartbeat, self.cfg.batch_delay));
                }
                return;
            }
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
            let view = self.gate.view();
            if self.behavior == Behavior::Equivocate && self.mempool.len() > self.cfg.batch_size {
                // send batch A to one half, a different batch B to the other
                let (batch, alt) = (self.mempool.take(), self.mempool.take());
                let seq = self.next_seq;
                self.next_seq = seq.next();
                self.equivocate(seq, batch, alt, ctx);
                continue;
            }
            let Some((seq, digest, batch)) = self.mempool.cut(ctx, &mut self.next_seq) else {
                return;
            };
            self.cfg.charge_broadcast_auth(ctx);
            let slot = self.log.slot(seq);
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

    fn equivocate(
        &mut self,
        seq: SeqNum,
        batch_a: Vec<SignedRequest>,
        batch_b: Vec<SignedRequest>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        let view = self.gate.view();
        let da = digest_of(&batch_a);
        let db = digest_of(&batch_b);
        let n = self.cfg.q.n;
        self.cfg.charge_broadcast_auth(ctx);
        for i in 0..n as u32 {
            let to = ReplicaId(i);
            if to == self.me {
                continue;
            }
            let (digest, batch) = if (i as usize) < n / 2 {
                (da, batch_a.clone())
            } else {
                (db, batch_b.clone())
            };
            ctx.send(
                NodeId::Replica(to),
                PbftMsg::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch,
                },
            );
        }
        // the equivocator itself records nothing coherent
    }

    // ---- ordering phases -------------------------------------------------

    fn on_pre_prepare(
        &mut self,
        from: NodeId,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if self.recovering {
            return;
        }
        if from != NodeId::Replica(self.leader()) {
            return; // only the leader pre-prepares
        }
        if seq <= self.low_water() || seq > self.high_water() {
            return; // outside the log window
        }
        self.cfg.charge_verify_auth(ctx);
        ctx.charge_crypto(CryptoOp::Hash);
        if digest_of(&batch) != digest {
            return;
        }
        let slot = self.log.slot(seq);
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
        self.mempool.remove(&batch);
        (slot.digest, slot.batch, slot.ext.view) = (Some(digest), Some(batch), view);
        // a valid pre-prepare from the current leader means we are in the
        // quorum's working view
        self.rejoining = false;
        self.arm_view_timer(ctx);
        let slot = self.log.slot(seq);
        if self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
            self.try_execute(ctx);
        }
    }

    // ---- execution -------------------------------------------------------

    fn try_execute(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let before = self.exec.cursor();
        let deliver = reply_to_client(Some(self.reply_auth()), PbftMsg::Reply);
        let (mempool, intake) = (&mut self.mempool, &mut self.intake);
        let (stage, ckpts) = (&mut self.stage, &mut self.ckpts);
        self.exec.drain(
            ctx,
            &mut self.log,
            self.gate.view(),
            deliver,
            |ctx, exec, log, seq| {
                let batch = log.get(&seq).and_then(|s| s.batch.as_deref());
                mempool.remove(batch.unwrap_or_default());
                *stage = Stage::Ordering;
                // outstanding work done? disarm τ2; else re-arm
                intake.disarm(ctx);
                ckpts.maybe_checkpoint(stage, exec, log, ctx);
            },
        );
        if self.exec.cursor() > before {
            // execution progress means we are back in step with the quorum
            self.rejoining = false;
            if self.catchup.active() {
                self.catchup.complete(ctx);
            }
        }
    }

    // ---- checkpointing ---------------------------------------------------

    fn on_state_request(&mut self, from: ReplicaId, have: SeqNum, ctx: &mut Context<'_, PbftMsg>) {
        let served = self.ckpts.ckpt.latest_snapshot(have, self.exec.sm());
        if let Some((slot_seq, snapshot)) = served {
            let snapshot = Box::new(snapshot);
            ctx.send(
                NodeId::Replica(from),
                PbftMsg::StateTransfer { slot_seq, snapshot },
            );
        }
    }

    fn on_state_transfer(
        &mut self,
        slot_seq: SeqNum,
        snapshot: &Snapshot,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if slot_seq <= self.exec.cursor() {
            return;
        }
        // install: the snapshot's machine state replaces ours
        self.exec.install_snapshot(snapshot, slot_seq);
        // drop every slot the snapshot covers
        self.log.retain(|s, _| *s > slot_seq);
        self.ckpts.ckpt.mark_installed(slot_seq, self.exec.sm());
        self.next_seq = self.next_seq.max(slot_seq.next());
        ctx.count_state_transfer();
        if self.catchup.active() {
            self.catchup.complete(ctx);
        }
        ctx.observe(Observation::Marker {
            label: "state-transferred",
        });
        // a transferred snapshot may unblock committed-but-unexecuted slots
        self.try_execute(ctx);
    }

    /// Replay buffered ordering messages that now match the current view.
    fn replay_buffered(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        for (from, msg) in self.gate.replay_after_install() {
            self.handle_ordering(from, &msg, ctx);
        }
    }

    /// Dispatch one ordering-stage message of the current view (also used
    /// for replay); one that raced ahead of its view is buffered by the
    /// gate. The payload is borrowed; only a pre-prepare's batch is cloned
    /// (it is retained in the slot), votes are consumed without allocating.
    fn handle_ordering(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let view = match msg {
            PbftMsg::PrePrepare { view, .. }
            | PbftMsg::Prepare { view, .. }
            | PbftMsg::Commit { view, .. } => *view,
            _ => unreachable!("handle_ordering only receives ordering messages"),
        };
        if !self.gate.admit(from, view, msg) {
            return;
        }
        match msg {
            PbftMsg::PrePrepare {
                seq, digest, batch, ..
            } => self.on_pre_prepare(from, view, *seq, *digest, batch.clone(), ctx),
            PbftMsg::Prepare {
                seq,
                digest,
                from: r,
                ..
            }
            | PbftMsg::Commit {
                seq,
                digest,
                from: r,
                ..
            } => {
                self.cfg.charge_verify_auth(ctx);
                let commit = matches!(msg, PbftMsg::Commit { .. });
                let slot = self.log.slot(*seq);
                // a prepare for a slot pre-prepared in another view is stale
                let stale = !commit && slot.digest.is_some() && slot.ext.view != view;
                let vote = (commit, *r);
                if !stale && self.rounds.count(ctx, slot, (view, *seq), vote, *digest) {
                    self.try_execute(ctx);
                }
            }
            _ => {}
        }
    }

    // ---- view change -----------------------------------------------------

    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, PbftMsg>) {
        if target <= self.gate.view() {
            return;
        }
        if self.cfg.sabotage == PbftSabotage::DisableViewChange {
            return;
        }
        self.gate.set_in_view_change(true);
        self.intake.disarm(ctx);
        self.enter_stage(Stage::ViewChange, ctx);
        let stable = (
            self.low_water(),
            self.ckpts
                .ckpt
                .stable()
                .map(|p| p.digest)
                .unwrap_or(Digest::ZERO),
        );
        let prepared: Vec<PreparedEntry> = self
            .log
            .iter()
            .filter(|(seq, s)| s.ext.rounds.prepared() && **seq > stable.0)
            .map(|(seq, s)| PreparedEntry {
                seq: *seq,
                view: s.ext.view,
                digest: s.digest.unwrap_or(Digest::ZERO),
                batch: s.batch.clone().unwrap_or_default(),
            })
            .collect();
        // view-change messages are signed even in MAC mode? No — in MAC
        // mode they are MAC'd and acks compensate; either way one auth op:
        self.cfg.charge_broadcast_auth(ctx);
        let me = self.me;
        let msg = PbftMsg::ViewChange {
            new_view: target,
            stable,
            prepared: prepared.clone(),
            from: me,
        };
        ctx.broadcast_replicas(msg);
        self.record_view_change(me, target, stable, prepared, ctx);
        // consecutive view-change timer: if the new view fails to form,
        // move to the one after (doubling is elided; the constant timeout
        // re-fires)
        self.vc_armed_at = ctx.now();
        self.intake.rearm(ctx);
    }

    fn record_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        stable: (SeqNum, Digest),
        prepared: Vec<PreparedEntry>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        let entries = self.vc_msgs.entry(new_view).or_default();
        if entries.iter().any(|(r, _, _)| *r == from) {
            return;
        }
        entries.push((from, stable, prepared));
        let have = entries.len();

        // MAC mode: acknowledge others' view-changes to the new leader
        if self.cfg.auth == PbftAuth::Mac && from != self.me {
            let new_leader = new_view.leader_of(self.cfg.q.n);
            if new_leader != self.me {
                ctx.charge_crypto(CryptoOp::MacGen);
                ctx.send(
                    NodeId::Replica(new_leader),
                    PbftMsg::ViewChangeAck {
                        new_view,
                        vc_from: from,
                        from: self.me,
                    },
                );
            }
        }

        // join rule: f+1 replicas moved to a higher view → join them
        if new_view > self.gate.view() && !self.gate.in_view_change() && have > self.cfg.q.f {
            self.start_view_change(new_view, ctx);
            return;
        }

        self.maybe_assemble_new_view(new_view, ctx);
    }

    fn vc_ready(&self, new_view: View) -> bool {
        let Some(entries) = self.vc_msgs.get(&new_view) else {
            return false;
        };
        if entries.len() < self.cfg.q.quorum() {
            return false;
        }
        if self.cfg.auth == PbftAuth::Mac {
            // each foreign view-change needs 2f−1 acks before it counts
            let need = (2 * self.cfg.q.f).saturating_sub(1);
            entries.iter().all(|(r, _, _)| {
                *r == self.me
                    || need == 0
                    || self
                        .vc_acks
                        .get(&(new_view, *r))
                        .is_some_and(|acks| acks.len() >= need)
            })
        } else {
            true
        }
    }

    fn maybe_assemble_new_view(&mut self, new_view: View, ctx: &mut Context<'_, PbftMsg>) {
        if new_view.leader_of(self.cfg.q.n) != self.me {
            return;
        }
        if !self.gate.in_view_change() || !self.vc_ready(new_view) {
            return;
        }
        let entries = self.vc_msgs.get(&new_view).cloned().unwrap_or_default();
        // choose max stable checkpoint and union of prepared entries
        let max_stable = entries
            .iter()
            .map(|(_, s, _)| s.0)
            .max()
            .unwrap_or(SeqNum(0));
        let mut re_proposals: BTreeMap<SeqNum, (View, Digest, Vec<SignedRequest>)> =
            BTreeMap::new();
        for (_, _, prepared) in &entries {
            for e in prepared {
                if e.seq <= max_stable {
                    continue;
                }
                match re_proposals.get(&e.seq) {
                    Some((v, _, _)) if *v >= e.view => {}
                    _ => {
                        re_proposals.insert(e.seq, (e.view, e.digest, e.batch.clone()));
                    }
                }
            }
        }
        let max_seq = re_proposals.keys().max().copied().unwrap_or(max_stable);
        // fill gaps with null batches so the sequence is contiguous
        let mut pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)> = Vec::new();
        let mut s = max_stable.next();
        while s <= max_seq {
            match re_proposals.get(&s) {
                Some((_, d, b)) => pre_prepares.push((s, *d, b.clone())),
                None => {
                    let empty: Vec<SignedRequest> = Vec::new();
                    pre_prepares.push((s, digest_of(&empty), empty));
                }
            }
            s = s.next();
        }
        let from_replicas: Vec<ReplicaId> = entries.iter().map(|(r, _, _)| *r).collect();
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas(PbftMsg::NewView {
            view: new_view,
            from_replicas,
            pre_prepares: pre_prepares.clone(),
        });
        self.install_view(new_view, pre_prepares, ctx);
    }

    fn on_new_view(
        &mut self,
        from: NodeId,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view < self.gate.view() {
            return;
        }
        if from != NodeId::Replica(view.leader_of(self.cfg.q.n)) {
            return;
        }
        self.cfg.charge_verify_auth(ctx);
        self.install_view(view, pre_prepares, ctx);
    }

    fn install_view(
        &mut self,
        view: View,
        pre_prepares: Vec<(SeqNum, Digest, Vec<SignedRequest>)>,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        self.gate.install(view);
        self.rejoining = false;
        self.intake.disarm(ctx);
        self.vc_msgs.retain(|v, _| *v > view);
        self.vc_acks.retain(|(v, _), _| *v > view);
        ctx.observe(Observation::NewView { view });
        self.enter_stage(Stage::Ordering, ctx);

        // Requests stranded in unexecuted slots that the new view does not
        // re-propose go back to the mempool so a future leader (possibly us)
        // can propose them again. The slots themselves are cleared — their
        // (view, seq) assignment died with the old view.
        let re_proposed: Vec<SeqNum> = pre_prepares.iter().map(|(s, _, _)| *s).collect();
        let exec_cursor = self.exec.cursor();
        let stranded = self.log.strand(exec_cursor, &re_proposed);
        self.mempool.requeue(&self.exec, &stranded);

        // adopt re-proposals: run them through the ordering machinery as if
        // they were fresh pre-prepares in the new view
        let max_seq = pre_prepares
            .iter()
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(SeqNum(0));
        let leads = self.is_leader();
        for (seq, digest, batch) in pre_prepares {
            if seq <= exec_cursor {
                continue;
            }
            self.mempool.remove(&batch);
            let slot = self.log.reinstall(seq, digest, batch);
            slot.ext.view = view;
            if !leads && self.rounds.prepare(ctx, slot, (view, seq), digest, None) {
                self.try_execute(ctx);
            }
        }
        if self.is_leader() {
            self.next_seq = self
                .next_seq
                .max(max_seq.next())
                .max(self.exec.cursor().next());
            // re-propose whatever is still in the mempool
            self.propose(false, ctx);
        }
        self.replay_buffered(ctx);
    }

    // ---- proactive recovery (τ8) ------------------------------------------

    fn schedule_recovery(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if let Some(period) = self.cfg.recovery_period {
            // replicas take turns: replica i rejuvenates at (i+1)·period,
            // then every n·period
            let offset = SimDuration(period.0 * (self.me.0 as u64 + 1));
            self.recovery_timer = Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, offset));
        }
    }

    fn on_recovery_watchdog(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.recovering {
            // rejuvenation complete
            self.recovering = false;
            self.rejoining = true;
            self.gate.set_in_view_change(false);
            ctx.observe(Observation::RecoveryDone);
            self.enter_stage(Stage::Ordering, ctx);
            // schedule the next round (full rotation later)
            if let Some(period) = self.cfg.recovery_period {
                let next = SimDuration(period.0 * self.cfg.q.n as u64);
                self.recovery_timer = Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, next));
            }
            // the dark window delayed traffic instead of losing it: replay
            // everything that arrived, adopting the quorum's current view
            // from the first valid leader message
            let buffered = std::mem::take(&mut self.recovery_buffer);
            for (from, msg) in buffered {
                self.on_message(from, &msg, ctx);
            }
            // close any remaining execution gap via windowed state transfer
            self.begin_catchup(ctx);
        } else {
            // begin rejuvenation: drop volatile state, go dark briefly. Any
            // timer armed for the pre-rejuvenation incarnation is stale —
            // disarming τ2 here is what stops a just-woken replica from
            // firing spurious view changes against a healthy leader.
            self.recovering = true;
            ctx.observe(Observation::RecoveryStart);
            self.enter_stage(Stage::Recovery, ctx);
            self.mempool = Mempool::new(self.cfg.batch_size);
            self.vc_msgs.clear();
            self.vc_acks.clear();
            self.intake.disarm(ctx);
            if let Some(t) = self.batch_timer.take() {
                ctx.cancel_timer(t);
            }
            self.recovery_timer =
                Some(ctx.set_timer(TimerKind::T8RecoveryWatchdog, self.cfg.recovery_duration));
        }
    }

    /// Solicit a snapshot from the next catch-up window of peers.
    fn begin_catchup(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let me = self.me;
        let have = self.exec.cursor();
        self.catchup.begin(ctx, |peer, ctx| {
            ctx.send(
                NodeId::Replica(peer),
                PbftMsg::StateRequest { from: me, have },
            );
        });
    }

    /// Rejoin discipline: a replica that restarted or woke from
    /// rejuvenation may hold a stale view — the new-view message that
    /// installed the quorum's working view was broadcast while it was dark
    /// and will never be retransmitted. Instead of waiting (or worse,
    /// firing τ2 into a healthy quorum), adopt the view from the first
    /// pre-prepare authored by that view's leader.
    fn maybe_adopt_view(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let adopted = match msg {
            PbftMsg::PrePrepare { view, .. }
                if *view > self.gate.view()
                    && from == NodeId::Replica(view.leader_of(self.cfg.q.n)) =>
            {
                Some(*view)
            }
            _ => None,
        };
        let Some(view) = adopted else { return };
        self.gate.install(view);
        self.rejoining = false;
        self.intake.disarm(ctx);
        self.vc_msgs.retain(|v, _| *v > view);
        self.vc_acks.retain(|(v, _), _| *v > view);
        ctx.observe(Observation::NewView { view });
        self.replay_buffered(ctx);
    }
}

impl Actor<PbftMsg> for PbftReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        ctx.observe(Observation::StageEnter {
            stage: Stage::Ordering,
        });
        self.schedule_recovery(ctx);
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
        if self.rejoining {
            self.maybe_adopt_view(from, msg, ctx);
        }
        match msg {
            PbftMsg::Request(signed) => self.on_request(signed.clone(), ctx),
            m @ (PbftMsg::PrePrepare { .. } | PbftMsg::Prepare { .. } | PbftMsg::Commit { .. }) => {
                self.handle_ordering(from, m, ctx)
            }
            PbftMsg::Checkpoint {
                seq,
                state_digest,
                from: r,
            } => {
                let (exec, log) = (&mut self.exec, &mut self.log);
                self.ckpts
                    .on_checkpoint(*r, *seq, *state_digest, exec, log, ctx)
            }
            PbftMsg::ViewChange {
                new_view,
                stable,
                prepared,
                from: r,
            } => {
                self.cfg.charge_verify_auth(ctx);
                self.record_view_change(*r, *new_view, *stable, prepared.clone(), ctx);
            }
            PbftMsg::ViewChangeAck {
                new_view,
                vc_from,
                from: r,
            } => {
                if self.cfg.auth == PbftAuth::Mac {
                    ctx.charge_crypto(CryptoOp::MacVerify);
                    let acks = self.vc_acks.entry((*new_view, *vc_from)).or_default();
                    if !acks.contains(r) {
                        acks.push(*r);
                    }
                    self.maybe_assemble_new_view(*new_view, ctx);
                }
            }
            PbftMsg::NewView {
                view, pre_prepares, ..
            } => self.on_new_view(from, *view, pre_prepares.clone(), ctx),
            PbftMsg::StateRequest { from: r, have } => self.on_state_request(*r, *have, ctx),
            PbftMsg::StateTransfer { slot_seq, snapshot } => {
                self.on_state_transfer(*slot_seq, snapshot, ctx)
            }
            PbftMsg::ReadOnly(signed) => self.on_read_only(signed.clone(), ctx),
            PbftMsg::Reply(_) => {} // replicas ignore replies
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, PbftMsg>) {
        if self.recovering && kind != TimerKind::T8RecoveryWatchdog {
            return; // only the wake-up watchdog fires while dark
        }
        match kind {
            TimerKind::T1WaitReplies => {
                // replicas use τ1 only for catch-up solicitation retries
                let me = self.me;
                let have = self.exec.cursor();
                self.catchup.on_timer(id, ctx, |peer, ctx| {
                    ctx.send(
                        NodeId::Replica(peer),
                        PbftMsg::StateRequest { from: me, have },
                    );
                });
            }
            TimerKind::T2ViewChange if self.intake.fired(id) => {
                // recovery-aware discipline: time in which a peer sat in a
                // scheduled rejuvenation window does not count against the
                // leader — extend τ2 by exactly the stolen amount so only
                // clear-quorum time accumulates toward the timeout
                let now = ctx.now();
                let stolen = self.scheduled_dark_overlap(self.vc_armed_at, now);
                if stolen > SimDuration::ZERO {
                    self.vc_armed_at = now;
                    self.intake.rearm_for(ctx, stolen);
                    return;
                }
                // pending work still outstanding → (next) view change
                let target = if self.gate.in_view_change() {
                    // consecutive view change: the attempt failed
                    self.vc_msgs
                        .keys()
                        .max()
                        .copied()
                        .unwrap_or(self.gate.view())
                        .next()
                } else {
                    self.gate.view().next()
                };
                self.gate.set_in_view_change(false);
                self.start_view_change(target, ctx);
            }
            TimerKind::T7Heartbeat if Some(id) == self.batch_timer => {
                self.batch_timer = None;
                self.propose(true, ctx);
            }
            TimerKind::T8RecoveryWatchdog if Some(id) == self.recovery_timer => {
                self.on_recovery_watchdog(ctx);
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, PbftMsg>) {
        // Timers armed before the crash popped into the void while we were
        // down: the handles are dead, not merely stale.
        self.intake.forget_timer();
        self.batch_timer = None;
        self.recovery_timer = None;
        self.recovering = false;
        self.gate.set_in_view_change(false);
        self.recovery_buffer.clear();
        if mode == RestartMode::Amnesia {
            // Volatile memory is gone; the last stable checkpoint is the
            // only durable artifact. Reload it (rebuilt from its mark before
            // memory is wiped) — everything since comes back via catch-up.
            let stable = self.ckpts.ckpt.reset_to_stable(self.exec.sm());
            self.exec.reset();
            self.log.clear();
            self.mempool = Mempool::new(self.cfg.batch_size);
            self.vc_msgs.clear();
            self.vc_acks.clear();
            self.gate.reset();
            self.next_seq = SeqNum(1);
            if let Some((stable_seq, snap)) = stable {
                self.exec.install_snapshot(&snap, stable_seq);
                self.next_seq = stable_seq.next();
            }
            ctx.observe(Observation::Marker {
                label: "amnesia-restart",
            });
        } else {
            ctx.observe(Observation::Marker {
                label: "durable-restart",
            });
        }
        // rejoin: adopt the quorum's working view from its traffic, close
        // the execution gap via windowed state transfer, restart τ8
        self.rejoining = true;
        self.enter_stage(Stage::Ordering, ctx);
        self.schedule_recovery(ctx);
        self.begin_catchup(ctx);
    }
}

/// PBFT's client protocol hooks: submit to the leader, retransmit to all,
/// accept on f+1 matching replies.
pub struct PbftClientProto;

impl ClientProtocol for PbftClientProto {
    type Msg = PbftMsg;
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

/// A PBFT client that exploits the read-only optimization (dimension P6):
/// read-only transactions are broadcast to all replicas and answered from
/// their current state, with acceptance at **2f+1 matching replies**;
/// writes (and reads whose quorum fails to match under concurrent writes,
/// timer τ1) go through the ordered path with the normal f+1 reply quorum.
pub struct PbftReadClient {
    id: bft_types::ClientId,
    q: QuorumRules,
    store: Arc<KeyStore>,
    workload: bft_core::workload::Workload,
    total: u64,
    sent: u64,
    in_flight: Option<(RequestId, SignedRequest, bft_sim::SimTime)>,
    collector: bft_core::client::ReplyCollector,
    /// Current request is on the read fast path.
    read_mode: bool,
    leader_hint: ReplicaId,
    retransmit: SimDuration,
    timer: Option<TimerId>,
    /// Reads served without ordering (for experiments).
    fast_reads: u64,
}

impl PbftReadClient {
    /// Create a client for `scenario`.
    pub fn new(scenario: &Scenario, q: QuorumRules, id: u64) -> Self {
        PbftReadClient {
            id: bft_types::ClientId(id),
            q,
            store: scenario.key_store(),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            in_flight: None,
            collector: bft_core::client::ReplyCollector::new(),
            read_mode: false,
            leader_hint: ReplicaId(0),
            retransmit: SimDuration(scenario.network.delta.0 * 2),
            timer: None,
            fast_reads: 0,
        }
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let request = bft_types::Request::new(self.id, self.sent, self.workload.next_txn());
        let signed = SignedRequest::new(&self.store, request.clone());
        ctx.charge_crypto(CryptoOp::Sign);
        self.in_flight = Some((request.id, signed.clone(), ctx.now()));
        self.collector.clear();
        self.read_mode = request.txn.is_read_only();
        if self.read_mode {
            // fast path: ask every replica's current state
            let n = self.q.n;
            ctx.multicast(
                (0..n as u32).map(NodeId::replica),
                PbftMsg::ReadOnly(signed),
            );
        } else {
            ctx.send(NodeId::Replica(self.leader_hint), PbftMsg::Request(signed));
        }
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit));
    }

    fn quorum(&self) -> usize {
        if self.read_mode {
            self.q.quorum() // 2f+1 matching reads
        } else {
            self.q.weak() // f+1 ordered replies
        }
    }
}

impl Actor<PbftMsg> for PbftReadClient {
    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let PbftMsg::Reply(reply) = msg else { return };
        let Some((current, _, sent_at)) = self.in_flight else {
            return;
        };
        if reply.request != current {
            return;
        }
        let NodeId::Replica(replica) = from else {
            return;
        };
        ctx.charge_crypto(CryptoOp::Verify);
        self.leader_hint = reply.view.leader_of(self.q.n);
        let quorum = self.quorum();
        if let bft_core::client::CollectStatus::Complete { reply: agreed, .. } =
            self.collector.offer(replica, reply.clone(), quorum)
        {
            if let Some(t) = self.timer.take() {
                ctx.cancel_timer(t);
            }
            let txn = self
                .in_flight
                .take()
                .map(|(_, signed, _)| signed.request.txn)
                .unwrap_or_default();
            let fast = agreed.speculative; // read replies are marked tentative
            if fast {
                self.fast_reads += 1;
                ctx.observe(Observation::Marker { label: "fast-read" });
            }
            ctx.observe(Observation::ClientAccept {
                request: current,
                sent_at,
                fast_path: fast,
                txn,
                result: agreed.result.clone(),
            });
            self.submit_next(ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, _kind: TimerKind, ctx: &mut Context<'_, PbftMsg>) {
        if Some(id) != self.timer {
            return;
        }
        let Some((_, signed, _)) = self.in_flight.clone() else {
            return;
        };
        // read quorum failed to match (concurrent writes) or messages lost:
        // fall back to the ordered path, broadcast so the leader cannot hide
        if self.read_mode {
            ctx.observe(Observation::Marker {
                label: "read-fallback",
            });
            self.read_mode = false;
            self.collector.clear();
        }
        let n = self.q.n;
        ctx.multicast((0..n as u32).map(NodeId::replica), PbftMsg::Request(signed));
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.retransmit));
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
        PbftReplica::new(me, cfg, store, behavior)
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
    let client = |c, q| PbftReadClient::new(scenario, q, c);
    launch_with_clients(
        scenario,
        n,
        SimDuration::ZERO,
        replica_for(scenario, options),
        client,
    )
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
        outcome.log.client_latencies().len()
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
            let cursor = self.inner.exec.cursor();
            match msg {
                PbftMsg::Checkpoint {
                    seq, state_digest, ..
                } => self.saw(Seen::Attested(*seq, *state_digest)),
                PbftMsg::StateRequest { .. } => self.saw(Seen::Asked { cursor }),
                PbftMsg::StateTransfer { slot_seq, snapshot } => {
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
            let before = self.inner.exec.cursor();
            self.inner.on_recover(mode, ctx);
            let exec = &self.inner.exec;
            let stable = self.inner.ckpts.ckpt.stable();
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
        // safety must hold among the three honest replicas
        audit_excluding(&out, &[0]);
        // progress must also hold (view change or partial quorums resolve)
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
        let replica = PbftReplica::new(ReplicaId(2), cfg, store, Behavior::Honest);
        let (_, sent) = play(scripts, replica);
        let prepared_y = |m: &PbftMsg| matches!(m, PbftMsg::Prepare { digest, .. } if *digest == y);
        assert!(sent.iter().any(prepared_y), "r2 accepted the proposal");
        for msg in &sent {
            assert!(!matches!(msg, PbftMsg::Commit { .. }), "sent {msg:?}");
            // τ2 fires before the run ends: r2 reports nothing prepared
            if let PbftMsg::ViewChange { prepared, .. } = msg {
                assert!(prepared.is_empty(), "prepared {prepared:?}");
            }
        }
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
