//! Infrastructure shared by every protocol implementation.
//!
//! * [`Scenario`] — the experiment description (cluster size, workload,
//!   network, faults, seeds) under which protocols are compared.
//! * [`SignedRequest`] — a client request carrying the client's signature.
//! * [`Execution`], [`SlotLog`], [`Intake`], [`ViewGate`], [`ViewChange`] —
//!   the parts of Figure 1's replica lifecycle that do not vary between
//!   protocols: in-order execution of the committed-slot log with replies,
//!   request intake with retransmission answers and the τ2 leader watch,
//!   view-tagged message admission, and the PBFT-pattern view change
//!   (`ViewChanger`: a protocol supplies what it reports, how its new
//!   leader assembles and how it adopts one re-proposal).
//!
//! The client stage and the launcher are in [`crate::client`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bft_core::workload::{Workload, WorkloadConfig};
use bft_crypto::sign::PartyId;
use bft_crypto::{digest_of, CryptoCostModel, CryptoOp, KeyStore, Signature, Signer};
use bft_sim::{
    Actor, AdversarySpec, Context, Engine, EngineKind, FaultPlan, NetworkConfig, NetworkModel,
    NodeId, Observation, RestartMode, SimDuration, SimTime, Simulation, Stage, ThreadedEngine,
    TimerId,
};
use bft_state::{CheckpointManager, Snapshot, StateMachine};
use bft_types::{
    ClientId, Digest, Op, QuorumRules, ReplicaId, Reply, Request, RequestId, SeqNum, TimerKind,
    Transaction, View, WireSize,
};

/// A client request plus the client's signature over its digest.
///
/// Its stable encoding is its *leaf* ([`SignedRequest::leaf`]): the request
/// digest, the signer and the tag, 72 bytes whatever the transaction. Every
/// `digest_of` over requests — a batch, a nested batch, the null batch —
/// therefore hashes leaves, and a slot digest binds each request and its
/// signature. The leaf is computed from the request each time it is
/// encoded; no digest travels with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRequest {
    /// The request.
    pub request: Request,
    /// Client signature over the request's digest.
    pub sig: Signature,
}

impl SignedRequest {
    /// Sign a request with its client's signer.
    pub fn new(signer: &Signer, request: Request) -> SignedRequest {
        let sig = signer.sign_value(&request);
        SignedRequest { request, sig }
    }

    /// Verify the client signature: it is by the request's own client, and
    /// its tag is over the request's digest under that client's key.
    pub fn verify(&self, store: &KeyStore) -> bool {
        self.sig.signer == PartyId::client(self.request.id.client.0)
            && bft_crypto::sign::verify_value(store, &self.request, &self.sig)
    }

    /// Digest identifying the request.
    pub fn digest(&self) -> Digest {
        digest_of(&self.request)
    }

    /// The request digest, the signer (little-endian) and the tag.
    pub fn leaf(&self) -> [u8; 72] {
        let mut leaf = [0u8; 72];
        leaf[..32].copy_from_slice(&self.digest().0);
        leaf[32..40].copy_from_slice(&self.sig.signer.0.to_le_bytes());
        leaf[40..].copy_from_slice(&self.sig.tag.0);
        leaf
    }
}

impl serde::Serialize for SignedRequest {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.leaf())
    }
}

impl WireSize for SignedRequest {
    fn wire_size(&self) -> usize {
        self.request.wire_size() + Signature::WIRE_SIZE
    }
}

/// The experiment scenario: everything about a run except the protocol.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fault threshold.
    pub f: usize,
    /// Override the replica count (defaults to the protocol's formula).
    pub n_override: Option<usize>,
    /// Number of clients.
    pub clients: usize,
    /// Requests each client issues (closed loop).
    pub requests_per_client: u64,
    /// Network configuration.
    pub network: NetworkConfig,
    /// Crash/partition schedule.
    pub faults: FaultPlan,
    /// Byzantine adversary placements: compromised replicas whose wire
    /// traffic the simulator intercepts (equivocation, censorship, delay,
    /// replay, corruption) — protocol-agnostic, see [`bft_sim::adversary`].
    pub adversaries: Vec<AdversarySpec>,
    /// Transaction mix.
    pub workload: WorkloadConfig,
    /// Master seed (drives network delays, workload, crypto keys).
    pub seed: u64,
    /// Crypto cost model charged to virtual time.
    pub cost_model: CryptoCostModel,
    /// Checkpoint interval in sequence numbers (0 = disabled).
    pub checkpoint_interval: u64,
    /// Requests per batch.
    pub batch_size: usize,
    /// Virtual-time budget for the run.
    pub max_time: SimDuration,
    /// Event-queue scheduler backing the simulation. Both options pop in
    /// the identical order, so this never changes a run's output — only
    /// wall-clock cost at scale.
    pub scheduler: bft_sim::SchedulerKind,
    /// Which execution backend runs the scenario. Defaults to
    /// [`EngineKind::Sim`] (deterministic, virtual time); the threaded
    /// engine trades determinism, fault plans and adversaries for real
    /// wall-clock measurement.
    pub engine: EngineKind,
}

impl Scenario {
    /// A small fault-free LAN scenario: f = 1, one client, 50 requests.
    pub fn small(f: usize) -> Scenario {
        Scenario {
            f,
            n_override: None,
            clients: 1,
            requests_per_client: 50,
            network: NetworkConfig::lan(),
            faults: FaultPlan::none(),
            adversaries: Vec::new(),
            workload: WorkloadConfig::uniform(),
            seed: 42,
            cost_model: CryptoCostModel::free(),
            checkpoint_interval: 16,
            batch_size: 1,
            max_time: SimDuration::from_secs(60),
            scheduler: bft_sim::SchedulerKind::default(),
            engine: EngineKind::default(),
        }
    }

    /// Builder-style: set clients and per-client request count.
    pub fn with_load(mut self, clients: usize, requests_per_client: u64) -> Scenario {
        self.clients = clients;
        self.requests_per_client = requests_per_client;
        self
    }

    /// Builder-style: override the replica count (clamped up to each
    /// protocol's formula minimum, see [`Scenario::n`]).
    pub fn with_n(mut self, n: usize) -> Scenario {
        self.n_override = Some(n);
        self
    }

    /// Builder-style: set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Builder-style: set the Byzantine adversary placements.
    pub fn with_adversaries(mut self, adversaries: Vec<AdversarySpec>) -> Scenario {
        self.adversaries = adversaries;
        self
    }

    /// Builder-style: set the network.
    pub fn with_network(mut self, network: NetworkConfig) -> Scenario {
        self.network = network;
        self
    }

    /// Builder-style: set the workload.
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Scenario {
        self.workload = workload;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder-style: set the crypto cost model.
    pub fn with_cost_model(mut self, cost_model: CryptoCostModel) -> Scenario {
        self.cost_model = cost_model;
        self
    }

    /// Builder-style: set the batch size.
    pub fn with_batch(mut self, batch_size: usize) -> Scenario {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style: set the event-queue scheduler.
    pub fn with_scheduler(mut self, scheduler: bft_sim::SchedulerKind) -> Scenario {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style: set the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Scenario {
        self.engine = engine;
        self
    }

    /// The PBFT-pattern family's timing: the view-change timeout τ2 (4Δ)
    /// and the checkpoint interval.
    pub fn timing(&self) -> (SimDuration, u64) {
        (
            SimDuration(self.network.delta.0 * 4),
            self.checkpoint_interval,
        )
    }

    /// The replica count for a protocol whose formula minimum is `min_n`.
    pub fn n(&self, min_n: usize) -> usize {
        self.n_override.map_or(min_n, |n| n.max(min_n))
    }

    /// The key store all parties in this scenario share.
    pub fn key_store(&self) -> Arc<KeyStore> {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&self.seed.to_le_bytes());
        KeyStore::shared(master)
    }

    /// Build the execution engine the scenario selects ([`Scenario::engine`]):
    /// the deterministic simulation shell (network, seed, cost model, fault
    /// plan) or the real-time threaded engine.
    ///
    /// `n` is the replica count the protocol is about to install; the fault
    /// plan is validated against it (and the client count) so a plan naming
    /// nonexistent nodes fails loudly instead of silently never firing.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's fault plan or an adversary placement is
    /// invalid — see [`FaultPlan::validate`](bft_sim::faults::FaultPlan::validate)
    /// and [`AdversarySpec::validate`] — or if a threaded scenario carries
    /// a fault plan or adversaries (sim-only features: the threaded engine
    /// has no deterministic event stream to inject them into).
    pub fn build_engine<M: WireSize + serde::Serialize + Send + Sync + 'static>(
        &self,
        n: usize,
    ) -> Engine<M> {
        match self.engine {
            EngineKind::Sim => {
                let mut sim = Simulation::with_scheduler(
                    NetworkModel::new(self.network.clone()),
                    self.seed,
                    self.scheduler,
                );
                sim.set_cost_model(self.cost_model);
                if let Err(e) = self.faults.apply(&mut sim, n, self.clients as u64) {
                    panic!("scenario has an invalid fault plan: {e}");
                }
                for spec in &self.adversaries {
                    if let Err(e) = spec.validate(n, self.clients as u64) {
                        panic!("scenario has an invalid adversary placement: {e}");
                    }
                    sim.install_adversary(spec.clone());
                }
                Engine::Sim(Box::new(sim))
            }
            EngineKind::Threaded => {
                assert!(
                    self.faults.events.is_empty(),
                    "fault plans are a sim-engine feature; the threaded engine cannot run them"
                );
                assert!(
                    self.adversaries.is_empty(),
                    "wire adversaries are a sim-engine feature; the threaded engine cannot run them"
                );
                let mut eng = ThreadedEngine::new(self.network.delta, self.seed);
                eng.set_cost_model(self.cost_model);
                Engine::Threaded(eng)
            }
        }
    }

    /// Total requests across all clients.
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.requests_per_client
    }

    /// Workload generator for one client (each client gets a distinct
    /// stream).
    pub fn workload_for(&self, client: u64) -> Workload {
        Workload::for_stream(
            self.workload,
            self.seed.wrapping_mul(31).wrapping_add(client),
            client,
        )
    }

    /// The full request table the scenario's clients will generate:
    /// client ids are `0..clients`, timestamps `1..=requests_per_client`,
    /// transactions drawn deterministically from [`Scenario::workload_for`],
    /// sorted by request id. Feeds the semantic checkers (phantom
    /// resolution and replay).
    pub fn request_txns(&self) -> Vec<(RequestId, Transaction)> {
        let mut txns = Vec::with_capacity(self.clients * self.requests_per_client as usize);
        for c in 0..self.clients as u64 {
            let mut w = self.workload_for(c);
            for ts in 1..=self.requests_per_client {
                let id = RequestId {
                    client: ClientId(c),
                    timestamp: ts,
                };
                txns.push((id, w.next_txn()));
            }
        }
        txns
    }
}

/// The catch-up stage of the replica skeleton (`Core::catchup`): a replica
/// that restarts (durable or amnesia) or wakes from proactive rejuvenation
/// is behind the quorum and closes the gap by state transfer:
///
/// * **bounded in-flight window** — at most two peers are asked per
///   round, rotating round-robin so one unresponsive peer cannot wedge the
///   rejoin;
/// * **retry with exponential backoff** — while no progress arrives the
///   request is re-issued, each round waiting twice as long (capped), and
///   after [`Catchup::MAX_ATTEMPTS`] rounds the service gives up and lets
///   the ordinary protocol flow (checkpoint attestations revealing the gap)
///   take over;
/// * **recovery metrics** — catch-up rounds and retries are counted into
///   [`bft_sim::Metrics`] (`rec_catchup_events`, `rec_retries`).
///
/// `begin`/`on_timer` call back with each peer to solicit; an installed
/// snapshot or execution progress [`complete`](Catchup::complete)s it.
#[derive(Debug)]
pub struct Catchup {
    me: ReplicaId,
    n: usize,
    base: SimDuration,
    next_peer: u32,
    attempt: u32,
    /// The retry timer, armed while a catch-up is in flight.
    timer: Option<TimerId>,
}

impl Catchup {
    /// Retry rounds before the service gives up (the protocol's ordinary
    /// checkpoint/in-dark machinery remains as the fallback).
    pub const MAX_ATTEMPTS: u32 = 6;

    /// Peers asked per round.
    const WINDOW: usize = 2;

    /// A catch-up service for replica `me` of `n`, retrying on τ1 with
    /// initial backoff `base` (doubled per retry, capped at `8 × base`).
    pub fn new(me: ReplicaId, n: usize, base: SimDuration) -> Catchup {
        Catchup {
            me,
            n,
            base,
            next_peer: 0,
            attempt: 0,
            timer: None,
        }
    }

    /// Current backoff: `base × 2^attempt`, capped at `8 × base`.
    fn backoff(&self) -> SimDuration {
        let factor = 1u64 << self.attempt.min(3);
        SimDuration(self.base.0.saturating_mul(factor))
    }

    /// The next [`Catchup::WINDOW`] peers in round-robin order, skipping `me`.
    fn targets(&mut self) -> Vec<ReplicaId> {
        let mut peers = Vec::new();
        while peers.len() < Self::WINDOW.min(self.n - 1) {
            let candidate = ReplicaId(self.next_peer % self.n as u32);
            self.next_peer = self.next_peer.wrapping_add(1);
            if candidate != self.me {
                peers.push(candidate);
            }
        }
        peers
    }

    /// Solicit the next peers and arm the retry timer.
    fn round<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) {
        for peer in self.targets() {
            solicit(peer, ctx);
        }
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.backoff()));
    }

    /// Start (or restart) a catch-up: solicit the next peers and arm the
    /// retry timer. Counts one `rec_catchup_events`.
    pub fn begin<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) {
        self.complete(ctx);
        ctx.count_catchup_event();
        self.round(ctx, solicit);
    }

    /// Handle a timer pop. Returns `true` when the timer was this
    /// service's retry timer (consumed here); `false` means it belongs to
    /// the protocol. On retry, the next peers are solicited and the timer
    /// re-arms with doubled backoff; after [`Self::MAX_ATTEMPTS`] rounds
    /// the service gives up instead.
    pub fn on_timer<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        id: TimerId,
        ctx: &mut Context<'_, M>,
        solicit: impl FnMut(ReplicaId, &mut Context<'_, M>),
    ) -> bool {
        if Some(id) != self.timer {
            return false;
        }
        self.timer = None;
        self.attempt += 1;
        if self.attempt < Self::MAX_ATTEMPTS {
            ctx.count_catchup_retry();
            self.round(ctx, solicit);
        }
        true
    }

    /// The gap is closed (snapshot installed or ordinary execution
    /// resumed): cancel the retry timer.
    pub fn complete<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.attempt = 0;
    }
}

/// The requests a leader proposes from, each at most once, and the cut of
/// the next batch.
#[derive(Debug)]
pub struct Mempool {
    queue: VecDeque<SignedRequest>,
    batch_size: usize,
}

impl Mempool {
    /// An empty mempool cutting batches of at most `batch_size` requests.
    pub fn new(batch_size: usize) -> Mempool {
        Mempool {
            queue: VecDeque::new(),
            batch_size,
        }
    }

    /// Queue `signed` unless it is queued already.
    pub fn push(&mut self, signed: &SignedRequest) {
        if !self.contains(signed.request.id) {
            self.queue.push_back(signed.clone());
        }
    }

    /// Whether `id` is queued.
    pub fn contains(&self, id: RequestId) -> bool {
        self.queue.iter().any(|r| r.request.id == id)
    }

    /// Requests queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue in proposal order, for a leader that rearranges it.
    pub fn queue_mut(&mut self) -> &mut [SignedRequest] {
        self.queue.make_contiguous()
    }

    /// Before proposing: drop what has executed or is `in_flight`.
    pub fn drop_ordered(
        &mut self,
        exec: &Execution,
        in_flight: impl IntoIterator<Item = RequestId>,
    ) {
        let open: Vec<RequestId> = in_flight.into_iter().collect();
        let ordered = |id: &RequestId| exec.is_executed(id) || open.contains(id);
        self.queue.retain(|r| !ordered(&r.request.id));
    }

    /// Drop the requests of `batch`: a proposal carries them.
    pub fn remove(&mut self, batch: &[SignedRequest]) {
        let proposed = |r: &SignedRequest| batch.iter().any(|b| b.request.id == r.request.id);
        self.queue.retain(|r| !proposed(r));
    }

    /// Queue again the stranded requests that have not executed.
    pub fn requeue(&mut self, exec: &Execution, stranded: &[SignedRequest]) {
        for r in stranded.iter().filter(|r| !exec.is_executed(&r.request.id)) {
            self.push(r);
        }
    }

    /// The next at most `batch_size` requests, in queue order.
    pub fn take(&mut self) -> Vec<SignedRequest> {
        let take = self.batch_size.min(self.queue.len());
        self.queue.drain(..take).collect()
    }

    /// The next batch, its sequence number `next_seq` (which advances) and
    /// its digest, charged as one `Hash`; `None` when nothing is queued.
    pub fn cut<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        next_seq: &mut SeqNum,
    ) -> Option<(SeqNum, Digest, Vec<SignedRequest>)> {
        if self.queue.is_empty() {
            return None;
        }
        let batch = self.take();
        let seq = *next_seq;
        *next_seq = seq.next();
        let digest = digest_of(&batch);
        ctx.charge_crypto(CryptoOp::Hash);
        Some((seq, digest, batch))
    }
}

/// A `deliver` closure for [`Execution`] and [`Intake::admit`]: charge
/// `auth` (if any) and send the reply, wrapped by `wrap`, to its client.
pub fn reply_to_client<M: WireSize + serde::Serialize + 'static>(
    auth: Option<CryptoOp>,
    wrap: impl Fn(Reply) -> M,
) -> impl FnMut(&mut Context<'_, M>, Reply, SeqNum) {
    move |ctx, reply, _| {
        if let Some(op) = auth {
            ctx.charge_crypto(op);
        }
        ctx.send(NodeId::Client(reply.request.client), wrap(reply));
    }
}

/// An [`Entry`] whose payload is the batch itself.
pub type BatchEntry = Entry<Vec<SignedRequest>>;

/// One consensus slot: what every ordering stage knows about a sequence
/// number — the proposal's digest, its batch once the proposal itself has
/// arrived, whether the slot is committed — plus the protocol's own
/// agreement state `ext` (vote lists, phase flags, timers). Whether a slot
/// has *executed* is not stored: it has iff it is at or below the
/// [`Execution`] cursor.
#[derive(Debug, Clone, Default)]
pub struct Slot<X> {
    /// Digest of the proposal, known from the proposal or from a
    /// certificate that outran it.
    pub digest: Option<Digest>,
    /// The batch; `None` until the proposal carrying it is installed, so a
    /// slot that committed ahead of its proposal cannot execute as empty.
    pub batch: Option<Vec<SignedRequest>>,
    /// Committed (for the speculative protocols: certified) — executable
    /// once every earlier slot has executed.
    pub committed: bool,
    /// The first state-machine sequence number its batch took, set when
    /// it executes: what a speculative member's rollback aims at.
    pub sm_start: Option<SeqNum>,
    /// Protocol-specific agreement state.
    pub ext: X,
}

impl<X: Default> Slot<X> {
    /// Forget the agreement reached so far (a new view re-runs it).
    pub fn reset(&mut self) {
        self.committed = false;
        self.ext = X::default();
    }
}

impl<X> Slot<X> {
    /// Mark slot `seq` committed on `digest` in `view` and observe it.
    pub fn commit<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        seq: SeqNum,
        view: View,
        digest: Digest,
    ) {
        self.committed = true;
        ctx.observe(Observation::Commit {
            seq,
            view,
            digest,
            speculative: false,
        });
    }
}

/// One agreement phase of one slot: one vote per replica, bound to the
/// digest it was cast for. Only votes for the slot's installed digest count
/// — a vote that raced ahead of the proposal counts once the proposal
/// brings the same digest, never toward another — and the quorum is
/// crossed once.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    voters: Vec<ReplicaId>,
    /// The digest of the first vote and the votes it drew.
    first: Option<(Digest, usize)>,
    /// Votes for any other digest (only equivocation casts them).
    others: Vec<Digest>,
    crossed: bool,
}

impl Tally {
    /// Record `from`'s vote for `digest` (its first vote stands); the
    /// `installed` digest once the votes for it reach `quorum`.
    pub fn vote(
        &mut self,
        from: ReplicaId,
        digest: Digest,
        installed: Option<Digest>,
        quorum: usize,
    ) -> Option<Digest> {
        if !self.voters.contains(&from) {
            self.voters.push(from);
            match &mut self.first {
                Some((d, votes)) if *d == digest => *votes += 1,
                Some(_) => self.others.push(digest),
                None => self.first = Some((digest, 1)),
            }
        }
        let installed = installed.filter(|d| !self.crossed && self.count(*d) >= quorum)?;
        self.crossed = true;
        Some(installed)
    }

    /// Votes cast for `digest`.
    pub fn count(&self, digest: Digest) -> usize {
        let first = self.first.filter(|(d, _)| *d == digest);
        first.map_or(0, |(_, votes)| votes) + self.others.iter().filter(|d| **d == digest).count()
    }

    /// Whether the quorum has been reached.
    pub fn crossed(&self) -> bool {
        self.crossed
    }
}

/// The PBFT-pattern agreement of one slot: prepares, then commits.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    prepares: Tally,
    commits: Tally,
}

impl Rounds {
    /// Whether the prepare quorum has formed.
    pub fn prepared(&self) -> bool {
        self.prepares.crossed()
    }
}

/// The prepare → commit pair as PBFT, Prime and Themis each run it over
/// slots whose agreement state `X` holds the [`Rounds`] (`ext` finds it):
/// their quorums, the authenticator charged per broadcast vote (`count` ×
/// `op`) and the two vote messages, built from `(view, slot, digest,
/// voter)`.
pub(crate) struct RoundRules<M, X> {
    pub me: ReplicaId,
    pub ext: fn(&mut X) -> &mut Rounds,
    pub prepare_quorum: usize,
    pub commit_quorum: usize,
    pub auth: (CryptoOp, usize),
    pub prepare: fn(View, SeqNum, Digest, ReplicaId) -> M,
    pub commit: fn(View, SeqNum, Digest, ReplicaId) -> M,
}

impl<M: WireSize + serde::Serialize + 'static, X> RoundRules<M, X> {
    /// Broadcast this replica's prepare for `digest` at slot `seq` of
    /// `view` and count it — after the `proposer`'s, where the proposal is
    /// its prepare. `true` if the slot committed: the caller executes.
    pub fn prepare(
        &self,
        ctx: &mut Context<'_, M>,
        slot: &mut Slot<X>,
        (view, seq): (View, SeqNum),
        digest: Digest,
        proposer: Option<ReplicaId>,
    ) -> bool {
        ctx.charge_crypto_n(self.auth.0, self.auth.1);
        ctx.broadcast_replicas((self.prepare)(view, seq, digest, self.me));
        let at = (view, seq);
        let by_proposer = proposer.is_some_and(|p| self.count(ctx, slot, at, (false, p), digest));
        self.count(ctx, slot, at, (false, self.me), digest) || by_proposer
    }

    /// Count `from`'s prepare (`commit` false) or commit. The prepare
    /// quorum broadcasts and counts this replica's commit; the commit
    /// quorum, once prepared, commits the slot. `true` if it did.
    pub fn count(
        &self,
        ctx: &mut Context<'_, M>,
        slot: &mut Slot<X>,
        (view, seq): (View, SeqNum),
        (commit, from): (bool, ReplicaId),
        digest: Digest,
    ) -> bool {
        let rounds = (self.ext)(&mut slot.ext);
        let (tally, installed, quorum) = if commit {
            let prepared = slot.digest.filter(|_| rounds.prepared());
            (&mut rounds.commits, prepared, self.commit_quorum)
        } else {
            (&mut rounds.prepares, slot.digest, self.prepare_quorum)
        };
        let Some(digest) = tally.vote(from, digest, installed, quorum) else {
            return false;
        };
        if commit {
            slot.commit(ctx, seq, view, digest);
            return true;
        }
        ctx.charge_crypto_n(self.auth.0, self.auth.1);
        ctx.broadcast_replicas((self.commit)(view, seq, digest, self.me));
        self.count(ctx, slot, (view, seq), (true, self.me), digest)
    }
}

/// The committed-slot log of every ordering protocol but Q/U:
/// consensus slots by sequence number, executed by [`Execution::drain`].
/// The map is exposed (`Deref`) for protocol-specific queries; the verbs
/// every protocol shares live here. The checkpointing stage collects the
/// log at each stable checkpoint.
#[derive(Debug)]
pub struct SlotLog<X>(BTreeMap<SeqNum, Slot<X>>);

impl<X> Default for SlotLog<X> {
    fn default() -> Self {
        SlotLog(BTreeMap::new())
    }
}

impl<X> std::ops::Deref for SlotLog<X> {
    type Target = BTreeMap<SeqNum, Slot<X>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<X> std::ops::DerefMut for SlotLog<X> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<X: Default> SlotLog<X> {
    /// The slot at `seq`, created empty if absent.
    pub fn slot(&mut self, seq: SeqNum) -> &mut Slot<X> {
        self.0.entry(seq).or_default()
    }

    /// Install a proposal. `false` (and nothing changes) if the slot
    /// already holds a different digest — the first proposal stands.
    pub fn install(&mut self, seq: SeqNum, digest: Digest, batch: Vec<SignedRequest>) -> bool {
        let slot = self.slot(seq);
        let fresh = slot.digest.is_none_or(|held| held == digest);
        if fresh {
            (slot.digest, slot.batch) = (Some(digest), Some(batch));
        }
        fresh
    }

    /// Install a new view's re-proposal over whatever the slot held and
    /// [`reset`](Slot::reset) its agreement state.
    pub fn reinstall(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<SignedRequest>,
    ) -> &mut Slot<X> {
        let slot = self.slot(seq);
        (slot.digest, slot.batch) = (Some(digest), Some(batch));
        slot.reset();
        slot
    }

    /// Drop every slot above `cursor` that a new view does not re-propose
    /// and hand back the requests stranded in them.
    pub fn strand(&mut self, cursor: SeqNum, re_proposed: &[SeqNum]) -> Vec<SignedRequest> {
        let open = self.above(cursor).map(|(seq, _)| *seq);
        let dead: Vec<SeqNum> = open.filter(|seq| !re_proposed.contains(seq)).collect();
        let slots = dead.iter().filter_map(|seq| self.0.remove(seq));
        slots.flat_map(|s| s.batch.unwrap_or_default()).collect()
    }

    /// Requests sitting in slots above `cursor` (proposed, not executed):
    /// a leader must not propose them a second time.
    pub fn in_flight(&self, cursor: SeqNum) -> impl Iterator<Item = RequestId> + '_ {
        self.above(cursor)
            .flat_map(|(_, s)| s.batch.iter().flatten().map(|r| r.request.id))
    }

    /// The slots above `cursor` that satisfy `keep` and hold a proposal,
    /// as re-proposable entries — what a view-change message reports.
    pub fn entries_above(
        &self,
        cursor: SeqNum,
        keep: impl Fn(&Slot<X>) -> bool,
    ) -> Vec<BatchEntry> {
        self.above(cursor)
            .filter(|(_, s)| keep(s))
            .filter_map(|(seq, s)| Some((*seq, s.digest?, s.batch.clone()?)))
            .collect()
    }

    fn above(&self, cursor: SeqNum) -> impl Iterator<Item = (&SeqNum, &Slot<X>)> {
        use std::ops::Bound::{Excluded, Unbounded};
        self.0.range((Excluded(cursor), Unbounded))
    }
}

/// The execution stage of Figure 1, shared by every replicated protocol:
/// the state machine, the set of executed requests and the cursor over
/// consensus slots. It runs committed batches in order and hands each
/// [`Reply`] to the protocol's `deliver` closure, which authenticates and
/// sends it (plain send, CheapBFT's actives-only, SBFT's exec share to the
/// collector, Zyzzyva's `SpecReply`) — `deliver` also receives the state
/// machine sequence number the request executed at.
///
/// The ordering stage decides *which* batch sits in the next slot and
/// whether it is committed; this stage only ever executes a batch it is
/// actually handed, so a slot whose proposal has not arrived cannot be
/// executed as an empty placeholder. Every ordering protocol runs its
/// [`SlotLog`] through the one loop, [`Execution::drain`] (the skeleton's
/// members through [`Core::drain`], which adds the checkpointing stage).
///
/// The undo log serves speculative rollback and the checkpointing stage's
/// snapshots; the checkpointing stage truncates it at each stable
/// checkpoint.
#[derive(Debug, Default)]
pub struct Execution {
    sm: StateMachine,
    /// Last executed consensus slot (slot space ≠ request space when
    /// batches hold several requests).
    cursor: SeqNum,
    speculative: bool,
    skip_executed: bool,
    /// Test-only sabotage: silently skip the request at this position of
    /// the execution stream (see [`Execution::dropping_nth`]).
    drop_nth: Option<u64>,
    /// Requests [`Execution::execute`] has been handed.
    seen: u64,
}

impl Execution {
    /// A stage at slot 0 with an empty state machine.
    pub fn new() -> Execution {
        Execution::default()
    }

    /// Execute speculatively (PoE, Zyzzyva): effects can be undone by
    /// [`Execution::rollback`] and replies are marked speculative.
    pub fn speculative(mut self) -> Execution {
        self.speculative = true;
        self
    }

    /// Skip requests of a batch that already executed (protocols whose
    /// ordering stage can decide one request in two slots: Chain, HotStuff,
    /// Kauri, Prime, Tendermint, Themis).
    pub fn skipping_executed(mut self) -> Execution {
        self.skip_executed = true;
        self
    }

    /// Last executed consensus slot.
    pub fn cursor(&self) -> SeqNum {
        self.cursor
    }

    /// Read access to the state machine (digest, snapshots, read path).
    pub fn sm(&self) -> &StateMachine {
        &self.sm
    }

    /// Whether `id` has executed here (and was not rolled back).
    pub fn is_executed(&self, id: &RequestId) -> bool {
        self.sm.is_executed(id)
    }

    /// Test-only sabotage (PBFT's `DropExecution`): the `k`-th request
    /// handed to this stage (0-based) is marked executed and answered with
    /// a fabricated result without being applied. Every replica fabricates
    /// identically, so digests stay unanimous — only the semantic checkers
    /// can catch the lost update.
    #[doc(hidden)]
    pub fn dropping_nth(mut self, k: Option<u64>) -> Execution {
        self.drop_nth = k;
        self
    }

    /// The reply this replica would re-send for `id`, if `id` is still the
    /// client's latest executed request: its cached result and the state
    /// digest its execution left, beside the sequence number it executed
    /// at.
    pub fn cached_reply(&self, id: RequestId, view: View) -> Option<(Reply, SeqNum)> {
        let cached = self.sm.cached_reply(id.client)?;
        let reply = Reply {
            request: id,
            view,
            result: cached.result.clone(),
            state_digest: cached.state_digest,
            speculative: self.speculative,
        };
        (cached.request == id).then_some((reply, cached.seq))
    }

    /// Whether execution is speculative.
    pub fn is_speculative(&self) -> bool {
        self.speculative
    }

    /// Execute one request at the next state-machine sequence number:
    /// charge its `Op::Work` (1 µs per unit), apply it, observe the
    /// execution, mark it executed and deliver the reply. Already-executed
    /// requests are skipped when the stage was built
    /// [`skipping_executed`](Execution::skipping_executed).
    fn execute<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        signed: &SignedRequest,
        view: View,
        deliver: &mut impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
    ) {
        let id = signed.request.id;
        if self.skip_executed && self.sm.is_executed(&id) {
            return;
        }
        self.seen += 1;
        if self.drop_nth == Some(self.seen - 1) {
            self.sm.set_executed(id, true);
            let ops = signed.request.txn.ops.iter();
            let reads = ops.filter(|op| !matches!(op, Op::Put(..) | Op::Delete(_) | Op::Work(_)));
            let fabricated = Reply {
                request: id,
                view,
                result: bft_types::TxnResult {
                    reads: reads.map(|_| Some(0)).collect(),
                },
                state_digest: self.sm.digest(),
                speculative: false,
            };
            return deliver(ctx, fabricated, SeqNum(0));
        }
        let seq = self.sm.last_executed().next();
        let work: u32 = signed
            .request
            .txn
            .ops
            .iter()
            .map(|op| if let Op::Work(w) = op { *w } else { 0 })
            .sum();
        if work > 0 {
            ctx.charge(SimDuration(work as u64 * 1_000));
        }
        let (result, state_digest) = if self.speculative {
            self.sm.execute_speculative(seq, &signed.request)
        } else {
            self.sm.execute(seq, &signed.request)
        };
        ctx.observe(Observation::Execute {
            seq,
            request: id,
            state_digest,
        });
        let reply = Reply {
            request: id,
            view,
            result,
            state_digest,
            speculative: self.speculative,
        };
        deliver(ctx, reply, seq);
    }

    /// The one cursor loop over a committed-slot log, whatever the ordering
    /// stage: while the slot after the cursor is committed *and holds its
    /// batch*, run the batch bracketed by the Execution/Ordering stage
    /// observations and advance the cursor. A gap, an uncommitted slot or
    /// a slot still waiting for its proposal stops the loop; the caller
    /// re-enters when that changes. The replies carry `view`. Per slot,
    /// `close` runs after the last request and before the stage is left
    /// (PoE observes its speculative commit), and `after` runs with the
    /// stage and the log once the cursor is past the slot (the
    /// checkpointing stage, shipping to passive replicas, forwarding down a
    /// chain).
    pub fn drain<M: WireSize + serde::Serialize + 'static, X>(
        &mut self,
        ctx: &mut Context<'_, M>,
        log: &mut SlotLog<X>,
        view: View,
        mut deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
        mut close: impl FnMut(&mut Context<'_, M>, &Execution, SeqNum, &mut Slot<X>),
        mut after: impl FnMut(&mut Context<'_, M>, &mut Execution, &mut SlotLog<X>, SeqNum),
    ) {
        let enter = |stage| Observation::StageEnter { stage };
        loop {
            let next = self.cursor.next();
            let Some(slot) = log
                .get_mut(&next)
                .filter(|s| s.committed && s.batch.is_some())
            else {
                return;
            };
            slot.sm_start = Some(self.sm.last_executed().next());
            ctx.observe(enter(Stage::Execution));
            for signed in slot.batch.iter().flatten() {
                self.execute(ctx, signed, view, &mut deliver);
            }
            close(ctx, self, next, slot);
            self.cursor = next;
            ctx.observe(enter(Stage::Ordering));
            after(ctx, self, log, next);
        }
    }

    /// Undo every execution at state-machine sequence number ≥ `from`
    /// (speculation that did not survive a view change) and re-aim the
    /// cursor at slot `cursor`: the requests become executable again.
    /// Observes the rollback if anything was undone.
    pub fn rollback<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: SeqNum,
        cursor: SeqNum,
    ) {
        self.cursor = cursor;
        let undone = self.sm.history().iter().filter(|e| e.seq >= from);
        let undone: Vec<RequestId> = undone.map(|e| e.request).collect();
        if self.sm.rollback_to(from) > 0 {
            ctx.observe(Observation::Rollback { from_seq: from });
        }
        for id in undone {
            self.sm.set_executed(id, false);
        }
    }

    /// Mark speculative executions up to `seq` final.
    pub fn confirm_up_to(&mut self, seq: SeqNum) {
        self.sm.confirm_up_to(seq);
    }

    /// Replace the machine state with `snapshot`, which covers consensus
    /// slots up to `slot`.
    pub fn install_snapshot(&mut self, snapshot: &Snapshot, slot: SeqNum) {
        self.sm.install_snapshot(snapshot);
        self.cursor = slot;
    }

    /// Drop undo/history bookkeeping at or below `seq` (stable checkpoint).
    pub fn truncate_below(&mut self, seq: SeqNum) {
        self.sm.truncate_below(seq);
    }
}

/// Request intake on the path every replicated protocol shares: verify the
/// client signature, answer a retransmission of an executed request from
/// the reply cache ([`Intake::admit`]), and — at a backup — forward the
/// request to the leader, remember it as outstanding and hold the leader
/// accountable with the view-change timer τ2 ([`Intake::relay`]). The same
/// τ2 handle is re-armed by a protocol's view-change code and disarmed when
/// the outstanding set drains ([`Intake::settle`]).
#[derive(Debug)]
pub struct Intake {
    /// Requests relayed (or merely seen) and not yet executed here.
    pending: Vec<RequestId>,
    timer: Option<TimerId>,
    /// When the latest τ2 span started.
    armed_at: SimTime,
    timeout: SimDuration,
}

impl Intake {
    /// An intake whose τ2 runs for `view_timeout`.
    pub fn new(view_timeout: SimDuration) -> Intake {
        Intake {
            pending: Vec::new(),
            timer: None,
            armed_at: SimTime::ZERO,
            timeout: view_timeout,
        }
    }

    /// Charge for and check the client's signature on a request.
    pub fn verify<M: WireSize + serde::Serialize + 'static>(
        ctx: &mut Context<'_, M>,
        store: &KeyStore,
        signed: &SignedRequest,
    ) -> bool {
        ctx.charge_crypto(CryptoOp::Verify); // client signatures are real signatures
        signed.verify(store)
    }

    /// Verify a client request and decide whether it is new work. A
    /// request this replica already executed is answered through `deliver`
    /// when the client's cached reply is still for that request (`deliver`
    /// gets the reply and the state-machine sequence number the request
    /// executed at), and dropped either way. Returns `true` for a valid,
    /// unexecuted request.
    pub fn admit<M: WireSize + serde::Serialize + 'static>(
        ctx: &mut Context<'_, M>,
        store: &KeyStore,
        exec: &Execution,
        signed: &SignedRequest,
        view: View,
        deliver: impl FnOnce(&mut Context<'_, M>, Reply, SeqNum),
    ) -> bool {
        if !Self::verify(ctx, store, signed) {
            return false;
        }
        if let Some((reply, seq)) = exec.cached_reply(signed.request.id, view) {
            deliver(ctx, reply, seq);
            return false;
        }
        !exec.is_executed(&signed.request.id)
    }

    /// Backup path: forward the request to `leader` (wrapped by `wrap`)
    /// and [`watch`](Intake::watch) it.
    pub fn relay<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        signed: &SignedRequest,
        leader: ReplicaId,
        wrap: impl FnOnce(SignedRequest) -> M,
        may_arm: bool,
    ) {
        ctx.send(NodeId::Replica(leader), wrap(signed.clone()));
        self.watch(ctx, signed.request.id, may_arm);
    }

    /// Remember `id` as outstanding and, unless a view change is already
    /// under way (`may_arm` false), make sure τ2 is running.
    pub fn watch<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        id: RequestId,
        may_arm: bool,
    ) {
        if !self.pending.contains(&id) {
            self.pending.push(id);
        }
        if may_arm {
            self.arm(ctx);
        }
    }

    /// After execution progress: forget outstanding requests that have
    /// executed and stop τ2 once none remain.
    pub fn settle<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        exec: &Execution,
    ) {
        self.pending.retain(|id| !exec.is_executed(id));
        if self.pending.is_empty() {
            self.disarm(ctx);
        }
    }

    /// The outstanding request watched longest.
    pub fn oldest(&self) -> Option<RequestId> {
        self.pending.first().copied()
    }

    /// Whether relayed requests are still outstanding.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Forget every outstanding request (a new view starts clean).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Start τ2 unless it is already running; `true` if it was started.
    pub fn arm<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
    ) -> bool {
        if self.timer.is_some() {
            return false;
        }
        self.rearm(ctx);
        true
    }

    /// Start a fresh τ2 span; a span already running is orphaned (its pop
    /// no longer matches [`Intake::fired`]), not cancelled.
    pub fn rearm<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        self.rearm_for(ctx, self.timeout);
    }

    /// [`Intake::rearm`] with an explicit span.
    pub fn rearm_for<M: WireSize + serde::Serialize + 'static>(
        &mut self,
        ctx: &mut Context<'_, M>,
        span: SimDuration,
    ) {
        self.timer = Some(ctx.set_timer(TimerKind::T2ViewChange, span));
        self.armed_at = ctx.now();
    }

    /// When the latest τ2 span started.
    pub fn armed_at(&self) -> SimTime {
        self.armed_at
    }

    /// Cancel τ2 if it is running.
    pub fn disarm<M: WireSize + serde::Serialize + 'static>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Timer pop: `true` (and τ2 is marked stopped) iff `id` is the live τ2.
    pub fn fired(&mut self, id: TimerId) -> bool {
        let hit = self.timer == Some(id);
        if hit {
            self.timer = None;
        }
        hit
    }

    /// Forget the τ2 handle without cancelling it (the timer died with a
    /// crashed incarnation).
    pub fn forget_timer(&mut self) {
        self.timer = None;
    }
}

/// The view gate in front of a protocol's ordering messages: the current
/// view, whether a view change is in progress, and the bounded buffer of
/// messages that raced ahead of the new-view message that would make them
/// current.
#[derive(Debug)]
pub struct ViewGate<M> {
    view: View,
    in_view_change: bool,
    future: Vec<(View, NodeId, M)>,
}

impl<M> Default for ViewGate<M> {
    fn default() -> Self {
        ViewGate {
            view: View(0),
            in_view_change: false,
            future: Vec::new(),
        }
    }
}

impl<M: Clone> ViewGate<M> {
    /// Buffered messages beyond this many are dropped (flood bound).
    pub const CAPACITY: usize = 10_000;

    /// A gate in view 0, normal operation, nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Whether a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Enter (`true`) or abandon (`false`) a view change without
    /// installing a view.
    pub fn set_in_view_change(&mut self, on: bool) {
        self.in_view_change = on;
    }

    /// Install `view`: it becomes current and normal operation resumes.
    /// Buffered messages stay put until
    /// [`replay_after_install`](ViewGate::replay_after_install).
    pub fn install(&mut self, view: View) {
        self.view = view;
        self.in_view_change = false;
    }

    /// Admit a message tagged `view`: `true` iff it belongs to the current
    /// view in normal operation. A message ahead of the view — or for the
    /// current view while a view change is in progress — is buffered for
    /// replay; a stale one is dropped.
    pub fn admit(&mut self, from: NodeId, view: View, msg: &M) -> bool {
        if view > self.view || (self.in_view_change && view == self.view) {
            if self.future.len() < Self::CAPACITY {
                self.future.push((view, from, msg.clone()));
            }
            false
        } else {
            view == self.view && !self.in_view_change
        }
    }

    /// After installing a view: take the buffered messages of exactly that
    /// view, in arrival order, for re-delivery; later views stay buffered
    /// and stale ones are dropped.
    pub fn replay_after_install(&mut self) -> Vec<(NodeId, M)> {
        let cur = self.view;
        let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.future)
            .into_iter()
            .filter(|(v, _, _)| *v >= cur)
            .partition(|(v, _, _)| *v == cur);
        self.future = later;
        now.into_iter().map(|(_, from, m)| (from, m)).collect()
    }
}

/// A re-proposable consensus entry: `(slot, digest, payload)` — the unit
/// view-change and new-view messages carry. The payload is the batch
/// ([`BatchEntry`]) or, for Themis, the per-replica batch set.
pub type Entry<P> = (SeqNum, Digest, P);

/// The messages of the PBFT-pattern family's shared stages — the view
/// change and checkpointing — embedded in each member's message enum.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewMsg<P> {
    /// Replica → all: abandon the view, carrying the sender's stable
    /// checkpoint and the entries it would lose.
    ViewChange {
        /// Target view.
        new_view: View,
        /// The sender's stable checkpoint: its slot and state digest.
        stable: (SeqNum, Digest),
        /// What the sender reports (see `ViewChanger::report`).
        report: Vec<Entry<P>>,
        /// Sender.
        from: ReplicaId,
    },
    /// New leader → all: install the view with these re-proposals.
    NewView {
        /// Installed view.
        view: View,
        /// Re-proposals.
        proposals: Vec<Entry<P>>,
    },
    /// Replica → the target view's leader: it received `voter`'s vote
    /// (needed where votes are MACs, see [`VoteAuth::acks`]).
    Ack {
        /// Target view.
        view: View,
        /// Whose vote is acknowledged.
        voter: ReplicaId,
        /// Sender.
        from: ReplicaId,
    },
    /// Replica → all: its state digest at checkpoint `seq`.
    Checkpoint {
        /// The checkpoint's slot.
        seq: SeqNum,
        /// State digest there.
        state_digest: Digest,
        /// Attesting replica.
        from: ReplicaId,
    },
    /// Trailing replica → a peer: ask for a snapshot above `have`.
    StateRequest {
        /// Requester.
        from: ReplicaId,
        /// The requester's execution cursor.
        have: SeqNum,
    },
    /// A checkpoint's snapshot, shipped for catch-up.
    StateTransfer {
        /// The checkpoint's slot.
        slot_seq: SeqNum,
        /// The snapshot, rebuilt when it was asked for.
        snapshot: Box<Snapshot>,
    },
}

/// As a tagged tuple (the vendored derive does not do generic types).
impl<P: serde::Serialize> serde::Serialize for ViewMsg<P> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            ViewMsg::ViewChange {
                new_view,
                stable,
                report,
                from,
            } => (0u8, new_view, stable, report, from).serialize(serializer),
            ViewMsg::NewView { view, proposals } => (1u8, view, proposals).serialize(serializer),
            ViewMsg::Ack { view, voter, from } => (2u8, view, voter, from).serialize(serializer),
            ViewMsg::Checkpoint {
                seq,
                state_digest,
                from,
            } => (3u8, seq, state_digest, from).serialize(serializer),
            ViewMsg::StateRequest { from, have } => (4u8, from, have).serialize(serializer),
            ViewMsg::StateTransfer { slot_seq, snapshot } => {
                (5u8, slot_seq, snapshot).serialize(serializer)
            }
        }
    }
}

impl<P> ViewMsg<P> {
    /// Wire size: tag, view, per entry 40 bytes of slot and digest plus
    /// `payload` bytes (a vote's stable checkpoint: one more entry without
    /// payload; an ack: the two replicas), and a `sig`-byte authenticator.
    /// A checkpoint carries slot, digest and sender under `sig`; a state
    /// request is not authenticated, and a snapshot is approximated as a
    /// fixed-size shipment.
    pub fn wire_size(&self, sig: usize, payload: impl Fn(&P) -> usize) -> usize {
        let (stable, entries) = match self {
            ViewMsg::ViewChange { report, .. } => (40, report),
            ViewMsg::NewView { proposals, .. } => (0, proposals),
            ViewMsg::Ack { .. } => return 1 + 8 + 4 + 4 + sig,
            ViewMsg::Checkpoint { .. } => return 1 + 8 + 32 + 4 + sig,
            ViewMsg::StateRequest { .. } => return 1 + 4 + 8,
            ViewMsg::StateTransfer { .. } => return 1 + 8 + 32 + 64 * 128,
        };
        let entries = entries.iter().map(|(_, _, p)| 40 + payload(p));
        1 + 8 + stable + entries.sum::<usize>() + sig
    }
}

/// One view-change vote: the voter, the slot of its stable checkpoint and
/// the entries it reported.
type Vote<P> = (ReplicaId, SeqNum, Vec<Entry<P>>);

/// What [`ViewChange::record`] tells the replica to do about a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcStep {
    /// Nothing: a duplicate, or no threshold crossed.
    Wait,
    /// f+1 replicas want the target view and this one is not campaigning
    /// yet: at least one of them is correct, so join.
    Join,
    /// This replica leads the target view, is campaigning, and holds a
    /// new-view quorum of votes, each acked where the protocol needs it:
    /// assemble and install the view.
    Assemble,
}

/// The vote table of the PBFT-pattern view change — per target view, who
/// voted, the entries each voter reported and who acknowledged each vote —
/// with the rules that do not vary between protocols: one vote per sender,
/// join at f+1, assemble only at the target's leader at the protocol's
/// quorum of (acked) votes, escalate on τ2.
#[derive(Debug)]
pub struct ViewChange<P> {
    votes: BTreeMap<View, Vec<Vote<P>>>,
    /// Per target view and voter, the replicas that acknowledged the vote.
    acks: BTreeMap<(View, ReplicaId), Vec<ReplicaId>>,
}

impl<P> Default for ViewChange<P> {
    fn default() -> Self {
        ViewChange {
            votes: BTreeMap::new(),
            acks: BTreeMap::new(),
        }
    }
}

impl<P: Clone> ViewChange<P> {
    /// Record `from`'s vote for `target` at replica `me`, which is in
    /// `view` and `campaigning` or not; `quorum` is the protocol's new-view
    /// quorum and `acks` what each foreign vote needs before it may be used.
    /// The vote is `from`'s stable checkpoint and report.
    pub fn record(
        &mut self,
        (me, q): (ReplicaId, QuorumRules),
        (quorum, acks): (usize, usize),
        (view, campaigning): (View, bool),
        from: ReplicaId,
        target: View,
        (stable, report): (SeqNum, Vec<Entry<P>>),
    ) -> VcStep {
        if self.has_vote(target, from) {
            return VcStep::Wait;
        }
        let votes = self.votes.entry(target).or_default();
        votes.push((from, stable, report));
        if target > view && !campaigning && votes.len() > q.f {
            VcStep::Join
        } else if campaigning && self.assembles((me, q), (quorum, acks), target) {
            VcStep::Assemble
        } else {
            VcStep::Wait
        }
    }

    /// Record `from`'s ack of `voter`'s vote for `target`.
    pub fn ack(&mut self, target: View, voter: ReplicaId, from: ReplicaId) {
        let by = self.acks.entry((target, voter)).or_default();
        if !by.contains(&from) {
            by.push(from);
        }
    }

    /// Whether `me` leads `target` and holds `quorum` votes for it, every
    /// foreign one acknowledged by `acks` replicas.
    pub fn assembles(
        &self,
        (me, q): (ReplicaId, QuorumRules),
        (quorum, acks): (usize, usize),
        target: View,
    ) -> bool {
        let acked = |voter: ReplicaId| self.acks.get(&(target, voter)).map_or(0, Vec::len);
        let votes = self.votes(target);
        let vouched = votes
            .iter()
            .all(|(voter, ..)| *voter == me || acked(*voter) >= acks);
        target.leader_of(q.n) == me && votes.len() >= quorum && vouched
    }

    /// Whether `voter`'s vote for `target` is recorded.
    pub fn has_vote(&self, target: View, voter: ReplicaId) -> bool {
        self.votes(target).iter().any(|(r, ..)| *r == voter)
    }

    /// The votes collected for `target`, in arrival order.
    pub fn votes(&self, target: View) -> &[Vote<P>] {
        self.votes.get(&target).map_or(&[], Vec::as_slice)
    }

    /// The highest stable checkpoint any vote for `target` reports: the
    /// new view re-proposes nothing at or below it.
    pub fn stable(&self, target: View) -> SeqNum {
        let stables = self.votes(target).iter().map(|(_, stable, _)| *stable);
        stables.max().unwrap_or_default()
    }

    /// Per slot, the first entry any voter for `target` reported: the
    /// re-proposals most of the family's new leaders assemble.
    pub fn first_seen_union(&self, target: View) -> Vec<Entry<P>> {
        let mut union: BTreeMap<SeqNum, (Digest, &P)> = BTreeMap::new();
        let entries = self.votes(target).iter().flat_map(|(.., entries)| entries);
        for (seq, digest, payload) in entries {
            union.entry(*seq).or_insert((*digest, payload));
        }
        let entry =
            |(seq, (digest, payload)): (SeqNum, (Digest, &P))| (seq, digest, payload.clone());
        union.into_iter().map(entry).collect()
    }

    /// The highest view `me` voted for: what its campaign targets.
    pub fn campaign(&self, me: ReplicaId) -> Option<View> {
        let voted = |view: &&View| self.has_vote(**view, me);
        self.votes.keys().rev().find(voted).copied()
    }

    /// Whether a campaign by `me` for `target` would add nothing: it voted
    /// for that view or a higher one already.
    pub fn covers(&self, me: ReplicaId, target: View) -> bool {
        self.campaign(me).is_some_and(|v| v >= target)
    }

    /// The view τ2 demands next: past every view voted for so far while a
    /// campaign is stuck, the next view when outstanding work indicts the
    /// leader, none otherwise.
    pub fn escalation(&self, view: View, campaigning: bool, work_pending: bool) -> Option<View> {
        if campaigning {
            let voted = self.votes.keys().max().copied();
            Some(voted.unwrap_or(view).max(view).next())
        } else {
            work_pending.then(|| view.next())
        }
    }

    /// [`ViewChange::escalation`] where campaigns start apart: a stuck
    /// campaign steps one view past `me`'s own instead of past every view
    /// voted for, which a campaign started later keeps jumping (see
    /// DESIGN.md, "CheapBFT's escalation").
    pub fn escalation_past_own(
        &self,
        me: ReplicaId,
        (view, campaigning): (View, bool),
        work_pending: bool,
    ) -> Option<View> {
        if !campaigning {
            return self.escalation(view, false, work_pending);
        }
        Some(self.campaign(me).unwrap_or(view).max(view).next())
    }

    /// `view` is installed: votes for it and for earlier views are moot.
    pub fn prune(&mut self, view: View) {
        self.votes.retain(|v, _| *v > view);
        self.acks.retain(|(v, _), _| *v > view);
    }
}

/// What PBFT's and CheapBFT's view-change messages carry per slot: the
/// batch and the view it was prepared (CheapBFT's view 0: agreed) in.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PbftCert(pub View, pub Vec<SignedRequest>);

impl WireSize for PbftCert {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl ViewChange<PbftCert> {
    /// PBFT's new-view rule: above the highest stable checkpoint any vote
    /// for `target` reports, per slot the batch certified in the highest
    /// view (the first reported among equals), and a null batch in every
    /// gap below the highest such slot.
    pub fn highest_certified(&self, target: View) -> Vec<Entry<PbftCert>> {
        let mut chosen: BTreeMap<SeqNum, &Entry<PbftCert>> = BTreeMap::new();
        for entry in self.votes(target).iter().flat_map(|(.., r)| r) {
            let (seq, _, PbftCert(view, _)) = entry;
            let held = chosen.get(seq).map(|(.., PbftCert(held, _))| *held);
            if held.is_none_or(|held| held < *view) {
                chosen.insert(*seq, entry);
            }
        }
        let stable = self.stable(target).0;
        let top = chosen.keys().next_back().map_or(stable, |s| s.0);
        let empty: Vec<SignedRequest> = Vec::new();
        let null = |seq| (seq, digest_of(&empty), PbftCert(target, vec![]));
        let slot = |seq| chosen.get(&seq).map_or_else(|| null(seq), |e| (*e).clone());
        (stable + 1..=top).map(|s| slot(SeqNum(s))).collect()
    }
}

/// How a family member authenticates its view change: what one broadcast
/// vote costs (`count` × `op`), what checking a received vote or new-view
/// message costs, and how many acks from other replicas each foreign vote
/// needs before the new leader may use it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VoteAuth {
    pub send: (CryptoOp, usize),
    pub check: CryptoOp,
    pub acks: usize,
}

impl VoteAuth {
    /// Signed votes: a leader can show them to anyone, so none needs acks.
    pub const SIGNED: VoteAuth = VoteAuth {
        send: (CryptoOp::Sign, 1),
        check: CryptoOp::Verify,
        acks: 0,
    };
}

/// The request arm's two messages: the reply to a retransmission (given the
/// reply and the history position it reports; `None`: not answered) and
/// the request relayed to the leader (`None`: not relayed).
pub(crate) type RequestWire<M> = (
    Option<fn(Reply, SeqNum) -> M>,
    Option<fn(SignedRequest) -> M>,
);

/// A checkpoint attester: the replica, its vote authentication, its wire.
type Attester<M, P> = (ReplicaId, VoteAuth, fn(ViewMsg<P>) -> M);

/// What the checkpointing stage works on: its marks, the execution stage
/// and the log it collects.
type CheckpointParts<'a, X> = (
    &'a mut CheckpointManager,
    &'a mut Execution,
    &'a mut SlotLog<X>,
);

/// The log window for checkpoint `interval`: `max(4 · interval, 64)` slots.
fn window(interval: u64) -> u64 {
    (4 * interval).max(64)
}

/// The replica skeleton the PBFT-pattern family embeds: who this replica
/// is plus the lifecycle stages that do not vary between its members.
pub(crate) struct Core<M, X, P> {
    pub me: ReplicaId,
    pub q: QuorumRules,
    pub store: Arc<KeyStore>,
    pub gate: ViewGate<M>,
    pub votes: ViewChange<P>,
    pub intake: Intake,
    pub exec: Execution,
    pub log: SlotLog<X>,
    /// Leader-only: next sequence number to assign, and the requests it
    /// proposes from.
    pub next_seq: SeqNum,
    pub mempool: Mempool,
    /// The member's variant carrying the family's messages, and how they
    /// are authenticated (signed unless the member says otherwise).
    pub wire: fn(ViewMsg<P>) -> M,
    pub auth: VoteAuth,
    /// The checkpointing stage: attestations, marks, the stable checkpoint.
    pub ckpt: CheckpointManager,
    /// The catch-up stage, and whether this replica is rejoining: restarted
    /// or woken and not yet back in step with the quorum's working view.
    pub catchup: Catchup,
    pub rejoining: bool,
    /// A speculative member's latest installed new view, kept to bring
    /// voters that are behind up to date.
    pub last_new_view: Option<ViewMsg<P>>,
}

impl<M: WireSize + Clone + serde::Serialize + 'static, X: Default, P: Clone> Core<M, X, P> {
    /// A replica in view 0 with an empty log, executing through `exec`,
    /// sending on `wire`, checkpointing every `interval` slots (0: never)
    /// and cutting batches of at most `batch_size` requests.
    pub fn new(
        (me, q, store): (ReplicaId, QuorumRules, Arc<KeyStore>),
        wire: fn(ViewMsg<P>) -> M,
        exec: Execution,
        (view_timeout, interval): (SimDuration, u64),
        batch_size: usize,
    ) -> Self {
        Core {
            me,
            q,
            store,
            gate: ViewGate::new(),
            votes: ViewChange::default(),
            intake: Intake::new(view_timeout),
            exec,
            log: SlotLog::default(),
            next_seq: SeqNum(1),
            mempool: Mempool::new(batch_size),
            wire,
            auth: VoteAuth::SIGNED,
            // a quorum that f faulty replicas cannot block: 2f+1 at 3f+1
            ckpt: CheckpointManager::new(interval, q.quorum().min(q.n - q.f)),
            catchup: Catchup::new(me, q.n, view_timeout),
            rejoining: false,
            last_new_view: None,
        }
    }

    /// The leader of the current view.
    pub fn leader(&self) -> ReplicaId {
        self.gate.view().leader_of(self.q.n)
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// Enter `view`: it becomes current (so this replica is back in step),
    /// the votes it settles are dropped, τ2 stops, and the run observes the
    /// new view.
    pub fn enter_view(&mut self, view: View, ctx: &mut Context<'_, M>) {
        self.rejoining = false;
        self.gate.install(view);
        self.votes.prune(view);
        self.intake.disarm(ctx);
        ctx.observe(Observation::NewView { view });
    }

    /// The open slots satisfying `keep`, as a view-change report.
    pub fn open_entries(&self, keep: impl Fn(&Slot<X>) -> bool) -> Vec<BatchEntry> {
        self.log.entries_above(self.exec.cursor(), keep)
    }

    /// The request arm: admit a client request and queue it; a backup
    /// relays it to the leader — or only watches it where clients
    /// broadcast — holding the leader to it with τ2. `true` for new work,
    /// which the leader proposes.
    pub fn take_request(
        &mut self,
        ctx: &mut Context<'_, M>,
        signed: &SignedRequest,
        (reply, relay): RequestWire<M>,
    ) -> bool {
        let view = self.gate.view();
        let answer = |ctx: &mut Context<'_, M>, r: Reply, seq| {
            if let Some(reply) = reply {
                ctx.send(NodeId::Client(r.request.client), reply(r, seq))
            }
        };
        if !Intake::admit(ctx, &self.store, &self.exec, signed, view, answer) {
            return false;
        }
        self.mempool.push(signed);
        if !self.is_leader() {
            let may_arm = !self.gate.in_view_change();
            match relay {
                Some(wrap) => self.intake.relay(ctx, signed, self.leader(), wrap, may_arm),
                None => self.intake.watch(ctx, signed.request.id, may_arm),
            }
        }
        true
    }

    /// [`Mempool::drop_ordered`] against this replica's log.
    pub fn drop_ordered(&mut self) {
        let in_flight = self.log.in_flight(self.exec.cursor());
        self.mempool.drop_ordered(&self.exec, in_flight);
    }

    /// Whether slot `seq` has decided here, executed or not.
    pub fn decided(&self, seq: SeqNum) -> bool {
        seq <= self.exec.cursor() || self.log.get(&seq).is_some_and(|s| s.committed)
    }

    /// Where a decision rotates the leader (HotStuff, Tendermint): whether
    /// deciding slot `seq` in `view` ends this replica's view. A later
    /// view's decision does at once (it is the catch-up path); the current
    /// view's once it decides the last slot the view runs here — one
    /// installed in it (`installed_in` reads that view from the agreement
    /// state) or one never seen, rather than a slot this replica executed
    /// and the view runs again for replicas that lag.
    pub fn ends_view(&self, (view, seq): (View, SeqNum), installed_in: fn(&X) -> View) -> bool {
        let current = self.gate.view();
        if view != current {
            return view > current;
        }
        let ours = |s: &Slot<X>| s.batch.is_none() || installed_in(&s.ext) == view;
        let open = |s: &Slot<X>| s.batch.is_some() && installed_in(&s.ext) == view && !s.committed;
        let above = self.log.range(self.exec.cursor().next()..);
        let mut others = above.filter(|(s, _)| **s != seq).map(|(_, slot)| slot);
        seq > self.exec.cursor() && self.log.get(&seq).is_none_or(ours) && !others.any(open)
    }

    /// The highest slot a leader may propose: the window above the stable
    /// checkpoint, so the log runs at most that far ahead of collection.
    pub fn high_water(&self) -> SeqNum {
        match self.ckpt.interval {
            0 => SeqNum(u64::MAX),
            interval => self.ckpt.high_water(window(interval)),
        }
    }

    /// [`Mempool::cut`] at the next sequence number, inside the window.
    pub fn cut(
        &mut self,
        ctx: &mut Context<'_, M>,
    ) -> Option<(SeqNum, Digest, Vec<SignedRequest>)> {
        let open = self.next_seq <= self.high_water();
        open.then(|| self.mempool.cut(ctx, &mut self.next_seq))?
    }

    /// [`Execution::drain`] over this log in the current view, with the
    /// checkpointing stage after each slot. Where execution is speculative
    /// (PoE, Zyzzyva), executing a slot *is* its commit, observed at the
    /// slot with its batch digest before the Execution stage is left.
    /// `after_slot` is the member's bookkeeping with the intake, the stage
    /// and the slot once the slot executed (the stage's cursor is its seq).
    pub fn drain(
        &mut self,
        ctx: &mut Context<'_, M>,
        deliver: impl FnMut(&mut Context<'_, M>, Reply, SeqNum),
        mut after_slot: impl FnMut(&mut Context<'_, M>, &mut Intake, &Execution, &Slot<X>),
    ) {
        let (view, before) = (self.gate.view(), self.exec.cursor());
        let who = (self.me, self.auth, self.wire);
        self.exec.drain(
            ctx,
            &mut self.log,
            view,
            deliver,
            |ctx, exec, seq, slot| {
                if exec.is_speculative() {
                    ctx.observe(Observation::Commit {
                        seq,
                        view,
                        digest: slot.digest.unwrap_or(Digest::ZERO),
                        speculative: true,
                    });
                }
                (self.mempool).remove(slot.batch.as_deref().unwrap_or_default());
            },
            |ctx, exec, log, seq| {
                after_slot(ctx, &mut self.intake, exec, &log[&seq]);
                Self::checkpoint(ctx, who, (&mut self.ckpt, exec, log));
            },
        );
        if self.exec.cursor() > before {
            // execution progress: back in step with the quorum
            self.rejoining = false;
            self.catchup.complete(ctx);
        }
    }

    /// [`Core::drain`] with replies to the clients (authenticated by
    /// `auth`, wrapped by `wrap`), settling the intake after each slot.
    pub fn execute_ready(
        &mut self,
        ctx: &mut Context<'_, M>,
        auth: CryptoOp,
        wrap: impl Fn(Reply) -> M,
    ) {
        let deliver = reply_to_client(Some(auth), wrap);
        self.drain(ctx, deliver, |ctx, intake, exec, _| {
            intake.settle(ctx, exec)
        });
    }

    // ---- the checkpointing stage ------------------------------------------

    /// After an executed slot: where a checkpoint is due, mark the state
    /// and attest its digest to every replica.
    fn checkpoint(ctx: &mut Context<'_, M>, who: Attester<M, P>, stage: CheckpointParts<'_, X>) {
        let ((from, auth, wire), (ckpt, exec, log)) = (who, stage);
        let seq = exec.cursor();
        let Some(state_digest) = ckpt.checkpoint(seq, exec.sm()) else {
            return;
        };
        let enter = |stage| Observation::StageEnter { stage };
        ctx.observe(enter(Stage::Checkpointing));
        ctx.charge_crypto_n(auth.send.0, auth.send.1);
        let attest = ViewMsg::Checkpoint {
            seq,
            state_digest,
            from,
        };
        ctx.broadcast_replicas(wire(attest));
        Self::on_checkpoint(ctx, who, (ckpt, exec, log), (from, seq, state_digest));
        ctx.observe(enter(Stage::Ordering));
    }

    /// Count `from`'s attestation. A quorum makes the checkpoint stable:
    /// the slots and undo records it covers are collected, and a replica
    /// that has not executed that far (in the dark) asks an attester for
    /// state.
    fn on_checkpoint(
        ctx: &mut Context<'_, M>,
        (me, auth, wire): Attester<M, P>,
        (ckpt, exec, log): CheckpointParts<'_, X>,
        (from, seq, state_digest): (ReplicaId, SeqNum, Digest),
    ) {
        if from != me {
            ctx.charge_crypto(auth.check);
        }
        let Some(proof) = ckpt.add_attestation(from, seq, state_digest) else {
            return;
        };
        ctx.observe(Observation::StableCheckpoint {
            seq: proof.seq,
            state_digest,
        });
        let executed = exec.cursor();
        log.retain(|s, _| *s > proof.seq.min(executed));
        let horizon = exec.sm().last_executed();
        exec.truncate_below(ckpt.undo_floor(horizon, window(ckpt.interval)));
        if executed < proof.seq {
            ctx.observe(Observation::Marker {
                label: "in-dark-catchup",
            });
            // a quorum of attesters: one of them is not this replica
            if let Some(peer) = proof.attesters.iter().find(|r| **r != me) {
                let ask = ViewMsg::StateRequest {
                    from: me,
                    have: executed,
                };
                ctx.send(NodeId::Replica(*peer), wire(ask));
            }
        }
    }

    /// Asks a peer for the state above this replica's execution cursor.
    fn ask_state(&self) -> impl Fn(ReplicaId, &mut Context<'_, M>) {
        let (from, have, wire) = (self.me, self.exec.cursor(), self.wire);
        move |peer, ctx| {
            ctx.send(
                NodeId::Replica(peer),
                wire(ViewMsg::StateRequest { from, have }),
            )
        }
    }

    // ---- the restart stage -------------------------------------------------

    /// Amnesia restart: volatile memory is gone and the stable checkpoint
    /// is the only durable artifact. Reload it (rebuilt from its mark before
    /// memory is wiped); everything since comes back by catch-up.
    fn reload_stable(&mut self) {
        let stable = self.ckpt.reset_to_stable(self.exec.sm());
        let empty = || (SeqNum(0), StateMachine::new().snapshot());
        let (seq, snapshot) = stable.unwrap_or_else(empty);
        self.exec.install_snapshot(&snapshot, seq);
        self.log.clear();
        (self.votes, self.last_new_view) = (ViewChange::default(), None);
        self.gate = ViewGate::new();
        self.intake.clear_pending();
        (self.next_seq, self.mempool) = (seq.next(), Mempool::new(self.mempool.batch_size));
    }
}

/// The PBFT-pattern view change (PBFT, MinBFT, FaB, Prime, Themis, Kauri,
/// SBFT, PoE, Zyzzyva, CheapBFT, HotStuff — whose votes go only to the
/// target view's leader —, Tendermint): replicas broadcast a view-change
/// vote carrying their stable checkpoint and what they would lose; f+1
/// votes pull the rest in; the target view's leader assembles a new-view
/// message from a quorum of votes; everyone installs it, re-runs agreement
/// on the re-proposed slots and requeues what was stranded. The provided methods are that lifecycle
/// and the checkpointing stage's messages; a protocol says only **what it
/// reports**, **how its new leader assembles**, **how it adopts one
/// re-proposal** and **how it executes** (its wire and, where votes are
/// not signed, their [`VoteAuth`] are the [`Core`]'s).
pub(crate) trait ViewChanger: Actor<Self::Msg> + Sized {
    /// The protocol's message type.
    type Msg: WireSize + Clone + serde::Serialize + 'static;
    /// Its per-slot agreement state.
    type Ext: Default;
    /// What a re-proposal carries per slot (the batch; Themis: the
    /// per-replica batch set).
    type Payload: Clone;

    /// The skeleton this replica embeds.
    fn core(&mut self) -> &mut Core<Self::Msg, Self::Ext, Self::Payload>;

    /// Votes the target's leader needs before it may assemble: 2f+1.
    fn new_view_quorum(q: QuorumRules) -> usize {
        q.quorum()
    }

    /// Send this replica's view-change vote for `target`: to every
    /// replica, unless the member keeps its view change linear.
    fn send_vote(&mut self, _target: View, vote: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        ctx.broadcast_replicas(vote);
    }

    /// Whether work is outstanding that the current leader should have
    /// ordered by the time τ2 fires.
    fn work_pending(&mut self) -> bool {
        self.core().intake.has_pending()
    }

    /// The view τ2 demands next: unless the member knows better, the
    /// family's [`ViewChange::escalation`].
    fn escalation(&mut self, work_pending: bool) -> Option<View> {
        let core = self.core();
        let (view, campaigning) = (core.gate.view(), core.gate.in_view_change());
        core.votes.escalation(view, campaigning, work_pending)
    }

    /// Observe that this replica enters `stage`.
    fn enter_stage(&mut self, stage: Stage, ctx: &mut Context<'_, Self::Msg>) {
        ctx.observe(Observation::StageEnter { stage });
    }

    /// What this replica reports when it abandons the view.
    fn report(&mut self, ctx: &mut Context<'_, Self::Msg>) -> Vec<Entry<Self::Payload>>;

    /// How the new leader turns the votes for `target` into re-proposals:
    /// unless the protocol knows better, the first-seen union.
    fn assemble(&mut self, target: View) -> Vec<Entry<Self::Payload>> {
        self.core().votes.first_seen_union(target)
    }

    /// Adopt one re-proposal above the execution cursor: reinstall the slot
    /// and cast this replica's first vote of the new view for it.
    fn adopt(&mut self, entry: Entry<Self::Payload>, ctx: &mut Context<'_, Self::Msg>);

    /// A re-proposal at or below the execution cursor: this replica
    /// executed the slot already, and unless the member helps replicas
    /// that lag to a quorum for it, nothing happens.
    fn confirm(&mut self, _: Entry<Self::Payload>, _: &mut Context<'_, Self::Msg>) {}

    /// Whether a proposal for slot `seq` is taken at all: any, unless the
    /// member bounds its log to a window.
    fn in_window(&mut self, _: SeqNum) -> bool {
        true
    }

    /// Take back the requests of slots the new view did not re-propose.
    fn requeue(&mut self, stranded: Vec<SignedRequest>);

    /// The new leader resumes proposing.
    fn resume(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Execute what has committed.
    fn execute(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// After a crash: forget the handles of this member's own timers, which
    /// died with it, and after an `amnesia` restart its volatile state
    /// beyond the skeleton's.
    fn forget(&mut self, _amnesia: bool) {}

    /// Arm this member's periodic timers, at start and after a restart.
    fn arm_periodic(&mut self, _: &mut Context<'_, Self::Msg>) {}

    /// Start in the ordering stage with the periodic timers running.
    fn start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let stage = Stage::Ordering;
        ctx.observe(Observation::StageEnter { stage });
        self.arm_periodic(ctx);
    }

    /// Recover from a crash: every timer died with it, and after an
    /// amnesia restart only the stable checkpoint survives (and what models
    /// trusted hardware). The periodic timers run again; the replica rejoins.
    fn restart(&mut self, mode: RestartMode, ctx: &mut Context<'_, Self::Msg>) {
        let (core, amnesia) = (self.core(), mode == RestartMode::Amnesia);
        core.intake.forget_timer();
        core.gate.set_in_view_change(false);
        if amnesia {
            core.reload_stable();
        }
        self.forget(amnesia);
        let label = mode.marker();
        ctx.observe(Observation::Marker { label });
        self.arm_periodic(ctx);
        self.rejoin(Vec::new(), ctx);
    }

    /// Rejoin the quorum: handle what was `held` while away, adopting a view
    /// from the first proposal its leader authored until back in step (see
    /// [`admit_proposal`](ViewChanger::admit_proposal)); catch up by state
    /// transfer.
    fn rejoin(&mut self, held: Vec<(NodeId, Self::Msg)>, ctx: &mut Context<'_, Self::Msg>) {
        self.core().rejoining = true;
        self.enter_stage(Stage::Ordering, ctx);
        for (from, msg) in held {
            self.on_message(from, &msg, ctx);
        }
        let core = self.core();
        let ask = core.ask_state();
        core.catchup.begin(ctx, ask);
    }

    /// Abandon the current view for `target`: enter the view-change stage,
    /// broadcast an authenticated vote carrying
    /// [`report`](ViewChanger::report), count it, and give the campaign one
    /// τ2 to succeed. A no-op for a view not ahead of the current one or
    /// already covered by a campaign.
    fn start_view_change(&mut self, target: View, ctx: &mut Context<'_, Self::Msg>) {
        let core = self.core();
        let covered = core.gate.in_view_change() && core.votes.covers(core.me, target);
        if target <= core.gate.view() || covered {
            return;
        }
        core.gate.set_in_view_change(true);
        self.enter_stage(Stage::ViewChange, ctx);
        let report = self.report(ctx);
        let core = self.core();
        let digest = core.ckpt.stable().map_or(Digest::ZERO, |p| p.digest);
        let (from, stable) = (core.me, (core.ckpt.low_water(), digest));
        ctx.charge_crypto_n(core.auth.send.0, core.auth.send.1);
        let vote = (core.wire)(ViewMsg::ViewChange {
            new_view: target,
            stable,
            report: report.clone(),
            from,
        });
        self.send_vote(target, vote, ctx);
        self.on_view_change(from, target, (stable.0, report), ctx);
        self.core().intake.rearm(ctx);
    }

    /// One of the family's messages arrived from `from`.
    fn on_view_msg(
        &mut self,
        from: NodeId,
        msg: &ViewMsg<Self::Payload>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let auth = self.core().auth;
        match msg {
            ViewMsg::ViewChange {
                new_view,
                stable,
                report,
                from: voter,
            } => {
                ctx.charge_crypto(auth.check);
                let core = self.core();
                if core.exec.is_speculative() && *new_view <= core.gate.view() {
                    // the voter is behind: bring it up to date
                    if let Some(last) = core.last_new_view.clone() {
                        ctx.send(NodeId::Replica(*voter), (core.wire)(last));
                    }
                    return;
                }
                // a vote nobody else can verify: vouch for it to the leader
                let leader = new_view.leader_of(core.q.n);
                let mine = *voter == core.me || leader == core.me;
                if auth.acks > 0 && !mine && !core.votes.has_vote(*new_view, *voter) {
                    ctx.charge_crypto(auth.send.0);
                    let (view, voter, from) = (*new_view, *voter, core.me);
                    let ack = ViewMsg::Ack { view, voter, from };
                    ctx.send(NodeId::Replica(leader), (core.wire)(ack));
                }
                let vote = (stable.0, report.clone());
                self.on_view_change(*voter, *new_view, vote, ctx);
            }
            ViewMsg::NewView { view, proposals } => {
                // only from the leader of a view not behind the current one
                let core = self.core();
                let leader = NodeId::Replica(view.leader_of(core.q.n));
                if *view >= core.gate.view() && from == leader {
                    ctx.charge_crypto(auth.check);
                    self.install_view(*view, proposals.clone(), ctx);
                }
            }
            ViewMsg::Ack { view, voter, from } => {
                ctx.charge_crypto(auth.check);
                let core = self.core();
                core.votes.ack(*view, *voter, *from);
                let rules = (Self::new_view_quorum(core.q), auth.acks);
                let identity = (core.me, core.q);
                if core.gate.in_view_change() && core.votes.assembles(identity, rules, *view) {
                    self.new_view(*view, ctx);
                }
            }
            ViewMsg::Checkpoint {
                seq,
                state_digest,
                from,
            } => {
                let core = self.core();
                let who = (core.me, core.auth, core.wire);
                let stage = (&mut core.ckpt, &mut core.exec, &mut core.log);
                Core::on_checkpoint(ctx, who, stage, (*from, *seq, *state_digest));
            }
            // ship the latest checkpoint above the requester, rebuilt
            ViewMsg::StateRequest { from, have } => {
                let core = self.core();
                if let Some((slot_seq, snapshot)) = core.ckpt.latest_snapshot(*have, core.exec.sm())
                {
                    let snapshot = Box::new(snapshot);
                    let ship = ViewMsg::StateTransfer { slot_seq, snapshot };
                    ctx.send(NodeId::Replica(*from), (core.wire)(ship));
                }
            }
            // a snapshot ahead of the cursor replaces the machine state and
            // every slot it covers
            ViewMsg::StateTransfer { slot_seq, snapshot } => {
                let (core, slot_seq) = (self.core(), *slot_seq);
                if slot_seq <= core.exec.cursor() {
                    return;
                }
                core.exec.install_snapshot(snapshot, slot_seq);
                core.log.retain(|s, _| *s > slot_seq);
                core.ckpt.mark_installed(slot_seq, core.exec.sm());
                core.next_seq = core.next_seq.max(slot_seq.next());
                ctx.count_state_transfer();
                let label = "state-transferred";
                ctx.observe(Observation::Marker { label });
                core.catchup.complete(ctx);
                self.execute(ctx);
            }
        }
    }

    /// Count a (verified) view-change vote — the voter's stable checkpoint
    /// and report — and act on the thresholds it crosses: join the
    /// campaign, or assemble and install the view.
    fn on_view_change(
        &mut self,
        from: ReplicaId,
        target: View,
        vote: (SeqNum, Vec<Entry<Self::Payload>>),
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let core = self.core();
        let rules = (Self::new_view_quorum(core.q), core.auth.acks);
        let (identity, at) = (
            (core.me, core.q),
            (core.gate.view(), core.gate.in_view_change()),
        );
        match core.votes.record(identity, rules, at, from, target, vote) {
            VcStep::Wait => {}
            VcStep::Join => self.start_view_change(target, ctx),
            VcStep::Assemble => self.new_view(target, ctx),
        }
    }

    /// As `target`'s leader holding its quorum: assemble the re-proposals,
    /// broadcast them signed and install the view.
    fn new_view(&mut self, target: View, ctx: &mut Context<'_, Self::Msg>) {
        let proposals = self.assemble(target);
        ctx.charge_crypto(CryptoOp::Sign);
        ctx.broadcast_replicas((self.core().wire)(ViewMsg::NewView {
            view: target,
            proposals: proposals.clone(),
        }));
        self.install_view(target, proposals, ctx);
    }

    /// Install `view`: leave the view-change stage, adopt the re-proposals
    /// and replay the messages that raced ahead of the new-view message.
    fn install_view(
        &mut self,
        view: View,
        proposals: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        self.core().enter_view(view, ctx);
        self.enter_stage(Stage::Ordering, ctx);
        self.adopt_view(proposals, ctx);
        self.replay(ctx);
    }

    /// Re-deliver the messages that raced ahead of the view just entered.
    fn replay(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        for (from, msg) in self.core().gate.replay_after_install() {
            self.on_message(from, &msg, ctx);
        }
    }

    /// Carry the log into the installed view: strand and requeue what was
    /// not re-proposed, [`adopt`](ViewChanger::adopt) each re-proposal above
    /// the cursor ([`confirm`](ViewChanger::confirm) the others), and let
    /// the new leader continue past them. A
    /// speculative member [rolls back](ViewChanger::roll_back) first.
    fn adopt_view(
        &mut self,
        proposals: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        if self.core().exec.is_speculative() {
            return self.roll_back(proposals, ctx);
        }
        let core = self.core();
        let cursor = core.exec.cursor();
        let re_proposed: Vec<SeqNum> = proposals.iter().map(|(seq, ..)| *seq).collect();
        let stranded = core.log.strand(cursor, &re_proposed);
        self.requeue(stranded);
        for entry in proposals {
            if entry.0 > cursor {
                self.adopt(entry, ctx);
            } else {
                self.confirm(entry, ctx);
            }
        }
        let core = self.core();
        if core.is_leader() {
            let past = re_proposed
                .into_iter()
                .fold(core.exec.cursor(), SeqNum::max);
            core.next_seq = core.next_seq.max(past.next());
            self.resume(ctx);
        }
    }

    /// A speculative member's adoption (PoE, Zyzzyva): what it executed
    /// and the new view does not confirm rolls back first — from the first
    /// executed slot whose assignment differs, failing that from the first
    /// executed slot beyond the assignments —, the slots above the re-aimed
    /// cursor are stranded and requeued, and every assignment above it is
    /// adopted and executed at once. The new view is kept for voters that
    /// are behind.
    fn roll_back(
        &mut self,
        assignments: Vec<Entry<Self::Payload>>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let core = self.core();
        core.last_new_view = Some(ViewMsg::NewView {
            view: core.gate.view(),
            proposals: assignments.clone(),
        });
        let cursor = core.exec.cursor();
        let log = &core.log;
        let diverged = |(seq, digest, _): &&Entry<Self::Payload>| {
            *seq <= cursor && log.get(seq).is_some_and(|s| s.digest != Some(*digest))
        };
        let max_assigned = assignments.iter().map(|(s, ..)| *s).max();
        let max_assigned = max_assigned.unwrap_or(core.ckpt.low_water());
        let first_bad = assignments
            .iter()
            .find(diverged)
            .map(|(seq, ..)| *seq)
            .or_else(|| (cursor > max_assigned).then(|| max_assigned.next()));
        let aim = first_bad.and_then(|seq| Some((core.log.get(&seq)?.sm_start?, seq.prev())));
        if let Some((sm_start, cursor)) = aim {
            core.exec.rollback(ctx, sm_start, cursor);
        }
        let cursor = core.exec.cursor();
        let stranded = core.log.strand(cursor, &[]);
        self.requeue(stranded);
        for entry in assignments.into_iter().filter(|(seq, ..)| *seq > cursor) {
            self.adopt(entry, ctx);
        }
        self.core().next_seq = max_assigned.max(cursor).next();
        self.execute(ctx);
        if self.core().is_leader() {
            self.resume(ctx);
        }
    }

    /// Admit a proposal `msg` of `view` for slot `seq` from `from`: it must
    /// come from the current leader, lie [`in_window`](ViewChanger::in_window)
    /// and carry the digest of `payload` (charged as an authenticator check
    /// and a hash). One ahead of its view is buffered — unless this replica
    /// is rejoining and its author leads that view: the new-view message
    /// went by while this replica was away, so it adopts the view from here.
    fn admit_proposal(
        &mut self,
        ctx: &mut Context<'_, Self::Msg>,
        (from, view, msg): (NodeId, View, &Self::Msg),
        (seq, digest): (SeqNum, Digest),
        payload: &impl serde::Serialize,
    ) -> bool {
        let core = self.core();
        let author = NodeId::Replica(view.leader_of(core.q.n));
        if core.rejoining && view > core.gate.view() && from == author {
            core.enter_view(view, ctx);
            self.replay(ctx);
        }
        let core = self.core();
        let current = core.gate.admit(from, view, msg) && from == NodeId::Replica(core.leader());
        if !current || !self.in_window(seq) {
            return false;
        }
        let core = self.core();
        ctx.charge_crypto(core.auth.check);
        ctx.charge_crypto(CryptoOp::Hash);
        if digest_of(payload) != digest {
            return false;
        }
        // the current leader's proposal for a fresh slot: back in step
        core.rejoining &= core.log.get(&seq).is_some_and(|s| s.digest.is_some());
        true
    }

    /// A timer popped: a catch-up retry, or if it is the live τ2, escalate
    /// (see [`ViewChange::escalation`]).
    fn on_view_timer(&mut self, id: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        let core = self.core();
        let ask = core.ask_state();
        if core.catchup.on_timer(id, ctx, ask) || !core.intake.fired(id) {
            return;
        }
        let work_pending = self.work_pending();
        if let Some(target) = self.escalation(work_pending) {
            self.start_view_change(target, ctx);
        }
    }
}

/// Test harness for handler-level regressions: a four-replica LAN in which
/// one replica is real and another plays a script at it.
#[cfg(test)]
pub(crate) mod script {
    use super::*;
    use crate::client::{launch, ClientProtocol};
    use bft_sim::RunOutcome;

    /// Sends its rounds of messages to replica `to`, the first at start-up
    /// and each further one 5 ms after the last, so that the rounds arrive
    /// in order.
    pub(crate) struct Script<M> {
        pub to: u32,
        pub rounds: Vec<Vec<M>>,
    }

    impl<M> Script<M> {
        /// `now` at start-up, `late` 5 ms afterwards.
        pub(crate) fn new(to: u32, now: Vec<M>, late: Vec<M>) -> Script<M> {
            Script {
                to,
                rounds: vec![now, late],
            }
        }
    }

    /// A script, plus everything its replica hears (from the replica under
    /// test: nobody else talks to it).
    struct Scripted<M> {
        script: Script<M>,
        heard: Arc<std::sync::Mutex<Vec<M>>>,
    }

    impl<M: WireSize + Clone + serde::Serialize + 'static> Scripted<M> {
        fn send_round(&mut self, ctx: &mut Context<'_, M>) {
            if self.script.rounds.is_empty() {
                return;
            }
            for msg in self.script.rounds.remove(0) {
                ctx.send(NodeId::replica(self.script.to), msg);
            }
            ctx.set_timer(TimerKind::T1WaitReplies, SimDuration::from_millis(5));
        }
    }

    impl<M: WireSize + Clone + serde::Serialize + 'static> Actor<M> for Scripted<M> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            self.send_round(ctx);
        }

        fn on_message(&mut self, _: NodeId, msg: &M, _: &mut Context<'_, M>) {
            self.heard.lock().expect("not poisoned").push(msg.clone());
        }

        fn on_timer(&mut self, _: TimerId, _: TimerKind, ctx: &mut Context<'_, M>) {
            self.send_round(ctx);
        }
    }

    /// A replica under a gauge: after every event it handles, `size` reads
    /// one of its structures and the largest reading so far is kept.
    struct Gauged<R> {
        replica: R,
        size: fn(&mut R) -> usize,
        peak: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl<R> Gauged<R> {
        fn read(&mut self) {
            let size = (self.size)(&mut self.replica);
            self.peak
                .fetch_max(size, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl<M, R: Actor<M>> Actor<M> for Gauged<R> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            self.replica.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: &M, ctx: &mut Context<'_, M>) {
            self.replica.on_message(from, msg, ctx);
            self.read();
        }

        fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, M>) {
            self.replica.on_timer(id, kind, ctx);
            self.read();
        }
    }

    /// Run `scenario` with `n` replicas built by `replica` and report,
    /// beside the outcome, the largest `size` any of them showed after any
    /// event — the white-box check that a structure holds only what is
    /// still in flight, however long the run.
    pub(crate) fn peak_size<P: ClientProtocol, R: Actor<P::Msg> + Send + 'static>(
        scenario: &Scenario,
        n: usize,
        mut replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
        size: fn(&mut R) -> usize,
    ) -> (RunOutcome, usize) {
        let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let out = launch::<P, _>(scenario, n, |me, q, store| Gauged {
            replica: replica(me, q, store),
            size,
            peak: peak.clone(),
        });
        let peak = peak.load(std::sync::atomic::Ordering::Relaxed);
        (out, peak)
    }

    /// What a reader saw of one replica: a reading after every event it
    /// handled, and every timer it handled with the time it popped.
    pub(crate) struct Readings<T> {
        pub seen: Vec<T>,
        pub pops: Vec<(SimTime, TimerKind)>,
    }

    impl<T> Readings<T> {
        /// The last reading.
        pub(crate) fn last(&self) -> &T {
            self.seen.last().expect("read at start-up")
        }
    }

    /// A replica under a reader: after every event it handles (a restart
    /// included), `read` reads it.
    struct Read<R, T> {
        replica: R,
        me: ReplicaId,
        read: fn(&mut R) -> T,
        readings: Arc<std::sync::Mutex<BTreeMap<ReplicaId, Readings<T>>>>,
    }

    impl<R, T> Read<R, T> {
        fn read(&mut self, pop: Option<(SimTime, TimerKind)>) {
            let reading = (self.read)(&mut self.replica);
            let mut all = self.readings.lock().expect("no panic while held");
            let new = || Readings {
                seen: Vec::new(),
                pops: Vec::new(),
            };
            let mine = all.entry(self.me).or_insert_with(new);
            mine.seen.push(reading);
            mine.pops.extend(pop);
        }
    }

    impl<M: WireSize + serde::Serialize + 'static, R: Actor<M>, T: Send> Actor<M> for Read<R, T> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            self.replica.on_start(ctx);
            self.read(None);
        }

        fn on_message(&mut self, from: NodeId, msg: &M, ctx: &mut Context<'_, M>) {
            self.replica.on_message(from, msg, ctx);
            self.read(None);
        }

        fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, M>) {
            let at = ctx.now();
            self.replica.on_timer(id, kind, ctx);
            self.read(Some((at, kind)));
        }

        fn on_recover(&mut self, mode: RestartMode, ctx: &mut Context<'_, M>) {
            self.replica.on_recover(mode, ctx);
            self.read(None);
        }
    }

    /// Run `scenario` with `n` replicas built by `replica` and report,
    /// beside the outcome, what `read` read from each of them and the
    /// timers each handled.
    pub(crate) fn readings<P, R, T>(
        scenario: &Scenario,
        n: usize,
        mut replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
        read: fn(&mut R) -> T,
    ) -> (RunOutcome, BTreeMap<ReplicaId, Readings<T>>)
    where
        P: ClientProtocol,
        R: Actor<P::Msg> + Send + 'static,
        T: Send + 'static,
    {
        let readings = Arc::new(std::sync::Mutex::new(BTreeMap::new()));
        let out = launch::<P, _>(scenario, n, |me, q, store| Read {
            replica: replica(me, q, store),
            me,
            read,
            readings: readings.clone(),
        });
        let readings = std::mem::take(&mut *readings.lock().expect("run over"));
        (out, readings)
    }

    /// [`readings`], keeping only what `read` read last from each replica.
    pub(crate) fn final_readings<P, R, T>(
        scenario: &Scenario,
        n: usize,
        replica: impl FnMut(ReplicaId, QuorumRules, Arc<KeyStore>) -> R,
        read: fn(&mut R) -> T,
    ) -> (RunOutcome, BTreeMap<ReplicaId, T>)
    where
        P: ClientProtocol,
        R: Actor<P::Msg> + Send + 'static,
        T: Send + 'static,
    {
        let (out, readings) = readings::<P, R, T>(scenario, n, replica, read);
        let last = |(r, mut seen): (ReplicaId, Readings<T>)| (r, seen.seen.pop().expect("read"));
        (out, readings.into_iter().map(last).collect())
    }

    /// A signed write and the digest of the state reached by executing it
    /// first.
    pub(crate) fn first_write(store: &KeyStore) -> (SignedRequest, Digest) {
        let txn = Transaction::single(Op::Put(7, 7));
        let signer = store.signer_for(PartyId::client(0));
        let signed = SignedRequest::new(&signer, Request::new(ClientId(0), 1, txn));
        let digest = StateMachine::new().execute(SeqNum(1), &signed.request).1;
        (signed, digest)
    }

    /// Two rival one-request batches for one slot, each with its digest:
    /// what an equivocating leader proposes to different backups.
    pub(crate) fn rival_batches(store: &KeyStore) -> [(Digest, Vec<SignedRequest>); 2] {
        [1u64, 2].map(|client| {
            let txn = Transaction::single(Op::Put(7, client as i64));
            let batch = vec![SignedRequest::new(
                &store.signer_for(PartyId::client(client)),
                Request::new(ClientId(client), 1, txn),
            )];
            (digest_of(&batch), batch)
        })
    }

    /// Whether the run observed any commit.
    pub(crate) fn committed(out: &RunOutcome) -> bool {
        out.log
            .count(|e| matches!(e.obs, Observation::Commit { .. }))
            > 0
    }

    /// `(node, request, post-state digest)` of every execution observed.
    pub(crate) fn executions(out: &RunOutcome) -> Vec<(NodeId, RequestId, Digest)> {
        let entries = out.log.entries.iter();
        let executed = entries.filter_map(|e| match e.obs {
            Observation::Execute {
                request,
                state_digest,
                ..
            } => Some((e.node, request, state_digest)),
            _ => None,
        });
        executed.collect()
    }

    /// Run each `(sender, script)` against `replica`, installed as the
    /// replica the scripts address, for 50 ms; the remaining replicas of a
    /// four-replica LAN stay silent. Returns the run and, in arrival
    /// order, every message the replica under test sent them (a broadcast
    /// once per peer).
    pub(crate) fn play<M, R>(scripts: Vec<(u32, Script<M>)>, replica: R) -> (RunOutcome, Vec<M>)
    where
        M: WireSize + Clone + serde::Serialize + Send + Sync + 'static,
        R: Actor<M> + Send + 'static,
    {
        let mut sim = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        let to = scripts.first().map_or(0, |(_, s)| s.to);
        let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut scripts: BTreeMap<u32, Script<M>> = scripts.into_iter().collect();
        for id in (0..4).filter(|id| *id != to) {
            let silent = || Script { to, rounds: vec![] };
            let script = scripts.remove(&id).unwrap_or_else(silent);
            let heard = heard.clone();
            sim.add_replica(id, Box::new(Scripted { script, heard }));
        }
        sim.add_replica(to, Box::new(replica));
        sim.run(SimTime(50_000_000));
        let heard = heard.lock().expect("run over").clone();
        (sim.finish(), heard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::RunOutcome;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Minimal protocol message for driving the shared pieces.
    #[derive(Debug, Clone, PartialEq, serde::Serialize)]
    enum TMsg {
        Request(SignedRequest),
        Vote(u32),
    }

    impl WireSize for TMsg {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// An actor that runs one closure at start-up: the way to get a
    /// [`Context`] in a unit test.
    struct Script<F>(Option<F>);

    impl<F: FnOnce(&mut Context<'_, TMsg>)> Actor<TMsg> for Script<F> {
        fn on_start(&mut self, ctx: &mut Context<'_, TMsg>) {
            (self.0.take().expect("starts once"))(ctx);
        }

        fn on_message(&mut self, _: NodeId, _: &TMsg, _: &mut Context<'_, TMsg>) {}

        fn on_timer(&mut self, _: TimerId, _: TimerKind, ctx: &mut Context<'_, TMsg>) {
            ctx.observe(Observation::Marker { label: "timer" });
        }
    }

    /// Run `script` as replica 0 of a two-replica LAN (free crypto) and
    /// return everything the run observed.
    fn on_replica(script: impl FnOnce(&mut Context<'_, TMsg>) + 'static) -> RunOutcome {
        on_priced_replica(CryptoCostModel::free(), script)
    }

    /// [`on_replica`] with crypto charged at `cost`.
    fn on_priced_replica(
        cost: CryptoCostModel,
        script: impl FnOnce(&mut Context<'_, TMsg>) + 'static,
    ) -> RunOutcome {
        let mut sim = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        sim.set_cost_model(cost);
        sim.add_replica(0, Box::new(Script(Some(script))));
        sim.add_replica(1, Box::new(Script(Some(|_: &mut Context<'_, TMsg>| {}))));
        sim.run(SimTime(1_000_000));
        sim.finish()
    }

    fn signed(store: &KeyStore, client: u64, ts: u64, op: Op) -> SignedRequest {
        let txn = Transaction::single(op);
        let signer = store.signer_for(PartyId::client(client));
        SignedRequest::new(&signer, Request::new(ClientId(client), ts, txn))
    }

    /// A `deliver` closure that records `(request, sm seq)` into `sink`.
    type Sink = Rc<RefCell<Vec<(RequestId, SeqNum)>>>;
    fn record(sink: &Sink) -> impl FnMut(&mut Context<'_, TMsg>, Reply, SeqNum) {
        let sink = sink.clone();
        move |_, reply, seq| sink.borrow_mut().push((reply.request, seq))
    }

    /// Run `batch` as the slot after `exec`'s cursor through the drain,
    /// replying in `view`; `false` (and nothing happens) without a batch.
    fn run_slot(
        exec: &mut Execution,
        ctx: &mut Context<'_, TMsg>,
        batch: Option<&[SignedRequest]>,
        view: View,
        deliver: impl FnMut(&mut Context<'_, TMsg>, Reply, SeqNum),
    ) -> bool {
        run_slot_then(exec, ctx, batch, view, deliver, |_| {})
    }

    /// [`run_slot`], with `close` ending the slot's Execution stage.
    fn run_slot_then(
        exec: &mut Execution,
        ctx: &mut Context<'_, TMsg>,
        batch: Option<&[SignedRequest]>,
        view: View,
        deliver: impl FnMut(&mut Context<'_, TMsg>, Reply, SeqNum),
        mut close: impl FnMut(&mut Context<'_, TMsg>),
    ) -> bool {
        let (mut log, next) = (SlotLog::<()>::default(), exec.cursor().next());
        let slot = log.slot(next);
        (slot.batch, slot.committed) = (batch.map(<[_]>::to_vec), true);
        let end = |ctx: &mut Context<'_, TMsg>, _: &Execution, _, _: &mut Slot<()>| close(ctx);
        exec.drain(ctx, &mut log, view, deliver, end, |_, _, _, _| {});
        exec.cursor() == next
    }

    fn executions(out: &RunOutcome) -> Vec<(SimTime, SeqNum)> {
        out.log
            .entries
            .iter()
            .filter_map(|e| match e.obs {
                Observation::Execute { seq, .. } => Some((e.at, seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn duplicate_in_a_batch_executes_once_when_skipping_executed() {
        let store = Scenario::small(1).key_store();
        let (a, b) = (
            signed(&store, 1, 1, Op::Add(0, 5)),
            signed(&store, 2, 1, Op::Add(0, 1)),
        );
        let replies = Sink::default();
        let sink = replies.clone();
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new().skipping_executed();
            let batch = [a.clone(), a, b];
            assert!(run_slot(
                &mut exec,
                ctx,
                Some(&batch),
                View(3),
                record(&sink)
            ));
            assert_eq!(exec.cursor(), SeqNum(1), "one slot, whatever it held");
            assert_eq!(exec.sm().store().get(0), Some(6));
        });
        let ids: Vec<u64> = replies.borrow().iter().map(|(id, _)| id.client.0).collect();
        assert_eq!(ids, vec![1, 2], "the duplicate is neither run nor answered");
        assert_eq!(executions(&out).len(), 2);
        // the slot is bracketed by the Execution and Ordering stages
        let stage = |e: bft_sim::obs::LoggedObservation| match e.obs {
            Observation::StageEnter { stage } => Some(stage),
            _ => None,
        };
        let entries = &out.log.entries;
        assert_eq!(entries.first().and_then(stage), Some(Stage::Execution));
        assert_eq!(entries.last().and_then(stage), Some(Stage::Ordering));
    }

    #[test]
    fn retransmission_is_answered_from_the_cache_only_for_the_cached_id() {
        let store = Scenario::small(1).key_store();
        let first = signed(&store, 1, 1, Op::Put(1, 10));
        let second = signed(&store, 1, 2, Op::Put(1, 20));
        let fresh = signed(&store, 2, 1, Op::Get(1));
        let later = signed(&store, 3, 1, Op::Put(2, 5));
        let mut forged = second.clone();
        forged.request.txn = Transaction::single(Op::Put(1, 99));
        let answered = Sink::default();
        let sink = answered.clone();
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            let batch = [first.clone(), second.clone()];
            run_slot(&mut exec, ctx, Some(&batch), View(0), |_, _, _| {});
            let at_second = exec.sm().digest();
            let view = View(4);
            let admit = |ctx: &mut Context<'_, TMsg>, req| {
                Intake::admit(ctx, &store, &exec, req, view, record(&sink))
            };
            assert!(!admit(ctx, &second), "the latest request: answered");
            assert!(!admit(ctx, &first), "an older one: dropped silently");
            assert!(
                !admit(ctx, &forged),
                "a bad signature never reaches the cache"
            );
            assert!(admit(ctx, &fresh));
            let (reply, _) = exec.cached_reply(second.request.id, view).expect("cached");
            assert_eq!((reply.view, reply.speculative), (view, false));
            assert_eq!(exec.sm().last_executed(), SeqNum(2), "nothing re-executed");
            // the cached reply carries the state its execution left and its
            // position, not those of whatever executed since
            run_slot(&mut exec, ctx, Some(&[later]), view, |_, _, _| {});
            let cached = exec.cached_reply(second.request.id, view).expect("cached");
            assert_ne!(exec.sm().digest(), at_second);
            assert_eq!((cached.0.state_digest, cached.1), (at_second, SeqNum(2)));
        });
        let second_id = RequestId {
            client: ClientId(1),
            timestamp: 2,
        };
        assert_eq!(*answered.borrow(), vec![(second_id, SeqNum(2))]);
        assert_eq!(executions(&out).len(), 3);
    }

    #[test]
    fn speculative_run_then_rollback_restores_digest_and_executed_set() {
        let store = Scenario::small(1).key_store();
        let keep = signed(&store, 1, 1, Op::Put(1, 1));
        let undo = [
            signed(&store, 1, 2, Op::Put(1, 2)),
            signed(&store, 2, 1, Op::Put(2, 2)),
        ];
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new().speculative();
            let spec = Sink::default();
            let first = std::slice::from_ref(&keep);
            run_slot(&mut exec, ctx, Some(first), View(0), record(&spec));
            let digest = exec.sm().digest();
            let spec_commit = Observation::Marker { label: "epilogue" };
            let check = |_: &mut Context<'_, TMsg>, reply: Reply, _| assert!(reply.speculative);
            run_slot_then(&mut exec, ctx, Some(&undo), View(0), check, |ctx| {
                ctx.observe(spec_commit.clone())
            });
            assert!(exec.is_executed(&undo[1].request.id));
            exec.rollback(ctx, SeqNum(2), SeqNum(1));
            assert_eq!(exec.sm().digest(), digest);
            assert_eq!(exec.sm().last_executed(), SeqNum(1));
            assert!(exec.is_executed(&keep.request.id));
            assert!(!exec.is_executed(&undo[0].request.id));
            assert!(!exec.is_executed(&undo[1].request.id));
            // the undone requests are new work again
            assert!(Intake::admit(
                ctx,
                &store,
                &exec,
                &undo[0],
                View(1),
                record(&spec)
            ));
            // nothing left to undo: no second observation
            exec.rollback(ctx, SeqNum(2), SeqNum(1));
        });
        let rollbacks = out.log.count(
            |e| matches!(e.obs, Observation::Rollback { from_seq } if from_seq == SeqNum(2)),
        );
        assert_eq!(rollbacks, 1);
        // the epilogue runs after the last request, inside the stage bracket
        let at = |obs: Observation| out.log.entries.iter().rposition(|e| e.obs == obs);
        let epilogue = at(Observation::Marker { label: "epilogue" }).expect("ran");
        assert_eq!(executions(&out).len(), 3);
        let obs = |i| out.log.entries.get(i).map(|e| e.obs);
        assert!(matches!(
            obs(epilogue - 1),
            Some(Observation::Execute { seq: SeqNum(3), .. })
        ));
        assert_eq!(
            obs(epilogue + 1),
            Some(Observation::StageEnter {
                stage: Stage::Ordering
            })
        );
    }

    #[test]
    fn slot_without_its_batch_waits_and_executes_when_the_batch_arrives() {
        let store = Scenario::small(1).key_store();
        let req = signed(&store, 1, 1, Op::Put(1, 1));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            // committed, but the proposal has not been installed
            assert!(!run_slot(
                &mut exec,
                ctx,
                None,
                View(0),
                |_, _, _| unreachable!()
            ));
            assert_eq!(exec.cursor(), SeqNum(0));
            assert_eq!(exec.sm().last_executed(), SeqNum(0));
            ctx.observe(Observation::Marker { label: "proposal" });
            assert!(run_slot(
                &mut exec,
                ctx,
                Some(&[req]),
                View(0),
                |_, _, _| {}
            ));
            assert_eq!(exec.cursor(), SeqNum(1));
        });
        // nothing at all was observed before the proposal landed
        assert_eq!(
            out.log.entries.first().map(|e| e.obs),
            Some(Observation::Marker { label: "proposal" })
        );
        assert_eq!(executions(&out).len(), 1);
    }

    #[test]
    fn work_ops_charge_one_microsecond_per_unit_before_the_execute() {
        let store = Scenario::small(1).key_store();
        let mut busy = signed(&store, 1, 1, Op::Work(7));
        busy.request.txn.ops.push(Op::Work(3));
        let idle = signed(&store, 2, 1, Op::Get(0));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            run_slot(&mut exec, ctx, Some(&[busy, idle]), View(0), |_, _, _| {});
        });
        assert_eq!(
            executions(&out),
            vec![(SimTime(10_000), SeqNum(1)), (SimTime(10_000), SeqNum(2))]
        );
    }

    #[test]
    fn relayed_requests_hold_one_view_timer_until_they_execute() {
        let store = Scenario::small(1).key_store();
        let req = signed(&store, 1, 1, Op::Put(1, 1));
        let out = on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut intake = Intake::new(SimDuration(500));
            intake.relay(ctx, &req, ReplicaId(1), TMsg::Request, false);
            assert!(intake.has_pending());
            assert!(intake.arm(ctx), "a view change in progress left τ2 alone");
            intake.relay(ctx, &req, ReplicaId(1), TMsg::Request, true);
            assert!(!intake.arm(ctx), "still the one τ2");
            intake.settle(ctx, &exec);
            assert!(intake.has_pending(), "not executed yet");
            run_slot(&mut exec, ctx, Some(&[req]), View(0), |_, _, _| {});
            intake.settle(ctx, &exec);
            assert!(!intake.has_pending());
            assert!(intake.arm(ctx), "settling the last request stopped τ2");
            intake.disarm(ctx);
        });
        assert_eq!(
            out.metrics.replica_msgs_sent(),
            2,
            "each relay is forwarded"
        );
        assert_eq!(
            out.log.marker_count("timer"),
            0,
            "both spans were cancelled"
        );
    }

    #[test]
    fn view_gate_buffers_ahead_replays_in_order_and_drops_stale() {
        let mut gate: ViewGate<TMsg> = ViewGate::new();
        let peer = NodeId::replica(1);
        assert!(gate.admit(peer, View(0), &TMsg::Vote(0)), "current view");
        // ahead of the view: buffered
        assert!(!gate.admit(peer, View(2), &TMsg::Vote(20)));
        assert!(!gate.admit(peer, View(1), &TMsg::Vote(10)));
        assert!(!gate.admit(NodeId::replica(2), View(1), &TMsg::Vote(11)));
        // same view while a view change is in progress: buffered too
        gate.set_in_view_change(true);
        assert!(!gate.admit(peer, View(0), &TMsg::Vote(1)));
        gate.install(View(1));
        assert!(!gate.in_view_change());
        // stale: dropped, not buffered
        assert!(!gate.admit(peer, View(0), &TMsg::Vote(2)));
        let replay = gate.replay_after_install();
        assert_eq!(
            replay,
            vec![(peer, TMsg::Vote(10)), (NodeId::replica(2), TMsg::Vote(11))],
            "exactly the new view's messages, in arrival order"
        );
        assert!(gate.replay_after_install().is_empty());
        // view 2's message survived; view 0's same-view message did not
        gate.install(View(2));
        assert_eq!(gate.replay_after_install(), vec![(peer, TMsg::Vote(20))]);
        // the buffer is bounded
        for i in 0..ViewGate::<TMsg>::CAPACITY as u32 + 5 {
            assert!(!gate.admit(peer, View(3), &TMsg::Vote(i)));
        }
        gate.install(View(3));
        assert_eq!(
            gate.replay_after_install().len(),
            ViewGate::<TMsg>::CAPACITY
        );
    }

    #[test]
    fn drain_stops_at_a_missing_batch_or_slot_and_resumes_when_it_arrives() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=3)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        let replies = Sink::default();
        let sink = replies.clone();
        on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut log: SlotLog<u8> = SlotLog::default();
            let digest = |r: &SignedRequest| digest_of(&vec![r.clone()]);
            let mut drain = |ctx: &mut Context<'_, TMsg>, log: &mut SlotLog<u8>| {
                let mut slots = Vec::new();
                let after = |_: &mut Context<'_, TMsg>, exec: &mut Execution, _: &mut _, seq| {
                    assert_eq!(exec.cursor(), seq, "called once the slot has executed");
                    slots.push(seq.0);
                };
                exec.drain(ctx, log, View(0), record(&sink), |_, _, _, _| {}, after);
                slots
            };
            // slot 1 committed by a certificate that outran its proposal
            let slot = log.slot(SeqNum(1));
            (slot.digest, slot.committed) = (Some(digest(&reqs[0])), true);
            // slot 3 fully there, slot 2 missing altogether
            assert!(log.install(SeqNum(3), digest(&reqs[2]), vec![reqs[2].clone()]));
            log.slot(SeqNum(3)).committed = true;
            assert!(drain(ctx, &mut log).is_empty(), "committed, but no batch");
            // the proposal lands: slot 1 runs, the gap at 2 stops the loop
            assert!(log.install(SeqNum(1), digest(&reqs[0]), vec![reqs[0].clone()]));
            assert!(!log.install(SeqNum(1), digest(&reqs[1]), vec![reqs[1].clone()]));
            assert_eq!(drain(ctx, &mut log), vec![1]);
            // slot 2 installed but not committed: still stopped
            assert!(log.install(SeqNum(2), digest(&reqs[1]), vec![reqs[1].clone()]));
            assert!(drain(ctx, &mut log).is_empty());
            log.slot(SeqNum(2)).committed = true;
            assert_eq!(drain(ctx, &mut log), vec![2, 3], "resumes through slot 3");
        });
        let order: Vec<u64> = replies
            .borrow()
            .iter()
            .map(|(id, _)| id.timestamp)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn strand_returns_dead_slots_and_reinstall_restarts_agreement() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=5)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        let batch = reqs.clone();
        on_replica(move |ctx| {
            let mut exec = Execution::new();
            let mut log: SlotLog<Vec<u32>> = SlotLog::default();
            for (i, r) in batch.iter().enumerate() {
                let seq = SeqNum(i as u64 + 1);
                log.install(seq, digest_of(&vec![r.clone()]), vec![r.clone()]);
                log.slot(seq).ext.push(7);
            }
            log.slot(SeqNum(1)).committed = true;
            exec.drain(
                ctx,
                &mut log,
                View(0),
                |_, _, _| {},
                |_, _, _, _| {},
                |_, _, _, _| {},
            );
            assert_eq!(exec.cursor(), SeqNum(1));
            let in_flight: Vec<u64> = log
                .in_flight(exec.cursor())
                .map(|id| id.timestamp)
                .collect();
            assert_eq!(in_flight, vec![2, 3, 4, 5]);
            // the new view re-proposes slots 2 and 4: 3 and 5 die, 1 executed
            let stranded = log.strand(exec.cursor(), &[SeqNum(2), SeqNum(4)]);
            let ids: Vec<u64> = stranded.iter().map(|r| r.request.id.timestamp).collect();
            assert_eq!(ids, vec![3, 5]);
            assert_eq!(log.keys().map(|s| s.0).collect::<Vec<_>>(), vec![1, 2, 4]);
            // a reinstalled slot starts the new view's agreement from scratch
            log.slot(SeqNum(2)).committed = true;
            let slot = log.reinstall(SeqNum(2), Digest::ZERO, vec![batch[4].clone()]);
            assert!(slot.ext.is_empty() && !slot.committed);
            assert_eq!(slot.digest, Some(Digest::ZERO));
            let entries = log.entries_above(exec.cursor(), |s| s.ext.is_empty());
            assert_eq!(
                entries,
                vec![(SeqNum(2), Digest::ZERO, vec![batch[4].clone()])]
            );
        });
    }

    /// The requests still queued, in order (drains the mempool).
    fn queued(mempool: &mut Mempool) -> Vec<u64> {
        let all = std::iter::from_fn(|| Some(mempool.take()).filter(|b| !b.is_empty()));
        all.flatten().map(|r| r.request.id.timestamp).collect()
    }

    #[test]
    fn mempool_cuts_bounded_batches_at_consecutive_seqs_for_one_hash_each() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=7)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        let cuts = Rc::new(RefCell::new(Vec::new()));
        let sink = cuts.clone();
        let hash = CryptoCostModel {
            hash_ns: 1_000,
            ..CryptoCostModel::free()
        };
        let out = on_priced_replica(hash, move |ctx| {
            let mut mempool = Mempool::new(3);
            // a request queued twice is queued once
            for r in reqs.iter().chain(&reqs[..2]) {
                mempool.push(r);
            }
            assert_eq!(mempool.len(), 7);
            let mut next = SeqNum(4);
            while let Some((seq, digest, batch)) = mempool.cut(ctx, &mut next) {
                assert_eq!(digest, digest_of(&batch));
                let ids: Vec<u64> = batch.iter().map(|r| r.request.id.timestamp).collect();
                sink.borrow_mut().push((seq.0, ids));
            }
            assert_eq!(next, SeqNum(7));
        });
        assert_eq!(
            *cuts.borrow(),
            vec![(4, vec![1, 2, 3]), (5, vec![4, 5, 6]), (6, vec![7])]
        );
        let cpu = out.metrics.node(NodeId::replica(0)).cpu;
        assert_eq!(cpu, SimDuration(3_000), "one Hash per batch");
    }

    #[test]
    fn mempool_drops_what_is_ordered_and_requeues_what_has_not_executed() {
        let store = Scenario::small(1).key_store();
        let reqs: Vec<SignedRequest> = (1..=5)
            .map(|ts| signed(&store, 1, ts, Op::Put(ts, 1)))
            .collect();
        on_replica(move |ctx| {
            // request 1 has executed, request 2 sits in an open slot
            let mut exec = Execution::new();
            run_slot(&mut exec, ctx, Some(&reqs[..1]), View(0), |_, _, _| {});
            let mut log: SlotLog<u8> = SlotLog::default();
            log.install(SeqNum(2), Digest::ZERO, reqs[1..2].to_vec());
            let mut mempool = Mempool::new(2);
            for r in &reqs {
                mempool.push(r);
            }
            mempool.drop_ordered(&exec, log.in_flight(exec.cursor()));
            assert_eq!(queued(&mut mempool), vec![3, 4, 5]);
            reqs[2..].iter().for_each(|r| mempool.push(r));
            // a proposal carries request 3
            mempool.remove(&reqs[2..3]);
            // a view change strands slot 2; request 1 comes back too, and
            // request 4 is queued already: only 2 is new
            let mut stranded = log.strand(exec.cursor(), &[]);
            stranded.extend([reqs[0].clone(), reqs[3].clone()]);
            mempool.requeue(&exec, &stranded);
            assert_eq!(queued(&mut mempool), vec![4, 5, 2]);
        });
    }

    #[test]
    fn tally_binds_each_vote_to_its_digest_and_crosses_once() {
        let (x, y, r) = (Digest([1; 32]), Digest([2; 32]), ReplicaId);
        let mut tally = Tally::default();
        // before the proposal: r1 votes X, r2 votes Y, and nothing crosses
        assert_eq!(tally.vote(r(1), x, None, 1), None);
        assert_eq!(tally.vote(r(2), y, None, 1), None);
        // a voter's first vote stands: repeats and changes count nothing
        assert_eq!(tally.vote(r(2), y, None, 1), None);
        assert_eq!(tally.vote(r(1), y, None, 1), None);
        assert_eq!((tally.count(x), tally.count(y)), (1, 1));
        // proposal Y installed: the early Y vote counts, the early X one
        // never does
        assert_eq!(tally.vote(r(3), y, Some(y), 3), None, "X must not count");
        assert_eq!(tally.vote(r(0), y, Some(y), 3), Some(y));
        // the quorum is crossed once
        assert_eq!(tally.vote(r(4), y, Some(y), 3), None);
        assert!(tally.crossed() && tally.count(y) == 4);
        // a slot reinstalled by a new view starts its tally afresh
        let mut log: SlotLog<Tally> = SlotLog::default();
        log.slot(SeqNum(1)).ext = tally;
        let slot = log.reinstall(SeqNum(1), x, Vec::new());
        assert!(!slot.ext.crossed() && slot.ext.count(y) == 0);
        assert_eq!(slot.ext.vote(r(1), x, slot.digest, 1), Some(x));
    }

    #[test]
    fn view_change_votes_dedupe_join_assemble_prune_and_escalate() {
        let q = QuorumRules { n: 4, f: 1 };
        let me = (ReplicaId(2), q); // leads view 2
        let (normal, campaigning) = ((View(0), false), (View(0), true));
        let entry = |seq, payload: u8| vec![(SeqNum(seq), Digest::ZERO, payload)];
        let mut votes: ViewChange<u8> = ViewChange::default();
        let mut vote = |at, from, target, report| {
            let vote = (SeqNum(0), report);
            let step = votes.record(me, (3, 0), at, ReplicaId(from), View(target), vote);
            (step, votes.votes(View(target)).len())
        };
        // one vote is below f+1; the same sender again changes nothing
        assert_eq!(vote(normal, 0, 2, entry(7, 10)), (VcStep::Wait, 1));
        assert_eq!(vote(normal, 0, 2, entry(7, 11)), (VcStep::Wait, 1));
        // f+1 distinct voters: join — but only a replica not yet campaigning
        assert_eq!(vote(normal, 1, 2, entry(7, 20)), (VcStep::Join, 2));
        // the quorum, at the target's leader, while campaigning: assemble
        assert_eq!(vote(campaigning, 2, 2, entry(8, 30)), (VcStep::Assemble, 3));
        assert_eq!(vote(campaigning, 3, 5, Vec::new()), (VcStep::Wait, 1));
        assert_eq!(
            votes.first_seen_union(View(2)),
            vec![(SeqNum(7), Digest::ZERO, 10), (SeqNum(8), Digest::ZERO, 30)],
            "per slot, the first entry reported"
        );
        // a replica that does not lead the target assembles nothing, whatever
        // it holds; neither does the leader below its quorum
        let mut other: ViewChange<u8> = ViewChange::default();
        for (from, holder, quorum, want) in [
            (0, ReplicaId(1), 3, VcStep::Wait),
            (1, ReplicaId(1), 3, VcStep::Wait),
            (2, ReplicaId(1), 3, VcStep::Wait),
            (3, ReplicaId(2), 5, VcStep::Wait),
        ] {
            let (from, rules) = (ReplicaId(from), (quorum, 0));
            let vote = (SeqNum(0), Vec::new());
            let got = other.record((holder, q), rules, campaigning, from, View(2), vote);
            assert_eq!(got, want);
        }
        // where a foreign vote needs an ack, the quorum waits for the acks
        let mut acked: ViewChange<u8> = ViewChange::default();
        let rules = (3, 1);
        for from in [0, 1, 2] {
            let vote = (SeqNum(0), vec![]);
            let got = acked.record(me, rules, campaigning, ReplicaId(from), View(2), vote);
            assert_eq!(got, VcStep::Wait);
        }
        let mut ack = |voter, by| {
            acked.ack(View(2), ReplicaId(voter), ReplicaId(by));
            acked.assembles(me, rules, View(2))
        };
        assert!(
            !ack(0, 1) && !ack(0, 1) && !ack(0, 3),
            "r1's vote is unacked"
        );
        assert!(ack(1, 0), "every foreign vote is acked");
        // τ2: past every view voted for while campaigning, else view + 1
        // only if work is pending
        let r2 = ReplicaId(2);
        assert!(votes.covers(r2, View(2)) && !votes.covers(r2, View(3)));
        assert_eq!(votes.campaign(ReplicaId(3)), Some(View(5)));
        assert_eq!(votes.escalation(View(0), true, false), Some(View(6)));
        assert_eq!(votes.escalation(View(0), false, true), Some(View(1)));
        assert_eq!(votes.escalation(View(0), false, false), None);
        // installing view 2 drops its votes and older ones, keeps view 5's
        votes.prune(View(2));
        assert!(votes.votes(View(2)).is_empty());
        assert_eq!(votes.votes(View(5)).len(), 1);
        votes.prune(View(5));
        assert_eq!(votes.escalation(View(5), true, false), Some(View(6)));
    }

    /// Run every family member under `$s` through the macro `$go`, which
    /// gets the member's name, client protocol, replica count and replica
    /// constructor.
    macro_rules! each_member {
        ($s:expr, $go:ident) => {{
            use crate::chain::{ChainClientProto, ChainReplica};
            use crate::cheap::{CheapClientProto, CheapReplica};
            use crate::fab::{FabClientProto, FabReplica};
            use crate::fair::{FairClientProto, FairReplica};
            use crate::hotstuff::{HotStuffReplica, HsClientProto};
            use crate::kauri::{KauriClientProto, KauriReplica};
            use crate::minbft::{MinBftClientProto, MinBftReplica};
            use crate::pbft::{Behavior, PbftClientProto, PbftConfig, PbftReplica};
            use crate::poe::{PoeBehavior, PoeClientProto, PoeReplica};
            use crate::prime::{PrimeBehavior, PrimeClientProto, PrimeReplica};
            use crate::sbft::{SbftClientProto, SbftReplica};
            use crate::tendermint::{TendermintReplica, TmClientProto};
            use crate::zyzzyva::{ZyzzyvaClientProto, ZyzzyvaReplica};
            let s: &Scenario = $s;
            let (interval, batch) = (s.checkpoint_interval, s.batch_size);
            let (delta, slots) = (s.network.delta.0, (batch, interval));
            let (vt, t3, d) = (
                SimDuration(delta * 4),
                SimDuration(delta / 2),
                SimDuration(delta),
            );
            $go!("pbft", PbftClientProto, 4, |me, q, store| {
                let cfg = PbftConfig::from_scenario(s, q.n);
                PbftReplica::new(me, cfg, store, Behavior::Honest, interval)
            });
            $go!("fab", FabClientProto, 6, |me, q, store| {
                FabReplica::new(me, q, store, (vt, interval), batch)
            });
            $go!("minbft", MinBftClientProto, 3, |me, q, store| {
                MinBftReplica::new(me, q, store, (vt, interval), batch)
            });
            $go!("prime", PrimeClientProto, 4, |me, q, store| {
                let honest = PrimeBehavior::Honest;
                PrimeReplica::new(me, q, store, honest, t3, SimDuration(delta * 2), slots)
            });
            $go!("fair", FairClientProto, 5, |me, q, store| {
                let round = SimDuration(s.network.base_delay.0 * 4);
                FairReplica::new(me, q, store, round, (vt, interval))
            });
            $go!("kauri", KauriClientProto, 4, |me, q, store| {
                KauriReplica::new(me, q, store, 2, (vt, interval), d, batch)
            });
            $go!("sbft", SbftClientProto, 4, |me, q, store| {
                SbftReplica::new(me, q, store, (vt, interval), t3, batch)
            });
            $go!("poe", PoeClientProto, 4, |me, q, store| {
                PoeReplica::new(me, q, store, PoeBehavior::Honest, (vt, interval), batch)
            });
            $go!("zyzzyva", ZyzzyvaClientProto<false>, 4, |me, q, store| {
                ZyzzyvaReplica::new(me, q, store, (vt, interval), batch)
            });
            $go!("zyzzyva5", ZyzzyvaClientProto<true>, 6, |me, q, store| {
                ZyzzyvaReplica::new(me, q, store, (vt, interval), batch)
            });
            $go!("cheapbft", CheapClientProto, 4, |me, q, store| {
                CheapReplica::new(me, q, store, (vt, interval), SimDuration(delta * 2), batch)
            });
            $go!("hotstuff", HsClientProto, 4, |me, q, store| {
                HotStuffReplica::new(me, q, store, (vt, interval), batch)
            });
            $go!("tendermint", TmClientProto, 4, |me, q, store| {
                TendermintReplica::new(me, q, store, (d, interval), false, batch)
            });
            $go!("tendermint-il", TmClientProto, 4, |me, q, store| {
                TendermintReplica::new(me, q, store, (d, interval), true, batch)
            });
            $go!("chain", ChainClientProto, 4, |me, q, store| {
                ChainReplica::new(me, q, store, (vt, interval), batch)
            });
        }};
    }

    /// What the skeleton of a family member retains: its slot log and the
    /// execution history its undo log keeps.
    fn retained<R: ViewChanger>(replica: &mut R) -> usize {
        let core = replica.core();
        core.log.len() + core.exec.sm().history().len()
    }

    /// The checkpointing stage bounds every member alike: over 1 600
    /// requests, the slot log and the execution history each stay within
    /// one log window and one checkpoint interval, whatever the run's
    /// length. (The history alone reaches a window and an interval before
    /// each collection — PBFT retains 98 entries in all.)
    #[test]
    fn every_member_retains_at_most_a_window_and_an_interval() {
        let s = Scenario::small(1).with_load(2, 800);
        let interval = s.checkpoint_interval;
        let bound = 2 * ((4 * interval).max(64) + interval) as usize;
        macro_rules! go {
            ($name:expr, $proto:ty, $n:expr, $replica:expr) => {
                let (out, peak) = script::peak_size::<$proto, _>(&s, $n, $replica, retained);
                assert_eq!(out.log.accepted(), 1_600, "{}", $name);
                assert!(peak <= bound, "{}: {peak} entries retained", $name);
            };
        }
        each_member!(&s, go);
    }

    /// A family member's state digest.
    fn state<R: ViewChanger>(replica: &mut R) -> Digest {
        replica.core().exec.sm().digest()
    }

    /// P4's in-dark replica, for every member: replica n−1 is cut off from
    /// the start until half-way through the run. Checkpoint attestations
    /// after the heal reveal how far behind it is, and it catches up by
    /// state transfer to the state every other replica reached. The run is
    /// 13 checkpoint intervals long: where clients broadcast (Fair, Kauri)
    /// the dark replica's τ2 starts a view-change campaign nobody joins, so
    /// it follows the view by state transfer alone, and the last checkpoint
    /// has to cover the run's last request. Where the leader rotates
    /// (HotStuff, Tendermint), every view the dark replica leads stalls
    /// until τ2, so the others' first checkpoint comes later than half-way
    /// through the fault-free run: the replica stays dark until that
    /// checkpoint is stable, or no state exists to transfer.
    #[test]
    fn every_member_brings_an_in_dark_replica_back_by_state_transfer() {
        use bft_sim::SafetyAuditor;
        let s = Scenario::small(1).with_load(1, 13 * 16);
        macro_rules! go {
            ($name:expr, $proto:ty, $n:expr, $replica:expr) => {
                let (n, fault_free) = (
                    $n,
                    script::final_readings::<$proto, _, _>(&s, $n, $replica, state).0,
                );
                let peers: Vec<NodeId> = (0..n - 1).map(NodeId::replica).collect();
                let dark = NodeId::replica(n - 1);
                let isolated =
                    |until| FaultPlan::none().isolate(dark, peers.clone(), SimTime::ZERO, until);
                let for_good = s.clone().with_faults(isolated(SimTime(u64::MAX)));
                let probe =
                    script::final_readings::<$proto, _, _>(&for_good, $n, $replica, state).0;
                let mut entries = probe.log.entries.iter();
                let first = entries.find(|e| matches!(e.obs, Observation::StableCheckpoint { .. }));
                let first_stable = first.map_or(0, |e| e.at.0);
                let mid_run = SimTime((fault_free.end_time.0 / 2).max(first_stable + 1));
                let s = s.clone().with_faults(isolated(mid_run));
                let (out, finals) = script::final_readings::<$proto, _, _>(&s, $n, $replica, state);
                SafetyAuditor::all_correct().assert_safe(&out.log);
                assert_eq!(out.log.accepted(), 13 * 16, "{}", $name);
                let transfers = out.log.marker_count("state-transferred");
                assert!(
                    transfers > 0,
                    "{}: the in-dark replica never caught up",
                    $name
                );
                assert_eq!(
                    finals[&ReplicaId(n - 1)],
                    finals[&ReplicaId(0)],
                    "{}",
                    $name
                );
            };
        }
        each_member!(&s, go);
    }

    /// A durable restart, for every member: backup n−1 crashes at 2 ms and
    /// recovers at 10 ms under 2 × 200 requests. Its timers died with it,
    /// so the restart re-arms the periodic ones: every periodic timer (τ6,
    /// τ7, τ8) a healthy backup pops after the recovery, the restarted one
    /// pops too — Prime's τ7 and Themis' τ6 used to stay dead. It ends at
    /// the others' state.
    #[test]
    fn every_member_runs_its_periodic_timers_again_after_a_durable_restart() {
        use bft_sim::SafetyAuditor;
        let s = Scenario::small(1).with_load(2, 200);
        let ms = |n: u64| SimTime(n * 1_000_000);
        let periodic = [
            TimerKind::T6PreorderRound,
            TimerKind::T7Heartbeat,
            TimerKind::T8RecoveryWatchdog,
        ];
        macro_rules! go {
            ($name:expr, $proto:ty, $n:expr, $replica:expr) => {
                let victim = ReplicaId($n - 1);
                let faults =
                    FaultPlan::none().crash_recover(NodeId::Replica(victim), ms(2), ms(10));
                let s = s.clone().with_faults(faults);
                let (out, readings) = script::readings::<$proto, _, _>(&s, $n, $replica, state);
                SafetyAuditor::all_correct().assert_safe(&out.log);
                assert_eq!(out.log.accepted(), 400, "{}", $name);
                assert_eq!(out.log.marker_count("durable-restart"), 1, "{}", $name);
                let popped = |r: ReplicaId| {
                    let after = readings[&r].pops.iter().filter(|(at, _)| *at > ms(10));
                    let kinds = after
                        .map(|(_, kind)| *kind)
                        .filter(|k| periodic.contains(k));
                    kinds.collect::<std::collections::BTreeSet<_>>()
                };
                assert_eq!(popped(victim), popped(ReplicaId(1)), "{}", $name);
                let last = |r| *readings[&ReplicaId(r)].last();
                assert_eq!(last($n - 1), last(0), "{}", $name);
            };
        }
        each_member!(&s, go);
    }

    /// An amnesia restart, for every member: backup n−1 crashes mid-run
    /// and comes back 5 ms later with only its stable checkpoint (interval
    /// 16). It rejoins, catches up by state transfer and ends at the
    /// others' state; every request is accepted, and safely.
    #[test]
    fn every_member_rejoins_from_its_stable_checkpoint_after_an_amnesia_restart() {
        use bft_sim::SafetyAuditor;
        let s = Scenario::small(1).with_load(2, 200);
        macro_rules! go {
            ($name:expr, $proto:ty, $n:expr, $replica:expr) => {
                let (fault_free, _) =
                    script::final_readings::<$proto, _, _>(&s, $n, $replica, state);
                let (victim, mid_run) = (NodeId::replica($n - 1), fault_free.end_time.0 / 2);
                let (down, up) = (SimTime(mid_run), SimTime(mid_run + 5_000_000));
                let s = s
                    .clone()
                    .with_faults(FaultPlan::none().crash_recover_amnesia(victim, down, up));
                let (out, finals) = script::final_readings::<$proto, _, _>(&s, $n, $replica, state);
                SafetyAuditor::all_correct().assert_safe(&out.log);
                assert_eq!(out.log.accepted(), 400, "{}", $name);
                assert_eq!(out.log.marker_count("amnesia-restart"), 1, "{}", $name);
                let transfers = out.log.marker_count("state-transferred");
                assert!(
                    transfers > 0,
                    "{}: the restarted replica never caught up",
                    $name
                );
                assert_eq!(
                    finals[&ReplicaId($n - 1)],
                    finals[&ReplicaId(0)],
                    "{}",
                    $name
                );
            };
        }
        each_member!(&s, go);
    }

    #[test]
    fn signed_request_verifies() {
        let s = Scenario::small(1);
        let store = s.key_store();
        let req = Request::new(ClientId(1), 1, bft_types::Transaction::default());
        let signed = SignedRequest::new(&store.signer_for(PartyId::client(1)), req);
        assert!(signed.verify(&store));
        // tampering breaks it
        let mut bad = signed.clone();
        bad.request.id.timestamp = 99;
        assert!(!bad.verify(&store));
    }

    #[test]
    fn a_signature_is_over_its_own_request_and_signer() {
        let store = Scenario::small(1).key_store();
        let a = signed(&store, 1, 1, Op::Put(1, 1));
        let b = signed(&store, 1, 2, Op::Put(1, 1));
        assert_eq!(
            a.sig,
            store.signer_for(PartyId::client(1)).sign(&a.digest().0)
        );
        let a_signed_as_b = SignedRequest {
            request: b.request.clone(),
            sig: a.sig,
        };
        assert!(!a_signed_as_b.verify(&store));
        let claimed_by_another = SignedRequest {
            sig: Signature {
                signer: PartyId::client(2),
                ..a.sig
            },
            ..a.clone()
        };
        assert!(!claimed_by_another.verify(&store));
        // a genuine signature, but by another client or a replica, over
        // this request's digest
        for party in [PartyId::client(2), PartyId::replica(1)] {
            let by_another = SignedRequest::new(&store.signer_for(party), a.request.clone());
            assert!(store.verify(&a.digest().0, &by_another.sig));
            assert!(!by_another.verify(&store), "{party:?}");
        }
    }

    #[test]
    fn a_leaf_is_the_request_digest_signer_and_tag() {
        let store = Scenario::small(1).key_store();
        let a = signed(&store, 1, 1, Op::Put(1, 1));
        let leaf = a.leaf();
        assert_eq!(leaf[..32], a.digest().0);
        assert_eq!(leaf[32..40], PartyId::client(1).0.to_le_bytes());
        assert_eq!(leaf[40..], a.sig.tag.0);
        // its stable encoding is the leaf as one byte string, whatever the
        // transaction's size
        let mut encoded = vec![5];
        encoded.extend_from_slice(&72u64.to_le_bytes());
        encoded.extend_from_slice(&leaf);
        assert_eq!(bft_crypto::stable_bytes(&a), encoded);
        let big = SignedRequest::new(
            &store.signer_for(PartyId::client(1)),
            Request::new(
                ClientId(1),
                1,
                Transaction {
                    ops: vec![Op::Put(1, 1); 64],
                },
            ),
        );
        assert_eq!(bft_crypto::stable_bytes(&big).len(), encoded.len());
    }

    #[test]
    fn a_batch_digest_moves_with_every_part_of_every_leaf() {
        let store = Scenario::small(1).key_store();
        let a = signed(&store, 1, 1, Op::Put(1, 1));
        let b = signed(&store, 2, 1, Op::Put(2, 2));
        let batch = vec![a.clone(), b.clone()];
        let digest = digest_of(&batch);
        let mut one_op = a.clone();
        one_op.request.txn.ops[0] = Op::Put(1, 2);
        let mut one_tag = a.clone();
        one_tag.sig.tag.0[31] ^= 1;
        let mut signer = a.clone();
        signer.sig.signer = PartyId::client(3);
        let moved = [
            vec![b.clone(), a.clone()],
            vec![one_op.clone(), b.clone()],
            vec![one_tag, b.clone()],
            vec![signer, b.clone()],
            vec![a.clone()],
            vec![a.clone(), b.clone(), a.clone()],
            vec![],
        ];
        for other in &moved {
            assert_ne!(digest_of(other), digest, "{other:?}");
        }
        assert_ne!(one_op.leaf(), a.leaf());
        assert_eq!(digest_of(&batch.clone()), digest);
    }

    #[test]
    fn catchup_targets_rotate_and_skip_self() {
        let mut c = Catchup::new(ReplicaId(1), 4, SimDuration(1000));
        assert_eq!(c.targets(), vec![ReplicaId(0), ReplicaId(2)]);
        assert_eq!(c.targets(), vec![ReplicaId(3), ReplicaId(0)]);
        assert_eq!(c.targets(), vec![ReplicaId(2), ReplicaId(3)]);
        // backoff doubles per retry and caps at 8× base
        assert_eq!(c.backoff(), SimDuration(1000));
        c.attempt = 1;
        assert_eq!(c.backoff(), SimDuration(2000));
        c.attempt = 5;
        assert_eq!(c.backoff(), SimDuration(8000));
    }

    #[test]
    fn scenario_n_override_respects_minimum() {
        let mut s = Scenario::small(1);
        assert_eq!(s.n(4), 4);
        s.n_override = Some(7);
        assert_eq!(s.n(4), 7);
        s.n_override = Some(2);
        assert_eq!(s.n(4), 4, "cannot go below the protocol minimum");
    }
}
