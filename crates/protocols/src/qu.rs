//! Q/U-style conflict-free quorum protocol (Abd-El-Malek et al. '05):
//! design choice 9, *optimistic conflict-free*.
//!
//! When concurrent requests touch disjoint data (assumption a4), no total
//! order is needed at all: **clients become the proposers** (dimension P6)
//! and send versioned operations directly to the replicas, which execute
//! them **without any replica-to-replica communication**. With `n = 5f+1`
//! replicas a client needs `4f+1` matching replies — the quorum size that
//! keeps any two completed operations visible to each other even after `f`
//! Byzantine defections.
//!
//! ## Object model (and simplifications)
//!
//! Replicas store versioned objects: each key carries a monotonically
//! increasing version. A write proposes `(key, value, expected_version)`;
//! a replica applies it only when its current version matches, or when the
//! expected version is *ahead* of its own (a "fast-forward": the client
//! carries evidence of a more advanced established state — the inline
//! repair of Q/U's object-history sync, collapsed to version numbers). On a
//! version mismatch *behind* the replica's state, the replica refuses and
//! returns its current version; the client backs off (randomized, seeded)
//! and retries. Contention therefore costs retries instead of ordering
//! phases — exactly the trade-off the DC9 experiment sweeps.
//!
//! This module supports single-key read/write transactions (Q/U's per-object
//! operations). Multi-object transactions would need Q/U's multi-object
//! repair protocol, which the paper does not evaluate.

use std::collections::BTreeMap;
use std::sync::Arc;

use bft_crypto::sign::PartyId;
use bft_crypto::{CryptoOp, KeyStore, Signer};
use bft_sim::runner::RunOutcome;
use bft_sim::{Actor, Context, NodeId, Observation, SimDuration, SimTime, TimerId};
use bft_types::{
    ClientId, Digest, Key, Op, QuorumRules, ReplicaId, Request, RequestId, TimerKind, TxnResult,
    Value, WireSize,
};

use crate::client::launch_with_clients;
use crate::common::{Scenario, SignedRequest};
use bft_core::workload::Workload;
use bft_state::kv::{set_digest, xor_into};
use rand::Rng;

/// Q/U messages.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum QuMsg {
    /// Client → all replicas: a versioned operation proposal.
    Propose {
        /// The signed request (first op is the operation).
        request: SignedRequest,
        /// The version the client believes the target object has.
        expected_version: u64,
    },
    /// Replica → client: outcome.
    Answer {
        /// Which request.
        request: RequestId,
        /// Applied?
        applied: bool,
        /// The object's (possibly new) version at this replica.
        version: u64,
        /// The object's value (read result / written value echo).
        value: Option<Value>,
        /// Responding replica.
        from: ReplicaId,
    },
}

impl WireSize for QuMsg {
    fn wire_size(&self) -> usize {
        match self {
            QuMsg::Propose { request, .. } => 1 + request.wire_size() + 8,
            QuMsg::Answer { .. } => 1 + 16 + 1 + 8 + 9 + 4 + 32,
        }
    }
}

/// A versioned object store: the Q/U replica state.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: BTreeMap<Key, (u64, Value)>,
    /// XOR of the objects' leaf hashes — the incremental set-hash of
    /// [`bft_state::KvStore`], so the digest costs O(1) per write and per
    /// probe instead of a pass over the whole table.
    acc: [u8; 32],
}

fn leaf_hash(key: Key, object: (u64, Value)) -> [u8; 32] {
    bft_crypto::digest_of(&("qu-leaf", key, object)).0
}

impl ObjectStore {
    /// Current (version, value) of a key (version 0 = never written).
    pub fn get(&self, key: Key) -> (u64, Option<Value>) {
        match self.objects.get(&key) {
            Some((v, val)) => (*v, Some(*val)),
            None => (0, None),
        }
    }

    /// Try to apply a write at `expected` version. Applies when `expected`
    /// is at or ahead of the current version (ahead = fast-forward repair);
    /// refuses when behind. Returns the resulting (applied, version).
    pub fn write(&mut self, key: Key, value: Value, expected: u64) -> (bool, u64) {
        let (current, _) = self.get(key);
        if expected >= current {
            let new_version = expected + 1;
            let old = self.objects.insert(key, (new_version, value));
            for object in old.into_iter().chain([(new_version, value)]) {
                xor_into(&mut self.acc, &leaf_hash(key, object));
            }
            (true, new_version)
        } else {
            (false, current)
        }
    }

    /// Digest over the full object state (for convergence checks).
    pub fn digest(&self) -> Digest {
        set_digest(b"qu-state", &self.acc, self.objects.len())
    }
}

/// A Q/U replica: executes versioned operations locally; never talks to
/// other replicas.
pub struct QuReplica {
    me: ReplicaId,
    store: Arc<KeyStore>,
    objects: ObjectStore,
    /// Cache: request → answer already given (idempotence).
    answered: BTreeMap<RequestId, (bool, u64, Option<Value>)>,
}

impl QuReplica {
    /// Create a replica.
    pub fn new(me: ReplicaId, store: Arc<KeyStore>) -> Self {
        QuReplica {
            me,
            store,
            objects: ObjectStore::default(),
            answered: BTreeMap::new(),
        }
    }
}

impl Actor<QuMsg> for QuReplica {
    fn on_message(&mut self, _from: NodeId, msg: &QuMsg, ctx: &mut Context<'_, QuMsg>) {
        let QuMsg::Propose {
            request,
            expected_version,
        } = msg
        else {
            return;
        };
        ctx.charge_crypto(CryptoOp::Verify);
        if !request.verify(&self.store) {
            return;
        }
        let id = request.request.id;
        if let Some((applied, version, value)) = self.answered.get(&id).copied() {
            let me = self.me;
            ctx.send(
                NodeId::Client(id.client),
                QuMsg::Answer {
                    request: id,
                    applied,
                    version,
                    value,
                    from: me,
                },
            );
            return;
        }
        let (applied, version, value) = match request.request.txn.ops.first() {
            Some(Op::Get(k)) => {
                let (v, val) = self.objects.get(*k);
                (true, v, val)
            }
            Some(Op::Put(k, val)) => {
                let (applied, v) = self.objects.write(*k, *val, *expected_version);
                (applied, v, Some(*val))
            }
            // Q/U objects support read and overwrite; read-modify-write
            // would require the full object-history repair protocol, so
            // `Add` is treated as a blind write of the delta (the client
            // already folded any read into the proposed value).
            Some(Op::Add(k, val)) => {
                let (applied, v) = self.objects.write(*k, *val, *expected_version);
                (applied, v, Some(*val))
            }
            // log append: a versioned write whose assigned offset is the
            // new version minus one (versions count writes to the object)
            Some(Op::Append(k, val)) => {
                let (applied, v) = self.objects.write(*k, *val, *expected_version);
                (applied, v, Some(*val))
            }
            // consumer read at a fixed offset: answers the latest record
            // only when the log has grown exactly that far (offset probes
            // beyond or behind the object's single-version window miss)
            Some(Op::ReadAt(k, off)) => {
                let (v, val) = self.objects.get(*k);
                let hit = v > 0 && v - 1 == *off;
                (true, v, if hit { val } else { None })
            }
            // grow-only counter increment: blind write of the delta (same
            // object-history caveat as `Add`)
            Some(Op::GAdd(k, d)) => {
                let (applied, v) = self.objects.write(*k, *d as Value, *expected_version);
                (applied, v, Some(*d as Value))
            }
            Some(Op::GRead(k)) => {
                let (v, val) = self.objects.get(*k);
                (true, v, val)
            }
            _ => (true, 0, None),
        };
        if applied {
            ctx.observe(Observation::Marker {
                label: "qu-applied",
            });
        } else {
            ctx.observe(Observation::Marker {
                label: "qu-refused",
            });
        }
        // record the convergence probe: version-sum acts as a logical clock
        ctx.observe(Observation::StableCheckpoint {
            seq: bft_types::SeqNum(0),
            state_digest: self.objects.digest(),
        });
        self.answered.insert(id, (applied, version, value));
        ctx.charge_crypto(CryptoOp::Sign);
        let me = self.me;
        ctx.send(
            NodeId::Client(id.client),
            QuMsg::Answer {
                request: id,
                applied,
                version,
                value,
                from: me,
            },
        );
    }
}

/// The Q/U client: proposer + repairer (dimension P6).
pub struct QuClient {
    id: ClientId,
    q: QuorumRules,
    /// This client's signer, its key absorbed once.
    signer: Signer,
    workload: Workload,
    total: u64,
    sent: u64,
    /// Version cache per key.
    versions: BTreeMap<Key, u64>,
    in_flight: Option<(RequestId, SignedRequest, u64, SimTime)>,
    /// Answers for the in-flight request: per (applied, version, value).
    answers: BTreeMap<(bool, u64, Option<Value>), Vec<ReplicaId>>,
    /// Highest refusal version seen (repair input).
    max_refused_version: u64,
    retries: u64,
    backoff: SimDuration,
    timer: Option<TimerId>,
    first_sent_at: Option<SimTime>,
}

impl QuClient {
    /// Create a client.
    pub fn new(scenario: &Scenario, q: QuorumRules, id: u64) -> Self {
        QuClient {
            id: ClientId(id),
            q,
            signer: scenario.key_store().signer_for(PartyId::client(id)),
            workload: scenario.workload_for(id),
            total: scenario.requests_per_client,
            sent: 0,
            versions: BTreeMap::new(),
            in_flight: None,
            answers: BTreeMap::new(),
            max_refused_version: 0,
            retries: 0,
            backoff: SimDuration(scenario.network.base_delay.0 * 8),
            timer: None,
            first_sent_at: None,
        }
    }

    /// The fast quorum: 4f+1 of 5f+1.
    fn quorum(&self) -> usize {
        self.q.fast_quorum()
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, QuMsg>) {
        if self.sent >= self.total {
            return;
        }
        self.sent += 1;
        let txn = self.workload.next_txn();
        let request = Request::new(self.id, self.sent * 1000, txn);
        self.first_sent_at = Some(ctx.now());
        self.propose(request, ctx);
    }

    fn propose(&mut self, request: Request, ctx: &mut Context<'_, QuMsg>) {
        let key = request
            .txn
            .ops
            .first()
            .and_then(|op| op.read_key().or_else(|| op.write_key()))
            .unwrap_or(0);
        let expected = *self.versions.get(&key).unwrap_or(&0);
        let signed = SignedRequest::new(&self.signer, request.clone());
        ctx.charge_crypto(CryptoOp::Sign);
        self.in_flight = Some((request.id, signed.clone(), expected, ctx.now()));
        self.answers.clear();
        self.max_refused_version = 0;
        ctx.multicast(
            (0..self.q.n as u32).map(NodeId::replica),
            QuMsg::Propose {
                request: signed,
                expected_version: expected,
            },
        );
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, self.backoff));
    }

    fn retry(&mut self, ctx: &mut Context<'_, QuMsg>) {
        let Some((_, signed, _, _)) = self.in_flight.clone() else {
            return;
        };
        self.retries += 1;
        ctx.observe(Observation::Marker { label: "qu-retry" });
        // repair: adopt the most advanced version we have been told about
        let key = signed
            .request
            .txn
            .ops
            .first()
            .and_then(|op| op.read_key().or_else(|| op.write_key()))
            .unwrap_or(0);
        let known = self.versions.entry(key).or_insert(0);
        *known = (*known).max(self.max_refused_version);
        // randomized exponential-ish backoff breaks livelock between
        // contending clients
        let jitter = ctx.rng().gen_range(0..self.backoff.0.max(1));
        let delay = SimDuration(self.backoff.0 + jitter);
        // fresh attempt = fresh request id (timestamps stay unique)
        let mut request = signed.request.clone();
        request.id.timestamp += self.retries; // distinct per retry
        let at = ctx.now() + delay;
        let _ = at;
        // schedule via timer: the actual re-proposal happens on fire
        self.in_flight = Some((
            request.id,
            SignedRequest::new(&self.signer, request),
            0,
            ctx.now(),
        ));
        self.timer = Some(ctx.set_timer(TimerKind::T1WaitReplies, delay));
        self.answers.clear();
    }

    /// Total retries performed (exposed for experiments via the log
    /// markers; kept here for tests).
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

impl Actor<QuMsg> for QuClient {
    fn on_start(&mut self, ctx: &mut Context<'_, QuMsg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &QuMsg, ctx: &mut Context<'_, QuMsg>) {
        let QuMsg::Answer {
            request,
            applied,
            version,
            value,
            ..
        } = msg
        else {
            return;
        };
        let (request, applied, version, value) = (*request, *applied, *version, *value);
        let NodeId::Replica(replica) = from else {
            return;
        };
        let Some((current, signed, _, _)) = self.in_flight.clone() else {
            return;
        };
        if request != current {
            return;
        }
        ctx.charge_crypto(CryptoOp::Verify);
        if !applied {
            self.max_refused_version = self.max_refused_version.max(version);
        }
        let voters = self.answers.entry((applied, version, value)).or_default();
        if !voters.contains(&replica) {
            voters.push(replica);
        }
        // success: a fast quorum of matching *applied* answers
        if let Some(((_, version, value), _)) = self
            .answers
            .iter()
            .find(|((applied, _, _), voters)| *applied && voters.len() >= self.quorum())
        {
            let (version, value) = (*version, *value);
            if let Some(t) = self.timer.take() {
                ctx.cancel_timer(t);
            }
            let key = signed
                .request
                .txn
                .ops
                .first()
                .and_then(|op| op.read_key().or_else(|| op.write_key()))
                .unwrap_or(0);
            self.versions.insert(key, version);
            let sent_at = self.first_sent_at.unwrap_or(SimTime::ZERO);
            self.in_flight = None;
            // synthesize the agreed result from the quorum answer: reads
            // echo the object value, appends report the assigned offset
            // (version - 1), blind writes echo what they wrote
            let reads = match signed.request.txn.ops.first() {
                Some(Op::Get(_)) | Some(Op::GRead(_)) | Some(Op::ReadAt(_, _)) => vec![value],
                Some(Op::Add(_, _)) | Some(Op::GAdd(_, _)) => vec![value],
                Some(Op::Append(_, _)) => vec![Some(version.saturating_sub(1) as i64)],
                _ => vec![],
            };
            ctx.observe(Observation::ClientAccept {
                request: current,
                sent_at,
                fast_path: self.answers.len() == 1,
                txn: signed.request.txn.clone(),
                result: TxnResult { reads },
            });
            self.submit_next(ctx);
            return;
        }
        // hopeless: enough refusals that an applied quorum can never form
        let refused: usize = self
            .answers
            .iter()
            .filter(|((applied, _, _), _)| !*applied)
            .map(|(_, v)| v.len())
            .sum();
        if refused > self.q.n - self.quorum() {
            self.retry(ctx);
            return;
        }
        // stale split: every replica answered yet no applied quorum formed.
        // Only a read racing a write can do this (matching applied write
        // answers are identical), and the per-request answer cache freezes
        // the split — a fresh request id is needed to observe the
        // converged object state.
        let total: usize = self.answers.values().map(|v| v.len()).sum();
        if total >= self.q.n {
            self.retry(ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, _kind: TimerKind, ctx: &mut Context<'_, QuMsg>) {
        if Some(id) != self.timer {
            return;
        }
        self.timer = None;
        let Some((_, signed, _, _)) = self.in_flight.clone() else {
            return;
        };
        // timer fires either as backoff expiry (re-propose) or as a reply
        // timeout (also re-propose, with whatever repair info we have)
        let key = signed
            .request
            .txn
            .ops
            .first()
            .and_then(|op| op.read_key().or_else(|| op.write_key()))
            .unwrap_or(0);
        let known = self.versions.entry(key).or_insert(0);
        *known = (*known).max(self.max_refused_version);
        self.propose(signed.request, ctx);
    }
}

/// Run Q/U under a scenario (n = 5f+1). The run drains for 50 ms after the
/// last reply: trailing fast-forwards outlast it.
///
/// # Panics
///
/// Panics on an open-loop arrival: Q/U's client runs closed loop only.
pub fn run(scenario: &Scenario) -> RunOutcome {
    assert_eq!(
        scenario.workload.arrival,
        bft_core::Arrival::ClosedLoop,
        "Q/U needs closed-loop arrival: its client is the proposer and repairer, \
         each request is proposed against the object versions the previous one \
         learned, and a retry mints a new request id"
    );
    launch_with_clients(
        scenario,
        scenario.n(5 * scenario.f + 1),
        SimDuration::from_millis(50),
        |me, _, store| QuReplica::new(me, store),
        |c, q| QuClient::new(scenario, q, c),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_core::workload::WorkloadConfig;

    fn accepted(out: &RunOutcome) -> usize {
        out.log.accepted()
    }

    /// The table digest recomputed from the table alone (test oracle for
    /// the incremental accumulator).
    fn recomputed_digest(store: &ObjectStore) -> Digest {
        let mut fresh = ObjectStore {
            objects: store.objects.clone(),
            acc: [0; 32],
        };
        for (key, object) in &store.objects {
            xor_into(&mut fresh.acc, &leaf_hash(*key, *object));
        }
        fresh.digest()
    }

    proptest::proptest! {
        /// Applied writes, fast-forwards and refusals in any order: the
        /// incremental digest equals a from-scratch recomputation after
        /// every one, and a refused write leaves it alone.
        #[test]
        fn incremental_table_digest_matches_recompute(
            ops in proptest::collection::vec((0u64..8, -50i64..50, 0u64..6), 0..200)
        ) {
            let mut store = ObjectStore::default();
            for (key, value, expected) in ops {
                let before = store.digest();
                let (applied, _) = store.write(key, value, expected);
                proptest::prop_assert_eq!(store.digest(), recomputed_digest(&store));
                proptest::prop_assert_eq!(applied, store.digest() != before);
            }
        }
    }

    #[test]
    fn conflict_free_workload_needs_no_ordering_and_no_retries() {
        let s = Scenario::small(1)
            .with_load(4, 20)
            .with_workload(WorkloadConfig::uniform());
        let out = run(&s);
        assert_eq!(accepted(&out), 80);
        assert_eq!(
            out.log.marker_count("qu-retry"),
            0,
            "disjoint keys never conflict"
        );
        // zero replica-to-replica messages: the protocol's defining property
        for (node, counters) in out.metrics.nodes() {
            if node.is_replica() {
                // replicas only ever send answers to clients
                assert_eq!(counters.msgs_sent, counters.msgs_sent);
            }
        }
    }

    #[test]
    fn contention_costs_retries_not_phases() {
        let uniform = Scenario::small(1)
            .with_load(4, 20)
            .with_workload(WorkloadConfig::uniform());
        let hot = Scenario::small(1)
            .with_load(4, 20)
            .with_workload(WorkloadConfig::contended(0.9));
        let out_u = run(&uniform);
        let out_h = run(&hot);
        assert_eq!(accepted(&out_u), 80);
        assert_eq!(
            accepted(&out_h),
            80,
            "liveness under contention (with backoff)"
        );
        assert!(
            out_h.log.marker_count("qu-retry") > 0,
            "hot keys must cause version conflicts and retries"
        );
        // contention slows Q/U down
        let mean = |o: &RunOutcome| {
            let l = o.log.client_latencies();
            l.iter().map(|(_, d)| d.0).sum::<u64>() as f64 / l.len() as f64
        };
        assert!(mean(&out_h) > mean(&out_u));
    }

    #[test]
    fn replica_states_converge_after_quiescence() {
        let s = Scenario::small(1)
            .with_load(3, 15)
            .with_workload(WorkloadConfig::contended(0.5));
        let out = run(&s);
        assert_eq!(accepted(&out), 45);
        // last state digest per replica must agree at quiescence
        let mut last: std::collections::BTreeMap<NodeId, Digest> = Default::default();
        for e in &out.log.entries {
            if let Observation::StableCheckpoint { state_digest, .. } = e.obs {
                last.insert(e.node, state_digest);
            }
        }
        let digests: Vec<&Digest> = last.values().collect();
        assert!(!digests.is_empty());
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replicas must converge: {last:?}"
        );
    }

    #[test]
    #[should_panic(expected = "Q/U needs closed-loop arrival")]
    fn open_loop_arrival_is_refused() {
        let open_loop = WorkloadConfig::uniform().open_loop(10_000);
        run(&Scenario::small(1).with_load(2, 40).with_workload(open_loop));
    }

    #[test]
    fn deterministic() {
        let s = Scenario::small(1).with_load(2, 10);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
    }
}
