//! Seeded chaos campaigns: randomized fault schedules, safety/liveness
//! checking, and automatic minimization of failing schedules.
//!
//! A *campaign* hammers a protocol with many randomly generated — but fully
//! deterministic — adversarial schedules instead of a handful of hand-curated
//! `FaultPlan`s. Each **case** is a pure function of a [`ChaosProfile`] (what
//! the target protocol claims to tolerate) and a `u64` seed, so any failure
//! reproduces from its printed seed alone.
//!
//! The pieces here are protocol-agnostic; running actual protocols against
//! the generated cases lives in `bft-bench` (the protocol crates depend on
//! this one, not vice versa):
//!
//! * [`ChaosProfile`] — the generator's envelope: which fault classes are
//!   enabled, the crash-victim pool and concurrency budget, the fault
//!   horizon, and caps for the network-misbehavior knobs (GST storms,
//!   post-GST duplication/reordering).
//! * [`generate_case`] — seed → [`ChaosCase`] (a validated [`FaultPlan`]
//!   plus network-knob settings and Byzantine adversary placements drawn
//!   from the profile's [`AdversaryBudget`]).
//! * [`check_outcome`] — safety via [`SafetyAuditor`], liveness as "every
//!   request accepted within the virtual-time budget".
//! * [`shrink_plan`] / [`shrink_case`] — ddmin-style minimization: given a
//!   failing schedule and a re-run predicate, removes fault events (and,
//!   for cases, individual attacks) while the failure persists, yielding a
//!   minimal reproducing schedule.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::adversary::{AdversarySpec, Attack, AttackKind};
use crate::audit::{SafetyAuditor, SafetyViolation};
use crate::event::NodeId;
use crate::faults::{FaultEvent, FaultPlan, RestartMode};
use crate::obs::ObservationLog;
use crate::time::{SimDuration, SimTime};

/// The envelope a chaos case is drawn from: what the target protocol claims
/// to tolerate. Cases generated from the same profile and seed are
/// identical, whatever the host or thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Replica population (node ids `0..n_replicas`).
    pub n_replicas: usize,
    /// Client population (node ids `0..n_clients`).
    pub n_clients: u64,
    /// Replicas the generator may crash or isolate. Protocols with a fixed
    /// leader (e.g. CheapBFT) exclude replica 0 here.
    pub crash_victims: Vec<u32>,
    /// Maximum number of *distinct* crash/isolation victims per case — the
    /// protocol's `f` budget.
    pub max_victims: usize,
    /// All fault activity starts within this window; transient faults heal
    /// within roughly twice this. Keep it well under the scenario's
    /// `max_time` so liveness can recover.
    pub horizon: SimDuration,
    /// Allow pairwise partitions between replicas (non-budget: a single cut
    /// pair never removes a quorum).
    pub partitions: bool,
    /// Allow full isolation of a victim (counts against `max_victims`).
    pub isolation: bool,
    /// Allow permanently slowed links.
    pub slow_links: bool,
    /// Maximum extra one-way delay for a slowed link.
    pub max_slow_extra: SimDuration,
    /// Allow pre-GST drop storms (GST pushed past zero with message loss
    /// until stabilization).
    pub gst_storm: bool,
    /// Latest generated GST.
    pub max_gst: SimDuration,
    /// Maximum pre-GST drop probability.
    pub max_pre_gst_drop: f64,
    /// Maximum post-GST duplication probability (0 disables the knob).
    pub max_dup_prob: f64,
    /// Maximum post-GST reordering probability (0 disables the knob).
    pub max_reorder_prob: f64,
    /// Byzantine adversary placements the generator may draw. A disabled
    /// budget ([`AdversaryBudget::none`]) consumes no randomness, so
    /// adversary-free campaigns generate byte-identical cases to builds
    /// that predate the adversary layer.
    pub adversary: AdversaryBudget,
    /// Recovery-churn draws the generator may make (repeated crash→recover
    /// cycles with explicit restart modes). A disabled budget
    /// ([`RecoveryBudget::none`]) consumes no randomness, so churn-free
    /// campaigns generate byte-identical cases to builds that predate the
    /// recovery axis.
    pub recovery: RecoveryBudget,
}

/// How much restart churn a campaign may inject: which replicas cycle
/// through crash→recover, how many times, and whether restarts may come
/// back *amnesiac* (reloading only the last stable checkpoint and rejoining
/// via state transfer) instead of durable.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBudget {
    /// Maximum replicas subjected to churn per case.
    pub max_victims: usize,
    /// Replicas eligible for churn.
    pub pool: Vec<u32>,
    /// Maximum crash→recover cycles per victim (at least one is drawn when
    /// the budget is enabled — a recovery case without churn tests nothing).
    pub max_cycles: u32,
    /// Allow [`RestartMode::Amnesia`] restarts; otherwise every restart is
    /// [`RestartMode::Durable`].
    pub amnesia: bool,
}

impl RecoveryBudget {
    /// No churn; the generator draws no recovery randomness at all.
    pub fn none() -> RecoveryBudget {
        RecoveryBudget {
            max_victims: 0,
            pool: Vec::new(),
            max_cycles: 0,
            amnesia: false,
        }
    }

    /// The full churn envelope: up to `f` victims from the whole
    /// population, up to three crash→recover cycles each, mixed restart
    /// modes.
    pub fn full(n_replicas: usize, f: usize) -> RecoveryBudget {
        RecoveryBudget {
            max_victims: f,
            pool: (0..n_replicas as u32).collect(),
            max_cycles: 3,
            amnesia: true,
        }
    }

    /// Whether the generator can draw any churn at all.
    pub fn enabled(&self) -> bool {
        self.max_victims > 0 && !self.pool.is_empty() && self.max_cycles > 0
    }
}

/// How many replicas a campaign may compromise and which wire-level attacks
/// they may mount (see [`crate::adversary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryBudget {
    /// Maximum compromised replicas per case (the Byzantine `f` budget).
    pub max_compromised: usize,
    /// Replicas eligible for compromise.
    pub pool: Vec<u32>,
    /// Bias placements toward replica 0 — the initial leader of every
    /// leader-based protocol in the registry — half of the time.
    pub leader_targeted: bool,
    /// Allow [`Attack::Equivocate`].
    pub equivocation: bool,
    /// Allow [`Attack::Censor`].
    pub censorship: bool,
    /// Allow [`Attack::Delay`].
    pub delay: bool,
    /// Allow [`Attack::Replay`].
    pub replay: bool,
    /// Allow [`Attack::Corrupt`].
    pub corruption: bool,
    /// Maximum strategic hold for delay attacks. Sized against the
    /// protocols' retransmission timers: holds just under a timeout are
    /// the interesting regime.
    pub max_hold: SimDuration,
}

impl AdversaryBudget {
    /// No compromised replicas; the generator draws no adversary
    /// randomness at all.
    pub fn none() -> AdversaryBudget {
        AdversaryBudget {
            max_compromised: 0,
            pool: Vec::new(),
            leader_targeted: false,
            equivocation: false,
            censorship: false,
            delay: false,
            replay: false,
            corruption: false,
            max_hold: SimDuration::ZERO,
        }
    }

    /// The full gallery: up to `f` compromised replicas from the whole
    /// population, leader-targeted, every attack class enabled.
    pub fn full(n_replicas: usize, f: usize) -> AdversaryBudget {
        AdversaryBudget {
            max_compromised: f,
            pool: (0..n_replicas as u32).collect(),
            leader_targeted: true,
            equivocation: true,
            censorship: true,
            delay: true,
            replay: true,
            corruption: true,
            // 4Δ on the LAN profile: exactly the client retransmission /
            // PBFT view-timeout scale the strategic attacker aims for.
            max_hold: SimDuration::from_millis(40),
        }
    }

    /// Keep only the listed attack classes (CLI `--attacks` filters).
    pub fn restrict(mut self, kinds: &[AttackKind]) -> AdversaryBudget {
        self.equivocation = self.equivocation && kinds.contains(&AttackKind::Equivocate);
        self.censorship = self.censorship && kinds.contains(&AttackKind::Censor);
        self.delay = self.delay && kinds.contains(&AttackKind::Delay);
        self.replay = self.replay && kinds.contains(&AttackKind::Replay);
        self.corruption = self.corruption && kinds.contains(&AttackKind::Corrupt);
        self
    }

    /// The enabled attack classes, in [`AttackKind::ALL`] order.
    pub fn enabled_kinds(&self) -> Vec<AttackKind> {
        AttackKind::ALL
            .into_iter()
            .filter(|k| match k {
                AttackKind::Equivocate => self.equivocation,
                AttackKind::Censor => self.censorship,
                AttackKind::Delay => self.delay,
                AttackKind::Replay => self.replay,
                AttackKind::Corrupt => self.corruption,
            })
            .collect()
    }

    /// Whether the generator can place any adversary at all.
    pub fn enabled(&self) -> bool {
        self.max_compromised > 0 && !self.pool.is_empty() && !self.enabled_kinds().is_empty()
    }
}

impl ChaosProfile {
    /// The standard envelope for a crash-tolerant protocol with `n` replicas
    /// and fault budget `f`: crash/recover churn, healed isolation,
    /// partitions, slow links, GST storms, duplication and reordering.
    pub fn standard(n_replicas: usize, f: usize, n_clients: u64) -> ChaosProfile {
        ChaosProfile {
            n_replicas,
            n_clients,
            crash_victims: (0..n_replicas as u32).collect(),
            max_victims: f,
            horizon: SimDuration::from_millis(30),
            partitions: true,
            isolation: true,
            slow_links: true,
            max_slow_extra: SimDuration::from_millis(2),
            gst_storm: true,
            max_gst: SimDuration::from_millis(50),
            max_pre_gst_drop: 0.2,
            max_dup_prob: 0.3,
            max_reorder_prob: 0.3,
            adversary: AdversaryBudget::none(),
            recovery: RecoveryBudget::none(),
        }
    }

    /// A Byzantine envelope: a *clean* network (no crashes, partitions,
    /// slow links or knob misbehavior) with up to `f` compromised replicas
    /// mounting wire-level attacks — so every failure attributes to the
    /// adversary placements alone.
    pub fn byzantine(n_replicas: usize, f: usize, n_clients: u64) -> ChaosProfile {
        ChaosProfile {
            crash_victims: Vec::new(),
            max_victims: 0,
            partitions: false,
            isolation: false,
            slow_links: false,
            gst_storm: false,
            max_dup_prob: 0.0,
            max_reorder_prob: 0.0,
            adversary: AdversaryBudget::full(n_replicas, f),
            ..ChaosProfile::standard(n_replicas, 0, n_clients)
        }
    }

    /// A benign envelope: no crashes or isolation, only misbehavior every
    /// protocol must absorb (healed partitions, slow links, GST storms,
    /// duplication, reordering).
    pub fn benign(n_replicas: usize, n_clients: u64) -> ChaosProfile {
        ChaosProfile {
            crash_victims: Vec::new(),
            max_victims: 0,
            isolation: false,
            ..ChaosProfile::standard(n_replicas, 0, n_clients)
        }
    }

    /// A recovery-churn envelope: a *clean* network (no step-1 crash
    /// victims, partitions, slow links or knob misbehavior) with up to `f`
    /// replicas cycling through crash→recover in mixed restart modes — so
    /// every failure attributes to the restart/rejoin path alone.
    pub fn recovery_churn(n_replicas: usize, f: usize, n_clients: u64) -> ChaosProfile {
        ChaosProfile {
            crash_victims: Vec::new(),
            max_victims: 0,
            partitions: false,
            isolation: false,
            slow_links: false,
            gst_storm: false,
            max_dup_prob: 0.0,
            max_reorder_prob: 0.0,
            recovery: RecoveryBudget::full(n_replicas, f),
            ..ChaosProfile::standard(n_replicas, 0, n_clients)
        }
    }
}

/// One generated adversarial schedule: a fault plan plus network-misbehavior
/// knob settings, reproducible from `seed` alone (given the profile).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// The seed this case was generated from (the replay handle).
    pub seed: u64,
    /// The crash/partition/isolation/slow-link schedule.
    pub plan: FaultPlan,
    /// Global stabilization time (`SimTime::ZERO` = synchronous run).
    pub gst: SimTime,
    /// Pre-GST drop probability.
    pub pre_gst_drop: f64,
    /// Post-GST duplication probability.
    pub dup_prob: f64,
    /// Post-GST reordering probability.
    pub reorder_prob: f64,
    /// Byzantine adversary placements (compromised replicas and their
    /// attack stacks), empty unless the profile's budget enables them.
    pub adversaries: Vec<AdversarySpec>,
}

impl ChaosCase {
    /// Replicas the safety auditor should not blame: every crash or
    /// isolation victim in the plan (matching the convention of the
    /// hand-written fault tests, which exclude victims even after they
    /// recover) plus every compromised replica.
    pub fn suspects(&self) -> Vec<NodeId> {
        suspects_with(&self.plan, &self.adversaries)
    }

    /// One-line human summary for campaign reports.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("{} fault event(s)", self.plan.events.len())];
        if self.gst > SimTime::ZERO {
            parts.push(format!(
                "gst={}ms drop={:.2}",
                self.gst.0 / 1_000_000,
                self.pre_gst_drop
            ));
        }
        if self.dup_prob > 0.0 {
            parts.push(format!("dup={:.2}", self.dup_prob));
        }
        if self.reorder_prob > 0.0 {
            parts.push(format!("reorder={:.2}", self.reorder_prob));
        }
        if !self.adversaries.is_empty() {
            let advs: Vec<String> = self.adversaries.iter().map(|a| a.describe()).collect();
            parts.push(format!("adv=[{}]", advs.join(" ")));
        }
        // restart-mode breakdown, only once amnesia is in play (legacy
        // durable-only plans keep their historical description)
        let (mut durable, mut amnesia) = (0u32, 0u32);
        for ev in &self.plan.events {
            if let FaultEvent::Recover { mode, .. } = ev {
                match mode {
                    RestartMode::Durable => durable += 1,
                    RestartMode::Amnesia => amnesia += 1,
                }
            }
        }
        if amnesia > 0 {
            parts.push(format!("restarts={durable}×durable+{amnesia}×amnesia"));
        }
        parts.join(", ")
    }
}

/// Crash/isolation victims of `plan` plus the compromised replicas of
/// `adversaries`, deduplicated, in id order — the set the safety auditor
/// must not blame.
pub fn suspects_with(plan: &FaultPlan, adversaries: &[AdversarySpec]) -> Vec<NodeId> {
    let mut seen: std::collections::BTreeSet<u32> = suspects_of(plan)
        .into_iter()
        .filter_map(|n| n.as_replica().map(|r| r.0))
        .collect();
    seen.extend(adversaries.iter().map(|a| a.node));
    seen.into_iter().map(NodeId::replica).collect()
}

/// Crash and isolation victims of a plan, deduplicated, in id order.
pub fn suspects_of(plan: &FaultPlan) -> Vec<NodeId> {
    let mut seen = std::collections::BTreeSet::new();
    for ev in &plan.events {
        match ev {
            FaultEvent::Crash { node, .. } | FaultEvent::Isolate { node, .. } => {
                if let NodeId::Replica(r) = node {
                    seen.insert(r.0);
                }
            }
            _ => {}
        }
    }
    seen.into_iter().map(NodeId::replica).collect()
}

/// Generate the chaos case for `seed` under `profile`.
///
/// The case always stays inside the profile's envelope: at most
/// `max_victims` distinct crash/isolation victims, transient faults heal
/// within ~2× the horizon, GST and knob probabilities within their caps.
/// The returned plan always passes `FaultPlan::validate` for the profile's
/// population.
pub fn generate_case(profile: &ChaosProfile, seed: u64) -> ChaosCase {
    // Domain-separate from the simulation's own seed usage so a campaign
    // seed and a scenario seed never share a stream.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4348_414f_5343_4150); // "CHAOSCAP"
    let h = profile.horizon.0.max(16);
    let mut plan = FaultPlan::none();

    // 1. Victim faults (crash/recover churn or full isolation), within the
    //    concurrency budget.
    let budget = profile.max_victims.min(profile.crash_victims.len());
    let n_victims = if budget > 0 {
        rng.gen_range(0..=budget)
    } else {
        0
    };
    let mut pool = profile.crash_victims.clone();
    let mut isolated = false;
    for _ in 0..n_victims {
        let v = pool.swap_remove(rng.gen_range(0..pool.len()));
        let node = NodeId::replica(v);
        if profile.isolation && rng.gen_bool(0.3) {
            isolated = true;
            // In-dark replica: cut off from every peer, healing within the
            // horizon.
            let from = rng.gen_range(0..h / 2);
            let until = rng.gen_range(from + h / 8..=h);
            let peers = (0..profile.n_replicas as u32)
                .filter(|i| *i != v)
                .map(NodeId::replica)
                .collect();
            plan = plan.isolate(node, peers, SimTime(from), SimTime(until));
        } else {
            // Crash/recover churn: one or two down intervals.
            let cycles = rng.gen_range(1..=2u32);
            let mut t = rng.gen_range(0..h / 2);
            for _ in 0..cycles {
                let down = rng.gen_range(h / 16..=h / 4);
                plan = plan.crash_recover(node, SimTime(t), SimTime(t + down));
                t += down + rng.gen_range(h / 16..=h / 4);
            }
        }
    }

    // 2. A pairwise partition (cutting one link pair never removes a
    //    quorum, so it carries no victim budget). Never combined with an
    //    isolation: together they can fragment a small population past its
    //    quorum even though each alone cannot.
    if profile.partitions && !isolated && profile.n_replicas >= 2 && rng.gen_bool(0.5) {
        let a = rng.gen_range(0..profile.n_replicas as u32);
        let mut b = rng.gen_range(0..profile.n_replicas as u32 - 1);
        if b >= a {
            b += 1;
        }
        let from = rng.gen_range(0..h / 2);
        let until = rng.gen_range(from + h / 8..=h);
        plan = plan.partition(
            NodeId::replica(a),
            NodeId::replica(b),
            SimTime(from),
            SimTime(until),
        );
    }

    // 3. A permanently slowed link between two distinct replicas.
    if profile.slow_links && profile.n_replicas >= 2 && rng.gen_bool(0.5) {
        let from = rng.gen_range(0..profile.n_replicas as u32);
        let mut to = rng.gen_range(0..profile.n_replicas as u32 - 1);
        if to >= from {
            to += 1;
        }
        let extra = rng.gen_range(0..=profile.max_slow_extra.0);
        plan = plan.slow_link(
            NodeId::replica(from),
            NodeId::replica(to),
            SimDuration(extra),
        );
    }

    // 4. Network-misbehavior knobs.
    let (gst, pre_gst_drop) = if profile.gst_storm && rng.gen_bool(0.4) {
        (
            SimTime(rng.gen_range(1..=profile.max_gst.0.max(1))),
            rng.gen_range(0.0..=profile.max_pre_gst_drop),
        )
    } else {
        (SimTime::ZERO, 0.0)
    };
    let dup_prob = if profile.max_dup_prob > 0.0 && rng.gen_bool(0.5) {
        rng.gen_range(0.0..=profile.max_dup_prob)
    } else {
        0.0
    };
    let reorder_prob = if profile.max_reorder_prob > 0.0 && rng.gen_bool(0.5) {
        rng.gen_range(0.0..=profile.max_reorder_prob)
    } else {
        0.0
    };

    // 5. Byzantine adversary placements. Drawn only when the budget is
    //    enabled, so adversary-free profiles consume exactly the randomness
    //    they always did (cases stay byte-identical).
    let adversaries = if profile.adversary.enabled() {
        generate_adversaries(profile, &mut rng)
    } else {
        Vec::new()
    };

    // 6. Recovery churn: repeated crash→recover cycles with explicit
    //    restart modes, possibly overlapping each other (and the
    //    adversaries of step 5) mid-catch-up. Drawn last and only when the
    //    budget is enabled — churn-free profiles consume no recovery
    //    randomness at all.
    if profile.recovery.enabled() {
        // never double-crash a replica step 1 already schedules
        let step1_victims = suspects_of(&plan);
        let mut pool: Vec<u32> = profile
            .recovery
            .pool
            .iter()
            .copied()
            .filter(|v| !step1_victims.contains(&NodeId::replica(*v)))
            .collect();
        let cap = profile.recovery.max_victims.min(pool.len());
        if cap > 0 {
            // at least one victim: a recovery case without churn tests
            // nothing
            let n_churn = rng.gen_range(1..=cap);
            for _ in 0..n_churn {
                let v = pool.swap_remove(rng.gen_range(0..pool.len()));
                let node = NodeId::replica(v);
                let cycles = rng.gen_range(1..=profile.recovery.max_cycles);
                let mut t = rng.gen_range(0..h / 2);
                for _ in 0..cycles {
                    let down = rng.gen_range(h / 16..=h / 4);
                    let mode = if profile.recovery.amnesia && rng.gen_bool(0.5) {
                        RestartMode::Amnesia
                    } else {
                        RestartMode::Durable
                    };
                    plan = plan.crash_recover_mode(node, SimTime(t), SimTime(t + down), mode);
                    t += down + rng.gen_range(h / 16..=h / 4);
                }
            }
        }
    }

    ChaosCase {
        seed,
        plan,
        gst,
        pre_gst_drop,
        dup_prob,
        reorder_prob,
        adversaries,
    }
}

/// Draw the case's compromised replicas and their attack stacks from the
/// profile's budget. Caller guarantees the budget is enabled.
fn generate_adversaries(profile: &ChaosProfile, rng: &mut ChaCha8Rng) -> Vec<AdversarySpec> {
    let budget = &profile.adversary;
    let kinds = budget.enabled_kinds();
    let cap = budget.max_compromised.min(budget.pool.len());
    let n_compromised = rng.gen_range(0..=cap);
    if n_compromised == 0 {
        return Vec::new();
    }
    let mut pool = budget.pool.clone();
    let mut chosen: Vec<u32> = Vec::new();
    // Leader-targeted bias: half the placements pin the initial leader
    // (replica 0), the regime where Byzantine behavior bites hardest.
    if budget.leader_targeted && pool.contains(&0) && rng.gen_bool(0.5) {
        chosen.push(0);
        pool.retain(|v| *v != 0);
    }
    while chosen.len() < n_compromised {
        chosen.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }
    chosen.truncate(n_compromised);
    chosen.sort_unstable();
    chosen
        .into_iter()
        .map(|node| {
            let n_attacks = rng.gen_range(1..=2.min(kinds.len()));
            let mut avail = kinds.clone();
            let attacks = (0..n_attacks)
                .map(|_| {
                    let kind = avail.swap_remove(rng.gen_range(0..avail.len()));
                    sample_attack(kind, node, profile, rng)
                })
                .collect();
            AdversarySpec { node, attacks }
        })
        .collect()
}

/// Draw one attack's parameters. Ranges pick the aggressive end of each
/// class: probabilities high enough to bite within a short horizon, holds
/// at the retransmission-timer scale.
fn sample_attack(
    kind: AttackKind,
    node: u32,
    profile: &ChaosProfile,
    rng: &mut ChaCha8Rng,
) -> Attack {
    match kind {
        AttackKind::Equivocate => Attack::Equivocate {
            prob: rng.gen_range(0.5..=1.0),
        },
        AttackKind::Censor => {
            // 30% mute (censor everyone); else 1–2 named replica victims.
            let victims = if rng.gen_bool(0.3) || profile.n_replicas < 3 {
                Vec::new()
            } else {
                let mut others: Vec<u32> = (0..profile.n_replicas as u32)
                    .filter(|r| *r != node)
                    .collect();
                let n_victims = rng.gen_range(1..=2.min(others.len()));
                (0..n_victims)
                    .map(|_| NodeId::replica(others.swap_remove(rng.gen_range(0..others.len()))))
                    .collect()
            };
            Attack::Censor {
                victims,
                outbound: true,
                inbound: rng.gen_bool(0.3),
            }
        }
        AttackKind::Delay => {
            let max = profile.adversary.max_hold.0.max(4);
            Attack::Delay {
                hold: SimDuration(rng.gen_range(max / 4..=max)),
                prob: rng.gen_range(0.5..=1.0),
            }
        }
        AttackKind::Replay => Attack::Replay {
            prob: rng.gen_range(0.3..=0.8),
        },
        AttackKind::Corrupt => Attack::Corrupt {
            prob: rng.gen_range(0.3..=1.0),
        },
    }
}

/// What a campaign case found wrong with a run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignViolation {
    /// The safety auditor found conflicting commits or divergent state
    /// among correct replicas.
    Safety(Vec<SafetyViolation>),
    /// The run did not accept every request within the virtual-time budget.
    Liveness {
        /// Requests the clients saw accepted.
        accepted: u64,
        /// Requests issued.
        expected: u64,
    },
    /// A per-workload semantic checker fired (lost write, broken log
    /// offsets, counter divergence, non-linearizable history, …) even
    /// though digests agreed and everything committed.
    Semantic(Vec<crate::checker::SemanticViolation>),
}

impl std::fmt::Display for CampaignViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignViolation::Safety(vs) => {
                write!(f, "SAFETY: {} violation(s)", vs.len())?;
                if let Some(v) = vs.first() {
                    write!(f, " — first: {v:?}")?;
                }
                Ok(())
            }
            CampaignViolation::Liveness { accepted, expected } => {
                write!(f, "LIVENESS: {accepted}/{expected} requests accepted")
            }
            CampaignViolation::Semantic(vs) => {
                write!(f, "SEMANTIC: {} violation(s)", vs.len())?;
                for v in vs.iter().take(3) {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
        }
    }
}

/// Check one run: safety first (auditing all replicas except `faulty`),
/// then liveness as "all `expected` requests accepted". Returns `None` when
/// the run is clean.
pub fn check_outcome(
    log: &ObservationLog,
    faulty: Vec<NodeId>,
    expected: u64,
) -> Option<CampaignViolation> {
    let violations = SafetyAuditor::excluding(faulty).check(log);
    if !violations.is_empty() {
        return Some(CampaignViolation::Safety(violations));
    }
    let accepted = log.client_latencies().len() as u64;
    if accepted != expected {
        return Some(CampaignViolation::Liveness { accepted, expected });
    }
    None
}

/// [`check_outcome`] plus the per-workload semantic checkers: digest
/// agreement and liveness first, then replay faithfulness, lost-write,
/// linearizability, log-offset and counter-convergence checks against the
/// accepted history.
pub fn check_outcome_with_semantics(
    log: &ObservationLog,
    faulty: Vec<NodeId>,
    expected: u64,
    semantic: &crate::checker::SemanticConfig,
) -> Option<CampaignViolation> {
    if let Some(v) = check_outcome(log, faulty.clone(), expected) {
        return Some(v);
    }
    let cfg = semantic.clone().with_faulty(faulty);
    let violations = crate::checker::check_semantics(log, &cfg);
    if !violations.is_empty() {
        return Some(CampaignViolation::Semantic(violations));
    }
    None
}

/// Shrink a failing fault plan to a locally minimal reproducing schedule.
///
/// `still_fails` re-runs the system under a candidate plan and reports
/// whether the original failure persists. Classic ddmin over the event
/// list: try dropping chunks (halving the chunk size on each sweep) and
/// keep any candidate that still fails, until no single event can be
/// removed. A candidate whose crash/recover history is incoherent (a
/// `Recover` whose `Crash` was dropped) cannot run and counts as not
/// reproducing. The result always satisfies `still_fails`; if even the full
/// plan does not (flaky failure), the plan is returned unshrunk.
pub fn shrink_plan(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    if !still_fails(plan) {
        return plan.clone();
    }
    let events = ddmin(&plan.events, |evs| {
        runnable(evs).is_some_and(|plan| still_fails(&plan))
    });
    FaultPlan { events }
}

/// The candidate plan made of `events`, if its crash/recover history is
/// coherent ([`FaultPlan::check_coherence`]).
fn runnable(events: &[FaultEvent]) -> Option<FaultPlan> {
    let plan = FaultPlan {
        events: events.to_vec(),
    };
    plan.check_coherence().is_ok().then_some(plan)
}

/// Shrink a failing chaos case along both axes: first ddmin the fault
/// events (adversaries held fixed), then ddmin the flattened
/// `(replica, attack)` pairs (minimal plan held fixed), skipping incoherent
/// plans as [`shrink_plan`] does. The result is the smallest (plan,
/// adversary) pair found that still satisfies `still_fails`; a
/// non-reproducing failure is returned unshrunk.
pub fn shrink_case(
    case: &ChaosCase,
    mut still_fails: impl FnMut(&FaultPlan, &[AdversarySpec]) -> bool,
) -> (FaultPlan, Vec<AdversarySpec>) {
    if !still_fails(&case.plan, &case.adversaries) {
        return (case.plan.clone(), case.adversaries.clone());
    }
    let events = ddmin(&case.plan.events, |evs| {
        runnable(evs).is_some_and(|plan| still_fails(&plan, &case.adversaries))
    });
    let plan = FaultPlan { events };
    let flat: Vec<(u32, Attack)> = case
        .adversaries
        .iter()
        .flat_map(|s| s.attacks.iter().map(|a| (s.node, a.clone())))
        .collect();
    let kept = ddmin(&flat, |pairs| still_fails(&plan, &unflatten(pairs)));
    (plan, unflatten(&kept))
}

/// Regroup shrunk `(replica, attack)` pairs into per-replica specs, in
/// replica order.
fn unflatten(pairs: &[(u32, Attack)]) -> Vec<AdversarySpec> {
    let mut by_node: std::collections::BTreeMap<u32, Vec<Attack>> =
        std::collections::BTreeMap::new();
    for (node, attack) in pairs {
        by_node.entry(*node).or_default().push(attack.clone());
    }
    by_node
        .into_iter()
        .map(|(node, attacks)| AdversarySpec { node, attacks })
        .collect()
}

/// Classic ddmin over a list: try dropping chunks (halving the chunk size
/// each sweep) and keep any candidate that still fails, until no single
/// item can be removed. The caller guarantees the full list fails.
fn ddmin<T: Clone>(full: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut items = full.to_vec();
    if items.is_empty() {
        return items;
    }
    let mut chunk = items.len().div_ceil(2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < items.len() {
            let mut candidate = items.clone();
            let end = (i + chunk).min(candidate.len());
            candidate.drain(i..end);
            if still_fails(&candidate) {
                items = candidate;
                reduced = true;
                // same index now holds the next chunk — do not advance
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            if !reduced {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
        if items.is_empty() {
            break;
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debug_str(case: &ChaosCase) -> String {
        format!("{case:?}")
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ChaosProfile::standard(4, 1, 2);
        for seed in 0..50 {
            let a = generate_case(&p, seed);
            let b = generate_case(&p, seed);
            assert_eq!(debug_str(&a), debug_str(&b), "seed {seed} not stable");
        }
        // different seeds explore different schedules (at least some)
        let distinct: std::collections::BTreeSet<String> =
            (0..50).map(|s| debug_str(&generate_case(&p, s))).collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct cases",
            distinct.len()
        );
    }

    #[test]
    fn generated_plans_validate_and_respect_budget() {
        for n in [3usize, 4, 6, 7] {
            let f = (n - 1) / 3;
            let p = ChaosProfile::standard(n, f.max(1), 2);
            for seed in 0..200 {
                let case = generate_case(&p, seed);
                case.plan
                    .validate(n, 2)
                    .unwrap_or_else(|e| panic!("seed {seed}, n {n}: {e}"));
                assert!(
                    case.suspects().len() <= p.max_victims,
                    "seed {seed}, n {n}: {} victims > budget {}",
                    case.suspects().len(),
                    p.max_victims
                );
                assert!(case.dup_prob <= p.max_dup_prob);
                assert!(case.reorder_prob <= p.max_reorder_prob);
                assert!(case.pre_gst_drop <= p.max_pre_gst_drop);
                assert!(case.gst.0 <= p.max_gst.0);
            }
        }
    }

    #[test]
    fn benign_profile_never_crashes_or_isolates() {
        let p = ChaosProfile::benign(4, 1);
        for seed in 0..200 {
            let case = generate_case(&p, seed);
            assert!(
                case.suspects().is_empty(),
                "seed {seed}: benign case has victims {:?}",
                case.suspects()
            );
        }
    }

    #[test]
    fn recovery_budget_is_drawn_last_and_gated() {
        // enabling the recovery budget must not perturb any earlier draw:
        // steps 1–5 of a case generated with churn enabled are identical to
        // the churn-free case from the same seed, and the churn events are
        // appended strictly after them
        let base = ChaosProfile::standard(4, 1, 2);
        let mut churny = base.clone();
        churny.recovery = RecoveryBudget::full(4, 1);
        for seed in 0..100 {
            let a = generate_case(&base, seed);
            let b = generate_case(&churny, seed);
            assert_eq!(a.gst, b.gst, "seed {seed}: gst perturbed");
            assert_eq!(a.dup_prob, b.dup_prob, "seed {seed}: dup perturbed");
            assert_eq!(
                a.reorder_prob, b.reorder_prob,
                "seed {seed}: reorder perturbed"
            );
            assert_eq!(a.adversaries, b.adversaries, "seed {seed}: adv perturbed");
            assert_eq!(
                &b.plan.events[..a.plan.events.len()],
                &a.plan.events[..],
                "seed {seed}: churn draws reordered earlier fault events"
            );
        }
    }

    #[test]
    fn recovery_churn_cases_validate_and_mix_restart_modes() {
        let p = ChaosProfile::recovery_churn(4, 1, 2);
        let (mut durable, mut amnesia) = (0u32, 0u32);
        for seed in 0..200 {
            let case = generate_case(&p, seed);
            case.plan
                .validate(4, 2)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let recovers: Vec<&FaultEvent> = case
                .plan
                .events
                .iter()
                .filter(|e| matches!(e, FaultEvent::Recover { .. }))
                .collect();
            assert!(
                !recovers.is_empty(),
                "seed {seed}: recovery case drew no churn"
            );
            for ev in recovers {
                if let FaultEvent::Recover { mode, .. } = ev {
                    match mode {
                        RestartMode::Durable => durable += 1,
                        RestartMode::Amnesia => amnesia += 1,
                    }
                }
            }
            if case.plan.events.iter().any(|e| {
                matches!(
                    e,
                    FaultEvent::Recover {
                        mode: RestartMode::Amnesia,
                        ..
                    }
                )
            }) {
                assert!(
                    case.describe().contains("amnesia"),
                    "seed {seed}: describe() omits the restart-mode breakdown"
                );
            }
        }
        assert!(durable > 0, "mode mix never drew durable");
        assert!(amnesia > 0, "mode mix never drew amnesia");
    }

    #[test]
    fn shrink_finds_single_culprit() {
        // failure iff the plan crashes replica 2
        let plan = FaultPlan::none()
            .crash_recover(NodeId::replica(1), SimTime(10), SimTime(20))
            .partition(
                NodeId::replica(0),
                NodeId::replica(3),
                SimTime(0),
                SimTime(5),
            )
            .crash(NodeId::replica(2), SimTime(30))
            .slow_link(NodeId::replica(0), NodeId::replica(1), SimDuration(7))
            .isolate(
                NodeId::replica(3),
                vec![NodeId::replica(0)],
                SimTime(1),
                SimTime(9),
            );
        let culprit = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| matches!(e, FaultEvent::Crash { node, .. } if *node == NodeId::replica(2)))
        };
        let minimal = shrink_plan(&plan, culprit);
        assert_eq!(
            minimal.events,
            vec![FaultEvent::Crash {
                node: NodeId::replica(2),
                at: SimTime(30),
            }]
        );
    }

    #[test]
    fn shrink_keeps_conjunction_of_two_events() {
        // failure needs BOTH the crash of 1 and the partition
        let plan = FaultPlan::none()
            .crash(NodeId::replica(1), SimTime(5))
            .slow_link(NodeId::replica(2), NodeId::replica(3), SimDuration(4))
            .partition(
                NodeId::replica(0),
                NodeId::replica(2),
                SimTime(0),
                SimTime(9),
            )
            .crash_recover(NodeId::replica(0), SimTime(40), SimTime(50));
        let needs_both = |p: &FaultPlan| {
            let has_crash = p.events.iter().any(
                |e| matches!(e, FaultEvent::Crash { node, .. } if *node == NodeId::replica(1)),
            );
            let has_part = p
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::Partition { .. }));
            has_crash && has_part
        };
        let minimal = shrink_plan(&plan, needs_both);
        assert_eq!(minimal.events.len(), 2);
        assert!(needs_both(&minimal));
    }

    #[test]
    fn shrink_of_nonreproducing_failure_returns_plan_unchanged() {
        let plan = FaultPlan::none().crash(NodeId::replica(1), SimTime(5));
        let shrunk = shrink_plan(&plan, |_| false);
        assert_eq!(shrunk, plan);
    }

    #[test]
    fn standard_profile_places_no_adversaries() {
        let p = ChaosProfile::standard(4, 1, 2);
        for seed in 0..100 {
            assert!(generate_case(&p, seed).adversaries.is_empty());
        }
    }

    #[test]
    fn byzantine_profile_attributes_everything_to_adversaries() {
        let p = ChaosProfile::byzantine(4, 1, 2);
        let mut placed = 0;
        for seed in 0..200 {
            let case = generate_case(&p, seed);
            // clean network: no fault events, no knob misbehavior
            assert!(case.plan.events.is_empty(), "seed {seed}: {:?}", case.plan);
            assert_eq!(case.gst, SimTime::ZERO);
            assert_eq!(case.dup_prob, 0.0);
            assert_eq!(case.reorder_prob, 0.0);
            // placements within budget, each spec well-formed
            assert!(case.adversaries.len() <= 1, "seed {seed}");
            for spec in &case.adversaries {
                placed += 1;
                spec.validate(4, 2)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
            // compromised replicas are suspects for the safety auditor
            let suspects = case.suspects();
            for spec in &case.adversaries {
                assert!(suspects.contains(&NodeId::replica(spec.node)));
            }
        }
        assert!(placed > 50, "only {placed} placements in 200 seeds");
    }

    #[test]
    fn leader_targeting_biases_placements_to_replica_zero() {
        let p = ChaosProfile::byzantine(7, 2, 1);
        let mut on_leader = 0;
        let mut elsewhere = 0;
        for seed in 0..300 {
            for spec in generate_case(&p, seed).adversaries {
                if spec.node == 0 {
                    on_leader += 1;
                } else {
                    elsewhere += 1;
                }
            }
        }
        // an unbiased draw over 7 replicas puts ~1/7 on the leader; the
        // bias should push it far above that
        assert!(
            on_leader * 3 > elsewhere,
            "leader {on_leader} vs elsewhere {elsewhere}"
        );
    }

    #[test]
    fn attack_filter_restricts_generated_kinds() {
        let mut p = ChaosProfile::byzantine(4, 1, 1);
        p.adversary = p
            .adversary
            .restrict(&[AttackKind::Equivocate, AttackKind::Censor]);
        for seed in 0..200 {
            for spec in generate_case(&p, seed).adversaries {
                for attack in &spec.attacks {
                    assert!(
                        matches!(attack.kind(), AttackKind::Equivocate | AttackKind::Censor),
                        "seed {seed}: {attack:?}"
                    );
                }
            }
        }
        let disabled = AdversaryBudget::full(4, 1).restrict(&[]);
        assert!(!disabled.enabled());
    }

    #[test]
    fn shrink_case_minimizes_both_axes() {
        let case = ChaosCase {
            seed: 9,
            plan: FaultPlan::none()
                .crash(NodeId::replica(1), SimTime(5))
                .slow_link(NodeId::replica(2), NodeId::replica(3), SimDuration(4)),
            gst: SimTime::ZERO,
            pre_gst_drop: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            adversaries: vec![
                AdversarySpec::new(0, Attack::Equivocate { prob: 1.0 })
                    .and(Attack::Replay { prob: 0.5 }),
                AdversarySpec::new(2, Attack::mute()),
            ],
        };
        // failure needs the crash of r1 AND r0 equivocating — everything
        // else is noise
        let needs = |plan: &FaultPlan, advs: &[AdversarySpec]| {
            let has_crash = plan.events.iter().any(
                |e| matches!(e, FaultEvent::Crash { node, .. } if *node == NodeId::replica(1)),
            );
            let has_equiv = advs.iter().any(|s| {
                s.node == 0
                    && s.attacks
                        .iter()
                        .any(|a| matches!(a, Attack::Equivocate { .. }))
            });
            has_crash && has_equiv
        };
        let (plan, advs) = shrink_case(&case, needs);
        assert_eq!(plan.events.len(), 1);
        assert_eq!(
            advs,
            vec![AdversarySpec::new(0, Attack::Equivocate { prob: 1.0 })]
        );
    }

    /// Regression: ddmin dropped a `Crash` and kept its `Recover`; running
    /// that plan panicked in `Scenario::build_engine` ("scenario has an
    /// invalid fault plan"). Such a candidate now does not reproduce.
    #[test]
    fn shrinking_never_drops_the_crash_a_kept_recover_needs() {
        let r1 = NodeId::replica(1);
        let plan = FaultPlan::none()
            .slow_link(NodeId::replica(2), NodeId::replica(3), SimDuration(4))
            .crash_recover(r1, SimTime(5), SimTime(9))
            .partition(
                NodeId::replica(0),
                NodeId::replica(2),
                SimTime(1),
                SimTime(3),
            );
        // the failure needs only the recovery — and every plan that runs
        let needs_recover = |plan: &FaultPlan| {
            plan.validate(4, 1).expect("only runnable plans are tried");
            let recovers = |e: &FaultEvent| matches!(e, FaultEvent::Recover { .. });
            plan.events.iter().any(recovers)
        };
        let minimal = shrink_plan(&plan, needs_recover);
        assert_eq!(
            minimal,
            FaultPlan::none().crash_recover(r1, SimTime(5), SimTime(9))
        );
        let case = ChaosCase {
            seed: 3,
            plan,
            gst: SimTime::ZERO,
            pre_gst_drop: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            adversaries: vec![AdversarySpec::new(0, Attack::mute())],
        };
        let (shrunk, _) = shrink_case(&case, |plan, _| needs_recover(plan));
        assert_eq!(shrunk, minimal);
    }

    #[test]
    fn shrink_case_of_nonreproducing_failure_is_identity() {
        let case = ChaosCase {
            seed: 1,
            plan: FaultPlan::none().crash(NodeId::replica(1), SimTime(5)),
            gst: SimTime::ZERO,
            pre_gst_drop: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            adversaries: vec![AdversarySpec::new(0, Attack::mute())],
        };
        let (plan, advs) = shrink_case(&case, |_, _| false);
        assert_eq!(plan, case.plan);
        assert_eq!(advs, case.adversaries);
    }

    #[test]
    fn byzantine_generation_is_deterministic() {
        let p = ChaosProfile::byzantine(4, 1, 2);
        for seed in 0..50 {
            assert_eq!(
                debug_str(&generate_case(&p, seed)),
                debug_str(&generate_case(&p, seed)),
            );
        }
    }

    #[test]
    fn check_outcome_flags_missing_acceptances() {
        let log = ObservationLog::default();
        match check_outcome(&log, vec![], 5) {
            Some(CampaignViolation::Liveness { accepted, expected }) => {
                assert_eq!((accepted, expected), (0, 5));
            }
            other => panic!("expected liveness violation, got {other:?}"),
        }
        assert_eq!(check_outcome(&log, vec![], 0), None);
    }
}
