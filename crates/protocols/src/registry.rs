//! The unified protocol registry.
//!
//! Historically every protocol grew its own entry point — `pbft::run(&s,
//! &PbftOptions)`, `hotstuff::run(&s)`, `zyzzyva::run(&s, Variant)`,
//! `kauri::run(&s, fanout)`... — so anything that wanted to enumerate "all
//! protocols" (experiments, the chaos campaign, smoke tests) hard-coded its
//! own list with its own call syntax. This module is the single source of
//! truth instead:
//!
//! * [`ProtocolId`] — one fieldless id per registry entry. Option-carrying
//!   variants that the paper treats as distinct protocols (Zyzzyva5, the
//!   informed-leader Tendermint, read-optimized PBFT, Kauri at its default
//!   fanout) are distinct ids, so iterating [`ProtocolId::ALL`] covers the
//!   full suite with defaults.
//! * [`ProtocolId::run`] — `fn(&Scenario) -> RunOutcome` with each entry's
//!   default options.
//! * [`Protocol`] — the option-carrying form for call sites that need
//!   non-default knobs (Byzantine behaviors, alternate fanouts, sabotage).
//!   `Protocol::from(id)` gives the defaults; [`Protocol::run`] dispatches.
//! * [`registry`] — all entries with metadata: display name, minimum
//!   replica count for a fault budget, and the chaos-campaign tolerance
//!   envelope.

use bft_sim::runner::RunOutcome;
use bft_types::ReplicaId;

use crate::common::Scenario;
use crate::pbft::PbftOptions;
use crate::poe::PoeBehavior;
use crate::prime::PrimeBehavior;
use crate::zyzzyva::ZyzzyvaVariant;
use crate::{
    chain, cheap, fab, fair, hotstuff, kauri, minbft, pbft, poe, prime, qu, sbft, tendermint,
    zyzzyva,
};

/// Canonical identifier of one registry entry (a protocol at its default
/// options). Ordered as the paper's presentation: PBFT first, then the
/// design-choice derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolId {
    /// PBFT (MAC authentication, honest replicas).
    Pbft,
    /// PBFT with read-optimized clients (P6).
    PbftReadOpt,
    /// Zyzzyva speculative execution, classic 3f+1.
    Zyzzyva,
    /// Zyzzyva5: 5f+1 replicas, fast path survives f faults.
    Zyzzyva5,
    /// SBFT-style collector protocol with fast/slow paths.
    Sbft,
    /// HotStuff: rotating responsive leader, threshold QCs.
    HotStuff,
    /// Tendermint-style non-responsive rotation (Δ-wait).
    Tendermint,
    /// Tendermint with the informed-leader optimization.
    TendermintInformed,
    /// PoE-style speculative phase reduction.
    Poe,
    /// CheapBFT-style active/passive replication: 2f+1 actives in view 0,
    /// all replicas and a rotating leader after the view change.
    Cheap,
    /// FaB-style fast two-phase consensus (5f+1).
    Fab,
    /// Prime-style robust preordering.
    Prime,
    /// Themis-style γ-fair ordering (4f+1).
    Fair,
    /// Kauri-style tree dissemination at the default fanout of 2.
    Kauri,
    /// Q/U-style conflict-free quorum protocol (5f+1, no ordering).
    Qu,
    /// MinBFT-style 2f+1 with attested counters.
    MinBft,
    /// Chain-style pipelined protocol.
    Chain,
}

impl ProtocolId {
    /// Every registry entry, in presentation order.
    pub const ALL: [ProtocolId; 17] = [
        ProtocolId::Pbft,
        ProtocolId::PbftReadOpt,
        ProtocolId::Zyzzyva,
        ProtocolId::Zyzzyva5,
        ProtocolId::Sbft,
        ProtocolId::HotStuff,
        ProtocolId::Tendermint,
        ProtocolId::TendermintInformed,
        ProtocolId::Poe,
        ProtocolId::Cheap,
        ProtocolId::Fab,
        ProtocolId::Prime,
        ProtocolId::Fair,
        ProtocolId::Kauri,
        ProtocolId::Qu,
        ProtocolId::MinBft,
        ProtocolId::Chain,
    ];

    /// Short stable name (used in reports and CLI filters).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Pbft => "pbft",
            ProtocolId::PbftReadOpt => "pbft-ro",
            ProtocolId::Zyzzyva => "zyzzyva",
            ProtocolId::Zyzzyva5 => "zyzzyva5",
            ProtocolId::Sbft => "sbft",
            ProtocolId::HotStuff => "hotstuff",
            ProtocolId::Tendermint => "tendermint",
            ProtocolId::TendermintInformed => "tendermint-il",
            ProtocolId::Poe => "poe",
            ProtocolId::Cheap => "cheapbft",
            ProtocolId::Fab => "fab",
            ProtocolId::Prime => "prime",
            ProtocolId::Fair => "fair",
            ProtocolId::Kauri => "kauri",
            ProtocolId::Qu => "qu",
            ProtocolId::MinBft => "minbft",
            ProtocolId::Chain => "chain",
        }
    }

    /// The protocol's minimum replica count for fault budget `f` (the
    /// formula `Scenario::n` is clamped against).
    pub fn min_n(self, f: usize) -> usize {
        match self {
            ProtocolId::Zyzzyva5 | ProtocolId::Fab | ProtocolId::Qu => 5 * f + 1,
            ProtocolId::Fair => 4 * f + 1,
            ProtocolId::MinBft => 2 * f + 1,
            _ => 3 * f + 1,
        }
    }

    /// Run this protocol with its default options — the canonical run
    /// entry point: `run(&Scenario) -> RunOutcome`.
    ///
    /// Everything about the run comes from the scenario, including which
    /// execution backend carries it ([`Scenario::engine`]:
    /// deterministic simulation by default, or the real-time threaded
    /// engine). Protocols with non-default options are run through
    /// [`Protocol::run`], the single dispatch this delegates to; it shares
    /// this exact signature.
    pub fn run(self, scenario: &Scenario) -> RunOutcome {
        Protocol::from(self).run(scenario)
    }

    /// How the protocol executes transactions — selects which semantic
    /// checkers apply (see [`bft_sim::checker`]). Q/U has no global order
    /// and no `Execute` stream; everything else is a replicated state
    /// machine.
    pub fn semantics(self) -> bft_sim::ExecutionSemantics {
        match self {
            ProtocolId::Qu => bft_sim::ExecutionSemantics::VersionedObjects,
            _ => bft_sim::ExecutionSemantics::Replicated,
        }
    }

    /// What the protocol tolerates while staying safe *and* live — the
    /// chaos campaign's generator envelope.
    ///
    /// The `reordering`/`gst_storm` exclusions are campaign *findings*, not
    /// designed-in limits: hammering the suite with the chaos campaign
    /// showed these implementations assume quasi-FIFO links or do not
    /// recover from pre-GST drop storms (see EXPERIMENTS.md, "chaos
    /// campaign"). They are excluded from the generator so the remaining
    /// envelope is enforced in CI, and kept here as an executable record of
    /// the gap.
    pub fn tolerance(self) -> ChaosTolerance {
        match self {
            // SBFT and PoE used to be excluded from reordering and GST
            // storms (SBFT from healed partitions too) for one shared
            // defect: a certificate arriving before its delayed proposal
            // committed an empty placeholder slot, silently skipping the
            // slot's requests and diverging execution state. SBFT's copy
            // was fixed first; PoE's went when the shared execution stage
            // made "no batch, no execution" an invariant. Both measure
            // clean unscoped (SBFT 100 seeds, PoE 300) and carry the full
            // envelope. So do HotStuff and Kauri since the same defect went
            // there too — a commit QC that outruns its proposal waits for
            // the batch. HotStuff's slow-link, reordering and GST-storm
            // exclusions and Kauri's whole list (it tolerated duplication
            // only) measure clean: 120 seeds per class, 400 with all of
            // them on. Zyzzyva and Zyzzyva5 measure clean over 1 000 seeds
            // of the full envelope. Tendermint and Tendermint-IL left their
            // partition, reordering and GST-storm exclusions (46 and 34 of
            // 200 unscoped seeds failed) when they joined the skeleton: a
            // stalled view runs the shared view change, and a replica that
            // lags catches up by a later view's precommit quorum or by
            // state transfer. Both measure clean over 1 000 unscoped seeds.
            // Chain left its partition exclusion, which hid a safety escape
            // (seed 535), when it joined the skeleton: it measures clean
            // over 1 000 unscoped seeds.
            // Campaign findings: order-fair preordering loses a request
            // when reordering rides on crash churn plus a healed partition;
            // a pre-GST drop storm stalls it when it rides on crash churn
            // (1 of 400 seeds; ddmin: r2 crashes at 4.0 ms, recovers at
            // 5.9 ms, crashes again at 10.5 ms under GST 46 ms, drop 0.18).
            ProtocolId::Fair => ChaosTolerance {
                reordering: false,
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            // Campaign finding: 1 of 120 storm-class seeds stalls (0/8) —
            // ddmin: r0 isolated 8.2–28.7 ms plus r1→r0 slowed by 1 ms,
            // under duplication 0.23 and reordering 0.19.
            ProtocolId::Prime => ChaosTolerance {
                gst_storm: false,
                ..ChaosTolerance::full()
            },
            _ => ChaosTolerance::full(),
        }
    }

    /// Which wire-level Byzantine attack classes the protocol stays safe
    /// *and live* under with up to `f` compromised replicas — the Byzantine
    /// campaign's generator envelope (`--byzantine`).
    ///
    /// The exclusions below are measured findings from the unscoped
    /// campaign (`--unscoped --byzantine`, 15 seeds per protocol per attack
    /// class; see EXPERIMENTS.md, "Byzantine tolerance envelopes"). The
    /// safety escapes once listed here (SBFT, PoE, HotStuff, Kauri) were
    /// one defect — executing a slot whose batch had not arrived — and are
    /// repaired. Not all that remain are liveness deficits: unscoped at
    /// 200 seeds, Themis (`fair`) commits two digests at one slot —
    /// `SAFETY` verdicts at Byzantine seeds 44, 68, 105, 130 and 174 and
    /// chaos seed 16 — behind its equivocation, delay, corruption,
    /// reordering and GST-storm flags (ROADMAP 1(a)). Like the
    /// chaos findings, the flags scope the generator so the remaining
    /// envelope is enforced in CI while the gap stays recorded executably.
    pub fn byzantine_tolerance(self) -> ByzantineTolerance {
        match self {
            // Campaign finding: read-optimized clients need 2f+1 matching
            // replies from a read quorum; a compromised replica censoring
            // two peers' links starves that quorum for good (0/8 at seed
            // 59, ddmin-minimal `r0:censor(r2+r3, both)`).
            ProtocolId::PbftReadOpt => ByzantineTolerance {
                censorship: false,
                ..ByzantineTolerance::full()
            },
            // SBFT's former `delay: false` exclusion (DivergentState at
            // seeds 49/50, a lost write at seed 17) is repaired: commit
            // certificates outrunning their delayed pre-prepares no
            // longer commit empty placeholder slots, and retransmissions
            // are only ever answered with the threshold-combined reply
            // (a bare cached result from one replica could vouch for a
            // write no honest quorum had executed). Re-measured clean
            // across the full gallery (60 delay seeds, 15 per other
            // class, 60 mixed).
            // Campaign finding: an active censoring two peers leaves a slot
            // executed by one replica; re-proposed, it is not agreed again
            // by the replica that executed it, so too few prepare it (0/8,
            // seed 16 of 200, ddmin-minimal `r2:censor(r1+r3, both)`).
            ProtocolId::Cheap => ByzantineTolerance {
                censorship: false,
                ..ByzantineTolerance::full()
            },
            // PoE's former `delay: false` / `corruption: false` safety
            // exclusions (DivergentState under strategic holds, and under
            // an equivocate+corrupt stack on the leader) were the same
            // defect SBFT had: a `Certify` outrunning its held or
            // wire-rejected `Propose` executed an empty placeholder slot.
            // The shared execution stage refuses a slot whose batch is
            // not held; re-measured clean with `--unscoped`
            // (delay 300 seeds, corrupt 100, equivocate+corrupt 200,
            // 100 per remaining class, 300 mixed).
            // Campaign findings: Prime's preordering pipeline starves when
            // a compromised replica equivocates its ordering stream, holds
            // it back, or feeds it corrupt (wire-rejected) envelopes; τ7
            // monitoring handles slow leaders but not these.
            ProtocolId::Prime => ByzantineTolerance {
                equivocation: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: through Kauri's aggregation tree a
            // compromised internal node is a single point of dissemination
            // — totally censoring one severs its subtree for good (0/8,
            // ddmin-minimal `r1:censor(all, both)`), and near-timeout holds
            // on the root strand the last batch (7/8). The former SAFETY
            // exclusion for corruption (wire-rejected, so relay loss: an
            // empty placeholder executed in place of the lost proposal) is
            // repaired and measures clean over 400 seeds.
            ProtocolId::Kauri => ByzantineTolerance {
                censorship: false,
                delay: false,
                ..ByzantineTolerance::full()
            },
            // Campaign findings: order-fair batching amplifies equivocated
            // and corrupted ordering streams into retransmission storms
            // (hundreds of thousands of adversarial multicasts, runs ended
            // only by the event budget, 3/8 accepted), and near-timeout
            // holds on the leader strand the last batch (7/8, seed 31).
            ProtocolId::Fair => ByzantineTolerance {
                equivocation: false,
                delay: false,
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Campaign finding: MinBFT's 2f+1 sizing has no spare quorum —
            // losing one replica's stream to wire-rejected corruption
            // already strands requests (3/8 at seed 2).
            ProtocolId::MinBft => ByzantineTolerance {
                corruption: false,
                ..ByzantineTolerance::full()
            },
            // Measured clean across the full gallery: PBFT's view change,
            // Zyzzyva's commit-certificate fallback, FaB's recovery and
            // Q/U's repair loops absorb every attack class within the
            // liveness budget. So does Chain since it joined the skeleton:
            // its private reconfiguration let 8 of 1 000 unscoped seeds
            // fail (`SAFETY` at seeds 97 and 300, a stall at six, five of
            // them `r3:censor(all, out)`); the shared view change measures
            // clean over 1 000. So does HotStuff
            // since a failed view runs the shared view change: its former
            // equivocation exclusion (ddmin `r0:equivocate(p=0.51)+censor(r3,
            // both)`, 2/8 under the private pacemaker) measures clean over
            // 1 000 unscoped seeds. So do Tendermint and Tendermint-IL since
            // they joined the skeleton: their withholding, equivocation,
            // delay and corruption exclusions (64 and 60 of 200 unscoped
            // seeds stalled under the private round clock) measure clean
            // over 1 000 unscoped seeds.
            _ => ByzantineTolerance::full(),
        }
    }

    /// What the protocol tolerates under recovery churn — repeated
    /// crash → recover cycles of up to `f` replicas — the recovery
    /// campaign's generator envelope (`--recovery`).
    ///
    /// `durable` churn replays the chaos campaign's crash/recover fault
    /// with more cycles per victim on a clean network; `amnesia` restarts
    /// additionally wipe the replica back to its last stable checkpoint
    /// on recover. The sixteen entries built on the replica skeleton restart
    /// through its shared stage (reload the checkpoint, rejoin, catch up by
    /// state transfer); Q/U keeps no such path — an amnesia restart would
    /// degrade to a durable one — so `amnesia` is excluded for it
    /// structurally, not as a measured failure.
    ///
    /// Campaign findings (`--unscoped --recovery`, 100 seeds per protocol,
    /// 40-request workloads; see EXPERIMENTS.md, "Recovery campaign"):
    /// every protocol rides out the full churn gallery on a clean network
    /// with zero violations, the skeleton's sixteen with amnesia restarts
    /// (Zyzzyva, Zyzzyva5 and CheapBFT: 200 seeds each, HotStuff 1 000,
    /// Tendermint and Tendermint-IL 200 each, Chain 1 000). So no protocol
    /// carries a measured exclusion.
    pub fn recovery_tolerance(self) -> RecoveryTolerance {
        use ProtocolId::*;
        match self {
            Pbft | PbftReadOpt | Zyzzyva | Zyzzyva5 | Fab | MinBft | Prime | Fair | Kauri
            | Sbft | Poe | Cheap | HotStuff | Tendermint | TendermintInformed | Chain => {
                RecoveryTolerance::full()
            }
            Qu => RecoveryTolerance {
                durable: true,
                amnesia: false,
            },
        }
    }
}

impl std::fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a protocol tolerates (with liveness intact) under the chaos
/// campaign. Safety is always checked; these flags only scope the
/// *generator*, so liveness findings stay within each protocol's claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTolerance {
    /// Crash/recover churn of up to `f` replicas.
    pub crashes: bool,
    /// Healed partitions and transient isolation.
    pub partitions: bool,
    /// Permanently slowed links (which reorder messages across links).
    pub slow_links: bool,
    /// Post-GST in-window message reordering (non-FIFO links).
    pub reordering: bool,
    /// A late GST with a pre-GST drop storm.
    pub gst_storm: bool,
}

impl ChaosTolerance {
    /// Tolerates the full fault gallery.
    pub fn full() -> ChaosTolerance {
        ChaosTolerance {
            crashes: true,
            partitions: true,
            slow_links: true,
            reordering: true,
            gst_storm: true,
        }
    }
}

/// Which wire-level Byzantine attack classes a protocol stays live under
/// with up to `f` compromised replicas (safety is always checked — see
/// [`ProtocolId::byzantine_tolerance`]). These flags scope the Byzantine
/// campaign's [`bft_sim::AdversaryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineTolerance {
    /// Multicasts split into conflicting peer sets.
    pub equivocation: bool,
    /// Selective or total message suppression.
    pub censorship: bool,
    /// Strategic holds at the retransmission-timer scale.
    pub delay: bool,
    /// Stale-message re-injection (valid tags).
    pub replay: bool,
    /// In-flight payload tampering (rejected by wire auth).
    pub corruption: bool,
}

impl ByzantineTolerance {
    /// Tolerates the full attack gallery.
    pub fn full() -> ByzantineTolerance {
        ByzantineTolerance {
            equivocation: true,
            censorship: true,
            delay: true,
            replay: true,
            corruption: true,
        }
    }

    /// The tolerated attack classes as generator kinds (for
    /// [`bft_sim::AdversaryBudget::restrict`]).
    pub fn kinds(&self) -> Vec<bft_sim::AttackKind> {
        use bft_sim::AttackKind;
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
}

/// What a protocol tolerates under recovery churn (repeated
/// crash → recover cycles). These flags scope the recovery campaign's
/// generator ([`bft_sim::RecoveryBudget`]); safety is always checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTolerance {
    /// Repeated durable crash/recover cycles of up to `f` replicas.
    pub durable: bool,
    /// Amnesia restarts: recover with only the last stable checkpoint,
    /// rejoining via state transfer. Requires the protocol to implement
    /// the `on_recover` hook.
    pub amnesia: bool,
}

impl RecoveryTolerance {
    /// Tolerates the full churn gallery, both restart modes.
    pub fn full() -> RecoveryTolerance {
        RecoveryTolerance {
            durable: true,
            amnesia: true,
        }
    }
}

/// A protocol plus its run options: the option-carrying form of
/// [`ProtocolId`] for call sites that need non-default knobs.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// PBFT with full options (auth mode, behaviors, recovery, sabotage).
    Pbft(PbftOptions),
    /// Read-optimized PBFT with full options.
    PbftReadOpt(PbftOptions),
    /// Zyzzyva at either variant.
    Zyzzyva(ZyzzyvaVariant),
    /// SBFT.
    Sbft,
    /// HotStuff.
    HotStuff,
    /// Tendermint, optionally with the informed-leader optimization.
    Tendermint {
        /// Enable the informed-leader optimization.
        informed_leader: bool,
    },
    /// PoE with per-replica behaviors.
    Poe(Vec<(ReplicaId, PoeBehavior)>),
    /// CheapBFT.
    Cheap,
    /// FaB.
    Fab,
    /// Prime with per-replica behaviors.
    Prime(Vec<(ReplicaId, PrimeBehavior)>),
    /// Themis-style fair ordering.
    Fair,
    /// Kauri at a chosen fanout.
    Kauri {
        /// Tree fanout (the registry default is 2).
        fanout: usize,
    },
    /// Q/U.
    Qu,
    /// MinBFT.
    MinBft,
    /// Chain.
    Chain,
}

impl From<ProtocolId> for Protocol {
    fn from(id: ProtocolId) -> Protocol {
        match id {
            ProtocolId::Pbft => Protocol::Pbft(PbftOptions::default()),
            ProtocolId::PbftReadOpt => Protocol::PbftReadOpt(PbftOptions::default()),
            ProtocolId::Zyzzyva => Protocol::Zyzzyva(ZyzzyvaVariant::Classic),
            ProtocolId::Zyzzyva5 => Protocol::Zyzzyva(ZyzzyvaVariant::Five),
            ProtocolId::Sbft => Protocol::Sbft,
            ProtocolId::HotStuff => Protocol::HotStuff,
            ProtocolId::Tendermint => Protocol::Tendermint {
                informed_leader: false,
            },
            ProtocolId::TendermintInformed => Protocol::Tendermint {
                informed_leader: true,
            },
            ProtocolId::Poe => Protocol::Poe(Vec::new()),
            ProtocolId::Cheap => Protocol::Cheap,
            ProtocolId::Fab => Protocol::Fab,
            ProtocolId::Prime => Protocol::Prime(Vec::new()),
            ProtocolId::Fair => Protocol::Fair,
            ProtocolId::Kauri => Protocol::Kauri { fanout: 2 },
            ProtocolId::Qu => Protocol::Qu,
            ProtocolId::MinBft => Protocol::MinBft,
            ProtocolId::Chain => Protocol::Chain,
        }
    }
}

impl Protocol {
    /// The registry id this configuration corresponds to.
    pub fn id(&self) -> ProtocolId {
        match self {
            Protocol::Pbft(_) => ProtocolId::Pbft,
            Protocol::PbftReadOpt(_) => ProtocolId::PbftReadOpt,
            Protocol::Zyzzyva(ZyzzyvaVariant::Classic) => ProtocolId::Zyzzyva,
            Protocol::Zyzzyva(ZyzzyvaVariant::Five) => ProtocolId::Zyzzyva5,
            Protocol::Sbft => ProtocolId::Sbft,
            Protocol::HotStuff => ProtocolId::HotStuff,
            Protocol::Tendermint {
                informed_leader: false,
            } => ProtocolId::Tendermint,
            Protocol::Tendermint {
                informed_leader: true,
            } => ProtocolId::TendermintInformed,
            Protocol::Poe(_) => ProtocolId::Poe,
            Protocol::Cheap => ProtocolId::Cheap,
            Protocol::Fab => ProtocolId::Fab,
            Protocol::Prime(_) => ProtocolId::Prime,
            Protocol::Fair => ProtocolId::Fair,
            Protocol::Kauri { .. } => ProtocolId::Kauri,
            Protocol::Qu => ProtocolId::Qu,
            Protocol::MinBft => ProtocolId::MinBft,
            Protocol::Chain => ProtocolId::Chain,
        }
    }

    /// Run the protocol under a scenario — the one dispatch behind the
    /// canonical `run(&Scenario) -> RunOutcome` signature; use
    /// [`ProtocolId::run`] unless non-default options are needed.
    pub fn run(&self, scenario: &Scenario) -> RunOutcome {
        match self {
            Protocol::Pbft(opts) => pbft::run(scenario, opts),
            Protocol::PbftReadOpt(opts) => pbft::run_with_read_optimization(scenario, opts),
            Protocol::Zyzzyva(variant) => zyzzyva::run(scenario, *variant),
            Protocol::Sbft => sbft::run(scenario),
            Protocol::HotStuff => hotstuff::run(scenario),
            Protocol::Tendermint { informed_leader } => tendermint::run(scenario, *informed_leader),
            Protocol::Poe(behaviors) => poe::run(scenario, behaviors),
            Protocol::Cheap => cheap::run(scenario),
            Protocol::Fab => fab::run(scenario),
            Protocol::Prime(behaviors) => prime::run(scenario, behaviors),
            Protocol::Fair => fair::run(scenario),
            Protocol::Kauri { fanout } => kauri::run(scenario, *fanout),
            Protocol::Qu => qu::run(scenario),
            Protocol::MinBft => minbft::run(scenario),
            Protocol::Chain => chain::run(scenario),
        }
    }
}

/// One registry entry: id plus the metadata enumerating callers need.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolEntry {
    /// The protocol's id (defaults obtainable via `Protocol::from`).
    pub id: ProtocolId,
    /// Short stable display name.
    pub name: &'static str,
    /// Chaos-campaign tolerance envelope.
    pub tolerance: ChaosTolerance,
    /// Byzantine-campaign tolerance envelope.
    pub byz_tolerance: ByzantineTolerance,
    /// Recovery-campaign tolerance envelope.
    pub rec_tolerance: RecoveryTolerance,
}

/// The full protocol registry: experiments, smoke tests and the chaos
/// campaign all enumerate this, so they agree on what "all protocols"
/// means.
pub fn registry() -> Vec<ProtocolEntry> {
    ProtocolId::ALL
        .iter()
        .map(|&id| ProtocolEntry {
            id,
            name: id.name(),
            tolerance: id.tolerance(),
            byz_tolerance: id.byzantine_tolerance(),
            rec_tolerance: id.recovery_tolerance(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::SafetyAuditor;

    #[test]
    fn ids_round_trip_through_protocol() {
        for id in ProtocolId::ALL {
            assert_eq!(Protocol::from(id).id(), id, "{id} does not round-trip");
        }
    }

    #[test]
    fn registry_covers_all_ids_with_unique_names() {
        let entries = registry();
        assert_eq!(entries.len(), ProtocolId::ALL.len());
        let names: std::collections::BTreeSet<&str> = entries.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), entries.len(), "duplicate registry names");
    }

    #[test]
    fn every_entry_runs_and_stays_safe() {
        let scenario = Scenario::small(1).with_load(1, 5);
        for entry in registry() {
            let out = entry.id.run(&scenario);
            SafetyAuditor::all_correct().assert_safe(&out.log);
            assert_eq!(
                out.log.accepted(),
                5,
                "{} did not complete the workload",
                entry.name
            );
        }
    }
}
