//! Protocol-agnostic Byzantine adversaries at the wire-envelope boundary.
//!
//! The paper's premise is transaction ordering on *untrusted*
//! infrastructure, so corrupted replicas must be a platform-level concern,
//! not a per-protocol one. An [`AdversarySpec`] compromises one replica and
//! installs a stack of [`Attack`]s that operate on its **outgoing wire
//! envelopes** (and, for inbound censorship, on envelopes addressed to it)
//! inside the simulator's single send/deliver chokepoint. Because the
//! attacks see only opaque payloads, every protocol in the registry runs
//! under the same adversary schedules with zero protocol-specific code.
//!
//! The gallery mirrors the classic BFT attacker:
//!
//! * **Equivocation** — a multicast is split into disjoint peer sets; one
//!   set receives the genuine payload, the other a stale substitute from
//!   the capture buffer (silence when nothing was captured yet).
//! * **Censorship** — messages to (and optionally from) chosen victims are
//!   dropped. An empty victim list censors *every* peer: the mute replica.
//! * **Strategic delay** — outgoing messages are held for extra virtual
//!   time, tuned to land just before retransmission timers fire.
//! * **Replay** — stale captured payloads are re-injected alongside
//!   genuine sends. Replayed envelopes carry a *valid* wire tag (the
//!   compromised node genuinely authored them), so defeating replay is the
//!   receiving protocol's job (dedup), not the authenticator's.
//! * **Corruption** — payload bytes are flipped in flight. The wire-auth
//!   layer ([`WireAuth`]) must reject these at delivery, which turns
//!   `bft-crypto` verification into an audited invariant: the run's
//!   `auth_rejected` counter must match what the adversary corrupted, and
//!   no tampered payload ever reaches an actor.
//!
//! Attack randomness draws from the simulation's seeded RNG, so runs stay
//! deterministic; a simulation with no adversaries installed draws no
//! adversary randomness at all.

use bft_crypto::digest_of;
use bft_crypto::hmac::{mac, verify_mac, Mac, MacKey};
use serde::Serialize;

use crate::event::NodeId;
use crate::time::SimDuration;

/// Capture-buffer bound: how many of its own past payloads a compromised
/// node keeps as replay/equivocation material.
pub const CAPTURE_CAP: usize = 64;

/// One wire-level attack a compromised replica mounts.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Split each multicast into disjoint peer sets: a random prefix gets
    /// the genuine payload, the rest a stale substitute (or silence).
    Equivocate {
        /// Probability a given multicast is split.
        prob: f64,
    },
    /// Drop traffic involving the victims. Empty `victims` = every peer.
    Censor {
        /// The censored peers (replicas or clients).
        victims: Vec<NodeId>,
        /// Drop outgoing messages addressed to a victim.
        outbound: bool,
        /// Refuse incoming messages sent by a victim.
        inbound: bool,
    },
    /// Hold outgoing messages for `hold` extra virtual time.
    Delay {
        /// The extra hold (strategic delays sit just under peer timeouts).
        hold: SimDuration,
        /// Probability a given outgoing message is held.
        prob: f64,
    },
    /// Re-inject a stale captured payload alongside a genuine send.
    Replay {
        /// Probability a given outgoing message is shadowed by a replay.
        prob: f64,
    },
    /// Flip payload bytes in flight; wire auth must reject the envelope.
    Corrupt {
        /// Probability a given outgoing message is corrupted.
        prob: f64,
    },
}

impl Attack {
    /// The mute replica: censor every outgoing message to every peer.
    pub fn mute() -> Attack {
        Attack::Censor {
            victims: Vec::new(),
            outbound: true,
            inbound: false,
        }
    }

    /// This attack's class (the generator/filter vocabulary).
    pub fn kind(&self) -> AttackKind {
        match self {
            Attack::Equivocate { .. } => AttackKind::Equivocate,
            Attack::Censor { .. } => AttackKind::Censor,
            Attack::Delay { .. } => AttackKind::Delay,
            Attack::Replay { .. } => AttackKind::Replay,
            Attack::Corrupt { .. } => AttackKind::Corrupt,
        }
    }

    /// Compact rendering for campaign reports.
    fn describe(&self) -> String {
        match self {
            Attack::Equivocate { prob } => format!("equivocate(p={prob:.2})"),
            Attack::Censor {
                victims,
                outbound,
                inbound,
            } => {
                let dir = match (outbound, inbound) {
                    (true, true) => "both",
                    (true, false) => "out",
                    (false, true) => "in",
                    (false, false) => "none",
                };
                if victims.is_empty() {
                    format!("censor(all, {dir})")
                } else {
                    let vs: Vec<String> = victims.iter().map(|v| v.to_string()).collect();
                    format!("censor({}, {dir})", vs.join("+"))
                }
            }
            Attack::Delay { hold, prob } => {
                format!("delay({}us, p={prob:.2})", hold.0 / 1_000)
            }
            Attack::Replay { prob } => format!("replay(p={prob:.2})"),
            Attack::Corrupt { prob } => format!("corrupt(p={prob:.2})"),
        }
    }
}

/// The attack classes, as a closed vocabulary for generator budgets and
/// CLI filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// Conflicting payloads to disjoint peer sets.
    Equivocate,
    /// Selective message suppression.
    Censor,
    /// Strategic message holding.
    Delay,
    /// Stale-message re-injection.
    Replay,
    /// In-flight payload tampering.
    Corrupt,
}

impl AttackKind {
    /// Every attack class, in generator draw order.
    pub const ALL: [AttackKind; 5] = [
        AttackKind::Equivocate,
        AttackKind::Censor,
        AttackKind::Delay,
        AttackKind::Replay,
        AttackKind::Corrupt,
    ];

    /// Stable lowercase name (the CLI filter vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Equivocate => "equivocate",
            AttackKind::Censor => "censor",
            AttackKind::Delay => "delay",
            AttackKind::Replay => "replay",
            AttackKind::Corrupt => "corrupt",
        }
    }

    /// Parse a lowercase class name.
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A compromised replica and the attack stack it mounts. Attacks compose:
/// a node can, say, equivocate *and* strategically delay what it does send.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    /// The compromised replica.
    pub node: u32,
    /// The attacks, applied in order to each outgoing envelope.
    pub attacks: Vec<Attack>,
}

impl AdversarySpec {
    /// Compromise `node` with a single attack.
    pub fn new(node: u32, attack: Attack) -> AdversarySpec {
        AdversarySpec {
            node,
            attacks: vec![attack],
        }
    }

    /// Add another attack to the stack.
    pub fn and(mut self, attack: Attack) -> AdversarySpec {
        self.attacks.push(attack);
        self
    }

    /// One-line human summary for campaign reports.
    pub fn describe(&self) -> String {
        let attacks: Vec<String> = self.attacks.iter().map(|a| a.describe()).collect();
        format!("r{}:{}", self.node, attacks.join("+"))
    }

    /// Check the spec against the replica population: the compromised node
    /// and every named victim must exist, probabilities must be in
    /// `[0, 1]`, and the attack stack must not be empty (a vacuous
    /// adversary would silently test nothing).
    pub fn validate(&self, n_replicas: usize, n_clients: u64) -> Result<(), AdversaryError> {
        if (self.node as usize) >= n_replicas {
            return Err(AdversaryError::UnknownNode {
                node: NodeId::replica(self.node),
            });
        }
        if self.attacks.is_empty() {
            return Err(AdversaryError::NoAttacks { node: self.node });
        }
        let node_ok = |node: &NodeId| match node {
            NodeId::Replica(r) => (r.0 as usize) < n_replicas,
            NodeId::Client(c) => c.0 < n_clients,
        };
        for attack in &self.attacks {
            let prob = match attack {
                Attack::Equivocate { prob }
                | Attack::Delay { prob, .. }
                | Attack::Replay { prob }
                | Attack::Corrupt { prob } => Some(*prob),
                Attack::Censor { victims, .. } => {
                    if let Some(v) = victims.iter().find(|v| !node_ok(v)) {
                        return Err(AdversaryError::UnknownNode { node: *v });
                    }
                    if victims.contains(&NodeId::replica(self.node)) {
                        return Err(AdversaryError::SelfVictim { node: self.node });
                    }
                    None
                }
            };
            if let Some(p) = prob {
                if !(0.0..=1.0).contains(&p) {
                    return Err(AdversaryError::BadProbability {
                        node: self.node,
                        prob: p,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Why an [`AdversarySpec`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryError {
    /// The compromised node or a censorship victim is outside the
    /// population.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
    /// The spec carries no attacks.
    NoAttacks {
        /// The vacuously compromised replica.
        node: u32,
    },
    /// A censorship victim list names the compromised node itself.
    SelfVictim {
        /// The self-censoring replica.
        node: u32,
    },
    /// An attack probability is outside `[0, 1]`.
    BadProbability {
        /// The compromised replica.
        node: u32,
        /// The offending probability.
        prob: f64,
    },
}

impl std::fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdversaryError::UnknownNode { node } => {
                write!(f, "adversary names unknown node {node:?}")
            }
            AdversaryError::NoAttacks { node } => {
                write!(f, "adversary on replica {node} has no attacks")
            }
            AdversaryError::SelfVictim { node } => {
                write!(f, "adversary on replica {node} censors itself")
            }
            AdversaryError::BadProbability { node, prob } => {
                write!(
                    f,
                    "adversary on replica {node} has probability {prob} outside [0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for AdversaryError {}

/// The simulator's wire-authentication layer.
///
/// Honest in-process deliveries are implicitly trusted (no tag, no cost):
/// the simulator *is* the wire, and honest senders by construction put
/// genuine bytes on it. Attack-produced envelopes — replays, equivocation
/// substitutes, corruptions — carry an explicit HMAC tag over the
/// payload's digest (its canonical encoding streamed into SHA-256, no
/// buffer) under the (sender, receiver) channel key, verified at delivery. Replayed payloads authenticate (the compromised
/// node authored them under its own key); corrupted payloads must not.
#[derive(Debug, Clone)]
pub struct WireAuth {
    master: [u8; 32],
}

impl WireAuth {
    /// Derive the cluster's wire-auth master secret from the simulation
    /// seed (domain-separated from every other seed consumer).
    pub fn from_seed(seed: u64) -> WireAuth {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&seed.to_le_bytes());
        master[8..16].copy_from_slice(b"WIREAUTH");
        WireAuth { master }
    }

    fn party(node: NodeId) -> u64 {
        // Mirrors bft-crypto's PartyId convention: replicas in the low
        // range, clients offset far above any plausible replica count.
        match node {
            NodeId::Replica(r) => r.0 as u64,
            NodeId::Client(c) => (1u64 << 32) + c.0,
        }
    }

    /// The (ordered) channel key between two nodes.
    pub fn key(&self, from: NodeId, to: NodeId) -> MacKey {
        MacKey::derive(&self.master, Self::party(from), Self::party(to))
    }

    /// Tag a payload for the `from → to` channel.
    pub fn tag<M: Serialize>(&self, from: NodeId, to: NodeId, msg: &M) -> Mac {
        mac(&self.key(from, to), &digest_of(msg).0)
    }

    /// A tag over an in-flight-tampered digest: models payload corruption.
    /// The receiver verifies against the *actual* payload's digest, so this
    /// tag must fail verification.
    pub fn tamper_tag<M: Serialize>(&self, from: NodeId, to: NodeId, msg: &M) -> Mac {
        let mut digest = digest_of(msg).0;
        digest[0] ^= 0xFF;
        mac(&self.key(from, to), &digest)
    }

    /// Verify an envelope tag against the payload actually delivered.
    pub fn verify<M: Serialize>(&self, from: NodeId, to: NodeId, msg: &M, tag: &Mac) -> bool {
        verify_mac(&self.key(from, to), &digest_of(msg).0, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_well_formed_specs() {
        let spec = AdversarySpec::new(0, Attack::Equivocate { prob: 0.5 })
            .and(Attack::Censor {
                victims: vec![NodeId::replica(1), NodeId::client(0)],
                outbound: true,
                inbound: true,
            })
            .and(Attack::Delay {
                hold: SimDuration::from_millis(3),
                prob: 1.0,
            })
            .and(Attack::Replay { prob: 0.3 })
            .and(Attack::Corrupt { prob: 1.0 });
        assert_eq!(spec.validate(4, 1), Ok(()));
        assert_eq!(AdversarySpec::new(3, Attack::mute()).validate(4, 0), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        assert!(matches!(
            AdversarySpec::new(4, Attack::mute()).validate(4, 0),
            Err(AdversaryError::UnknownNode { .. })
        ));
        assert_eq!(
            AdversarySpec {
                node: 0,
                attacks: vec![]
            }
            .validate(4, 0),
            Err(AdversaryError::NoAttacks { node: 0 })
        );
        let self_censor = AdversarySpec::new(
            1,
            Attack::Censor {
                victims: vec![NodeId::replica(1)],
                outbound: true,
                inbound: false,
            },
        );
        assert_eq!(
            self_censor.validate(4, 0),
            Err(AdversaryError::SelfVictim { node: 1 })
        );
        let ghost_victim = AdversarySpec::new(
            0,
            Attack::Censor {
                victims: vec![NodeId::client(5)],
                outbound: true,
                inbound: false,
            },
        );
        assert!(matches!(
            ghost_victim.validate(4, 2),
            Err(AdversaryError::UnknownNode { .. })
        ));
        assert!(matches!(
            AdversarySpec::new(0, Attack::Replay { prob: 1.5 }).validate(4, 0),
            Err(AdversaryError::BadProbability { .. })
        ));
    }

    #[test]
    fn attack_kind_names_round_trip() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AttackKind::parse("nonsense"), None);
    }

    #[test]
    fn wire_auth_accepts_genuine_and_rejects_tampered_or_forged() {
        let auth = WireAuth::from_seed(7);
        let from = NodeId::replica(0);
        let to = NodeId::replica(2);
        let msg = 42u64;
        let tag = auth.tag(from, to, &msg);
        // genuine: verifies (replayed stale payloads ride this path)
        assert!(auth.verify(from, to, &msg, &tag));
        // tampered payload: the tag no longer matches the delivered bytes
        assert!(!auth.verify(from, to, &43u64, &tag));
        // the corruption tag never matches the genuine payload
        let bad = auth.tamper_tag(from, to, &msg);
        assert!(!auth.verify(from, to, &msg, &bad));
        // forged channel: a tag minted for another receiver does not carry
        assert!(!auth.verify(from, NodeId::replica(1), &msg, &tag));
        // forged sender identity fails the same way
        assert!(!auth.verify(NodeId::replica(3), to, &msg, &tag));
        // a different cluster secret (different seed) shares no channels
        let other = WireAuth::from_seed(8);
        assert!(!other.verify(from, to, &msg, &tag));
    }

    #[test]
    fn describe_is_compact_and_stable() {
        let spec = AdversarySpec::new(2, Attack::Equivocate { prob: 0.75 }).and(Attack::Censor {
            victims: vec![NodeId::replica(0)],
            outbound: true,
            inbound: true,
        });
        assert_eq!(spec.describe(), "r2:equivocate(p=0.75)+censor(r0, both)");
        assert_eq!(
            AdversarySpec::new(1, Attack::mute()).describe(),
            "r1:censor(all, out)"
        );
    }
}
