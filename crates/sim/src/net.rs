//! The partially synchronous network model.
//!
//! §2 of the paper fixes the standard assumptions this model implements:
//!
//! * replicas are connected by an **unreliable network** that may drop,
//!   duplicate or delay messages;
//! * communication is **point-to-point** and bi-directional;
//! * there is an unknown **global stabilization time (GST)** after which all
//!   messages between correct replicas arrive within a known bound **Δ**;
//! * a strong adversary may delay communication arbitrarily *before* GST but
//!   cannot break cryptography (that part lives in `bft-crypto`).
//!
//! Delay sampling is seeded and deterministic. Before GST, per-message
//! delays are drawn from `[base, pre_gst_max]` and messages drop with
//! `pre_gst_drop`; after GST, delays are `base + jitter` and never exceed
//! `delta` between correct nodes. Partitions block link sets during an
//! interval; per-link overrides let experiments model slow replicas and
//! geo-distributed latency matrices.
//!
//! Post-GST misbehavior stays within the model: the network may still
//! *duplicate* a message (`dup_prob` — one bounded extra copy, each copy
//! within Δ) and *reorder* messages (`reorder_prob` — a delivery is pushed
//! later within the remaining Δ slack so later messages can overtake it).
//! Both knobs default to zero, and a disabled knob draws no randomness.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::event::NodeId;
use crate::time::{SimDuration, SimTime};

/// Static configuration of the network model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Minimum one-way delay between any two nodes ("the actual network
    /// delay δ" of the responsiveness discussion, dimension E4).
    pub base_delay: SimDuration,
    /// Additional uniform jitter applied after GST.
    pub jitter: SimDuration,
    /// The known synchrony bound Δ: after GST, no message between correct
    /// nodes takes longer than this. Protocol timers are derived from it.
    pub delta: SimDuration,
    /// Global stabilization time. `SimTime::ZERO` models a synchronous run.
    pub gst: SimTime,
    /// Maximum adversarial delay before GST.
    pub pre_gst_max: SimDuration,
    /// Drop probability before GST (after GST the network is reliable
    /// between correct nodes, per the model).
    pub pre_gst_drop: f64,
    /// Post-GST duplication probability: with this probability a delivered
    /// message arrives twice (bounded duplication — at most one extra copy,
    /// both within Δ). Zero disables the knob and consumes no randomness.
    pub dup_prob: f64,
    /// Post-GST reordering probability: with this probability a delivery is
    /// delayed further, uniformly within the remaining Δ slack, so messages
    /// sent later can overtake it. Zero disables the knob and consumes no
    /// randomness.
    pub reorder_prob: f64,
}

impl NetworkConfig {
    /// A synchronous, low-latency LAN-like network: GST = 0, δ = 100 µs,
    /// Δ = 10 ms.
    pub fn lan() -> Self {
        NetworkConfig {
            base_delay: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(20),
            delta: SimDuration::from_millis(10),
            gst: SimTime::ZERO,
            pre_gst_max: SimDuration::from_millis(50),
            pre_gst_drop: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
        }
    }

    /// A geo-replicated WAN-like network: δ = 25 ms, Δ = 500 ms.
    pub fn wan() -> Self {
        NetworkConfig {
            base_delay: SimDuration::from_millis(25),
            jitter: SimDuration::from_millis(5),
            delta: SimDuration::from_millis(500),
            gst: SimTime::ZERO,
            pre_gst_max: SimDuration::from_millis(2_000),
            pre_gst_drop: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
        }
    }

    /// An initially asynchronous network that stabilizes at `gst`.
    pub fn with_gst(mut self, gst: SimTime) -> Self {
        self.gst = gst;
        self
    }

    /// Builder-style: set the base delay.
    pub fn with_base_delay(mut self, d: SimDuration) -> Self {
        self.base_delay = d;
        self
    }

    /// Builder-style: set Δ.
    pub fn with_delta(mut self, delta: SimDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style: set pre-GST drop probability.
    pub fn with_pre_gst_drop(mut self, p: f64) -> Self {
        self.pre_gst_drop = p;
        self
    }

    /// Builder-style: set the post-GST duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Builder-style: set the post-GST reordering probability.
    pub fn with_reordering(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::lan()
    }
}

/// A partition: the given links are cut during `[from, until)`.
#[derive(Debug, Clone)]
struct Partition {
    from: SimTime,
    until: SimTime,
    /// Blocked (sender, receiver) pairs. Bidirectional cuts insert both
    /// directions.
    links: Vec<(NodeId, NodeId)>,
}

/// The runtime network model: samples delays, applies partitions and
/// per-link overrides.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Static configuration.
    pub config: NetworkConfig,
    partitions: Vec<Partition>,
    /// Extra one-way delay per (from, to) link — models slow replicas and
    /// latency matrices.
    link_extra: Vec<(NodeId, NodeId, SimDuration)>,
}

/// The fate of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given delay.
    After(SimDuration),
    /// Deliver twice: the original copy and one duplicate, each after its
    /// own delay (post-GST bounded duplication).
    Duplicated(SimDuration, SimDuration),
    /// Drop silently.
    Dropped,
}

impl NetworkModel {
    /// Build a model from a configuration.
    pub fn new(config: NetworkConfig) -> Self {
        NetworkModel {
            config,
            partitions: Vec::new(),
            link_extra: Vec::new(),
        }
    }

    /// Cut the links between `a` and `b` (both directions) during
    /// `[from, until)`.
    pub fn partition_pair(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        self.partitions.push(Partition {
            from,
            until,
            links: vec![(a, b), (b, a)],
        });
    }

    /// Isolate `node` from every other node during `[from, until)`: all its
    /// incident links are cut. Peers must be listed explicitly (the model
    /// does not know the node population).
    pub fn isolate(
        &mut self,
        node: NodeId,
        peers: impl IntoIterator<Item = NodeId>,
        from: SimTime,
        until: SimTime,
    ) {
        let mut links = Vec::new();
        for p in peers {
            links.push((node, p));
            links.push((p, node));
        }
        self.partitions.push(Partition { from, until, links });
    }

    /// Add a constant extra delay on the `from → to` link (e.g. a slow or
    /// distant replica).
    pub fn slow_link(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
        self.link_extra.push((from, to, extra));
    }

    /// Decide the fate of a message sent at `now` from `from` to `to`.
    /// Deterministic given the RNG state.
    pub fn route(&self, rng: &mut ChaCha8Rng, now: SimTime, from: NodeId, to: NodeId) -> Delivery {
        if from == to {
            // self-sends are local: deliver immediately
            return Delivery::After(SimDuration::ZERO);
        }
        if self.is_cut(now, from, to) {
            return Delivery::Dropped;
        }
        let extra: SimDuration = self
            .link_extra
            .iter()
            .filter(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, d)| *d)
            .fold(SimDuration::ZERO, |a, b| a + b);

        if now < self.config.gst {
            // Asynchronous period: adversarial delays, possible drops.
            if self.config.pre_gst_drop > 0.0 && rng.gen_bool(self.config.pre_gst_drop) {
                return Delivery::Dropped;
            }
            let lo = self.config.base_delay.0;
            let hi = self.config.pre_gst_max.0.max(lo + 1);
            let d = rng.gen_range(lo..hi);
            Delivery::After(SimDuration(d) + extra)
        } else {
            // Post-GST: base + jitter, capped at Δ.
            let mut d =
                (self.config.base_delay.0 + self.sample_jitter(rng)).min(self.config.delta.0);
            // Bounded reordering: push this delivery later within the
            // remaining Δ slack so messages sent afterwards can overtake it.
            // The Δ bound between correct nodes still holds.
            if self.config.reorder_prob > 0.0 && rng.gen_bool(self.config.reorder_prob) {
                let slack = self.config.delta.0.saturating_sub(d);
                if slack > 0 {
                    d += rng.gen_range(0..=slack);
                }
            }
            let first = SimDuration(d) + extra;
            // Bounded duplication: at most one extra copy, independently
            // delayed but also within Δ.
            if self.config.dup_prob > 0.0 && rng.gen_bool(self.config.dup_prob) {
                let d2 =
                    (self.config.base_delay.0 + self.sample_jitter(rng)).min(self.config.delta.0);
                return Delivery::Duplicated(first, SimDuration(d2) + extra);
            }
            Delivery::After(first)
        }
    }

    fn sample_jitter(&self, rng: &mut ChaCha8Rng) -> u64 {
        if self.config.jitter.0 > 0 {
            rng.gen_range(0..=self.config.jitter.0)
        } else {
            0
        }
    }

    fn is_cut(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|p| {
            now >= p.from && now < p.until && p.links.iter().any(|&(f, t)| f == from && t == to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn post_gst_delays_bounded_by_delta() {
        let net = NetworkModel::new(NetworkConfig::lan());
        let mut r = rng();
        for _ in 0..1000 {
            match net.route(
                &mut r,
                SimTime(1_000_000),
                NodeId::replica(0),
                NodeId::replica(1),
            ) {
                Delivery::After(d) => assert!(d <= net.config.delta),
                Delivery::Duplicated(..) => panic!("duplication knob is off"),
                Delivery::Dropped => panic!("post-GST messages are never dropped"),
            }
        }
    }

    #[test]
    fn zero_knobs_never_duplicate_or_reorder() {
        // dup_prob = reorder_prob = 0 must never produce a duplicate and
        // must leave the delay distribution at base + jitter.
        let net = NetworkModel::new(NetworkConfig::lan());
        let mut r = rng();
        for _ in 0..1000 {
            match net.route(&mut r, SimTime(1), NodeId::replica(0), NodeId::replica(1)) {
                Delivery::After(d) => {
                    assert!(d <= net.config.base_delay + net.config.jitter);
                }
                other => panic!("zero knobs produced {other:?}"),
            }
        }
    }

    #[test]
    fn duplication_is_bounded_and_post_gst_only() {
        let cfg = NetworkConfig::lan()
            .with_gst(SimTime(1_000))
            .with_duplication(1.0);
        let net = NetworkModel::new(cfg);
        let mut r = rng();
        // post-GST: every message duplicated exactly once, both copies ≤ Δ
        for _ in 0..200 {
            match net.route(
                &mut r,
                SimTime(2_000),
                NodeId::replica(0),
                NodeId::replica(1),
            ) {
                Delivery::Duplicated(a, b) => {
                    assert!(a <= net.config.delta && b <= net.config.delta);
                }
                other => panic!("dup_prob = 1.0 post-GST produced {other:?}"),
            }
        }
        // pre-GST: the duplication knob does not apply
        for _ in 0..200 {
            assert!(
                !matches!(
                    net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(1)),
                    Delivery::Duplicated(..)
                ),
                "duplication is a post-GST knob"
            );
        }
    }

    #[test]
    fn reordering_stays_within_delta() {
        let cfg = NetworkConfig::lan().with_reordering(1.0);
        let net = NetworkModel::new(cfg);
        let mut r = rng();
        let mut max = SimDuration::ZERO;
        for _ in 0..1000 {
            match net.route(&mut r, SimTime(1), NodeId::replica(0), NodeId::replica(1)) {
                Delivery::After(d) => {
                    assert!(d <= net.config.delta, "reordered delay exceeds Δ");
                    max = max.max(d);
                }
                other => panic!("reorder-only config produced {other:?}"),
            }
        }
        // the knob actually spreads deliveries beyond base + jitter
        assert!(max > net.config.base_delay + net.config.jitter);
    }

    #[test]
    fn misbehavior_knobs_are_deterministic() {
        // two same-seed runs with duplication + reordering enabled sample
        // identical delivery streams; a different seed diverges
        let cfg = NetworkConfig::lan()
            .with_duplication(0.3)
            .with_reordering(0.3);
        let net = NetworkModel::new(cfg);
        let sample = |seed: u64| -> Vec<Delivery> {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            (0..500)
                .map(|_| net.route(&mut r, SimTime(1), NodeId::replica(0), NodeId::replica(1)))
                .collect()
        };
        assert_eq!(sample(11), sample(11));
        assert_ne!(sample(11), sample(12));
        // and the knobs do fire at these probabilities
        assert!(sample(11)
            .iter()
            .any(|d| matches!(d, Delivery::Duplicated(..))));
    }

    #[test]
    fn pre_gst_can_exceed_delta_equivalent_jitter() {
        let cfg = NetworkConfig::lan().with_gst(SimTime(1_000_000_000));
        let net = NetworkModel::new(cfg);
        let mut r = rng();
        let mut max = SimDuration::ZERO;
        for _ in 0..1000 {
            if let Delivery::After(d) =
                net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(1))
            {
                max = max.max(d);
            }
        }
        assert!(max > net.config.base_delay + net.config.jitter);
    }

    #[test]
    fn pre_gst_drops() {
        let cfg = NetworkConfig::lan()
            .with_gst(SimTime(1_000_000_000))
            .with_pre_gst_drop(0.5);
        let net = NetworkModel::new(cfg);
        let mut r = rng();
        let drops = (0..1000)
            .filter(|_| {
                matches!(
                    net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(1)),
                    Delivery::Dropped
                )
            })
            .count();
        assert!(drops > 300 && drops < 700, "drops = {drops}");
    }

    #[test]
    fn partitions_cut_both_directions() {
        let mut net = NetworkModel::new(NetworkConfig::lan());
        net.partition_pair(
            NodeId::replica(0),
            NodeId::replica(1),
            SimTime(100),
            SimTime(200),
        );
        let mut r = rng();
        assert_eq!(
            net.route(&mut r, SimTime(150), NodeId::replica(0), NodeId::replica(1)),
            Delivery::Dropped
        );
        assert_eq!(
            net.route(&mut r, SimTime(150), NodeId::replica(1), NodeId::replica(0)),
            Delivery::Dropped
        );
        // outside the window: delivered
        assert!(matches!(
            net.route(&mut r, SimTime(250), NodeId::replica(0), NodeId::replica(1)),
            Delivery::After(_)
        ));
        // unrelated link unaffected
        assert!(matches!(
            net.route(&mut r, SimTime(150), NodeId::replica(0), NodeId::replica(2)),
            Delivery::After(_)
        ));
    }

    #[test]
    fn isolate_cuts_all_links() {
        let mut net = NetworkModel::new(NetworkConfig::lan());
        let peers: Vec<NodeId> = (1..4).map(NodeId::replica).collect();
        net.isolate(NodeId::replica(0), peers, SimTime(0), SimTime(100));
        let mut r = rng();
        for i in 1..4 {
            assert_eq!(
                net.route(&mut r, SimTime(50), NodeId::replica(0), NodeId::replica(i)),
                Delivery::Dropped
            );
            assert_eq!(
                net.route(&mut r, SimTime(50), NodeId::replica(i), NodeId::replica(0)),
                Delivery::Dropped
            );
        }
    }

    #[test]
    fn slow_link_adds_delay() {
        let mut net = NetworkModel::new(NetworkConfig {
            jitter: SimDuration::ZERO,
            ..NetworkConfig::lan()
        });
        net.slow_link(
            NodeId::replica(0),
            NodeId::replica(1),
            SimDuration::from_millis(5),
        );
        let mut r = rng();
        let d01 = match net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(1)) {
            Delivery::After(d) => d,
            _ => panic!(),
        };
        let d02 = match net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(2)) {
            Delivery::After(d) => d,
            _ => panic!(),
        };
        assert_eq!(d01.0 - d02.0, 5_000_000);
    }

    #[test]
    fn self_send_is_immediate() {
        let net = NetworkModel::new(NetworkConfig::lan());
        let mut r = rng();
        assert_eq!(
            net.route(&mut r, SimTime(0), NodeId::replica(0), NodeId::replica(0)),
            Delivery::After(SimDuration::ZERO)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = NetworkModel::new(NetworkConfig::lan());
        let sample = |seed: u64| -> Vec<Delivery> {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            (0..100)
                .map(|_| net.route(&mut r, SimTime(1), NodeId::replica(0), NodeId::replica(1)))
                .collect()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }
}
