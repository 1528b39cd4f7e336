//! Run metrics: message counts, byte counts, latency statistics.
//!
//! These are the raw measurements the experiment harness aggregates into the
//! paper's trade-off tables: message complexity by topology (E2), bytes by
//! authentication mode (E3), per-replica load distribution (Q2), commit
//! latency by number of phases (P2), and so on.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::NodeId;
use crate::time::SimDuration;

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages sent by this node.
    pub msgs_sent: u64,
    /// Bytes sent by this node (wire-size estimates).
    pub bytes_sent: u64,
    /// Messages delivered to this node.
    pub msgs_received: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// Virtual CPU time this node charged (crypto + execution costs).
    pub cpu: SimDuration,
}

/// Metrics for one simulation run.
///
/// Replica counters live in a dense `Vec` indexed by replica id — the hot
/// path (`on_send`/`on_deliver` per message) is an array index instead of a
/// `BTreeMap` walk. Clients are few and sparse, so they stay in a small map
/// keyed by client id.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    replicas: Vec<NodeCounters>,
    clients: BTreeMap<u64, NodeCounters>,
    /// Messages dropped by the network (pre-GST loss, partitions).
    pub dropped: u64,
    /// Messages duplicated by the network (post-GST duplication knob).
    pub duplicated: u64,
    /// Messages suppressed because the topology forbids the link.
    pub topology_blocked: u64,
    /// Messages suppressed by a compromised node's censorship attack
    /// (outbound drops plus inbound refusals).
    pub adv_censored: u64,
    /// Outgoing messages held back by a strategic-delay adversary.
    pub adv_delayed: u64,
    /// Stale captured payloads re-injected by replay adversaries.
    pub adv_replayed: u64,
    /// Multicasts split into conflicting peer sets by equivocation.
    pub adv_equivocated: u64,
    /// Payloads corrupted in flight by compromised senders.
    pub adv_corrupted: u64,
    /// Adversary-tagged envelopes rejected by wire-auth verification at
    /// delivery. The audited crypto invariant: every corrupted payload
    /// lands here, and none of them ever reaches an actor.
    pub auth_rejected: u64,
    /// Adversary-tagged envelopes whose wire auth verified (replayed and
    /// equivocation-substitute payloads are genuinely authored, so they
    /// pass).
    pub auth_verified: u64,
    /// Nodes restarted by a scheduled [`FaultEvent::Recover`] (either
    /// restart mode).
    ///
    /// [`FaultEvent::Recover`]: crate::faults::FaultEvent::Recover
    pub rec_restarts: u64,
    /// Snapshots installed from a peer during catch-up (state transfers
    /// completed on the receiving side).
    pub rec_state_transfers: u64,
    /// Catch-up requests re-sent after a timeout (retries with backoff).
    pub rec_retries: u64,
    /// Catch-up rounds started by rejoining replicas.
    pub rec_catchup_events: u64,
    /// Wall-clock duration of the run in nanoseconds. Zero on the sim
    /// engine (virtual time only).
    pub wall_elapsed_ns: u64,
    /// OS threads the threaded engine ran (replicas + clients). Zero on
    /// the sim engine.
    pub wall_threads: u64,
}

impl Metrics {
    /// Flush one event handler's batched accounting in a single counter
    /// access: CPU charge, sends, and deliveries all land on `node`. Sums
    /// are identical to the unbatched `on_cpu`/`on_send`/`on_deliver`
    /// sequence; callers skip the call entirely when nothing was recorded,
    /// matching which nodes the unbatched path would have touched.
    #[allow(clippy::too_many_arguments)]
    pub fn on_event_flush(
        &mut self,
        node: NodeId,
        cpu: SimDuration,
        sent_msgs: u64,
        sent_bytes: u64,
        recv_msgs: u64,
        recv_bytes: u64,
    ) {
        let c = self.counters_mut(node);
        c.cpu += cpu;
        c.msgs_sent += sent_msgs;
        c.bytes_sent += sent_bytes;
        c.msgs_received += recv_msgs;
        c.bytes_received += recv_bytes;
    }

    #[inline]
    fn counters_mut(&mut self, node: NodeId) -> &mut NodeCounters {
        match node {
            NodeId::Replica(r) => {
                let i = r.0 as usize;
                if i >= self.replicas.len() {
                    self.replicas.resize(i + 1, NodeCounters::default());
                }
                &mut self.replicas[i]
            }
            NodeId::Client(c) => self.clients.entry(c.0).or_default(),
        }
    }

    /// Record a send.
    pub fn on_send(&mut self, from: NodeId, bytes: usize) {
        let c = self.counters_mut(from);
        c.msgs_sent += 1;
        c.bytes_sent += bytes as u64;
    }

    /// Record a batch of sends in one counter update (the per-handler flush
    /// path: totals are identical to `msgs` individual `on_send` calls).
    pub fn on_send_n(&mut self, from: NodeId, msgs: u64, bytes: u64) {
        let c = self.counters_mut(from);
        c.msgs_sent += msgs;
        c.bytes_sent += bytes;
    }

    /// Record a delivery.
    pub fn on_deliver(&mut self, to: NodeId, bytes: usize) {
        let c = self.counters_mut(to);
        c.msgs_received += 1;
        c.bytes_received += bytes as u64;
    }

    /// Record charged CPU time.
    pub fn on_cpu(&mut self, node: NodeId, d: SimDuration) {
        self.counters_mut(node).cpu += d;
    }

    /// Counters for one node.
    pub fn node(&self, node: NodeId) -> NodeCounters {
        match node {
            NodeId::Replica(r) => self.replicas.get(r.0 as usize).copied().unwrap_or_default(),
            NodeId::Client(c) => self.clients.get(&c.0).copied().unwrap_or_default(),
        }
    }

    /// All nodes with non-default counters, replicas first then clients,
    /// each in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeCounters)> {
        let default = NodeCounters::default();
        self.replicas
            .iter()
            .enumerate()
            .filter(move |(_, c)| **c != default)
            .map(|(i, c)| (NodeId::replica(i as u32), c))
            .chain(self.clients.iter().map(|(id, c)| (NodeId::client(*id), c)))
    }

    /// The run counters by name, in declaration order: every field but the
    /// per-node counters. The destructuring is exhaustive, so a counter
    /// added to `Metrics` cannot be left out of the semantic run record.
    pub(crate) fn run_counters(&self) -> [(&'static str, u64); 16] {
        let Metrics {
            replicas: _,
            clients: _,
            dropped,
            duplicated,
            topology_blocked,
            adv_censored,
            adv_delayed,
            adv_replayed,
            adv_equivocated,
            adv_corrupted,
            auth_rejected,
            auth_verified,
            rec_restarts,
            rec_state_transfers,
            rec_retries,
            rec_catchup_events,
            wall_elapsed_ns,
            wall_threads,
        } = *self;
        [
            ("dropped", dropped),
            ("duplicated", duplicated),
            ("topology_blocked", topology_blocked),
            ("adv_censored", adv_censored),
            ("adv_delayed", adv_delayed),
            ("adv_replayed", adv_replayed),
            ("adv_equivocated", adv_equivocated),
            ("adv_corrupted", adv_corrupted),
            ("auth_rejected", auth_rejected),
            ("auth_verified", auth_verified),
            ("rec_restarts", rec_restarts),
            ("rec_state_transfers", rec_state_transfers),
            ("rec_retries", rec_retries),
            ("rec_catchup_events", rec_catchup_events),
            ("wall_elapsed_ns", wall_elapsed_ns),
            ("wall_threads", wall_threads),
        ]
    }

    /// Total messages sent by replicas (the "message complexity" metric).
    pub fn replica_msgs_sent(&self) -> u64 {
        self.replicas.iter().map(|c| c.msgs_sent).sum()
    }

    /// Total bytes sent by replicas.
    pub fn replica_bytes_sent(&self) -> u64 {
        self.replicas.iter().map(|c| c.bytes_sent).sum()
    }

    /// Load-imbalance ratio across replicas: `max(msgs_sent + msgs_received)
    /// / mean(...)`. 1.0 = perfectly balanced; the leader bottleneck of
    /// dimension Q2 shows up as values ≫ 1. Replicas with no traffic at all
    /// are excluded.
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<u64> = self
            .replicas
            .iter()
            .filter(|c| **c != NodeCounters::default())
            .map(|c| c.msgs_sent + c.msgs_received)
            .collect();
        if loads.is_empty() {
            return 1.0;
        }
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Order statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median (p50).
    pub p50: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl LatencyStats {
    /// Compute stats from samples. Returns `None` for an empty set.
    pub fn from_samples(mut samples: Vec<SimDuration>) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u64 = samples.iter().map(|d| d.0).sum();
        let pct = |p: f64| -> SimDuration {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx]
        };
        Some(LatencyStats {
            count,
            mean: SimDuration(sum / count as u64),
            p50: pct(0.50),
            p99: pct(0.99),
            max: *samples.last().unwrap(),
        })
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        let a = NodeId::replica(0);
        m.on_send(a, 100);
        m.on_send(a, 50);
        m.on_deliver(a, 30);
        m.on_cpu(a, SimDuration(500));
        let c = m.node(a);
        assert_eq!(c.msgs_sent, 2);
        assert_eq!(c.bytes_sent, 150);
        assert_eq!(c.msgs_received, 1);
        assert_eq!(c.bytes_received, 30);
        assert_eq!(c.cpu, SimDuration(500));
    }

    #[test]
    fn replica_totals_exclude_clients() {
        let mut m = Metrics::default();
        m.on_send(NodeId::replica(0), 10);
        m.on_send(NodeId::client(0), 99);
        assert_eq!(m.replica_msgs_sent(), 1);
        assert_eq!(m.replica_bytes_sent(), 10);
    }

    #[test]
    fn imbalance_detects_leader_bottleneck() {
        let mut m = Metrics::default();
        // leader sends 90, three backups send 10 each
        for _ in 0..90 {
            m.on_send(NodeId::replica(0), 1);
        }
        for r in 1..4 {
            for _ in 0..10 {
                m.on_send(NodeId::replica(r), 1);
            }
        }
        let imb = m.load_imbalance();
        assert!(imb > 2.5, "imbalance = {imb}");
    }

    #[test]
    fn imbalance_of_uniform_load_is_one() {
        let mut m = Metrics::default();
        for r in 0..4 {
            for _ in 0..10 {
                m.on_send(NodeId::replica(r), 1);
            }
        }
        assert!((m.load_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats() {
        let samples: Vec<SimDuration> = (1..=100).map(SimDuration).collect();
        let s = LatencyStats::from_samples(samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, SimDuration(50)); // (1+..+100)/100 = 50.5 → integer div
        assert_eq!(s.p50, SimDuration(51));
        assert_eq!(s.p99, SimDuration(99));
        assert_eq!(s.max, SimDuration(100));
        assert!(LatencyStats::from_samples(vec![]).is_none());
    }
}
