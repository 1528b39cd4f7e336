//! Declarative fault plans.
//!
//! Experiments describe failure scenarios as data: crashes, recoveries,
//! partitions and slow links with their schedules. [`FaultPlan::apply`]
//! installs the plan into a simulation. These are the *benign* faults of
//! the paper's network adversary; corrupted replicas are modeled by the
//! wire-envelope adversary layer in [`crate::adversary`] (with
//! content-aware misbehavior staying in `bft-protocols` as malicious
//! actor variants).

use bft_types::WireSize;

use crate::event::NodeId;
use crate::runner::Simulation;
use crate::time::{SimDuration, SimTime};

/// What state a recovering node wakes up with — the restart semantics of a
/// [`FaultEvent::Recover`].
///
/// The distinction matters because "the node comes back" hides two very
/// different failure models: a process restart on durable storage (all
/// in-memory protocol state survives, only time passed) versus an
/// amnesia crash (everything volatile is gone; the node restarts from its
/// last *stable checkpoint* and must rejoin via state transfer). Protocols
/// receive the mode through [`Actor::on_recover`](crate::Actor::on_recover)
/// and implement the matching rejoin discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestartMode {
    /// The node resumes with the state it crashed with (durable storage /
    /// process pause). This is the historical behavior and the default.
    #[default]
    Durable,
    /// The node loses all volatile state: it reloads only its last stable
    /// checkpoint and rejoins through the state-transfer/catch-up path.
    Amnesia,
}

impl RestartMode {
    /// Short stable label for reports ("durable" / "amnesia").
    pub fn label(self) -> &'static str {
        match self {
            RestartMode::Durable => "durable",
            RestartMode::Amnesia => "amnesia",
        }
    }

    /// The marker a node leaves when it restarts in this mode.
    pub fn marker(self) -> &'static str {
        match self {
            RestartMode::Durable => "durable-restart",
            RestartMode::Amnesia => "amnesia-restart",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Crash a node at a time (it silently stops).
    Crash {
        /// The victim.
        node: NodeId,
        /// When it crashes.
        at: SimTime,
    },
    /// Recover a previously crashed node.
    Recover {
        /// The node rejoining.
        node: NodeId,
        /// When it rejoins.
        at: SimTime,
        /// What state survives the restart.
        mode: RestartMode,
    },
    /// Cut all links between two nodes for an interval.
    Partition {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Cut start.
        from: SimTime,
        /// Cut end.
        until: SimTime,
    },
    /// Isolate one node from a set of peers for an interval ("in-dark"
    /// replica scenarios, dimension P4).
    Isolate {
        /// The isolated node.
        node: NodeId,
        /// Peers it cannot reach.
        peers: Vec<NodeId>,
        /// Cut start.
        from: SimTime,
        /// Cut end.
        until: SimTime,
    },
    /// Permanently slow the `from → to` link by `extra`.
    SlowLink {
        /// Sender side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// Added one-way delay.
        extra: SimDuration,
    },
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A fault names a node outside the simulated population.
    UnknownNode {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// The out-of-range node.
        node: NodeId,
    },
    /// A partition or isolation interval is empty or inverted
    /// (`from >= until`), so it would silently never fire.
    EmptyInterval {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// Interval start.
        from: SimTime,
        /// Interval end.
        until: SimTime,
    },
    /// A fault links a node to itself — a partition with `a == b`, a slow
    /// link with `from == to`, or an isolation whose peer list contains
    /// the isolated node — and would silently do nothing.
    SelfLink {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// The self-linked node.
        node: NodeId,
    },
    /// An isolation with an empty peer list would silently cut nothing.
    EmptyPeers {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
    },
    /// A `Recover` names a node that is not crashed at that point of the
    /// plan — it would silently do nothing.
    RecoverWithoutCrash {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// The node named by the spurious recovery.
        node: NodeId,
    },
    /// A `Crash` hits a node that is already down (no intervening
    /// `Recover`) — the second crash would silently do nothing.
    DoubleCrash {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// The doubly crashed node.
        node: NodeId,
    },
    /// A `Recover` is scheduled at or before its matching `Crash`, so the
    /// node would never actually be down (recovery of a live node is a
    /// no-op at dispatch).
    RecoverBeforeCrash {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
        /// The node with the inverted schedule.
        node: NodeId,
        /// When the node crashes.
        crash_at: SimTime,
        /// When the (too early) recovery fires.
        recover_at: SimTime,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownNode { index, node } => {
                write!(f, "fault event #{index} targets unknown node {node:?}")
            }
            FaultPlanError::EmptyInterval { index, from, until } => {
                write!(
                    f,
                    "fault event #{index} has empty interval [{from:?}, {until:?})"
                )
            }
            FaultPlanError::SelfLink { index, node } => {
                write!(f, "fault event #{index} links {node:?} to itself")
            }
            FaultPlanError::EmptyPeers { index } => {
                write!(f, "fault event #{index} isolates from an empty peer set")
            }
            FaultPlanError::RecoverWithoutCrash { index, node } => {
                write!(
                    f,
                    "fault event #{index} recovers {node:?} which is not crashed at that point"
                )
            }
            FaultPlanError::DoubleCrash { index, node } => {
                write!(
                    f,
                    "fault event #{index} crashes {node:?} which is already down"
                )
            }
            FaultPlanError::RecoverBeforeCrash {
                index,
                node,
                crash_at,
                recover_at,
            } => {
                write!(
                    f,
                    "fault event #{index} recovers {node:?} at {recover_at:?}, at or before \
                     its crash at {crash_at:?}"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A set of scheduled faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled fault events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a crash.
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(FaultEvent::Crash { node, at });
        self
    }

    /// Add a crash followed by a durable recovery (the node resumes with
    /// the state it crashed with).
    pub fn crash_recover(self, node: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        self.crash_recover_mode(node, at, recover_at, RestartMode::Durable)
    }

    /// Add a crash followed by an amnesia recovery (the node reloads its
    /// last stable checkpoint and rejoins via state transfer).
    pub fn crash_recover_amnesia(self, node: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        self.crash_recover_mode(node, at, recover_at, RestartMode::Amnesia)
    }

    /// Add a crash followed by a recovery with an explicit restart mode.
    pub fn crash_recover_mode(
        mut self,
        node: NodeId,
        at: SimTime,
        recover_at: SimTime,
        mode: RestartMode,
    ) -> Self {
        self.events.push(FaultEvent::Crash { node, at });
        self.events.push(FaultEvent::Recover {
            node,
            at: recover_at,
            mode,
        });
        self
    }

    /// Add a pairwise partition.
    pub fn partition(mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> Self {
        self.events
            .push(FaultEvent::Partition { a, b, from, until });
        self
    }

    /// Isolate `node` from `peers` during an interval.
    pub fn isolate(
        mut self,
        node: NodeId,
        peers: Vec<NodeId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::Isolate {
            node,
            peers,
            from,
            until,
        });
        self
    }

    /// Slow a link permanently.
    pub fn slow_link(mut self, from: NodeId, to: NodeId, extra: SimDuration) -> Self {
        self.events.push(FaultEvent::SlowLink { from, to, extra });
        self
    }

    /// Number of *distinct* replicas this plan crashes (used by experiments
    /// to assert the plan stays within a protocol's fault budget).
    pub fn crashed_replicas(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for e in &self.events {
            if let FaultEvent::Crash {
                node: NodeId::Replica(r),
                ..
            } = e
            {
                seen.insert(*r);
            }
        }
        seen.len()
    }

    /// Check every event variant uniformly: each named node must be inside
    /// the population (`n_replicas` replicas, `n_clients` clients), each
    /// partition/isolation window must be non-empty and ordered
    /// (`from < until`), link endpoints must be distinct (a partition of
    /// `a` with itself, a self-slow-link, or an isolation listing the
    /// isolated node among its peers would silently do nothing), and an
    /// isolation must name at least one peer.
    ///
    /// Crash/recover schedules must additionally be *coherent* per node
    /// (walking the events in plan order): a `Recover` needs a prior
    /// `Crash` still in effect, a second `Crash` needs an intervening
    /// `Recover`, and a `Recover` must fire strictly after its `Crash` —
    /// each incoherent shape would otherwise be a silent no-op at dispatch.
    pub fn validate(&self, n_replicas: usize, n_clients: u64) -> Result<(), FaultPlanError> {
        let node_ok = |node: &NodeId| match node {
            NodeId::Replica(r) => (r.0 as usize) < n_replicas,
            NodeId::Client(c) => c.0 < n_clients,
        };
        for (index, ev) in self.events.iter().enumerate() {
            let (nodes, interval, self_link): (
                Vec<&NodeId>,
                Option<(SimTime, SimTime)>,
                Option<&NodeId>,
            ) = match ev {
                FaultEvent::Crash { node, .. } | FaultEvent::Recover { node, .. } => {
                    (vec![node], None, None)
                }
                FaultEvent::Partition { a, b, from, until } => {
                    (vec![a, b], Some((*from, *until)), (a == b).then_some(a))
                }
                FaultEvent::Isolate {
                    node,
                    peers,
                    from,
                    until,
                } => {
                    if peers.is_empty() {
                        return Err(FaultPlanError::EmptyPeers { index });
                    }
                    let mut ns = vec![node];
                    ns.extend(peers.iter());
                    (
                        ns,
                        Some((*from, *until)),
                        peers.contains(node).then_some(node),
                    )
                }
                FaultEvent::SlowLink { from, to, .. } => {
                    (vec![from, to], None, (from == to).then_some(from))
                }
            };
            if let Some(node) = nodes.into_iter().find(|n| !node_ok(n)) {
                return Err(FaultPlanError::UnknownNode { index, node: *node });
            }
            if let Some(node) = self_link {
                return Err(FaultPlanError::SelfLink { index, node: *node });
            }
            if let Some((from, until)) = interval {
                if from >= until {
                    return Err(FaultPlanError::EmptyInterval { index, from, until });
                }
            }
        }
        self.check_coherence()
    }

    /// The crash/recover half of [`FaultPlan::validate`]: per node, in plan
    /// order, a `Recover` needs a prior `Crash` still in effect and fires
    /// strictly after it, and a second `Crash` needs an intervening
    /// `Recover`.
    pub fn check_coherence(&self) -> Result<(), FaultPlanError> {
        // Some(crash time) while the node is down
        let mut down: std::collections::BTreeMap<NodeId, SimTime> =
            std::collections::BTreeMap::new();
        for (index, ev) in self.events.iter().enumerate() {
            match ev {
                FaultEvent::Crash { node, at } => {
                    if down.contains_key(node) {
                        return Err(FaultPlanError::DoubleCrash { index, node: *node });
                    }
                    down.insert(*node, *at);
                }
                FaultEvent::Recover { node, at, .. } => match down.remove(node) {
                    None => {
                        return Err(FaultPlanError::RecoverWithoutCrash { index, node: *node });
                    }
                    Some(crash_at) if *at <= crash_at => {
                        return Err(FaultPlanError::RecoverBeforeCrash {
                            index,
                            node: *node,
                            crash_at,
                            recover_at: *at,
                        });
                    }
                    Some(_) => {}
                },
                _ => {}
            }
        }
        Ok(())
    }

    /// Validate the plan against the node population, then install it into
    /// the simulation. Nothing is installed if validation fails.
    pub fn apply<M: WireSize + serde::Serialize + 'static>(
        &self,
        sim: &mut Simulation<M>,
        n_replicas: usize,
        n_clients: u64,
    ) -> Result<(), FaultPlanError> {
        self.validate(n_replicas, n_clients)?;
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { node, at } => sim.schedule_crash(*node, *at),
                FaultEvent::Recover { node, at, mode } => {
                    sim.schedule_recover_with(*node, *at, *mode)
                }
                FaultEvent::Partition { a, b, from, until } => {
                    sim.network_mut().partition_pair(*a, *b, *from, *until)
                }
                FaultEvent::Isolate {
                    node,
                    peers,
                    from,
                    until,
                } => sim
                    .network_mut()
                    .isolate(*node, peers.clone(), *from, *until),
                FaultEvent::SlowLink { from, to, extra } => {
                    sim.network_mut().slow_link(*from, *to, *extra)
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counting() {
        let plan = FaultPlan::none()
            .crash(NodeId::replica(1), SimTime(100))
            .crash(NodeId::replica(1), SimTime(200)) // same replica again
            .crash(NodeId::replica(2), SimTime(100))
            .crash(NodeId::client(1), SimTime(100)) // clients don't count
            .partition(
                NodeId::replica(0),
                NodeId::replica(3),
                SimTime(0),
                SimTime(10),
            );
        assert_eq!(plan.crashed_replicas(), 2);
        assert_eq!(plan.events.len(), 5);
    }

    #[test]
    fn validate_accepts_in_range_plan() {
        let plan = FaultPlan::none()
            .crash_recover(NodeId::replica(3), SimTime(100), SimTime(200))
            .partition(
                NodeId::replica(0),
                NodeId::replica(1),
                SimTime(0),
                SimTime(10),
            )
            .isolate(
                NodeId::replica(2),
                vec![NodeId::replica(0), NodeId::replica(1)],
                SimTime(5),
                SimTime(15),
            )
            .slow_link(NodeId::replica(1), NodeId::client(0), SimDuration(50));
        assert_eq!(plan.validate(4, 1), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_nodes() {
        let plan = FaultPlan::none().crash(NodeId::replica(4), SimTime(100));
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::UnknownNode {
                index: 0,
                node: NodeId::replica(4),
            })
        );
        // a client id beyond the population is just as invalid
        let plan =
            FaultPlan::none().slow_link(NodeId::replica(0), NodeId::client(2), SimDuration(1));
        assert!(matches!(
            plan.validate(4, 2),
            Err(FaultPlanError::UnknownNode { index: 0, .. })
        ));
        // an isolate peer out of range is caught too
        let plan = FaultPlan::none().isolate(
            NodeId::replica(0),
            vec![NodeId::replica(7)],
            SimTime(0),
            SimTime(10),
        );
        assert!(matches!(
            plan.validate(4, 0),
            Err(FaultPlanError::UnknownNode { index: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_inverted_intervals() {
        let plan = FaultPlan::none().partition(
            NodeId::replica(0),
            NodeId::replica(1),
            SimTime(10),
            SimTime(10),
        );
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::EmptyInterval {
                index: 0,
                from: SimTime(10),
                until: SimTime(10),
            })
        );
        let plan = FaultPlan::none().isolate(
            NodeId::replica(0),
            vec![NodeId::replica(1)],
            SimTime(20),
            SimTime(10),
        );
        assert!(matches!(
            plan.validate(4, 0),
            Err(FaultPlanError::EmptyInterval { index: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_self_partition() {
        let plan = FaultPlan::none().partition(
            NodeId::replica(2),
            NodeId::replica(2),
            SimTime(0),
            SimTime(10),
        );
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::SelfLink {
                index: 0,
                node: NodeId::replica(2),
            })
        );
    }

    #[test]
    fn validate_rejects_self_slow_link() {
        let plan =
            FaultPlan::none().slow_link(NodeId::replica(1), NodeId::replica(1), SimDuration(5));
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::SelfLink {
                index: 0,
                node: NodeId::replica(1),
            })
        );
    }

    #[test]
    fn validate_rejects_self_isolation_peer() {
        let plan = FaultPlan::none().isolate(
            NodeId::replica(0),
            vec![NodeId::replica(1), NodeId::replica(0)],
            SimTime(0),
            SimTime(10),
        );
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::SelfLink {
                index: 0,
                node: NodeId::replica(0),
            })
        );
    }

    #[test]
    fn validate_rejects_empty_isolation_peers() {
        let plan = FaultPlan::none().isolate(NodeId::replica(0), vec![], SimTime(0), SimTime(10));
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::EmptyPeers { index: 0 })
        );
    }

    #[test]
    fn validate_rejects_recover_without_crash() {
        let mut plan = FaultPlan::none();
        plan.events.push(FaultEvent::Recover {
            node: NodeId::replica(1),
            at: SimTime(100),
            mode: RestartMode::Durable,
        });
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::RecoverWithoutCrash {
                index: 0,
                node: NodeId::replica(1),
            })
        );
        // a second recover after a coherent crash/recover pair is just as
        // spurious
        let plan = FaultPlan::none().crash_recover(NodeId::replica(1), SimTime(10), SimTime(20));
        let mut plan = plan;
        plan.events.push(FaultEvent::Recover {
            node: NodeId::replica(1),
            at: SimTime(30),
            mode: RestartMode::Amnesia,
        });
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::RecoverWithoutCrash {
                index: 2,
                node: NodeId::replica(1),
            })
        );
    }

    #[test]
    fn validate_rejects_double_crash() {
        let plan = FaultPlan::none()
            .crash(NodeId::replica(2), SimTime(10))
            .crash(NodeId::replica(2), SimTime(50));
        assert_eq!(
            plan.validate(4, 0),
            Err(FaultPlanError::DoubleCrash {
                index: 1,
                node: NodeId::replica(2),
            })
        );
        // distinct victims are fine, and so is crash → recover → crash
        let plan = FaultPlan::none()
            .crash(NodeId::replica(1), SimTime(10))
            .crash(NodeId::replica(2), SimTime(10));
        assert_eq!(plan.validate(4, 0), Ok(()));
        let plan = FaultPlan::none()
            .crash_recover(NodeId::replica(1), SimTime(10), SimTime(20))
            .crash(NodeId::replica(1), SimTime(30));
        assert_eq!(plan.validate(4, 0), Ok(()));
    }

    #[test]
    fn validate_rejects_recover_at_or_before_crash() {
        for recover_at in [SimTime(100), SimTime(50)] {
            let plan =
                FaultPlan::none().crash_recover(NodeId::replica(3), SimTime(100), recover_at);
            assert_eq!(
                plan.validate(4, 0),
                Err(FaultPlanError::RecoverBeforeCrash {
                    index: 1,
                    node: NodeId::replica(3),
                    crash_at: SimTime(100),
                    recover_at,
                })
            );
        }
    }

    #[test]
    fn amnesia_builder_records_the_mode() {
        let plan =
            FaultPlan::none().crash_recover_amnesia(NodeId::replica(1), SimTime(10), SimTime(20));
        assert_eq!(plan.validate(4, 0), Ok(()));
        assert!(matches!(
            plan.events[1],
            FaultEvent::Recover {
                mode: RestartMode::Amnesia,
                ..
            }
        ));
        // the plain builder stays durable (the historical behavior)
        let plan = FaultPlan::none().crash_recover(NodeId::replica(1), SimTime(10), SimTime(20));
        assert!(matches!(
            plan.events[1],
            FaultEvent::Recover {
                mode: RestartMode::Durable,
                ..
            }
        ));
    }

    #[test]
    fn errors_render_each_variant() {
        let cases: Vec<FaultPlanError> = vec![
            FaultPlanError::UnknownNode {
                index: 0,
                node: NodeId::replica(9),
            },
            FaultPlanError::EmptyInterval {
                index: 1,
                from: SimTime(5),
                until: SimTime(5),
            },
            FaultPlanError::SelfLink {
                index: 2,
                node: NodeId::replica(0),
            },
            FaultPlanError::EmptyPeers { index: 3 },
            FaultPlanError::RecoverWithoutCrash {
                index: 4,
                node: NodeId::replica(1),
            },
            FaultPlanError::DoubleCrash {
                index: 5,
                node: NodeId::replica(2),
            },
            FaultPlanError::RecoverBeforeCrash {
                index: 6,
                node: NodeId::replica(3),
                crash_at: SimTime(100),
                recover_at: SimTime(100),
            },
        ];
        for (i, e) in cases.iter().enumerate() {
            let rendered = e.to_string();
            assert!(
                rendered.contains(&format!("#{i}")),
                "{rendered:?} lacks its index"
            );
        }
    }

    #[test]
    fn apply_refuses_invalid_plan() {
        use crate::net::{NetworkConfig, NetworkModel};
        let mut sim: Simulation<u64> = Simulation::new(NetworkModel::new(NetworkConfig::lan()), 1);
        let plan = FaultPlan::none().crash(NodeId::replica(9), SimTime(100));
        assert!(plan.apply(&mut sim, 4, 0).is_err());
    }
}
