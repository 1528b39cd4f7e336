//! Engine selection: the deterministic simulation or the real-time
//! threaded backend behind one construction API.
//!
//! [`EngineKind`] is the scenario-level knob (default [`EngineKind::Sim`],
//! so a zero-knob run is the deterministic simulation).
//! [`Engine`] wraps whichever backend a scenario built so the shared
//! protocol wiring — `add_replica`/`add_client` over [`Actor`] boxes — is
//! written once, engine-agnostically.

use serde::Serialize;

use bft_types::WireSize;

use crate::runner::{Actor, Simulation};
use crate::threaded::ThreadedEngine;

/// Which execution backend runs a scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize)]
pub enum EngineKind {
    /// The deterministic discrete-event simulation: virtual time, seeded
    /// network delays, fault plans, adversaries, identical reruns.
    #[default]
    Sim,
    /// The real-time backend: one OS thread per node, channels, monotonic
    /// clocks. Wall-clock throughput is real; determinism, fault plans and
    /// adversaries are not available.
    Threaded,
}

impl EngineKind {
    /// Stable lowercase name (CLI / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Threaded => "threaded",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(EngineKind::Sim),
            "threaded" => Ok(EngineKind::Threaded),
            other => Err(format!("unknown engine '{other}' (expected sim|threaded)")),
        }
    }
}

/// A built execution backend, ready for actors. Protocol wiring adds its
/// replicas and clients through this enum without knowing which engine the
/// scenario selected; the actor boxes must be `Send` so they can cross
/// into the threaded engine's node threads (the sim engine simply never
/// moves them).
pub enum Engine<M> {
    /// Deterministic simulation backend.
    Sim(Box<Simulation<M>>),
    /// Real-time threaded backend.
    Threaded(ThreadedEngine<M>),
}

impl<M: WireSize + Serialize + Send + Sync + 'static> Engine<M> {
    /// Which backend this is.
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Sim(_) => EngineKind::Sim,
            Engine::Threaded(_) => EngineKind::Threaded,
        }
    }

    /// Add a replica actor as replica `i` (`i` dense from 0, in order).
    pub fn add_replica(&mut self, i: u32, actor: Box<dyn Actor<M> + Send>) {
        match self {
            Engine::Sim(sim) => sim.add_replica(i, actor),
            Engine::Threaded(t) => t.add_replica(i, actor),
        }
    }

    /// Add a client actor.
    pub fn add_client(&mut self, c: u64, actor: Box<dyn Actor<M> + Send>) {
        match self {
            Engine::Sim(sim) => sim.add_client(c, actor),
            Engine::Threaded(t) => t.add_client(c, actor),
        }
    }

    /// Number of replicas registered so far.
    pub fn n_replicas(&self) -> usize {
        match self {
            Engine::Sim(sim) => sim.n_replicas(),
            Engine::Threaded(t) => t.n_replicas(),
        }
    }

    /// Pre-reserve event capacity (a no-op on the threaded engine, whose
    /// channels grow on demand).
    pub fn reserve_events(&mut self, additional: usize) {
        match self {
            Engine::Sim(sim) => sim.reserve_events(additional),
            Engine::Threaded(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_engine_is_sim() {
        assert_eq!(EngineKind::default(), EngineKind::Sim);
    }

    #[test]
    fn engine_kind_round_trips_names() {
        for kind in [EngineKind::Sim, EngineKind::Threaded] {
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
        }
        assert!("tcp".parse::<EngineKind>().is_err());
    }
}
