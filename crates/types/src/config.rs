//! The replica-budget formulas of dimension **E1**: how many replicas a
//! deployment needs for fault threshold `f`. Protocol-structure choices
//! (phases, view-change mode, authentication, …) live in `bft-core`'s
//! design-space model.

use serde::{Deserialize, Serialize};

use crate::quorum::QuorumRules;
use crate::Result;

/// The replica-budget formulas of dimension E1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaFormula {
    /// `n = 3f + 1` — classic partially synchronous BFT (PBFT, HotStuff, …).
    Classic,
    /// `n = 5f + 1` — fast two-phase protocols (FaB, Zyzzyva5's resilience
    /// budget).
    Fast,
    /// `n = 7f + 1` — one-step protocols (Bosco-style).
    OneStep,
    /// `n = 2f + 1` — trusted-hardware protocols (MinBFT-style), where an
    /// attested log restricts equivocation.
    TrustedHardware,
    /// `n = 3f + 2k + 1` — provisioned for proactive recovery with up to
    /// `k` replicas rejuvenating concurrently.
    WithRecovery {
        /// Maximum number of concurrently rejuvenating replicas.
        k: usize,
    },
    /// `n > 4f / (2γ − 1)` — order-fairness bound, γ in thousandths to stay
    /// `Eq`/`Hash` (e.g. `gamma_milli = 1000` is γ = 1.0).
    Fairness {
        /// Order-fairness parameter γ, in thousandths (501..=1000).
        gamma_milli: u32,
    },
}

impl ReplicaFormula {
    /// Minimum number of replicas this formula requires for threshold `f`.
    pub fn min_n(&self, f: usize) -> Result<usize> {
        Ok(match self {
            ReplicaFormula::Classic => 3 * f + 1,
            ReplicaFormula::Fast => 5 * f + 1,
            ReplicaFormula::OneStep => 7 * f + 1,
            ReplicaFormula::TrustedHardware => 2 * f + 1,
            ReplicaFormula::WithRecovery { k } => 3 * f + 2 * k + 1,
            ReplicaFormula::Fairness { gamma_milli } => {
                QuorumRules::fairness_min_n(f, *gamma_milli as f64 / 1000.0)?
            }
        })
    }

    /// Human-readable formula, e.g. `"3f+1"`.
    pub fn formula(&self) -> String {
        match self {
            ReplicaFormula::Classic => "3f+1".into(),
            ReplicaFormula::Fast => "5f+1".into(),
            ReplicaFormula::OneStep => "7f+1".into(),
            ReplicaFormula::TrustedHardware => "2f+1".into(),
            ReplicaFormula::WithRecovery { k } => format!("3f+2k+1 (k={k})"),
            ReplicaFormula::Fairness { gamma_milli } => {
                format!("n>4f/(2γ−1) (γ={:.3})", *gamma_milli as f64 / 1000.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_sizes() {
        let min_n = |formula: ReplicaFormula, f| formula.min_n(f).unwrap();
        assert_eq!(min_n(ReplicaFormula::Classic, 1), 4);
        assert_eq!(min_n(ReplicaFormula::Classic, 2), 7);
        assert_eq!(min_n(ReplicaFormula::Fast, 1), 6);
        assert_eq!(min_n(ReplicaFormula::OneStep, 1), 8);
        assert_eq!(min_n(ReplicaFormula::TrustedHardware, 1), 3);
        assert_eq!(min_n(ReplicaFormula::WithRecovery { k: 1 }, 1), 6);
        let fair = ReplicaFormula::Fairness { gamma_milli: 1000 };
        assert_eq!(min_n(fair, 1), 5);
    }

    #[test]
    fn invalid_fairness_gamma_fails() {
        assert!(ReplicaFormula::Fairness { gamma_milli: 500 }
            .min_n(1)
            .is_err());
    }
}
