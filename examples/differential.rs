//! Differential harness: one semantic digest per campaign case, so two
//! builds can be compared run for run.
//!
//! Every registry protocol runs the chaos, Byzantine and recovery campaign
//! profiles at f = 1 and f = 2 over seeds 0..30, in two passes: the
//! campaign's own shape (one client, batch size 1), then three clients at
//! batch size 4, which reaches the batch cut and the partial-batch timers.
//! Each case prints one line, `protocol mode f seed batch semantic_digest`
//! (6 120 lines for the whole registry). Run it in two trees and `diff` the
//! outputs: a differing line is a case whose observable behaviour changed,
//! and `RunOutcome::semantic_record` of that case shows where.
//!
//! ```text
//! cargo run --release --example differential [protocol ...] > change.txt
//! ```

use bft_bench::campaign::{
    byz_profile_for, profile_for, recovery_profile_for, scenario_for, CampaignConfig,
};
use untrusted_txn::prelude::*;
use untrusted_txn::sim::campaign::generate_case;

const SEEDS: u64 = 30;

fn main() {
    let only: Vec<String> = std::env::args().skip(1).collect();
    for entry in registry() {
        if !only.is_empty() && !only.iter().any(|p| p == entry.name) {
            continue;
        }
        for (clients, batch) in [(1, 1), (3, 4)] {
            for (mode, base) in [
                ("chaos", CampaignConfig::new(SEEDS)),
                ("byzantine", CampaignConfig::byzantine(SEEDS)),
                ("recovery", CampaignConfig::recovery(SEEDS)),
            ] {
                for f in [1, 2] {
                    let cfg = CampaignConfig {
                        f,
                        clients,
                        ..base.clone()
                    };
                    let profile = match mode {
                        "chaos" => profile_for(&entry, f, clients as u64),
                        "byzantine" => byz_profile_for(&entry, f, clients as u64, None),
                        _ => recovery_profile_for(&entry, f, clients as u64),
                    };
                    for &seed in &cfg.seeds {
                        let case = generate_case(&profile, seed);
                        let scenario = scenario_for(&cfg, &case).with_batch(batch);
                        let digest = entry.id.run(&scenario).semantic_digest();
                        println!("{} {mode} {f} {seed} {batch} {digest}", entry.name);
                    }
                }
            }
        }
    }
}
