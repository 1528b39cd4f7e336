//! The chaos-campaign bench target.
//!
//! Hammers every protocol in the unified registry under randomized,
//! seed-reproducible adversarial schedules, checking safety and liveness on
//! every run and ddmin-shrinking any failure to a minimal reproducer. Three
//! modes:
//!
//! * default: crash/recover churn, healed partitions and isolation, slow
//!   links, pre-GST drop storms, post-GST duplication and reordering;
//! * `--byzantine`: a clean network with up to `f` compromised replicas
//!   mounting wire-level attacks (equivocation, censorship, strategic
//!   delay, replay, corruption), scoped per protocol by its measured
//!   Byzantine tolerance envelope;
//! * `--recovery`: a clean network with up to `f` replicas cycling
//!   through repeated crash → recover churn in mixed restart modes
//!   (durable and amnesia), scoped per protocol by its recovery
//!   tolerance envelope.
//!
//! `--unscoped` runs every protocol against the mode's full gallery
//! instead of its registry envelope: the measurement mode behind the
//! envelopes, where violations are findings rather than regressions.
//!
//! ```text
//! cargo bench -p bft-bench --bench campaign -- --seeds 50   # 50 seeds/protocol
//! cargo bench -p bft-bench --bench campaign -- --quick      # the CI smoke set
//! cargo bench -p bft-bench --bench campaign -- --seeds 20 pbft kauri
//! cargo bench -p bft-bench --bench campaign -- --byzantine --seeds 25
//! cargo bench -p bft-bench --bench campaign -- --byzantine --attacks equivocate,censor
//! cargo bench -p bft-bench --bench campaign -- --recovery --seeds 25
//! cargo bench -p bft-bench --bench campaign -- --unscoped --byzantine --seeds 200
//! BFT_BENCH_THREADS=1 cargo bench -p bft-bench --bench campaign   # sequential
//! ```
//!
//! Output is deterministic: a fixed seed set renders byte-identical
//! reports across repeated runs and thread counts. Exits nonzero on any
//! safety or liveness violation (each printed with its replay seed).

use std::time::Instant;

use bft_bench::campaign::{run_campaign, CampaignConfig};
use bft_protocols::registry::ProtocolId;
use bft_sim::AttackKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let byzantine = args.iter().any(|a| a == "--byzantine");
    let recovery = args.iter().any(|a| a == "--recovery");
    let unscoped = args.iter().any(|a| a == "--unscoped");
    let mut seeds: u64 = 25;
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => seeds = n,
            None => {
                eprintln!("--seeds needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    let mut attack_filter: Option<Vec<AttackKind>> = None;
    if let Some(i) = args.iter().position(|a| a == "--attacks") {
        let Some(list) = args.get(i + 1) else {
            eprintln!("--attacks needs a comma-separated list");
            std::process::exit(2);
        };
        let kinds: Option<Vec<AttackKind>> = list
            .split(',')
            .map(|s| AttackKind::parse(s.trim()))
            .collect();
        match kinds {
            Some(kinds) if !kinds.is_empty() => attack_filter = Some(kinds),
            _ => {
                eprintln!(
                    "--attacks takes a comma-separated subset of: {}",
                    AttackKind::ALL.map(|k| k.name()).join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let filters: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !(a.starts_with("--")
                || a.is_empty()
                || i > 0 && (args[i - 1] == "--seeds" || args[i - 1] == "--attacks"))
        })
        .map(|(_, a)| a)
        .collect();

    let mut cfg = if recovery {
        CampaignConfig::recovery(if quick { 5 } else { seeds })
    } else if quick {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::new(seeds)
    };
    cfg.byzantine = byzantine;
    cfg.attack_filter = attack_filter;
    cfg.unscoped = unscoped;
    if !filters.is_empty() {
        cfg.protocols = ProtocolId::ALL
            .into_iter()
            .filter(|p| filters.iter().any(|f| p.name().contains(f.as_str())))
            .collect();
        if cfg.protocols.is_empty() {
            eprintln!(
                "no protocols match {:?} — known names: {}",
                filters,
                ProtocolId::ALL.map(|p| p.name()).join(", ")
            );
            std::process::exit(2);
        }
    }

    let jobs = cfg.protocols.len() * cfg.seeds.len();
    let threads = bft_bench::thread_count(jobs);
    println!(
        "untrusted-txn {}{} campaign — {} protocol(s) × {} seed(s), {} worker thread{}\n",
        if cfg.unscoped { "unscoped " } else { "" },
        if cfg.recovery {
            "recovery"
        } else if cfg.byzantine {
            "byzantine"
        } else {
            "chaos"
        },
        cfg.protocols.len(),
        cfg.seeds.len(),
        threads,
        if threads == 1 { "" } else { "s" }
    );

    let started = Instant::now();
    let report = run_campaign(&cfg, threads);
    print!("{}", report.render());
    println!("({:.2?})", started.elapsed());

    if !report.failures().is_empty() {
        std::process::exit(1);
    }
}
