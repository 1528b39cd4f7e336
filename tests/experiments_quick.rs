//! Every experiment in the harness must reproduce its paper-claim shape,
//! even on the scaled-down quick workloads. This is the regression gate for
//! EXPERIMENTS.md: if a protocol change breaks a trade-off, this fails.

#[test]
fn all_experiment_claims_reproduce_in_quick_mode() {
    let registry = bft_bench::registry();
    let threads = bft_bench::thread_count(registry.len());
    let records = bft_bench::run_all(&registry, true, threads);
    let mut failures = Vec::new();
    for rec in records {
        assert_eq!(rec.result.id, rec.id, "registry id mismatch");
        if !rec.result.claim_holds {
            failures.push(format!(
                "{} — {}\n{}",
                rec.id,
                rec.title,
                rec.result.render()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "claims not reproduced:\n{}",
        failures.join("\n")
    );
}

/// The `exp_p5` full-mode liveness repair: proactive rejuvenation (20ms
/// period, 50ms dark window) concurrent with a permanently crashed replica
/// used to strand most of the workload (36/120 at n = 3f+1, 96/120 at
/// n = 3f+2k+1). Three recovery fixes close the gap: rejuvenating replicas
/// buffer and replay traffic instead of dropping it, rejoining replicas
/// adopt the quorum's working view from the first valid leader message,
/// and τ2 discounts scheduled rejuvenation windows so the rotation never
/// indicts a healthy leader. Both provisioning regimes must now accept the
/// full workload (the n = 3f+1 floor of 110/120 is the acceptance bar; in
/// practice both reach 120/120).
#[test]
fn exp_p5_full_mode_liveness_is_repaired() {
    use bft_sim::campaign::check_outcome;
    use untrusted_txn::prelude::*;

    for (n_override, floor) in [(None, 110), (Some(6), 110)] {
        let mut s = Scenario::small(1).with_load(1, 120);
        s.n_override = n_override;
        let s = s.with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime::ZERO));
        let out = Protocol::Pbft(PbftOptions {
            recovery_period: Some(SimDuration::from_millis(20)),
            ..Default::default()
        })
        .run(&s);
        let accepted = out.log.accepted() as u64;
        assert!(
            accepted >= floor,
            "exp_p5 (n_override={n_override:?}) regressed: accepted \
             {accepted}/120, floor {floor} — the recovery/rejoin path lost \
             its liveness repair"
        );
        assert_eq!(
            check_outcome(&out.log, vec![NodeId::replica(1)], 120),
            None,
            "exp_p5 (n_override={n_override:?}) violates the campaign checker"
        );
    }
}

#[test]
fn experiment_tables_are_well_formed() {
    // spot-check a handful of fast experiments for structural sanity
    for id in ["exp_f2", "exp_dc2", "exp_dc13"] {
        let r = bft_bench::run_experiment(id, true).expect("registered");
        assert!(!r.rows.is_empty(), "{id} produced no rows");
        for row in &r.rows {
            assert_eq!(
                row.values.len(),
                r.columns.len(),
                "{id}: row '{}' column count mismatch",
                row.label
            );
        }
        assert!(!r.claim.is_empty());
        assert!(r.render().contains(&r.id));
    }
}
