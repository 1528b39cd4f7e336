//! Wire authentication against the Byzantine adversary layer, end to end:
//! whatever the protocol-level auth mode, a tampered envelope never reaches
//! an actor — the sim's HMAC wire auth rejects it and the run stays safe
//! and (within the attack budget) live.

use untrusted_txn::prelude::*;

/// A corrupting compromised replica under both PBFT auth modes: every
/// tampered envelope is rejected at the wire (the audited invariant
/// `adv_corrupted == auth_rejected`), none reaches an actor, and the
/// honest majority still commits every request.
#[test]
fn tampered_envelopes_are_rejected_under_every_auth_mode() {
    for auth in [PbftAuth::Mac, PbftAuth::Signature] {
        let s = Scenario::small(1)
            .with_load(1, 8)
            .with_adversaries(vec![AdversarySpec::new(1, Attack::Corrupt { prob: 1.0 })]);
        let out = Protocol::Pbft(PbftOptions {
            auth,
            ..Default::default()
        })
        .run(&s);
        assert!(
            out.metrics.adv_corrupted > 0,
            "{auth:?}: the adversary must actually tamper"
        );
        assert_eq!(
            out.metrics.adv_corrupted, out.metrics.auth_rejected,
            "{auth:?}: every tampered envelope must be rejected by wire auth"
        );
        SafetyAuditor::excluding(vec![NodeId::replica(1)]).assert_safe(&out.log);
        assert_eq!(
            out.log.accepted(),
            8,
            "{auth:?}: one corrupting replica of four cannot stall PBFT"
        );
    }
}

/// Strategic delay leaves payloads untouched: the held envelopes are
/// genuine, carry no adversary tag (the honest fast path stays
/// crypto-free), and nothing is rejected — the attack costs latency only.
#[test]
fn delayed_envelopes_are_genuine_and_never_rejected() {
    let s = Scenario::small(1)
        .with_load(1, 6)
        .with_adversaries(vec![AdversarySpec::new(
            3,
            Attack::Delay {
                hold: SimDuration::from_millis(5),
                prob: 0.5,
            },
        )]);
    let out = ProtocolId::Pbft.run(&s);
    assert!(out.metrics.adv_delayed > 0, "holds must actually happen");
    assert_eq!(out.metrics.auth_rejected, 0, "nothing was tampered");
    assert_eq!(
        out.metrics.auth_verified, 0,
        "delayed traffic is genuine — no substitute tags to check"
    );
    SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 6);
}

/// Replayed envelopes carry *valid* tags (they were genuinely authored by
/// the compromised sender), so wire auth accepts them — deduplication is
/// the protocol's job, and PBFT's is airtight.
#[test]
fn replayed_envelopes_verify_but_do_not_double_execute() {
    let s = Scenario::small(1)
        .with_load(1, 8)
        .with_adversaries(vec![AdversarySpec::new(2, Attack::Replay { prob: 1.0 })]);
    let out = ProtocolId::Pbft.run(&s);
    assert!(out.metrics.adv_replayed > 0, "replays must actually happen");
    assert!(
        out.metrics.auth_verified > 0,
        "replayed tags are checked — and pass"
    );
    assert_eq!(
        out.metrics.auth_rejected, 0,
        "replays are authentic, not forgeries"
    );
    SafetyAuditor::excluding(vec![NodeId::replica(2)]).assert_safe(&out.log);
    assert_eq!(
        out.log.accepted(),
        8,
        "duplicate-suppression keeps replays harmless"
    );
}
