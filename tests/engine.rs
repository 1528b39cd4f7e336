//! Engine-API tests: the sim engine's semantic goldens (fault-free and
//! faulty runs), the default-engine contract, and the threaded engine's
//! cross-protocol semantic smoke matrix.

use std::collections::BTreeMap;

use untrusted_txn::prelude::*;
use untrusted_txn::protocols::suite::{check_run, workload_suite};
use untrusted_txn::sim::SimDuration;

/// Semantic-record digests ([`RunOutcome::semantic_digest`]), one line per
/// run: `protocol scenario digest`, where the scenario is `zero-knob` or a
/// [`faulty_scenarios`] label (view changes, timeouts and retransmissions
/// happen there). The record covers every observation (time, node and
/// meaning, digests as first-appearance ordinals), every node's message,
/// byte and CPU counters and the non-zero run counters. It ignores field
/// order, absent zero counters and digest bytes, and leaves out
/// `events_processed` and `end_time`. Pinned on commit `092ecc4`, in the
/// same test run in which that tree's 136 serialized-output goldens held.
/// Rows outside a protocol's tolerance envelope are pinned too: the table
/// is a differential, not a liveness claim. A moved row is a behaviour
/// change to explain in CHANGES.md, not to re-pin.
///
/// Re-pinned when checkpointing became a stage of the shared replica
/// skeleton: every `fab`, `minbft`, `prime`, `kauri`, `sbft` and `poe` row
/// and the five `fair` rows that reach a checkpoint (its zero-knob,
/// backup-crash and lossy runs order fewer than 16 slots). Each moved by
/// checkpoint traffic alone — same accepted requests, results, views and
/// final state digests — except `fab` and `minbft` leader-crash-recover,
/// where the recovered leader now catches up by state transfer and ends
/// at the others' state instead of its own stale one.
///
/// Re-pinned when restart became a stage of the skeleton: five
/// `leader-crash-recover` rows (Prime's and Themis' runs finish before the
/// 60 ms recovery). Each keeps the accepted requests, their results and
/// max view 1, and gains the restarted leader's `durable-restart` marker:
/// - `fab`: one catch-up round (two state requests) shifts the view change;
/// - `minbft`: rejoined view 1 from its leader's proposal, then caught up;
/// - `kauri`: one catch-up round and two retries (no checkpoint yet);
/// - `sbft`: caught up by state transfer; one slot took the slow path;
/// - `poe`: one catch-up round.
///
/// Re-pinned when Zyzzyva joined the skeleton: all sixteen `zyzzyva` and
/// `zyzzyva5` rows. Every run now brackets each slot's execution with the
/// Execution and Ordering stages, observes its speculative and final
/// commits at the slot with the batch digest (they carried the request
/// digest and the state digest), sends its orders as batches and its view
/// change as the family's messages, and checkpoints every 16 slots (the
/// extra messages draw network jitter, which shifts later deliveries by
/// microseconds). Beyond that:
/// - zero-knob, leader-crash, leader-mute, backup-crash, lossy-pre-gst
///   and `zyzzyva5` partition-heals: the same accepted requests, results,
///   fast-path count, max view and stop time;
/// - leader-crash-recover: the same, with one rollback where the private
///   view change rolled back four (`zyzzyva`) and six (`zyzzyva5`) times;
/// - `zyzzyva` partition-heals: the same results, ten fast-path accepts
///   instead of six, and the last accept 40 ms earlier;
/// - f2-two-leaders-crashed: all 20 requests accepted in view 2 where the
///   parent accepted none: the private view change never escalated past
///   the crashed leader of view 1, the shared τ2 escalation does.
///
/// Re-pinned when HotStuff joined the skeleton: all eight `hotstuff` rows.
/// A decision no longer sends a new-view message to the next leader, a
/// failed view runs the family's view change (votes to the target view's
/// leader, one new-view broadcast) instead of the private pacemaker, and
/// every 16 slots a checkpoint is broadcast. Every row accepts the same
/// requests with the same results; beyond that:
/// - zero-knob and lossy-pre-gst: the same executions and final state on
///   every replica, 128 messages sent per replica instead of 140;
/// - leader-crash, leader-mute, backup-crash and f2-two-leaders-crashed:
///   the same executions, max view and final state, the last accept 1 to
///   2.3 ms later (a view change takes the vote and the new-view hop);
/// - leader-crash-recover: the restarted leader now restarts (its
///   `durable-restart` marker) and executes all 20 requests to the
///   others' state, where it stopped after 2;
/// - partition-heals: the two partitioned replicas now execute all 20
///   requests, where they stopped after 1 and 4.
///
/// Re-pinned when CheapBFT joined the skeleton: all eight `cheapbft` rows.
/// Every run now checkpoints every 16 slots and carries its view change as
/// the family's messages; view 0 is unchanged otherwise. Beyond that:
/// - zero-knob and lossy-pre-gst: the same accepted requests, results and
///   view 0; in zero-knob the passive r3 sees the stable checkpoint at
///   slot 16 before the actives' updates for slot 15 and catches up by
///   one state transfer instead of executing slots 15–16;
/// - leader-crash, leader-mute and f2-two-leaders-crashed: all 20
///   requests accepted (views 1, 1 and 2) where the fixed leader accepted
///   none;
/// - leader-crash-recover: view 1 instead of the recovered leader's view
///   0, the last accept 0.6 ms later;
/// - backup-crash: the transition of the crashed active now waits for the
///   backups' τ2 (the leader's τ3 campaign alone no longer pulls them in):
///   last accept 85.7 ms instead of 26.7 ms;
/// - partition-heals: view 1 (led by r1) instead of the fixed leader's
///   fallback epoch, the last accept at 85.3 ms instead of 106.1 ms, and
///   one state transfer.
///
/// Re-pinned when Tendermint joined the skeleton: all sixteen `tendermint`
/// and `tendermint-il` rows. Views now count from 0 and rotate on each
/// decision (max view 21 → 20 in a run without a view change), a stalled
/// view runs the family's view change (τ2, 4Δ) where a round used to time
/// out after 2Δ into nil votes, and every 16 slots a checkpoint is
/// broadcast. Every row accepts the same 20 requests with the same results;
/// beyond that (mean client latency, plain / informed):
/// - zero-knob: the same executions and final state, 620 → 632 replica
///   messages (one checkpoint), 20.16 → 20.16 ms / 0.655 → 0.658 ms;
/// - leader-crash, leader-mute: the same executions, r0's views run the
///   view change: 29.3 → 48.3 ms / 9.8 → 28.8 ms;
/// - backup-crash: the same, r2's views: 30.3 → 44.3 ms / 10.8 → 24.8 ms;
/// - f2-two-leaders-crashed: the same, two of every seven views:
///   34.3 → 52.3 ms / 14.8 → 32.8 ms;
/// - leader-crash-recover: the restarted r0 ends at the others' state
///   (plain: by one state transfer), where it executed none / 5 slots;
/// - partition-heals: r0 and r1 end at the others' state, where r0
///   executed none (plain) and r1 3 slots (informed): 29.3 → 24.2 ms /
///   8.8 → 8.7 ms;
/// - lossy-pre-gst: the same executions and final state, one checkpoint,
///   24.2 → 23.9 ms / 4.7 → 4.4 ms.
///
/// Re-pinned when a retransmission's cached reply came to carry the state
/// digest (and position) of the execution it answers, not the replica's
/// current one: `zyzzyva` and `zyzzyva5` leader-crash-recover. The
/// client's reply collector matches replies on the state digest with the
/// result, so the cached replies now match the speculative replies of the
/// replicas that executed the request. Both accept the same 20 requests,
/// all on the fast path, within 13 µs of the parent's last accept:
/// - `zyzzyva`: a commit certificate lands a round earlier (final commits
///   4 → 6, client c0 sends 26 messages instead of 30);
/// - `zyzzyva5`: client c1's retransmission gathers 2f+1 matching replies
///   and sends a commit certificate (6 messages more).
///
/// Re-pinned when Chain joined the skeleton: all eight `chain` rows.
/// Execution is speculative (replies too, so every accept takes the fast
/// path), only the tail observes final commits, every 16 slots a
/// checkpoint is broadcast, and a stalled pipeline runs the family's view
/// change. Every row accepts the same 20 requests with the same results;
/// beyond that (mean client latency):
/// - zero-knob: the same executions and final state, 100 → 111 replica
///   messages (the checkpoint at slot 16, and one state request of the
///   tail, which sees that checkpoint stable a hop before it executes the
///   slot), 0.548 → 0.547 ms;
/// - lossy-pre-gst: the same, 4.546 → 4.547 ms;
/// - leader-crash, leader-mute: view 1 as before, 9.44 → 8.45 ms (the
///   client's retransmission starts the backups' campaign at once); the
///   mute r0 rolls back all it executed alone;
/// - leader-crash-recover: view 1, 8.55 → 8.49 ms; the restarted r0 rolls
///   back what it executed alone, catches up by one state transfer
///   (answering the clients for what it covers) and, a suspect of view 1,
///   stays there (10 executions instead of 20);
/// - partition-heals: view 1 instead of 2, 20.5 → 8.5 ms; r0, cut off from
///   its successor, rolls back what it executed alone, catches up by one
///   state transfer (answering the clients for what it covers) and stays
///   a suspect of view 1 (6 executions instead of 20);
/// - backup-crash: view 3 instead of 2, 56.4 → 16.4 ms;
/// - f2-two-leaders-crashed: view 2 instead of 5, 44.6 → 12.7 ms.
const GOLDEN: &str = "
pbft zero-knob 1c99fa5f6481c8e10b5bee343098feea350f633e916923d183fc191b624d50d1
pbft leader-crash 6a6684d9f02f9ac4c667f8bd62652289361b0bafa1ed9846d5c69b7fbd6869f4
pbft leader-crash-recover 274c50b84cc606e5224675e732bfe0b344bf908ea6007d36488da54334904a72
pbft leader-mute 177c5ab8d6c66cd6aef1483ff13b22c0bdd7154534df45449c9460a6e628d3bf
pbft backup-crash c00e92ffeedc02049cd29536c82db8b29a7be7b8f47341d52e5f022a59b10f0f
pbft partition-heals cb438a8ac843ef085aeb27ba3c20451acf754933648a6a9142b4ecef4aa98b35
pbft lossy-pre-gst 68bec9218b15a4a4631912838318da1b5b91bcf0d4cfefc91d84c273ff64d9c7
pbft f2-two-leaders-crashed f6acd739c6b587c2ea83b02e104dc941c0ce35a87d876aed400f4f506a6fa10a
pbft-ro zero-knob e3c18758886cbc87aa4cdfee7224e41ef4cf7becdf6bbd64a3a2a27253a615aa
pbft-ro leader-crash be9cd78969739bacb3777173c2427bf5a805cb0d14a4c99dc58f260e6777074d
pbft-ro leader-crash-recover 18b76ad9d0388b40893cd2e9de439ba2a97e273745859b5af2ddf86870afe467
pbft-ro leader-mute 075d4db5c1bd173efb2c3307b256e2ef97069c4fb082c03db3045ebc4cc03457
pbft-ro backup-crash 44921fe7c3032130635f45336844417925af83fcf69a022e942aa87676d92d26
pbft-ro partition-heals a18e93b63e34927d81490bf303adf2b2724a6115afb2313354f05db0b2df1b2a
pbft-ro lossy-pre-gst 82e2a171813b76763a3ec4a59136e7a7db0c1da8d95c5780f8acc5492a68d107
pbft-ro f2-two-leaders-crashed 39ef411179e8a617ce37f88c5dcd6e7913162978efee8867052a183c01647cc3
zyzzyva zero-knob d5486b63482e1ec8f2a17735d11b7f77badfe4a1b6322dce9ed580f4e709202c
zyzzyva leader-crash 618843a1fb9f3206fba68e26f87851bc93f2acfe8c3f29058980f366b19cc03e
zyzzyva leader-crash-recover 9d1a0ccd0234ea274b97699445814a204246e07219fe293c9668812fa66d7eb2
zyzzyva leader-mute a6db1f76e6f1d86f8f7667dc388f73e43ce4bba28826d38797b6f9dcb8fed4b3
zyzzyva backup-crash cd481b973394fd222193cf892b08afd92a50ccb695fe04ec513f7d913c19fb06
zyzzyva partition-heals 6ccfc9f60e492db1aff7e309e9c6c6a3aa365d3c5da5c00f564cb83a002f81be
zyzzyva lossy-pre-gst 4b19c61c5ecf5d2f2e8bc6f66496da07fe48786728ac0c1c4532436282d219a6
zyzzyva f2-two-leaders-crashed b5e70d3efd1282b72b2c6cc64c573f25715e7ac652cba10286b95b8713c42865
zyzzyva5 zero-knob ac29dd207471805214ee30c3cdf65616518316d199fd58cef8bed5a815d4665a
zyzzyva5 leader-crash e3c89bc15f5e9c882843b45a5dd9d9471fc2cf698aa12bea6680d92bed41b111
zyzzyva5 leader-crash-recover ddeea01ba59eb6085707010ce2a5a030df1c56de9e31f175b9e0699bd23b6465
zyzzyva5 leader-mute 1104761852c15b545d40d657529577b470b06c089f3cc99ab36a91e46535f7a1
zyzzyva5 backup-crash b902e39928e2083580c84abf33c42bad90b40fab0dfdcdb864a00230393bef86
zyzzyva5 partition-heals 1bb5d612562da9b3adece2fef12268462a35cff16a36c69875268a178472a367
zyzzyva5 lossy-pre-gst 5179b658d6e896c01e4d8e519510d836594cf143f010354f98b9cdb484f08b5e
zyzzyva5 f2-two-leaders-crashed 0edacbf2f80d6701018f408755a2ae5e39c9a9f7059af85a93cdcef11173851a
sbft zero-knob 2609ebadc6dbb78da9f7add391a873f3403a13739a1a2d23232c4d77cf6908ac
sbft leader-crash 59d2904bfeeb0c7722f207b59efb610ed73bc60b57a916ec7d747927099bb0d2
sbft leader-crash-recover c625d0d0c02c9bb878731c30e17644b8175b5a34221c56b8355b60e57bd121d6
sbft leader-mute d87b9162aa22bba3c052bfa2f3cacdb2c6314b57e66b897ffbfa9417dca44db2
sbft backup-crash d030c4418ba117da97ee34d4211eefd810a650e8226ca60f08956ceb53c3bb38
sbft partition-heals a7ccf80d39d004feefbb8392baf21ac6d3b18ed946977848b98ca187717c97f4
sbft lossy-pre-gst 2d2a714c5a36d5e4438be393c05a369d925d8ac959007fb2367313911b4d5d76
sbft f2-two-leaders-crashed 17fe09a4cbf20584fb2a3351cc933d5d3477ba4921e82152477e3efc2731c33f
hotstuff zero-knob 9e8191c0d954679a7fb4581ebb2677f348addcd908a12dcd3125619419f76726
hotstuff leader-crash 71b089ee688b9c2b46182042bb4bbc4eca3f16482245b3e147b87838be030725
hotstuff leader-crash-recover 57c058dc5f2b0bb20f411aae7c9e67be4eb38cebf68d134a0ecca5a7207b6887
hotstuff leader-mute 212255518a6d2dc968413f549df121ae1214b273d55541305560564bd26e26a7
hotstuff backup-crash 0cb823ae6399de040639c56c60ec2783fb888373067d653fa130431b95560e5a
hotstuff partition-heals c256cbfb726fb5ed852d3e01b88646a8e0f8fe6628937219f7062d233e6f3493
hotstuff lossy-pre-gst 883324f79ac71f735577ae03bc9a6d3f60769666857ed5e1e10202d63e2da816
hotstuff f2-two-leaders-crashed 17bb5a93a3b25dbbcfa3216f870f5346b0a0a8855012856638cdbefc5212e31c
tendermint zero-knob 5ab80abaf47c11145a54695fb430e072f5ad325a943378cd2cf0f4fbe0b4969e
tendermint leader-crash 40925e4647a0e9150210517ac18fe730999c419f2a2d236a0dd4202eecfcc070
tendermint leader-crash-recover 22be4d1c7ad806ba77788dbfaff964b1d897412695ab21bbd0e315d09782cfec
tendermint leader-mute 5b7b9c2aafb73bda997914db39a7f4b9c929b86afd27585a38354e1b24ef551b
tendermint backup-crash 28e9b7272cdd13193a25618f5493f0a002f3bcb68d49078a05d39bd3d000a9dd
tendermint partition-heals c3cae9634f7d24b6e38feef0f54c862b4a47a3b350a908e817deec7ca2991d00
tendermint lossy-pre-gst e915a89500c097e50498f2252ce612cebdf74bf502d107c114b7c640f0b4c61c
tendermint f2-two-leaders-crashed e694e8ebb9b23dd20988cbcdcb8563cdb60e8d09c3c06890e0cc175ff8fda552
tendermint-il zero-knob 0177e5802046bc8e68d982cb4b52c9c561e1c7bae1a78bba2fc6a1d5259c3701
tendermint-il leader-crash 59920820392d2590a5352f0dd23912834026e3a8bc408d878a099b022457bc08
tendermint-il leader-crash-recover 3422f17cd624e250bd499a390d028b6c848a5e040d13c669f568f494d4ef9677
tendermint-il leader-mute b5c5be51194daf1bd52dbe384a6a01cce6809f95cf6b2aeba8c977e09e4c5d69
tendermint-il backup-crash 4599d3198d01d4a91875c97d74cf1613a074f0b0566ee5fb2d696fbc8310a8a5
tendermint-il partition-heals 567960aeb3fd8db7538c8957a03bf46bc3ad20604259929b8103ad2d168149b8
tendermint-il lossy-pre-gst b4bbc469bfb7853f2c2b49389d4ccbb6ad4536c50b54bb8863d7c29d94f85ffa
tendermint-il f2-two-leaders-crashed 6b6fd678aaef13232e7ea7a296af21ec644ca75c84bdb0d5dd9c9bf4759d6a58
poe zero-knob 1bfb7379c2c5a07a4a27f72b841179f06ef19e94eb31901bbabfccad0fd5cab9
poe leader-crash 82da1333ecf96e87dfa78eb3acfc9df7684225f9b8032ec2d17436d1238b9dc9
poe leader-crash-recover fb820763e367464de83a6007a3ff4cd8fbb48055bd8aac5b6b705912c75c56c2
poe leader-mute 174985403f8d6daeb20967bce8a413c0a796da25efe3d0ad3b8afec2949b8ba2
poe backup-crash f43c364a607006b113695c928a50d3dc3d7cf6e81261514856110d9c6a83c5a6
poe partition-heals 615397c302ae8047c0a54992912071f259d1e500ce1a0fd49d76c77e830b7cec
poe lossy-pre-gst 45d926f420a5bba5513b6e7ea55795c84df44aedf7dde2b1a962c0faf2d68b41
poe f2-two-leaders-crashed b7f4be44e61a613e8411e4fbaeb3f9a41468cafd9a449b8395ee9875cac60918
cheapbft zero-knob e7e362fdb8e4bb829afe7880fda78679438c54903c7991bbfee57031a3d13fcf
cheapbft leader-crash 576585dbb229d2a853cb85e1a42dbf1b5028b38e0fd551dff9a44608eef2c962
cheapbft leader-crash-recover 5bb69930316f4b2bcccce76ecf267dabba07b6dc4167c7a3af3af321e9db4311
cheapbft leader-mute 7f0136303b7648d2ea894f2e57a767d9fbac62170c601aebeb8898dda39ba837
cheapbft backup-crash 8e86c993b0625ea11fced835fb1cbf4ff76e8a9f49fed434ec9988d2289107bb
cheapbft partition-heals 8a6350683447f57b015b855713bc78a25fbfa84989e5c329694451a9466a7f5a
cheapbft lossy-pre-gst e092071ac5e3286848ce01e6ad8117fab58341d8d3d6e2b4a1986c8c2d46e2c8
cheapbft f2-two-leaders-crashed c7dbeae36693ff6b3efe8a6d463e84bfdbce3604d67270ebef5fa9c2079d59f2
fab zero-knob 1f1227855a28e09a2168c86ac019ced83a4714096b1ae0bcd720a8fe67504aae
fab leader-crash a5305a8f923f2328a16c54b6a802f5b58f3ea0ae47ed80688e36bca8652c81dd
fab leader-crash-recover ba55fa33085a4c8dfcdaad1a73151e2d56a122dc88cd9f3b30c98202ebf1f7dd
fab leader-mute 884e83fdfc9b78d123e34cc7d2a5be1688fdc30aa3506c574fdac37b9e366c39
fab backup-crash fbba2e5e57d980cc111bd04ee0c8fa27ddbe51585882be24c791c6fa23c871eb
fab partition-heals d351e0136a47d2bbb7dc52dc3418dbefdf28bd03ea75a67b2fd47a5bdafd01b4
fab lossy-pre-gst 76265487f05a020cbb21ca864d600d7e3962075e41fc3b6906f44bc4d7bde17e
fab f2-two-leaders-crashed 389971a7dc9fd59f9c001b7506c2f1ab621698646fe26a737966922eebab8432
prime zero-knob 4234154f8fa55cec330499d5b3de22b517a96175dd88eb32d3a9c1cadb4375b8
prime leader-crash 8a376701fbd991fdb89f1e12eb4a42a4da59e272c2b6b4e89d4670c0a91e44a3
prime leader-crash-recover 780f7960079eea4db6822baa904da53623a8355fd504803eff32a4c02bdd978a
prime leader-mute 44e8b9cc8415c20241ec509b18baa4692d6af92ee8f7c7557e7a5a075272ae97
prime backup-crash 99cdcc84b5b56063c38b57c2cadb6fa6faec0868fd3821685539e257cd5439f9
prime partition-heals 65c1174bc71a33be3fa8bd1a71577272400f17b335e60217a5534c78d365234f
prime lossy-pre-gst b19638af0718071baddf82e2de77003d946f9b3fe3a9a1bdd0355efc75891921
prime f2-two-leaders-crashed 5fccbc2cd09390f638f397dbbf3ffc4058ebb84fa3c26efb0a0a911fdf4d65ed
fair zero-knob 26b9bfca6fcf022c3d11b90318803fcba79001217bb9c7b120efc0c4b807d0b5
fair leader-crash ca24b9d49f26c2bea6bd89b5630c86b5b3221084dc6b5d04b9e64d275f277d00
fair leader-crash-recover 86cb55bf5cacf289f5937bc79c6f29011e438122a00bbc1810e5a987f496b4ea
fair leader-mute b5ed0c975fdf4ab603d26cf03b3ec8b4dc2e36c8196d894a5bba3761d36faf34
fair backup-crash 3b60db5ef018d9743f9f75c60a3ab0295a099226e3744ed6373afbb9a6b85032
fair partition-heals 9291c6a4bf23855b561cb9696e5e436882515ed349da86a09abbf769e4718b6c
fair lossy-pre-gst dc1f250a8fc19a1df7ff7549323488dc520f86b774202832280302a920b34ea5
fair f2-two-leaders-crashed a751246eb818df235b2beca851bb8367c9038da2f6e6173003fb8f76cb8b9e0c
kauri zero-knob 3f94f84e6728f53236568ed022e666c17a6777003666556e5c3da047a1b3e973
kauri leader-crash 50bf7e6a3d103047598eaaee7b37c8a4c663a28e4f28baa541a91e1ac66c4cf1
kauri leader-crash-recover d26f9f2c1163992a629ed8fce3fbbf82a85e01860093e7fa7769eb89ff31a5d9
kauri leader-mute 964836288a04ddd0e3058e24dda2f90e6e7cb0c701a01ce770ebdd44c5deb551
kauri backup-crash 4ead1a6c13ed17165aa6ba38ec61ac8cf7927b6e31b65d687d6b14a8565cced2
kauri partition-heals b9571fee04e59143537e3b0c05973f0759445c47711d7ce75fcf0013b454646f
kauri lossy-pre-gst 2e7075a0199e6a234e2b272d8eeb7c38ec3876f9890d89171d02f8c4c7d93c82
kauri f2-two-leaders-crashed c31f2f983274d159be47c170ae2647326b15884012d7dd06eace8285ff24af85
qu zero-knob fb9b6552ea1aa05be29264a62c4acebf19fe999ec4b827a837407e79ce15fdfa
qu leader-crash d3e349a3f144521442632d3af1e950a21fa8b1fb1b8ce0f414b22ed782278603
qu leader-crash-recover 93cd045b2e4126ca8c6cbbeb460ec09768519d925c95ac24d0b16fc2c6e49a61
qu leader-mute da86e05d9dfc09062568d5cd8763f5e22d7285cb423c1eff80a5944565fcc508
qu backup-crash 8e92a2a89cbf1b0f3ca2d026333bb4f656a00239d85c554f567fb648dce6b297
qu partition-heals fb9b6552ea1aa05be29264a62c4acebf19fe999ec4b827a837407e79ce15fdfa
qu lossy-pre-gst 0a9e88a762c31d5d296d55adc90944dc41ad6280212621f5ff0aaba7106a68d0
qu f2-two-leaders-crashed 89ea6b3edd3ec7db95969d2981170215db247fc11c1fae7158456346b26f76c4
minbft zero-knob 0d6310bb4a27b4f44572c3d5ada51a184ffbbc830e28cc9666031f8969867126
minbft leader-crash 8b6bf99cd74cf7c4d90fbe97b3f8a1fa9dfb5b2a6783d1c3f44cad149466ef10
minbft leader-crash-recover b07bbacc67ff572743fd66ae3580b49d0d940decd007eb1aa655bbbf0894a3df
minbft leader-mute 44bcf2d1077fe28a6937965ebb1fa5238068556e241adfc90040945cae292c5b
minbft backup-crash 9edb829b9a428081d37e8020be2ae9a2fd2211cb7ae68226683cf44bc243fa6f
minbft partition-heals f6664bec938459b35fc7955aa2d076829ec29ce445065d294e84018be268ee79
minbft lossy-pre-gst 84a21f3b827ddd23804c5118fbb8b1b0b8b08cf99bf7f147d7803d4078ecba98
minbft f2-two-leaders-crashed f76da04376e220bc86b564ef64786150a38b94ffcee2677c98c13e8940b4c30d
chain zero-knob 817f42a9808f99e373047bd46e0c82927e7a759399360a08322de8180f6066f5
chain leader-crash aeddcfa0b7840351dc27e8902f34d2702bc5448138aa502b11679e24aeba2f67
chain leader-crash-recover fb8ca17c3f6d90c89e1ff7cc5638b2b8d6e2e7aad4290a31acd14bfab1a276df
chain leader-mute 8a778759d0b7a9ed8d69ece8878921f72fd9e7c5563452f17d3a266d546ad910
chain backup-crash 446d59419672404c0e51575b56d3644dfe44e688b07b5e633546d8cb2ab46560
chain partition-heals a0ff451fae77866d981fad97306a5e0108113a63a5cfd83f8941a5a5ad233847
chain lossy-pre-gst 4ef56059ed82c4d167337a1969c38e2d4fb55d46c679f94589911f08e0e67c63
chain f2-two-leaders-crashed 66f8de7b8e77c887984ddff1be55970261bbdc558f747397d2a48d1d723cd5ab
";

/// The rows of [`GOLDEN`] whose scenario label `keep` accepts.
fn goldens(keep: impl Fn(&str) -> bool) -> Vec<(ProtocolId, &'static str, &'static str)> {
    let by_name: BTreeMap<_, _> = registry().iter().map(|e| (e.name, e.id)).collect();
    let mut rows = Vec::new();
    for line in GOLDEN.lines().filter(|line| !line.is_empty()) {
        let [name, label, digest] = line.split(' ').collect::<Vec<_>>()[..] else {
            panic!("malformed golden line: {line}");
        };
        if keep(label) {
            rows.push((by_name[name], label, digest));
        }
    }
    rows
}

#[test]
fn zero_knob_sim_runs_match_their_semantic_goldens() {
    let rows = goldens(|label| label == "zero-knob");
    assert_eq!(rows.len(), registry().len(), "registry size drifted");
    for (id, _, want) in rows {
        let got = id
            .run(&Scenario::small(1).with_load(2, 10))
            .semantic_digest();
        assert_eq!(got, want, "{}: zero-knob run drifted", id.name());
    }
}

/// The fixed faulty scenarios [`GOLDEN`] pins, by label. Each forces (or,
/// for the backup crash, must *not* force) a view change; the virtual-time
/// budget is cut to 5 s so a run that stalls stays cheap.
fn faulty_scenarios() -> [(&'static str, Scenario); 7] {
    let ms = |n: u64| SimTime(n * 1_000_000);
    let (leader, next_leader, backup) =
        (NodeId::replica(0), NodeId::replica(1), NodeId::replica(2));
    let base = |f: usize| {
        let mut s = Scenario::small(f).with_load(2, 10);
        s.max_time = SimDuration::from_secs(5);
        s
    };
    let mut lossy = NetworkConfig::lan().with_gst(ms(30));
    lossy.pre_gst_drop = 0.2;
    [
        (
            "leader-crash",
            base(1).with_faults(FaultPlan::none().crash(leader, SimTime::ZERO)),
        ),
        (
            "leader-crash-recover",
            base(1).with_faults(FaultPlan::none().crash_recover(leader, ms(2), ms(60))),
        ),
        (
            "leader-mute",
            base(1).with_adversaries(vec![AdversarySpec::new(0, Attack::mute())]),
        ),
        (
            "backup-crash",
            base(1).with_faults(FaultPlan::none().crash(backup, SimTime::ZERO)),
        ),
        (
            "partition-heals",
            base(1).with_faults(FaultPlan::none().partition(leader, next_leader, ms(1), ms(80))),
        ),
        ("lossy-pre-gst", base(1).with_network(lossy)),
        (
            "f2-two-leaders-crashed",
            base(2).with_faults(
                FaultPlan::none()
                    .crash(leader, SimTime::ZERO)
                    .crash(next_leader, SimTime::ZERO),
            ),
        ),
    ]
}

#[test]
fn faulty_runs_match_their_semantic_goldens() {
    let scenarios: BTreeMap<_, _> = faulty_scenarios().into_iter().collect();
    let rows = goldens(|label| scenarios.contains_key(label));
    assert_eq!(
        rows.len(),
        registry().len() * scenarios.len(),
        "registry size drifted"
    );
    let moved: Vec<String> = rows
        .into_iter()
        .filter_map(|(id, label, want)| {
            let got = id.run(&scenarios[label]).semantic_digest();
            (got != want).then(|| format!("{} {label} {got}", id.name()))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "faulty runs drifted:\n{}",
        moved.join("\n")
    );
}

#[test]
fn default_engine_is_sim_and_kind_round_trips() {
    let scenario = Scenario::small(1);
    assert_eq!(scenario.engine, EngineKind::Sim);
    assert_eq!(EngineKind::default(), EngineKind::Sim);
    assert_eq!(
        "threaded".parse::<EngineKind>().unwrap(),
        EngineKind::Threaded
    );
    assert_eq!("sim".parse::<EngineKind>().unwrap(), EngineKind::Sim);
    assert_eq!(EngineKind::Threaded.to_string(), "threaded");
}

/// A threaded-engine scenario for one workload family. The synchrony bound
/// Δ is enlarged to wall-clock scale: on the threaded engine Δ drives the
/// client retransmit (4Δ) and every protocol's view timers, and with all
/// node threads timesharing a small CPU budget a microsecond-scale Δ would
/// trigger spurious retransmits and view changes. 200ms keeps timers far
/// above scheduling noise while real deliveries stay sub-millisecond.
fn threaded_scenario(entry: &untrusted_txn::protocols::suite::SuiteEntry) -> Scenario {
    let mut network = entry.network.clone();
    network.delta = SimDuration::from_millis(200);
    entry
        .scenario(1, 1, 4, 11)
        .with_network(network)
        .with_engine(EngineKind::Threaded)
}

#[test]
fn threaded_engine_semantic_smoke_matrix() {
    // All 17 protocols × all 4 workload families on real OS threads; every
    // run must complete and pass the same consistency checkers the sim
    // engine is held to. Ordering across nodes is wall-clock here, so this
    // checks semantics, not byte-level determinism.
    for entry in registry() {
        for family in workload_suite() {
            let scenario = threaded_scenario(&family);
            let out = entry.id.run(&scenario);
            assert_eq!(
                out.log.accepted(),
                scenario.total_requests() as usize,
                "{}/{}: threaded run incomplete",
                entry.name,
                family.name
            );
            assert!(
                out.metrics.wall_threads > 0 && out.metrics.wall_elapsed_ns > 0,
                "{}/{}: threaded run did not record its threads and wall time",
                entry.name,
                family.name
            );
            let violations = check_run(entry.id, &scenario, &out);
            assert!(
                violations.is_empty(),
                "{}/{}: {violations:?}",
                entry.name,
                family.name
            );
            SafetyAuditor::all_correct().assert_safe(&out.log);
        }
    }
}
