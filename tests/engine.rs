//! Engine-API tests: the sim engine's byte-identity guarantee across the
//! Context/engine refactor, the default-engine contract, and the threaded
//! engine's cross-protocol semantic smoke matrix.

use untrusted_txn::prelude::*;
use untrusted_txn::protocols::suite::{check_run, workload_suite};
use untrusted_txn::sim::SimDuration;

/// Serialize a run exactly the way the bench/report paths do (log JSON,
/// NUL, metrics JSON) and hash it, so any byte-level drift in either
/// stream is caught.
fn run_digest(id: ProtocolId, scenario: &Scenario) -> String {
    let out = id.run(scenario);
    let log = serde_json::to_string(&out.log).expect("log serializes");
    let metrics = serde_json::to_string(&out.metrics).expect("metrics serialize");
    let mut buf = Vec::with_capacity(log.len() + 1 + metrics.len());
    buf.extend_from_slice(log.as_bytes());
    buf.push(0);
    buf.extend_from_slice(metrics.as_bytes());
    untrusted_txn::crypto::sha256(&buf)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Golden digests captured on the pre-refactor tree (commit `014daa2`,
/// before the Context/engine split existed). The zero-knob sim path must
/// keep producing these exact bytes: same RNG draw order, same event
/// interleaving, same serialized log and metrics.
///
/// One row has been re-pinned since, with the seven `qu` rows of
/// [`FAULTY_GOLDEN`]: Q/U's convergence probe (`StableCheckpoint
/// .state_digest`) became an incremental set-hash of the object table
/// instead of a hash of the whole table per answered request. A field-level
/// diff of the eight runs' logs and metrics against commit `db65181` showed
/// the bytes of `state_digest` as the sole difference in every one (same
/// entries, same order, same times; equal states still carry equal digests
/// and unequal states unequal ones).
const GOLDEN: [(&str, &str); 17] = [
    (
        "pbft",
        "9f8d4d90aff314c120ecffe4439f49d0d849968fce88f1c36401d17dad99e5d5",
    ),
    (
        "pbft-ro",
        "5c86128bdf7d4e7d3e32feafbf3d4ea462cc0219b7d0237127fe27e906d60ab6",
    ),
    (
        "zyzzyva",
        "41c569602a77d70c0d98537978ce31b1ef8e50ea8b396dafc60545acfdfb2de4",
    ),
    (
        "zyzzyva5",
        "66f976bbb5a80c08f13981173e090575676a03fa10dcd98828eccf704b21814d",
    ),
    (
        "sbft",
        "6f82bd9289d2d20564963cc4f09520e5e13bda2605958eaf9213b39f4d505c4c",
    ),
    (
        "hotstuff",
        "954240626d1c1da144fd3e4986a342251f87e8b5bd9b54adcec8bd62dd10d4ef",
    ),
    (
        "tendermint",
        "d998d22e08e544ed30fae3bc026b96b683f8920230436e5c8b3e687525e86031",
    ),
    (
        "tendermint-il",
        "a01ff054cc7257b04df9753625882c20e59fa6bb8fa887a8b67ecb2e97092f98",
    ),
    (
        "poe",
        "77e74487d46a44f129a8fa3d8c37b925265df21e1c6f38e259ba77c43b621be5",
    ),
    (
        "cheapbft",
        "6750d91181aaeb0b8928fd117820ed2d4da4e0f806289a812ee2cc75cbaeed45",
    ),
    (
        "fab",
        "df90a936224149b24c6815f5bdd4cabe4c997349e00754bff39874a8f9a65463",
    ),
    (
        "prime",
        "d91c3370c8a9d71669bb6aed30b87903c0693698ce8b7aaa6005db354351dfb9",
    ),
    (
        "fair",
        "457f55cba818e0e3ef919c51b5d04dda92f3c5458cdbafeadde7c70e16ae8dfc",
    ),
    (
        "kauri",
        "9a63ce0898e6c6abbc1c12e49d8e7a849527b4c26fa4fa0ad4f8c6bcd4baf7b1",
    ),
    (
        "qu",
        "b2b923415b5dcf6875b1f5a6a52b04b990973c78b26f38f30f78a1f6244fc23a",
    ),
    (
        "minbft",
        "8004b81840da740bcc0b21415db38fda612ec55ea33f06913b746e87df674676",
    ),
    (
        "chain",
        "3544bf7884bc7fc3d05046b479f6417752598d5a5c548a0652ac2eb467977288",
    ),
];

#[test]
fn zero_knob_sim_output_is_byte_identical_to_pre_refactor_tree() {
    let by_name: std::collections::BTreeMap<&str, ProtocolId> =
        registry().iter().map(|e| (e.name, e.id)).collect();
    assert_eq!(by_name.len(), GOLDEN.len(), "registry size drifted");
    for (name, want) in GOLDEN {
        let id = by_name[name];
        let got = run_digest(id, &Scenario::small(1).with_load(2, 10));
        assert_eq!(
            got, want,
            "{name}: zero-knob sim output drifted from commit 014daa2"
        );
    }
}

/// The fixed faulty scenarios of [`FAULTY_GOLDEN`], in column order. Each
/// forces (or, for the backup crash, must *not* force) a view change; the
/// virtual-time budget is cut to 5 s so a run that stalls stays cheap.
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

/// Golden digests of faulty runs — runs in which view changes, timeouts
/// and retransmissions happen — captured on commit `7686f8a`, before the
/// slot log and the view-change stage were shared. Rows outside a
/// protocol's tolerance envelope are pinned too (the digest of whatever
/// happens): the table is a differential, not a liveness claim. A moved
/// row is a behaviour change to explain in CHANGES.md, not to re-pin. Two
/// rows have moved since, both fixes: `sbft` and `prime` ×
/// `f2-two-leaders-crashed` stalled in the campaign for view 1 and now
/// escalate to view 2 and complete (the shared τ2 escalation rule). The
/// `qu` row is re-pinned for the set-hash `state_digest` (see [`GOLDEN`]:
/// no other field of the seven runs differs).
const FAULTY_GOLDEN: [(&str, [&str; 7]); 17] = [
    (
        "pbft",
        [
            "38f0ef71cd4f635a1da308913705db980afdc1a7ebc904350000bfe038d0b52f",
            "145bc07e46dc018488aba68eccbd034f5bff75fa4521aec1bf5a2d2a998f7cae",
            "e23e3ba094e3b2854c82e92c6466302164484de5ab79054f4e33cd4add8af782",
            "6e2863c7df8a37cb10dbd8006ae8e7f2f89334e81197de937f8126f2d9becc8c",
            "5342bb10614d23aa87ed8ebdeecb862645e229a321b3ce4fae7e9337bb2f4eb9",
            "bd9a3c1539b5a228577cef168c22db9849a129da1469e69fb9963d9a815ef4f1",
            "41b5c8b526658ff6ed7a916fb1af9609715433192befd8b16877c89a6aae3245",
        ],
    ),
    (
        "pbft-ro",
        [
            "61c85ce6005927b573f07993a9feda5a05bd74d06f2e891c217d48243c24ccf8",
            "8950ad6f86d97ab0a5e4b4ac0307b5aea4462f27124beb15c69ff793f77ded13",
            "44d188f2f2973e027a1631a14c536d0240d56bafb2ad4e49994b02c0a307be0c",
            "2031445bd89aaa61479445e6c89f152f095defd72284226f45b364a16b6413c9",
            "9d9f9ca41b93f7bc966d965fc5aee1b4ed3fa30a317e6c4e51dc23205dd98c13",
            "1db1ab1eba3238e7859222461608d665165d9e2fc6974708014e2fe3f22b2eec",
            "b33f468a6c25675cc5b48db2a23d50a1dcde92c719f716c93500719cf3cd671c",
        ],
    ),
    (
        "zyzzyva",
        [
            "ac7e3ddbe9f79ca5fd8d9c4dcb3f7af716f1f33ed96667af41d5efecf46d607d",
            "39b727914314d578e47b9e55c422cbf5a333a7442fa7b41f612fd49a5439c4c3",
            "22408a0c666b43e6c23cf5c68747a13524caa0f61328b44c55aca740e5287ae0",
            "ea474a1c02e0a532c81dc3cba5327f3cc8ad4c2b45013811a8825b99b1bd6f0e",
            "d9023d83e67636dc71dcc917f0c00ce8d685cc55a8acd3de3175ca73e8887999",
            "111efd6ed0531e53b3cf3326bc8f80f42dba2a6ce00312bf55b63cd1ef9ff32e",
            "13c6d6caea26e6619b7b4d65f1f244d390943b2869308f519edc54f428f69de6",
        ],
    ),
    (
        "zyzzyva5",
        [
            "1346f84c8d6d28acfc6b99171a0416e6d8b70ae2bb9f4c1aa1f5ee9ad544a180",
            "4e87c2a44aaa2270dccd21767054f89d493585be152f4e0bed31f2d4415a098e",
            "9048f56176903d869f7506dabcc3778c15005666054593278af5582ff0cec692",
            "42adac0acd8ee1990be2dc2a06e354705074ca05c8a287f3eaf71a6abcc803de",
            "8e1b2b8af19be2d99c91e7fd13b4703d8a41687e28081b3c8b1ed007050738f6",
            "3516a010b5c92d8a687a8deae3a3e7e78128d30ad4ed25fec1bcb1fa5fdc6c5f",
            "04cd966d7fe569ae42d3ed2f495b4740eab3afacac69f208440a5192340b4a3e",
        ],
    ),
    (
        "sbft",
        [
            "829c61fa34c1590d36cdd1f36f8905af8738ea45a86b4ae2ba7e3374adec449f",
            "da05d403910786200f8e5514908f8bb8d2e053efa3593a4ffc7cb70f207412f0",
            "ee031e6b4cceb1fc7e976786783ae9a4a72204b89d083bff8b6912bbc1de7593",
            "1fed9f4d6d1e13d4453b1875e03d9d3c5bf3ee1ee9e8c1159e653f37c66feda8",
            "c80494cee8ee1304cdf90b87697bc9442574e0b89062ba4455d1dda3a269eb1d",
            "47dc598dc6004d00529e72b13aa4476d541111269a0087ecdc7331a33cf84f28",
            "a3982809aeb5d9a919650021113687272eeb337bd7a709bcf3274d974ef4be45",
        ],
    ),
    (
        "hotstuff",
        [
            "c294b8f4954de1f3be3a77299030553fd6469b17cbdabf83d8f867e24525200b",
            "d533a72a6c30738f8c44fd6ba5c40dace306af10dea05c5f300d173d5ffbdc65",
            "9ad33e4f902fadd2e5369f878077924265f7c3af7ca10018a48b07aa498b47e5",
            "a2e1aa0ef23cd055293fb207dd510c46657b83800ada24d416c65145dddf8d4d",
            "bd79761bfab53bdd936d7864563eae2b95852d5534b2e4777f9243e660e0afc2",
            "977e04f0f85b8cc6b5206883991a2e06c821edbab17760d32bc81f6e3ec9993d",
            "7a321f8f3870545ac1610fc79f010acfe87dbd366a57803798cd5686e05e2286",
        ],
    ),
    (
        "tendermint",
        [
            "0f927b9db8d0ec39240756a34dec5399ae56ff73e4582340f0756ce32dfd527e",
            "ce11b63aaaab86a43332df104b2c0fce2f7a8f7a926790c48fd88a97c9dba95c",
            "424e8eff6454ceda31ab81cb9bd73035ad88fdeabbbc19e8cdbc4c4084d83ee8",
            "005132f611f6f8469eeaf0bbdc6638e34a9eb67745fff2c28c6b3ef0fafe8779",
            "9669a3d42619aa717b12079f7ac8da839e35f88bc9b3aafd42dc28c922c001e4",
            "73bba3904eec4980952e045040c7d8b3b12492a7a2cfafc776dc68eab0340001",
            "d6977b6e28d05664fc45b5f0bf99c7e3434133fb79bb376197f6a8cde2837841",
        ],
    ),
    (
        "tendermint-il",
        [
            "533fde444a2c1ab87dec977150c695ec322f2f2df670b2bbaa9cf8698c0fc585",
            "a07031482c876e98d84bafaef76d464ebc0e545a7878f7d8de16d522895b2bab",
            "bba9607532b4b65ee41b233fd141804e4129f839dfa848140224285da27dda91",
            "e0efe7bd7867024b1e71aefb13cf0c3c3fe41f712b4930dc3e18d22b31222c65",
            "7c6174a7d9deb47c0bf56c56a75a415ccc572fe2b5447599bb658ca60f533746",
            "d36c4c86bde11f5ba8c0ccdf96e5abb1e436e999466145d0cfc9fb24994e55c8",
            "ccd6b5e7b674f0c9d0a49670849a4630a8d3beb7cdf4c1bbc90e4084ba956bca",
        ],
    ),
    (
        "poe",
        [
            "57c07843ffeaccbc3438a0e244daf37b11fe91cad9216a0ca4a309f755878d18",
            "e8b5100e2b478ef7cd2c64cb7af0700758f147715d859246f91f6b547afbbeca",
            "94840c365114d123d3f1c9dc2b9ceeb0d9fdceee0b2a59e60db0e6d6e0bf80a0",
            "51f9fb93d88408cd0e65e2d3cca7388721084232ddfadb76d98891d441a40b3f",
            "78bbd414be8ca9cc0cfcf003476d4613064d81331dc6139c8f5c65b63704755e",
            "7f7ff6172a7144110ccec600dc53e50c5b6300df99e5f941274954438d69dfe2",
            "1f27353cddc41d1b7a24342d96fef786164d11c52a90304b43c265517374c5e9",
        ],
    ),
    (
        "cheapbft",
        [
            "140d18bc7b568a605a979ba4868e5a163ed6de7477de003e336ef078ed1d232f",
            "761edeb8219730b8aee5b89c4c5b2c7bb51b630b38a4cf655dbcf8905b993ef7",
            "df00f03c58773e0bd9db994cb116d170a06646e74c90dc3585a96a020acae997",
            "8e35aa3f715e5b7df021b8b7210094c00c4322bd24bfed60248ff217a382e1cc",
            "a2c315c42c9da622a59f8457529ac06ceb481c5e6c6fb73e024db53b60530940",
            "7d9145d960f02ed02d7eebf69281aedd8877f52ead2d8af6059e7374b2a6b44d",
            "9cd4da74a4dfcf712a0befb016ba43177f78fd23bf3175a0776b175cadcc5c75",
        ],
    ),
    (
        "fab",
        [
            "7936de36219be413a43c0755c2a48c27f412c9851a10280ba70c900e4124700c",
            "5e77737eea7f7f468b099de795252b1e943ab4bb21ed2fd0a88d6626f4288aa2",
            "6781432d173196ed13dee59bb28dc22cf5bbf3ff38c98f97c0712361b7934eb3",
            "a87b721fb020cee997bdd5063614c5a4d33afc75f329829d3fe21106900a23b4",
            "a0f597a375c8849ac1a1550f633965e8f183ace327430a1b700472e038ff6be5",
            "3a00aa65097a0f01f740c9a47a8ab824fdc48c5655b86d69430226d1033c6a45",
            "562d7669cc7d4abc4e582a01a5bd4e6963c1c0043516b52e35ace0aba5009a72",
        ],
    ),
    (
        "prime",
        [
            "e1c13f5208945259199261ce2865969b36594699db3bcab1ce03557d19e96a41",
            "79d0c6e20a68e9217f9cd86764880366e7b3afc9f986433f9c4ee11f066e3265",
            "8b69d81466dd4086ba20a6b86fec057a4f8d1795839fd3df854a102770c22335",
            "13c260b9393ee00111ebda68367d8524384b9bb89907637def31e00c8e97b3d4",
            "a0ead940d3cc426fdba79e2b37b9067b22704906a09af54ba074b182a164baa1",
            "829e82bcc20011419846f976e003979514b387b5200c5bb487ffdc0a3a597c10",
            "7398b0d599cfec10cc5efdf9200bf20851fdc3f247d7d3f34a29cf7837f11a6d",
        ],
    ),
    (
        "fair",
        [
            "6c4c08b5a191a6911bc85d48b0780a22133303eefd3ce1eeea955c0e1b9e8782",
            "8bbea47e0e7e51a52239bd782555b7aca8a81df76397ca8118c6b5b360199527",
            "28a533930aa6fa795ba55fd187210eec7b67e3a47e6f0a4ee700423970c81525",
            "5faf9dc14650892feb566dfbb7253792bc1136d5323948126ebc8ca50d6c48fe",
            "27b3d5d8b3483b0e7370f95acce8f9ca09b554aeb5df50e6d1d880e0fbd11ada",
            "07dc123f9c76923b97100a3e381d8ecc2de9d06c933a6901503c92eebde42b17",
            "ff66de8cf7713d2ce6dacc32cfc02aa11f7cccf798e45eec06ea9e7b13d22a79",
        ],
    ),
    (
        "kauri",
        [
            "e38715f062b1505a82b7b3b3e37155150342a203c67728bff66d6d8c7d7975ee",
            "2ffe4e8746eb38d4538c9a20000f901d8cf1520ccafd24dbb4ff89067f8fb1f9",
            "724916fad75aac20fae55dc722039fd79384bc2f7ee73aa74d76783debdc6775",
            "94d461e3ea206d6319c27332dd80ceaa77e80ff251406e18b7df8c7edd8e4b29",
            "d761342a0af818fe500a72ca15f03c856e99a97c25fe564c6627842bec6a768e",
            "c1ca0a7d8d0e7d9e93fb6fc80b652605ae3a711ec3fed6291423f7810e188ef6",
            "9e5ce5d0bff5108c797302db44df3456e683c9a5c16ac03b78c440fe0550afe1",
        ],
    ),
    (
        "qu",
        [
            "f049dcc0ea09f788d4e3fa37815b60618096ffbb62eacedd36c39d0bf6b20a58",
            "5fbc71aa5bc6021ec3633ca8c32feebe8929e02e71c72a3fff84d986d7d102e6",
            "6be3662d14405fe1a3cff6fede447efa65328ddcaaecff20cda6a81b1424a0ab",
            "0c2b321741d01cd38db47f0066406bb5499ae0a10f807b01b3d1b3ac30368f8a",
            "b2b923415b5dcf6875b1f5a6a52b04b990973c78b26f38f30f78a1f6244fc23a",
            "6cd48454e7d4e15b334d7d96db84c95e80a080e69c9b06a551b4141f87c62ec2",
            "484089e1ab978a676915697330351519e4946718164be10d6ede9d0c3293c935",
        ],
    ),
    (
        "minbft",
        [
            "8b75679f7b3f4575187847cd8b610369807c54355812a3aedde4b8404bd80ae1",
            "fd7fe18bed4658adc43d46ce403dd7d185b94b67956f0d6b1e55ebfd9eaaf757",
            "7d6c9d6442da719f6e44de83b14b27489899e537f28369ce107c1ce6f7791ec9",
            "4616c8a3f971eee19c6081f90b9fea5c1b88fe3b2168e230e25e5ec7b57bf46c",
            "832ed057ff105f81af192b518ce62fd86471e2a84df2109d70add688d0234153",
            "4d9341500073054d8275edba78a06c8716a9fd0d02fb5f6bc0ab1b05de63fb37",
            "1eaa2de2ca2b81bb7464f720113029f97fb92c0b16740ea1fc45f40d43ef7d3d",
        ],
    ),
    (
        "chain",
        [
            "c6832ead085d7416e3e1719a8a4e0f6ec05fdc5196a66c71242c011f5d350603",
            "3570c9927f69f90cd3e8ff31d5d0139deb0ad20785a918f7aec2d31f23a41b15",
            "b5e40074d293987407bee7f38c5e4a2f8a1bd14978fe18d21b007596f287178c",
            "91dda54d7f9c8098f1979b8c23a45aff8499d6d995438065aa1e9fac73f0e529",
            "e1d4fa22fbed7a4960cdf7f9d0cf42be33088c45471343ef876eae0fec07625d",
            "f35f7d4b4b60af6d13c8b3c37f25b1c5020dd9cc5ae3f117f9e9e86cf2d956e7",
            "15b8fa58e62e2e2e8b5e972026dd3351e3854620f9a5cf51c557e06bc043a9dd",
        ],
    ),
];

#[test]
fn faulty_run_output_is_byte_identical_to_pinned_tree() {
    let by_name: std::collections::BTreeMap<&str, ProtocolId> =
        registry().iter().map(|e| (e.name, e.id)).collect();
    assert_eq!(by_name.len(), FAULTY_GOLDEN.len(), "registry size drifted");
    let scenarios = faulty_scenarios();
    let mut moved = Vec::new();
    for (name, want) in FAULTY_GOLDEN {
        for ((label, scenario), want) in scenarios.iter().zip(want) {
            let got = run_digest(by_name[name], scenario);
            if got != want {
                moved.push(format!("{name} x {label}: got {got}"));
            }
        }
    }
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
                out.log.client_latencies().len(),
                scenario.total_requests() as usize,
                "{}/{}: threaded run incomplete",
                entry.name,
                family.name
            );
            assert!(
                out.metrics.wall_threads > 0,
                "{}/{}: threaded run did not record thread count",
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

#[test]
fn sim_metrics_json_has_no_wall_fields() {
    // The wall-clock counters are threaded-engine-only; on the sim engine
    // they are zero and the serializer must skip them so sim metrics stay
    // byte-compatible with the pre-engine format.
    let out = ProtocolId::Pbft.run(&Scenario::small(1).with_load(1, 3));
    let json = serde_json::to_string(&out.metrics).unwrap();
    assert!(!json.contains("wall_elapsed_ns"), "{json}");
    assert!(!json.contains("wall_threads"), "{json}");

    let scenario = Scenario::small(1)
        .with_load(1, 3)
        .with_network({
            let mut n = NetworkConfig::lan();
            n.delta = SimDuration::from_millis(200);
            n
        })
        .with_engine(EngineKind::Threaded);
    let out = ProtocolId::Pbft.run(&scenario);
    let json = serde_json::to_string(&out.metrics).unwrap();
    assert!(json.contains("wall_elapsed_ns"), "{json}");
    assert!(json.contains("wall_threads"), "{json}");
}
