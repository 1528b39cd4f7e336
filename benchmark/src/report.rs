//! Metric definitions, the host-shape header and the output format.
//!
//! The tables here are the single source of the metric names, units,
//! directions and bounds: `BENCHMARK.json` is generated from them
//! (`repo-benchmark manifest`) and a test keeps the committed file equal.

use std::collections::BTreeMap;
use std::process::Command;

use bft_protocols::ProtocolId;
use serde::Serialize;

use crate::clock::CPU_CLOCK_NAME;
use crate::workloads;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// What it measures.
    pub what: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound,
        what,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Bounds come from `BASELINE.md` (two sets of ten runs on the seed
/// commit).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def(
            "setup_s",
            "s",
            Lower,
            Some(0.25),
            "input generation + one construction run per protocol, median of repeats",
        ),
        def(
            "cpu_us_per_req",
            "us",
            Lower,
            Some(0.20),
            "process CPU (all threads) over the timed region / accepted requests, median of passes",
        ),
        def(
            "req_per_s",
            "1/s",
            Higher,
            Some(0.20),
            "accepted requests / wall seconds of the timed region, median of passes",
        ),
        def(
            "vt_lat_p50_us",
            "us",
            Lower,
            Some(0.02),
            "median submit->accept latency in simulated time (open loop: from due time)",
        ),
        def("vt_lat_p99_us", "us", Lower, Some(0.02), "p99 of the same"),
        def(
            "peak_rss_mb",
            "MiB",
            Lower,
            Some(0.15),
            "VmHWM of the workload's process at exit",
        ),
    ]
}

/// The three per-protocol metric families, expanded over the registry.
pub const PROTOCOL_FAMILIES: [(&str, &str, &str); 3] = [
    (
        "us_per_req",
        "us",
        "CPU per request in sim-all17-short shape (build + run + check)",
    ),
    (
        "msgs_per_req",
        "count",
        "replica messages per request (exact)",
    ),
    (
        "slowdown_4x",
        "ratio",
        "us/request at 400 requests/client / at 100 (1.0 = linear)",
    ),
];

/// Name of a per-protocol metric.
pub fn protocol_metric(protocol: ProtocolId, family: &str) -> String {
    format!("protocols.{}.{family}", protocol.name())
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let l = |name: &str, unit, what| def(name, unit, Lower, None, what);
    let mut v = vec![
        l("crypto.sha256_64b_ns", "ns", "sha256 of 64 bytes"),
        l("crypto.sha256_1k_ns", "ns", "sha256 of 1 KiB"),
        l(
            "crypto.digest_of_request_ns",
            "ns",
            "digest_of(&Request): stable encoding + sha256",
        ),
        l("crypto.hmac_1k_ns", "ns", "hmac_sha256 of 1 KiB"),
        l("crypto.mac_ns", "ns", "hmac::mac of 64 bytes"),
        l("crypto.sign_ns", "ns", "Signer::sign_value(&Request)"),
        l("crypto.verify_ns", "ns", "sign::verify_value(&Request)"),
        l("crypto.threshold_share_ns", "ns", "ThresholdSigner::share"),
        l(
            "crypto.threshold_combine_9of13_ns",
            "ns",
            "ThresholdScheme::combine, 9 shares of 13",
        ),
        l(
            "crypto.threshold_verify_ns",
            "ns",
            "ThresholdScheme::verify",
        ),
        l(
            "crypto.hash_per_req",
            "count",
            "Hash charges per request (exact, counting run)",
        ),
        l(
            "crypto.mac_per_req",
            "count",
            "MacGen + MacVerify charges per request (exact)",
        ),
        l(
            "crypto.sig_per_req",
            "count",
            "Sign + Verify charges per request (exact)",
        ),
        l(
            "crypto.threshold_per_req",
            "count",
            "threshold share/combine/verify charges per request (exact)",
        ),
        l(
            "state.execute_put_ns",
            "ns",
            "StateMachine::execute of a Put on a 1000-key store",
        ),
        l(
            "state.execute_get_ns",
            "ns",
            "StateMachine::execute of a Get on a 1000-key store",
        ),
        l(
            "state.snapshot_100_keys_us",
            "us",
            "StateMachine::snapshot at 100 keys",
        ),
        l(
            "state.snapshot_10k_keys_us",
            "us",
            "StateMachine::snapshot at 10 000 keys",
        ),
        l(
            "state.snapshot_50k_keys_us",
            "us",
            "StateMachine::snapshot at 50 000 keys",
        ),
        l(
            "state.speculate_rollback_50_us",
            "us",
            "50 speculative executions + rollback",
        ),
        l(
            "state.install_snapshot_10k_us",
            "us",
            "StateMachine::install_snapshot at 10 000 keys",
        ),
        l(
            "core.next_txn_uniform_ns",
            "ns",
            "Workload::next_txn, uniform keys",
        ),
        l(
            "core.next_txn_zipf_ns",
            "ns",
            "Workload::next_txn, Zipfian keys",
        ),
        l(
            "core.reply_collect_ns",
            "ns",
            "ReplyCollector: two matching replies to an f+1 quorum",
        ),
        l(
            "sim.ping_pong_ns_per_event",
            "ns",
            "Simulation event loop, 1M ping-pong events",
        ),
        l(
            "sim.timer_churn_ns",
            "ns",
            "per timer fire: set two, cancel one",
        ),
        l(
            "sim.fanout_63x1k_ns_per_msg",
            "ns",
            "per delivery of a 1 KiB broadcast to 63 peers",
        ),
        l(
            "sim.empty_run_us",
            "us",
            "build + run + finish of a 1-request PBFT scenario",
        ),
        l(
            "sim.events_per_req",
            "count",
            "engine events per accepted request (exact on sim)",
        ),
        l(
            "sim.ns_per_event",
            "ns",
            "timed-region CPU / events processed",
        ),
        l(
            "checker.us_per_req",
            "us",
            "suite::check_run wall time per request",
        ),
        l(
            "audit.us_per_req",
            "us",
            "SafetyAuditor::check wall time per request",
        ),
        def(
            "threaded.req_per_s",
            "1/s",
            Higher,
            None,
            "rt-pbft-n4 wall-clock requests per second, median of passes",
        ),
        l(
            "threaded.lat_p50_us",
            "us",
            "rt-pbft-n4 wall-clock median latency, median of passes",
        ),
        l(
            "threaded.lat_p99_us",
            "us",
            "rt-pbft-n4 wall-clock p99 latency, median of passes",
        ),
        l(
            "threaded.cpu_us_per_req",
            "us",
            "rt-pbft-n4 process CPU per request, median of passes",
        ),
        l(
            "threaded.ping_pong_rtt_us",
            "us",
            "round trip between two echo actors on ThreadedEngine",
        ),
        l(
            "threaded.ping_pong_cpu_ns_per_msg",
            "ns",
            "process CPU per delivered message in the same run",
        ),
        l(
            "threaded.cpu_over_sim",
            "ratio",
            "rt-pbft-n4 / sim-pbft-n4 cpu_us_per_req",
        ),
        l(
            "threaded.open_2000_lat_p50_us",
            "us",
            "open loop at 2000 req/s: median latency from due time",
        ),
        l(
            "threaded.open_2000_late_frac",
            "ratio",
            "same leg: share of requests sent over one interarrival late",
        ),
        l(
            "protocols.msgs_per_req",
            "count",
            "replica messages per request (exact on sim)",
        ),
        l(
            "protocols.bytes_per_req",
            "count",
            "replica bytes per request (exact on sim)",
        ),
        l(
            "protocols.max_view",
            "count",
            "highest view entered (0 = no view change)",
        ),
    ];
    for protocol in ProtocolId::ALL {
        for (family, unit, what) in PROTOCOL_FAMILIES {
            v.push(l(&protocol_metric(protocol, family), unit, what));
        }
    }
    v.extend([
        l(
            "ledger.crypto_us_per_req",
            "us",
            "estimate: charged hash/sign/verify/threshold counts x unit costs",
        ),
        l(
            "ledger.engine_us_per_req",
            "us",
            "estimate: events per request x engine cost per event",
        ),
        l(
            "ledger.state_us_per_req",
            "us",
            "estimate: executions and checkpoint snapshots x unit costs, all replicas",
        ),
        l(
            "ledger.other_us_per_req",
            "us",
            "untraced cpu_us_per_req minus the three estimates: handler + driver",
        ),
        l(
            "trace.overhead_frac",
            "ratio",
            "traced / untraced cpu_us_per_req - 1",
        ),
    ]);
    v
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    #[derive(Serialize)]
    struct WorkloadRow {
        name: &'static str,
        why: &'static str,
    }
    #[derive(Serialize)]
    struct EndToEndRow {
        name: String,
        unit: &'static str,
        better: &'static str,
        bound: f64,
    }
    #[derive(Serialize)]
    struct PerLayerRow {
        name: String,
        unit: &'static str,
        better: &'static str,
    }
    #[derive(Serialize)]
    struct Manifest {
        command: Vec<&'static str>,
        paths: Vec<&'static str>,
        run_seconds: u64,
        workloads: Vec<WorkloadRow>,
        end_to_end: Vec<EndToEndRow>,
        per_layer: Vec<PerLayerRow>,
    }
    let manifest = Manifest {
        command: vec![
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ],
        paths: vec!["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: workloads::GATED
            .iter()
            .map(|w| WorkloadRow {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: end_to_end()
            .into_iter()
            .map(|m| EndToEndRow {
                name: m.name,
                unit: m.unit,
                better: m.better.name(),
                bound: m.bound.expect("end-to-end metrics carry a bound"),
            })
            .collect(),
        per_layer: per_layer()
            .into_iter()
            .map(|m| PerLayerRow {
                name: m.name,
                unit: m.unit,
                better: m.better.name(),
            })
            .collect(),
    };
    let mut json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    json.push('\n');
    json
}

/// How long one run measures by default, and what `BENCHMARK.json` tells
/// the driver to pass as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// One measured value, with the detail printed next to it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// The value (a median where the definition says so).
    pub value: f64,
    /// Quartiles, sample counts and the like.
    pub note: String,
}

impl Measured {
    /// A value with no detail.
    pub fn new(name: impl Into<String>, value: f64) -> Measured {
        Measured {
            name: name.into(),
            value,
            note: String::new(),
        }
    }

    /// Attach detail.
    pub fn note(mut self, note: impl Into<String>) -> Measured {
        self.note = note.into();
        self
    }
}

/// The shape of the host and toolchain a run was measured on. Two outputs
/// are comparable only when their shapes are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostShape {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl HostShape {
    /// Read the shape of this host.
    pub fn detect() -> HostShape {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostShape {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The header line.
    pub fn line(&self) -> String {
        format!(
            "# host nproc={} cpu=\"{}\" rustc=\"{}\" cpu_clock={CPU_CLOCK_NAME}",
            self.nproc, self.cpu, self.rustc
        )
    }
}

/// The commit of the repository this package sits in, when it is one.
pub fn git_commit() -> String {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "none".into();
    }
    let dir = repo.to_string_lossy().into_owned();
    command_line("git", &["-C", &dir, "rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".into())
}

/// Everything one run of one workload prints.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// `#`-prefixed header and gate lines, in order.
    pub header: Vec<String>,
    /// The metrics, in reporting order.
    pub metrics: Vec<Measured>,
    /// Every pass complete, checker-clean, safe and (sim) bit-identical.
    pub correct: bool,
    /// Requests issued over all passes.
    pub attempted: u64,
    /// Requests failed over all passes.
    pub failed: u64,
}

impl RunOutput {
    /// Render: header, one `metric` line per value, then the result
    /// object as the last line.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        #[derive(Serialize)]
        struct Value {
            value: f64,
            unit: &'static str,
        }
        #[derive(Serialize)]
        struct ResultLine {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: BTreeMap<String, Value>,
        }
        let mut text = String::new();
        for line in &self.header {
            text.push_str(line);
            text.push('\n');
        }
        let mut metrics = BTreeMap::new();
        for m in &self.metrics {
            let def = defs
                .iter()
                .find(|d| d.name == m.name)
                .unwrap_or_else(|| panic!("metric {} is not defined", m.name));
            let unit = def.unit;
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            let note = if m.note.is_empty() { def.what } else { &m.note };
            text.push_str(&format!("metric {} {} {unit}  # {note}\n", m.name, m.value));
            metrics.insert(
                m.name.clone(),
                Value {
                    value: m.value,
                    unit,
                },
            );
        }
        for d in defs {
            assert!(
                metrics.contains_key(&d.name),
                "metric {} was not measured",
                d.name
            );
        }
        let line = ResultLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        };
        text.push_str(&serde_json::to_string(&line).expect("result serializes"));
        text.push('\n');
        text
    }
}
