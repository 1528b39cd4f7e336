//! One pass of a workload: run every case through the public entry
//! points, time the region the workload defines, and gate the outcome.
//!
//! The gate is the same on every pass, timed or not: every issued request
//! accepted, `suite::check_run` empty, `SafetyAuditor::all_correct()`
//! safe. On the sim engine a pass also yields an exact digest — events,
//! messages, bytes and the full latency vector — that must not differ
//! between passes of one run.

use bft_core::Arrival;
use bft_crypto::Hasher;
use bft_protocols::suite::check_run;
use bft_sim::{Observation, RunOutcome, SafetyAuditor};

use crate::clock::{Elapsed, Stopwatch};
use crate::trace::Tracer;
use crate::workloads::{Case, Workload};

/// What one (protocol, seed) case did.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case.
    pub case: Case,
    /// Requests the clients were to issue.
    pub issued: u64,
    /// Requests a client accepted a result for.
    pub accepted: u64,
    /// CPU and wall time of the timed region.
    pub timed: Elapsed,
    /// Events the engine processed.
    pub events: u64,
    /// Messages sent by replicas (the repo's message-complexity count).
    pub msgs: u64,
    /// Bytes sent by replicas.
    pub bytes: u64,
    /// Highest view any node entered (0 = no view change).
    pub max_view: u64,
    /// Semantic-checker violations (`check_run`).
    pub violations: usize,
    /// Safety-auditor violations.
    pub unsafe_commits: usize,
}

impl CaseResult {
    /// Requests that count as failed: not accepted, or accepted in a run
    /// the checker or the auditor rejects.
    pub fn failed(&self) -> u64 {
        if self.violations > 0 || self.unsafe_commits > 0 {
            self.issued
        } else {
            self.issued - self.accepted.min(self.issued)
        }
    }
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Per-case results, in run order.
    pub cases: Vec<CaseResult>,
    /// Submit→accept latency of every accepted request in nanoseconds on
    /// the engine's clock, in log order. Open-loop requests are timed
    /// from when they were due, not from when they were sent.
    pub latencies_ns: Vec<u64>,
    /// Open loop only: how long after its due time each accepted request
    /// was sent (the generator's lateness).
    pub lateness_ns: Vec<u64>,
}

impl PassResult {
    fn sum(&self, f: impl Fn(&CaseResult) -> u64) -> u64 {
        self.cases.iter().map(f).sum()
    }

    /// Requests issued.
    pub fn issued(&self) -> u64 {
        self.sum(|c| c.issued)
    }

    /// Requests accepted.
    pub fn accepted(&self) -> u64 {
        self.sum(|c| c.accepted)
    }

    /// Requests failed (see [`CaseResult::failed`]).
    pub fn failed(&self) -> u64 {
        self.sum(CaseResult::failed)
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.sum(|c| c.events)
    }

    /// Replica messages sent.
    pub fn msgs(&self) -> u64 {
        self.sum(|c| c.msgs)
    }

    /// Replica bytes sent.
    pub fn bytes(&self) -> u64 {
        self.sum(|c| c.bytes)
    }

    /// Highest view entered in any case.
    pub fn max_view(&self) -> u64 {
        self.cases.iter().map(|c| c.max_view).max().unwrap_or(0)
    }

    /// CPU and wall time of the timed regions.
    pub fn timed(&self) -> Elapsed {
        let mut total = Elapsed::default();
        for c in &self.cases {
            total += c.timed;
        }
        total
    }

    /// CPU microseconds of the timed regions per accepted request.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.timed().cpu_ns as f64 / 1e3 / self.accepted().max(1) as f64
    }

    /// Accepted requests per wall second of the timed regions.
    pub fn req_per_s(&self) -> f64 {
        self.accepted() as f64 / (self.timed().wall_ns.max(1) as f64 / 1e9)
    }

    /// Latencies, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        v
    }

    /// SHA-256 over the exact counters of the pass: per case events,
    /// messages, bytes and accepted count, then every latency. Identical
    /// across passes on the sim engine, or simulated behaviour changed.
    pub fn exact_digest(&self) -> String {
        let mut h = Hasher::new();
        for c in &self.cases {
            for v in [c.events, c.msgs, c.bytes, c.accepted, c.max_view] {
                h.update(&v.to_le_bytes());
            }
        }
        for l in &self.latencies_ns {
            h.update(&l.to_le_bytes());
        }
        hex(&h.finalize())
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Fold one run's client accepts into the pass's latency record.
fn record_latencies(out: &RunOutcome, arrival: Arrival, pass: &mut PassResult) -> u64 {
    let mut accepted = 0;
    for e in &out.log.entries {
        let Observation::ClientAccept {
            request, sent_at, ..
        } = &e.obs
        else {
            continue;
        };
        accepted += 1;
        let from = match arrival {
            Arrival::ClosedLoop => sent_at.0,
            Arrival::OpenLoop { interarrival_ns } => {
                let due = (request.timestamp - 1) * interarrival_ns.max(1);
                pass.lateness_ns.push(sent_at.0.saturating_sub(due));
                due
            }
        };
        pass.latencies_ns.push(e.at.0.saturating_sub(from));
    }
    accepted
}

/// Run every case of `workload` once at `1/div` size and gate each
/// outcome. `tracer` records a span per call into a layer when enabled.
pub fn run_pass(
    workload: &Workload,
    seed: u64,
    div: u64,
    pass_no: u32,
    tracer: &mut Tracer,
) -> PassResult {
    let requests = workload.requests_at(div);
    let mut pass = PassResult::default();
    let pass_span = tracer.open("pass", None, pass_no, "", seed);
    for case in workload.cases(seed) {
        let name = case.protocol.name();
        let case_span = tracer.open("case", pass_span, pass_no, name, case.seed);

        // A campaign-shaped workload pays for building the scenario and
        // for checking the outcome on every case, so both are timed.
        let campaign_watch = Stopwatch::start();
        let span = tracer.open("build", case_span, pass_no, name, case.seed);
        let scenario = workload.scenario(case, requests);
        tracer.close(span);

        let run_watch = Stopwatch::start();
        let span = tracer.open("run", case_span, pass_no, name, case.seed);
        let out = case.protocol.run(&scenario);
        tracer.close(span);
        let run_time = run_watch.elapsed();

        let span = tracer.open("check_run", case_span, pass_no, name, case.seed);
        let violations = check_run(case.protocol, &scenario, &out).len();
        tracer.close(span);
        let timed = if workload.campaign {
            campaign_watch.elapsed()
        } else {
            run_time
        };

        let span = tracer.open("audit", case_span, pass_no, name, case.seed);
        let unsafe_commits = SafetyAuditor::all_correct().check(&out.log).len();
        tracer.close(span);

        let accepted = record_latencies(&out, scenario.workload.arrival, &mut pass);
        pass.cases.push(CaseResult {
            case,
            issued: scenario.total_requests(),
            accepted,
            timed,
            events: out.events_processed,
            msgs: out.metrics.replica_msgs_sent(),
            bytes: out.metrics.replica_bytes_sent(),
            max_view: out.log.max_view().0,
            violations,
            unsafe_commits,
        });
        tracer.close(case_span);
    }
    tracer.close(pass_span);
    pass
}

/// What set-up produced: a digest of every generated input, and how many.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// SHA-256 over every case's full request table.
    pub digest: String,
    /// Transactions generated.
    pub count: u64,
}

/// Everything the benchmark does for a workload before the first pass:
/// generate every case's inputs from the seed (the full request table the
/// clients will draw, digested so two runs can be compared), and build
/// every protocol's engine, key store and actors once by running it for a
/// single request per client. Repeatable, so set-up time is a median.
pub fn set_up(workload: &Workload, seed: u64, div: u64) -> Inputs {
    let requests = workload.requests_at(div);
    let mut h = Hasher::new();
    let mut count = 0;
    let mut built = Vec::new();
    for case in workload.cases(seed) {
        let scenario = workload.scenario(case, requests);
        for (id, txn) in scenario.request_txns() {
            h.update(&bft_crypto::stable_bytes(&(id, txn)));
            count += 1;
        }
        if !built.contains(&case.protocol) {
            built.push(case.protocol);
            let out = case.protocol.run(&workload.scenario(case, 1));
            std::hint::black_box(out.events_processed);
        }
    }
    Inputs {
        digest: hex(&h.finalize()),
        count,
    }
}
