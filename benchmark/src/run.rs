//! One run of one workload: set-up, one warm-up pass, measured passes for
//! `--seconds`, the correctness gate, and the metrics of the requested
//! kind — end to end with tracing off, per layer with tracing on.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use bft_core::WorkloadConfig;
use bft_protocols::ProtocolId;
use bft_sim::EngineKind;

use crate::clock::peak_rss_mib;
use crate::layers;
use crate::measure::{run_pass, set_up, PassResult};
use crate::report::{git_commit, protocol_metric, HostShape, Measured, RunOutput};
use crate::stats::{median, percentile, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Workload, RT_PBFT_N4, SIM_ALL17_SHORT, SIM_PBFT_N4};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Every workload at 1/20 size, two measured passes.
    pub quick: bool,
}

/// Times set-up is repeated before the first pass.
const SETUP_REPEATS: usize = 5;

/// Measured passes never exceed this, however short a pass is.
const MAX_PASSES: usize = 200;

impl Options {
    fn div(&self) -> u64 {
        if self.quick {
            20
        } else {
            1
        }
    }

    /// Fewest measured passes: a median needs three; a traced run needs
    /// two with tracing on and two with it off.
    fn min_passes(&self) -> usize {
        match (self.quick, self.trace) {
            (true, _) => 2,
            (false, false) => 3,
            (false, true) => 4,
        }
    }

    /// This run as a command line for a process of its own, so that peak
    /// memory and warm-up belong to one workload.
    pub fn child_command(&self) -> std::io::Result<Command> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.args(["--workload", self.workload.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }]);
        if self.quick {
            cmd.arg("--quick");
        }
        Ok(cmd)
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", self.workload.name))
    }
}

fn fmt_quartiles(values: &[f64]) -> String {
    let [q1, _, q3] = quartiles(values);
    format!("q1={q1:.4} q3={q3:.4} n={}", values.len())
}

/// Median over passes of one per-pass figure, with its quartiles noted.
fn over_passes(name: &str, passes: &[&PassResult], f: impl Fn(&PassResult) -> f64) -> Measured {
    let values: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    Measured::new(name, median(&values)).note(fmt_quartiles(&values))
}

/// Median over passes of CPU microseconds per request.
fn median_cpu_us(passes: &[&PassResult]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.cpu_us_per_req())
            .collect::<Vec<_>>(),
    )
}

fn percentile_us(pass: &PassResult, p: f64) -> f64 {
    percentile(&pass.sorted_latencies(), p).0 as f64 / 1e3
}

/// The correctness gate over every pass of a run.
struct Gate {
    attempted: u64,
    failed: u64,
    /// Exact digest of the first pass and whether every other pass
    /// repeated it (sim engine only).
    exact: Option<(String, bool)>,
}

impl Gate {
    fn of(workload: &Workload, passes: &[&PassResult]) -> Gate {
        let exact = (workload.engine == EngineKind::Sim).then(|| {
            let first = passes[0].exact_digest();
            let same = passes.iter().all(|p| p.exact_digest() == first);
            (first, same)
        });
        Gate {
            attempted: passes.iter().map(|p| p.issued()).sum(),
            failed: passes.iter().map(|p| p.failed()).sum(),
            exact,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.exact.as_ref().is_none_or(|(_, same)| *same)
    }

    fn lines(&self, passes: &[&PassResult]) -> Vec<String> {
        let dirty: usize = passes
            .iter()
            .flat_map(|p| &p.cases)
            .map(|c| c.violations)
            .sum();
        let unsafe_commits: usize = passes
            .iter()
            .flat_map(|p| &p.cases)
            .map(|c| c.unsafe_commits)
            .sum();
        let exact = match &self.exact {
            Some((digest, true)) => format!("exact_digest={digest} identical_across_passes=yes"),
            Some((digest, false)) => format!("exact_digest={digest} identical_across_passes=NO"),
            None => "exact_digest=n/a (the threaded engine is not deterministic)".into(),
        };
        vec![
            format!(
                "# gate attempted={} failed={} failed_frac={} checker_violations={dirty} safety_violations={unsafe_commits}",
                self.attempted,
                self.failed,
                self.failed as f64 / self.attempted.max(1) as f64
            ),
            format!("# gate {exact}"),
        ]
    }
}

/// Run one workload and collect what it prints.
pub fn run(opts: &Options) -> std::io::Result<RunOutput> {
    let w = &opts.workload;
    let div = opts.div();
    let mut header = vec![
        format!(
            "# repo-benchmark workload={} seed={} seconds={} trace={} quick={} commit={}",
            w.name,
            opts.seed,
            opts.seconds,
            opts.trace as u8,
            opts.quick as u8,
            git_commit()
        ),
        HostShape::detect().line(),
        "# scope: fault-free steady state; outage and recovery times stay with the campaign targets"
            .into(),
        format!("# why: {}", w.why),
    ];

    // Set-up, several times before the first pass and once after every
    // measured pass, so the samples span the whole run: the median is
    // `setup_s`.
    let mut setup_s = Vec::new();
    let mut timed_set_up = || {
        let start = Instant::now();
        let made = set_up(w, opts.seed, div);
        setup_s.push(start.elapsed().as_secs_f64());
        made
    };
    let inputs = timed_set_up();
    for _ in 1..SETUP_REPEATS {
        assert!(
            timed_set_up() == inputs,
            "the same seed generated different inputs"
        );
    }
    header.push(format!(
        "# inputs generated={} digest={}",
        inputs.count, inputs.digest
    ));

    // One warm-up pass, then measured passes until the time is used. A
    // traced run alternates tracing off and on, so the same process
    // yields the untraced baseline the overhead is taken against.
    let mut tracer = Tracer::default();
    let warm_start = Instant::now();
    let warm_up = run_pass(w, opts.seed, div, 0, &mut tracer);
    let warm_s = warm_start.elapsed().as_secs_f64();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let started = Instant::now();
    let mut measured: Vec<(bool, PassResult)> = Vec::new();
    loop {
        let n = measured.len();
        let spent = started.elapsed().as_secs_f64();
        let fits = !opts.quick && spent + spent / n.max(1) as f64 <= budget;
        if n >= opts.min_passes() && !(fits && n < MAX_PASSES) {
            break;
        }
        tracer.enabled = opts.trace && n % 2 == 1;
        let pass = run_pass(w, opts.seed, div, n as u32 + 1, &mut tracer);
        measured.push((tracer.enabled, pass));
        if !opts.trace {
            timed_set_up();
        }
    }
    tracer.enabled = false;
    header.push(format!(
        "# passes warm_up=1 ({warm_s:.3} s) measured={} in {:.3} s",
        measured.len(),
        started.elapsed().as_secs_f64()
    ));

    let untraced: Vec<&PassResult> = measured
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, p)| p)
        .collect();
    let traced: Vec<&PassResult> = measured
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, p)| p)
        .collect();
    let (metrics, probes) = if opts.trace {
        let (m, probes) = per_layer_metrics(opts, &untraced, &traced, &tracer);
        tracer.write_jsonl(&opts.trace_path())?;
        header.push(format!(
            "# spans {} written to {}",
            tracer.spans().len(),
            opts.trace_path().display()
        ));
        (m, probes)
    } else {
        end_to_end_metrics(opts, &untraced, &setup_s)
    };

    // The gate: the workload's own passes, warm-up included, must all be
    // complete, clean, safe and (sim) identical; probe passes of other
    // workloads must be complete, clean and safe.
    let own: Vec<&PassResult> = std::iter::once(&warm_up)
        .chain(measured.iter().map(|(_, p)| p))
        .collect();
    let gate = Gate::of(w, &own);
    header.extend(gate.lines(&own));
    let probe_attempted: u64 = probes.iter().map(|p| p.issued()).sum();
    let probe_failed: u64 = probes.iter().map(|p| p.failed()).sum();
    if !probes.is_empty() {
        header.push(format!(
            "# gate probes attempted={probe_attempted} failed={probe_failed}"
        ));
    }
    if w.is_open_loop() {
        let late = &untraced[0].lateness_ns;
        header.push(format!(
            "# open loop: generator lateness max={} ns mean={:.1} ns over {} requests",
            late.iter().max().copied().unwrap_or(0),
            late.iter().sum::<u64>() as f64 / late.len().max(1) as f64,
            late.len()
        ));
    }
    Ok(RunOutput {
        header,
        metrics,
        correct: gate.correct() && probe_failed == 0,
        attempted: gate.attempted + probe_attempted,
        failed: gate.failed + probe_failed,
    })
}

/// The sim-engine twin of a threaded workload: the same scenario on
/// simulated time, which is where its modelled latency comes from.
fn sim_twin(w: &Workload) -> Workload {
    Workload {
        engine: EngineKind::Sim,
        ..*w
    }
}

/// End-to-end metrics from untraced passes. Also returns any extra pass
/// run for them, to be gated with the rest.
fn end_to_end_metrics(
    opts: &Options,
    passes: &[&PassResult],
    setup_s: &[f64],
) -> (Vec<Measured>, Vec<PassResult>) {
    let w = &opts.workload;
    // Modelled latency is exact on the sim engine, so one pass holds it.
    // A threaded workload has no simulated time: its modelled latency is
    // that of the same scenario on the sim engine, run once, untimed.
    let mut extra = Vec::new();
    let modelled: &PassResult = if w.engine == EngineKind::Sim {
        passes[0]
    } else {
        extra.push(run_pass(
            &sim_twin(w),
            opts.seed,
            opts.div(),
            0,
            &mut Tracer::default(),
        ));
        &extra[0]
    };
    let sorted = modelled.sorted_latencies();
    let (p50, _) = percentile(&sorted, 50.0);
    let (p99, beyond) = percentile(&sorted, 99.0);
    let samples = format!("exact, {} samples, {beyond} beyond p99", sorted.len());
    let metrics = vec![
        Measured::new("setup_s", median(setup_s)).note(fmt_quartiles(setup_s)),
        over_passes("cpu_us_per_req", passes, PassResult::cpu_us_per_req),
        over_passes("req_per_s", passes, PassResult::req_per_s),
        Measured::new("vt_lat_p50_us", p50 as f64 / 1e3).note(samples.clone()),
        Measured::new("vt_lat_p99_us", p99 as f64 / 1e3).note(samples),
        Measured::new("peak_rss_mb", peak_rss_mib()),
    ];
    (metrics, extra)
}

/// Per-protocol CPU microseconds per request, summed over a pass's seeds.
fn protocol_us_per_req(pass: &PassResult, protocol: ProtocolId) -> f64 {
    let (mut cpu_ns, mut accepted) = (0u64, 0u64);
    for c in pass.cases.iter().filter(|c| c.case.protocol == protocol) {
        cpu_ns += c.timed.cpu_ns;
        accepted += c.accepted;
    }
    cpu_ns as f64 / 1e3 / accepted.max(1) as f64
}

/// Per-layer metrics from a traced run. Also returns the probe passes of
/// other workloads it ran, to be gated with the rest.
fn per_layer_metrics(
    opts: &Options,
    untraced: &[&PassResult],
    traced: &[&PassResult],
    tracer: &Tracer,
) -> (Vec<Measured>, Vec<PassResult>) {
    let w = &opts.workload;
    let div = opts.div();
    let mut quiet = Tracer::default();
    let mut probe =
        |workload: &Workload, div: u64| run_pass(workload, opts.seed, div, 0, &mut quiet);
    let mut metrics = Vec::new();

    // Unit costs of each layer's public calls.
    let mut units = layers::crypto_unit_costs(div);
    units.extend(layers::state_unit_costs(div));
    units.extend(layers::core_unit_costs(div));
    units.extend(layers::sim_unit_costs(div));
    metrics.extend(units.iter().map(|(n, v)| Measured::new(n.clone(), *v)));

    // Exact counts of this workload.
    let counts = layers::crypto_counts(w, opts.seed, div);
    metrics.push(Measured::new("crypto.hash_per_req", counts.hash));
    metrics.push(Measured::new("crypto.mac_per_req", counts.mac));
    metrics.push(Measured::new("crypto.sig_per_req", counts.sig));
    metrics.push(Measured::new("crypto.threshold_per_req", counts.threshold));
    let per_req =
        |f: fn(&PassResult) -> u64| move |p: &PassResult| f(p) as f64 / p.accepted().max(1) as f64;
    let events_per_req = over_passes("sim.events_per_req", untraced, per_req(PassResult::events));
    metrics.push(over_passes("sim.ns_per_event", untraced, |p| {
        p.timed().cpu_ns as f64 / p.events().max(1) as f64
    }));
    metrics.push(over_passes(
        "protocols.msgs_per_req",
        untraced,
        per_req(PassResult::msgs),
    ));
    metrics.push(over_passes(
        "protocols.bytes_per_req",
        untraced,
        per_req(PassResult::bytes),
    ));
    let max_view = untraced.iter().map(|p| p.max_view()).max().unwrap_or(0);
    metrics.push(Measured::new("protocols.max_view", max_view as f64));

    // Checker and auditor time, from the spans of the traced passes.
    let traced_requests: u64 = traced.iter().map(|p| p.accepted()).sum();
    for (name, span) in [
        ("checker.us_per_req", "check_run"),
        ("audit.us_per_req", "audit"),
    ] {
        metrics.push(Measured::new(
            name,
            tracer.total_ns(span) as f64 / 1e3 / traced_requests.max(1) as f64,
        ));
    }

    // The threaded engine: this workload's own passes when it is the
    // threaded one, three probe passes of it otherwise.
    let is = |other: &Workload| w.name == other.name;
    let own: Vec<&PassResult> = untraced.iter().chain(traced).copied().collect();
    let rt_probes: Vec<PassResult> = if is(&RT_PBFT_N4) {
        Vec::new()
    } else {
        (0..3).map(|_| probe(&RT_PBFT_N4, div)).collect()
    };
    let rt: Vec<&PassResult> = if rt_probes.is_empty() {
        own.clone()
    } else {
        rt_probes.iter().collect()
    };
    metrics.push(over_passes(
        "threaded.req_per_s",
        &rt,
        PassResult::req_per_s,
    ));
    metrics.push(over_passes("threaded.lat_p50_us", &rt, |p| {
        percentile_us(p, 50.0)
    }));
    metrics.push(over_passes("threaded.lat_p99_us", &rt, |p| {
        percentile_us(p, 99.0)
    }));
    let (rtt_us, rt_cpu_ns_per_msg) = layers::threaded_ping_pong(div);
    metrics.push(Measured::new("threaded.ping_pong_rtt_us", rtt_us));
    metrics.push(Measured::new(
        "threaded.ping_pong_cpu_ns_per_msg",
        rt_cpu_ns_per_msg,
    ));
    let sim_n4_probe = (!is(&SIM_PBFT_N4)).then(|| probe(&SIM_PBFT_N4, div * 4));
    let sim_n4_cpu = match &sim_n4_probe {
        Some(p) => p.cpu_us_per_req(),
        None => median_cpu_us(untraced),
    };
    let rt_cpu = over_passes("threaded.cpu_us_per_req", &rt, PassResult::cpu_us_per_req);
    metrics.push(
        Measured::new("threaded.cpu_over_sim", rt_cpu.value / sim_n4_cpu).note(format!(
            "rt-pbft-n4 {:.2} us/req over sim-pbft-n4 {sim_n4_cpu:.2} us/req",
            rt_cpu.value
        )),
    );
    metrics.push(rt_cpu);
    let open_leg = probe(&open_2000(), div);
    let interarrival_ns = 1_000_000_000 / 2_000;
    let late = open_leg
        .lateness_ns
        .iter()
        .filter(|&&l| l > interarrival_ns)
        .count();
    metrics.push(Measured::new(
        "threaded.open_2000_lat_p50_us",
        percentile_us(&open_leg, 50.0),
    ));
    metrics.push(Measured::new(
        "threaded.open_2000_late_frac",
        late as f64 / open_leg.lateness_ns.len().max(1) as f64,
    ));

    // Every protocol in campaign shape: this workload's own passes when
    // it is the campaign one, one probe pass otherwise; then the same at
    // four times the length.
    // Probe passes run twice, the first being warm-up: a cold pass costs
    // its first protocols up to half again as much.
    let mut warm_probe = |shape: &Workload| [probe(shape, div), probe(shape, div)];
    let all17_probe = (!is(&SIM_ALL17_SHORT)).then(|| warm_probe(&SIM_ALL17_SHORT));
    let all17: Vec<&PassResult> = match &all17_probe {
        Some([_, measured]) => vec![measured],
        None => own.clone(),
    };
    let [long_warm_up, long] = warm_probe(&Workload {
        requests_per_client: 4 * SIM_ALL17_SHORT.requests_per_client,
        seeds: 1,
        ..SIM_ALL17_SHORT
    });
    for protocol in ProtocolId::ALL {
        let us = over_passes(&protocol_metric(protocol, "us_per_req"), &all17, |p| {
            protocol_us_per_req(p, protocol)
        });
        let case = all17[0]
            .cases
            .iter()
            .find(|c| c.case.protocol == protocol)
            .expect("every protocol has a case");
        metrics.push(Measured::new(
            protocol_metric(protocol, "msgs_per_req"),
            case.msgs as f64 / case.accepted.max(1) as f64,
        ));
        metrics.push(Measured::new(
            protocol_metric(protocol, "slowdown_4x"),
            protocol_us_per_req(&long, protocol) / us.value,
        ));
        metrics.push(us);
    }

    // The ledger: estimates by count x unit cost, remainder to "other".
    let cpu = median_cpu_us(untraced);
    let cpu_traced = median_cpu_us(traced);
    let crypto_us = layers::crypto_us_per_req(&counts, &units);
    let state_us = layers::state_us_per_req(w, opts.seed, div, &units);
    let sim_event_us = layers::unit(&units, "sim.ping_pong_ns_per_event") / 1e3;
    let (engine_us, other_us, how) = match (w.engine, &sim_n4_probe) {
        // The threaded engine has no per-event unit cost that holds under
        // load (a ping-pong pays a wake-up per message, a busy replica
        // does not), so its ledger runs the other way: the same actors do
        // the same handler work on either engine, so "other" is what the
        // sim-pbft-n4 probe leaves after its own estimates, and the
        // engine gets the remainder.
        (EngineKind::Threaded, Some(twin)) => {
            let twin_events = twin.events() as f64 / twin.accepted().max(1) as f64;
            let other = twin.cpu_us_per_req() - crypto_us - state_us - twin_events * sim_event_us;
            (
                cpu - crypto_us - state_us - other,
                other,
                "other from the sim-pbft-n4 probe, engine is the remainder",
            )
        }
        _ => {
            let engine = events_per_req.value * sim_event_us;
            (
                engine,
                cpu - crypto_us - state_us - engine,
                "engine = events x ping-pong unit cost, other is the remainder",
            )
        }
    };
    metrics.push(events_per_req);
    let share = |us: f64| format!("{:.1}% of cpu_us_per_req {cpu:.2}", 100.0 * us / cpu);
    metrics.push(Measured::new("ledger.crypto_us_per_req", crypto_us).note(share(crypto_us)));
    metrics.push(
        Measured::new("ledger.engine_us_per_req", engine_us)
            .note(format!("{}; {how}", share(engine_us))),
    );
    metrics.push(Measured::new("ledger.state_us_per_req", state_us).note(share(state_us)));
    metrics.push(Measured::new("ledger.other_us_per_req", other_us).note(share(other_us)));
    metrics.push(
        Measured::new("trace.overhead_frac", cpu_traced / cpu - 1.0).note(format!(
            "traced {cpu_traced:.2} vs untraced {cpu:.2} us/req; {} spans",
            tracer.spans().len()
        )),
    );

    let mut extra = rt_probes;
    extra.extend(sim_n4_probe);
    extra.push(open_leg);
    extra.extend(all17_probe.into_iter().flatten());
    extra.extend([long_warm_up, long]);
    (metrics, extra)
}

/// One open-loop leg on the threaded engine at 2 000 requests per second
/// for one second.
fn open_2000() -> Workload {
    fn mix() -> WorkloadConfig {
        (RT_PBFT_N4.mix)().open_loop(2_000)
    }
    Workload {
        name: "rt-pbft-n4-open-2000",
        requests_per_client: 2_000,
        mix,
        ..RT_PBFT_N4
    }
}
