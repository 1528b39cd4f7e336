//! Do two sets of runs agree? The acceptance procedure, as a command.
//!
//! `agree` runs every workload `--runs` times on consecutive seeds, twice
//! over, each run in its own process; `compare` reads two saved outputs
//! instead. Either way every (end-to-end metric, workload) pair gets both
//! sets' medians and quartiles over the runs, each set's spread
//! (interquartile range as a share of the median), the second median's
//! worsening against the first, and the bound. A pair is outside its
//! bound when the worsening exceeds it or — `setup_s` excepted — a spread
//! does.

use std::collections::BTreeMap;

use crate::report::{end_to_end, Better, MetricDef};
use crate::run::Options;
use crate::stats::quartiles;
use crate::workloads;

/// What one run printed, as far as comparing needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRun {
    /// Workload name.
    pub workload: String,
    /// Host and toolchain shape plus the run settings that change what a
    /// number means (`seconds`, `quick`): outputs with different shapes
    /// are not compared.
    pub shape: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The run's own correctness verdict.
    pub correct: bool,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Parse the concatenated outputs of one or more runs.
pub fn parse_runs(text: &str) -> Result<Vec<ParsedRun>, String> {
    let mut runs: Vec<ParsedRun> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# repo-benchmark ") {
            let get = |key| field(line, key).ok_or(format!("no {key}= in header: {line}"));
            runs.push(ParsedRun {
                workload: get("workload")?.to_string(),
                shape: format!("seconds={} quick={}", get("seconds")?, get("quick")?),
                metrics: BTreeMap::new(),
                correct: false,
            });
            continue;
        }
        let Some(run) = runs.last_mut() else {
            continue;
        };
        if let Some(host) = line.strip_prefix("# host ") {
            run.shape = format!("{host} {}", run.shape);
        } else if let Some(rest) = line.strip_prefix("metric ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                return Err(format!("malformed metric line: {line}"));
            };
            let value: f64 = value
                .parse()
                .map_err(|e| format!("metric {name}: {e}: {line}"))?;
            run.metrics.insert(name.to_string(), value);
        } else if line.starts_with("{\"correct\":") {
            run.correct = line.starts_with("{\"correct\":true,");
        }
    }
    if runs.is_empty() {
        return Err("no run output found".into());
    }
    Ok(runs)
}

/// Settings of one `agree` invocation.
#[derive(Debug, Clone, Copy)]
pub struct AgreeOptions {
    /// First seed; run `i` of a set uses `seed + i`.
    pub seed: u64,
    /// `--seconds` for every run.
    pub seconds: f64,
    /// Runs per workload per set.
    pub runs: u64,
    /// `--quick` for every run.
    pub quick: bool,
}

/// Run one full set: every workload, `runs` seeds, each in a process of
/// its own.
fn run_set(opts: &AgreeOptions, label: &str) -> Result<Vec<ParsedRun>, String> {
    let mut runs = Vec::new();
    for workload in workloads::GATED {
        for i in 0..opts.runs {
            let run = Options {
                workload,
                seed: opts.seed + i,
                seconds: opts.seconds,
                trace: false,
                quick: opts.quick,
            };
            eprintln!("agree: set {label} {} seed {}", workload.name, run.seed);
            let out = run
                .child_command()
                .and_then(|mut cmd| cmd.output())
                .map_err(|e| format!("spawn {}: {e}", workload.name))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "{} seed {} exited with {}:\n{text}",
                    workload.name, run.seed, out.status
                ));
            }
            runs.extend(parse_runs(&text)?);
        }
    }
    Ok(runs)
}

/// By how much of `a` the value `b` is worse (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compare two sets of runs. Returns the markdown table and whether
/// every pair is within its bound; refuses sets of different shape.
pub fn compare(a: &[ParsedRun], b: &[ParsedRun]) -> Result<(String, bool), String> {
    let shape = &a[0].shape;
    if let Some(odd) = a.iter().chain(b).find(|r| &r.shape != shape) {
        return Err(format!(
            "refusing to compare outputs of different shape:\n  {shape}\n  {}",
            odd.shape
        ));
    }
    if let Some(bad) = a.iter().chain(b).find(|r| !r.correct) {
        return Err(format!(
            "a {} run failed its correctness gate",
            bad.workload
        ));
    }
    let mut md = format!("Shape: `{shape}`\n\n");
    md.push_str(
        "| workload | metric | A q1 / median / q3 | A spread | B q1 / median / q3 | B spread | B worse by | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_within = true;
    for w in workloads::GATED {
        for def in end_to_end() {
            let values = |set: &[ParsedRun]| -> Result<Vec<f64>, String> {
                let v: Vec<f64> = set
                    .iter()
                    .filter(|r| r.workload == w.name)
                    .filter_map(|r| r.metrics.get(&def.name).copied())
                    .collect();
                if v.is_empty() {
                    return Err(format!("no {} value for {}", def.name, w.name));
                }
                Ok(v)
            };
            let (qa, qb) = (quartiles(&values(a)?), quartiles(&values(b)?));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
            let worse = worsening(&def, qa[1], qb[1]);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let spreads_ok = def.name == "setup_s" || (spread(qa) <= bound && spread(qb) <= bound);
            let within = worse <= bound && spreads_ok;
            all_within &= within;
            let q = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            md.push_str(&format!(
                "| {} | {} ({}) | {} | {:.2}% | {} | {:.2}% | {:+.2}% | {:.0}% | {} |\n",
                w.name,
                def.name,
                def.unit,
                q(qa),
                100.0 * spread(qa),
                q(qb),
                100.0 * spread(qb),
                100.0 * worse,
                100.0 * bound,
                if within { "within" } else { "OUTSIDE" }
            ));
        }
    }
    Ok((md, all_within))
}

/// Run two full sets and compare them.
pub fn agree(opts: &AgreeOptions) -> Result<(String, bool), String> {
    let a = run_set(opts, "A")?;
    let b = run_set(opts, "B")?;
    let (table, ok) = compare(&a, &b)?;
    let md = format!(
        "Two sets of {} run(s) per workload, seeds {}..={}, {} s measured per run{}.\n\n{table}",
        opts.runs,
        opts.seed,
        opts.seed + opts.runs - 1,
        opts.seconds,
        if opts.quick { ", --quick" } else { "" },
    );
    Ok((md, ok))
}
