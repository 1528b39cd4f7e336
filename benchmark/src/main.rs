//! Command line of the repo benchmark.
//!
//! ```text
//! repo-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! repo-benchmark agree [--seed <n>] [--seconds <s>] [--runs <n>] [--quick]
//! repo-benchmark compare <output-a> <output-b>
//! repo-benchmark manifest
//! ```

use std::process::ExitCode;

use repo_benchmark::agree::{agree, compare, parse_runs, AgreeOptions};
use repo_benchmark::report::{end_to_end, manifest_json, per_layer, RUN_SECONDS};
use repo_benchmark::run::{run, Options};
use repo_benchmark::workloads;

const USAGE: &str = "usage:
  repo-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
  repo-benchmark agree [--seed <n>] [--seconds <s>] [--runs <n>] [--quick]
  repo-benchmark compare <output-a> <output-b>
  repo-benchmark manifest";

/// Flags shared by the run and `agree` forms.
struct Flags {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: u64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => flags.workload = value.clone(),
            "--seed" => flags.seed = value.parse().map_err(|e| bad(&e))?,
            "--runs" => flags.runs = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if flags.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(flags)
}

impl Flags {
    fn options(&self, workload: workloads::Workload) -> Options {
        Options {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            quick: self.quick,
        }
    }
}

/// Run one workload in this process and print its output.
fn run_one(opts: &Options) -> Result<bool, String> {
    let out = run(opts).map_err(|e| format!("{}: {e}", opts.trace_path().display()))?;
    let defs = if opts.trace {
        per_layer()
    } else {
        end_to_end()
    };
    print!("{}", out.render(&defs));
    Ok(out.correct)
}

/// Run every workload, each in a process of its own.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let mut all_correct = true;
    for w in workloads::ALL {
        let status = flags
            .options(w)
            .child_command()
            .and_then(|mut cmd| cmd.status())
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest_json());
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two files".into());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| parse_runs(&t))
            };
            let (table, ok) = compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            Ok(ok)
        }
        Some("agree") => {
            let flags = parse_flags(&args[1..])?;
            let (table, ok) = agree(&AgreeOptions {
                seed: flags.seed,
                seconds: flags.seconds,
                runs: flags.runs,
                quick: flags.quick,
            })?;
            print!("{table}");
            Ok(ok)
        }
        _ => {
            let flags = parse_flags(args)?;
            if flags.workload == "all" {
                return run_all(&flags);
            }
            let workload = workloads::by_name(&flags.workload).ok_or_else(|| {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {} (known: all, {})",
                    flags.workload,
                    names.join(", ")
                )
            })?;
            run_one(&flags.options(workload))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("repo-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
