//! The benchmark's contract with its driver and with later changes: the
//! manifest matches the code, names stay inside the allowed alphabet,
//! inputs and exact counters are a function of the seed, and one command
//! per workload prints a result object of the agreed shape.

use std::collections::BTreeSet;
use std::process::Command;

use repo_benchmark::agree::{compare, parse_runs};
use repo_benchmark::measure::{run_pass, set_up};
use repo_benchmark::report::{end_to_end, manifest_json, per_layer, Better, Measured, RunOutput};
use repo_benchmark::trace::Tracer;
use repo_benchmark::workloads::{self, SIM_PBFT_N4};

const QUICK: u64 = 20;

fn in_alphabet(s: &str, extra: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn manifest_is_generated_from_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `repo-benchmark manifest`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn names_units_and_counts_stay_inside_the_contract() {
    let (e2e, layers) = (end_to_end(), per_layer());
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()), "{}", layers.len());
    assert!((2..=8).contains(&workloads::GATED.len()));

    let mut names = BTreeSet::new();
    for m in e2e.iter().chain(&layers) {
        assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
        assert!(
            m.name.len() <= 64 && in_alphabet(&m.name, "_.-"),
            "{}",
            m.name
        );
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            m.unit.len() <= 16 && in_alphabet(m.unit, "_/%.-"),
            "{}",
            m.unit
        );
    }
    for m in &e2e {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
    }
    assert!(layers.iter().all(|m| m.bound.is_none()));
    let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        e2e.iter().all(|m| setup.bound >= m.bound),
        "setup_s has the largest bound"
    );

    for w in workloads::ALL {
        assert!(names.insert(w.name.to_string()), "{} is used twice", w.name);
        assert!(
            w.name.len() <= 64 && in_alphabet(w.name, "_.-"),
            "{}",
            w.name
        );
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}

#[test]
fn inputs_and_exact_counters_are_a_function_of_the_seed() {
    for w in workloads::ALL {
        let a = set_up(&w, 7, QUICK);
        assert_eq!(
            a,
            set_up(&w, 7, QUICK),
            "{}: same seed, other inputs",
            w.name
        );
        assert_ne!(
            a,
            set_up(&w, 8, QUICK),
            "{}: other seed, same inputs",
            w.name
        );
        assert_eq!(a.count, w.requests_per_pass(QUICK), "{}", w.name);
    }
    let pass = |seed| run_pass(&SIM_PBFT_N4, seed, QUICK, 0, &mut Tracer::default());
    let (a, b, c) = (pass(7), pass(7), pass(8));
    assert_eq!(a.failed(), 0);
    assert_eq!(a.accepted(), SIM_PBFT_N4.requests_per_pass(QUICK));
    assert_eq!(a.exact_digest(), b.exact_digest());
    assert_ne!(a.exact_digest(), c.exact_digest());
}

/// A JSON value, as far as the result line needs one.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    Text(String),
    Object(Vec<(String, Json)>),
}

/// Parse the subset of JSON the result line uses (no arrays, no escapes).
fn parse_json(s: &str) -> Json {
    fn value(s: &[u8], i: &mut usize) -> Json {
        match s[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                while s[*i] != b'}' {
                    let Json::Text(key) = value(s, i) else {
                        panic!("object key at {i}")
                    };
                    assert_eq!(s[*i], b':');
                    *i += 1;
                    fields.push((key, value(s, i)));
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
                Json::Object(fields)
            }
            b'"' => {
                let end = *i + 1 + s[*i + 1..].iter().position(|&c| c == b'"').unwrap();
                let text = std::str::from_utf8(&s[*i + 1..end]).unwrap().to_string();
                *i = end + 1;
                Json::Text(text)
            }
            b't' | b'f' => {
                let yes = s[*i] == b't';
                *i += if yes { 4 } else { 5 };
                Json::Bool(yes)
            }
            _ => {
                let end = *i + s[*i..].iter().position(|c| b",}".contains(c)).unwrap();
                let n = std::str::from_utf8(&s[*i..end]).unwrap().parse().unwrap();
                *i = end;
                Json::Number(n)
            }
        }
    }
    let mut i = 0;
    let v = value(s.as_bytes(), &mut i);
    assert_eq!(i, s.len(), "trailing characters");
    v
}

fn run_quick(workload: &str, trace: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repo-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("spawn the benchmark");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_workload_prints_the_agreed_result_object() {
    for w in workloads::ALL {
        for (trace, defs) in [("0", end_to_end()), ("1", per_layer())] {
            let (code, text) = run_quick(w.name, trace);
            assert_eq!(code, Some(0), "{} --trace {trace}:\n{text}", w.name);
            assert!(text.contains("# host nproc="), "host-shape header");
            let Json::Object(top) = parse_json(text.lines().last().expect("a last line")) else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(top[0].1, Json::Bool(true));
            assert!(matches!(top[1].1, Json::Number(n) if n >= 1.0 && n.fract() == 0.0));
            assert_eq!(top[2].1, Json::Number(0.0));
            let Json::Object(metrics) = &top[3].1 else {
                panic!("metrics is not an object")
            };
            let printed: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let defined: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(printed, defined, "{} --trace {trace}", w.name);
            for (name, value) in metrics {
                let def = defs.iter().find(|d| &d.name == name).unwrap();
                let Json::Object(fields) = value else {
                    panic!("{name} is not an object")
                };
                assert!(
                    matches!(&fields[..],
                        [(v, Json::Number(n)), (u, Json::Text(unit))]
                            if v == "value" && u == "unit" && n.is_finite() && unit == def.unit
                    ),
                    "{name}: {fields:?}"
                );
            }
        }
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let (code, text) = run_quick("no-such-workload", "0");
    assert_eq!(code, Some(2));
    assert!(text.is_empty(), "{text}");
}

fn rendered(cpu: f64, nproc: usize) -> String {
    let defs = end_to_end();
    RunOutput {
        header: vec![
            "# repo-benchmark workload=sim-pbft-n4 seed=1 seconds=15 trace=0 quick=0 commit=none"
                .into(),
            format!("# host nproc={nproc} cpu=\"some cpu\" rustc=\"rustc 1\" cpu_clock=x"),
        ],
        metrics: defs
            .iter()
            .map(|d| {
                Measured::new(
                    d.name.clone(),
                    if d.name == "cpu_us_per_req" { cpu } else { 2.0 },
                )
            })
            .collect(),
        correct: true,
        attempted: 10,
        failed: 0,
    }
    .render(&defs)
}

#[test]
fn compare_applies_bounds_and_refuses_other_shapes() {
    // `compare` wants every gated workload; give all the same numbers.
    let set = |cpu: f64, nproc: usize| {
        let text: String = workloads::GATED
            .iter()
            .map(|w| rendered(cpu, nproc).replace("sim-pbft-n4", w.name))
            .collect();
        parse_runs(&text).expect("parses")
    };
    let (_, within) = compare(&set(40.0, 2), &set(41.0, 2)).expect("same shape");
    assert!(within, "2.5% worse is inside a 20% bound");
    let (table, within) = compare(&set(40.0, 2), &set(50.0, 2)).expect("same shape");
    assert!(!within && table.contains("OUTSIDE"), "25% worse is outside");
    let (_, within) = compare(&set(50.0, 2), &set(40.0, 2)).expect("same shape");
    assert!(within, "better is never outside");
    assert!(
        compare(&set(40.0, 2), &set(40.0, 4)).is_err(),
        "other host shape"
    );
}
