//! Drives the runner end to end at `--quick` size (every size / 16): every
//! workload, untraced and traced, plus the contract the result line and
//! `BENCHMARK.json` must keep.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perf");

struct Run {
    ok: bool,
    stdout: String,
}

impl Run {
    fn result_line(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }

    /// The token after `key` on the report line that starts with it.
    fn field(&self, key: &str) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(key))
            .unwrap_or_else(|| panic!("no `{key}` line in:\n{}", self.stdout))
            .split_whitespace()
            .next()
            .unwrap()
    }
}

fn perf(args: &[&str]) -> Run {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("runner starts");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 report"),
    }
}

fn quick(workload: &str, seed: &str, trace: &str) -> Run {
    perf(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
    ])
}

fn workloads() -> Vec<String> {
    let list = perf(&["--list"]);
    assert!(list.ok);
    list.stdout.lines().map(str::to_owned).collect()
}

/// Names of the objects of the JSON array `key` in `BENCHMARK.json`.
fn declared(benchmark: &str, key: &str) -> Vec<String> {
    let start = benchmark.find(&format!("\"{key}\": [")).expect(key);
    let body = &benchmark[start..];
    let body = &body[..body.find("\n  ]").expect("array end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    let benchmark = perf(&["--describe"]).stdout;
    let per_layer = declared(&benchmark, "per_layer");
    let end_to_end = declared(&benchmark, "end_to_end");
    assert_eq!(per_layer.len(), 66);
    for w in workloads() {
        let e2e = quick(&w, "1996", "0");
        assert!(e2e.ok, "{w} untraced failed:\n{}", e2e.stdout);
        let line = e2e.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {line}"
        );
        assert!(
            line.contains("\"failed\": 0, \"metrics\": {"),
            "{w}: {line}"
        );
        // Percentiles without ten samples beyond them are withheld at this
        // size; everything else must be there.
        for name in end_to_end.iter().filter(|n| !n.contains("_p9")) {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w}: no {name}"
            );
        }

        let layers = quick(&w, "1996", "1");
        assert!(layers.ok, "{w} traced failed:\n{}", layers.stdout);
        let line = layers.result_line();
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
        for name in &per_layer {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w}: no {name}"
            );
        }
        // The traced run simulated the same thing as the untraced one.
        assert_eq!(e2e.field("sim_digest"), layers.field("sim_digest"), "{w}");
        // Every step has exactly one class.
        let classes: f64 = ["park", "disk", "complete", "send", "local"]
            .iter()
            .map(|c| {
                layers
                    .field(&format!("cluster.step.{c}.count"))
                    .parse::<f64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(
            classes,
            layers.field("sim.steps").parse::<f64>().unwrap(),
            "{w}"
        );
    }
}

#[test]
fn digest_repeats_for_a_seed_and_moves_with_it() {
    for w in workloads() {
        let a = quick(&w, "1996", "0");
        let b = quick(&w, "1996", "0");
        let c = quick(&w, "777", "0");
        assert!(a.ok && b.ok && c.ok, "{w}");
        assert_eq!(
            a.field("sim_digest"),
            b.field("sim_digest"),
            "{w}: same seed"
        );
        assert_ne!(
            a.field("sim_digest"),
            c.field("sim_digest"),
            "{w}: 1996 vs 777"
        );
    }
}

#[test]
fn layer_split_discriminates_at_quick_size() {
    let share = |r: &Run, class: &str| -> f64 {
        r.field(&format!("cluster.step.{class}.host_share"))
            .parse()
            .unwrap()
    };
    let count = |r: &Run, key: &str| -> f64 { r.field(key).parse().unwrap() };
    let eventloop = quick("eventloop", "1996", "1");
    assert_eq!(
        share(&eventloop, "send") + share(&eventloop, "complete"),
        0.0
    );
    assert_eq!(count(&eventloop, "pager.disk_writes"), 0.0);
    let paging = quick("paging", "1996", "1");
    assert!(count(&paging, "pager.disk_writes") > 0.0);
    assert!(count(&paging, "machvm.refault_ratio") > 1.0);
    let faulted = quick("faulted", "1996", "1");
    let migratory = quick("migratory", "1996", "1");
    assert_eq!(count(&migratory, "transport.resent"), 0.0);
    assert_eq!(count(&migratory, "machvm.refault_ratio"), 1.0);
    assert!(count(&faulted, "cluster.heartbeats") > 0.0);
    let xmm = quick("xmm", "1996", "1");
    assert!(count(&xmm, "xmm.msgs") > 0.0);
    assert_eq!(count(&xmm, "core.msgs"), 0.0);
}

#[test]
fn benchmark_json_is_what_the_runner_describes() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(committed).expect("BENCHMARK.json at the root");
    assert_eq!(committed, perf(&["--describe"]).stdout);
    let names = declared(&committed, "workloads");
    assert_eq!(names, workloads());
    assert!(declared(&committed, "end_to_end").contains(&"setup_s".to_owned()));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "eventloop", "--trace", "2"],
        &["--workload", "eventloop", "--seconds", "-1"],
        &["--bogus"],
        &[],
    ] {
        let r = perf(args);
        assert!(!r.ok, "{args:?} should fail");
        assert!(
            !r.stdout.contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
