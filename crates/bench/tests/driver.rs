//! The `bench` driver against the committed goldens.
//!
//! The simulator promises bit-for-bit determinism, and the sweep harness
//! promises that stdout is independent of thread count; together those
//! make every experiment's printed table and `--json` document a
//! regression artifact. Any change that shifts an event ordering, a
//! protocol message, or a cost model shows up here as a diff.
//!
//! The experiments that finish in a debug build run here; the slow ones
//! are `#[ignore]`d — CI runs all fifteen against the release binary via
//! `ci/bench_check.sh` (locally: `cargo test -p bench --release --
//! --ignored`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn listed() -> BTreeSet<String> {
    let out = Command::new(BENCH)
        .arg("list")
        .output()
        .expect("run bench list");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("UTF-8")
        .lines()
        .map(|l| {
            l.split_whitespace()
                .next()
                .expect("a name per line")
                .to_string()
        })
        .collect()
}

/// Names `<prefix><name><suffix>` of the files in `dir`.
fn named(dir: &Path, prefix: &str, suffix: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .filter_map(|e| {
            let file = e.expect("dir entry").file_name().into_string().ok()?;
            Some(file.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string())
        })
        .collect()
}

/// Runs `bench <name> --serial --json` in a scratch directory and
/// diffs stdout against `goldens/<name>.stdout.txt` and, where one is
/// committed, the JSON against `BENCH_<name>.json`.
fn check(name: &str) {
    let scratch = std::env::temp_dir().join(format!("bench-driver-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(BENCH)
        .args([name, "--serial", "--json"])
        .current_dir(&scratch)
        .output()
        .expect("run bench");
    assert!(
        out.status.success(),
        "bench {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = |file: String| std::fs::read_to_string(repo().join(file));
    let want = golden(format!("goldens/{name}.stdout.txt")).expect("every experiment has a golden");
    assert!(
        String::from_utf8_lossy(&out.stdout) == want,
        "bench {name}: stdout diverged from goldens/{name}.stdout.txt \
         (ci/bench_check.sh {name} 1996 shows the diff)"
    );
    let json = format!("BENCH_{name}.json");
    if let Ok(want) = golden(json.clone()) {
        let got = std::fs::read_to_string(scratch.join(&json)).expect("--json wrote it");
        assert!(
            got == want,
            "bench {name}: {json} diverged from the committed file"
        );
    }
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
}

#[test]
fn list_and_goldens_name_the_same_experiments() {
    let listed = listed();
    assert_eq!(named(&repo().join("goldens"), "", ".stdout.txt"), listed);
    let json = named(&repo(), "BENCH_", ".json");
    assert!(
        json.is_subset(&listed),
        "committed BENCH_*.json without an experiment: {:?}",
        json.difference(&listed)
    );
    let ci = std::fs::read_to_string(repo().join(".github/workflows/ci.yml")).expect("read ci.yml");
    for name in &listed {
        assert!(ci.contains(name.as_str()), "CI's bench matrix lacks {name}");
    }
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    for args in [&["nosuch"][..], &["table1", "--bogus"], &[]] {
        let out = Command::new(BENCH).args(args).output().expect("run bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench"));
    }
}

#[test]
fn fast_experiments_match_their_goldens() {
    for name in [
        "table1",
        "figure10",
        "figure11",
        "ablation_transport",
        "ablation_memory",
        "ablation_forwarding",
        "ablation_paging",
        "futurework",
        "faultsweep",
        "chaossweep",
        "prefetch",
    ] {
        check(name);
    }
}

#[test]
#[ignore = "slow in debug builds; CI checks the release binary"]
fn slow_experiments_match_their_goldens() {
    for name in ["table2", "table3", "megascale", "tenants"] {
        check(name);
    }
}
