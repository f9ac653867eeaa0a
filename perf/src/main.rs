//! `perf` — the repository's benchmark runner (see `perf/README.md`).
//!
//! One invocation measures one workload:
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--tsv FILE]
//! perf --list        workload names, one a line
//! perf --describe    the contents of BENCHMARK.json
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced repetitions;
//! `--trace 1` reports the per-layer metrics from step-traced repetitions
//! and the isolated layer drivers. Either prints every metric by name with
//! its unit, then one JSON object as the last line of standard output, and
//! exits non-zero if any output check failed. `perf/run.sh` builds this
//! binary and, without `--workload`, runs the whole set.

mod clock;
mod gen;
mod isolated;
mod metrics;
mod run;
mod stat;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Decl, END_TO_END, PER_LAYER};
use run::{Mode, Rep, SimState};
use trace::{Class, ClassSummary};
use workloads::{Scale, WORKLOADS};

/// How long one measurement measures unless told otherwise; also
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 12;
/// Repetitions whose times are kept, at least (after one discarded warm-up).
const MIN_REPS: usize = 3;
/// `setup_s` samples, at least. Set-up is microseconds to milliseconds, so
/// its median needs many more samples than there are repetitions, and they
/// are nearly free: after every repetition extra set-ups run until there are
/// [`SETUPS_PER_REP`] of them or [`SETUP_BUDGET_S`] is spent, so that the
/// samples are spread over the whole measurement like the repetitions.
const MIN_SETUPS: usize = 15;
const SETUPS_PER_REP: usize = 32;
const SETUP_BUDGET_S: f64 = 0.05;
/// Untraced/traced pairs of a traced run, at least.
const MIN_PAIRS: usize = 2;
/// `gen.host_share` above this in every traced repetition fails the run:
/// the benchmark must not measure itself. (Every, because a busy host only
/// ever adds to a repetition's reading, and a check must not fail on that.)
const GEN_SHARE_CAP_PCT: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    tsv: Option<String>,
}

const USAGE: &str =
    "usage: perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--tsv FILE]
       perf --list | --describe";

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1996,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        tsv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--list" => {
                for w in &WORKLOADS {
                    println!("{}", w.name);
                }
                return Ok(None);
            }
            "--describe" => {
                print!("{}", describe());
                return Ok(None);
            }
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                // Any 64-bit integer is a seed; a negative one wraps.
                a.seed = v
                    .parse()
                    .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.scale = Scale::Quick,
            "--tsv" => a.tsv = Some(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == a.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            names.join(", ")
        ));
    }
    Ok(Some(a))
}

/// `BENCHMARK.json`: the committed file is this function's output, and
/// `tests/quick.rs` fails when the two differ.
fn describe() -> String {
    let better = |d: &Decl| if d.lower_is_better { "lower" } else { "higher" };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// A measured metric: declaration, value, and the note printed beside it.
struct Value {
    decl: &'static Decl,
    value: f64,
    note: String,
}

/// What one invocation found.
struct Report {
    values: Vec<Value>,
    sim: SimState,
    problems: Vec<String>,
}

fn decl(table: &'static [Decl], name: &str) -> &'static Decl {
    table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Keeps `sim` equal to the first repetition's, or records the problem.
fn same_sim(first: &SimState, rep: &Rep, what: &str, problems: &mut Vec<String>) {
    if rep.sim != *first {
        problems.push(format!(
            "{what} diverged from the first repetition: sim_digest {:#018x} vs {:#018x}",
            rep.sim.digest(),
            first.digest()
        ));
    }
}

/// `median of n, spread s %`, then the samples in ascending order: the
/// reader sees the repetitions, not just what was made of them.
fn spread_note(samples: &mut [f64]) -> String {
    sample_note("median", samples)
}

/// The same for a time reported as its fastest repetition.
fn fastest_note(samples: &mut [f64]) -> String {
    let median = stat::median(samples);
    sample_note(&format!("fastest; median {median:.4}"), samples)
}

fn sample_note(what: &str, samples: &mut [f64]) -> String {
    let n = samples.len();
    if n < 2 {
        return format!("n={n}");
    }
    let mut note = format!(
        "{what} of {n}, spread {:.1} %",
        100.0 * stat::spread(samples)
    );
    if n <= 16 {
        note.push(':');
        for s in samples.iter() {
            let _ = write!(note, " {s:.4}");
        }
    }
    note
}

/// The fastest of `samples`. Host time of a deterministic run is what the
/// run takes plus whatever the shared host took away meanwhile, which only
/// ever adds: on the reference box whole measurements read 25 % long for
/// half a minute at a time, and the median of a measurement's repetitions
/// follows that where its minimum does not.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn end_to_end(args: &Args) -> Report {
    let Args {
        workload: name,
        seed,
        scale,
        ..
    } = args;
    let warm = run::rep(name, *seed, *scale, Mode::Plain);
    let mut problems = warm.sim.problems(&warm.expect, *scale);
    let (mut run_s, mut setup_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while run_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let r = run::rep(name, *seed, *scale, Mode::Plain);
        same_sim(&warm.sim, &r, "a repetition", &mut problems);
        run_s.push(r.host.run_s);
        setup_s.push(r.host.setup_s);
        let extra = Instant::now();
        for _ in 1..SETUPS_PER_REP {
            if extra.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
                break;
            }
            setup_s.push(run::setup_only(name, *seed, *scale));
        }
    }
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(run::setup_only(name, *seed, *scale));
    }
    let rss = run::peak_rss_mb();
    if rss.is_none() {
        problems.push("peak resident set unreadable (VmHWM and getrusage)".into());
    }

    let stall_note = format!("n={}", warm.sim.stalls.n);
    let mut values = vec![
        Value {
            decl: decl(&END_TO_END, "run_s"),
            note: fastest_note(&mut run_s),
            value: fastest(&run_s),
        },
        Value {
            decl: decl(&END_TO_END, "setup_s"),
            note: spread_note(&mut setup_s),
            value: stat::median(&mut setup_s),
        },
        Value {
            decl: decl(&END_TO_END, "peak_rss_mb"),
            value: rss.unwrap_or(f64::NAN),
            note: "VmHWM".into(),
        },
    ];
    for (name, v) in metrics::sim_end_to_end(&warm.sim) {
        let d = decl(&END_TO_END, name);
        match v {
            Some(value) => values.push(Value {
                decl: d,
                value,
                note: if name.starts_with("sim_stall") {
                    stall_note.clone()
                } else {
                    String::new()
                },
            }),
            // Only `--quick` sizes get here: at full size a missing
            // percentile is already a problem.
            None => eprintln!("{name}: withheld, {stall_note} is too few samples"),
        }
    }
    Report {
        values,
        sim: warm.sim,
        problems,
    }
}

/// Adds `b`'s totals to `a`, keeping per-repetition percentiles aside.
fn add_classes(a: &mut [ClassSummary; 5], b: &[ClassSummary; 5]) {
    for (x, y) in a.iter_mut().zip(b) {
        x.count += y.count;
        x.total_ns += y.total_ns;
    }
}

fn traced(args: &Args) -> Report {
    let Args {
        workload: name,
        seed,
        scale,
        ..
    } = args;
    let warm = run::rep(name, *seed, *scale, Mode::Plain);
    let mut problems = warm.sim.problems(&warm.expect, *scale);
    let tick_cost = trace::tick_cost();
    // Steps are events plus parked deliveries, and a quarter of them is
    // timed: room enough that the span store never grows inside the loop.
    let mut marks = Vec::with_capacity(warm.sim.events as usize / 2 + 1024);
    let (mut plain_s, mut traced_s, mut gen_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut classes = [ClassSummary::default(); 5];
    let mut p50: [Vec<f64>; 5] = Default::default();
    let mut p99: [Vec<f64>; 5] = Default::default();
    let mut steps = 0u64;
    let started = Instant::now();
    while plain_s.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < args.seconds {
        let plain = run::rep(name, *seed, *scale, Mode::Plain);
        same_sim(&warm.sim, &plain, "an untraced repetition", &mut problems);
        plain_s.push(plain.host.run_s);

        let r = run::rep(name, *seed, *scale, Mode::Traced(marks));
        same_sim(&warm.sim, &r, "the traced run", &mut problems);
        let t = r.traced.expect("traced mode returns spans");
        traced_s.push(t.secs);
        let summary = t.spans.summarise();
        add_classes(&mut classes, &summary);
        for (i, s) in summary.iter().enumerate() {
            p50[i].push(s.p50_ns);
            p99[i].push(s.p99_ns);
        }
        if steps != 0 && steps != t.spans.steps() {
            problems.push("two traced runs took different step counts".into());
        }
        steps = t.spans.steps();
        let per_body = r.gen.timed_ticks as f64 / r.gen.timed_steps.max(1) as f64;
        gen_ns.push((per_body - tick_cost as f64).max(0.0) * t.spans.ns_per_tick());
        marks = t.spans.into_marks();
    }
    drop(marks);
    let pairs = plain_s.len() as u64;
    for (i, c) in classes.iter_mut().enumerate() {
        c.p50_ns = stat::median(&mut p50[i]);
        c.p99_ns = stat::median(&mut p99[i]);
    }

    let sim = &warm.sim;
    let plain_note = fastest_note(&mut plain_s);
    let plain = fastest(&plain_s);
    let overhead = 100.0 * (fastest(&traced_s) / plain - 1.0);
    let gen_ns_per_step = stat::median(&mut gen_ns);
    let share_of = |ns_per_step: f64| 100.0 * ns_per_step * sim.gen_steps as f64 / (plain * 1e9);
    let gen_share = share_of(gen_ns_per_step);
    // `gen_ns` is sorted by the median above: its first is the quietest.
    let quietest = share_of(gen_ns[0]);
    if quietest > GEN_SHARE_CAP_PCT {
        problems.push(format!(
            "gen.host_share {quietest:.1} % at its lowest exceeds {GEN_SHARE_CAP_PCT} %: the benchmark measures itself"
        ));
    }
    // Host time of the steps in which protocol handlers run, per logical
    // protocol message of whichever engine ran.
    let handler_ns = (classes[Class::Send as usize].total_ns
        + classes[Class::Complete as usize].total_ns)
        / pairs as f64;
    let per_msg = |msgs: u64| {
        if msgs == 0 {
            0.0
        } else {
            handler_ns / msgs as f64
        }
    };

    let mut found: Vec<(String, f64, String)> = Vec::new();
    let mut put = |k: &str, v: f64, note: &str| found.push((k.to_string(), v, note.to_string()));
    for (k, v) in metrics::layer_counts(sim) {
        put(k, v, "");
    }
    put("sim.steps", steps as f64, "");
    let parked = classes[Class::Park as usize].count / pairs;
    put("sim.parked_steps", parked as f64, "");
    put(
        "sim.ns_per_event",
        plain * 1e9 / sim.events as f64,
        &plain_note,
    );
    put("sim.events_per_s", sim.events as f64 / plain, &plain_note);
    put("core.ns_per_msg", per_msg(sim.sum("asvm.msg.")), "");
    put("xmm.ns_per_msg", per_msg(sim.sum("xmm.msg.")), "");
    for (k, v) in metrics::step_metrics(&classes, pairs) {
        put(&k, v, "");
    }
    put("gen.ns_per_step", gen_ns_per_step, "1 body in 32 timed");
    put("gen.host_share", gen_share, "of untraced run_s");
    put("trace.overhead_pct", overhead, &format!("{pairs} pairs"));
    for (k, v) in isolated::run_all(*scale) {
        put(k, v, "isolated");
    }

    let values = PER_LAYER
        .iter()
        .map(|d| {
            let (_, value, note) = found
                .iter()
                .find(|(k, ..)| k == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            Value {
                decl: d,
                value: *value,
                note: note.clone(),
            }
        })
        .collect();
    Report {
        values,
        sim: warm.sim,
        problems,
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json_line(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.problems.is_empty(),
        r.sim.ops,
        r.sim.failed()
    );
    for (i, v) in r.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            v.decl.name, v.value, v.decl.unit
        );
    }
    s.push_str("}}");
    s
}

fn append_tsv(path: &str, args: &Args, r: &Report) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let w = &args.workload;
    for v in &r.values {
        let d = v.decl;
        writeln!(
            f,
            "{w}\t{}\t{:?}\t{}\t{}\t{}",
            d.name,
            v.value,
            d.unit,
            d.kind.label(),
            d.bound
        )?;
    }
    if !args.trace {
        writeln!(f, "{w}\tops\t{}\tcount\texact\t0", r.sim.ops)?;
        writeln!(f, "{w}\tfailed_ops\t{}\tcount\texact\t0", r.sim.failed())?;
        writeln!(
            f,
            "{w}\tsim_digest\t{:#018x}\thash\texact\t0",
            r.sim.digest()
        )?;
    }
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };

    println!(
        "workload {} seed {} trace {} scale {:?}",
        args.workload, args.seed, args.trace as u8, args.scale
    );
    for v in &report.values {
        println!(
            "  {:<34} {:>18.6} {:<6} {}",
            v.decl.name, v.value, v.decl.unit, v.note
        );
    }
    let sim = &report.sim;
    println!("  {:<34} {:>18} count", "ops", sim.ops);
    println!("  {:<34} {:>18} count", "failed_ops", sim.failed());
    println!("  {:<34} {:#018x}", "sim_digest", sim.digest());
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    if report.values.iter().any(|v| !v.value.is_finite()) {
        println!("  CHECK FAILED: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.tsv {
        if let Err(e) = append_tsv(path, &args, &report) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", json_line(&report));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
