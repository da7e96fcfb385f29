//! `ledger` — a repeatable four-workload benchmark of the live Data
//! Cyclotron ring, with a per-layer trace. See `README.md` beside this
//! package for the glossary, the workloads and the noise findings.
//!
//! ```text
//! ledger run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--append set.json]
//! ledger check
//! ledger compare <setA.json> <setB.json>
//! ledger manifest
//! ```
//!
//! `run` is what `BENCHMARK.json` names; `--trace 1` makes it the
//! traced run. Either way it ends with one JSON line `{correct,
//! attempted, failed, metrics}`.

mod cluster;
mod epoch;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use epoch::EpochSpec;
use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workloads::Kind;

/// Epochs per run; every reported metric is the median of this many
/// per-epoch values, each from a fresh process.
const EPOCHS: usize = 5;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ledger run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--append set.json]\n  ledger check\n  ledger compare <setA.json> <setB.json>\n  \
         ledger manifest\nworkloads: tpch_ring tpch_local oltp_mix hotset_sweep"
    );
    ExitCode::from(2)
}

/// Scratch space: `ledger/` beside the build profile directory the
/// binary runs from (`target/ledger/`, or `$CARGO_TARGET_DIR/ledger/`),
/// so the benchmark writes nowhere else.
fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("ledger")))
        .unwrap_or_else(|| PathBuf::from("target/ledger"))
}

struct Child {
    kind: Kind,
    seed: u64,
    iterations: usize,
    traced: bool,
    durable: bool,
}

/// What an epoch child left behind, measured by the parent once the
/// child has exited: the report, the bytes in its data dirs and how
/// long node 0 takes to recover from them.
struct EpochOutcome {
    report: Json,
    disk_bytes: u64,
    recover_ms: Option<f64>,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `RingNode::try_spawn` on the data dir a finished epoch left: the
/// restart of a killed node (the child exits without shutting down).
fn recover_ms(node_dir: &Path) -> Option<f64> {
    use datacyclotron::{NodeId, RingNode};
    let fabric = dc_transport::mem::ring(1).pop()?;
    let opts = cluster::node_options(Some(node_dir), None);
    let started = Instant::now();
    let node = RingNode::try_spawn(NodeId(0), std::sync::Arc::new(fabric), opts).ok()?;
    let took = started.elapsed();
    node.shutdown();
    Some(took.as_secs_f64() * 1e3)
}

/// Run one epoch in a fresh process. The parent owns the epoch's
/// scratch directory: it creates it before the spawn and removes it
/// only after the child has exited (removing it under running nodes
/// makes their checkpointers fail).
fn run_epoch_child(child: &Child, serial: usize, recover: bool) -> Result<EpochOutcome, String> {
    let name = child.kind.name();
    let root = scratch_root();
    let dir = root.join("tmp").join(format!("{name}-{}-{serial}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spawned_at = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    let mut cmd = Command::new(exe);
    // One malloc arena, as part of the benchmark's definition (like the
    // fsync policy): with glibc's default of eight per core, which
    // thread's arena a column lands in moves the peak resident set of
    // one and the same epoch by a tenth (26.4–29.4 MiB on hotset_sweep
    // against 15.9–16.1 MiB with one arena).
    cmd.env("MALLOC_ARENA_MAX", "1");
    cmd.arg("epoch")
        .args(["--workload", name])
        .args(["--seed", &child.seed.to_string()])
        .args(["--iterations", &child.iterations.to_string()])
        .args(["--durable", if child.durable { "1" } else { "0" }])
        .args(["--spawned-at", &spawned_at.to_string()])
        .arg("--dir")
        .arg(&dir);
    if child.traced {
        cmd.arg("--trace-out").arg(root.join(format!("trace-{name}.json")));
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    let outcome = out.map_err(|e| format!("spawning epoch: {e}")).and_then(|out| {
        if !out.status.success() {
            return Err(format!("{name} epoch exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or("");
        let report = Json::parse(line).map_err(|e| format!("{name} epoch report: {e}"))?;
        let recover_ms = if recover { recover_ms(&dir.join("node0")) } else { None };
        Ok(EpochOutcome { report, disk_bytes: dir_bytes(&dir), recover_ms })
    });
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    outcome
}

/// `run`: `EPOCHS` untraced epochs per workload, epoch-major when there
/// are several workloads, so each workload's samples are spread over
/// the whole invocation instead of one window.
fn cmd_run(kinds: &[Kind], seed: u64, seconds: f64, append: Option<&Path>) -> Result<bool, String> {
    let mut reports: Vec<Vec<Json>> = vec![Vec::new(); kinds.len()];
    for e in 0..EPOCHS {
        for (k, &kind) in kinds.iter().enumerate() {
            let child = Child {
                kind,
                seed,
                iterations: kind.iterations(seconds),
                traced: false,
                durable: kind.durable(),
            };
            reports[k].push(run_epoch_child(&child, e, false)?.report);
        }
    }
    let mut all_correct = true;
    let mut last = Json::Null;
    for (&kind, epochs) in kinds.iter().zip(&reports) {
        let run = report::Run::new(kind, seed, seconds, epochs);
        run.print();
        if let Some(path) = append {
            report::append_to_set(path, &run)?;
        }
        all_correct &= run.correct();
        last = run.result_line();
    }
    // One workload per invocation is the driver's form; with several,
    // the line describes the last one.
    println!("{last}");
    Ok(all_correct)
}

/// `trace`: one untraced epoch (the counter-derived layer metrics and
/// the base of the overhead ratio), one traced epoch, and for a durable
/// workload one more untraced epoch without data dirs.
fn cmd_trace(kind: Kind, seed: u64, seconds: f64) -> Result<bool, String> {
    let iterations = kind.iterations(seconds);
    let child = |traced, durable| Child { kind, seed, iterations, traced, durable };
    let plain = run_epoch_child(&child(false, kind.durable()), 0, kind.durable())?;
    let traced = run_epoch_child(&child(true, kind.durable()), 1, false)?;
    // A memory budget needs a data dir to spill to, so only the
    // unbudgeted durable workload has a diskless twin.
    let diskless = if kind.durable() && kind.mem_budget().is_none() {
        Some(run_epoch_child(&child(false, false), 2, false)?.report)
    } else {
        None
    };
    let trace = report::Trace { kind, seed, plain, traced: traced.report, diskless };
    trace.print(&scratch_root().join(format!("trace-{}.json", kind.name())));
    println!("{}", trace.result_line());
    Ok(trace.correct())
}

/// `check`: a short smoke of all four workloads with full answer
/// verification, the determinism and fixed-count assertions, a traced
/// epoch, and the agreement of `BENCHMARK.json` with the glossary.
fn cmd_check() -> Result<bool, String> {
    const ITERATIONS: usize = 10;
    let mut ok = true;
    let mut fail = |what: String| {
        eprintln!("check: FAILED: {what}");
        ok = false;
    };
    for kind in workloads::ALL {
        let (a, b) = (
            workloads::generate(kind, 7, ITERATIONS, 3),
            workloads::generate(kind, 7, ITERATIONS, 3),
        );
        if !a.same_inputs(&b) {
            fail(format!("{}: two generations from one seed differ", kind.name()));
        }
        // A traced epoch on the cheapest workload covers the probe
        // passes; the others run untraced.
        let traced = kind == Kind::TpchLocal;
        let child =
            Child { kind, seed: 7, iterations: ITERATIONS, traced, durable: kind.durable() };
        let report = run_epoch_child(&child, 0, false)?.report;
        let num = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let expected_ops = (ITERATIONS * kind.ops_per_iteration()) as f64;
        if num("ops") != expected_ops {
            fail(format!("{}: attempted {} ops, expected {expected_ops}", kind.name(), num("ops")));
        }
        for key in ["failed", "warmup_failed", "probe_failed"] {
            if num(key) != 0.0 {
                fail(format!("{}: {key} = {}", kind.name(), num(key)));
            }
        }
        println!(
            "check: {:<13} {} ops + {} warm-up + {} probe, every answer checked",
            kind.name(),
            num("ops"),
            num("warmup_ops"),
            num("probe_ops")
        );
    }
    let tmp = scratch_root().join("tmp");
    let leaked = std::fs::read_dir(&tmp).map_or(0, |d| d.count());
    if leaked > 0 {
        fail(format!("{leaked} scratch directories left under {}", tmp.display()));
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if Json::parse(&text).as_ref() == Ok(&spec::manifest()) => {}
        Ok(_) => fail("BENCHMARK.json differs from `ledger manifest`".to_string()),
        Err(_) => {
            println!("check: no BENCHMARK.json in the working directory, glossary not compared")
        }
    }
    println!("check: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// Flag values by name; positional arguments in order.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Option<Args> {
        let mut parsed = Args { positional: Vec::new(), flags: Vec::new() };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) => parsed.flags.push((name.to_string(), args.next()?)),
                None => parsed.positional.push(arg),
            }
        }
        Some(parsed)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Option<T> {
        self.flag(name).map_or(Some(default), |v| v.parse().ok())
    }
}

fn cmd_epoch(args: &Args) -> Option<ExitCode> {
    let spec = EpochSpec {
        kind: Kind::parse(args.flag("workload")?)?,
        seed: args.num("seed", 42)?,
        iterations: args.num("iterations", 1)?,
        durable: args.flag("durable")? == "1",
        dir: PathBuf::from(args.flag("dir")?),
        trace_out: args.flag("trace-out").map(PathBuf::from),
        spawned_at_ns: args.num("spawned-at", 0)?,
    };
    println!("{}", epoch::run(&spec));
    // The SQL server threads never return and the nodes they hold never
    // drop: leave like a killed `dc-node` would.
    std::process::exit(0);
}

fn main() -> ExitCode {
    let Some(args) = Args::parse(std::env::args().skip(1)) else { return usage() };
    let positional = |i: usize| args.positional.get(i).map(String::as_str);
    let outcome = match (positional(0), positional(1), positional(2)) {
        (Some("epoch"), None, None) => return cmd_epoch(&args).unwrap_or_else(usage),
        (Some("check"), None, None) => cmd_check(),
        (Some("compare"), Some(a), Some(b)) => report::compare(Path::new(a), Path::new(b)),
        (Some("manifest"), None, None) => {
            println!("{}", spec::manifest().pretty());
            Ok(true)
        }
        (Some("run"), None, None) => {
            let kinds: Vec<Kind> = match args.flag("workload") {
                Some("all") => workloads::ALL.to_vec(),
                Some(one) => Kind::parse(one).into_iter().collect(),
                None => Vec::new(),
            };
            let (Some(seed), Some(seconds), false) =
                (args.num("seed", 42u64), args.num("seconds", spec::RUN_SECONDS), kinds.is_empty())
            else {
                return usage();
            };
            if args.flag("trace") == Some("1") {
                kinds.iter().try_fold(true, |ok, &kind| Ok(ok & cmd_trace(kind, seed, seconds)?))
            } else {
                cmd_run(&kinds, seed, seconds, args.flag("append").map(Path::new))
            }
        }
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
