//! The repo's benchmark. See README.md in this directory.
//!
//! ```text
//! benchmark --workload W --seed S --seconds N --trace 0|1    one workload, in this process
//! benchmark run   [--workload W] [--seed S] [--seconds N]    every workload, one child each, tracing off
//! benchmark trace [--workload W] [--seed S] [--seconds N]    the same scripts traced, per-layer metrics
//! benchmark smoke                                            every workload at 1/50 size, one round
//! ```

mod api;
mod model;
mod probes;
mod report;
mod rng;
mod runner;
mod script;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{median, percentile, Metric, Metrics, END_TO_END, PER_LAYER};
use runner::Round;
use spans::SpanLog;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 20_200_614;
/// Held out: never run this seed while developing a change; a claim must
/// also hold on it (see README.md).
const RESERVED_SEED: u64 = 500_000_017;
const DEFAULT_SECONDS: f64 = 30.0;
/// The inputs are generated before the timed region and again each time
/// this share of `--seconds` has passed; `setup_s` is the fastest.
const SETUP_EVERY: f64 = 0.1;
/// Root spans the engine's tracer may buffer per traced round.
const ENGINE_TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale_div: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale_div: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.mode = it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--scale-div" => {
                args.scale_div = value()?.parse().map_err(|e| format!("--scale-div: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Removes the engine's environment knobs and points the engine's page
/// file at a directory of the benchmark's own. Runs before anything
/// touches the engine, while the process has one thread.
fn clean_environment() -> std::io::Result<()> {
    for knob in api::ENGINE_ENV_KNOBS {
        if std::env::var_os(knob).is_some() {
            println!("environment: removed {knob} (the benchmark measures the engine's defaults)");
            std::env::remove_var(knob);
        }
    }
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "benchmark: nproc={nproc} rustc=\"{}\" commit={} seed={} seconds={} trace={}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "benchmark: removes {:?} from the environment; closed loop, one client, generator single-threaded",
        api::ENGINE_ENV_KNOBS
    );
}

fn status_field_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Restarts the kernel's peak-RSS watermark, so that `VmHWM` read after a
/// round is that round's peak and not input generation's. Where the kernel
/// refuses, every round reads the process-wide peak — on every run alike.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

struct Prepared {
    spec: workloads::Spec,
    doc: api::SheetData,
    script: Vec<script::Scripted>,
}

/// Input generation, reference answers and a warm-up pass over the cheap
/// steps (everything up to the first edit): what `setup_s` times. Returns
/// the warm-up round too, for its output checks.
fn set_up(name: &str, seed: u64, scale_div: u32) -> (Prepared, f64, Round) {
    let start = Instant::now();
    let workloads::Workload { spec, doc, model } = workloads::build(name, seed, scale_div);
    let script = script::build(&spec, model, seed);
    let cheap = script
        .iter()
        .position(|s| matches!(s.step, script::Step::Edit { .. }));
    let warm_up = runner::run_round(&spec, &doc, &script, &mut SpanLog::new(), cheap);
    let elapsed = start.elapsed().as_secs_f64();
    (Prepared { spec, doc, script }, elapsed, warm_up)
}

/// The time of every step of `metric`'s kind, each taken from the round
/// that ran it fastest.
///
/// Every round replays the same script on the same document, so step `i`
/// of each round is one operation measured again. What disturbs it on a
/// shared host (a busy neighbour, a descheduled vCPU) only ever adds time,
/// so the fastest repetition is the one closest to the engine's own cost;
/// a median over rounds moves by tens of percent with the neighbours. The
/// spread *across* the steps of a kind — a cheap edit against a dear one —
/// is the workload's, and is what the caller's median or percentile
/// summarises.
fn best_of_rounds(rounds: &[Round], metric: &str) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for round in rounds {
        let times = round.samples.iter().filter(|(m, _)| *m == metric);
        for (i, &(_, ms)) in times.enumerate() {
            match best.get_mut(i) {
                Some(fastest) => *fastest = fastest.min(ms),
                None => best.push(ms),
            }
        }
    }
    best
}

/// The end-to-end metrics of a run, from its untraced rounds.
fn end_to_end(setup_times: &[f64], rounds: &[Round], round_peaks_mb: &[f64]) -> Vec<Metric> {
    let mut m = Metrics::new(&END_TO_END);
    let n = rounds.len();
    let lowest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    // Set-ups are repetitions too. About one in three takes 30-60% longer
    // than the rest of its run, so their median lands on either side from
    // run to run; the fastest repeats to within a few percent.
    m.set("setup_s", lowest(setup_times), setup_times.len());
    // Whole rounds are repetitions too: the fastest one.
    let script_s: Vec<f64> = rounds.iter().map(|r| r.script_s).collect();
    m.set("run_s", lowest(&script_s), n);
    // The lowest per-round peak: what a round needs when the allocator is
    // at its tidiest. Later rounds carry a few percent of arena
    // fragmentation that differs from run to run.
    m.set("peak_rss_mb", lowest(round_peaks_mb), n);
    for (name, _) in END_TO_END
        .iter()
        .filter(|(name, _)| name.ends_with("_ms") && !name.starts_with("edit_"))
    {
        let steps = best_of_rounds(rounds, name);
        m.set(name, median(&steps), steps.len() * n);
    }
    let edits = best_of_rounds(rounds, "edit_ms");
    m.set("edit_p50_ms", median(&edits), edits.len() * n);
    m.set("edit_p95_ms", percentile(&edits, 95.0), edits.len() * n);
    m.finish()
}

/// Runs one workload in this process and prints its result line last.
fn run_workload(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by the caller");
    print_header(args);
    let (mut prepared, first_setup_s, first_warm_up) = set_up(name, args.seed, args.scale_div);
    let mut setup_times = vec![first_setup_s];
    let mut warm_ups = vec![first_warm_up];
    println!("workload {name}: {}", workloads::why(name));
    println!(
        "workload {name}: {} steps/round={}",
        prepared.spec.constants(),
        prepared.script.len()
    );

    let mut log = SpanLog::new();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let (mut engine_spans, mut engine_dropped) = (0u64, 0u64);
    let mut round_peaks_mb = Vec::new();
    let started = Instant::now();
    loop {
        reset_peak_rss();
        let Prepared { spec, doc, script } = &prepared;
        untraced.push(runner::run_round(spec, doc, script, &mut log, None));
        round_peaks_mb.push(peak_rss_mb());
        if args.trace {
            // The same script with the benchmark's spans kept and the
            // engine's tracer on; rounds alternate so both kinds see the
            // same machine.
            log.recording = true;
            log.round = traced.len() as u32;
            api::engine_trace::enable(ENGINE_TRACE_CAPACITY);
            traced.push(runner::run_round(spec, doc, script, &mut log, None));
            api::engine_trace::disable();
            log.recording = false;
            engine_spans += api::engine_trace::drain()
                .iter()
                .map(|n| n.span_count() as u64)
                .sum::<u64>();
            engine_dropped += api::engine_trace::dropped();
            api::engine_trace::clear();
        }
        // Stop when another pass would end after `--seconds`: a run measures
        // for at most that long, and always for one round.
        let elapsed = started.elapsed().as_secs_f64();
        let passes = untraced.len() as f64;
        if elapsed + elapsed / passes > args.seconds {
            break;
        }
        // Set up again every `SETUP_EVERY` of the run, from nothing, and
        // go on with what that made (the same inputs: they are a function
        // of the seed). Spread over the run like this, the set-ups see the
        // same stretch of the host as the rounds do.
        if !args.trace && elapsed >= setup_times.len() as f64 * args.seconds * SETUP_EVERY {
            drop(prepared);
            let (p, secs, warm_up) = set_up(name, args.seed, args.scale_div);
            setup_times.push(secs);
            warm_ups.push(warm_up);
            prepared = p;
        }
    }

    let metrics: Vec<Metric> = if args.trace {
        let mut m = Metrics::new(&PER_LAYER);
        let observed = probes::Observed {
            spec: &prepared.spec,
            doc: &prepared.doc,
            script: &prepared.script,
            seed: args.seed,
            log: &log,
            traced: &traced,
            untraced: &untraced,
            engine_spans,
            engine_dropped,
        };
        probes::measure(&observed, &mut m);
        let path = out_dir().join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&path, log.to_json(name)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "workload {name}: {} spans written to {}",
            log.spans.len(),
            path.display()
        );
        m.finish()
    } else {
        end_to_end(&setup_times, &untraced, &round_peaks_mb)
    };

    let per_round: Vec<String> = untraced
        .iter()
        .map(|r| format!("{:.3}", r.script_s))
        .collect();
    println!(
        "workload {name}: script seconds per untraced round: {}",
        per_round.join(" ")
    );
    let per_setup: Vec<String> = setup_times.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "workload {name}: seconds per set-up: {}",
        per_setup.join(" ")
    );
    print!("{}", report::lines(name, &metrics));
    if !args.trace {
        // Exact counts of one round, for repeat.sh to compare across runs.
        for (primitive, count) in untraced[0].meter.nonzero() {
            println!("  meter.{primitive}@{name} = {count} count (n=1)");
        }
    }
    let all_rounds = || warm_ups.iter().chain(&untraced).chain(&traced);
    let attempted: u64 = all_rounds().map(|r| r.attempted).sum();
    let failed: u64 = all_rounds().map(|r| r.failed).sum();
    println!(
        "  failed_ops_share@{name} = {} ratio (n={attempted})",
        failed as f64 / attempted as f64
    );
    for failure in all_rounds().flat_map(|r| &r.failures).take(10) {
        println!("  FAILED {failure}");
    }
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every selected workload in a child process of its own (so peak
/// RSS is per workload); the children print their results themselves.
fn run_children(args: &Args, trace: bool, smoke: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own path is known");
    let names: Vec<&str> = match &args.workload {
        Some(one) => vec![one.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut failed: Vec<&str> = Vec::new();
    for name in names {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if smoke {
            // `--seconds 0` is one round; a fiftieth of the rows.
            child.args(["--seconds", "0", "--scale-div", "50"]);
        } else {
            child.args(["--seconds", &args.seconds.to_string()]);
        }
        if !child.status().expect("child process starts").success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("benchmark: every workload passed its output checks");
        ExitCode::SUCCESS
    } else {
        println!("benchmark: FAILED workloads: {failed:?}");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = clean_environment() {
        eprintln!("cannot prepare {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    if args.seed == RESERVED_SEED {
        println!("benchmark: seed {RESERVED_SEED} is the held-out seed; use it to confirm a claim, not to develop one");
    }
    match args.mode.as_deref() {
        None if args.workload.is_some() => run_workload(&args),
        None => {
            eprintln!("give --workload W, or one of: run, trace, smoke");
            ExitCode::from(2)
        }
        Some("run") => run_children(&args, false, false),
        Some("trace") => run_children(&args, true, false),
        Some("smoke") => run_children(&args, false, true),
        Some(other) => {
            eprintln!("unknown mode {other}; one of: run, trace, smoke");
            ExitCode::from(2)
        }
    }
}
