//! The repository benchmark: three workloads driven through the
//! library's public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replicate-sweep|single-run-dense|serve-churn-faults> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every output check passed.

mod clock;
mod dense;
mod harness;
mod serve;
mod sweep;
mod trace;

use clock::{now_ns, secs, timed};
use dense::Dense;
use harness::{median, peak_rss_mb, Checks, Counts, Metrics, THREADS};
use serve::Serve;
use std::process::ExitCode;
use sweep::Sweep;
use trace::Tracer;

/// The workload names, in documentation order.
const WORKLOADS: [&str; 3] = ["replicate-sweep", "single-run-dense", "serve-churn-faults"];

/// Timed batches of input builds before each pass; `setup_s` is the
/// median per-build time over every batch of a run.
const SETUP_BATCHES: usize = 4;

/// Input builds per timed batch.
const SETUP_REPS: usize = 21;

/// Timed passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// One workload's generated inputs and the passes over them.
pub trait Workload {
    /// Every generated input, rendered; equal for equal seeds.
    fn describe(&self) -> String;
    /// Steps in one pass over the fixed work; each is timed on its own.
    fn steps(&self) -> usize;
    /// Runs step `i` untraced, with its output checks.
    fn step(&self, i: usize, checks: &mut Checks, counts: &mut Counts);
    /// The same work with spans around each layer call, plus the
    /// trace-only probes the per-layer metrics need.
    fn traced(&self, tr: &mut Tracer, checks: &mut Checks) -> TracedPass;
    /// Untimed checks made once, after the timed passes.
    fn final_checks(&self, _checks: &mut Checks) {}
    /// Figures only this workload defines, printed by the untraced run.
    fn figures(&self, _counts: &Counts) -> Metrics {
        Metrics::default()
    }
}

/// What a traced pass yields.
pub struct TracedPass {
    /// Must equal the untraced pass's counts.
    pub counts: Counts,
    /// The layer metrics this workload is home to.
    pub layers: Metrics,
    /// RNG words drawn through the callers' generators per placed ball.
    pub draws_per_ball: f64,
    /// Seconds of the traced calls that mirror the untraced pass.
    pub mirrored_s: f64,
}

/// One untraced pass: its counts and the seconds of each step.
fn pass(w: &dyn Workload, checks: &mut Checks) -> (Counts, Vec<f64>) {
    let mut counts = Counts::default();
    let times = (0..w.steps())
        .map(|i| timed(|| w.step(i, checks, &mut counts)).1)
        .collect();
    (counts, times)
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "replicate-sweep" => Box::new(Sweep::build(seed)),
        "single-run-dense" => Box::new(Dense::build(seed)),
        _ => Box::new(Serve::build(seed)),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let available = bib_parallel::available_threads();
    let host = format!(
        "nproc={} available_threads={available} threads={THREADS} rustc={:?}",
        command_line("nproc", &[]),
        command_line("rustc", &["--version"])
    );
    println!("host: {host}");
    if THREADS > available {
        eprintln!(
            "perfbench: the workloads run {THREADS} threads but this host offers {available}; \
             refusing to record oversubscribed numbers"
        );
        return ExitCode::from(2);
    }
    if args.self_test {
        return self_test(args.seed);
    }
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&args, &host, &mut checks)
    } else {
        untraced_run(&args, &mut checks)
    };
    report(&metrics, &checks)
}

/// Builds the inputs `SETUP_BATCHES` × `SETUP_REPS` times. Each batch of
/// `SETUP_REPS` builds is timed as one interval, so that the clock's own
/// cost and jitter do not swamp a set-up that takes microseconds.
fn set_up(args: &Args, setups: &mut Vec<f64>) -> Box<dyn Workload> {
    let mut inputs = None;
    for _ in 0..SETUP_BATCHES {
        let ((), s) = timed(|| {
            for _ in 0..SETUP_REPS {
                inputs = Some(build(&args.workload, args.seed));
            }
        });
        setups.push(s / SETUP_REPS as f64);
    }
    inputs.expect("SETUP_BATCHES and SETUP_REPS are positive")
}

/// Whether one more pass, taking about as long as the last one, still
/// ends within `--seconds` of `start`.
fn fits(args: &Args, start: u64, last: f64) -> bool {
    secs(start, now_ns()) + last <= args.seconds
}

/// The end-to-end run: a warm-up pass, then timed passes for
/// `--seconds`. Every pass runs on freshly built inputs, so set-up is
/// sampled across the whole run.
fn untraced_run(args: &Args, checks: &mut Checks) -> Metrics {
    let mut setups = Vec::new();
    let w = set_up(args, &mut setups);
    let (first, _) = pass(w.as_ref(), checks);
    // The footprint of set-up plus one pass of the fixed work; later
    // passes only repeat it.
    let peak_rss = peak_rss_mb();
    let start = now_ns();
    let mut steps: Vec<Vec<f64>> = vec![Vec::new(); w.steps()];
    let (mut passes, mut last) = (0, 0.0);
    while passes < MIN_PASSES || fits(args, start, last) {
        let w = set_up(args, &mut setups);
        let (counts, times) = pass(w.as_ref(), checks);
        passes += 1;
        last = times.iter().sum();
        for (step, t) in steps.iter_mut().zip(times) {
            step.push(t);
        }
        checks.expect(counts == first, || {
            format!("pass {passes} counted differently from the first pass")
        });
    }
    w.final_checks(checks);
    // The fixed work's time: the sum of each step's median, so that a
    // burst of interference during one step does not move the total.
    let wall: f64 = steps.iter().map(|t| median(t)).sum();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", wall, "s");
    m.put("ops_per_s", first.ops as f64 / wall, "ops/s");
    m.put("samples_per_ball", first.samples_per_ball(), "samples");
    m.put("gap_mean", first.gap_mean(), "load");
    m.put("peak_rss_mb", peak_rss, "MB");
    println!("passes: {passes} timed after one warm-up");
    for (name, value, unit) in w.figures(&first).0 {
        println!("{name} = {value} {unit}");
    }
    m
}

/// The per-layer run: every workload's traced pass (each layer is
/// measured on the workload that exercises it), next to an untraced
/// pass of the chosen workload for the tracing overhead. Repeats for
/// `--seconds` and reports medians.
fn traced_run(args: &Args, host: &str, checks: &mut Checks) -> Metrics {
    let workloads: Vec<Box<dyn Workload>> = WORKLOADS
        .iter()
        .map(|name| build(name, args.seed))
        .collect();
    let own = WORKLOADS
        .iter()
        .position(|&w| w == args.workload)
        .expect("parse_args accepts only known workloads");
    // Warm-up, so that the first untraced pass is not the only cold one.
    pass(workloads[own].as_ref(), checks);
    let start = now_ns();
    let (mut loops, mut tracers, mut last) = (Vec::new(), Vec::new(), 0.0);
    while loops.is_empty() || fits(args, start, last) {
        let loop_start = now_ns();
        let (untraced_counts, times) = pass(workloads[own].as_ref(), checks);
        let untraced_s: f64 = times.iter().sum();
        tracers.clear();
        let mut m = Metrics::default();
        for (i, w) in workloads.iter().enumerate() {
            let mut tr = Tracer::new();
            let pass = w.traced(&mut tr, checks);
            if i == own {
                checks.expect(pass.counts == untraced_counts, || {
                    "traced pass counted differently from the untraced pass".into()
                });
                m.put("rng.draws_per_ball", pass.draws_per_ball, "count");
                m.put(
                    "trace.overhead_frac",
                    pass.mirrored_s / untraced_s - 1.0,
                    "ratio",
                );
            }
            m.extend(pass.layers);
            tracers.push(tr);
        }
        loops.push(m);
        last = secs(loop_start, now_ns());
    }
    write_trace(args, host, &tracers);
    // Every loop reports the same metrics in the same order.
    let mut m = Metrics::default();
    for (i, (name, _, unit)) in loops[0].0.iter().enumerate() {
        let values: Vec<f64> = loops.iter().map(|l| l.0[i].1).collect();
        m.put(name, median(&values), unit);
    }
    m
}

/// Writes the last loop's spans to `perfbench/out/`, one pass per
/// workload.
fn write_trace(args: &Args, host: &str, tracers: &[Tracer]) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let passes: Vec<String> = WORKLOADS
        .iter()
        .zip(tracers)
        .map(|(name, tr)| tr.to_json(&[("workload", format!("\"{name}\""))]))
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {host:?}, \"passes\": [\n{}]}}\n",
        args.workload,
        args.seed,
        passes.join(",\n")
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            spans(tracers),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn spans(tracers: &[Tracer]) -> usize {
    tracers.iter().map(Tracer::len).sum()
}

/// Prints every metric by name with its unit, then the result line, and
/// turns the checks into the exit code.
fn report(metrics: &Metrics, checks: &Checks) -> ExitCode {
    for e in &checks.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "failed_frac = {} ratio ({} of {})",
        harness::ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    let mut body = Vec::new();
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks that each workload's inputs are a pure function of the seed
/// and that two passes over the same seed give identical counts, both
/// untraced and traced.
fn self_test(seed: u64) -> ExitCode {
    let mut checks = Checks::default();
    for name in WORKLOADS {
        let a = build(name, seed);
        let text = a.describe();
        checks.expect(text == build(name, seed).describe(), || {
            format!("{name}: the same seed built different inputs")
        });
        checks.expect(text != build(name, seed ^ 1).describe(), || {
            format!("{name}: different seeds built the same inputs")
        });
        let (first, _) = pass(a.as_ref(), &mut checks);
        let (second, _) = pass(a.as_ref(), &mut checks);
        checks.expect(first == second, || {
            format!("{name}: two passes over one seed counted differently")
        });
        let traced = [0, 1].map(|_| a.traced(&mut Tracer::new(), &mut checks));
        checks.expect(
            traced[0].counts == first
                && traced[1].counts == first
                && traced[0].draws_per_ball == traced[1].draws_per_ball,
            || format!("{name}: traced passes counted differently"),
        );
        println!(
            "self-test {name}: {} checks, {} failed",
            checks.attempted, checks.failed
        );
    }
    report(&Metrics::default(), &checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for name in WORKLOADS {
            let a = build(name, 7).describe();
            assert_eq!(a, build(name, 7).describe(), "{name}");
            assert_ne!(a, build(name, 8).describe(), "{name}");
        }
    }
}
