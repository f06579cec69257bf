//! `serve-churn-faults`: the streaming load balancer through churn, a
//! mass failure and the recovery. Arrivals are an open loop in virtual
//! time (Poisson per tick, independent of the system's state).

use crate::clock::now_ns;
use crate::harness::{quantile_u32, ratio, Checks, Counts, Metrics, THREADS};
use crate::trace::{CountingRng, Tracer};
use crate::{TracedPass, Workload};
use bib_core::faults::{BinState, FaultPlan};
use bib_core::prelude::*;
use bib_core::stream::{arrival_count, departure_split, stream_name};
use bib_parallel::serve_concurrent;
use bib_rng::SeedSequence;

/// Bins in the fleet.
const N: usize = 100_000;
/// Expected arrivals over the whole run.
const ARRIVALS: u64 = 10_000_000;
/// Virtual ticks.
const TICKS: u64 = 240;
/// The crash strikes at the start of this tick …
const CRASH_AT: u64 = TICKS / 3;
/// … and every bin recovers at the start of this one.
const RECOVER_AT: u64 = 2 * TICKS / 3;
/// Per-ball per-tick departure probability.
const DEPART: f64 = 0.10;
/// Share of the fleet that crashes. Kept clear of the default
/// `fallback_alive_frac` of 0.5, where whether the one-choice fallback
/// engages would depend on the binomial split.
const CRASH: f64 = 0.4;
/// The pre-fault band is the gap range over ticks `[TICKS / 6, CRASH_AT)`,
/// after the fleet has filled to its steady state.
const BAND_FROM: u64 = TICKS / 6;

struct Run {
    label: String,
    family: Family,
    threads: usize,
    seed: u64,
}

/// The serve workload's generated inputs.
pub struct Serve {
    spec: StreamSpec,
    cfg: RunConfig,
    runs: Vec<Run>,
    /// A small spec for the 1-vs-2-thread bit-identity check.
    small: (StreamSpec, RunConfig, u64),
}

/// What the checks of one serve run extract from its report.
struct RunStats {
    placed: u64,
    recovery_ticks: u64,
}

impl Serve {
    /// Builds the stream spec, fault plan and per-run seeds from `seed`.
    pub fn build(seed: u64) -> Self {
        let master = SeedSequence::new(seed).child_str("serve-churn-faults");
        let faults = FaultPlan::mass_failure(
            CRASH_AT,
            CRASH,
            RECOVER_AT,
            master.child_str("faults").seed(),
        );
        let spec = StreamSpec::new(TICKS, DEPART).with_faults(faults);
        let runs = [
            (Family::Greedy(2), 1),
            (Family::Adaptive, 1),
            (Family::Greedy(2), THREADS),
        ]
        .into_iter()
        .map(|(family, threads)| {
            let label = format!("{} threads={threads}", stream_name(family));
            Run {
                seed: master.child_str(&label).seed(),
                label,
                family,
                threads,
            }
        })
        .collect();
        let small_faults =
            FaultPlan::mass_failure(20, CRASH, 40, master.child_str("small faults").seed());
        Self {
            spec,
            cfg: RunConfig::new(N, ARRIVALS),
            runs,
            small: (
                StreamSpec::new(60, DEPART).with_faults(small_faults),
                RunConfig::new(2_000, 200_000),
                master.child_str("small").seed(),
            ),
        }
    }

    fn serve_run(&self, run: &Run) -> StreamReport {
        if run.threads > 1 {
            serve_concurrent(
                &self.spec,
                run.family,
                &self.cfg.with_threads(run.threads),
                run.seed,
            )
        } else {
            serve(&self.spec, run.family, &self.cfg, run.seed)
        }
    }

    /// The serve-mode output checks: ledger, regime, recovery.
    fn check(r: &StreamReport) -> Result<RunStats, String> {
        let o = &r.outcome;
        o.validate();
        let s = &o.scenario;
        if s.arrivals != o.m + s.departed + s.shed {
            return Err(format!(
                "ledger: {} arrivals vs {} resident + {} departed + {} shed",
                s.arrivals, o.m, s.departed, s.shed
            ));
        }
        if s.fallbacks != 0 {
            return Err(format!(
                "{} fallback placements: left the no-fallback regime",
                s.fallbacks
            ));
        }
        if r.series.len() as u64 != TICKS {
            return Err(format!("{} tick records", r.series.len()));
        }
        let placed = s.arrivals - s.shed;
        if r.latency.count() != placed {
            return Err(format!(
                "latency tail holds {} of {placed} placements",
                r.latency.count()
            ));
        }
        let crashed = r.series[CRASH_AT as usize].alive_ppm;
        if !(500_000..700_000).contains(&crashed) {
            return Err(format!(
                "alive fraction {crashed} ppm after a {CRASH} crash"
            ));
        }
        if s.alive_frac != 1.0 || r.series.last().map(|t| t.alive_ppm) != Some(1_000_000) {
            return Err(format!(
                "alive fraction {} after the recovery",
                s.alive_frac
            ));
        }
        let band = r.series[BAND_FROM as usize..CRASH_AT as usize]
            .iter()
            .map(|t| t.gap)
            .max()
            .unwrap_or(0);
        let back = r.series[RECOVER_AT as usize..]
            .iter()
            .position(|t| t.gap <= band)
            .ok_or_else(|| format!("gap never re-entered its pre-fault band (≤ {band})"))?;
        Ok(RunStats {
            placed,
            recovery_ticks: back as u64 + 1,
        })
    }

    fn add(counts: &mut Counts, r: &StreamReport, stats: &RunStats) {
        counts.balls += stats.placed;
        counts.samples += r.outcome.total_samples;
        counts.ops += r.ops();
        counts.gaps.extend(r.series.iter().map(|t| t.gap));
        counts
            .latency
            .get_or_insert_with(LatencyTail::new)
            .merge(&r.latency);
        counts.recovery_ticks.push(stats.recovery_ticks);
    }

    fn checked(&self, checks: &mut Checks, counts: &mut Counts, run: &Run, r: &StreamReport) {
        let s = &r.outcome.scenario;
        // The tick series counts the balls shed after exhausting their
        // retries. The outcome also sheds the balls still waiting for a
        // retry when the run ends; those were cut off by the end of the
        // run, not refused, so they count as neither attempted nor failed.
        let shed = r.series.last().map_or(0, |t| t.shed);
        checks.arrivals(s.arrivals - (s.shed - shed), shed);
        if let Some(stats) = checks.guard(1, &run.label, || Self::check(r)) {
            Self::add(counts, r, &stats);
        }
    }

    /// End-to-end serve figures that only this workload defines.
    fn serve_metrics(counts: &Counts) -> Metrics {
        let tail = counts.latency.clone().unwrap_or_default();
        let recovery: u64 = counts.recovery_ticks.iter().sum();
        let mut m = Metrics::default();
        m.put("serve.probe_p50", tail.quantile(0.50) as f64, "samples");
        m.put("serve.probe_p99", tail.quantile(0.99) as f64, "samples");
        m.put(
            "serve.gap_p95",
            f64::from(quantile_u32(&counts.gaps, 0.95)),
            "load",
        );
        m.put(
            "serve.recovery_ticks",
            ratio(recovery as f64, counts.recovery_ticks.len() as f64),
            "ticks",
        );
        m
    }
}

impl Workload for Serve {
    fn describe(&self) -> String {
        let mut s = format!("{:?} {:?}\n", self.spec, self.cfg);
        for r in &self.runs {
            s += &format!("{} seed={:#x}\n", r.label, r.seed);
        }
        s + &format!("small {:?}\n", self.small)
    }

    fn steps(&self) -> usize {
        self.runs.len()
    }

    fn step(&self, i: usize, checks: &mut Checks, counts: &mut Counts) {
        let run = &self.runs[i];
        let r = self.serve_run(run);
        self.checked(checks, counts, run, &r);
    }

    /// Deterministic `serve_concurrent` must give bit-identical results
    /// at one and two threads.
    fn final_checks(&self, checks: &mut Checks) {
        let (spec, cfg, seed) = &self.small;
        let family = Family::Greedy(2);
        checks.guard(1, "serve_concurrent at 1 and 2 threads", || {
            let one = serve_concurrent(spec, family, &cfg.with_threads(1), *seed);
            let two = serve_concurrent(spec, family, &cfg.with_threads(THREADS), *seed);
            let same = one.series == two.series
                && one.latency == two.latency
                && one.outcome.total_samples == two.outcome.total_samples
                && one.outcome.scenario == two.outcome.scenario
                && one.outcome.loads.as_slice() == two.outcome.loads.as_slice();
            same.then_some(())
                .ok_or_else(|| "results differ".to_string())
        });
    }

    fn figures(&self, counts: &Counts) -> Metrics {
        Self::serve_metrics(counts)
    }

    fn traced(&self, tr: &mut Tracer, checks: &mut Checks) -> TracedPass {
        let mut counts = Counts::default();
        let mut mirrored = 0.0;
        let (mut serial_ops, mut serial_samples, mut serial_placed, mut fallbacks) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut draws, mut draw_balls) = (0u64, 0u64);
        let (mut greedy_serial, mut greedy_concurrent) = (0.0, 0.0);
        let mut shape = None;
        for run in &self.runs {
            let layer = if run.threads > 1 {
                "parallel.stream"
            } else {
                "core.stream"
            };
            let (r, span) = tr.span(layer, &run.label, None, |_, _| self.serve_run(run));
            let secs = tr.secs_of(span);
            mirrored += secs;
            self.checked(checks, &mut counts, run, &r);
            match (run.family, run.threads) {
                (Family::Greedy(_), 1) => greedy_serial = secs,
                (Family::Greedy(_), _) => greedy_concurrent = secs,
                _ => {}
            }
            if run.threads > 1 {
                continue;
            }
            let s = &r.outcome.scenario;
            serial_ops += r.ops();
            serial_samples += r.outcome.total_samples;
            serial_placed += s.arrivals - s.shed;
            fallbacks += s.fallbacks;
            // Trace only: the same trajectory through `Protocol::allocate`
            // (seeded as `serve` seeds it) to count the RNG words.
            let proto = StreamProtocol::new(self.spec.clone(), run.family);
            let name = stream_name(run.family);
            let mut rng = CountingRng::new(SeedSequence::new(run.seed).child_str(&name).rng());
            let (o, _) = tr.span("rng.count", &run.label, None, |_, _| {
                proto.allocate(&self.cfg, &mut rng, &mut NullObserver)
            });
            checks.expect(o.total_samples == r.outcome.total_samples, || {
                format!("{}: allocate and serve trajectories differ", run.label)
            });
            draws += rng.draws;
            draw_balls += s.arrivals - s.shed;
            shape.get_or_insert_with(|| r.outcome.loads.histogram().clone());
        }

        // Replay the per-tick histogram calls once per tick on the run's
        // final histogram shape, and the dense fault application at
        // every event tick.
        let mut rng = SeedSequence::new(self.runs[0].seed)
            .child_str("replay")
            .rng();
        let shape = shape.unwrap_or_else(|| OccupancyHistogram::new(N));
        for tick in 0..TICKS {
            let mut h = shape.clone();
            let t0 = now_ns();
            departure_split(&mut h, DEPART, &mut rng);
            let t1 = now_ns();
            arrival_count(ARRIVALS, TICKS, tick, true, &mut rng);
            let t2 = now_ns();
            let label = format!("tick {tick}");
            tr.record("core.stream.departure_split", label.clone(), None, t0, t1);
            tr.record("core.stream.arrival_count", label, None, t1, t2);
        }
        let mut states = vec![BinState::Alive; N];
        let mut ticks: Vec<u64> = self.spec.faults.events().iter().map(|e| e.at).collect();
        ticks.dedup();
        for at in ticks {
            tr.span(
                "core.faults.apply_dense",
                format!("tick {at}"),
                None,
                |_, _| self.spec.faults.apply_dense(at, &mut states),
            );
            let alive = states.iter().filter(|s| s.accepts()).count() as f64 / N as f64;
            let expected = if at == CRASH_AT { 1.0 - CRASH } else { 1.0 };
            checks.expect((alive - expected).abs() < 0.02, || {
                format!("apply_dense at tick {at}: alive fraction {alive}, expected {expected}")
            });
        }

        let busy = tr.busy("core.stream");
        let mut layers = Serve::serve_metrics(&counts);
        layers.put("core.stream.busy_s", busy, "s");
        layers.put(
            "core.stream.ns_per_op",
            ratio(busy * 1e9, serial_ops as f64),
            "ns",
        );
        layers.put(
            "core.stream.samples_per_op",
            ratio(serial_samples as f64, serial_ops as f64),
            "count",
        );
        layers.put(
            "core.stream.fallback_frac",
            ratio(fallbacks as f64, serial_placed as f64),
            "ratio",
        );
        for name in ["core.stream.departure_split", "core.stream.arrival_count"] {
            layers.put(&format!("{name}_s"), tr.busy(name), "s");
        }
        layers.put(
            "core.faults.apply_dense_s",
            tr.busy("core.faults.apply_dense"),
            "s",
        );
        layers.put("parallel.stream.busy_s", tr.busy("parallel.stream"), "s");
        layers.put(
            "parallel.stream.vs_serial",
            ratio(greedy_serial, greedy_concurrent),
            "ratio",
        );
        TracedPass {
            draws_per_ball: ratio(draws as f64, draw_balls as f64),
            counts,
            layers,
            mirrored_s: mirrored,
        }
    }
}
