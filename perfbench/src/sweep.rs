//! `replicate-sweep`: the paper's experiment traffic. Every cell runs
//! its replicates through `replicate_outcomes` on two threads with
//! `Engine::Auto`; one more cell runs adaptive under a `StageTrace`
//! observer.

use crate::clock::now_ns;
use crate::harness::{ratio, Checks, Counts, Metrics, THREADS};
use crate::trace::{CountingRng, Tracer};
use crate::{TracedPass, Workload};
use bib_core::prelude::*;
use bib_core::protocol::StageTrace;
use bib_core::run::{replicate_seed, run_with_observer};
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use bib_parallel::{par_map, replicate_outcomes, ReplicateSpec};
use bib_rng::SeedSequence;

/// Replicates per cell.
const REPS: u64 = 8;

/// What a cell's outcomes are checked against, and which layer runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// adaptive / threshold: max load ≤ ⌈m/n⌉ + 1.
    Scheduled,
    /// one-choice / greedy[d]: no load bound.
    Fixed,
    /// The weighted family.
    Weighted,
    /// Round-synchronous parallel protocols; `Some(cap)` bounds the load.
    Rounds(Option<u32>),
}

struct Cell {
    label: String,
    proto: Box<dyn DynProtocol + Send + Sync>,
    cfg: RunConfig,
    seed: u64,
    kind: Kind,
}

/// The sweep's generated inputs.
pub struct Sweep {
    cells: Vec<Cell>,
    observed_cfg: RunConfig,
    observed_seed: u64,
}

fn two_class_weights(n: usize) -> Vec<f64> {
    (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect()
}

impl Sweep {
    /// Builds every cell's protocol, weights and seed from `seed`.
    pub fn build(seed: u64) -> Self {
        let master = SeedSequence::new(seed).child_str("replicate-sweep");
        let mut cells = Vec::new();
        let mut add = |proto: Box<dyn DynProtocol + Send + Sync>, n: usize, m: u64, kind| {
            let label = format!("{} n={n} m={m}", proto.dyn_name());
            let seed = master.child_str(&label).seed();
            let cfg = RunConfig::new(n, m).with_engine(Engine::Auto);
            cells.push(Cell {
                label,
                proto,
                cfg,
                seed,
                kind,
            });
        };
        for (n, m) in [
            (10_000, 10_000_000),
            (1_000_000, 100_000_000),
            (100_000_000, 1_600_000_000),
        ] {
            add(Box::new(Adaptive::paper()), n, m, Kind::Scheduled);
            add(Box::new(Threshold), n, m, Kind::Scheduled);
        }
        for m in [1_000_000, 10_000_000] {
            add(Box::new(GreedyD::new(2)), 10_000, m, Kind::Fixed);
            add(Box::new(OneChoice), 10_000, m, Kind::Fixed);
        }
        add(
            Box::new(WeightedAdaptive::new(two_class_weights(10_000))),
            10_000,
            10_000_000,
            Kind::Weighted,
        );
        let n_p = 10_000_000;
        add(
            Box::new(Collision::new(1)),
            n_p,
            n_p as u64,
            Kind::Rounds(None),
        );
        add(
            Box::new(BoundedLoad::new(2)),
            n_p,
            n_p as u64,
            Kind::Rounds(Some(2)),
        );
        add(
            Box::new(ParallelGreedy::new(2, 4, 1)),
            n_p,
            n_p as u64,
            Kind::Rounds(None),
        );
        Self {
            cells,
            observed_cfg: RunConfig::new(100_000, 10_000_000).with_engine(Engine::Auto),
            observed_seed: master.child_str("observed adaptive").seed(),
        }
    }

    fn check(cell: &Cell, o: &Outcome) -> Result<(), String> {
        o.validate();
        if o.m != cell.cfg.m || o.n != cell.cfg.n {
            return Err(format!("outcome is {}x{}", o.n, o.m));
        }
        let limit = match cell.kind {
            Kind::Scheduled => Some(cell.cfg.max_load_bound()),
            Kind::Rounds(Some(cap)) => Some(u64::from(cap)),
            _ => None,
        };
        match limit {
            Some(l) if u64::from(o.max_load()) > l => {
                Err(format!("max load {} above {l}", o.max_load()))
            }
            _ => Ok(()),
        }
    }

    fn check_observed(&self, o: &Outcome, trace: &StageTrace) -> Result<(), String> {
        o.validate();
        let cfg = &self.observed_cfg;
        let stages = cfg.m.div_ceil(cfg.n as u64) as usize;
        if trace.stages.len() != stages || trace.gaps.len() != stages {
            return Err(format!(
                "{} stage records, expected {stages}",
                trace.stages.len()
            ));
        }
        if u64::from(o.max_load()) > cfg.max_load_bound() {
            return Err(format!("observed adaptive max load {}", o.max_load()));
        }
        Ok(())
    }
}

impl Workload for Sweep {
    fn describe(&self) -> String {
        let mut s = String::new();
        for c in &self.cells {
            s += &format!("{} reps={REPS} seed={:#x} {:?}\n", c.label, c.seed, c.cfg);
        }
        s + &format!(
            "observed {:?} seed={:#x}\n",
            self.observed_cfg, self.observed_seed
        )
    }

    fn steps(&self) -> usize {
        self.cells.len() + 1
    }

    fn step(&self, i: usize, checks: &mut Checks, counts: &mut Counts) {
        let Some(cell) = self.cells.get(i) else {
            checks.guard(1, "observed adaptive", || {
                let mut trace = StageTrace::new();
                let o = run_with_observer(
                    &Adaptive::paper(),
                    &self.observed_cfg,
                    self.observed_seed,
                    &mut trace,
                );
                self.check_observed(&o, &trace)?;
                counts.add_batch(&o);
                Ok(())
            });
            return;
        };
        let spec = ReplicateSpec::new(REPS, cell.seed).with_threads(THREADS);
        checks.guard(REPS, &cell.label, || {
            let outs = replicate_outcomes(cell.proto.as_ref(), &cell.cfg, &spec);
            for o in &outs {
                Self::check(cell, o)?;
                counts.add_batch(o);
            }
            Ok(())
        });
    }

    fn traced(&self, tr: &mut Tracer, checks: &mut Checks) -> TracedPass {
        let mut counts = Counts::default();
        let mut draws = 0u64;
        let mut mirrored = 0.0;
        let (mut slots, mut busy, mut tasks) = (0.0f64, 0.0f64, 0u64);
        let (mut outcomes, mut dense, mut hist_draws) = (0u64, 0u64, 0u64);
        for cell in &self.cells {
            let name = cell.proto.name();
            // The same replicates `replicate_outcomes` runs (same seeds,
            // same executor, same thread count), with each task timed
            // and its RNG words counted.
            let (results, par) = tr.span("parallel.executor", &cell.label, None, |_, _| {
                par_map(REPS as usize, THREADS, |rep| {
                    let s = replicate_seed(cell.seed, &name, rep as u64);
                    let mut rng = CountingRng::new(SeedSequence::new(s).rng());
                    let t0 = now_ns();
                    let out = cell.proto.allocate(&cell.cfg, &mut rng, &mut NullObserver);
                    out.validate();
                    (out, rng.draws, t0, now_ns())
                })
            });
            let wall = tr.secs_of(par);
            mirrored += wall;
            slots += wall * THREADS.min(REPS as usize) as f64;
            tasks += REPS;
            for (rep, (o, d, t0, t1)) in results.iter().enumerate() {
                let layer = match cell.kind {
                    Kind::Weighted => "core.weighted",
                    Kind::Rounds(_) => "parallel.rounds.occupancy",
                    _ if o.loads.is_materialized() => "core.faithful",
                    _ => "core.histogram",
                };
                let id = tr.record(layer, format!("rep {rep}"), Some(par), *t0, *t1);
                busy += tr.secs_of(id);
                draws += d;
                if layer == "core.histogram" {
                    hist_draws += d;
                }
                outcomes += 1;
                dense += u64::from(o.loads.is_materialized());
            }
            checks.guard(REPS, &cell.label, || {
                for (o, ..) in &results {
                    Self::check(cell, o)?;
                    counts.add_batch(o);
                }
                Ok(())
            });
        }
        // The observed cell as `run_with_observer` runs it, and its
        // null-observer twin (trace only).
        let proto = Adaptive::paper();
        let observed_rng = || {
            SeedSequence::new(self.observed_seed)
                .child_str(&proto.name())
                .rng()
        };
        let ((o, trace, d), obs_span) = tr.span(
            "core.histogram.observed",
            "adaptive + StageTrace",
            None,
            |_, _| {
                let mut rng = CountingRng::new(observed_rng());
                let mut trace = StageTrace::new();
                let o = proto.allocate(&self.observed_cfg, &mut rng, &mut trace);
                o.validate();
                (o, trace, rng.draws)
            },
        );
        mirrored += tr.secs_of(obs_span);
        draws += d;
        checks.guard(1, "observed adaptive", || {
            self.check_observed(&o, &trace)?;
            counts.add_batch(&o);
            Ok(())
        });
        let (_, null_span) = tr.span("core.histogram.null_twin", "adaptive", None, |_, _| {
            let o = proto.allocate(&self.observed_cfg, &mut observed_rng(), &mut NullObserver);
            o.validate();
        });

        let hist_runs = tr.count("core.histogram") as f64;
        let hist_busy = tr.busy("core.histogram");
        let mut layers = Metrics::default();
        layers.put("core.histogram.busy_s", hist_busy, "s");
        layers.put(
            "core.histogram.us_per_run",
            ratio(hist_busy * 1e6, hist_runs),
            "us",
        );
        layers.put(
            "core.histogram.draws_per_run",
            ratio(hist_draws as f64, hist_runs),
            "count",
        );
        layers.put(
            "core.histogram.observer_s",
            tr.secs_of(obs_span) - tr.secs_of(null_span),
            "s",
        );
        layers.put("core.weighted.busy_s", tr.busy("core.weighted"), "s");
        layers.put(
            "core.loads.materialized_frac",
            ratio(dense as f64, outcomes as f64),
            "ratio",
        );
        layers.put("parallel.executor.efficiency", ratio(busy, slots), "ratio");
        layers.put("parallel.executor.idle_s", slots - busy, "s");
        layers.put("parallel.executor.tasks", tasks as f64, "count");
        TracedPass {
            draws_per_ball: ratio(draws as f64, counts.balls as f64),
            counts,
            layers,
            mirrored_s: mirrored,
        }
    }
}
