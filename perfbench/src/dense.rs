//! `single-run-dense`: one-shot runs whose caller needs the per-bin
//! answer, so every cell reads the materialized load vector.

use crate::harness::{ratio, Checks, Counts, Metrics, THREADS};
use crate::trace::{CountingRng, StageClock, Tracer};
use crate::{TracedPass, Workload};
use bib_core::prelude::*;
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use bib_rng::SeedSequence;

/// Which engine path a cell takes, and so which layer runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// `Engine::Faithful` sequential driver.
    Sequential,
    /// `Engine::Faithful` round loop on one thread.
    Rounds,
    /// `Engine::Auto` with two threads (the concurrent engine today).
    AutoThreads,
}

struct Cell {
    label: String,
    proto: Box<dyn DynProtocol + Send + Sync>,
    cfg: RunConfig,
    seed: u64,
    path: Path,
    /// Largest legal load, where the protocol guarantees one.
    max_load: Option<u64>,
}

/// The dense workload's generated inputs.
pub struct Dense {
    cells: Vec<Cell>,
}

type MakeProto = fn() -> Box<dyn DynProtocol + Send + Sync>;

impl Dense {
    /// Builds every cell's protocol, configuration and seed from `seed`.
    pub fn build(seed: u64) -> Self {
        let master = SeedSequence::new(seed).child_str("single-run-dense");
        let mut cells = Vec::new();
        let mut add = |proto: Box<dyn DynProtocol + Send + Sync>, cfg: RunConfig, path, bound| {
            let label = format!("{} n={} m={} {path:?}", proto.dyn_name(), cfg.n, cfg.m);
            cells.push(Cell {
                seed: master.child_str(&label).seed(),
                label,
                proto,
                cfg,
                path,
                max_load: bound,
            });
        };
        // Both sizes keep the load vector (4 MB) above the 2 MiB of L2 per
        // core while leaving a pass short enough that a run times every
        // cell several times: this workload's memory-bound cells are the
        // ones co-tenant cache and memory traffic slows.
        let seq = RunConfig::new(1_000_000, 5_000_000).with_engine(Engine::Faithful);
        add(
            Box::new(Adaptive::paper()),
            seq,
            Path::Sequential,
            Some(seq.max_load_bound()),
        );
        add(
            Box::new(Threshold),
            seq,
            Path::Sequential,
            Some(seq.max_load_bound()),
        );
        add(Box::new(GreedyD::new(2)), seq, Path::Sequential, None);
        let rounds: [(MakeProto, Option<u64>); 3] = [
            (|| Box::new(Collision::new(1)), None),
            (|| Box::new(BoundedLoad::new(2)), Some(2)),
            (|| Box::new(ParallelGreedy::new(2, 4, 1)), None),
        ];
        let n_p = 1_000_000;
        for (path, cfg) in [
            (
                Path::Rounds,
                RunConfig::new(n_p, n_p as u64).with_engine(Engine::Faithful),
            ),
            (
                Path::AutoThreads,
                RunConfig::new(n_p, n_p as u64)
                    .with_engine(Engine::Auto)
                    .with_threads(THREADS),
            ),
        ] {
            for (make, bound) in &rounds {
                add(make(), cfg, path, *bound);
            }
        }
        Self { cells }
    }

    /// Checks an outcome and reads its per-bin loads, as a caller of a
    /// one-shot run would.
    fn check(cell: &Cell, o: &Outcome) -> Result<(), String> {
        o.validate();
        if o.m != cell.cfg.m {
            return Err(format!("outcome holds {} balls", o.m));
        }
        if let Some(l) = cell.max_load {
            if u64::from(o.max_load()) > l {
                return Err(format!("max load {} above {l}", o.max_load()));
            }
        }
        let loads = o.loads.as_slice();
        let sum: u64 = loads.iter().map(|&l| u64::from(l)).sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        if loads.len() != cell.cfg.n || sum != cell.cfg.m || max != o.max_load() {
            return Err(format!(
                "per-bin loads disagree with the outcome: {} bins, {sum} balls, max {max}",
                loads.len()
            ));
        }
        Ok(())
    }
}

impl Workload for Dense {
    fn describe(&self) -> String {
        self.cells
            .iter()
            .map(|c| format!("{} seed={:#x} {:?}\n", c.label, c.seed, c.cfg))
            .collect()
    }

    fn steps(&self) -> usize {
        self.cells.len()
    }

    fn step(&self, i: usize, checks: &mut Checks, counts: &mut Counts) {
        let cell = &self.cells[i];
        checks.guard(1, &cell.label, || {
            let o = run_protocol(cell.proto.as_ref(), &cell.cfg, cell.seed);
            Self::check(cell, &o)?;
            counts.add_batch(&o);
            Ok(())
        });
    }

    fn traced(&self, tr: &mut Tracer, checks: &mut Checks) -> TracedPass {
        let mut counts = Counts::default();
        let (mut draws, mut mirrored) = (0u64, 0.0f64);
        let (mut seq_balls, mut round_balls, mut rounds, mut messages) = (0u64, 0u64, 0u64, 0u64);
        let mut round_runs = 0u64;
        for cell in &self.cells {
            let layer = match cell.path {
                Path::Sequential => "core.faithful",
                Path::Rounds => "parallel.rounds",
                Path::AutoThreads => "parallel.concurrent",
            };
            // `run_protocol` seeds the run exactly like this.
            let rng = SeedSequence::new(cell.seed)
                .child_str(&cell.proto.name())
                .rng();
            let (o, span) = tr.span("cell", &cell.label, None, |tr, cell_span| {
                let mut rng = CountingRng::new(rng);
                let ((o, clock), run_span) =
                    tr.span(layer, &cell.label, Some(cell_span), |_, _| {
                        let mut clock = StageClock::default();
                        // Stage ends fire inline only on the faithful
                        // paths; the concurrent engine replays them after
                        // its join, so it runs unobserved.
                        let o = if cell.path == Path::AutoThreads {
                            cell.proto.allocate(&cell.cfg, &mut rng, &mut NullObserver)
                        } else {
                            cell.proto.allocate(&cell.cfg, &mut rng, &mut clock)
                        };
                        o.validate();
                        (o, clock)
                    });
                clock.record_stages(tr, stage_layer(cell.path), run_span);
                tr.span(
                    "core.loads.materialize",
                    "as_slice",
                    Some(cell_span),
                    |_, _| o.loads.as_slice().len(),
                );
                draws += rng.draws;
                checks.guard(1, &cell.label, || {
                    Self::check(cell, &o)?;
                    counts.add_batch(&o);
                    Ok(())
                });
                o
            });
            mirrored += tr.secs_of(span);
            match cell.path {
                Path::Sequential => seq_balls += o.m,
                Path::Rounds => {
                    round_balls += o.m;
                    rounds += u64::from(o.rounds());
                    messages += o.messages();
                    round_runs += 1;
                }
                Path::AutoThreads => {
                    // Trace only: the same run on the concurrent engine
                    // with one worker, for the two-thread speedup. The
                    // deterministic mode must give the identical outcome.
                    let cfg = cell.cfg.with_engine(Engine::Concurrent).with_threads(1);
                    let mut rng = SeedSequence::new(cell.seed)
                        .child_str(&cell.proto.name())
                        .rng();
                    let (one, _) = tr.span("parallel.concurrent.1t", &cell.label, None, |_, _| {
                        cell.proto.allocate(&cfg, &mut rng, &mut NullObserver)
                    });
                    checks.expect(
                        one.total_samples == o.total_samples
                            && one.loads.as_slice() == o.loads.as_slice(),
                        || {
                            format!(
                                "{}: 1-thread concurrent run differs from 2-thread",
                                cell.label
                            )
                        },
                    );
                }
            }
        }
        let stage_s = tr.busy("core.faithful.stage");
        let stages = tr.count("core.faithful.stage") as f64;
        let faithful = tr.busy("core.faithful");
        let concurrent = tr.busy("parallel.concurrent");
        let mut layers = Metrics::default();
        layers.put("core.faithful.busy_s", faithful, "s");
        layers.put(
            "core.faithful.ns_per_ball",
            ratio(faithful * 1e9, seq_balls as f64),
            "ns",
        );
        layers.put("core.faithful.stage_s", ratio(stage_s, stages), "s");
        layers.put(
            "core.loads.materialize_s",
            tr.busy("core.loads.materialize"),
            "s",
        );
        layers.put("parallel.rounds.busy_s", tr.busy("parallel.rounds"), "s");
        layers.put(
            "parallel.rounds.rounds",
            ratio(rounds as f64, round_runs as f64),
            "count",
        );
        layers.put(
            "parallel.rounds.messages_per_ball",
            ratio(messages as f64, round_balls as f64),
            "count",
        );
        layers.put("parallel.concurrent.busy_s", concurrent, "s");
        layers.put(
            "parallel.concurrent.speedup_2t",
            ratio(tr.busy("parallel.concurrent.1t"), concurrent),
            "ratio",
        );
        TracedPass {
            draws_per_ball: ratio(draws as f64, counts.balls as f64),
            counts,
            layers,
            mirrored_s: mirrored,
        }
    }
}

fn stage_layer(path: Path) -> &'static str {
    match path {
        Path::Sequential => "core.faithful.stage",
        _ => "parallel.rounds.round",
    }
}
