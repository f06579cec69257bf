//! **E7 — Lemma 4.2**: at `m = n²`, `threshold`'s final distribution is
//! rough: `Ψ = Ω(n^{9/8})`, gap `= Ω(n^{1/8})`, `Φ = 2^{Ω(n^{1/8})}`.
//!
//! Sweep `n` with `m = n²` (histogram-engine threshold column;
//! auto-resolved adaptive contrast) and report Ψ/n^{9/8}, gap/n^{1/8}
//! and ln Φ/n^{1/8}.
//! Lemma 4.2 predicts all three stay bounded *away from zero* as `n`
//! grows; `adaptive` at the same `m = n²` is shown for contrast (its
//! Ψ/n and gap stay flat — Corollary 3.5).
//!
//! ```text
//! cargo run --release -p bib-bench --bin lemma42 [-- --quick --csv --no-loads]
//! ```
//!
//! With `--no-loads` both columns run on the histogram engine and every
//! outcome is asserted to never materialize its dense load vector. The
//! size grid stays put — `m = n²` is a ball-count wall, not a bin-count
//! one — so here the flag is a lazy-contract check, not a scale unlock
//! (that regime lives in `corollary35 --no-loads`).

use bib_analysis::stats::power_fit;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate::summarize_metric;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    // m = n² reaches 1.7 × 10⁹ balls at the top size; the histogram
    // engine's round work is independent of n, so each run is cheap.
    let ns: Vec<usize> = args.pick(vec![2560, 5120, 10240, 20480, 40960], vec![64, 128]);
    let reps = args.reps_or(10, 3);

    println!("# Lemma 4.2: threshold at m = n^2; {reps} reps\n");
    let mut table = Table::new(vec![
        "n",
        "thr_psi/n^1.125",
        "thr_gap/n^0.125",
        "thr_lnphi/n^0.125",
        "ada_psi/n",
        "ada_gap",
    ]);

    let mut ns_f = Vec::new();
    let mut psi_means = Vec::new();
    let mut gap_means = Vec::new();
    for &n in &ns {
        let m = (n as u64) * (n as u64);
        // The threshold column — the lemma's subject — pins the
        // histogram engine at every size; its chi-square-bounded
        // occupancy approximation is validated against the faithful
        // engine (tests/histogram_equivalence.rs), and `--engine
        // faithful` reproduces the exact process when wanted. The
        // adaptive contrast defaults to Engine::Auto (the histogram
        // engine at the full sizes). --no-loads re-pins it to the
        // histogram engine too (Auto may resolve to the dense faithful
        // loop at small n) so the lazy assertion holds on every
        // outcome.
        let ada_default = if args.no_loads {
            Engine::Histogram
        } else {
            Engine::Auto
        };
        let thr_cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Histogram));
        let ada_cfg = RunConfig::new(n, m).with_engine(args.engine_or(ada_default));
        let spec = args.replicate_spec(reps);
        let thr = replicate_outcomes(&Threshold, &thr_cfg, &spec);
        let ada = replicate_outcomes(&Adaptive::paper(), &ada_cfg, &spec);
        for o in thr.iter().chain(ada.iter()) {
            args.assert_lazy(o, &format!("n={n}"));
        }

        let n98 = (n as f64).powf(9.0 / 8.0);
        let n18 = (n as f64).powf(1.0 / 8.0);
        let t_psi = summarize_metric(&thr, |o| o.psi() / n98);
        let t_gap = summarize_metric(&thr, |o| o.gap() as f64 / n18);
        let t_phi = summarize_metric(&thr, |o| o.ln_phi() / n18);
        let a_psi = summarize_metric(&ada, |o| o.psi() / n as f64);
        let a_gap = summarize_metric(&ada, |o| o.gap() as f64);
        ns_f.push(n as f64);
        psi_means.push(summarize_metric(&thr, |o| o.psi()).mean);
        gap_means.push(summarize_metric(&thr, |o| o.gap() as f64).mean);

        table.row(vec![
            n.to_string(),
            f(t_psi.mean),
            f(t_gap.mean),
            f(t_phi.mean),
            f(a_psi.mean),
            f(a_gap.mean),
        ]);
    }

    table.print(&args);
    // Measured exponents vs the lemma's lower bounds (9/8 and 1/8).
    let (_, psi_exp, psi_r2) = power_fit(&ns_f, &psi_means);
    let (_, gap_exp, gap_r2) = power_fit(&ns_f, &gap_means);
    println!(
        "\n# Fitted threshold exponents: psi ~ n^{} (r2 {}), gap ~ n^{} (r2 {})",
        f(psi_exp),
        f(psi_r2),
        f(gap_exp),
        f(gap_r2)
    );
    println!("# Lemma 4.2 lower bounds: psi exponent >= 9/8 = 1.125, gap exponent >= 1/8 = 0.125.");
    println!("\n# Expected shape: the three threshold columns stay bounded away from 0");
    println!("# (the lemma's lower bounds), while adaptive's psi/n and gap stay flat");
    println!("# and small (Corollary 3.5) despite the same m = n^2 load.");
}
