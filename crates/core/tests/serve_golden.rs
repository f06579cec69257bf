//! Golden fingerprints of the serial collapsed `serve` driver.
//!
//! `serve` is a pure function of `(seed, spec, cfg)`. Its other tests
//! check laws and ledgers; these pin the absolute trajectories, so a
//! speed-up of the placement or departure hot paths that silently
//! changes a single random draw fails here.
//!
//! The fault plan exercises every health class: draining bins (refuse
//! probes, keep departing), slow bins (doubled contact cost), dead bins
//! (frozen), the one-choice fallback (the crash drops the accepting
//! fraction below `fallback_alive_frac`) and a full recovery.
//!
//! Each fingerprint is an FNV-1a hash of the reconstructed final loads,
//! the run counters, the per-tick series and the latency tail.

use bib_core::prelude::*;

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `(loads hash, counters hash, series hash, latency hash)`.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(spec: &StreamSpec, family: Family, cfg: &RunConfig, seed: u64) -> Fingerprint {
    let report = serve(spec, family, cfg, seed);
    report.outcome.validate();
    let mut loads = Fnv::new();
    for &l in report.outcome.loads.as_slice() {
        loads.bytes(&l.to_le_bytes());
    }
    let o = &report.outcome;
    let s = &o.scenario;
    let mut counters = Fnv::new();
    for v in [
        o.m,
        o.total_samples,
        o.max_samples_per_ball,
        s.arrivals,
        s.departed,
        s.shed,
        s.fallbacks,
        s.alive_frac.to_bits(),
    ] {
        counters.word(v);
    }
    let mut series = Fnv::new();
    for t in &report.series {
        for v in [
            t.tick,
            t.in_system,
            u64::from(t.gap),
            u64::from(t.max_load),
            u64::from(t.alive_ppm),
            t.placed,
            t.departed,
            t.shed,
            t.fallbacks,
            t.samples,
        ] {
            series.word(v);
        }
    }
    // The tail's buckets are private; its derived `Debug` lists them
    // all, in order, with the count.
    let mut latency = Fnv::new();
    latency.bytes(format!("{:?}", report.latency).as_bytes());
    (loads.0, counters.0, series.0, latency.0)
}

fn faulted_spec(depart: f64) -> StreamSpec {
    let plan = FaultPlan::parse("drain@8:0.3,slow@12:0.5,crash@20:0.4,recover@40:all", 2013)
        .expect("valid fault plan");
    StreamSpec::new(60, depart)
        .with_faults(plan)
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 3,
            backoff_cap: 4,
            fallback_alive_frac: 0.5,
        })
}

#[test]
fn serial_serve_streams_are_pinned() {
    let cfg = RunConfig::new(2048, 60 * 1024);
    let spec = faulted_spec(0.1);
    let cases: [(Family, u64, Fingerprint); 4] = [
        (
            Family::Greedy(2),
            51,
            (
                0x774d_9d7a_b731_b63a,
                0x90a2_bfd1_553f_a6bd,
                0xfe05_6c6e_8696_f29d,
                0x67bf_1607_5215_8cee,
            ),
        ),
        (
            Family::Adaptive,
            52,
            (
                0x6bd3_86fd_a78f_b634,
                0xd3f6_e2b4_d95c_420b,
                0xaa56_f6c5_cd7e_96bd,
                0x7aab_58ad_d732_342a,
            ),
        ),
        (
            Family::Threshold,
            53,
            (
                0x9faa_2149_43c3_d6d3,
                0x6ae8_f9f5_0bb5_604f,
                0xedda_035f_fcd0_2d70,
                0xebab_a76c_78fb_977d,
            ),
        ),
        (
            Family::OneChoice,
            54,
            (
                0xf0a4_5c28_31cd_1e9c,
                0x8109_6fda_baa2_6f23,
                0xd054_a814_4de2_4bb2,
                0x0f75_892f_5bdd_e9dc,
            ),
        ),
    ];
    for (family, seed, want) in cases {
        let got = fingerprint(&spec, family, &cfg, seed);
        assert_eq!(got, want, "{family:?}: got {got:#x?}");
    }
}

#[test]
fn serial_serve_churn_regimes_are_pinned() {
    // Heavy churn (p > ½), heavy loads, and no churn at all.
    let cases: [(f64, RunConfig, Family, u64, Fingerprint); 3] = [
        (
            0.6,
            RunConfig::new(1024, 60 * 1024 * 8),
            Family::Greedy(2),
            61,
            (
                0xcd30_8341_789a_2416,
                0xd8a2_d016_ad09_561b,
                0x7152_e64a_7c7b_9383,
                0xa9d3_17d4_62fa_5316,
            ),
        ),
        (
            0.25,
            RunConfig::new(512, 60 * 512 * 24),
            Family::Adaptive,
            62,
            (
                0xcefb_7bde_ad8b_a827,
                0xe45e_0dcb_82ff_ee47,
                0xcd87_6505_6bdc_9084,
                0x5e31_fc12_3357_a6aa,
            ),
        ),
        (
            0.0,
            RunConfig::new(1024, 60 * 1024 * 2),
            Family::Threshold,
            63,
            (
                0xb0d9_3bdf_29af_5242,
                0x7ef0_ba5a_db24_4fb6,
                0x63b8_061a_f152_ef38,
                0x4c46_38fd_7375_5aa8,
            ),
        ),
    ];
    for (depart, cfg, family, seed, want) in cases {
        let got = fingerprint(&faulted_spec(depart), family, &cfg, seed);
        assert_eq!(got, want, "{family:?} at depart {depart}: got {got:#x?}");
    }
}
