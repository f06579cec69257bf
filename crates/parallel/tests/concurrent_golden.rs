//! Golden fingerprints of the threaded drivers' random streams.
//!
//! `Engine::Concurrent` and `serve_concurrent` promise outcomes that
//! are a pure function of the seed, bit-identical at every thread
//! count. The thread-count tests compare runs with each other; these
//! pin the absolute values, so a refactor of the chunk scheduling or
//! the per-chunk stream derivation that silently moves every outcome
//! (consistently across thread counts) still fails here.
//!
//! Each fingerprint is an FNV-1a hash of the dense final loads plus
//! the run counters; serve runs also hash the per-tick series and the
//! latency tail.

use bib_core::prelude::*;
use bib_core::run::run_protocol;
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use bib_parallel::stream::serve_concurrent;

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

fn loads_hash(loads: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &l in loads {
        h.bytes(&l.to_le_bytes());
    }
    h.0
}

/// `(loads hash, total_samples, rounds, messages)`.
type BatchFingerprint = (u64, u64, u32, u64);

fn batch_fingerprint(proto: &dyn DynProtocol, threads: usize, seed: u64) -> BatchFingerprint {
    let cfg = RunConfig::new(4096, 4096)
        .with_engine(Engine::Concurrent)
        .with_threads(threads);
    let out = run_protocol(proto, &cfg, seed);
    out.validate();
    (
        loads_hash(out.loads.as_slice()),
        out.total_samples,
        out.rounds(),
        out.messages(),
    )
}

#[test]
fn batch_engine_streams_are_pinned() {
    let cases: [(Box<dyn DynProtocol>, u64, BatchFingerprint); 3] = [
        (
            Box::new(Collision::new(1)),
            2013,
            (0xb5e5_c5b6_16b8_aad3, 12557, 5, 12557),
        ),
        (
            Box::new(BoundedLoad::new(2)),
            2014,
            (0x4542_ab77_8663_1a75, 12792, 4, 12792),
        ),
        (
            Box::new(ParallelGreedy::new(2, 4, 1)),
            2015,
            (0xd206_f023_c47f_4995, 9990, 4, 9990),
        ),
    ];
    for (proto, seed, want) in &cases {
        for threads in [1usize, 2] {
            let got = batch_fingerprint(proto.as_ref(), threads, *seed);
            assert_eq!(
                got,
                *want,
                "{} at {threads} threads: got {got:#x?}",
                proto.dyn_name()
            );
        }
    }
}

/// `(loads hash, total_samples, series hash, latency hash)`.
type ServeFingerprint = (u64, u64, u64, u64);

/// The mass-failure drill every pinned serve case runs under, at
/// per-ball departure probability `depart`.
fn drill(depart: f64) -> StreamSpec {
    StreamSpec::new(60, depart)
        .with_faults(FaultPlan::mass_failure(20, 0.5, 40, 9))
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 3,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        })
}

fn serve_fingerprint(
    spec: &StreamSpec,
    cfg: &RunConfig,
    family: Family,
    seed: u64,
) -> ServeFingerprint {
    let report = serve_concurrent(spec, family, cfg, seed);
    report.outcome.validate();
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
    (
        loads_hash(report.outcome.loads.as_slice()),
        report.outcome.total_samples,
        series.0,
        latency.0,
    )
}

#[test]
fn serve_streams_are_pinned() {
    // `(depart, n, arrivals per tick, family, seed, fingerprint)`.
    // The departure law runs its mirrored inversion at p > ½, its
    // rounded-normal branch once a bin's load puts `ℓ·p·(1−p)` at 4 or
    // more (the adaptive case's steady state sits near ℓ = 96), and
    // nothing at all at p = 0.
    let cases: [(f64, usize, u64, Family, u64, ServeFingerprint); 5] = [
        (
            0.05,
            4096,
            1024,
            Family::Greedy(2),
            41,
            (
                0xde76_8995_4373_009a,
                121_911,
                0x3d60_531e_eaac_6b4c,
                0xb73b_8f30_980e_ad6e,
            ),
        ),
        (
            0.05,
            4096,
            1024,
            Family::Adaptive,
            42,
            (
                0xf794_487f_2d77_5062,
                96_751,
                0x9685_d70d_266d_4ef5,
                0xc1c6_f7b9_51b4_3212,
            ),
        ),
        (
            0.6,
            1024,
            8 * 1024,
            Family::Greedy(2),
            43,
            (
                0x0166_ec43_3dcf_d1c9,
                982_792,
                0xf8fb_285c_f742_048a,
                0x2ce0_6160_5882_d095,
            ),
        ),
        (
            0.25,
            512,
            24 * 512,
            Family::Adaptive,
            44,
            (
                0xf732_972f_c672_e1d4,
                1_387_818,
                0x5572_0369_313b_3991,
                0xc55b_6420_a35f_c0e2,
            ),
        ),
        (
            0.0,
            1024,
            2 * 1024,
            Family::Threshold,
            45,
            (
                0xbfd1_1dd2_2ed3_7946,
                198_244,
                0x26d4_3b19_1d2a_4b1c,
                0x2b77_82a0_a04f_2ec0,
            ),
        ),
    ];
    for (depart, n, per_tick, family, seed, want) in cases {
        let spec = drill(depart);
        for threads in [1usize, 2] {
            let cfg = RunConfig::new(n, 60 * per_tick).with_threads(threads);
            let got = serve_fingerprint(&spec, &cfg, family, seed);
            assert_eq!(
                got, want,
                "{family:?} at depart {depart}, {threads} threads: got {got:#x?}"
            );
        }
    }
}
