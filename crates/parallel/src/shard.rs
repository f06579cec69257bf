//! Chunked sharding shared by the two threaded drivers — the
//! concurrent batch engine ([`crate::protocols`]) and the dense serve
//! driver ([`crate::stream`]).
//!
//! Both split a phase's items (balls or bins) into fixed chunks of
//! [`CHUNK`] items, hand chunk `c` to worker `c % workers`, and let a
//! chunk that needs randomness draw from its own stream, derived from
//! the run's seed path plus `(round, chunk)`. Nothing about a chunk's
//! work or its draws depends on which worker runs it, which is what
//! makes both drivers bit-identical across thread counts.

use bib_rng::{SeedSequence, Xoshiro256PlusPlus};
// ORDERING: none — `into_inner` below takes ownership, no shared access.
use std::sync::atomic::AtomicU32;

/// Items per work chunk: large enough that the per-chunk stream setup
/// (a few SplitMix64 mixes) is noise.
const CHUNK: u64 = 4096;

/// The `[lo, hi)` item range of chunk `c` over `items` items.
fn chunk_range(c: u64, items: u64) -> (u64, u64) {
    let lo = c * CHUNK;
    (lo, (lo + CHUNK).min(items))
}

/// The chunks worker `w` of `workers` owns in a phase over `items`
/// items — a fixed round-robin — each with its `[lo, hi)` range.
pub(crate) fn owned_chunks(
    w: usize,
    workers: usize,
    items: u64,
) -> impl Iterator<Item = (u64, u64, u64)> {
    (w as u64..items.div_ceil(CHUNK))
        .step_by(workers)
        .map(move |c| {
            let (lo, hi) = chunk_range(c, items);
            (c, lo, hi)
        })
}

/// The stream of chunk `chunk` in round (or tick) `round`, under the
/// driver's seed path `prefix`. Any worker can derive it locally.
pub(crate) fn chunk_stream(prefix: SeedSequence, round: u64, chunk: u64) -> Xoshiro256PlusPlus {
    prefix.child(round).child(chunk).rng()
}

/// Drains a shard of atomics into the plain vector an outcome wants,
/// once the workers have joined. ORDERING: none — `into_inner` takes
/// ownership.
pub(crate) fn unwrap_loads(loads: Vec<AtomicU32>) -> Vec<u32> {
    loads.into_iter().map(AtomicU32::into_inner).collect()
}
