//! Decode-throughput scorecard: scalar vs table-driven fast backend.
//!
//! For every benchmark profile this times whole-image decompression
//! through both [`DecodeBackend`]s and emits `BENCH_codec.json` — the
//! standing codec scorecard the ROADMAP asks for — with MB/s (decimal,
//! original text bytes per second) per profile and backend.
//!
//! Output goes to `$BENCH_CODEC_OUT` when set, else `BENCH_codec.json`
//! at the workspace root. The scorecard is shared with `frame_throughput`
//! (which owns the `frame` section): writes go through
//! [`codepack_bench::scorecard`]'s read-modify-write so each bench only
//! replaces its own section. The raw testkit measurements also land in
//! `target/bench/decode_throughput.json` like every other suite.
//!
//! Run modes:
//!
//! * full (default): `cargo bench --bench decode_throughput` — the
//!   numbers checked in at the repo root.
//! * smoke: `TESTKIT_BENCH_FAST=1 cargo bench --bench decode_throughput`
//!   with `BENCH_CODEC_OUT` pointed at a scratch file — what the ci.sh
//!   tier-2 gate runs to catch fast-path regressions quickly.

use codepack_bench::scorecard::{self, ProfileRow, SCORECARD_SEED};
use codepack_core::{CodePackImage, CompressionConfig, DecodeBackend};
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::{Bench, Throughput};

const SEED: u64 = SCORECARD_SEED;

/// Decimal MB/s from a per-iteration byte count and median ns.
fn mb_per_s(bytes: u64, median_ns: f64) -> f64 {
    bytes as f64 * 1e3 / median_ns.max(1e-9)
}

fn main() {
    let smoke = std::env::var("TESTKIT_BENCH_FAST").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    let mut b = Bench::new("decode_throughput");
    let mut rows = Vec::new();

    for profile in BenchmarkProfile::suite() {
        let text = generate(&profile, SEED).text_words().to_vec();
        let bytes = text.len() as u64 * 4;
        let image = CodePackImage::compress(&text, &CompressionConfig::default());
        // Build the decode tables outside the timed region: the scorecard
        // measures steady-state decode, and one table build amortizes over
        // an image's lifetime anyway.
        image.fast_decoder();

        let scalar_ns = b
            .with_throughput(Throughput::Bytes(bytes))
            .bench(format!("scalar/{}", profile.name), || {
                image
                    .decompress_all_with(DecodeBackend::Scalar)
                    .expect("clean image decodes")
            })
            .median_ns;
        let fast_ns = b
            .with_throughput(Throughput::Bytes(bytes))
            .bench(format!("fast/{}", profile.name), || {
                image
                    .decompress_all_with(DecodeBackend::Fast)
                    .expect("clean image decodes")
            })
            .median_ns;

        rows.push(ProfileRow {
            name: profile.name.to_owned(),
            bytes,
            scalar_mb_s: mb_per_s(bytes, scalar_ns),
            fast_mb_s: mb_per_s(bytes, fast_ns),
        });
    }

    b.finish();

    // Read-modify-write: replace the decode rows, keep any frame section
    // a `frame_throughput` run left behind.
    let path = scorecard::scorecard_path();
    let mut card = scorecard::load(&path).unwrap_or_default();
    card.mode = mode.to_owned();
    card.profiles = rows;
    let doc = scorecard::render(&card);
    std::fs::write(&path, &doc).expect("write scorecard");
    let rows = &card.profiles;
    println!("scorecard ({mode}) -> {}", path.display());
    for r in rows {
        println!(
            "  {:>10}: scalar {:>8.1} MB/s  fast {:>9.1} MB/s  ({:.1}x)",
            r.name,
            r.scalar_mb_s,
            r.fast_mb_s,
            r.fast_mb_s / r.scalar_mb_s.max(1e-9)
        );
    }
}
