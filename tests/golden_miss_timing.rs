//! Golden miss timing of every decompressor model, pinned per engine ×
//! configuration × memory timing.
//!
//! `figure2_worked_example` pins two cycle counts of one hand-built block;
//! this test pins the whole miss-service timeline of a synthetic program. A
//! fixed, seeded stream of miss addresses drives `CodePackFetch`,
//! `HuffPackFetch` and `CcrpFetch` under several configurations and two
//! memory timings. For each run it pins a 64-bit FNV-1a digest of every
//! `MissService` field, plus the engine's final `memory_beats`,
//! `total_critical_cycles` and `buffer_hits`. The stream generator and the
//! digest are written here, with no code in common with the models.
//!
//! A second test checks the index-probe accounting of every engine under
//! every `IndexCacheModel`: the `index_hits`/`index_misses` counters must
//! agree with the `index_hit` outcome each service reports, which is what
//! the block profiler counts from.

use std::sync::Arc;

use codepack::baselines::{
    CcrpConfig, CcrpFetch, CcrpImage, HuffPackConfig, HuffPackFetch, HuffPackImage,
};
use codepack::core::{
    CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig, FetchEngine, FetchStats,
    IndexCacheModel, MissService, MissSource,
};
use codepack::mem::MemoryTiming;
use codepack::synth::{generate, BenchmarkProfile};

const TEXT_BASE: u32 = 0x40_0000;
const LINE_BYTES: u32 = 32;
const MISSES: usize = 4000;

/// SplitMix64: the miss-stream generator, independent of the test kit.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A fixed miss-address stream over a text of `n_insns` instructions:
/// half sequential next-line misses, a quarter short jumps (other line of
/// the same block, neighbouring groups), a quarter uniform jumps; the
/// critical word is uniform within the line.
fn miss_stream(n_insns: u32, seed: u64) -> Vec<u32> {
    let lines = u64::from(n_insns.div_ceil(LINE_BYTES / 4));
    let mut rng = SplitMix64(seed);
    let mut line = 0u64;
    (0..MISSES)
        .map(|_| {
            let r = rng.next();
            line = match r % 4 {
                0 | 1 => (line + 1) % lines,
                2 => (line + lines + (r >> 8) % 33 - 16) % lines,
                _ => (r >> 8) % lines,
            };
            let word = ((r >> 40) % u64::from(LINE_BYTES / 4)) as u32;
            let addr = TEXT_BASE + line as u32 * LINE_BYTES + word * 4;
            // The last line may be partial: stay inside the text.
            addr.min(TEXT_BASE + (n_insns - 1) * 4)
        })
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_service(h: u64, s: &MissService) -> u64 {
    let source = match s.source {
        MissSource::Memory => 0u8,
        MissSource::Decompressor => 1,
        MissSource::OutputBuffer => 2,
    };
    let index_hit = match s.index_hit {
        None => 0u8,
        Some(false) => 1,
        Some(true) => 2,
    };
    let h = fnv1a64(h, &s.critical_ready.to_le_bytes());
    let h = fnv1a64(h, &s.line_fill_complete.to_le_bytes());
    let h = fnv1a64(h, &s.index_cycles.to_le_bytes());
    fnv1a64(h, &[source, index_hit, u8::from(s.machine_check)])
}

/// Services every address of `stream`, returning the services and the
/// engine's final counters.
fn drive(engine: &mut dyn FetchEngine, stream: &[u32]) -> (Vec<MissService>, FetchStats) {
    let services = stream
        .iter()
        .map(|&a| engine.service_miss(a, LINE_BYTES))
        .collect();
    (services, engine.stats())
}

/// What one run pins: the digest of every service, then the final
/// `memory_beats`, `total_critical_cycles` and `buffer_hits`.
fn pin(engine: &mut dyn FetchEngine, stream: &[u32]) -> (u64, u64, u64, u64) {
    let (services, stats) = drive(engine, stream);
    (
        services.iter().fold(FNV_OFFSET, digest_service),
        stats.memory_beats,
        stats.total_critical_cycles,
        stats.buffer_hits,
    )
}

/// The three compressed images of one synthetic program.
struct Images {
    n_insns: u32,
    codepack: Arc<CodePackImage>,
    huffpack: Arc<HuffPackImage>,
    ccrp: Arc<CcrpImage>,
}

fn images() -> Images {
    let program = generate(&BenchmarkProfile::pegwit_like(), 42);
    let text = program.text_words();
    Images {
        n_insns: text.len() as u32,
        codepack: Arc::new(CodePackImage::compress(text, &CompressionConfig::default())),
        huffpack: Arc::new(HuffPackImage::compress(text)),
        ccrp: Arc::new(CcrpImage::compress(text, LINE_BYTES)),
    }
}

/// The memory timings every engine runs under: the paper's baseline and a
/// slow, narrow bus that moves the beat boundaries.
fn timings() -> [(&'static str, MemoryTiming); 2] {
    [
        ("10/2x64", MemoryTiming::default()),
        ("16/3x32", MemoryTiming::new(16, 3, 4)),
    ]
}

/// Every pinned engine configuration, labeled.
fn engines(img: &Images, timing: MemoryTiming) -> Vec<(&'static str, Box<dyn FetchEngine>)> {
    let cp = |cfg: DecompressorConfig| -> Box<dyn FetchEngine> {
        Box::new(CodePackFetch::new(
            Arc::clone(&img.codepack),
            timing,
            cfg,
            TEXT_BASE,
        ))
    };
    let base = DecompressorConfig::baseline();
    vec![
        ("cp-baseline", cp(base)),
        ("cp-optimized", cp(DecompressorConfig::optimized())),
        ("cp-decoders16", cp(DecompressorConfig::decoders(16))),
        ("cp-perfect", cp(DecompressorConfig::perfect_index())),
        (
            "cp-no-index-cache",
            cp(DecompressorConfig {
                index_cache: IndexCacheModel::None,
                ..base
            }),
        ),
        (
            "cp-no-forwarding",
            cp(DecompressorConfig {
                forwarding: false,
                ..base
            }),
        ),
        (
            "cp-no-output-buffer",
            cp(DecompressorConfig {
                output_buffer: false,
                ..base
            }),
        ),
        (
            "huffpack-default",
            Box::new(HuffPackFetch::new(
                Arc::clone(&img.huffpack),
                timing,
                HuffPackConfig::default(),
                TEXT_BASE,
            )),
        ),
        (
            "huffpack-perfect",
            Box::new(HuffPackFetch::new(
                Arc::clone(&img.huffpack),
                timing,
                HuffPackConfig {
                    index_cache: IndexCacheModel::Perfect,
                    ..HuffPackConfig::default()
                },
                TEXT_BASE,
            )),
        ),
        (
            "ccrp-default",
            Box::new(CcrpFetch::new(
                Arc::clone(&img.ccrp),
                timing,
                CcrpConfig::default(),
                TEXT_BASE,
            )),
        ),
        (
            "ccrp-no-lat-cache",
            Box::new(CcrpFetch::new(
                Arc::clone(&img.ccrp),
                timing,
                CcrpConfig {
                    lat_cache: IndexCacheModel::None,
                    ..CcrpConfig::default()
                },
                TEXT_BASE,
            )),
        ),
    ]
}

/// `(timing, engine, digest, memory_beats, total_critical_cycles,
/// buffer_hits)`, recorded before the models shared one timing kernel.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, u64, u64, u64, u64); 22] = [
    ("10/2x64", "cp-baseline", 0x4364af6eff8a176a, 16263, 80673, 1054),
    ("10/2x64", "cp-optimized", 0xa1bc1984d0ae87a5, 14823, 58339, 1054),
    ("10/2x64", "cp-decoders16", 0x98427faba60e7239, 16263, 71112, 1054),
    ("10/2x64", "cp-perfect", 0xe98758464780c40c, 13899, 57033, 1054),
    ("10/2x64", "cp-no-index-cache", 0x4f051da3382f8a56, 16845, 86493, 1054),
    ("10/2x64", "cp-no-forwarding", 0xe891ae2978244a95, 16263, 91056, 1054),
    ("10/2x64", "cp-no-output-buffer", 0x9abfeb3ffee7cbc0, 21215, 105222, 0),
    ("10/2x64", "huffpack-default", 0x1d9dd16f89268a49, 13946, 86828, 1054),
    ("10/2x64", "huffpack-perfect", 0xe8b4b8a3acef2c51, 13022, 77588, 1054),
    ("10/2x64", "ccrp-default", 0x5f34b3d8060752db, 16222, 143380, 0),
    ("10/2x64", "ccrp-no-lat-cache", 0xd1db922cea224761, 17858, 159740, 0),
    ("16/3x32", "cp-baseline", 0xd886b1bed7e7cc65, 28729, 124975, 1054),
    ("16/3x32", "cp-optimized", 0x2ea3061d7d36b9fc, 27289, 100615, 1054),
    ("16/3x32", "cp-decoders16", 0xf744afe2e9c6e39d, 28729, 123331, 1054),
    ("16/3x32", "cp-perfect", 0xee4b46e9786cdcdb, 26365, 87151, 1054),
    ("16/3x32", "cp-no-index-cache", 0xc57dbf8c832039a5, 29311, 134287, 1054),
    ("16/3x32", "cp-no-forwarding", 0x1966a1b333298ba9, 28729, 141551, 1054),
    ("16/3x32", "cp-no-output-buffer", 0x540b3e656c0f3862, 38123, 163493, 0),
    ("16/3x32", "huffpack-default", 0x8979ac2bc6f826a4, 25316, 112053, 1054),
    ("16/3x32", "huffpack-perfect", 0x8ee6aea4501dbf9c, 24392, 97269, 1054),
    ("16/3x32", "ccrp-default", 0xd47ccbf258741538, 30766, 190278, 0),
    ("16/3x32", "ccrp-no-lat-cache", 0x0809ae98720c7b68, 34038, 221362, 0),
];

#[test]
fn miss_timing_matches_the_pinned_goldens() {
    let img = images();
    let stream = miss_stream(img.n_insns, 0x5eed_f1e7);
    let mut got = Vec::new();
    for (tname, timing) in timings() {
        for (name, mut engine) in engines(&img, timing) {
            let (digest, beats, critical, buffer_hits) = pin(engine.as_mut(), &stream);
            got.push((tname, name, digest, beats, critical, buffer_hits));
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table covers every engine");
    for (g, want) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, want, "miss timing drifted from the golden");
    }
}

/// Every index-table access model, for every engine.
const INDEX_MODELS: [IndexCacheModel; 4] = [
    IndexCacheModel::None,
    IndexCacheModel::Perfect,
    IndexCacheModel::Cached {
        lines: 1,
        entries_per_line: 1,
    },
    IndexCacheModel::Cached {
        lines: 64,
        entries_per_line: 4,
    },
];

#[test]
fn index_counters_agree_with_reported_index_outcomes() {
    let img = images();
    let stream = miss_stream(img.n_insns, 0x1dec_5eed);
    let timing = MemoryTiming::default();
    for model in INDEX_MODELS {
        let mut engines: Vec<(&str, Box<dyn FetchEngine>)> = vec![
            (
                "codepack",
                Box::new(CodePackFetch::new(
                    Arc::clone(&img.codepack),
                    timing,
                    DecompressorConfig {
                        index_cache: model,
                        ..DecompressorConfig::baseline()
                    },
                    TEXT_BASE,
                )),
            ),
            (
                "huffpack",
                Box::new(HuffPackFetch::new(
                    Arc::clone(&img.huffpack),
                    timing,
                    HuffPackConfig {
                        index_cache: model,
                        ..HuffPackConfig::default()
                    },
                    TEXT_BASE,
                )),
            ),
            (
                "ccrp",
                Box::new(CcrpFetch::new(
                    Arc::clone(&img.ccrp),
                    timing,
                    CcrpConfig {
                        lat_cache: model,
                        ..CcrpConfig::default()
                    },
                    TEXT_BASE,
                )),
            ),
        ];
        for (name, engine) in &mut engines {
            let (services, stats) = drive(engine.as_mut(), &stream);
            let count = |want: bool| {
                services
                    .iter()
                    .filter(|s| s.index_hit == Some(want))
                    .count()
            };
            assert_eq!(
                (stats.index_hits, stats.index_misses),
                (count(true) as u64, count(false) as u64),
                "{name} under {model:?}: index counters disagree with index_hit"
            );
            assert!(
                stats.index_hits + stats.index_misses > 0,
                "{name} under {model:?}: the stream must probe the index"
            );
        }
    }
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
}
