//! The `codec` phase: bulk compress and decompress of the synthetic
//! `.text` sections (the paper's six benchmarks, for a few seeds) through `pack_frame` / `unpack_frame` on every core,
//! the toolchain path. Dictionary build, block encode and decode do nearly
//! all the work here. Compress (write) and decompress (read) are reported
//! separately, so a gain to one that costs the other shows.

use std::time::{Duration, Instant};

use codepack_analyze::{check_frame, LintReport};
use codepack_bench::paper::TABLE3_RATIO;
use codepack_core::frame::{pack_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_core::layout::{GROUP_INSNS, HIGH_DICT_CAPACITY, LOW_DICT_CAPACITY};
use codepack_core::{CodePackImage, CompressionConfig, DecodeBackend, Dictionary};

use crate::trace::Spans;
use crate::util::{median, micros, Clock, PhaseOut, Reference, UnitTimes};
use crate::Setup;

/// Unpacks of every frame per pack: decode runs about five times faster
/// than encode, so this gives decode's medians a similar number of reps'
/// time.
const UNPACKS_PER_PACK: usize = 3;

fn pack(text: &[u32], workers: usize) -> Vec<u8> {
    pack_frame(
        text,
        &PackOptions {
            workers,
            ..PackOptions::default()
        },
    )
}

fn unpack(frame: &[u8], backend: DecodeBackend, workers: usize) -> Option<Vec<u32>> {
    unpack_frame(frame, &UnpackOptions { backend, workers }).ok()
}

/// Mean over profiles of |measured − paper| Table 3 compression ratio, in
/// percentage points, where "measured" averages over the program sets.
fn table3_err_pp(setup: &Setup) -> f64 {
    let errs: Vec<f64> = TABLE3_RATIO
        .iter()
        .map(|&(name, paper)| {
            let ratios: Vec<f64> = setup
                .programs
                .iter()
                .zip(&setup.images)
                .filter(|((profile, _), _)| profile.name == name)
                .map(|(_, image)| image.stats().compression_ratio() * 100.0)
                .collect();
            (ratios.iter().sum::<f64>() / ratios.len() as f64 - paper).abs()
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// The untraced codec phase, run one rep at a time between the other
/// phases' reps. A rep packs every text and unpacks its frame
/// [`UNPACKS_PER_PACK`] times, comparing the words with the text, and
/// times each call on its own; the [`UnitTimes`] units are the texts.
/// The throughputs are the texts' bytes over the sum of the units' median
/// times, at nominal host speed.
pub struct Bench<'a> {
    setup: &'a Setup,
    texts: Vec<&'a [u32]>,
    workers: usize,
    clock: Clock,
    pack: UnitTimes,
    unpack: UnitTimes,
    frames: Option<Vec<Vec<u8>>>,
}

impl<'a> Bench<'a> {
    pub fn new(setup: &'a Setup, workers: usize) -> Bench<'a> {
        let texts: Vec<&[u32]> = setup.programs.iter().map(|(_, p)| p.text_words()).collect();
        Bench {
            setup,
            pack: UnitTimes::new(texts.len()),
            unpack: UnitTimes::new(texts.len()),
            texts,
            workers,
            clock: Clock::for_workers(workers),
            frames: None,
        }
    }

    pub fn rep(&mut self, host: &Reference, out: &mut PhaseOut) {
        let mark = host.mark();
        let mut frames = Vec::with_capacity(self.texts.len());
        for (i, text) in self.texts.iter().enumerate() {
            let (frame, s) = self.clock.time(|| pack(text, self.workers));
            self.pack.record(i, s, mark);
            for _ in 0..UNPACKS_PER_PACK {
                let (words, s) = self
                    .clock
                    .time(|| unpack(&frame, DecodeBackend::Fast, self.workers));
                self.unpack.record(i, s, mark);
                out.check(words.as_deref() == Some(*text), || {
                    format!("codec: unpack of text {i} differs from the text")
                });
            }
            frames.push(frame);
        }
        match &self.frames {
            None => self.frames = Some(frames),
            Some(want) => out.check(&frames == want, || {
                "codec: pack_frame is not deterministic across reps".to_string()
            }),
        }
    }

    pub fn finish(self, host: &Reference, out: &mut PhaseOut) {
        let frames = self.frames.expect("at least one rep ran");
        for (i, frame) in frames.iter().enumerate() {
            let fast = unpack(frame, DecodeBackend::Fast, self.workers);
            let scalar = unpack(frame, DecodeBackend::Scalar, self.workers);
            out.check(fast.is_some() && fast == scalar, || {
                format!("codec: fast and scalar decode of text {i} differ")
            });
        }
        let text_bytes: usize = self.texts.iter().map(|t| t.len() * 4).sum();
        let mb = text_bytes as f64 / 1e6;
        let frame_bytes: usize = frames.iter().map(Vec::len).sum();
        out.metric("compress_mb_s", mb / self.pack.total(host), "MB/s");
        out.metric("decompress_mb_s", mb / self.unpack.total(host), "MB/s");
        out.metric(
            "compression_ratio",
            frame_bytes as f64 / text_bytes as f64,
            "ratio",
        );
        out.metric("table3_err_pp", table3_err_pp(self.setup), "pp");
    }
}

/// Microseconds each layer spent on one pass over the texts.
#[derive(Default, Clone)]
struct Pass {
    dict_build: f64,
    compress: f64,
    pack: f64,
    pack_par: f64,
    unpack: f64,
    unpack_par: f64,
    decode_fast: f64,
    decode_scalar: f64,
    check_frame: f64,
}

/// Both dictionaries of `text`, built the way compression builds them.
fn build_dicts(text: &[u32]) -> (Dictionary, Dictionary) {
    let config = CompressionConfig::default();
    let mut padded = text.to_vec();
    padded.resize(
        text.len().div_ceil(GROUP_INSNS as usize) * GROUP_INSNS as usize,
        0,
    );
    let high = Dictionary::build(
        padded.iter().map(|&w| (w >> 16) as u16),
        HIGH_DICT_CAPACITY,
        config.dict_min_count,
        false,
    );
    let low = Dictionary::build(
        padded.iter().map(|&w| w as u16),
        LOW_DICT_CAPACITY,
        config.dict_min_count,
        config.pin_low_zero,
    );
    (high, low)
}

/// One traced pass: every layer's public entry point timed on every text,
/// with every output checked.
fn layer_pass(texts: &[&[u32]], workers: usize, spans: &mut Spans, out: &mut PhaseOut) -> Pass {
    let mut p = Pass::default();
    let (root, _) = spans.open("codec.layers", None);
    for (i, text) in texts.iter().enumerate() {
        let parent = Some(root);
        let ((high, low), d) = spans.time("core.dict_build", parent, || build_dicts(text));
        p.dict_build += micros(d);
        let (image, d) = spans.time("core.compress", parent, || {
            CodePackImage::compress(text, &CompressionConfig::default())
        });
        p.compress += micros(d);
        out.check(
            image.high_dict() == &high && image.low_dict() == &low,
            || format!("codec: dictionaries of text {i} differ from compress"),
        );
        let (frame, d) = spans.time("core.pack", parent, || pack(text, 1));
        p.pack += micros(d);
        let (frame_par, d) = spans.time("core.pack_par", parent, || pack(text, workers));
        p.pack_par += micros(d);
        out.check(frame == frame_par, || {
            format!("codec: serial and parallel pack of text {i} differ")
        });
        let (serial, d) = spans.time("core.unpack", parent, || {
            unpack(&frame, DecodeBackend::Fast, 1)
        });
        p.unpack += micros(d);
        let (par, d) = spans.time("core.unpack_par", parent, || {
            unpack(&frame, DecodeBackend::Fast, workers)
        });
        p.unpack_par += micros(d);
        let (fast, d) = spans.time("core.decode_fast", parent, || {
            image.decompress_all_with(DecodeBackend::Fast).ok()
        });
        p.decode_fast += micros(d);
        let (scalar, d) = spans.time("core.decode_scalar", parent, || {
            image.decompress_all_with(DecodeBackend::Scalar).ok()
        });
        p.decode_scalar += micros(d);
        let (walk, d) = spans.time("analyze.check_frame", parent, || {
            let mut report = LintReport::new("perfbench");
            let walk = check_frame(&frame, &mut report);
            (walk, report.is_clean())
        });
        p.check_frame += micros(d);
        let want = Some(text.to_vec());
        out.check(
            serial == want && par == want && fast == want && scalar == want,
            || format!("codec: a decode of text {i} differs from the text"),
        );
        out.check(walk.1 && walk.0.words == *text, || {
            format!("codec: check_frame of text {i} is not clean or differs")
        });
    }
    spans.close(root);
    p
}

/// Traced phase. First the untraced round (parallel pack + unpack of every
/// text) alternates with the same round under spans, for the trace
/// overhead and the share of the round no layer span covers; then traced
/// passes time every layer separately.
pub fn traced(
    setup: &Setup,
    workers: usize,
    budget: Duration,
    all: &mut Spans,
    out: &mut PhaseOut,
) {
    let texts: Vec<&[u32]> = setup.programs.iter().map(|(_, p)| p.text_words()).collect();
    let mut spans = Spans::new(all.epoch());
    let started = Instant::now();
    let (mut plain, mut traced, mut residual) = (vec![], vec![], vec![]);
    while plain.len() < 3 || started.elapsed() < budget / 3 {
        let t = Instant::now();
        for text in &texts {
            let frame = pack(text, workers);
            let words = unpack(&frame, DecodeBackend::Fast, workers);
            out.check(words.as_deref() == Some(*text), || {
                "codec: unpack differs from the text".to_string()
            });
        }
        plain.push(t.elapsed().as_secs_f64());

        let (root, t) = spans.open("codec.round", None);
        let mut covered = Duration::ZERO;
        for text in &texts {
            let (frame, d1) = spans.time("core.pack_par", Some(root), || pack(text, workers));
            let (words, d2) = spans.time("core.unpack_par", Some(root), || {
                unpack(&frame, DecodeBackend::Fast, workers)
            });
            covered += d1 + d2;
            out.check(words.as_deref() == Some(*text), || {
                "codec: unpack differs from the text".to_string()
            });
        }
        spans.close(root);
        let wall = t.elapsed();
        traced.push(wall.as_secs_f64());
        residual.push((wall - covered.min(wall)).as_secs_f64() / wall.as_secs_f64());
    }

    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed() < budget {
        passes.push(layer_pass(&texts, workers, &mut spans, out));
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (dict, compress, pack_s, pack_p) = (
        med(|p| p.dict_build),
        med(|p| p.compress),
        med(|p| p.pack),
        med(|p| p.pack_par),
    );
    let (unpack_s, unpack_p, fast, scalar) = (
        med(|p| p.unpack),
        med(|p| p.unpack_par),
        med(|p| p.decode_fast),
        med(|p| p.decode_scalar),
    );
    out.metric("core.dict_build.us", dict, "us");
    out.metric("core.compress.us", compress, "us");
    out.metric("core.encode.self_us", compress - dict, "us");
    out.metric("core.pack.us", pack_s, "us");
    out.metric("core.pack.frame_self_us", pack_s - compress, "us");
    out.metric("core.pack_par.us", pack_p, "us");
    out.metric("core.pack_par.speedup", pack_s / pack_p, "x");
    out.metric("core.unpack.us", unpack_s, "us");
    out.metric("core.unpack_par.us", unpack_p, "us");
    out.metric("core.unpack_par.speedup", unpack_s / unpack_p, "x");
    out.metric("core.unpack.frame_self_us", unpack_s - fast, "us");
    out.metric("core.decode_fast.us", fast, "us");
    out.metric("core.decode_scalar.us", scalar, "us");
    out.metric("core.decode.fast_over_scalar", scalar / fast, "x");
    out.metric("analyze.check_frame.us", med(|p| p.check_frame), "us");
    out.metric(
        "codec.trace_overhead",
        median(&traced) / median(&plain),
        "ratio",
    );
    out.metric("codec.residual_share", median(&residual), "ratio");
    all.merge(spans);
}
