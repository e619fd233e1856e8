//! `perfbench`: the repository's benchmark, one command for the whole
//! stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload parallel|serial --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up from `--seed` alone (the paper's six synthetic
//! programs for a few derived seeds, their compressed images, and the
//! service corpus with its truth), then runs three phases in one
//! process: `serve` (an in-process `cpackd`), `codec` (bulk frame
//! compress/decompress) and `sweep` (the simulator matrix). Every
//! end-to-end metric is measured on every workload; the workload sets the
//! parallelism of all three phases. Untraced, the phases take turns in
//! short reps for `--seconds`, and host-time metrics are reported at
//! nominal host speed, gauged by a reference computation timed between
//! the reps (`util::Reference`); traced, `--seconds` is split between the
//! phases. Every output is checked; a failed check makes the result
//! `correct: false` and the exit code 1.
//!
//! With `--trace 0` the last line of stdout carries the end-to-end
//! metrics; with `--trace 1` a separate traced run times each layer's
//! public calls from outside and carries the per-layer metrics, and the
//! spans are written as JSON lines under the cargo target directory.
//!
//! Seed 42 tuned the benchmark; seed 7 is held out.

mod codec;
mod serve;
mod sweep;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use codepack_core::{CodePackImage, CompressionConfig};
use codepack_isa::Program;
use codepack_synth::{generate, BenchmarkProfile};
use codepack_testkit::mix_seed;

use trace::Spans;
use util::{median, peak_rss_mb, HostClock, PhaseOut, Reference};

const USAGE: &str =
    "usage: perfbench --workload parallel|serial [--seed N] [--seconds S] [--trace 0|1]";

/// Default of `--seconds`: the `run_seconds` of `BENCHMARK.json`, the
/// length every bound there was measured at.
const RUN_SECONDS: f64 = 44.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The phases of the traced run, in the order they run. `serve` goes
/// first: its latency on a shared virtual machine degraded after the
/// CPU-bound phases, and the others do not mind the order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Serve,
    Codec,
    Sweep,
}

impl Phase {
    const ALL: [Phase; 3] = [Phase::Serve, Phase::Codec, Phase::Sweep];

    /// Share of `--seconds` this phase measures for in the traced run.
    fn share(self) -> f64 {
        match self {
            Phase::Sweep => 0.4,
            Phase::Codec => 0.3,
            Phase::Serve => 0.3,
        }
    }
}

/// How much parallelism the phases get: `parallel` uses every core
/// (sweep and frame workers, service client connections), `serial` one.
/// A change to the sweep or frame worker pools moves `parallel` and
/// leaves `serial` as its control. Neither changes the server's own
/// worker pool (`ServerConfig::default()`) or the set-up, which uses
/// every core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Parallel,
    Serial,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Parallel => "parallel",
            Workload::Serial => "serial",
        }
    }

    fn workers(self, cores: usize) -> usize {
        match self {
            Workload::Parallel => cores,
            Workload::Serial => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42, RUN_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    [Workload::Parallel, Workload::Serial]
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Program sets the codec phase compresses: each is the paper's six
/// benchmarks generated from one derived seed, so the codec metrics
/// average over that many seeds' programs.
const CODEC_SEEDS: u64 = 3;

/// Seed `j` derived from the run's seed. The sweep simulates, and the
/// codec compresses, programs generated from derived seeds.
pub fn derived_seed(seed: u64, j: u64) -> u64 {
    mix_seed(seed, j)
}

/// Everything the phases need, made from the seed alone.
pub struct Setup {
    /// The paper's six benchmarks, generated from each of the first
    /// [`CODEC_SEEDS`] derived seeds.
    pub programs: Vec<(BenchmarkProfile, Program)>,
    /// Their CodePack images under the default configuration.
    pub images: Vec<CodePackImage>,
    /// The service corpus with its precomputed replies.
    pub corpus: serve::Corpus,
}

/// Time each part of one set-up took, in seconds.
struct SetupTimes {
    /// [`HostClock`] time of the whole set-up.
    total: f64,
    /// Wall time of program generation.
    generate: f64,
}

fn build_setup(seed: u64, workers: usize) -> (Setup, SetupTimes) {
    let clock = HostClock::start();
    let t = Instant::now();
    let programs: Vec<_> = (0..CODEC_SEEDS)
        .flat_map(|j| {
            BenchmarkProfile::suite().into_iter().map(move |p| {
                let program = generate(&p, derived_seed(seed, j));
                (p, program)
            })
        })
        .collect();
    let generate = t.elapsed().as_secs_f64();
    let images = programs
        .iter()
        .map(|(_, p)| CodePackImage::compress(p.text_words(), &CompressionConfig::default()))
        .collect();
    let corpus = serve::Corpus::build(seed, workers);
    let setup = Setup {
        programs,
        images,
        corpus,
    };
    (
        setup,
        SetupTimes {
            total: clock.seconds(),
            generate,
        },
    )
}

/// Where the traced run writes its spans: under the cargo target
/// directory, which the checkout already ignores.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    dir.join("perfbench")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = util::cores();
    let workers = args.workload.workers(cores);
    let epoch = Instant::now();
    let mut out = PhaseOut::default();

    let mut setup = None;
    let (mut totals, mut generates) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        // Free the last set-up first, so peak RSS holds one, not two.
        drop(setup.take());
        let (s, times) = build_setup(args.seed, cores);
        totals.push(times.total);
        generates.push(times.generate * 1e6);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let mut spans = Spans::new(epoch);
    if args.trace {
        for phase in Phase::ALL {
            let budget = Duration::from_secs_f64(args.seconds * phase.share());
            let mut part = PhaseOut::default();
            match phase {
                Phase::Sweep => sweep::traced(args.seed, workers, budget, &mut spans, &mut part),
                Phase::Codec => codec::traced(&setup, workers, budget, &mut spans, &mut part),
                Phase::Serve => serve::traced(
                    &setup.corpus,
                    args.seed,
                    workers,
                    budget,
                    &mut spans,
                    &mut part,
                ),
            }
            out.absorb(part);
        }
    } else {
        untraced(
            &setup,
            args.seed,
            workers,
            Duration::from_secs_f64(args.seconds),
            &mut out,
        );
    }

    if args.trace {
        out.metric("synth.generate.us", median(&generates), "us");
        out.metric(
            "fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        let path = spans_path(args.workload.name(), args.seed);
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    } else {
        out.metric("setup_s", median(&totals), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    print_result(&mut out)
}

/// The untraced run: the three phases take turns, one rep each per round,
/// until `length` is spent and every sweep unit has run, with a rep of
/// the host-speed [`Reference`] between each two. Each phase's reps are
/// then spread over the whole run, so a stretch of host load slows a few
/// reps of every phase rather than all of one phase, and the reference
/// sees the same stretches.
fn untraced(setup: &Setup, seed: u64, workers: usize, length: Duration, out: &mut PhaseOut) {
    let until = Instant::now() + length;
    let mut serve = serve::Bench::start(&setup.corpus, seed, workers, out);
    let mut codec = codec::Bench::new(setup, workers);
    let mut sweep = sweep::Bench::new(seed, workers);
    let mut host = Reference::new(workers);
    host.rep();
    while !sweep.covered() || Instant::now() < until {
        serve.rep(&host, out);
        host.rep();
        codec.rep(&host, out);
        host.rep();
        sweep.rep(&host, out);
        host.rep();
    }
    serve.finish(&host, out);
    codec.finish(&host, out);
    sweep.finish(&host, out);
}

/// Prints one line per metric, then the result object as the last line.
fn print_result(out: &mut PhaseOut) -> ExitCode {
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        out.check(false, || format!("metric {name} is not a finite number"));
    }
    let mut json = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        ));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
