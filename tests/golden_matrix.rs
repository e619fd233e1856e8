//! Golden experiment cube: every simulated number of the default matrix,
//! pinned per cell.
//!
//! `golden_miss_timing.rs` pins the miss-service engines on their own;
//! this test pins what the whole simulator makes of them. It runs the
//! default cube (the six profiles × three machines × three code models at
//! seed 42) and, for each cell, pins a 64-bit FNV-1a digest of every
//! `PipelineStats` field (I-cache, D-cache, L2 and fault ledger
//! included), every `FetchStats` field, the final `state_hash` and the
//! retired-instruction count. A second cube pins the rarer paths: an L2,
//! a protected code model that recovers from soft errors, and one whose
//! recovery is exhausted so the cell machine-checks. The observed cube is
//! pinned as one digest of every cell's metrics document.
//!
//! Small assembled programs that trap functionally (an illegal word, a
//! wild PC, `break`) pin the terminal error and the partial statistics the
//! pipeline leaves behind, run live and replayed from a recorded `Trace`.
//! A property checks that a replay yields the same step stream as the
//! live machine it was recorded from. The digest is written here, with no
//! code in common with the simulator.
//!
//! The pinned values were recorded before the matrix replayed traces.

use std::sync::Arc;

use codepack::core::{
    CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig, FetchEngine, FetchStats,
    NativeFetch,
};
use codepack::cpu::StepInfo;
use codepack::cpu::{
    ExecError, Machine, Pipeline, PipelineConfig, PipelineStats, StepSource, Trace,
};
use codepack::isa::{Assembler, Instruction, Program, Reg, DATA_BASE, TEXT_BASE};
use codepack::mem::SoftErrorConfig;
use codepack::mem::{CacheConfig, CacheStats, FaultStats, IntegrityConfig, MemoryTiming};
use codepack::sim::{
    run_matrix, run_matrix_with, ArchConfig, CellOutcome, CodeModel, MatrixOptions, MatrixSpec,
    SimResult,
};
use codepack::synth::{generate, BenchmarkProfile};
use codepack_testkit::forall;
use codepack_testkit::prop::gen;

const SEED: u64 = 42;
const INSNS: u64 = 100_000;

/// 64-bit FNV-1a.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn words(h: u64, values: &[u64]) -> u64 {
    values.iter().fold(h, |h, v| fnv1a64(h, &v.to_le_bytes()))
}

fn digest_cache(h: u64, c: &CacheStats) -> u64 {
    words(h, &[c.accesses, c.hits, c.evictions])
}

fn digest_faults(h: u64, f: &FaultStats) -> u64 {
    words(
        h,
        &[
            f.injected,
            f.detected,
            f.recovered,
            f.trapped,
            f.silent,
            f.retries,
            f.machine_checks,
        ],
    )
}

fn digest_pipeline(h: u64, s: &PipelineStats) -> u64 {
    let h = words(h, &[s.cycles, s.instructions]);
    let h = digest_cache(h, &s.icache);
    let h = digest_cache(h, &s.dcache);
    let h = match &s.l2 {
        None => fnv1a64(h, &[0]),
        Some(l2) => digest_cache(fnv1a64(h, &[1]), l2),
    };
    let h = words(h, &[s.branches, s.mispredicts, s.indirect_mispredicts]);
    digest_faults(h, &s.faults)
}

fn digest_fetch(h: u64, f: &FetchStats) -> u64 {
    words(
        h,
        &[
            f.misses,
            f.buffer_hits,
            f.index_hits,
            f.index_misses,
            f.memory_beats,
            f.total_critical_cycles,
        ],
    )
}

fn digest_result(r: &SimResult) -> u64 {
    let h = digest_pipeline(FNV_OFFSET, &r.pipeline);
    let h = digest_fetch(h, &r.fetch);
    words(h, &[r.state_hash, r.retired_instructions])
}

/// `(profile, arch, model, digest)` of every cell of the default cube at
/// seed 42 and 100k instructions, in report order.
#[rustfmt::skip]
const GOLDEN_CUBE: [(&str, &str, &str, u64); 54] = [
    ("cc1", "1-issue", "native", 0x4c1108d4669b27f0),
    ("cc1", "1-issue", "cp-base", 0x6b1654fab7989ac8),
    ("cc1", "1-issue", "cp-opt", 0xfffcec3f6352ff79),
    ("cc1", "4-issue", "native", 0x02042645662a74f6),
    ("cc1", "4-issue", "cp-base", 0x40c91bab7e20b57f),
    ("cc1", "4-issue", "cp-opt", 0x8bc2e2ab0eb83900),
    ("cc1", "8-issue", "native", 0x53ee38dbd280e8f6),
    ("cc1", "8-issue", "cp-base", 0xe60f45a26ad53a4b),
    ("cc1", "8-issue", "cp-opt", 0x57a72b75a7f88b5e),
    ("go", "1-issue", "native", 0xf94e50374fc9852e),
    ("go", "1-issue", "cp-base", 0x2a73e31a53ff30f2),
    ("go", "1-issue", "cp-opt", 0xaff330f5b5f70f5a),
    ("go", "4-issue", "native", 0xb9764bcdfea9c1d2),
    ("go", "4-issue", "cp-base", 0x8d1a52c8abc4ec8b),
    ("go", "4-issue", "cp-opt", 0x8cab36608cccb1ca),
    ("go", "8-issue", "native", 0x51505f21e2661343),
    ("go", "8-issue", "cp-base", 0xd21582ea15ab1a57),
    ("go", "8-issue", "cp-opt", 0xe77db4b5700726a6),
    ("mpeg2enc", "1-issue", "native", 0x6a616ce5d8bd9d86),
    ("mpeg2enc", "1-issue", "cp-base", 0x03d0686984435fb0),
    ("mpeg2enc", "1-issue", "cp-opt", 0xd58c988bff07ed24),
    ("mpeg2enc", "4-issue", "native", 0xfdcbf3a60e7c7bc3),
    ("mpeg2enc", "4-issue", "cp-base", 0x6a332f5027ed58c5),
    ("mpeg2enc", "4-issue", "cp-opt", 0xf0eef691d172296e),
    ("mpeg2enc", "8-issue", "native", 0x1cfc807cd6e8cf8e),
    ("mpeg2enc", "8-issue", "cp-base", 0x5f46c56bc4d6b6cc),
    ("mpeg2enc", "8-issue", "cp-opt", 0x4e630b26fba647c1),
    ("pegwit", "1-issue", "native", 0xf25ad47f10ed1c7c),
    ("pegwit", "1-issue", "cp-base", 0x9d2c5544d998c2e1),
    ("pegwit", "1-issue", "cp-opt", 0xa4ca4c7d5bf590e5),
    ("pegwit", "4-issue", "native", 0xe1422cd241c3b5dc),
    ("pegwit", "4-issue", "cp-base", 0xc0ade3dd7688209a),
    ("pegwit", "4-issue", "cp-opt", 0xa7b025032b101e13),
    ("pegwit", "8-issue", "native", 0x109cc00a588a88f7),
    ("pegwit", "8-issue", "cp-base", 0x29e37fd749ff12aa),
    ("pegwit", "8-issue", "cp-opt", 0xcb7d7dda08b71bdc),
    ("perl", "1-issue", "native", 0x67daa432823a3cad),
    ("perl", "1-issue", "cp-base", 0xcf2b84ce08afe6a7),
    ("perl", "1-issue", "cp-opt", 0xc40646c95fbdeff8),
    ("perl", "4-issue", "native", 0x57f7921f26a4f826),
    ("perl", "4-issue", "cp-base", 0x17f59c48be8ef339),
    ("perl", "4-issue", "cp-opt", 0xe03f3fbde8cd5c4d),
    ("perl", "8-issue", "native", 0x93a6bfd5d5e636c1),
    ("perl", "8-issue", "cp-base", 0x4e86a8ba4a5f034d),
    ("perl", "8-issue", "cp-opt", 0x1ec9f2ed7f0a3e34),
    ("vortex", "1-issue", "native", 0x70ef80a576321b72),
    ("vortex", "1-issue", "cp-base", 0xbfc76805f998a9bc),
    ("vortex", "1-issue", "cp-opt", 0x57f8a6f8bc5cd846),
    ("vortex", "4-issue", "native", 0x155b2684af616289),
    ("vortex", "4-issue", "cp-base", 0x46a24ab7259f93ff),
    ("vortex", "4-issue", "cp-opt", 0x3f66b13910555fcd),
    ("vortex", "8-issue", "native", 0x6294690747c42992),
    ("vortex", "8-issue", "cp-base", 0x3faf5d4efefc8b3a),
    ("vortex", "8-issue", "cp-opt", 0xbd99eefaf0314d80),
];

#[test]
fn default_cube_matches_the_pinned_goldens() {
    let report = run_matrix(&MatrixSpec::new(SEED, INSNS), 2);
    let got: Vec<(&str, &str, &str, u64)> = report
        .cells
        .iter()
        .map(|c| (c.profile, c.arch, c.model, digest_result(c.expect_ok())))
        .collect();
    assert_eq!(got.len(), GOLDEN_CUBE.len(), "golden covers every cell");
    for (g, want) in got.iter().zip(GOLDEN_CUBE.iter()) {
        assert_eq!(g, want, "a cell drifted from the golden");
    }
}

/// FNV-1a over every cell's metrics document of the observed default
/// cube, in report order.
const GOLDEN_OBSERVED: u64 = 0x368e4ee9fb0d4fcf;

#[test]
fn observed_cube_metrics_match_the_pinned_golden() {
    let spec = MatrixSpec::new(SEED, INSNS);
    let report = run_matrix_with(&spec, &MatrixOptions::new(2).observed(true)).unwrap();
    let digest = report.cells.iter().fold(FNV_OFFSET, |h, c| {
        let json = c.metrics.as_ref().expect("observed cells carry metrics");
        fnv1a64(h, json.as_bytes())
    });
    assert_eq!(digest, GOLDEN_OBSERVED);
}

/// The rare-path cube: pegwit on the 4-issue machine with and without a
/// 32 KB L2, under native, unprotected, recovering and exhausted code
/// models.
fn rare_path_spec() -> MatrixSpec {
    let recovering = SoftErrorConfig::new(0xFA117, 20_000_000, IntegrityConfig::crc32());
    let exhausted =
        SoftErrorConfig::new(7, 20_000_000, IntegrityConfig::crc32()).with_max_refetch(0);
    MatrixSpec::new(SEED, INSNS)
        .with_profiles(vec![BenchmarkProfile::pegwit_like()])
        .with_archs(vec![
            ArchConfig::four_issue(),
            ArchConfig::four_issue().with_l2_kb(32),
        ])
        .with_models(vec![
            ("native", CodeModel::Native),
            ("cp-opt", CodeModel::codepack_optimized()),
            (
                "cp-recovering",
                CodeModel::codepack_optimized().with_protection(recovering),
            ),
            (
                "cp-exhausted",
                CodeModel::codepack_optimized().with_protection(exhausted),
            ),
        ])
}

/// `(model, outcome digest)` of the rare-path cube per cell: an ok cell
/// digests its result, a trapped cell its error message.
#[rustfmt::skip]
const GOLDEN_RARE: [(&str, &str, u64); 8] = [
    ("4-issue", "native", 0xe1422cd241c3b5dc),
    ("4-issue", "cp-opt", 0xa7b025032b101e13),
    ("4-issue", "cp-recovering", 0x8f5c36b4d838b2e3),
    ("4-issue", "cp-exhausted", 0xf8cd929fb1718918),
    ("4-issue", "native", 0xa6a5a330615f2a45),
    ("4-issue", "cp-opt", 0xbc133047883498be),
    ("4-issue", "cp-recovering", 0xe26a056065e224c8),
    ("4-issue", "cp-exhausted", 0xa2f51d3a07a8c4bd),
];

#[test]
fn rare_path_cube_matches_the_pinned_goldens() {
    let report = run_matrix(&rare_path_spec(), 2);
    let got: Vec<(&str, &str, u64)> = report
        .cells
        .iter()
        .map(|c| {
            let d = match (&c.outcome, c.ok()) {
                (CellOutcome::Ok, Some(r)) => digest_result(r),
                (CellOutcome::Trapped { error }, None) => fnv1a64(FNV_OFFSET, error.as_bytes()),
                (other, _) => panic!("{}: unexpected outcome {other:?}", c.file_stem()),
            };
            (c.arch, c.model, d)
        })
        .collect();
    assert_eq!(got, GOLDEN_RARE);
    let trapped: Vec<&str> = report
        .cells
        .iter()
        .filter_map(|c| match &c.outcome {
            CellOutcome::Trapped { error } => Some(error.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        !trapped.is_empty() && trapped.iter().all(|e| e.contains("machine check")),
        "the exhausted model machine-checks: {trapped:?}"
    );
}

/// A small loop that loads, stores, branches and calls, then ends in
/// `end`: the program traps (or halts) there after a few thousand
/// instructions.
fn trap_program(name: &str, end: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new();
    let top = a.new_label();
    let func = a.new_label();
    let past = a.new_label();
    a.j(past);
    a.bind(func);
    a.push(Instruction::Addiu {
        rt: Reg::V1,
        rs: Reg::V1,
        imm: 3,
    });
    a.push(Instruction::Jr { rs: Reg::RA });
    a.bind(past);
    a.li(Reg::T0, DATA_BASE as i32);
    a.li(Reg::T1, 400);
    a.bind(top);
    a.push(Instruction::Lw {
        rt: Reg::T2,
        base: Reg::T0,
        offset: 0,
    });
    a.push(Instruction::Addu {
        rd: Reg::T2,
        rs: Reg::T2,
        rt: Reg::T1,
    });
    a.push(Instruction::Sw {
        rt: Reg::T2,
        base: Reg::T0,
        offset: 4,
    });
    a.push(Instruction::Andi {
        rt: Reg::T3,
        rs: Reg::T1,
        imm: 3,
    });
    let skip = a.new_label();
    a.bne(Reg::T3, Reg::ZERO, skip);
    a.jal(func);
    a.bind(skip);
    a.push(Instruction::Addiu {
        rt: Reg::T0,
        rs: Reg::T0,
        imm: 8,
    });
    a.push(Instruction::Addiu {
        rt: Reg::T1,
        rs: Reg::T1,
        imm: -1,
    });
    a.bgtz(Reg::T1, top);
    end(&mut a);
    a.finish(name).expect("trap program assembles")
}

/// The functionally trapping programs, by name.
fn trap_programs() -> Vec<Program> {
    vec![
        trap_program("illegal", |a| {
            a.push_raw(0xffff_ffff);
        }),
        trap_program("wild-pc", |a| {
            a.li(Reg::T4, 0x0bad_0000);
            a.push(Instruction::Jr { rs: Reg::T4 });
        }),
        trap_program("break", |a| {
            a.push(Instruction::Break);
        }),
        trap_program("halts", |a| {
            a.halt();
        }),
    ]
}

/// A 4-issue pipeline behind a CodePack decompressor for `program`.
fn codepack_pipeline(program: &Program) -> Pipeline {
    let image = Arc::new(CodePackImage::compress(
        program.text_words(),
        &CompressionConfig::default(),
    ));
    let fetch: Box<dyn FetchEngine> = Box::new(CodePackFetch::new(
        image,
        MemoryTiming::default(),
        DecompressorConfig::optimized(),
        TEXT_BASE,
    ));
    Pipeline::new(
        PipelineConfig::four_issue(),
        CacheConfig::icache_4issue(),
        CacheConfig::dcache_4issue(),
        MemoryTiming::default(),
        fetch,
    )
}

/// A 1-issue pipeline with native fetch.
fn native_pipeline(_: &Program) -> Pipeline {
    Pipeline::new(
        PipelineConfig::one_issue(),
        CacheConfig::icache_1issue(),
        CacheConfig::dcache_1issue(),
        MemoryTiming::default(),
        Box::new(NativeFetch::new(MemoryTiming::default())),
    )
}

/// Digest of a run's end: the terminal error (if any), the statistics the
/// pipeline holds afterwards, and its fetch engine's counters.
fn digest_end(end: &Result<PipelineStats, ExecError>, pipe: &Pipeline) -> u64 {
    let h = match end {
        Ok(stats) => digest_pipeline(fnv1a64(FNV_OFFSET, &[0]), stats),
        Err(e) => fnv1a64(fnv1a64(FNV_OFFSET, &[1]), e.to_string().as_bytes()),
    };
    let h = digest_pipeline(h, &pipe.stats());
    digest_fetch(h, &pipe.fetch_engine().stats())
}

/// Each trap program ends the way its name says.
fn assert_ends_as_named(name: &str, end: &Result<PipelineStats, ExecError>) {
    let ok = match name {
        "illegal" => matches!(end, Err(ExecError::IllegalInstruction { .. })),
        "wild-pc" => matches!(end, Err(ExecError::PcOutOfText { pc: 0x0bad_0000 })),
        "break" => matches!(end, Err(ExecError::Break { .. })),
        "halts" => matches!(end, Ok(s) if s.instructions > 3000),
        _ => false,
    };
    assert!(ok, "{name} ended as {end:?}");
}

/// `(program, pipeline, digest)` of every trap program run through a
/// native 1-issue and a CodePack 4-issue pipeline; a replay of the
/// program's trace must end the same.
#[rustfmt::skip]
const GOLDEN_TRAPS: [(&str, &str, u64); 8] = [
    ("illegal", "native-1", 0x6c8768c7ac371e33),
    ("illegal", "cp-opt-4", 0xefcc97f9e682801d),
    ("wild-pc", "native-1", 0xd3638041820bba08),
    ("wild-pc", "cp-opt-4", 0x96f29f1fb24fc167),
    ("break", "native-1", 0xc4906dd02d4d7097),
    ("break", "cp-opt-4", 0x048a4983275d79b9),
    ("halts", "native-1", 0x0b8de4188fc68a01),
    ("halts", "cp-opt-4", 0xa02591167d25dc34),
];

#[test]
fn trapping_programs_match_the_pinned_goldens() {
    let mut got = Vec::new();
    for program in trap_programs() {
        let trace = Trace::record(&program, 1_000_000);
        for (label, pipeline) in [
            ("native-1", native_pipeline as fn(&Program) -> Pipeline),
            ("cp-opt-4", codepack_pipeline),
        ] {
            let mut pipe = pipeline(&program);
            let mut machine = Machine::load(&program);
            let end = pipe.run(&mut machine, 1_000_000);
            assert_ends_as_named(program.name(), &end);
            let d = digest_end(&end, &pipe);
            got.push((program.name().to_string(), label, d));

            assert_eq!(trace.end(), end.as_ref().err().copied());
            let mut replayed = pipeline(&program);
            let replay_end = replayed.run(&mut trace.replay(), trace.max_insns());
            assert_eq!(
                digest_end(&replay_end, &replayed),
                d,
                "{} on {label}: the replay ended differently",
                program.name()
            );
        }
        assert_eq!(trace.state_hash(), {
            let mut m = Machine::load(&program);
            let _ = m.run(1_000_000);
            m.state_hash()
        });
    }
    let want: Vec<(String, &str, u64)> = GOLDEN_TRAPS
        .iter()
        .map(|&(p, l, d)| (p.to_string(), l, d))
        .collect();
    assert_eq!(got, want);
}

/// Steps `source` until it ends or `max` steps were taken, collecting
/// every step and the terminal outcome.
fn steps(source: &mut dyn StepSource, max: u64) -> Vec<Result<Option<StepInfo>, ExecError>> {
    let mut out = Vec::new();
    for _ in 0..max {
        let step = source.next_step();
        let ended = !matches!(step, Ok(Some(_)));
        out.push(step);
        if ended {
            break;
        }
    }
    out
}

/// A replayed trace yields exactly the steps, terminal outcome and final
/// state of the live machine it was recorded from, for any profile, seed
/// and budget.
#[test]
fn trace_replay_yields_the_live_step_stream() {
    let suite = BenchmarkProfile::suite();
    forall!(
        cases = 12,
        (
            gen::ints(0usize..suite.len()),
            gen::any_int::<u64>(),
            gen::ints(0u64..20_000)
        ),
        |profile, seed, max| {
            let program = generate(&BenchmarkProfile::suite()[profile], seed);
            let trace = Trace::record(&program, max);
            let mut machine = Machine::load(&program);
            let live = steps(&mut machine, max);
            let replayed = steps(&mut trace.replay(), max);
            // One recorded word per load, store and control transfer.
            let words = live
                .iter()
                .flatten()
                .flatten()
                .filter(|s| s.mem.is_some() || s.insn.is_control())
                .count();
            assert_eq!(trace.recorded_bytes(), 4 * words);
            assert_eq!(live.len(), replayed.len(), "step counts differ");
            for (i, (a, b)) in live.iter().zip(&replayed).enumerate() {
                assert_eq!(a, b, "step {i} differs");
            }
            assert_eq!(trace.state_hash(), machine.state_hash());
            assert_eq!(trace.instructions(), machine.retired().min(max));
        }
    );
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
}
