//! The `sweep` phase: the full profile × {1,4,8-issue} × {native, cp-base,
//! cp-opt} matrix through `run_matrix`, the simulator as the paper's users
//! run it.
//!
//! Host time goes to the pipeline model and the I-miss fetch engines. The
//! native cells never call `CodePackFetch`, so they are the built-in
//! control for fetch-model changes. `cp_*_speedup` and `table1_err_pp` are
//! simulated and exact for a seed; `table1_err_pp` is the error against
//! the paper's Table 1, while the speedups are unvalidated numerically
//! (the repository holds no paper speedup values, only prose bounds).
//! `table1_err_pp` is a per-layer figure of the traced run: across seeds
//! it spread by up to a fifth even averaged over six programs per
//! benchmark, more than a bound could hold.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codepack_bench::paper::TABLE1_MISS;
use codepack_core::{
    CodePackFetch, CodePackImage, CompressionConfig, FetchEngine, FetchStats, MissService,
    NativeFetch,
};
use codepack_cpu::{Machine, Pipeline, PipelineStats};
use codepack_isa::{Program, TEXT_BASE};
use codepack_obs::Obs;
use codepack_sim::{run_matrix, ArchConfig, CodeModel, MatrixSpec, SimReport};
use codepack_synth::generate;

use crate::trace::Spans;
use crate::util::{Clock, PhaseOut, Reference, UnitTimes};

/// Instructions simulated per matrix cell: long enough that the per-call
/// program preparation inside `run_matrix` stays a small share of a sweep.
pub const SWEEP_INSNS: u64 = 500_000;

/// Profiles the untraced sweep phase runs per rep. A unit of timing is one
/// profile's sub-cube, the longest-running unit of the three phases, so
/// the sweep gets several units for each rep of the others.
const UNITS_PER_REP: usize = 4;

/// The simulated outcome of one cell, as compared between runs.
#[derive(Clone, Debug, PartialEq)]
pub struct CellStats {
    pub pipeline: PipelineStats,
    pub fetch: FetchStats,
    pub state_hash: u64,
    pub retired: u64,
}

fn report_cells(report: &SimReport) -> Vec<Option<CellStats>> {
    report
        .cells
        .iter()
        .map(|c| {
            c.ok().map(|r| CellStats {
                pipeline: r.pipeline,
                fetch: r.fetch,
                state_hash: r.state_hash,
                retired: r.retired_instructions,
            })
        })
        .collect()
}

/// Checks every cell of a sweep: it ran to completion, and its retired
/// instructions and architectural state equal its native cell's (code
/// compression must never change execution).
fn check_report(report: &SimReport, out: &mut PhaseOut) {
    for cell in &report.cells {
        let native = report
            .cell(cell.profile, cell.arch, "native")
            .and_then(|n| n.ok());
        let ok = match (cell.ok(), native) {
            (Some(r), Some(n)) => {
                r.state_hash == n.state_hash && r.retired_instructions == n.retired_instructions
            }
            _ => false,
        };
        out.check(ok, || {
            format!(
                "sweep cell {}/{}/{} is {} or differs from native",
                cell.profile,
                cell.arch,
                cell.model,
                cell.outcome.label()
            )
        });
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Geomean over the profiles of `reports` of native / `model` simulated
/// cycles on the 4-issue machine.
fn speedup(reports: &[SimReport], model: &str) -> f64 {
    let s: Vec<f64> = reports
        .iter()
        .flat_map(|r| {
            let mut profiles: Vec<&str> = r.cells.iter().map(|c| c.profile).collect();
            profiles.dedup();
            profiles
                .into_iter()
                .map(|p| r.speedup(p, "4-issue", model, "native").unwrap_or(f64::NAN))
        })
        .collect();
    geomean(&s)
}

/// Mean over profiles of |measured − paper| 4-issue native I-miss rate,
/// in percentage points, where "measured" averages over the sweeps.
fn table1_err_pp(reports: &[SimReport], profiles: &[&str]) -> f64 {
    let errs: Vec<f64> = profiles
        .iter()
        .map(|p| {
            let paper = TABLE1_MISS
                .iter()
                .find(|(n, _)| n == p)
                .map_or(f64::NAN, |&(_, v)| v);
            let rates: Vec<f64> = reports
                .iter()
                .map(|r| {
                    r.cell(p, "4-issue", "native")
                        .and_then(|c| c.ok())
                        .map_or(f64::NAN, |r| r.imiss_per_insn() * 100.0)
                })
                .collect();
            (rates.iter().sum::<f64>() / rates.len() as f64 - paper).abs()
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

fn retired(report: &SimReport) -> u64 {
    report
        .cells
        .iter()
        .filter_map(|c| c.ok())
        .map(|r| r.retired_instructions)
        .sum()
}

/// The cube a run simulates: the paper's six programs generated from the
/// run's first derived seed.
fn spec(seed: u64) -> MatrixSpec {
    MatrixSpec::new(crate::derived_seed(seed, 0), SWEEP_INSNS)
}

/// The untraced sweep phase, run a few units at a time between the other
/// phases' reps. Unit `p` is profile `p`'s sub-cube of [`spec`] (its
/// three machines × three fetch models) through `run_matrix`; `run_matrix`
/// makes a profile's program from the seed alone, so a sub-cube
/// simulates exactly the cells of the full cube. The units run in turn,
/// each many times; `sim_minsns_s` is the cube's simulated instructions
/// over the sum of the units' median times ([`UnitTimes`]), at nominal
/// host speed. The exact metrics come from the first run of each unit.
pub struct Bench {
    units: Vec<MatrixSpec>,
    workers: usize,
    clock: Clock,
    next: usize,
    times: UnitTimes,
    insns: Vec<u64>,
    first: Vec<SimReport>,
}

impl Bench {
    pub fn new(seed: u64, workers: usize) -> Bench {
        let cube = spec(seed);
        let units: Vec<MatrixSpec> = cube
            .profiles
            .iter()
            .map(|p| MatrixSpec {
                profiles: vec![*p],
                ..cube.clone()
            })
            .collect();
        Bench {
            times: UnitTimes::new(units.len()),
            units,
            workers,
            clock: Clock::for_workers(workers),
            next: 0,
            insns: Vec::new(),
            first: Vec::new(),
        }
    }

    /// Whether every unit has run at least once.
    pub fn covered(&self) -> bool {
        self.next >= self.units.len()
    }

    pub fn rep(&mut self, host: &Reference, out: &mut PhaseOut) {
        for _ in 0..UNITS_PER_REP {
            let unit = self.next % self.units.len();
            self.next += 1;
            let (report, s) = self
                .clock
                .time(|| run_matrix(&self.units[unit], self.workers));
            self.times.record(unit, s, host.mark());
            check_report(&report, out);
            if self.first.len() == unit {
                self.insns.push(retired(&report));
                self.first.push(report);
            } else {
                out.check(retired(&report) == self.insns[unit], || {
                    format!("sweep unit {unit} retired a different count on a rerun")
                });
            }
        }
    }

    pub fn finish(self, host: &Reference, out: &mut PhaseOut) {
        let insns: u64 = self.insns.iter().sum();
        out.metric(
            "sim_minsns_s",
            insns as f64 / self.times.total(host) / 1e6,
            "Minsn/s",
        );
        out.metric("cp_base_speedup", speedup(&self.first, "cp-base"), "x");
        out.metric("cp_opt_speedup", speedup(&self.first, "cp-opt"), "x");
    }
}

/// Fetch-call counters shared between a [`TimingFetch`] and its cell.
#[derive(Default)]
struct FetchTally {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

/// A [`FetchEngine`] that forwards every call to the engine it wraps and
/// times the miss-service calls. It never touches the returned timing, so
/// the simulated run is identical to the unwrapped one.
struct TimingFetch {
    inner: Box<dyn FetchEngine>,
    tally: Rc<FetchTally>,
}

impl TimingFetch {
    fn count(&self, since: Instant) {
        self.tally.calls.set(self.tally.calls.get() + 1);
        self.tally
            .ns
            .set(self.tally.ns.get() + since.elapsed().as_nanos() as u64);
    }
}

impl FetchEngine for TimingFetch {
    fn service_miss(&mut self, critical_addr: u32, line_bytes: u32) -> MissService {
        let t = Instant::now();
        let s = self.inner.service_miss(critical_addr, line_bytes);
        self.count(t);
        s
    }

    fn service_miss_traced(
        &mut self,
        critical_addr: u32,
        line_bytes: u32,
        now: u64,
        obs: &mut Obs,
    ) -> MissService {
        let t = Instant::now();
        let s = self
            .inner
            .service_miss_traced(critical_addr, line_bytes, now, obs);
        self.count(t);
        s
    }

    fn finalize_profile(&self, obs: &mut Obs) {
        self.inner.finalize_profile(obs);
    }

    fn stats(&self) -> FetchStats {
        self.inner.stats()
    }

    fn fault_stats(&self) -> codepack_mem::FaultStats {
        self.inner.fault_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One cell run through [`TimingFetch`], built the way
/// `Simulation::run_with_image` builds it.
pub struct TracedCell {
    pub stats: CellStats,
    pub wall: Duration,
    pub fetch_calls: u64,
    pub fetch_ns: u64,
}

pub fn run_traced_cell(
    program: &Program,
    arch: ArchConfig,
    model: CodeModel,
    image: Option<Arc<CodePackImage>>,
    max_insns: u64,
) -> TracedCell {
    let start = Instant::now();
    let inner: Box<dyn FetchEngine> = match model {
        CodeModel::Native => Box::new(NativeFetch::new(arch.memory)),
        CodeModel::CodePack { decompressor, .. } => Box::new(CodePackFetch::new(
            image.expect("CodePack cells carry an image"),
            arch.memory,
            decompressor,
            TEXT_BASE,
        )),
    };
    let tally = Rc::new(FetchTally::default());
    let engine = TimingFetch {
        inner,
        tally: Rc::clone(&tally),
    };
    let mut pipeline = Pipeline::new(
        arch.pipeline,
        arch.icache,
        arch.dcache,
        arch.memory,
        Box::new(engine),
    );
    if let Some(l2) = arch.l2 {
        pipeline.set_l2(l2);
    }
    let mut machine = Machine::load(program);
    let pipeline_stats = pipeline
        .run(&mut machine, max_insns)
        .expect("synthetic programs execute cleanly");
    let stats = CellStats {
        pipeline: pipeline_stats,
        fetch: pipeline.fetch_engine().stats(),
        state_hash: machine.state_hash(),
        retired: pipeline_stats.instructions,
    };
    TracedCell {
        stats,
        wall: start.elapsed(),
        fetch_calls: tally.calls.get(),
        fetch_ns: tally.ns.get(),
    }
}

/// The traced sweep: the same cube, prepared the way `run_matrix` prepares
/// it, with every cell timed and its fetch engine wrapped. Returns the
/// cells in `run_matrix` order and the span set.
pub fn traced_sweep(
    spec: &MatrixSpec,
    workers: usize,
    spans: &mut Spans,
) -> (Vec<TracedCell>, Duration) {
    let started = Instant::now();
    let (root, _) = spans.open("sim.matrix", None);
    let mut prepared = Vec::new();
    for profile in &spec.profiles {
        let (program, _) = spans.time("synth.generate", Some(root), || {
            Arc::new(generate(profile, spec.seed))
        });
        let (image, _) = spans.time("core.compress", Some(root), || {
            Arc::new(CodePackImage::compress(
                program.text_words(),
                &CompressionConfig::default(),
            ))
        });
        prepared.push((program, image));
    }
    let mut jobs = Vec::new();
    for (pi, _) in spec.profiles.iter().enumerate() {
        for arch in &spec.archs {
            for (_, model) in &spec.models {
                jobs.push((pi, *arch, *model));
            }
        }
    }
    let slots: Vec<Mutex<Option<TracedCell>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let thread_spans = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let epoch = spans.epoch();
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs.len()) {
            let (jobs, slots, next, prepared, thread_spans) =
                (&jobs, &slots, &next, &prepared, &thread_spans);
            s.spawn(move || {
                let mut local = Spans::new(epoch);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(pi, arch, model)) = jobs.get(i) else {
                        break;
                    };
                    let (program, image) = &prepared[pi];
                    let image =
                        matches!(model, CodeModel::CodePack { .. }).then(|| Arc::clone(image));
                    let t0 = Instant::now();
                    let cell = run_traced_cell(program, arch, model, image, spec.max_insns);
                    let t1 = Instant::now();
                    let id = local.record("sim.cell", t0, t1, Some(root), Some(i as u64));
                    // Misses are timed in aggregate per cell: a span per
                    // miss would cost more than the miss itself.
                    local.record(
                        "core.fetch",
                        t0,
                        t0 + Duration::from_nanos(cell.fetch_ns),
                        Some(id),
                        Some(i as u64),
                    );
                    *slots[i].lock().expect("cell slot") = Some(cell);
                }
                thread_spans.lock().expect("span list").push(local);
            });
        }
    });
    spans.close(root);
    for local in thread_spans.into_inner().expect("span list") {
        spans.merge(local);
    }
    let cells = slots
        .into_iter()
        .map(|m| m.into_inner().expect("cell slot").expect("every cell ran"))
        .collect();
    (cells, started.elapsed())
}

/// The traced phase: one untraced `run_matrix` sweep for reference, then
/// traced sweeps whose simulated statistics must equal it bit for bit.
pub fn traced(seed: u64, workers: usize, budget: Duration, all: &mut Spans, out: &mut PhaseOut) {
    let spec = spec(seed);
    let mut spans = Spans::new(all.epoch());
    let started = Instant::now();
    let (reference, untraced_wall) = crate::util::timed(|| run_matrix(&spec, workers));
    check_report(&reference, out);
    let want = report_cells(&reference);
    let profiles: Vec<&str> = spec.profiles.iter().map(|p| p.name).collect();
    out.metric(
        "table1_err_pp",
        table1_err_pp(std::slice::from_ref(&reference), &profiles),
        "pp",
    );

    let mut walls = vec![];
    let mut rounds = vec![];
    while rounds.is_empty() || started.elapsed() < budget {
        let (cells, wall) = traced_sweep(&spec, workers, &mut spans);
        for (i, (c, w)) in cells.iter().zip(&want).enumerate() {
            out.check(w.as_ref() == Some(&c.stats), || {
                format!("traced sweep cell {i} differs from run_matrix")
            });
        }
        walls.push(wall.as_secs_f64());
        rounds.push(cells);
    }
    // The breakdown comes from the round with the median wall time.
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    let mid = order[order.len() / 2];
    let (cells, wall) = (&rounds[mid], walls[mid]);

    let labels: Vec<&str> = spec.models.iter().map(|(l, _)| *l).collect();
    let model_of = |i: usize| labels[i % labels.len()];
    let mut per_model = std::collections::BTreeMap::<&str, (f64, u64)>::new();
    let (mut calls, mut fetch_ns, mut cell_ns) = (0u64, 0u64, 0f64);
    for (i, c) in cells.iter().enumerate() {
        let e = per_model.entry(model_of(i)).or_default();
        e.0 += c.wall.as_nanos() as f64;
        e.1 += c.stats.retired;
        calls += c.fetch_calls;
        fetch_ns += c.fetch_ns;
        cell_ns += c.wall.as_nanos() as f64;
    }
    for (label, (ns, insns)) in &per_model {
        let key = label.replace('-', "_");
        out.metric(
            format!("sim.{key}.host_ns_per_insn"),
            ns / *insns as f64,
            "ns/insn",
        );
    }
    let prep_ns = (spans.total("synth.generate") + spans.total("core.compress")).as_nanos() as f64
        / rounds.len() as f64;
    let cells_wall_ns = wall * 1e9 - prep_ns;
    out.metric("core.fetch.calls", calls as f64, "count");
    out.metric(
        "core.fetch.ns_per_call",
        fetch_ns as f64 / calls as f64,
        "ns/call",
    );
    out.metric("core.fetch.self_us", fetch_ns as f64 / 1e3, "us");
    out.metric(
        "cpu.pipeline.self_us",
        (cell_ns - fetch_ns as f64) / 1e3,
        "us",
    );
    out.metric(
        "sim.matrix.busy_ratio",
        cell_ns / (workers as f64 * cells_wall_ns),
        "ratio",
    );
    out.metric("sim.matrix.prep_share", prep_ns / (wall * 1e9), "ratio");
    out.metric(
        "sweep.trace_overhead",
        wall / untraced_wall.as_secs_f64(),
        "ratio",
    );
    // Layer self time on the wall clock: preparation runs on one thread,
    // cells on `workers`, so their summed time is divided by the workers.
    out.metric(
        "sweep.residual_share",
        (wall * 1e9 - prep_ns - cell_ns / workers as f64) / (wall * 1e9),
        "ratio",
    );
    all.merge(spans);

    // Simulated statistics, exact for a seed: they must not move under a
    // change that only speeds the host up.
    let mut sum = FetchStats::default();
    let (mut imiss, mut insns, mut cp_insns) = (0u64, 0u64, 0u64);
    for (i, c) in cells.iter().enumerate() {
        imiss += c.stats.pipeline.icache.misses();
        insns += c.stats.retired;
        if model_of(i) != "native" {
            let f = c.stats.fetch;
            sum.misses += f.misses;
            sum.buffer_hits += f.buffer_hits;
            sum.index_hits += f.index_hits;
            sum.index_misses += f.index_misses;
            sum.memory_beats += f.memory_beats;
            sum.total_critical_cycles += f.total_critical_cycles;
            cp_insns += c.stats.retired;
        }
    }
    out.metric(
        "mem.icache.misses_per_kinsn",
        imiss as f64 * 1e3 / insns as f64,
        "1/kinsn",
    );
    out.metric(
        "core.fetch.buffer_hit_ratio",
        sum.buffer_hits as f64 / sum.misses as f64,
        "ratio",
    );
    out.metric(
        "core.fetch.index_miss_ratio",
        sum.index_miss_ratio(),
        "ratio",
    );
    out.metric(
        "core.fetch.miss_penalty_cyc",
        sum.avg_miss_penalty(),
        "cycles",
    );
    out.metric(
        "mem.bus_beats_per_kinsn",
        sum.memory_beats as f64 * 1e3 / cp_insns as f64,
        "1/kinsn",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The timing wrapper must reproduce `run_matrix` (and so
    /// `Simulation::run_with_image`) exactly: pipeline and fetch
    /// statistics and the architectural state of every cell.
    #[test]
    fn traced_cells_equal_run_matrix() {
        for seed in [42, 7] {
            let spec = MatrixSpec::new(seed, 30_000);
            let want = report_cells(&run_matrix(&spec, 2));
            let mut spans = Spans::new(Instant::now());
            let (cells, _) = traced_sweep(&spec, 2, &mut spans);
            assert_eq!(cells.len(), want.len());
            for (i, (c, w)) in cells.iter().zip(&want).enumerate() {
                assert_eq!(w.as_ref(), Some(&c.stats), "seed {seed} cell {i}");
            }
            assert_eq!(
                spans.spans.iter().filter(|s| s.name == "sim.cell").count(),
                want.len()
            );
        }
    }
}
