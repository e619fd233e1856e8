//! The `serve` phase: an in-process `cpackd` with the default server
//! configuration, driven by loadgen's op mix (40% compress, 30%
//! decompress, 10% ping, 10% lint, 10% profile) over loadgen's payloads:
//! instruction-like words with a tenth random, 16 to 1515 words drawn
//! uniformly. Small inputs make per-call fixed costs dominate: dictionary
//! arrays, decode tables, the lint table prover.
//!
//! Unlike loadgen, request popularity is skewed (Zipf) over a corpus
//! larger than the response cache's 4096 entries, so the hit ratio lands
//! between 0 and 1 and FIFO eviction runs; and the op mix is exact in
//! every block of ten requests rather than drawn per request, so short
//! slices of the closed loop carry the same mix.
//!
//! The server always runs `ServerConfig::default()` (four workers); the
//! workload sets only the number of client connections.
//!
//! The untraced run is a closed loop that saturates the server, after a
//! warm-up that fills the response cache. The traced run adds an open
//! loop at [`OPEN_LOOP_RPS`] (well below saturation), where each
//! request's latency counts from the time it was due. Open-loop latency is a per-layer figure only: on a shared
//! two-core virtual machine its median swung fourfold between runs with
//! the host's load, more than any bound could hold.
//!
//! Serve tracing is post hoc: the traced closed loop runs the same
//! `drive` as the untraced one, and its client spans are built from the
//! records both keep. Its overhead is zero by construction, so the phase
//! reports no `trace_overhead`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use codepack_analyze::{check_frame, LintReport};
use codepack_core::frame::{pack_frame, scan_frame, unpack_frame, PackOptions, UnpackOptions};
use codepack_obs::json::{self, Value};
use codepack_svc::{
    content_hash, server, CacheConfig, Client, ClientConfig, Op, ServerConfig, ShardedCache,
};
use codepack_testkit::{mix_seed, Rng};

use crate::trace::Spans;
use crate::util::{
    mean, median, micros, percentile, sorted, words_to_le, Clock, PhaseOut, Reference,
};

/// Distinct payloads: twice the default cache's 8 × 512 entries.
pub const CORPUS_SIZE: usize = 8192;

/// Loadgen's op mix as ten requests: 40% compress, 30% decompress, 10%
/// each ping, lint and profile.
const MIX: [Op; 10] = [
    Op::Compress,
    Op::Compress,
    Op::Compress,
    Op::Compress,
    Op::Decompress,
    Op::Decompress,
    Op::Decompress,
    Op::Ping,
    Op::Lint,
    Op::Profile,
];

/// Zipf exponent of request popularity over the corpus.
const ZIPF_S: f64 = 0.9;

/// Offered load of the open loop, requests per second.
pub const OPEN_LOOP_RPS: f64 = 1000.0;

/// Client connections per unit of parallelism. With one connection per
/// core the server is latency-bound (each request crosses four thread
/// hand-offs and the cores idle in between), so the closed loop would
/// measure host wake-up latency rather than saturation.
const CLIENTS_PER_WORKER: usize = 4;

/// Closed loop before the first timed slice. The response cache starts
/// empty and its hit ratio climbs for the first few seconds, and the
/// throughput with it; this is long enough for the cache to fill and turn
/// over at the slowest rate seen.
const WARM_UP: Duration = Duration::from_secs(3);

/// Length of one timed closed-loop slice: long enough to hold a few
/// hundred blocks of the op mix.
const SLICE: Duration = Duration::from_millis(250);

/// Slices per rep: the serve phase gets about a fifth of each round.
const SLICES_PER_REP: usize = 2;

/// Fewest samples a latency window needs: its p99 then has at least ten
/// samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1000;

/// Per-call deadline: far above any latency the mix produces, so a reply
/// that misses it is a failure, not load shedding by design.
const DEADLINE_MS: u32 = 5_000;

/// One corpus payload with its ground truth, computed in set-up.
pub struct Entry {
    /// Little-endian instruction words.
    pub payload: Vec<u8>,
    /// `pack_frame` of the words with default options.
    pub frame: Vec<u8>,
    /// Group payload sizes of the frame: (groups, min, max).
    pub groups: (u64, u64, u64),
}

pub struct Corpus {
    pub entries: Vec<Entry>,
    /// Cumulative Zipf weights over `entries`, normalised to end at 1.
    cdf: Vec<f64>,
}

fn make_entry(seed: u64, i: usize) -> Entry {
    let mut rng = Rng::seed_from_u64(mix_seed(seed, 0x5e7e_0000 + i as u64));
    let n = 16 + rng.gen_range(0..1500u64) as usize;
    let words: Vec<u32> = (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=5 => 0x7c00_0000 | rng.gen_range(0..0x40u32) << 16 | rng.gen_range(0..32u32),
            6..=8 => 0x3860_0000 | rng.gen_range(0..0x100u32),
            _ => rng.gen_range(0..=u32::MAX),
        })
        .collect();
    let frame = pack_frame(&words, &PackOptions::default());
    let lens = scan_frame(&frame)
        .expect("a fresh frame scans clean")
        .group_payload_lens;
    let groups = (
        lens.len() as u64,
        lens.iter().copied().min().map_or(0, u64::from),
        lens.iter().copied().max().map_or(0, u64::from),
    );
    Entry {
        payload: words_to_le(&words),
        frame,
        groups,
    }
}

impl Corpus {
    /// Builds the corpus and its truth on `workers` threads.
    pub fn build(seed: u64, workers: usize) -> Corpus {
        let chunk = CORPUS_SIZE.div_ceil(workers);
        let entries = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        (w * chunk..((w + 1) * chunk).min(CORPUS_SIZE))
                            .map(|i| make_entry(seed, i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("corpus worker"))
                .collect()
        });
        Corpus {
            entries,
            cdf: zipf_cdf(),
        }
    }

    /// The op and corpus entry of request `i`: a pure function of the
    /// seed, independent of client count and scheduling.
    /// Request `i` of the plan for `seed`: its op and corpus entry. Every
    /// block of ten consecutive requests holds loadgen's mix exactly, in
    /// an order drawn per block, so any stretch of the plan has the same
    /// mix to within a block; entries follow the Zipf popularity.
    fn plan(&self, seed: u64, i: u64) -> (Op, usize) {
        let mut block = MIX;
        Rng::seed_from_u64(mix_seed(seed ^ 0x5bd1_e995, i / MIX.len() as u64)).shuffle(&mut block);
        let op = block[(i % MIX.len() as u64) as usize];
        let u = Rng::seed_from_u64(mix_seed(seed ^ 0x9e37_79b9, i)).gen_f64();
        let entry = self.cdf.partition_point(|&c| c < u).min(CORPUS_SIZE - 1);
        (op, entry)
    }

    fn request(&self, op: Op, entry: usize) -> &[u8] {
        let e = &self.entries[entry];
        match op {
            Op::Compress | Op::Profile => &e.payload,
            Op::Ping => &e.payload[..e.payload.len().min(64)],
            _ => &e.frame,
        }
    }
}

/// Cumulative Zipf weights over the corpus, normalised to end at 1.
fn zipf_cdf() -> Vec<f64> {
    let mut cdf: Vec<f64> = (1..=CORPUS_SIZE)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / (k as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("non-empty corpus");
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

/// Fields of a lint verdict the socket-free replay must reproduce.
type LintFields = (u64, u64);

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Checks one `Ok` reply against the set-up truth. Lint and profile
/// replies are checked for their schema and every field the truth fixes.
fn check_reply(
    op: Op,
    e: &Entry,
    request: &[u8],
    reply: &[u8],
) -> Result<Option<LintFields>, String> {
    let doc = || {
        std::str::from_utf8(reply)
            .map_err(|e| e.to_string())
            .and_then(json::parse)
    };
    let (groups, gmin, gmax) = e.groups;
    match op {
        Op::Compress if reply == e.frame => Ok(None),
        Op::Decompress if reply == e.payload => Ok(None),
        Op::Ping if reply == request => Ok(None),
        Op::Lint => {
            let v = doc()?;
            let fields = (field_u64(&v, "warnings"), field_u64(&v, "checks_run"));
            let good = v.get("schema").and_then(Value::as_str) == Some("cpackd.lint.v1")
                && v.get("ok").and_then(Value::as_bool) == Some(true)
                && field_u64(&v, "content_size") == Some(e.payload.len() as u64)
                && field_u64(&v, "groups") == Some(groups)
                && field_u64(&v, "frame_bytes") == Some(e.frame.len() as u64)
                && v.get("integrity").and_then(Value::as_str) == Some("crc32");
            match fields {
                (Some(w), Some(c)) if good && c > 0 => Ok(Some((w, c))),
                _ => Err(format!("lint verdict does not match: {v:?}")),
            }
        }
        Op::Profile => {
            let v = doc()?;
            let ratio = e.frame.len() as f64 / e.payload.len() as f64;
            let good = v.get("schema").and_then(Value::as_str) == Some("cpackd.profile.v1")
                && field_u64(&v, "in_bytes") == Some(e.payload.len() as u64)
                && field_u64(&v, "out_bytes") == Some(e.frame.len() as u64)
                && field_u64(&v, "groups") == Some(groups)
                && field_u64(&v, "group_payload_min") == Some(gmin)
                && field_u64(&v, "group_payload_max") == Some(gmax)
                && v.get("ratio")
                    .and_then(Value::as_f64)
                    .is_some_and(|r| (r - ratio).abs() < 1e-5);
            if good {
                Ok(None)
            } else {
                Err(format!("profile reply does not match: {v:?}"))
            }
        }
        _ => Err(format!("{} reply differs from the truth", op.name())),
    }
}

/// One finished request.
struct Done {
    op: Op,
    entry: usize,
    /// Wire id of the call's first attempt.
    wire_id: u64,
    due: Instant,
    sent: Instant,
    done: Instant,
    result: Result<Option<LintFields>, String>,
}

/// Drives requests `base..` from every client until `until`. With a rate,
/// request `k` is due at `start + k / rate` (open loop); without one, each
/// client sends its next request when the previous one is answered
/// (closed loop). Without `keep_passed`, only the records of failed
/// requests are kept and the passed ones are counted, so the benchmark's
/// own records do not grow the peak RSS with throughput.
fn drive(
    clients: &mut [Client],
    corpus: &Corpus,
    seed: u64,
    base: u64,
    rate: Option<f64>,
    length: Duration,
    keep_passed: bool,
) -> Run {
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let until = start + length;
    let (mut done, passed) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let (mut out, mut passed) = (Vec::new(), 0);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let due = match rate {
                            Some(r) => start + Duration::from_secs_f64(k as f64 / r),
                            None => Instant::now().max(start),
                        };
                        if due >= until {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let (op, entry) = corpus.plan(seed, base + k);
                        let request = corpus.request(op, entry);
                        let wire_id = client.calls_issued() << 8;
                        let sent = Instant::now();
                        let reply = client.call(op, request);
                        let finished = Instant::now();
                        let result = match reply {
                            Ok(reply) => check_reply(op, &corpus.entries[entry], request, &reply),
                            Err(e) => Err(format!("{} call failed: {e}", op.name())),
                        };
                        if !keep_passed && result.is_ok() {
                            passed += 1;
                            continue;
                        }
                        out.push(Done {
                            op,
                            entry,
                            wire_id,
                            due,
                            sent,
                            done: finished,
                            result,
                        });
                    }
                    (out, passed)
                })
            })
            .collect();
        handles
            .into_iter()
            .fold((Vec::new(), 0), |(mut all, n), h| {
                let (done, passed) = h.join().expect("client thread");
                all.extend(done);
                (all, n + passed)
            })
    });
    done.sort_by_key(|d| d.done);
    Run {
        done,
        passed,
        start,
    }
}

/// The requests of one loop, in completion order.
struct Run {
    done: Vec<Done>,
    /// Requests that passed their check but whose records were not kept.
    passed: u64,
    start: Instant,
}

impl Run {
    /// Percentile `p` of latency from the due time: the median over
    /// one-second windows (by due time) that hold enough samples, so one
    /// stall of the host moves one window, not the result. A run too short
    /// for a full window takes the percentile of all its samples.
    fn latency_percentile(&self, p: f64) -> f64 {
        let mut windows = Vec::<Vec<f64>>::new();
        for d in &self.done {
            let w = d.due.saturating_duration_since(self.start).as_secs() as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(micros(d.done - d.due));
        }
        let full: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
            .map(|w| percentile(&sorted(w.clone()), p))
            .collect();
        if full.is_empty() {
            percentile(&sorted(windows.concat()), p)
        } else {
            median(&full)
        }
    }
}

fn account(run: &Run, out: &mut PhaseOut) {
    out.attempted += run.passed;
    for d in &run.done {
        out.check(d.result.is_ok(), || {
            d.result.clone().err().unwrap_or_default()
        });
    }
}

/// A running server with [`CLIENTS_PER_WORKER`] connected clients per
/// worker.
struct Rig {
    server: server::ServerHandle,
    clients: Vec<Client>,
}

impl Rig {
    fn start(seed: u64, workers: usize, out: &mut PhaseOut) -> Rig {
        let server =
            server::start("127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port");
        let clients = (0..workers * CLIENTS_PER_WORKER)
            .map(|w| {
                let mut c = client(server.addr(), mix_seed(seed, w as u64));
                // Connect before the clock starts.
                out.check(c.call(Op::Ping, b"hello").is_ok(), || {
                    "serve: warm-up ping failed".to_string()
                });
                c
            })
            .collect();
        Rig { server, clients }
    }

    /// Reads `Op::Metrics` through a fresh client, then drains the server.
    fn finish(self, out: &mut PhaseOut) -> Option<Value> {
        let mut c = client(self.server.addr(), 0);
        let metrics = c
            .call(Op::Metrics, &[])
            .ok()
            .and_then(|m| String::from_utf8(m).ok())
            .and_then(|m| json::parse(&m).ok());
        out.check(metrics.is_some(), || {
            "serve: metrics call failed".to_string()
        });
        drop(c);
        drop(self.clients);
        self.server.shutdown();
        metrics
    }
}

fn client(addr: SocketAddr, seed: u64) -> Client {
    Client::new(
        addr,
        ClientConfig {
            deadline_ms: DEADLINE_MS,
            seed,
            ..ClientConfig::default()
        },
    )
}

/// The untraced serve phase: one server and its clients for the whole
/// run, a closed loop of [`WARM_UP`] to fill the response cache, then
/// [`SLICES_PER_REP`] closed-loop slices of [`SLICE`] per rep between the
/// other phases' reps.
/// `serve_sat_rps` is the median over slices of requests per second of
/// wall time, at nominal host speed.
pub struct Bench<'a> {
    corpus: &'a Corpus,
    seed: u64,
    rig: Rig,
    /// Requests per second of each slice, with its [`Reference::mark`].
    rates: Vec<(f64, usize)>,
}

impl<'a> Bench<'a> {
    pub fn start(corpus: &'a Corpus, seed: u64, workers: usize, out: &mut PhaseOut) -> Bench<'a> {
        let mut rig = Rig::start(seed, workers, out);
        let warm = drive(&mut rig.clients, corpus, seed, 0, None, WARM_UP, false);
        account(&warm, out);
        Bench {
            corpus,
            seed,
            rig,
            rates: Vec::new(),
        }
    }

    pub fn rep(&mut self, host: &Reference, out: &mut PhaseOut) {
        for _ in 0..SLICES_PER_REP {
            // Each slice draws its own requests from the plan.
            let base = (self.rates.len() as u64 + 1) << 32;
            let (slice, seconds) = Clock::Wall.time(|| {
                drive(
                    &mut self.rig.clients,
                    self.corpus,
                    self.seed,
                    base,
                    None,
                    SLICE,
                    false,
                )
            });
            account(&slice, out);
            let requests = slice.passed + slice.done.len() as u64;
            self.rates.push((requests as f64 / seconds, host.mark()));
        }
    }

    pub fn finish(self, host: &Reference, out: &mut PhaseOut) {
        self.rig.finish(out);
        let nominal: Vec<f64> = self
            .rates
            .iter()
            .map(|&(r, mark)| r * host.scale_at(mark))
            .collect();
        out.metric("serve_sat_rps", median(&nominal), "1/s");
    }
}

/// Library time of one request as the server would execute it, replayed
/// without sockets in the order the replies completed.
struct Replay {
    cache: ShardedCache,
    us: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            cache: ShardedCache::new(CacheConfig::default()),
            us: Default::default(),
        }
    }

    /// Executes `d`'s request and checks the output against what the
    /// server replied (the server's reply already equals the truth).
    fn execute(&mut self, corpus: &Corpus, d: &Done, spans: &mut Spans) -> bool {
        let e = &corpus.entries[d.entry];
        let t = Instant::now();
        let (name, ok): (&'static str, bool) = match d.op {
            Op::Compress => {
                let key = content_hash(&e.payload);
                match self.cache.get(key) {
                    Some(frame) => ("svc.execute.compress_hit", frame == e.frame),
                    None => {
                        let words = words_of(&e.payload);
                        let frame = pack_frame(&words, &PackOptions::default());
                        let ok = frame == e.frame;
                        self.cache.insert(key, frame);
                        ("svc.execute.compress_miss", ok)
                    }
                }
            }
            Op::Decompress => (
                "svc.execute.decompress",
                unpack_frame(&e.frame, &UnpackOptions::default())
                    .is_ok_and(|w| words_to_le(&w) == e.payload),
            ),
            Op::Lint => {
                let mut report = LintReport::new("stream");
                let walk = check_frame(&e.frame, &mut report);
                let fields = (report.warnings() as u64, report.checks_run.len() as u64);
                (
                    "svc.execute.lint",
                    report.is_clean()
                        && walk.groups as u64 == e.groups.0
                        && d.result.as_ref().ok() == Some(&Some(fields)),
                )
            }
            Op::Profile => {
                let words = words_of(&e.payload);
                let frame = pack_frame(&words, &PackOptions::default());
                let lens = scan_frame(&frame).map(|s| s.group_payload_lens);
                (
                    "svc.execute.profile",
                    frame == e.frame && lens.is_ok_and(|l| l.len() as u64 == e.groups.0),
                )
            }
            _ => ("svc.execute.ping", true),
        };
        let end = Instant::now();
        spans.record(name, t, end, None, Some(d.wire_id));
        self.us.entry(name).or_default().push(micros(end - t));
        ok
    }
}

fn words_of(payload: &[u8]) -> Vec<u32> {
    payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

fn span_name(op: Op) -> &'static str {
    match op {
        Op::Compress => "svc.client.compress",
        Op::Decompress => "svc.client.decompress",
        Op::Lint => "svc.client.lint",
        Op::Profile => "svc.client.profile",
        _ => "svc.client.ping",
    }
}

fn counter(metrics: Option<&Value>, name: &str) -> f64 {
    metrics
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0) as f64
}

/// Traced phase: the open loop and the closed loop with a client span per
/// call, the server's own metrics, and a socket-free replay of the same
/// request stream that times each endpoint's library work.
pub fn traced(
    corpus: &Corpus,
    seed: u64,
    workers: usize,
    budget: Duration,
    all: &mut Spans,
    out: &mut PhaseOut,
) {
    let mut spans = Spans::new(all.epoch());
    let mut rig = Rig::start(seed, workers, out);
    let open = drive(
        &mut rig.clients,
        corpus,
        seed,
        0,
        Some(OPEN_LOOP_RPS),
        budget * 2 / 5,
        true,
    );
    let closed = drive(
        &mut rig.clients,
        corpus,
        seed,
        1 << 32,
        None,
        budget * 2 / 5,
        true,
    );
    let closed_wall = closed
        .done
        .last()
        .map_or(0.0, |d| (d.done - closed.start).as_secs_f64());
    account(&closed, out);
    let closed = closed.done;
    let clients = rig.clients.len();
    let metrics = rig.finish(out);
    out.metric("loadgen.p50_us", open.latency_percentile(50.0), "us");
    out.metric("loadgen.p99_us", open.latency_percentile(99.0), "us");
    account(&open, out);
    let open = open.done;
    for d in open.iter().chain(&closed) {
        spans.record(span_name(d.op), d.sent, d.done, None, Some(d.wire_id));
    }

    for op in [
        Op::Compress,
        Op::Decompress,
        Op::Lint,
        Op::Profile,
        Op::Ping,
    ] {
        let lat = sorted(
            open.iter()
                .filter(|d| d.op == op)
                .map(|d| micros(d.done - d.sent))
                .collect(),
        );
        out.metric(
            format!("svc.client.{}.p50_us", op.name()),
            percentile(&lat, 50.0),
            "us",
        );
        out.metric(
            format!("svc.client.{}.p99_us", op.name()),
            percentile(&lat, 99.0),
            "us",
        );
    }
    let hist = metrics
        .as_ref()
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("svc.latency_us"));
    let h = |k: &str| {
        hist.and_then(|h| h.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    out.metric("svc.server.p50_us", h("p50"), "us");
    out.metric("svc.server.p99_us", h("p99"), "us");
    let server_mean = h("sum") / h("count").max(1.0);

    let mut replay = Replay::new();
    for d in open.iter().chain(&closed) {
        let ok = replay.execute(corpus, d, &mut spans);
        out.check(ok, || {
            format!(
                "serve: replay of a {} request differs from the server",
                d.op.name()
            )
        });
    }
    for name in ["compress_miss", "decompress", "lint", "profile"] {
        let v = replay
            .us
            .get(format!("svc.execute.{name}").as_str())
            .map_or(0.0, |v| mean(v));
        out.metric(format!("svc.execute.{name}.us"), v, "us");
    }
    let executed: Vec<f64> = replay.us.values().flatten().copied().collect();
    out.metric("svc.queue_io.us", server_mean - mean(&executed), "us");

    let hits = counter(metrics.as_ref(), "svc.cache.hits");
    let misses = counter(metrics.as_ref(), "svc.cache.misses");
    out.metric(
        "svc.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.metric(
        "svc.cache.evictions",
        counter(metrics.as_ref(), "svc.cache.evictions"),
        "count",
    );
    out.metric("svc.shed", counter(metrics.as_ref(), "svc.shed"), "count");
    out.metric(
        "svc.deadline_exceeded",
        counter(metrics.as_ref(), "svc.deadline_exceeded"),
        "count",
    );
    let lag = sorted(open.iter().map(|d| micros(d.sent - d.due)).collect());
    out.metric("loadgen.lag_p99_us", percentile(&lag, 99.0), "us");

    // Per client thread: the share of the closed loop no call span covers
    // (planning, checking replies, recording).
    let called: f64 = closed.iter().map(|d| (d.done - d.sent).as_secs_f64()).sum();
    out.metric(
        "serve.residual_share",
        1.0 - called / (clients as f64 * closed_wall),
        "ratio",
    );
    all.merge(spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The socket-free replay must reproduce every reply the server gave
    /// for the same request stream.
    #[test]
    fn replay_equals_server_replies() {
        let seed = 42;
        let corpus = Corpus::build(seed, 2);
        let mut out = PhaseOut::default();
        let mut rig = Rig::start(seed, 2, &mut out);
        let done = drive(
            &mut rig.clients,
            &corpus,
            seed,
            0,
            None,
            Duration::from_millis(500),
            true,
        );
        rig.finish(&mut out);
        account(&done, &mut out);
        assert_eq!(out.failed, 0);
        let done = done.done;
        assert!(done.len() > 20, "only {} requests", done.len());
        let mut replay = Replay::new();
        let mut spans = Spans::new(Instant::now());
        for d in &done {
            assert!(replay.execute(&corpus, d, &mut spans), "{:?}", d.op);
        }
        assert_eq!(spans.spans.len(), done.len());
    }

    #[test]
    fn plan_follows_the_mix_and_skew() {
        let corpus = Corpus {
            entries: Vec::new(),
            cdf: zipf_cdf(),
        };
        let plans: Vec<(Op, usize)> = (0..20_000).map(|i| corpus.plan(7, i)).collect();
        for (op, share) in [(Op::Compress, 4), (Op::Decompress, 3), (Op::Lint, 1)] {
            for block in plans.chunks(10) {
                let n = block.iter().filter(|(o, _)| *o == op).count();
                assert_eq!(n, share, "{} in a block of ten", op.name());
            }
        }
        let head = plans.iter().filter(|(_, e)| *e < 100).count();
        assert!(head > plans.len() / 4, "popularity is skewed: {head}");
        assert_eq!(
            plans,
            (0..20_000).map(|i| corpus.plan(7, i)).collect::<Vec<_>>()
        );
    }
}
