//! A minimal micro-benchmark harness: warmup, batched timing, median /
//! MAD statistics, and JSON emission — the subset of `criterion` this
//! workspace needs, with no external dependencies.
//!
//! ```no_run
//! use codepack_testkit::bench::{Bench, Throughput};
//! let mut b = Bench::new("codec_micro");
//! b.with_throughput(Throughput::Elements(1000))
//!     .bench("sum/1k", || (0..1000u64).sum::<u64>());
//! b.finish(); // prints a table, writes target/bench/codec_micro.json
//! ```
//!
//! Each benchmark auto-calibrates its batch size so one batch runs for a
//! few milliseconds, warms up, then times `TESTKIT_BENCH_BATCHES`
//! (default 9) batches. The reported point estimate is the **median**
//! ns/iteration across batches; spread is the **median absolute
//! deviation** (MAD), both robust to scheduler noise. Set
//! `TESTKIT_BENCH_FAST=1` to cut times by ~10× in smoke runs.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Units processed per iteration, for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// One benchmark's measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Identifier, conventionally `group/case`.
    pub id: String,
    /// Iterations per timed batch (after calibration).
    pub iters_per_batch: u64,
    /// Number of timed batches.
    pub batches: u64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Median absolute deviation of ns per iteration.
    pub mad_ns: f64,
    /// Fastest batch, ns per iteration.
    pub min_ns: f64,
    /// Slowest batch, ns per iteration.
    pub max_ns: f64,
    /// Work per iteration, if declared.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Human-readable throughput derived from `median_ns`, e.g.
    /// `"123.4 MiB/s"` or `"5.6 Melem/s"`.
    pub fn throughput_label(&self) -> Option<String> {
        let per_iter = match self.throughput? {
            Throughput::Bytes(b) => b as f64,
            Throughput::Elements(e) => e as f64,
        };
        let per_sec = per_iter * 1e9 / self.median_ns.max(1e-9);
        Some(match self.throughput? {
            Throughput::Bytes(_) => {
                if per_sec >= 1024.0 * 1024.0 * 1024.0 {
                    format!("{:.2} GiB/s", per_sec / (1024.0 * 1024.0 * 1024.0))
                } else {
                    format!("{:.2} MiB/s", per_sec / (1024.0 * 1024.0))
                }
            }
            Throughput::Elements(_) => {
                if per_sec >= 1e6 {
                    format!("{:.2} Melem/s", per_sec / 1e6)
                } else {
                    format!("{:.2} Kelem/s", per_sec / 1e3)
                }
            }
        })
    }
}

/// A named suite of benchmarks with uniform reporting.
pub struct Bench {
    suite: String,
    next_throughput: Option<Throughput>,
    results: Vec<BenchResult>,
}

fn fast_mode() -> bool {
    std::env::var("TESTKIT_BENCH_FAST")
        .map(|v| v != "0")
        .unwrap_or(false)
}

fn target_batch_ns() -> u64 {
    if fast_mode() {
        200_000
    } else {
        2_000_000
    }
}

fn batch_count() -> u64 {
    std::env::var("TESTKIT_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast_mode() { 5 } else { 9 })
        .max(3)
}

impl Bench {
    /// Opens a suite; `suite` names the JSON file under `target/bench/`.
    pub fn new(suite: impl Into<String>) -> Bench {
        Bench {
            suite: suite.into(),
            next_throughput: None,
            results: Vec::new(),
        }
    }

    /// Declares the work per iteration of the *next* `bench` call.
    pub fn with_throughput(&mut self, t: Throughput) -> &mut Bench {
        self.next_throughput = Some(t);
        self
    }

    /// Times `f`, recording the result under `id`. Returns the
    /// measurement for immediate inspection.
    pub fn bench<R>(&mut self, id: impl Into<String>, mut f: impl FnMut() -> R) -> &BenchResult {
        let throughput = self.next_throughput.take();

        // Calibrate: grow the batch until it takes long enough to time.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed().as_nanos() as u64;
            if elapsed >= target_batch_ns() || iters >= 1 << 24 {
                break;
            }
            // Aim just past the target; at least double to converge fast.
            iters = (iters * 2).max(match (iters * target_batch_ns()).checked_div(elapsed) {
                None => iters * 16,
                Some(scaled) => scaled + 1,
            });
        }

        // Warmup already happened during calibration; take timed batches.
        let batches = batch_count();
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(batches as usize);
        for _ in 0..batches {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }

        let mid = median(&mut per_iter_ns.clone());
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|v| (v - mid).abs()).collect();
        let mad = median(&mut deviations);
        let min = per_iter_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_iter_ns.iter().cloned().fold(0.0, f64::max);

        self.results.push(BenchResult {
            id: id.into(),
            iters_per_batch: iters,
            batches,
            median_ns: mid,
            mad_ns: mad,
            min_ns: min,
            max_ns: max,
            throughput,
        });
        self.results.last().expect("just pushed")
    }

    /// The measurements so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the suite as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== bench suite: {} ===", self.suite);
        let width = self
            .results
            .iter()
            .map(|r| r.id.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for r in &self.results {
            let tp = r
                .throughput_label()
                .map(|t| format!("  {t}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<width$}  {:>12}/iter  ± {:>9}  [{} × {} iters]{tp}",
                r.id,
                fmt_ns(r.median_ns),
                fmt_ns(r.mad_ns),
                r.batches,
                r.iters_per_batch,
            );
        }
        out
    }

    /// The suite as a JSON document (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(&self.suite)));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let throughput = match r.throughput {
                Some(Throughput::Bytes(b)) => format!("{{\"bytes\": {b}}}"),
                Some(Throughput::Elements(e)) => format!("{{\"elements\": {e}}}"),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mad_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"iters_per_batch\": {}, \
                 \"batches\": {}, \"throughput\": {}}}{}\n",
                escape_json(&r.id),
                r.median_ns,
                r.mad_ns,
                r.min_ns,
                r.max_ns,
                r.iters_per_batch,
                r.batches,
                throughput,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the table and writes `target/bench/<suite>.json`. Returns
    /// the JSON path when the write succeeded.
    pub fn finish(&self) -> Option<PathBuf> {
        print!("{}", self.render());
        let dir = bench_output_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}.json", self.suite));
        std::fs::write(&path, self.to_json()).ok()?;
        println!("[testkit] wrote {}", path.display());
        Some(path)
    }
}

/// `target/bench` under the workspace root (found via `Cargo.lock`).
fn bench_output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("bench");
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("bench");
        }
        if !dir.pop() {
            return PathBuf::from("target").join("bench");
        }
    }
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_env() {
        std::env::set_var("TESTKIT_BENCH_FAST", "1");
    }

    #[test]
    fn measures_and_orders_cheap_vs_expensive() {
        fast_env();
        let mut b = Bench::new("testkit-selftest");
        let cheap = b
            .bench("cheap", || std::hint::black_box(1u64) + 1)
            .median_ns;
        // The bound and every term pass through `black_box`: without it the
        // compiler folds the sum of squares into closed form and the
        // "expensive" closure costs no more than the cheap one.
        let expensive = b
            .bench("expensive", || {
                (0..std::hint::black_box(5000u64))
                    .map(|i| std::hint::black_box(i.wrapping_mul(i)))
                    .sum::<u64>()
            })
            .median_ns;
        assert!(cheap >= 0.0 && expensive > cheap, "{cheap} vs {expensive}");
    }

    #[test]
    fn stats_are_internally_consistent() {
        fast_env();
        let mut b = Bench::new("testkit-selftest-stats");
        let r = b
            .bench("spin", || std::hint::black_box(17u32).wrapping_mul(3))
            .clone();
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.mad_ns >= 0.0);
        assert!(r.batches >= 3 && r.iters_per_batch >= 1);
    }

    #[test]
    fn throughput_labels_and_json_shape() {
        fast_env();
        let mut b = Bench::new("testkit-selftest-json");
        b.with_throughput(Throughput::Bytes(4096))
            .bench("copy", || [0u8; 64]);
        b.with_throughput(Throughput::Elements(16))
            .bench("count", || 16u32);
        b.bench("plain", || ());
        let json = b.to_json();
        assert!(json.contains("\"suite\": \"testkit-selftest-json\""));
        assert!(json.contains("{\"bytes\": 4096}"));
        assert!(json.contains("{\"elements\": 16}"));
        assert!(json.contains("\"throughput\": null"));
        assert!(b.results()[0].throughput_label().unwrap().ends_with("B/s"));
        assert!(b.results()[1]
            .throughput_label()
            .unwrap()
            .ends_with("elem/s"));
        assert!(b.results()[2].throughput_label().is_none());
        assert!(b.render().contains("copy"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
