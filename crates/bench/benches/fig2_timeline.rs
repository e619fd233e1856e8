//! Paper Figure 2: the L1-miss service timeline, reproduced as text.
//!
//! Rebuilds the paper's worked example — compressed instructions arriving
//! 2,3,3,3,3,2 per 64-bit beat — and prints when each instruction becomes
//! available under (a) native critical-word-first, (b) baseline CodePack,
//! and (c) the optimized decompressor. The paper's headline points on this
//! figure: native critical word at t=10; baseline CodePack critical
//! instruction (5th of the block) at t=25; optimized at t=14.

use std::sync::Arc;

use codepack_core::{
    beat_of_bits, CodePackFetch, CodePackImage, CompressionConfig, DecompressorConfig, FetchEngine,
    NativeFetch,
};
use codepack_mem::MemoryTiming;

/// Same construction as `codepack-core`'s Figure-2 regression test: unique
/// high half-words (raw, 19 bits), zero lows (2 bits) except instructions 0
/// and 5 of each block (5-bit dictionary codeword), giving the paper's
/// 2,3,3,3,3,2 beat profile.
fn figure2_image() -> Arc<CodePackImage> {
    let mut text = Vec::new();
    for b in 0..2u32 {
        for j in 0..16u32 {
            let high = 0x8000 + (b * 16 + j) * 257;
            let low = if j == 0 || j == 5 { 0xaa } else { 0 };
            text.push((high << 16) | low);
        }
    }
    Arc::new(CodePackImage::compress(
        &text,
        &CompressionConfig::default(),
    ))
}

fn main() {
    let image = figure2_image();
    let timing = MemoryTiming::default();
    let info = image.block_info(0);

    println!("=== Figure 2: example of L1 miss activity (64-bit bus, 10-cycle latency, 2-cycle rate) ===");
    println!();
    println!(
        "Compressed block 0: {} bytes; instructions per 64-bit beat:",
        info.byte_len
    );
    let mut per_beat = [0u32; 8];
    for &bits in &info.cum_bits[1..] {
        per_beat[beat_of_bits(&timing, bits) as usize] += 1;
    }
    let beats: Vec<String> = per_beat
        .iter()
        .filter(|&&c| c > 0)
        .map(|c| c.to_string())
        .collect();
    println!("  {}   (paper: 2,3,3,3,3,2)", beats.join(","));
    println!();

    // (a) native
    let mut native = NativeFetch::new(timing);
    let svc = native.service_miss(4 * 4, 32);
    println!("(a) Native, miss on 5th instruction of the line:");
    println!(
        "    critical word ready t={} (critical-word-first), line fill done t={}",
        svc.critical_ready, svc.line_fill_complete
    );
    println!();

    // (b) baseline CodePack: cold index.
    let mut base = CodePackFetch::new(
        Arc::clone(&image),
        timing,
        DecompressorConfig {
            request_overhead: 0,
            ..DecompressorConfig::baseline()
        },
        0,
    );
    let svc = base.service_miss(4 * 4, 32);
    println!("(b) CodePack baseline, miss on 5th instruction of block 0:");
    println!(
        "    index fetch from main memory: t=0..{}",
        timing.burst_read_cycles(4)
    );
    println!("    codes burst + 1 insn/cycle decode overlap");
    println!(
        "    critical instruction ready t={}  (paper: t=25)",
        svc.critical_ready
    );
    println!();

    // (c) optimized: warm index cache, 2 decoders.
    let mut opt = CodePackFetch::new(
        image,
        timing,
        DecompressorConfig {
            request_overhead: 0,
            ..DecompressorConfig::optimized()
        },
        0,
    );
    opt.service_miss(0, 32); // warm the index cache with the same group
    let svc = opt.service_miss((16 + 4) * 4, 32);
    println!("(c) CodePack optimized (index cache hit, 2 decompressors/cycle):");
    println!("    index ready t=0 (probed in parallel with L1)");
    println!(
        "    critical instruction ready t={}  (paper: t=14)",
        svc.critical_ready
    );
}
