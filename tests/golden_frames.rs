//! Golden `.cpk` frame bytes, pinned per profile × integrity × workers.
//!
//! `golden_ratios.rs` pins compression ratios to four decimals, which a
//! codec change can keep while still moving bytes. This test pins the exact
//! `pack_frame` output at seed 42: its length and a 64-bit FNV-1a digest.
//! The digest is computed here, not with `codepack_mem::crc32`, so a bug in
//! the frame's own checksum cannot hide behind a matching golden.

use codepack::core::frame::{pack_frame, PackOptions};
use codepack::mem::StreamIntegrity;
use codepack::synth::{generate, BenchmarkProfile};

/// 64-bit FNV-1a: a digest with no code in common with the codec.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(profile, integrity, frame length, FNV-1a digest)` at seed 42 with the
/// default codec configuration, identical at every worker count.
const GOLDEN: [(&str, &str, usize, u64); 18] = [
    ("cc1", "none", 647751, 0xd581a6407cb0e56f),
    ("cc1", "parity", 725991, 0xd6ddc079bda5c53d),
    ("cc1", "crc32", 681047, 0x723fb42068325572),
    ("go", "none", 183669, 0x4c6b71aa70a82d29),
    ("go", "parity", 205704, 0x462dd305ee59a806),
    ("go", "crc32", 193261, 0x34d8d974793ce592),
    ("mpeg2enc", "none", 70176, 0xd2cdfffc475f0279),
    ("mpeg2enc", "parity", 78439, 0xe214a92e28ec74e4),
    ("mpeg2enc", "crc32", 73768, 0xd7f42fcf567b8827),
    ("pegwit", "none", 52797, 0x9d378dfecf861f02),
    ("pegwit", "parity", 58963, 0x8af3dbef060785da),
    ("pegwit", "crc32", 55525, 0x0bb2c5ce949ea43f),
    ("perl", "none", 158484, 0x82289cab2f1d30f0),
    ("perl", "parity", 177433, 0x630fc6104d35d4f9),
    ("perl", "crc32", 166684, 0x4b8f89ba995fab37),
    ("vortex", "none", 283910, 0xfff2686c0867391a),
    ("vortex", "parity", 318054, 0xa3f5f86f620886c7),
    ("vortex", "crc32", 298686, 0x69bc6107b3e730d9),
];

const INTEGRITY: [StreamIntegrity; 3] = [
    StreamIntegrity::None,
    StreamIntegrity::Parity,
    StreamIntegrity::Crc32,
];

#[test]
fn pack_frame_bytes_match_the_pinned_goldens() {
    let mut got = Vec::new();
    for profile in BenchmarkProfile::suite() {
        let text = generate(&profile, 42).text_words().to_vec();
        for integrity in INTEGRITY {
            let mut digests = Vec::new();
            for workers in [1usize, 4] {
                let frame = pack_frame(
                    &text,
                    &PackOptions {
                        integrity,
                        workers,
                        ..PackOptions::default()
                    },
                );
                digests.push((frame.len(), fnv1a64(&frame)));
            }
            assert_eq!(
                digests[0],
                digests[1],
                "{}/{}: 1-worker and 4-worker frames differ",
                profile.name,
                integrity.as_str()
            );
            got.push((profile.name, integrity.as_str(), digests[0].0, digests[0].1));
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table covers the suite");
    for (g, want) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, want, "frame bytes drifted from the golden");
    }
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
}
