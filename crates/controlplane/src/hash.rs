//! The crate's two hashes, neither of which depends on the toolchain's
//! unspecified `DefaultHasher`. FNV-1a/64 is the one byte hash:
//! canonical digests, journal frame checksums, flight cohort salts and
//! the anonymized tenant identifier all fold bytes through it. The
//! splitmix64 finalizer is the one word mixer: the per-index streams
//! (auto fraction, flight cohorts, shard slots) and retry jitter draw
//! from it.

/// FNV-1a offset basis — seed value for [`fnv1a64_extend`].
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Extend an FNV-1a digest with more bytes. Streaming form so the
/// sharded region driver can digest a million canonical tenant lines
/// without ever holding the concatenated string.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The splitmix64 finalizer: a bijective mix of one 64-bit word.
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
