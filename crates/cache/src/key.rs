//! Exact fingerprint keys.
//!
//! Within a family the cache names entries by an exact 64-bit key over the
//! fingerprint's feature bits. Two telemetry captures of the same tenant
//! produce identical feature vectors in this codebase (featurization is
//! deterministic), so bit-exact identity is the right one; nearby
//!-but-different fingerprints intentionally are different tenants and
//! fall back to the family incumbent. The key is computed once, when an
//! entry goes in: a lookup finds its entry by the folded feature bits
//! themselves (`folded_bits`), not by hashing them again.

/// FNV-1a over the little-endian bit patterns of the features.
///
/// Hand-rolled so the key is stable across platforms and Rust versions —
/// it is persisted in WAL journals and must never drift (`std`'s hashers
/// are explicitly unstable). `-0.0` is folded onto `0.0` so the two
/// representations of zero share a key; NaNs are accepted (any payload
/// hashes to *some* key) because fingerprints are validated upstream.
pub fn fingerprint_key(features: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &f in features {
        for b in folded_bits(f).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// The bits [`fingerprint_key`] hashes for one feature: `-0.0` folded onto
/// `0.0`, everything else as it is. Two fingerprints are the same tenant
/// when these agree feature for feature.
#[inline]
pub(crate) fn folded_bits(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_golden_value() {
        // Pinned: a change here means persisted journals stop resolving.
        assert_eq!(fingerprint_key(&[1.0, 2.0, 3.0]), 0xe2d5_ae79_fc4e_9a70);
    }

    #[test]
    fn distinguishes_close_vectors() {
        let a = fingerprint_key(&[1.0, 2.0]);
        let b = fingerprint_key(&[1.0, 2.0 + 1e-12]);
        assert_ne!(a, b);
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(fingerprint_key(&[1.0, 2.0]), fingerprint_key(&[2.0, 1.0]));
    }

    #[test]
    fn signed_zero_folds() {
        assert_eq!(fingerprint_key(&[0.0]), fingerprint_key(&[-0.0]));
    }

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(fingerprint_key(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
