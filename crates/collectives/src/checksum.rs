//! The stack's one integrity primitive: FNV-1a-64, and the trailer
//! rule every checksummed byte format follows.
//!
//! Every layer that detects corruption hashes through this module: the
//! runtime's chunk and model checksums, the wire frame trailer, the
//! collective schedule cache's topology fingerprint, and the director's
//! journal and checkpoint store. FNV-1a is cheap, deterministic across
//! platforms, and changes its output on any single-bit flip of its
//! input, which is all a deterministic simulator needs from a checksum;
//! it is not a defence against a deliberate forger.
//!
//! Words are hashed as their little-endian bytes, so hashing a `u64`
//! through [`Fnv1a::word`] equals [`fnv1a`] over `word.to_le_bytes()`.
//!
//! A *sealed* buffer is a body followed by the little-endian `u64`
//! [`fnv1a`] of that body ([`seal`]); [`open`] checks the trailer and
//! hands back the body.

/// FNV-1a-64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes of the checksum trailer [`seal`] appends.
pub const TRAILER_BYTES: usize = 8;

/// FNV-1a-64 over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

/// A streaming FNV-1a-64 hasher over bytes and little-endian words.
///
/// ```
/// use cosmic_collectives::checksum::{fnv1a, Fnv1a};
///
/// let streamed = Fnv1a::new().word(7).f64s(&[1.5]).finish();
/// let mut flat = 7u64.to_le_bytes().to_vec();
/// flat.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
/// assert_eq!(streamed, fnv1a(&flat));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher holding the offset basis (the hash of no bytes).
    #[inline]
    pub fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds one word as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.bytes(&word.to_le_bytes())
    }

    /// Feeds each value's bit pattern as one little-endian word.
    #[inline]
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        for v in values {
            self.word(v.to_bits());
        }
        self
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Appends the [`fnv1a`] of `buf`'s current contents as a
/// little-endian `u64` trailer.
pub fn seal(buf: &mut Vec<u8>) {
    let sum = fnv1a(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// A sealed buffer whose trailer does not match its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The checksum of the body as received.
    pub expected: u64,
    /// The checksum the trailer carried.
    pub found: u64,
}

/// Checks a [`seal`]ed buffer and returns its body (everything before
/// the trailer). A buffer too short to hold a trailer has none: it is
/// reported as the whole buffer's checksum against a trailer of 0.
pub fn open(sealed: &[u8]) -> Result<&[u8], Mismatch> {
    let Some((body, trailer)) = sealed.split_last_chunk::<TRAILER_BYTES>() else {
        return Err(Mismatch { expected: fnv1a(sealed), found: 0 });
    };
    let expected = fnv1a(body);
    let found = u64::from_le_bytes(*trailer);
    if expected == found {
        Ok(body)
    } else {
        Err(Mismatch { expected, found })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let words = [0.0, -1.25, f64::MAX, f64::from_bits(1)];
        let mut flat = 42u64.to_le_bytes().to_vec();
        for w in words {
            flat.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        flat.extend_from_slice(b"tail");
        let streamed = Fnv1a::new().word(42).f64s(&words).bytes(b"tail").finish();
        assert_eq!(streamed, fnv1a(&flat));
    }

    #[test]
    fn seal_then_open_round_trips_and_any_flip_fails() {
        let mut buf = b"body bytes".to_vec();
        seal(&mut buf);
        assert_eq!(buf.len(), 10 + TRAILER_BYTES);
        assert_eq!(open(&buf), Ok(&b"body bytes"[..]));
        for bit in 0..8 * buf.len() {
            let mut bent = buf.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            assert!(open(&bent).is_err(), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn a_buffer_without_room_for_a_trailer_does_not_open() {
        assert_eq!(open(b"short"), Err(Mismatch { expected: fnv1a(b"short"), found: 0 }));
        let mut empty = Vec::new();
        seal(&mut empty);
        assert_eq!(open(&empty), Ok(&[][..]));
    }
}
