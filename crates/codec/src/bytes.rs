//! Little-endian byte-level reader/writer with typed failure reporting.
//!
//! Hand-rolled on purpose (the workspace dependency policy excludes
//! serde): every primitive has exactly one wire form, the reader tracks
//! its offset, and every failure is a typed
//! [`SnsError::Codec`] — truncation and corruption surface as data, not
//! panics.

use sns_error::{CodecFault, SnsError};

/// FNV-1a 64-bit checksum (the trailing integrity word of the snapshot
/// envelope). Not cryptographic — it guards against truncation, bit rot,
/// and partial writes, which is what a checkpoint store needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One pass over a checksummed file: the FNV-1a of its body (every byte
/// before the 8-byte trailer, which is what a snapshot envelope embeds)
/// and of the whole file (what a checkpoint manifest records).
pub(crate) fn fnv1a_split(bytes: &[u8]) -> (u64, u64) {
    let split = bytes.len().saturating_sub(8);
    let body = fnv1a(&bytes[..split]);
    (body, fnv1a_extend(body, &bytes[split..]))
}

/// Append-only little-endian writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Immutable view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (exact, including NaN payloads).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends `Some`/`None` as a tag byte plus payload.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Overwrites 8 bytes at `at` with a little-endian `u64` (length
    /// back-patching for sections).
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Typed codec error at the current offset.
    pub fn err(&self, fault: CodecFault, detail: impl Into<String>) -> SnsError {
        SnsError::Codec { fault, offset: self.pos, detail: detail.into() }
    }

    /// Typed [`CodecFault::Invalid`] error at the current offset.
    pub fn invalid(&self, detail: impl Into<String>) -> SnsError {
        self.err(CodecFault::Invalid, detail)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnsError> {
        if self.remaining() < n {
            return Err(self.err(
                CodecFault::Truncated,
                format!("{what}: need {n} bytes, {} left", self.remaining()),
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnsError> {
        self.take(n, what)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, SnsError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, SnsError> {
        let arr: [u8; 2] = self
            .take(2, what)?
            .try_into()
            .map_err(|_| self.invalid(format!("{what}: short u16 read")))?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, SnsError> {
        let arr: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| self.invalid(format!("{what}: short u32 read")))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SnsError> {
        let arr: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| self.invalid(format!("{what}: short u64 read")))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `u64` and converts to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, SnsError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| self.invalid(format!("{what}: {v} exceeds usize")))
    }

    /// Reads a length prefix, sanity-bounded so corrupted lengths fail
    /// fast instead of attempting absurd allocations. `unit` is the
    /// minimum encoded size of one element.
    pub fn len(&mut self, unit: usize, what: &str) -> Result<usize, SnsError> {
        let n = self.usize(what)?;
        if n.saturating_mul(unit.max(1)) > self.remaining() {
            return Err(self.err(
                CodecFault::Truncated,
                format!("{what}: {n} elements cannot fit in {} bytes", self.remaining()),
            ));
        }
        Ok(n)
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, SnsError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a bool byte (0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool, SnsError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.invalid(format!("{what}: bool byte {b}"))),
        }
    }

    /// Reads an optional `u64` (tag byte + payload).
    pub fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, SnsError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            b => Err(self.invalid(format!("{what}: option tag {b}"))),
        }
    }

    /// Fails unless the reader consumed every byte.
    pub fn expect_end(&self, what: &str) -> Result<(), SnsError> {
        if self.remaining() != 0 {
            return Err(self.invalid(format!("{what}: {} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.bool(true);
        w.opt_u64(None);
        w.opt_u64(Some(42));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("e").unwrap(), -0.125);
        assert!(r.bool("f").unwrap());
        assert_eq!(r.opt_u64("g").unwrap(), None);
        assert_eq!(r.opt_u64("h").unwrap(), Some(42));
        r.expect_end("tail").unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        match r.u64("x") {
            Err(SnsError::Codec { fault: CodecFault::Truncated, .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.len(8, "vec").is_err());
    }

    proptest::proptest! {
        #[test]
        fn continuing_the_prefix_hash_over_the_trailer_is_the_whole_hash(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            cut in 0usize..64,
        ) {
            let cut = cut.min(bytes.len());
            proptest::prop_assert_eq!(
                fnv1a_extend(fnv1a(&bytes[..cut]), &bytes[cut..]),
                fnv1a(&bytes)
            );
            let split = bytes.len().saturating_sub(8);
            let (body, whole) = fnv1a_split(&bytes);
            proptest::prop_assert_eq!(body, fnv1a(&bytes[..split]));
            proptest::prop_assert_eq!(fnv1a_extend(body, &bytes[split..]), fnv1a(&bytes));
            proptest::prop_assert_eq!(whole, fnv1a(&bytes));
        }
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let a = fnv1a(b"slicenstitch");
        assert_eq!(a, fnv1a(b"slicenstitch"));
        assert_ne!(a, fnv1a(b"slicenstitcH"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
