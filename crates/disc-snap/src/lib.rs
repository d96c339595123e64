//! `disc-snap` — the versioned binary snapshot codec for DISC machine
//! state.
//!
//! The format (`disc-snap/v2`) is hand-rolled like the JSON layer in
//! `disc-obs`: little-endian fixed-width integers, `u64` length-prefixed
//! byte strings, and explicit one-byte `Option` tags. There is no derive
//! machinery and no external dependency — every producer writes its fields
//! in a documented order and every consumer reads them back in the same
//! order, validating as it goes.
//!
//! A snapshot starts with a fingerprinted header ([`write_header`] /
//! [`read_header`]): magic, format string, a configuration fingerprint and
//! a program hash. Restore refuses blobs whose fingerprints do not match
//! the receiving machine, so state can never be applied across an
//! incompatible configuration. Timing-invisible fields (the step mode)
//! are excluded from the fingerprint by the producer, which is what
//! allows forking one warm snapshot into either step mode.
//!
//! The crate also defines [`ReplayableRng`], the one accessor behind which
//! every seeded random source in the workspace (the `disc-stoch` sampler,
//! the `disc-faults` cursor) exposes its state for checkpointing.

use std::fmt;

/// Format identifier embedded in every snapshot. Bump this whenever the
/// byte layout of any serialized component changes — the golden-blob
/// format-stability test enforces it.
pub const FORMAT: &str = "disc-snap/v2";

/// Eight-byte magic prefix of every snapshot blob.
pub const MAGIC: [u8; 8] = *b"DISCSNAP";

/// Decoding / compatibility error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The blob ended before the expected field.
    Truncated,
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's format string is not [`FORMAT`].
    BadVersion(String),
    /// The blob was produced under an incompatible machine configuration.
    FingerprintMismatch {
        /// Fingerprint of the restoring machine.
        expected: u64,
        /// Fingerprint recorded in the blob.
        found: u64,
    },
    /// The blob was produced from a different program image.
    ProgramMismatch {
        /// Program hash of the restoring machine.
        expected: u64,
        /// Program hash recorded in the blob.
        found: u64,
    },
    /// A field failed structural validation.
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a disc-snap blob (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "unsupported snapshot format {v:?} (expected {FORMAT:?})")
            }
            SnapError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: machine {expected:016x}, snapshot {found:016x}"
            ),
            SnapError::ProgramMismatch { expected, found } => write!(
                f,
                "program hash mismatch: machine {expected:016x}, snapshot {found:016x}"
            ),
            SnapError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Sequential binary writer. All integers are little-endian.
#[derive(Debug, Default, Clone)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` (two's-complement `u64`).
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes an `Option<u16>` (tag byte + payload).
    pub fn put_opt_u16(&mut self, v: Option<u16>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u16(x);
            }
        }
    }

    /// Writes an `Option<u64>` (tag byte + payload).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
        }
    }
}

/// Sequential binary reader over an encoded blob.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` when the whole blob has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bad bool byte {b:#04x}"))),
        }
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed string and checks it against `expected` —
    /// the component name-tag convention used by every bus / peripheral
    /// blob so that state can never be applied to the wrong device kind.
    pub fn expect_str(&mut self, expected: &str) -> Result<(), SnapError> {
        let got = self.get_str()?;
        if got != expected {
            return Err(SnapError::Corrupt(format!(
                "component tag mismatch: expected {expected:?}, found {got:?}"
            )));
        }
        Ok(())
    }

    /// Reads an `Option<u16>`.
    pub fn get_opt_u16(&mut self) -> Result<Option<u16>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u16()?)),
            b => Err(SnapError::Corrupt(format!("bad option tag {b:#04x}"))),
        }
    }

    /// Reads an `Option<u64>`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            b => Err(SnapError::Corrupt(format!("bad option tag {b:#04x}"))),
        }
    }

    /// Errors unless the blob is fully consumed — applied at the end of a
    /// restore so trailing garbage is rejected rather than ignored.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes after snapshot body",
                self.remaining()
            )))
        }
    }
}

/// Parsed snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapHeader {
    /// Fingerprint of the producing machine's configuration (timing-
    /// invisible knobs excluded).
    pub config_fingerprint: u64,
    /// Hash of the producing machine's program image.
    pub program_hash: u64,
}

/// Writes the `disc-snap/v2` header: magic, format string, config
/// fingerprint, program hash.
pub fn write_header(w: &mut SnapWriter, config_fingerprint: u64, program_hash: u64) {
    w.buf.extend_from_slice(&MAGIC);
    w.put_str(FORMAT);
    w.put_u64(config_fingerprint);
    w.put_u64(program_hash);
}

/// Reads and validates the header, returning the recorded fingerprints.
/// Compatibility with the restoring machine is the caller's check — the
/// header only proves the blob is a well-formed `disc-snap/v2` snapshot.
pub fn read_header(r: &mut SnapReader<'_>) -> Result<SnapHeader, SnapError> {
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_str()?;
    if version != FORMAT {
        return Err(SnapError::BadVersion(version.to_string()));
    }
    Ok(SnapHeader {
        config_fingerprint: r.get_u64()?,
        program_hash: r.get_u64()?,
    })
}

/// The splitmix64 mixing function — the workspace-standard hash used for
/// config fingerprints and byte checksums (same constants as the
/// `disc-faults` decision hash and the `disc-obs` fingerprint).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Checksum of a byte string (the session server's snapshot acks and
/// report fingerprints): a splitmix64 fold over length and contents.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = splitmix64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    h
}

/// The single accessor behind which every seeded random source exposes
/// its state for checkpointing.
///
/// Implementors: the `disc-stoch` `Sampler` (xoshiro256++ core state)
/// and the `disc-faults` injector (whose "RNG" is a stateless
/// splitmix64 decision hash — its only replayable state is the cycle
/// cursor). A snapshot producer calls [`rng_state`](Self::rng_state) and
/// embeds the opaque blob; restore hands it back verbatim.
pub trait ReplayableRng {
    /// Serializes the generator state as an opaque byte blob.
    fn rng_state(&self) -> Vec<u8>;

    /// Restores the generator from a blob produced by
    /// [`rng_state`](Self::rng_state).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the blob is malformed or belongs to a
    /// different generator kind.
    fn set_rng_state(&mut self, state: &[u8]) -> Result<(), SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xab);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_i64(-42);
        w.put_usize(usize::MAX);
        w.put_bytes(b"raw");
        w.put_str("text");
        w.put_opt_u16(None);
        w.put_opt_u16(Some(7));
        w.put_opt_u64(Some(u64::MAX));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xbeef);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), usize::MAX);
        assert_eq!(r.get_bytes().unwrap(), b"raw");
        assert_eq!(r.get_str().unwrap(), "text");
        assert_eq!(r.get_opt_u16().unwrap(), None);
        assert_eq!(r.get_opt_u16().unwrap(), Some(7));
        assert_eq!(r.get_opt_u64().unwrap(), Some(u64::MAX));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
        // A length prefix pointing past the end is truncation, not a panic.
        let mut w = SnapWriter::new();
        w.put_u64(1000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let bytes = [2u8];
        assert!(matches!(
            SnapReader::new(&bytes).get_bool(),
            Err(SnapError::Corrupt(_))
        ));
        assert!(matches!(
            SnapReader::new(&bytes).get_opt_u16(),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 0x1111, 0x2222);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let h = read_header(&mut r).unwrap();
        assert_eq!(h.config_fingerprint, 0x1111);
        assert_eq!(h.program_hash, 0x2222);
        assert_eq!(r.get_u8().unwrap(), 9);

        assert_eq!(
            read_header(&mut SnapReader::new(b"NOTSNAPX rest")),
            Err(SnapError::BadMagic)
        );
        let mut w = SnapWriter::new();
        w.put_bytes(&MAGIC); // wrong: length prefix where version belongs
        let bytes = w.into_bytes();
        assert!(read_header(&mut SnapReader::new(&bytes)).is_err());

        // Blobs of every earlier format are refused, not misread.
        for old in ["disc-snap/v0", "disc-snap/v1"] {
            let mut body = SnapWriter::new();
            body.put_str(old);
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&body.into_bytes());
            assert_eq!(
                read_header(&mut SnapReader::new(&bytes)),
                Err(SnapError::BadVersion(old.into()))
            );
        }
    }

    #[test]
    fn expect_str_flags_wrong_component() {
        let mut w = SnapWriter::new();
        w.put_str("timer");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.expect_str("watchdog"),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of the canonical splitmix64 stream seeded with 0.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }
}
