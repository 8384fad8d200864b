//! The one little-endian codec behind every byte format the workspace
//! reads from outside its own process.
//!
//! Four formats cross a disk or process boundary: `HANCKPT1` checkpoints
//! (`checkpoint`), `HANSRV01` service snapshots (`online::driver`),
//! `HANFAGG1` feeder records (`city::tree`) and the `HANCITY1` worker
//! stream that frames them (`city::mp`). All four write through [`Enc`]
//! and read through [`Dec`], so bytes become numbers in one place and
//! every bound is checked the same way:
//!
//! - every read is length-checked and fails with a typed [`WireError`]
//!   carrying its byte offset — a short input never panics;
//! - [`Dec::magic`] tells a truncated magic from a foreign one;
//! - [`Dec::len`] checks a sequence count against the bytes left
//!   *before* anything is allocated for it, so a corrupted count fails
//!   typed instead of driving a huge reservation.
//!
//! Each format maps [`WireError`] into its own public error type
//! (`CheckpointError`, `MpWireError`); this module stays crate-private.

use han_sim::time::{SimDuration, SimTime};

/// Why a [`Dec`] read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireError {
    /// The input ended (or a count claimed more than the input holds)
    /// at byte `offset`: `needed` bytes were required, `have` were left.
    Truncated {
        offset: usize,
        needed: usize,
        have: usize,
    },
    /// The input does not start with the expected magic.
    BadMagic,
    /// A tag or flag byte held an undefined value, or a stored size does
    /// not fit this platform's `usize`.
    BadValue { offset: usize },
}

/// Little-endian writer appending to a caller-owned buffer.
pub(crate) struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// A writer appending to `buf`.
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern, so encode → decode is the identity even for
    /// NaN payloads.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A size or counter stored as `u64` (not a sequence count).
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A `u64` sequence count — the prefix [`Dec::len`] reads back.
    pub(crate) fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    pub(crate) fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    pub(crate) fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }

    /// A `u64`-length-prefixed byte string.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.len(bytes.len());
        self.raw(bytes);
    }

    /// A one-byte tag (0 = `None`, 1 = `Some`), then the value.
    pub(crate) fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                some(self, v);
            }
        }
    }

    /// A `u64` count, then every item.
    pub(crate) fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.len(items.len());
        for x in items {
            item(self, x);
        }
    }

    /// A `u32` length prefix, then whatever `body` writes — one frame of
    /// a length-framed stream.
    pub(crate) fn frame(&mut self, body: impl FnOnce(&mut Enc<'_>)) {
        let start = self.buf.len();
        self.u32(0);
        body(&mut Enc::new(self.buf));
        let len = u32::try_from(self.buf.len() - start - 4).expect("frame fits a u32 prefix");
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Little-endian reader over a byte slice; every read is bounds-checked.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn truncated(&self, needed: usize) -> WireError {
        WireError::Truncated {
            offset: self.pos,
            needed,
            have: self.remaining(),
        }
    }

    /// Consumes the next `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consumes `magic`. A short input that agrees with the magic so far
    /// is [`WireError::Truncated`]; any disagreeing byte is
    /// [`WireError::BadMagic`].
    pub(crate) fn magic(&mut self, magic: &[u8; 8]) -> Result<(), WireError> {
        let have = &self.bytes[self.pos..];
        let seen = have.len().min(magic.len());
        if have[..seen] != magic[..seen] {
            return Err(WireError::BadMagic);
        }
        self.take(magic.len()).map(|_| ())
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue { offset }),
        }
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A size or counter written by [`Enc::usize`].
    pub(crate) fn usize(&mut self) -> Result<usize, WireError> {
        let offset = self.pos;
        usize::try_from(self.u64()?).map_err(|_| WireError::BadValue { offset })
    }

    /// A `u64` sequence count of elements that take at least `min_size`
    /// bytes each, clamped to the input: a count the remaining bytes
    /// cannot hold is [`WireError::Truncated`] here, before the caller
    /// allocates anything for it.
    pub(crate) fn len(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        self.fits(n, min_size)
    }

    /// The `u32`-count twin of [`Dec::len`].
    pub(crate) fn len_u32(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.fits(u64::from(n), min_size)
    }

    fn fits(&self, n: u64, min_size: usize) -> Result<usize, WireError> {
        let needed = n.saturating_mul(min_size.max(1) as u64);
        if needed > self.remaining() as u64 {
            return Err(self.truncated(usize::try_from(needed).unwrap_or(usize::MAX)));
        }
        // n ≤ remaining, so it fits a usize.
        usize::try_from(n).map_err(|_| WireError::BadValue { offset: self.pos })
    }

    pub(crate) fn time(&mut self) -> Result<SimTime, WireError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    pub(crate) fn duration(&mut self) -> Result<SimDuration, WireError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }

    /// A byte string written by [`Enc::bytes`].
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// An option written by [`Enc::opt`].
    pub(crate) fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.bool()? {
            some(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A list written by [`Enc::list`] whose items take at least
    /// `min_size` bytes each.
    pub(crate) fn list<T>(
        &mut self,
        min_size: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.len(min_size)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_tells_truncated_from_foreign() {
        assert_eq!(
            Dec::new(b"HANC").magic(b"HANCKPT1"),
            Err(WireError::Truncated {
                offset: 0,
                needed: 8,
                have: 4
            })
        );
        assert_eq!(
            Dec::new(b"HANX").magic(b"HANCKPT1"),
            Err(WireError::BadMagic)
        );
        let mut d = Dec::new(b"HANCKPT1!");
        assert_eq!(d.magic(b"HANCKPT1"), Ok(()));
        assert_eq!(d.pos(), 8);
    }

    #[test]
    fn counts_are_clamped_to_the_input() {
        // 2^40 eight-byte items claimed by a 12-byte input fail at the
        // count, before any allocation.
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.len(1 << 40);
        e.u32(0);
        assert!(matches!(
            Dec::new(&buf).list(8, Dec::u64),
            Err(WireError::Truncated { offset: 8, .. })
        ));
        let mut buf = Vec::new();
        Enc::new(&mut buf).u32(u32::MAX);
        assert!(matches!(
            Dec::new(&buf).len_u32(1),
            Err(WireError::Truncated { .. })
        ));
    }
}
