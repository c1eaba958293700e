//! The simulator's trace buffer: lines written piece by piece, without
//! `core::fmt`.
//!
//! A trace line is `[<µs since T0>us] <message>`, exactly the bytes
//! `writeln!(trace, "[{us:>9}us] {}", format_args!(..))` would produce,
//! but assembled from literal `&str` pieces, integers through the
//! workspace's digit writer ([`janus_types::decimal`]) and `&'static str`
//! enum names. Formatting through `core::fmt` took about a third of a
//! simulated request (EXPERIMENTS.md, "A trace without core::fmt"). Every
//! piece is UTF-8 (string slices) or ASCII digits and spaces, so the
//! bytes are validated once, when the finished trace becomes a `String`.
//!
//! Every method is `#[inline]`: inlined into a `note!` site, a literal
//! piece is a copy of known length (a few stores, not a `memcpy` call)
//! and an integer goes digit pairs straight into the buffer.

use janus_types::decimal::{push_padded, push_u64};

/// Columns the timestamp is right-aligned in, as `{us:>9}`.
const STAMP_WIDTH: usize = 9;

/// One trace buffer. [`TraceBuf::line`] starts a line, [`TraceBuf::put`]
/// appends its pieces, [`TraceBuf::end_line`] ends it.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    bytes: Vec<u8>,
}

impl TraceBuf {
    /// An empty buffer with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        TraceBuf {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Start a line stamped `us` microseconds: `[{us:>9}us] `.
    #[inline]
    pub(crate) fn line(&mut self, us: u64) {
        self.bytes.push(b'[');
        push_padded(&mut self.bytes, us, STAMP_WIDTH, b' ');
        self.bytes.extend_from_slice(b"us] ");
    }

    /// Append one piece of the current line, as `{}` would print it.
    #[inline]
    pub(crate) fn put(&mut self, piece: impl Piece) {
        piece.put_into(&mut self.bytes);
    }

    /// End the current line.
    #[inline]
    pub(crate) fn end_line(&mut self) {
        self.bytes.push(b'\n');
    }

    /// True when nothing has been written.
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The finished trace. The only UTF-8 validation of the run.
    pub(crate) fn into_string(self) -> String {
        String::from_utf8(self.bytes).expect("trace pieces are UTF-8 by construction")
    }
}

/// A value a trace line can carry, written as its `Display` form.
pub(crate) trait Piece {
    /// Append the piece's bytes to `out`.
    fn put_into(self, out: &mut Vec<u8>);
}

impl Piece for &str {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Piece for &String {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Piece for u64 {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        push_u64(out, self);
    }
}

impl Piece for u32 {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        u64::from(self).put_into(out);
    }
}

impl Piece for u8 {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        u64::from(self).put_into(out);
    }
}

impl Piece for usize {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        (self as u64).put_into(out);
    }
}

/// `Duration::as_micros` values. Split at 10¹⁹ so the digit writer stays
/// on `u64`: the high part, when there is one, is followed by exactly
/// 19 low digits.
impl Piece for u128 {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        const SPLIT: u128 = 10_000_000_000_000_000_000;
        match u64::try_from(self) {
            Ok(v) => v.put_into(out),
            Err(_) => {
                push_u64(out, (self / SPLIT) as u64);
                push_padded(out, (self % SPLIT) as u64, 19, b'0');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(us: u64, pieces: impl FnOnce(&mut TraceBuf)) -> String {
        let mut buf = TraceBuf::default();
        buf.line(us);
        pieces(&mut buf);
        buf.end_line();
        buf.into_string()
    }

    #[test]
    fn stamps_match_the_padded_format() {
        for us in [
            0,
            7,
            99_999_999,
            999_999_999,
            1_000_000_000,
            12_345_678_901,
            u64::MAX,
        ] {
            assert_eq!(line(us, |_| {}), format!("[{us:>9}us] \n"), "us={us}");
        }
    }

    #[test]
    fn integer_pieces_match_display() {
        let values = [0, 1, 9, 10, 99, 100, 4_294_967_295, u64::MAX - 1, u64::MAX];
        for v in values {
            assert_eq!(line(3, |b| b.put(v)), format!("[{:>9}us] {v}\n", 3));
        }
        for v in [0, 1, 200, u32::MAX] {
            assert_eq!(line(0, |b| b.put(v)), format!("[{:>9}us] {v}\n", 0));
        }
        for v in [0usize, 42, usize::MAX] {
            assert_eq!(line(0, |b| b.put(v)), format!("[{:>9}us] {v}\n", 0));
        }
        for v in [0u8, 40, u8::MAX] {
            assert_eq!(line(0, |b| b.put(v)), format!("[{:>9}us] {v}\n", 0));
        }
    }

    #[test]
    fn micros_beyond_u64_match_display() {
        let split = 10_000_000_000_000_000_000u128;
        for v in [
            0,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            split,
            split + 7,
            split * 3 + 123,
            std::time::Duration::MAX.as_micros(),
        ] {
            assert_eq!(line(0, |b| b.put(v)), format!("[{:>9}us] {v}\n", 0));
        }
    }

    #[test]
    fn empty_and_mixed_pieces_match_format() {
        let name = String::from("tenant-3");
        let (suppressed, hint, lease) = ("", "", "");
        let got = line(1_500, |b| {
            b.put("p");
            b.put(2usize);
            b.put(" decide #");
            b.put(u32::MAX);
            b.put(" ");
            b.put("allow");
            b.put(suppressed);
            b.put(" key=");
            b.put(&name);
            b.put(hint);
            b.put(lease);
        });
        let want = format!(
            "[{:>9}us] {}\n",
            1_500,
            format_args!(
                "p{} decide #{} {}{suppressed} key={name}{hint}{lease}",
                2,
                u32::MAX,
                "allow"
            )
        );
        assert_eq!(got, want);
        assert_eq!(line(0, |b| b.put("")), "[        0us] \n");
    }

    #[test]
    fn lines_accumulate_in_order() {
        let mut buf = TraceBuf::with_capacity(4);
        assert!(buf.is_empty());
        for us in [1, 20, 300] {
            buf.line(us);
            buf.put("x=");
            buf.put(us);
            buf.end_line();
        }
        assert!(!buf.is_empty());
        assert_eq!(
            buf.into_string(),
            "[        1us] x=1\n[       20us] x=20\n[      300us] x=300\n"
        );
    }
}
