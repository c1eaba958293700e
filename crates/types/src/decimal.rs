//! Decimal digits appended to a byte buffer, without `core::fmt`.
//!
//! The one integer writer behind the text the workspace writes per event
//! or per row: the deterministic simulator's trace lines and the rule rows
//! of the HA `SNAPSHOT` exchange and the database wire protocol
//! ([`QosRule::write_row`](crate::QosRule::write_row)). Each function
//! appends exactly the bytes the matching `format!` would produce; the
//! unit tests pin that. Digits go two at a time from a 200-byte table,
//! straight into the buffer, so a number costs no `memcpy` call and no
//! formatter walk.

/// The most decimal digits a `u64` has (`u64::MAX` is 20 digits).
const MAX_U64_DIGITS: usize = 20;

/// The ASCII digit pair of every value below 100: `PAIRS[2n..2n + 2]`.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
};

/// Append `v` as `{v}` prints it.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    if v < 10 {
        // Partition numbers, attempts, epochs: one byte, no table.
        out.push(b'0' + v as u8);
    } else {
        push_padded(out, v, 0, b' ');
    }
}

/// Append `v` right-aligned in at least `width` columns filled with
/// `fill`: `{v:>width$}` for a space, `{v:0width$}` for a zero.
#[inline]
pub fn push_padded(out: &mut Vec<u8>, v: u64, width: usize, fill: u8) {
    let len = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    let total = len.max(width);
    let start = out.len();
    if total <= MAX_U64_DIGITS {
        // A fixed-size extend is a few stores; the cut takes it back to
        // the `total` bytes the number needs.
        out.extend_from_slice(&[fill; MAX_U64_DIGITS]);
        out.truncate(start + total);
    } else {
        out.resize(start + total, fill);
    }
    write_digits(&mut out[start + total - len..], v);
}

/// Append a microcredit count as decimal credits with trailing
/// fractional zeros trimmed, as
/// [`format_micro_decimal`](crate::format_micro_decimal) returns it:
/// `1500000` → `1.5`, `2000000` → `2`, `1` → `0.000001`.
#[inline]
pub fn push_micro_decimal(out: &mut Vec<u8>, micro: u64) {
    push_u64(out, micro / 1_000_000);
    let mut frac = micro % 1_000_000;
    if frac != 0 {
        let mut width = 6;
        while frac % 10 == 0 {
            frac /= 10;
            width -= 1;
        }
        out.push(b'.');
        push_padded(out, frac, width, b'0');
    }
}

/// Write the digits of `v` into `digits`, whose length is exactly the
/// number of digits `v` has, last digit first.
#[inline]
fn write_digits(digits: &mut [u8], mut v: u64) {
    let mut end = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        digits[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        digits[end - 2..end].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        digits[end - 1] = b'0' + v as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::{TestRng, CASES};

    fn text(f: impl FnOnce(&mut Vec<u8>)) -> String {
        // A prefix, so a writer that overwrote what came before it fails.
        let mut out = b"<".to_vec();
        f(&mut out);
        String::from_utf8(out).unwrap()
    }

    /// Every digit count, both sides of each power of ten, and seeded
    /// values of every magnitude.
    fn samples() -> Vec<u64> {
        let mut values = vec![0, u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            values.extend([p - 1, p, p + 1, next - 1]);
            p = next;
        }
        values.extend([p - 1, p, p + 1]);
        let mut rng = TestRng::new(0xdec1);
        for _ in 0..CASES {
            let shift = rng.below(64) as u32;
            values.push(rng.next_u64() >> shift);
        }
        values
    }

    #[test]
    fn integers_match_display() {
        for v in samples() {
            assert_eq!(text(|o| push_u64(o, v)), format!("<{v}"), "v={v}");
        }
    }

    #[test]
    fn padded_integers_match_the_width_formats() {
        for v in samples() {
            for width in [0, 1, 2, 6, 9, 19, 20, 21, 25] {
                assert_eq!(
                    text(|o| push_padded(o, v, width, b' ')),
                    format!("<{v:>width$}"),
                    "v={v} width={width}"
                );
                assert_eq!(
                    text(|o| push_padded(o, v, width, b'0')),
                    format!("<{v:0width$}"),
                    "v={v} width={width}"
                );
            }
        }
    }

    /// The `format!` form `format_micro_decimal` had before it moved onto
    /// this writer.
    fn micro_decimal_via_format(micro: u64) -> String {
        let (int, frac) = (micro / 1_000_000, micro % 1_000_000);
        if frac == 0 {
            int.to_string()
        } else {
            let mut s = format!("{int}.{frac:06}");
            while s.ends_with('0') {
                s.pop();
            }
            s
        }
    }

    #[test]
    fn micro_decimals_match_the_format_path() {
        let fixed = [
            0,
            1,
            10,
            999_999,
            1_000_000,
            1_500_000,
            2_000_000,
            1_000_001,
            1_234_567_000,
            u64::MAX,
        ];
        for micro in fixed.into_iter().chain(samples()) {
            assert_eq!(
                text(|o| push_micro_decimal(o, micro)),
                format!("<{}", micro_decimal_via_format(micro)),
                "micro={micro}"
            );
        }
        assert_eq!(text(|o| push_micro_decimal(o, 1)), "<0.000001");
        assert_eq!(text(|o| push_micro_decimal(o, 1_500_000)), "<1.5");
        assert_eq!(
            text(|o| push_micro_decimal(o, u64::MAX)),
            "<18446744073709.551615"
        );
    }
}
