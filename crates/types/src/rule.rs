//! The QoS rule: one row of the `qos_rules` table.

use crate::{Credits, JanusError, QosKey, RefillRate, Result};

/// A QoS rule, as purchased by an end user and stored in the database.
///
/// Mirrors the paper's four-column `qos_rules` schema: the QoS key, the
/// refill rate (the purchased access rate), the capacity of the leaky
/// bucket (the burst allowance) and the remaining credit (written back by
/// QoS-server check-pointing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosRule {
    /// Primary key of the rule.
    pub key: QosKey,
    /// Bucket capacity: the maximum credit the user can accumulate.
    pub capacity: Credits,
    /// Refill rate: the sustained access rate the user purchased.
    pub refill_rate: RefillRate,
    /// Last check-pointed credit. A freshly created rule starts full
    /// (`credit == capacity`), matching the paper's "initially fully
    /// filled" assumption.
    pub credit: Credits,
}

impl QosRule {
    /// A new rule with a full bucket.
    pub fn new(key: QosKey, capacity: Credits, refill_rate: RefillRate) -> Self {
        QosRule {
            key,
            capacity,
            refill_rate,
            credit: capacity,
        }
    }

    /// Convenience constructor in whole requests: `capacity` requests of
    /// burst, refilling at `rate_per_sec` requests per second.
    pub fn per_second(key: QosKey, capacity: u64, rate_per_sec: u64) -> Self {
        QosRule::new(
            key,
            Credits::from_whole(capacity),
            RefillRate::per_second(rate_per_sec),
        )
    }

    /// The deny-all rule for a key: zero capacity, zero refill.
    pub fn deny(key: QosKey) -> Self {
        QosRule::new(key, Credits::ZERO, RefillRate::ZERO)
    }

    /// True if this rule can never admit a request.
    pub fn denies_everything(&self) -> bool {
        !self.capacity.covers_one_request() && self.refill_rate == RefillRate::ZERO
    }

    /// Clamp the stored credit to the capacity (rule updates may shrink a
    /// bucket below its check-pointed credit).
    pub fn clamped(mut self) -> Self {
        self.credit = self.credit.min(self.capacity);
        self
    }

    /// Approximate size of this rule when stored, in bytes. The paper
    /// quotes ~100 bytes per rule; this tracks that budget in tests.
    pub fn approx_stored_size(&self) -> usize {
        self.key.len() + 3 * std::mem::size_of::<u64>()
    }

    /// Render this rule as one tab-separated text row:
    /// `key \t refill_rate \t capacity \t credit`, numbers in decimal
    /// credits with up to six fractional digits.
    ///
    /// This is the row format of both the database wire protocol and the
    /// HA `SNAPSHOT` exchange; it lives here (rather than in `janus-db`)
    /// so the std-only snapshot core and the deterministic simulator
    /// speak exactly the production encoding.
    pub fn to_row(&self) -> String {
        let mut row = Vec::new();
        self.write_row(&mut row);
        String::from_utf8(row).expect("a row is the UTF-8 key plus ASCII")
    }

    /// Append [`QosRule::to_row`]'s bytes to `out`, without a `String`
    /// per row: the key text, then the three numbers through
    /// [`decimal::push_micro_decimal`](crate::decimal::push_micro_decimal).
    pub fn write_row(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.key.as_bytes());
        for micro in [
            self.refill_rate.micro_per_sec(),
            self.capacity.as_micro(),
            self.credit.as_micro(),
        ] {
            out.push(b'\t');
            crate::decimal::push_micro_decimal(out, micro);
        }
    }

    /// Parse one [`QosRule::to_row`] line back into a rule.
    pub fn parse_row(line: &str) -> Result<QosRule> {
        let mut parts = line.split('\t');
        let key = parts
            .next()
            .ok_or_else(|| JanusError::db("row missing key"))?;
        let rate = parts
            .next()
            .ok_or_else(|| JanusError::db("row missing refill_rate"))?;
        let capacity = parts
            .next()
            .ok_or_else(|| JanusError::db("row missing capacity"))?;
        let credit = parts
            .next()
            .ok_or_else(|| JanusError::db("row missing credit"))?;
        if parts.next().is_some() {
            return Err(JanusError::db(format!("trailing fields in row {line:?}")));
        }
        Ok(QosRule {
            key: QosKey::new(key).map_err(|e| JanusError::db(format!("bad key in row: {e}")))?,
            refill_rate: RefillRate::from_micro_per_sec(parse_micro_decimal(rate)?),
            capacity: Credits::from_micro(parse_micro_decimal(capacity)?),
            credit: Credits::from_micro(parse_micro_decimal(credit)?),
        })
    }
}

/// Format a microcredit count as decimal credits, trimming trailing
/// fractional zeros (`1500000` → `"1.5"`, `2000000` → `"2"`).
pub fn format_micro_decimal(micro: u64) -> String {
    let mut out = Vec::new();
    crate::decimal::push_micro_decimal(&mut out, micro);
    String::from_utf8(out).expect("digits are ASCII")
}

/// Parse a decimal credit count (`"1.5"`, `"2"`, `".25"`) into
/// microcredits, rejecting more than six fractional digits. The fraction
/// is zero to six ASCII digits and nothing else (no sign), read in place.
pub fn parse_micro_decimal(s: &str) -> Result<u64> {
    let bad = || JanusError::db(format!("bad number {s:?}"));
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return Err(bad());
    }
    if frac_part.len() > 6 {
        return Err(JanusError::db(format!(
            "number {s:?} exceeds 6 fractional digits"
        )));
    }
    let int: u64 = if int_part.is_empty() {
        0
    } else {
        int_part.parse().map_err(|_| bad())?
    };
    let mut frac = 0u64;
    for i in 0..6 {
        let digit = match frac_part.as_bytes().get(i) {
            None => 0,
            Some(b) if b.is_ascii_digit() => u64::from(b - b'0'),
            Some(_) => return Err(bad()),
        };
        frac = frac * 10 + digit;
    }
    int.checked_mul(1_000_000)
        .and_then(|i| i.checked_add(frac))
        .ok_or_else(|| JanusError::db(format!("number {s:?} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    #[test]
    fn new_rule_starts_full() {
        let r = QosRule::per_second(key("alice"), 1000, 100);
        assert_eq!(r.credit, r.capacity);
        assert_eq!(r.capacity, Credits::from_whole(1000));
        assert_eq!(r.refill_rate, RefillRate::per_second(100));
    }

    #[test]
    fn deny_rule_denies() {
        let r = QosRule::deny(key("intruder"));
        assert!(r.denies_everything());
        assert!(!QosRule::per_second(key("ok"), 1, 0).denies_everything());
        assert!(!QosRule::per_second(key("ok"), 0, 1).denies_everything());
    }

    #[test]
    fn clamp_shrinks_credit() {
        let mut r = QosRule::per_second(key("alice"), 10, 1);
        r.credit = Credits::from_whole(50);
        let r = r.clamped();
        assert_eq!(r.credit, Credits::from_whole(10));
    }

    #[test]
    fn stored_size_near_paper_estimate() {
        // A typical rule (UUID key) should be in the neighbourhood of the
        // paper's ~100-byte figure.
        let r = QosRule::per_second(key("00000000-0000-0000-0000-000000000000"), 1000, 100);
        let size = r.approx_stored_size();
        assert!((40..=120).contains(&size), "size was {size}");
    }

    #[test]
    fn row_roundtrip() {
        let mut r = QosRule::per_second(key("alice:photos"), 1000, 100);
        r.credit = Credits::from_micro(1_500_000);
        let row = r.to_row();
        assert_eq!(row, "alice:photos\t100\t1000\t1.5");
        assert_eq!(QosRule::parse_row(&row).unwrap(), r);
    }

    #[test]
    fn row_rejects_malformed_lines() {
        assert!(QosRule::parse_row("").is_err());
        assert!(QosRule::parse_row("k\t1\t2").is_err(), "missing credit");
        assert!(QosRule::parse_row("k\t1\t2\t3\t4").is_err(), "trailing");
        assert!(QosRule::parse_row("k\tx\t2\t3").is_err(), "bad number");
        assert!(
            QosRule::parse_row("k\t1.1234567\t2\t3").is_err(),
            "too many fractional digits"
        );
    }

    #[test]
    fn micro_decimal_roundtrip() {
        for micro in [0u64, 1, 999_999, 1_000_000, 1_500_000, u64::MAX / 2] {
            let s = format_micro_decimal(micro);
            assert_eq!(parse_micro_decimal(&s).unwrap(), micro, "via {s:?}");
        }
        assert_eq!(parse_micro_decimal(".25").unwrap(), 250_000);
        assert!(parse_micro_decimal(".").is_err());
    }

    #[test]
    fn micro_decimal_fraction_is_digits_only() {
        for s in ["1.+5", "1.+", "1.5x", "1.-5", "1. 5", "1.5.0"] {
            let err = parse_micro_decimal(s).unwrap_err().to_string();
            assert!(err.contains("bad number"), "{s:?}: {err}");
        }
    }

    /// The parser before the fraction was read in place: it padded the
    /// fraction into a `String` and let `u64::parse` take a sign there.
    fn parse_micro_decimal_padded(s: &str) -> Result<u64> {
        let (int_part, frac_part) = match s.split_once('.') {
            Some((i, f)) => (i, f),
            None => (s, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(JanusError::db(format!("bad number {s:?}")));
        }
        if frac_part.len() > 6 {
            return Err(JanusError::db(format!(
                "number {s:?} exceeds 6 fractional digits"
            )));
        }
        let int: u64 = if int_part.is_empty() {
            0
        } else {
            int_part
                .parse()
                .map_err(|_| JanusError::db(format!("bad number {s:?}")))?
        };
        let frac: u64 = if frac_part.is_empty() {
            0
        } else {
            format!("{frac_part:0<6}")
                .parse()
                .map_err(|_| JanusError::db(format!("bad number {s:?}")))?
        };
        int.checked_mul(1_000_000)
            .and_then(|i| i.checked_add(frac))
            .ok_or_else(|| JanusError::db(format!("number {s:?} out of range")))
    }

    #[test]
    fn micro_decimal_matches_the_padding_parser_on_digits() {
        // Integer parts of every magnitude up to past the `u64`
        // microcredit edge (u64::MAX / 10^6 = 18446744073709), with 0–6
        // fractional digits, with and without the point: results and
        // errors agree with the old parser.
        use crate::testrng::{TestRng, CASES};
        let edge = u64::MAX / 1_000_000;
        let mut rng = TestRng::new(0xdec2);
        for case in 0..CASES * 8 {
            let int = match case % 4 {
                0 => edge - rng.below(3),
                1 => edge + rng.below(3),
                _ => rng.below(edge * 2) >> rng.below(48),
            };
            let digits = rng.below(7) as usize;
            let frac: String = (0..digits)
                .map(|_| char::from(b'0' + rng.below(10) as u8))
                .collect();
            let int_text = if int == 0 && rng.coin() {
                String::new()
            } else {
                int.to_string()
            };
            let s = match (digits, rng.coin()) {
                (0, true) => int_text,
                _ => format!("{int_text}.{frac}"),
            };
            let (new, old) = (parse_micro_decimal(&s), parse_micro_decimal_padded(&s));
            match (new, old) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{s:?}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{s:?}"),
                (a, b) => panic!("{s:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn micro_decimal_parses_without_allocating() {
        let allocs = crate::alloc_counter::allocations_during(|| {
            assert_eq!(parse_micro_decimal("12.345").unwrap(), 12_345_000);
            assert_eq!(parse_micro_decimal(".5").unwrap(), 500_000);
        });
        assert_eq!(allocs, 0, "parsing allocated {allocs} times");
    }
}
