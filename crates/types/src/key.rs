//! The QoS key: the string identity a rule is attached to.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum length of a QoS key in bytes.
///
/// The wire codec encodes key lengths in a single byte's worth of headroom
/// beyond typical identifiers; 255 comfortably covers UUIDs, IP addresses,
/// `user:database` pairs and User-Agent strings while keeping the QoS rule
/// record near the ~100 bytes the paper reports.
pub const MAX_KEY_BYTES: usize = 255;

/// Keys at or below this length are stored inline (no heap allocation).
///
/// 23 bytes keeps the inline variant within two machine words alongside the
/// length tag, and covers the paper's key families — user ids, IPv4/IPv6
/// addresses, and short `user:database` pairs — so the request hot path
/// decodes without touching the allocator.
pub const INLINE_KEY_BYTES: usize = 23;

/// Why a candidate string was rejected as a QoS key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// Keys must be non-empty.
    Empty,
    /// Key exceeded [`MAX_KEY_BYTES`].
    TooLong(usize),
    /// Key contained an ASCII control character (would corrupt textual
    /// protocols such as the mini-SQL layer and HTTP query strings).
    ControlCharacter(u8),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Empty => write!(f, "QoS key must not be empty"),
            KeyError::TooLong(n) => {
                write!(f, "QoS key is {n} bytes, max is {MAX_KEY_BYTES}")
            }
            KeyError::ControlCharacter(b) => {
                write!(f, "QoS key contains control byte 0x{b:02x}")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// CRC32 (ISO-HDLC, reflected 0xEDB88320) lookup table, built at compile
/// time. This is the Sarwate single-table form; `janus-hash` carries the
/// slicing-by-8 production implementation and a cross-crate test pins the
/// two to identical outputs. The duplication is forced by the dependency
/// direction: `janus-hash` depends on this crate for [`QosKey`], so the
/// cached-checksum constructor here cannot call into it.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

const fn crc32_of(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut i = 0;
    while i < bytes.len() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ bytes[i] as u32) & 0xFF) as usize];
        i += 1;
    }
    !crc
}

/// FNV-1a 64-bit. The lock-free QoS table keys its slots by this digest;
/// 64 bits keeps the birthday collision probability negligible at realistic
/// tenant counts (~n²/2⁶⁴), where the 32-bit CRC would start colliding
/// around 77 k keys.
const fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

// Compile-time known-answer checks (CRC32 check value from the ISO-HDLC
// spec; FNV-1a from the reference vectors).
const _: () = assert!(crc32_of(b"123456789") == 0xCBF4_3926);
const _: () = assert!(fnv1a_64(b"") == 0xcbf2_9ce4_8422_2325);

/// Key storage: short keys live inline, long ones on the heap.
#[derive(Clone)]
enum Repr {
    /// `len` bytes of valid UTF-8 in `buf[..len]`, `len <= INLINE_KEY_BYTES`.
    Inline {
        len: u8,
        buf: [u8; INLINE_KEY_BYTES],
    },
    /// Keys longer than [`INLINE_KEY_BYTES`]; still cheap to clone.
    Heap(Arc<str>),
}

/// A validated QoS key.
///
/// The composition of the key is up to the integrating service: a web
/// service with per-user rates uses the user id; a NoSQL service with
/// per-database rates uses `"{user}:{database}"`; the photo-sharing demo
/// uses the client IP address. Janus itself only ever hashes and compares
/// keys.
///
/// Keys are immutable and cheap to clone: up to [`INLINE_KEY_BYTES`] bytes
/// are stored inline (constructing such a key never allocates — the wire
/// decoder relies on this), longer keys share an `Arc<str>`. Both the CRC32
/// routing checksum and the 64-bit FNV-1a digest are computed once at
/// construction and cached: routing, the lock-free table's probe, the
/// router's hint slot and the choice of a `ShardedTable` shard read them
/// without touching the key bytes. The digest's low bits move with every
/// byte, so the probe and the hint slot index by them directly. Its
/// middle bits do not: keys that differ only in their last bytes
/// (`tenant-1`, `tenant-2`) share most of bits 32–37, so the shard index
/// multiplies the digest by 2⁶⁴/φ and reads the product's top bits.
///
/// A `HashMap<QosKey, _>` still hashes the key text on every lookup,
/// because [`Hash`] feeds it the `str` (it must equal `str`'s hash for
/// `Borrow<str>` lookups). Those maps — inside a `ShardedTable` shard,
/// the router's hint, lease and returns maps, the server's lease ledger —
/// keep the standard SipHash; DESIGN.md §4d says why.
#[derive(Clone)]
pub struct QosKey {
    repr: Repr,
    crc32: u32,
    digest: u64,
}

impl QosKey {
    /// Validate and construct a key.
    pub fn new(s: impl AsRef<str>) -> Result<Self, KeyError> {
        let s = s.as_ref();
        if s.is_empty() {
            return Err(KeyError::Empty);
        }
        if s.len() > MAX_KEY_BYTES {
            return Err(KeyError::TooLong(s.len()));
        }
        if let Some(b) = s.bytes().find(|b| b.is_ascii_control()) {
            return Err(KeyError::ControlCharacter(b));
        }
        let repr = if s.len() <= INLINE_KEY_BYTES {
            let mut buf = [0u8; INLINE_KEY_BYTES];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Repr::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(Arc::from(s))
        };
        Ok(QosKey {
            repr,
            crc32: crc32_of(s.as_bytes()),
            digest: fnv1a_64(s.as_bytes()),
        })
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        match &self.repr {
            // SAFETY: `buf[..len]` was copied verbatim from a validated
            // `&str` in `new`, so it is valid UTF-8.
            Repr::Inline { len, buf } => unsafe {
                std::str::from_utf8_unchecked(&buf[..*len as usize])
            },
            Repr::Heap(s) => s,
        }
    }

    /// The key bytes (what the CRC32 routing hash consumes).
    pub fn as_bytes(&self) -> &[u8] {
        self.as_str().as_bytes()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(s) => s.len(),
        }
    }

    /// Always false: empty keys cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The CRC32 of the key bytes, cached at construction.
    ///
    /// Identical to `janus_hash::crc32(key.as_bytes())` — router backend
    /// selection consumes this so the hot path never re-walks the key to
    /// pick the key's QoS server.
    pub fn crc32(&self) -> u32 {
        self.crc32
    }

    /// The 64-bit FNV-1a digest of the key bytes, cached at construction.
    ///
    /// The lock-free QoS table keys its slots by this value. Its middle
    /// bits barely move between keys that differ only at the end: mix it
    /// before reading anything but the low bits as an index.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether this key is stored inline (true for keys of at most
    /// [`INLINE_KEY_BYTES`] bytes — such keys were built without heap
    /// allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl PartialEq for QosKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached digest disagrees for unequal keys with overwhelming
        // probability, so most inequality checks never touch the bytes.
        self.digest == other.digest && self.as_str() == other.as_str()
    }
}

impl Eq for QosKey {}

impl Hash for QosKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `str`'s Hash exactly: the `Borrow<str>` impl lets
        // hash maps look keys up by `&str`.
        self.as_str().hash(state);
    }
}

impl PartialOrd for QosKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QosKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for QosKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QosKey({:?})", self.as_str())
    }
}

impl fmt::Display for QosKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for QosKey {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for QosKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl std::str::FromStr for QosKey {
    type Err = KeyError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QosKey::new(s)
    }
}

impl TryFrom<&str> for QosKey {
    type Error = KeyError;
    fn try_from(s: &str) -> Result<Self, Self::Error> {
        QosKey::new(s)
    }
}

impl TryFrom<String> for QosKey {
    type Error = KeyError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        QosKey::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::{TestRng, CASES};

    #[test]
    fn accepts_typical_keys() {
        for k in [
            "user-42",
            "10.0.0.1",
            "alice:photos",
            "Mozilla/5.0 (compatible; Googlebot/2.1)",
            "00000000-0000-0000-0000-000000000000",
        ] {
            assert!(QosKey::new(k).is_ok(), "rejected {k:?}");
        }
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(QosKey::new("").unwrap_err(), KeyError::Empty);
    }

    #[test]
    fn rejects_too_long() {
        let long = "x".repeat(MAX_KEY_BYTES + 1);
        assert_eq!(
            QosKey::new(&long).unwrap_err(),
            KeyError::TooLong(MAX_KEY_BYTES + 1)
        );
    }

    #[test]
    fn accepts_exactly_max() {
        let max = "x".repeat(MAX_KEY_BYTES);
        assert!(QosKey::new(&max).is_ok());
    }

    #[test]
    fn rejects_control_chars() {
        assert_eq!(
            QosKey::new("a\nb").unwrap_err(),
            KeyError::ControlCharacter(b'\n')
        );
        assert_eq!(
            QosKey::new("a\0b").unwrap_err(),
            KeyError::ControlCharacter(0)
        );
    }

    #[test]
    fn short_keys_are_inline_long_keys_are_heap() {
        assert!(QosKey::new("x".repeat(INLINE_KEY_BYTES))
            .unwrap()
            .is_inline());
        assert!(!QosKey::new("x".repeat(INLINE_KEY_BYTES + 1))
            .unwrap()
            .is_inline());
        assert!(QosKey::new("10.0.0.1").unwrap().is_inline());
    }

    #[test]
    fn inline_and_heap_reprs_of_same_text_are_equal() {
        // Equality and hashing go through the text, not the representation.
        // (Same text always picks the same repr, but the invariant worth
        // pinning is that repr never leaks into Eq/Hash/Ord.)
        let k = QosKey::new("alice").unwrap();
        assert_eq!(k.as_str(), "alice");
        assert_eq!(k, QosKey::new("alice").unwrap());
    }

    #[test]
    fn crc32_known_answer() {
        // ISO-HDLC check value; janus-hash cross-checks the full
        // slicing-by-8 implementation against this cached one.
        assert_eq!(QosKey::new("123456789").unwrap().crc32(), 0xCBF4_3926);
    }

    #[test]
    fn digest_is_stable_and_discriminates() {
        let a = QosKey::new("alice").unwrap();
        assert_eq!(a.digest(), QosKey::new("alice").unwrap().digest());
        assert_ne!(a.digest(), QosKey::new("bob").unwrap().digest());
    }

    #[test]
    fn borrow_allows_str_lookup() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(QosKey::new("alice").unwrap(), 1u32);
        assert_eq!(map.get("alice"), Some(&1));
    }

    #[test]
    fn hash_matches_str_hash() {
        // The Borrow<str> contract: QosKey must hash exactly as its text.
        use std::collections::hash_map::DefaultHasher;
        for text in ["a", "alice:photos", &"x".repeat(200)] {
            let key = QosKey::new(text).unwrap();
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            key.hash(&mut h1);
            text.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash mismatch for {text:?}");
        }
    }

    #[test]
    fn valid_keys_roundtrip_as_str() {
        let mut rng = TestRng::new(0x4B45_5901);
        for _ in 0..CASES {
            let s = rng.printable(1, MAX_KEY_BYTES);
            let key = QosKey::new(&s).unwrap();
            assert_eq!(key.as_str(), s.as_str());
            assert_eq!(key.len(), s.len());
            assert_eq!(key.is_inline(), s.len() <= INLINE_KEY_BYTES);
        }
    }

    #[test]
    fn clone_is_equal() {
        use std::collections::hash_map::DefaultHasher;
        let alphabet: Vec<u8> = (b'a'..=b'z')
            .chain(b'A'..=b'Z')
            .chain(b'0'..=b'9')
            .chain(*b":._/-")
            .collect();
        let mut rng = TestRng::new(0x4B45_5902);
        for _ in 0..CASES {
            let key = QosKey::new(rng.string_of(&alphabet, 1, 64)).unwrap();
            let dup = key.clone();
            assert_eq!(key, dup);
            assert_eq!(key.crc32(), dup.crc32());
            assert_eq!(key.digest(), dup.digest());
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            key.hash(&mut h1);
            dup.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish());
        }
    }

    #[test]
    fn ord_matches_str_ord() {
        let mut rng = TestRng::new(0x4B45_5903);
        for case in 0..CASES {
            let a = rng.printable(1, 40);
            // Every fourth case compares equal texts: random pairs never do.
            let b = if case % 4 == 0 {
                a.clone()
            } else {
                rng.printable(1, 40)
            };
            let ka = QosKey::new(&a).unwrap();
            let kb = QosKey::new(&b).unwrap();
            assert_eq!(ka.cmp(&kb), a.as_str().cmp(b.as_str()));
            assert_eq!(ka == kb, a == b);
        }
    }
}
