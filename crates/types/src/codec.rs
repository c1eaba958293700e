//! Binary wire codec for the router ⇄ QoS-server UDP protocol.
//!
//! Admission traffic is latency-critical and high-volume, so the frame is
//! deliberately tiny — a fixed 4-byte header plus the payload:
//!
//! ```text
//! +--------+--------+---------+--------+------------------------+
//! | magic  (0x4A51) | version |  kind  | payload                |
//! +--------+--------+---------+--------+------------------------+
//!
//! kind = 0x01 (request):   id: u64 BE | key_len: u8 | key bytes
//! kind = 0x02 (response):  id: u64 BE | verdict: u8 (0=deny, 1=allow)
//! kind = 0x03:            reserved (see below); never sent, always rejected
//! kind = 0x04 (request, hint solicited):  same payload as 0x01
//! kind = 0x05 (response + rule hint):     id: u64 BE | verdict: u8
//!                                         | capacity: u64 BE microcredits
//!                                         | rate: u64 BE microcredits/s
//! kind = 0x06 (request + deadline):  id: u64 BE | flags: u8
//!                                    | budget_us: u32 BE | nonce: u32 BE
//!                                    | key_len: u8 | key bytes
//! kind = 0x07 (request + lease report):  id: u64 BE | flags: u8
//!                                        | budget_us: u32 BE | nonce: u32 BE
//!                                        | holder: u32 BE | epoch: u32 BE
//!                                        | spent: u32 BE
//!                                        | key_len: u8 | key bytes
//! kind = 0x08 (response + lease grant):  id: u64 BE | verdict: u8
//!                                        | flags: u8
//!                                        | slice: u64 BE microcredits
//!                                        | refill: u64 BE microcredits/s
//!                                        | ttl_us: u32 BE | epoch: u32 BE
//!                                        | optional hint (capacity: u64 BE
//!                                        | rate: u64 BE)
//! ```
//!
//! A request for a UUID key is 49 bytes on the wire (58 with deadline
//! metadata, 70 with a lease report); a response is 13 (29 with a rule
//! hint, 38 with a lease grant, 54 with both). All fit in a single
//! datagram with no fragmentation at any sane MTU.
//!
//! Kinds 0x04/0x05 are the **rule-hint** extension: a router that wants to
//! passively learn rule shapes sends 0x04, and a hint-aware server answers
//! with 0x05 when a rule is in force (0x02 otherwise). Compatibility is by
//! construction: a hint-unaware server drops the unknown 0x04 frame as
//! garbage, so soliciting clients re-send the plain 0x01 frame on retries
//! and lose at most one attempt against an old peer; a hint-unaware client
//! never sends 0x04, so it is never shown an 0x05 response.
//!
//! Kind 0x06 is the **overload-control** extension: a deadline-propagating
//! client stamps the remaining retry budget (microseconds) and a per
//! logical-request nonce onto each attempt, letting servers shed expired
//! work and deduplicate retries instead of double-charging the bucket.
//! `flags` bit 0 carries the hint solicitation (so 0x06 composes with the
//! 0x04 extension); the remaining bits are reserved and rejected. The same
//! back-compat discipline applies: a deadline-unaware server drops the
//! unknown 0x06 frame as garbage, so propagating clients downgrade their
//! *final* attempt to the legacy frame and lose all but one attempt
//! against an old peer — and nothing against a new one. Responses are
//! unchanged: retries reuse the request id, so the cached-verdict reply to
//! a duplicate attempt is an ordinary 0x02/0x05 frame.
//!
//! Kinds 0x07/0x08 are the **credit-lease** extension (zero-RTT
//! admission): a lease-capable router piggybacks a [`LeaseReport`] on its
//! admission requests — soliciting grants, reporting cumulative spend for
//! async reconciliation, and returning leases it dropped — and a
//! lease-aware server answers with 0x08 when it delegates a slice. The
//! 0x07 `flags` byte carries the hint solicitation (bit 0), whether the
//! deadline fields are meaningful (bit 1; both are zero on the wire when
//! clear), the lease solicitation (bit 2) and the give-back (bit 3);
//! remaining bits are reserved and rejected, as are non-zero deadline
//! fields without bit 1. The 0x08 `flags` byte has bit 0 = "a rule hint
//! follows the grant", so leases compose with the 0x04/0x05 extension.
//! Back-compat is again by construction: a lease-unaware server drops the
//! unknown 0x07 frame, so lease-capable clients downgrade their retries
//! and final attempt to lease-free frames and lose at most one attempt
//! against an old peer; an old router never sends 0x07, so it is never
//! shown an 0x08 grant.
//!
//! Every datagram carries exactly one frame, in either direction, as in
//! the paper (§III-B). Kind 0x03 once framed a batch of frames in one
//! datagram; no sender emits it any more, [`decode`] rejects it as an
//! unknown kind, and the number is reserved and never reused, so a
//! datagram from an old batching peer can never parse as something else.

use crate::{
    AttemptMeta, Credits, JanusError, Lease, LeaseReport, QosKey, QosRequest, QosResponse,
    RefillRate, Result, RuleHint, Verdict, MAX_KEY_BYTES,
};

/// Frame magic: "JQ" for *J*anus *Q*oS.
pub const MAGIC: u16 = 0x4A51;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Largest possible encoded frame (a lease-reporting request with a
/// maximum-length key).
pub const MAX_FRAME_BYTES: usize = 4 + 8 + LEASE_META_BYTES + 1 + MAX_KEY_BYTES;
/// Extra payload bytes a deadline-stamped request carries over the plain
/// one (`flags: u8 | budget_us: u32 | nonce: u32`).
const DEADLINE_META_BYTES: usize = 1 + 4 + 4;
/// Extra payload bytes a lease-reporting request carries over the plain
/// one (the deadline metadata plus `holder | epoch | spent`, u32 each).
const LEASE_META_BYTES: usize = DEADLINE_META_BYTES + 4 + 4 + 4;
/// Extra payload bytes a lease grant adds to a response
/// (`flags: u8 | slice: u64 | refill: u64 | ttl_us: u32 | epoch: u32`).
const LEASE_GRANT_BYTES: usize = 1 + 8 + 8 + 4 + 4;
/// Flag bit in the 0x06 `flags` byte: the request solicits a rule hint.
const DEADLINE_FLAG_SOLICIT_HINT: u8 = 0x01;
/// Flag bit in the 0x07 `flags` byte: the request solicits a rule hint.
const LEASE_FLAG_SOLICIT_HINT: u8 = 0x01;
/// Flag bit in the 0x07 `flags` byte: the deadline fields are meaningful.
const LEASE_FLAG_ATTEMPT: u8 = 0x02;
/// Flag bit in the 0x07 `flags` byte: the request solicits a lease grant.
const LEASE_FLAG_SOLICIT_LEASE: u8 = 0x04;
/// Flag bit in the 0x07 `flags` byte: the holder is returning its lease.
const LEASE_FLAG_GIVING_BACK: u8 = 0x08;
/// All defined 0x07 flag bits; the rest are reserved and rejected.
const LEASE_FLAGS_KNOWN: u8 = LEASE_FLAG_SOLICIT_HINT
    | LEASE_FLAG_ATTEMPT
    | LEASE_FLAG_SOLICIT_LEASE
    | LEASE_FLAG_GIVING_BACK;
/// Flag bit in the 0x08 `flags` byte: a rule hint follows the grant.
const GRANT_FLAG_HINT: u8 = 0x01;

/// Frame kind: plain admission request.
pub const KIND_REQUEST: u8 = 0x01;
/// Frame kind: plain admission response.
pub const KIND_RESPONSE: u8 = 0x02;
/// Frame kind: admission request soliciting a rule hint.
pub const KIND_REQUEST_HINT: u8 = 0x04;
/// Frame kind: admission response carrying a rule hint.
pub const KIND_RESPONSE_HINT: u8 = 0x05;
/// Frame kind: admission request carrying deadline budget and retry nonce.
pub const KIND_REQUEST_DEADLINE: u8 = 0x06;
/// Frame kind: admission request carrying a piggybacked lease report.
pub const KIND_REQUEST_LEASE: u8 = 0x07;
/// Frame kind: admission response carrying a credit-lease grant.
pub const KIND_RESPONSE_LEASE: u8 = 0x08;

/// A decoded frame: either direction of the admission protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Router → QoS server.
    Request(QosRequest),
    /// QoS server → router.
    Response(QosResponse),
}

impl From<QosRequest> for Frame {
    fn from(r: QosRequest) -> Frame {
        Frame::Request(r)
    }
}

impl From<QosResponse> for Frame {
    fn from(r: QosResponse) -> Frame {
        Frame::Response(r)
    }
}

fn put_header(buf: &mut Vec<u8>, kind: u8) {
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.push(VERSION);
    buf.push(kind);
}

/// Split the next `N` bytes off the front of `data`. Every caller has
/// already checked the length, exactly as the parsers always did.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data.split_at(N);
    *data = rest;
    head.try_into().expect("split_at yields exactly N bytes")
}

fn get_u8(data: &mut &[u8]) -> u8 {
    take::<1>(data)[0]
}

fn get_u16(data: &mut &[u8]) -> u16 {
    u16::from_be_bytes(take(data))
}

fn get_u32(data: &mut &[u8]) -> u32 {
    u32::from_be_bytes(take(data))
}

fn get_u64(data: &mut &[u8]) -> u64 {
    u64::from_be_bytes(take(data))
}

fn request_kind(req: &QosRequest) -> u8 {
    if req.lease.is_some() {
        KIND_REQUEST_LEASE
    } else if req.attempt.is_some() {
        KIND_REQUEST_DEADLINE
    } else if req.solicit_hint {
        KIND_REQUEST_HINT
    } else {
        KIND_REQUEST
    }
}

/// The 0x06 `flags` byte for a deadline-stamped request.
fn deadline_flags(req: &QosRequest) -> u8 {
    if req.solicit_hint {
        DEADLINE_FLAG_SOLICIT_HINT
    } else {
        0
    }
}

/// The 0x07 `flags` byte for a lease-reporting request.
fn lease_flags(req: &QosRequest, report: &LeaseReport) -> u8 {
    let mut flags = 0;
    if req.solicit_hint {
        flags |= LEASE_FLAG_SOLICIT_HINT;
    }
    if req.attempt.is_some() {
        flags |= LEASE_FLAG_ATTEMPT;
    }
    if report.solicit {
        flags |= LEASE_FLAG_SOLICIT_LEASE;
    }
    if report.giving_back {
        flags |= LEASE_FLAG_GIVING_BACK;
    }
    flags
}

fn response_kind(resp: &QosResponse) -> u8 {
    if resp.lease.is_some() {
        KIND_RESPONSE_LEASE
    } else if resp.hint.is_some() {
        KIND_RESPONSE_HINT
    } else {
        KIND_RESPONSE
    }
}

/// Encode a request into a fresh buffer.
pub fn encode_request(req: &QosRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 8 + LEASE_META_BYTES + 1 + req.key.len());
    put_header(&mut buf, request_kind(req));
    buf.extend_from_slice(&req.id.to_be_bytes());
    if let Some(report) = &req.lease {
        buf.push(lease_flags(req, report));
        let attempt = req.attempt.unwrap_or(AttemptMeta::new(0, 0));
        buf.extend_from_slice(&attempt.budget_us.to_be_bytes());
        buf.extend_from_slice(&attempt.nonce.to_be_bytes());
        buf.extend_from_slice(&report.holder.to_be_bytes());
        buf.extend_from_slice(&report.epoch.to_be_bytes());
        buf.extend_from_slice(&report.spent.to_be_bytes());
    } else if let Some(attempt) = &req.attempt {
        buf.push(deadline_flags(req));
        buf.extend_from_slice(&attempt.budget_us.to_be_bytes());
        buf.extend_from_slice(&attempt.nonce.to_be_bytes());
    }
    debug_assert!(req.key.len() <= MAX_KEY_BYTES);
    buf.push(req.key.len() as u8);
    buf.extend_from_slice(req.key.as_bytes());
    buf
}

/// Encode a response into a fresh buffer.
pub fn encode_response(resp: &QosResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 8 + 1 + LEASE_GRANT_BYTES + 16);
    put_header(&mut buf, response_kind(resp));
    buf.extend_from_slice(&resp.id.to_be_bytes());
    buf.push(resp.verdict.as_bool() as u8);
    if let Some(lease) = &resp.lease {
        buf.push(if resp.hint.is_some() {
            GRANT_FLAG_HINT
        } else {
            0
        });
        buf.extend_from_slice(&lease.slice.as_micro().to_be_bytes());
        buf.extend_from_slice(&lease.refill.micro_per_sec().to_be_bytes());
        buf.extend_from_slice(&lease.ttl_us.to_be_bytes());
        buf.extend_from_slice(&lease.epoch.to_be_bytes());
    }
    if let Some(hint) = &resp.hint {
        buf.extend_from_slice(&hint.capacity.as_micro().to_be_bytes());
        buf.extend_from_slice(&hint.refill_rate.micro_per_sec().to_be_bytes());
    }
    buf
}

/// Encode either frame direction.
pub fn encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Request(r) => encode_request(r),
        Frame::Response(r) => encode_response(r),
    }
}

/// Parse a length-prefixed key (`key_len | key`), consuming it from `data`.
fn parse_key(data: &mut &[u8]) -> Result<QosKey> {
    let key_len = get_u8(data) as usize;
    if data.len() < key_len {
        return Err(JanusError::codec(format!(
            "truncated key: want {key_len}, have {}",
            data.len()
        )));
    }
    let key_bytes = &data[..key_len];
    let key_str =
        std::str::from_utf8(key_bytes).map_err(|_| JanusError::codec("key is not UTF-8"))?;
    let key = QosKey::new(key_str).map_err(|e| JanusError::codec(format!("bad key: {e}")))?;
    *data = &data[key_len..];
    Ok(key)
}

/// Parse a request payload (`id | key_len | key`), consuming it from `data`.
fn parse_request_body(data: &mut &[u8]) -> Result<QosRequest> {
    if data.len() < 9 {
        return Err(JanusError::codec("truncated request"));
    }
    let id = get_u64(data);
    let key = parse_key(data)?;
    Ok(QosRequest::new(id, key))
}

/// Parse a deadline-stamped request payload
/// (`id | flags | budget_us | nonce | key_len | key`).
fn parse_request_deadline_body(data: &mut &[u8]) -> Result<QosRequest> {
    if data.len() < 8 + DEADLINE_META_BYTES + 1 {
        return Err(JanusError::codec("truncated deadline request"));
    }
    let id = get_u64(data);
    let flags = get_u8(data);
    if flags & !DEADLINE_FLAG_SOLICIT_HINT != 0 {
        return Err(JanusError::codec(format!(
            "unknown deadline request flags 0x{flags:02x}"
        )));
    }
    let budget_us = get_u32(data);
    let nonce = get_u32(data);
    let key = parse_key(data)?;
    let mut request = QosRequest::new(id, key).with_attempt(AttemptMeta::new(budget_us, nonce));
    request.solicit_hint = flags & DEADLINE_FLAG_SOLICIT_HINT != 0;
    Ok(request)
}

/// Parse a lease-reporting request payload
/// (`id | flags | budget_us | nonce | holder | epoch | spent | key_len | key`).
fn parse_request_lease_body(data: &mut &[u8]) -> Result<QosRequest> {
    if data.len() < 8 + LEASE_META_BYTES + 1 {
        return Err(JanusError::codec("truncated lease request"));
    }
    let id = get_u64(data);
    let flags = get_u8(data);
    if flags & !LEASE_FLAGS_KNOWN != 0 {
        return Err(JanusError::codec(format!(
            "unknown lease request flags 0x{flags:02x}"
        )));
    }
    let budget_us = get_u32(data);
    let nonce = get_u32(data);
    if flags & LEASE_FLAG_ATTEMPT == 0 && (budget_us != 0 || nonce != 0) {
        return Err(JanusError::codec(
            "lease request carries deadline fields without the attempt flag",
        ));
    }
    let holder = get_u32(data);
    let epoch = get_u32(data);
    let spent = get_u32(data);
    let key = parse_key(data)?;
    let mut request = QosRequest::new(id, key);
    request.solicit_hint = flags & LEASE_FLAG_SOLICIT_HINT != 0;
    if flags & LEASE_FLAG_ATTEMPT != 0 {
        request.attempt = Some(AttemptMeta::new(budget_us, nonce));
    }
    request.lease = Some(LeaseReport {
        holder,
        epoch,
        spent,
        solicit: flags & LEASE_FLAG_SOLICIT_LEASE != 0,
        giving_back: flags & LEASE_FLAG_GIVING_BACK != 0,
    });
    Ok(request)
}

/// Parse a response payload (`id | verdict`), consuming it from `data`.
fn parse_response_body(data: &mut &[u8]) -> Result<QosResponse> {
    if data.len() < 9 {
        return Err(JanusError::codec("truncated response"));
    }
    let id = get_u64(data);
    let verdict = match get_u8(data) {
        0 => Verdict::Deny,
        1 => Verdict::Allow,
        other => {
            return Err(JanusError::codec(format!("bad verdict byte {other}")));
        }
    };
    Ok(QosResponse::new(id, verdict))
}

/// Parse a hint-bearing response payload (`id | verdict | capacity | rate`).
fn parse_response_hint_body(data: &mut &[u8]) -> Result<QosResponse> {
    let response = parse_response_body(data)?;
    if data.len() < 16 {
        return Err(JanusError::codec("truncated rule hint"));
    }
    let capacity = Credits::from_micro(get_u64(data));
    let rate = RefillRate::from_micro_per_sec(get_u64(data));
    Ok(response.with_hint(RuleHint::new(capacity, rate)))
}

/// Parse a lease-granting response payload
/// (`id | verdict | flags | slice | refill | ttl_us | epoch | [hint]`).
fn parse_response_lease_body(data: &mut &[u8]) -> Result<QosResponse> {
    let response = parse_response_body(data)?;
    if data.len() < LEASE_GRANT_BYTES {
        return Err(JanusError::codec("truncated lease grant"));
    }
    let flags = get_u8(data);
    if flags & !GRANT_FLAG_HINT != 0 {
        return Err(JanusError::codec(format!(
            "unknown lease grant flags 0x{flags:02x}"
        )));
    }
    let slice = Credits::from_micro(get_u64(data));
    let refill = RefillRate::from_micro_per_sec(get_u64(data));
    let ttl_us = get_u32(data);
    let epoch = get_u32(data);
    let mut response = response.with_lease(Lease::new(slice, refill, ttl_us, epoch));
    if flags & GRANT_FLAG_HINT != 0 {
        if data.len() < 16 {
            return Err(JanusError::codec("truncated rule hint after lease grant"));
        }
        let capacity = Credits::from_micro(get_u64(data));
        let rate = RefillRate::from_micro_per_sec(get_u64(data));
        response = response.with_hint(RuleHint::new(capacity, rate));
    }
    Ok(response)
}

/// Parse and validate the 4-byte header, returning the frame kind.
fn parse_header(data: &mut &[u8]) -> Result<u8> {
    if data.len() < 4 {
        return Err(JanusError::codec(format!(
            "frame too short: {} bytes",
            data.len()
        )));
    }
    let magic = get_u16(data);
    if magic != MAGIC {
        return Err(JanusError::codec(format!("bad magic 0x{magic:04x}")));
    }
    let version = get_u8(data);
    if version != VERSION {
        return Err(JanusError::codec(format!("unsupported version {version}")));
    }
    Ok(get_u8(data))
}

fn reject_trailing(data: &[u8]) -> Result<()> {
    if !data.is_empty() {
        return Err(JanusError::codec(format!(
            "{} trailing bytes after frame",
            data.len()
        )));
    }
    Ok(())
}

/// Decode one datagram, which carries exactly one frame.
///
/// The entire datagram must be consumed: trailing bytes indicate a framing
/// bug or corruption and are rejected rather than silently ignored, as
/// is every unknown kind, the reserved 0x03 included. Decoding a request
/// allocates only for a key too long to store inline in [`QosKey`].
pub fn decode(mut data: &[u8]) -> Result<Frame> {
    let kind = parse_header(&mut data)?;
    let frame = match kind {
        KIND_REQUEST => Frame::Request(parse_request_body(&mut data)?),
        KIND_RESPONSE => Frame::Response(parse_response_body(&mut data)?),
        KIND_REQUEST_HINT => {
            let mut request = parse_request_body(&mut data)?;
            request.solicit_hint = true;
            Frame::Request(request)
        }
        KIND_RESPONSE_HINT => Frame::Response(parse_response_hint_body(&mut data)?),
        KIND_REQUEST_DEADLINE => Frame::Request(parse_request_deadline_body(&mut data)?),
        KIND_REQUEST_LEASE => Frame::Request(parse_request_lease_body(&mut data)?),
        KIND_RESPONSE_LEASE => Frame::Response(parse_response_lease_body(&mut data)?),
        other => {
            return Err(JanusError::codec(format!(
                "unknown frame kind 0x{other:02x}"
            )));
        }
    };
    reject_trailing(data)?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::{TestRng, CASES};

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = QosRequest::new(42, key("alice:photos"));
        let wire = encode_request(&req);
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn response_roundtrip() {
        for verdict in [Verdict::Allow, Verdict::Deny] {
            let resp = QosResponse::new(7, verdict);
            let wire = encode_response(&resp);
            assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
        }
    }

    #[test]
    fn uuid_request_is_49_bytes() {
        let req = QosRequest::new(1, key("00000000-0000-0000-0000-000000000000"));
        assert_eq!(encode_request(&req).len(), 49);
    }

    #[test]
    fn response_is_13_bytes() {
        assert_eq!(encode_response(&QosResponse::allow(1)).len(), 13);
    }

    /// Corrupt `wire[at]` to `bad` in place, assert the decoder rejects
    /// it, then restore the original byte. One buffer serves every
    /// mutation case — no per-case `.to_vec()` copies.
    fn assert_mutation_rejected(wire: &mut [u8], at: usize, bad: u8, what: &str) {
        let original = wire[at];
        assert_ne!(original, bad, "mutation for {what} is a no-op");
        wire[at] = bad;
        assert!(decode(&*wire).is_err(), "accepted corrupted {what}");
        wire[at] = original;
    }

    #[test]
    fn rejects_every_header_and_body_mutation() {
        let mut wire = encode_response(&QosResponse::allow(1));
        let last = wire.len() - 1;
        assert_mutation_rejected(&mut wire, 0, 0xff, "magic");
        assert_mutation_rejected(&mut wire, 2, 99, "version");
        assert_mutation_rejected(&mut wire, 3, 0x7f, "kind");
        assert_mutation_rejected(&mut wire, last, 2, "verdict byte");
        // The buffer is pristine again after every restore.
        assert_eq!(
            decode(&wire).unwrap(),
            Frame::Response(QosResponse::allow(1))
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut wire = encode_response(&QosResponse::allow(1));
        wire.push(0);
        assert!(decode(&wire).is_err());
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let wire = encode_request(&QosRequest::new(9, key("some-user")));
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
    }

    #[test]
    fn rejects_non_utf8_key() {
        let mut wire = encode_request(&QosRequest::new(3, key("abcd")));
        let last = wire.len() - 1;
        assert_mutation_rejected(&mut wire, last, 0xff, "key byte (non-UTF-8)");
    }

    #[test]
    fn rejects_empty_datagram() {
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn max_frame_bound_is_tight() {
        let big = "x".repeat(MAX_KEY_BYTES);
        let req = QosRequest::new(u64::MAX, key(&big))
            .with_attempt(AttemptMeta::new(u32::MAX, u32::MAX))
            .with_lease(LeaseReport::renewing(u32::MAX, u32::MAX, u32::MAX));
        assert_eq!(encode_request(&req).len(), MAX_FRAME_BYTES);
        // Dropping the lease report leaves the deadline frame, exactly the
        // three lease counters smaller; dropping the attempt too leaves
        // the plain frame, the full lease metadata smaller.
        assert_eq!(
            encode_request(&req.without_lease()).len(),
            MAX_FRAME_BYTES - 12
        );
        assert_eq!(
            encode_request(&req.without_lease().without_attempt()).len(),
            MAX_FRAME_BYTES - 21
        );
    }

    fn hint(cap: u64, rate: u64) -> RuleHint {
        RuleHint::new(Credits::from_whole(cap), RefillRate::per_second(rate))
    }

    #[test]
    fn hint_request_roundtrip() {
        let req = QosRequest::soliciting_hint(42, key("alice:photos"));
        let wire = encode_request(&req);
        assert_eq!(wire[3], KIND_REQUEST_HINT);
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn hint_response_roundtrip() {
        for verdict in [Verdict::Allow, Verdict::Deny] {
            let resp = QosResponse::new(7, verdict).with_hint(hint(100, 40));
            let wire = encode_response(&resp);
            assert_eq!(wire[3], KIND_RESPONSE_HINT);
            assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
        }
    }

    #[test]
    fn hint_response_is_29_bytes() {
        let resp = QosResponse::allow(1).with_hint(hint(10, 5));
        assert_eq!(encode_response(&resp).len(), 29);
    }

    #[test]
    fn hint_unaware_wire_format_is_unchanged() {
        // Direction 1 of the compatibility contract: frames from peers
        // that never use hints are byte-for-byte the v1 format, so a
        // hint-aware receiver and a hint-unaware receiver see identical
        // datagrams.
        let req = QosRequest::new(42, key("alice"));
        let wire = encode_request(&req);
        assert_eq!(wire[3], KIND_REQUEST);
        let resp = QosResponse::allow(42);
        let wire = encode_response(&resp);
        assert_eq!(wire[3], KIND_RESPONSE);
        assert_eq!(wire.len(), 13);
    }

    #[test]
    fn hint_soliciting_fallback_frame_matches_plain_encoding() {
        // Direction 2: against a hint-unaware server the soliciting
        // client's retry frame (`without_hint`) must be exactly the plain
        // v1 request that server understands.
        let soliciting = QosRequest::soliciting_hint(9, key("bob"));
        let fallback = encode_request(&soliciting.without_hint());
        let plain = encode_request(&QosRequest::new(9, key("bob")));
        assert_eq!(fallback, plain);
    }

    #[test]
    fn hintless_response_to_soliciting_request_stays_v1() {
        // A hint-aware server with no rule in force answers a soliciting
        // request with the plain v1 response frame.
        let resp = QosResponse::deny(3);
        let wire = encode_response(&resp);
        assert_eq!(wire[3], KIND_RESPONSE);
        assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
    }

    #[test]
    fn hint_rejects_truncation_at_every_length() {
        let resp = QosResponse::allow(5).with_hint(hint(7, 3));
        let wire = encode_response(&resp);
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
    }

    fn meta(budget_us: u32, nonce: u32) -> AttemptMeta {
        AttemptMeta::new(budget_us, nonce)
    }

    #[test]
    fn deadline_request_roundtrip() {
        let req = QosRequest::new(42, key("alice:photos")).with_attempt(meta(400, 0xDEAD_BEEF));
        let wire = encode_request(&req);
        assert_eq!(wire[3], KIND_REQUEST_DEADLINE);
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn deadline_request_composes_with_hint_solicitation() {
        let req = QosRequest::soliciting_hint(7, key("bob")).with_attempt(meta(100, 3));
        let wire = encode_request(&req);
        // One frame kind carries both extensions; the hint rides the
        // flags byte instead of a second kind.
        assert_eq!(wire[3], KIND_REQUEST_DEADLINE);
        assert_eq!(wire[12], 0x01, "solicit_hint flag bit");
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn uuid_deadline_request_is_58_bytes() {
        let req = QosRequest::new(1, key("00000000-0000-0000-0000-000000000000"))
            .with_attempt(meta(600, 9));
        assert_eq!(encode_request(&req).len(), 58);
    }

    #[test]
    fn deadline_unaware_wire_format_is_unchanged() {
        // Direction 1 of the compatibility contract: a client that never
        // stamps deadlines emits byte-for-byte the v1 frames, so old and
        // new receivers see identical datagrams.
        let req = QosRequest::new(42, key("alice"));
        assert_eq!(encode_request(&req)[3], KIND_REQUEST);
        let soliciting = QosRequest::soliciting_hint(42, key("alice"));
        assert_eq!(encode_request(&soliciting)[3], KIND_REQUEST_HINT);
    }

    #[test]
    fn deadline_fallback_frame_matches_plain_encoding() {
        // Direction 2: the final-attempt fallback against a
        // deadline-unaware server is exactly the legacy frame that server
        // understands.
        let stamped = QosRequest::new(9, key("bob")).with_attempt(meta(50, 1));
        let fallback = encode_request(&stamped.without_attempt());
        let plain = encode_request(&QosRequest::new(9, key("bob")));
        assert_eq!(fallback, plain);
    }

    #[test]
    fn deadline_request_rejects_unknown_flag_bits() {
        let req = QosRequest::new(3, key("abcd")).with_attempt(meta(10, 2));
        let mut wire = encode_request(&req);
        // Byte 12 is the flags byte; only bit 0 is defined today.
        for bad in [0x02u8, 0x80, 0xff] {
            assert_mutation_rejected(&mut wire, 12, bad, "reserved deadline flag");
        }
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn deadline_request_rejects_truncation_at_every_length() {
        let req = QosRequest::new(9, key("some-user")).with_attempt(meta(600, 77));
        let wire = encode_request(&req);
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
    }

    fn lease(slice: u64, rate: u64, ttl_us: u32, epoch: u32) -> Lease {
        Lease::new(
            Credits::from_whole(slice),
            RefillRate::per_second(rate),
            ttl_us,
            epoch,
        )
    }

    #[test]
    fn lease_request_roundtrip() {
        let req = QosRequest::new(42, key("alice:photos")).with_lease(LeaseReport::soliciting(7));
        let wire = encode_request(&req);
        assert_eq!(wire[3], KIND_REQUEST_LEASE);
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn lease_request_composes_with_hint_and_deadline() {
        let req = QosRequest::soliciting_hint(7, key("bob"))
            .with_attempt(meta(100, 3))
            .with_lease(LeaseReport::returning(9, 2, 55, true));
        let wire = encode_request(&req);
        // One frame kind carries all three extensions; the hint and the
        // attempt ride the flags byte instead of more kinds.
        assert_eq!(wire[3], KIND_REQUEST_LEASE);
        assert_eq!(wire[12], 0x01 | 0x02 | 0x04 | 0x08, "all flag bits set");
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn lease_response_roundtrip() {
        for verdict in [Verdict::Allow, Verdict::Deny] {
            let resp = QosResponse::new(7, verdict).with_lease(lease(4, 2, 20_000, 1));
            let wire = encode_response(&resp);
            assert_eq!(wire[3], KIND_RESPONSE_LEASE);
            assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
        }
    }

    #[test]
    fn lease_response_composes_with_hint() {
        let resp = QosResponse::allow(3)
            .with_lease(lease(4, 2, 20_000, 5))
            .with_hint(hint(100, 40));
        let wire = encode_response(&resp);
        assert_eq!(wire[3], KIND_RESPONSE_LEASE);
        assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
    }

    #[test]
    fn uuid_lease_request_is_70_bytes() {
        let req = QosRequest::new(1, key("00000000-0000-0000-0000-000000000000"))
            .with_lease(LeaseReport::soliciting(1));
        assert_eq!(encode_request(&req).len(), 70);
    }

    #[test]
    fn lease_response_sizes_are_pinned() {
        assert_eq!(
            encode_response(&QosResponse::allow(1).with_lease(lease(4, 2, 1000, 1))).len(),
            38
        );
        let both = QosResponse::allow(1)
            .with_lease(lease(4, 2, 1000, 1))
            .with_hint(hint(10, 5));
        assert_eq!(encode_response(&both).len(), 54);
    }

    #[test]
    fn lease_unaware_wire_format_is_unchanged() {
        // Direction 1 of the compatibility contract: peers that never use
        // leases emit byte-for-byte the pre-lease frames, so old and new
        // receivers see identical datagrams.
        assert_eq!(
            encode_request(&QosRequest::new(42, key("alice")))[3],
            KIND_REQUEST
        );
        assert_eq!(
            encode_request(&QosRequest::soliciting_hint(42, key("alice")))[3],
            KIND_REQUEST_HINT
        );
        assert_eq!(
            encode_request(&QosRequest::new(42, key("alice")).with_attempt(meta(5, 1)))[3],
            KIND_REQUEST_DEADLINE
        );
        assert_eq!(
            encode_response(&QosResponse::allow(42).with_hint(hint(1, 1)))[3],
            KIND_RESPONSE_HINT
        );
    }

    #[test]
    fn lease_fallback_frame_matches_lease_free_encoding() {
        // Direction 2: against a lease-unaware server the lease-capable
        // client's retry frame (`without_lease`) must be exactly the
        // lease-free frame that server understands.
        let leased = QosRequest::soliciting_hint(9, key("bob"))
            .with_attempt(meta(50, 1))
            .with_lease(LeaseReport::soliciting(4));
        assert_eq!(
            encode_request(&leased.without_lease()),
            encode_request(&QosRequest::soliciting_hint(9, key("bob")).with_attempt(meta(50, 1)))
        );
        // And the final-attempt downgrade is exactly the legacy v1 frame.
        assert_eq!(
            encode_request(&leased.without_lease().without_attempt().without_hint()),
            encode_request(&QosRequest::new(9, key("bob")))
        );
    }

    #[test]
    fn lease_request_rejects_unknown_flag_bits() {
        let req = QosRequest::new(3, key("abcd")).with_lease(LeaseReport::soliciting(2));
        let mut wire = encode_request(&req);
        // Byte 12 is the flags byte; only bits 0..=3 are defined today.
        for bad in [0x10u8, 0x80, 0xff] {
            assert_mutation_rejected(&mut wire, 12, bad, "reserved lease flag");
        }
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn lease_request_rejects_deadline_fields_without_attempt_flag() {
        // A lease frame without the attempt flag must carry zeroed
        // deadline fields: anything else is a non-canonical encoding.
        let req = QosRequest::new(3, key("abcd")).with_lease(LeaseReport::soliciting(2));
        let mut wire = encode_request(&req);
        assert_mutation_rejected(&mut wire, 13, 1, "budget without attempt flag");
        assert_mutation_rejected(&mut wire, 17, 1, "nonce without attempt flag");
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req));
    }

    #[test]
    fn lease_grant_rejects_unknown_flag_bits() {
        let resp = QosResponse::allow(5).with_lease(lease(4, 2, 1000, 1));
        let mut wire = encode_response(&resp);
        // Byte 13 is the grant flags byte; only bit 0 is defined today.
        for bad in [0x02u8, 0x80, 0xff] {
            assert_mutation_rejected(&mut wire, 13, bad, "reserved grant flag");
        }
        assert_eq!(decode(&wire).unwrap(), Frame::Response(resp));
    }

    #[test]
    fn lease_frames_reject_truncation_at_every_length() {
        let req = QosRequest::new(9, key("some-user"))
            .with_attempt(meta(600, 77))
            .with_lease(LeaseReport::renewing(1, 1, 5));
        let wire = encode_request(&req);
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
        let resp = QosResponse::allow(5)
            .with_lease(lease(7, 3, 500, 2))
            .with_hint(hint(7, 3));
        let wire = encode_response(&resp);
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
    }

    /// A datagram in the retired batch format (kind 0x03): an item count,
    /// then each item's kind byte and payload. Built by hand, since no
    /// encoder emits it any more.
    fn former_batch_datagram(items: &[Frame]) -> Vec<u8> {
        let mut wire = vec![0x4A, 0x51, VERSION, 0x03];
        wire.extend_from_slice(&(items.len() as u16).to_be_bytes());
        for item in items {
            // A single frame is its header (4 bytes, the kind last)
            // followed by the payload an item carries.
            wire.extend_from_slice(&encode(item)[3..]);
        }
        wire
    }

    #[test]
    fn decode_rejects_batch_frames() {
        let wire = former_batch_datagram(&[
            Frame::Response(QosResponse::allow(1)),
            Frame::Response(QosResponse::allow(2)),
        ]);
        assert_eq!(&wire[..6], &[0x4A, 0x51, 0x01, 0x03, 0x00, 0x02]);
        assert_eq!(wire.len(), 6 + 2 * 10);
        let err = decode(&wire).unwrap_err().to_string();
        assert!(err.contains("unknown frame kind 0x03"), "{err}");
        // Not even a one-item batch, or the bare header, parses.
        let one = former_batch_datagram(&[Frame::Request(QosRequest::new(7, key("alice")))]);
        assert!(decode(&one).is_err());
        assert!(decode(&wire[..4]).is_err());
    }

    #[test]
    fn decode_of_inline_key_request_makes_zero_allocations() {
        // The acceptance bar for the zero-allocation request path: a
        // request frame whose key fits the inline representation decodes
        // without touching the heap at all. `QosKey` stores ≤ 23 bytes
        // inline and the parser borrows straight from the datagram.
        let req = QosRequest::new(77, key("tenant-1234567890"));
        assert!(req.key.is_inline());
        let wire = encode_request(&req);
        // Warm up once outside the counted window (thread-locals, lazy
        // runtime bits).
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req.clone()));
        let allocs = crate::alloc_counter::allocations_during(|| {
            let frame = decode(&wire).unwrap();
            assert!(matches!(frame, Frame::Request(_)));
        });
        assert_eq!(
            allocs, 0,
            "inline-key request decode allocated {allocs} times"
        );
    }

    #[test]
    fn decode_of_heap_key_request_allocates_exactly_the_key() {
        // Sanity check that the counting harness counts: a key longer
        // than the inline budget costs exactly one Arc allocation.
        let req = QosRequest::new(78, key(&"x".repeat(64)));
        let wire = encode_request(&req);
        assert_eq!(decode(&wire).unwrap(), Frame::Request(req.clone()));
        let allocs = crate::alloc_counter::allocations_during(|| {
            let frame = decode(&wire).unwrap();
            assert!(matches!(frame, Frame::Request(_)));
        });
        assert_eq!(
            allocs, 1,
            "heap-key request decode allocated {allocs} times"
        );
    }

    // Seeded property loops (fixed seeds, `CASES` cases each): the
    // generators below are the input distributions.

    fn any_key(rng: &mut TestRng, max_len: usize) -> QosKey {
        key(&rng.printable(1, max_len))
    }

    fn any_attempt(rng: &mut TestRng) -> AttemptMeta {
        AttemptMeta::new(rng.next_u64() as u32, rng.next_u64() as u32)
    }

    fn any_hint(rng: &mut TestRng) -> RuleHint {
        RuleHint::new(
            Credits::from_micro(rng.next_u64()),
            RefillRate::from_micro_per_sec(rng.next_u64()),
        )
    }

    /// A request of kind 0x01, 0x04 or 0x06 (`with_attempt` picks 0x06).
    fn any_request(rng: &mut TestRng, with_attempt: bool) -> QosRequest {
        let id = rng.next_u64();
        let k = any_key(rng, MAX_KEY_BYTES);
        let mut req = if rng.coin() {
            QosRequest::soliciting_hint(id, k)
        } else {
            QosRequest::new(id, k)
        };
        if with_attempt {
            req = req.with_attempt(any_attempt(rng));
        }
        req
    }

    /// A response of kind 0x02 or 0x05.
    fn any_response(rng: &mut TestRng) -> QosResponse {
        let mut resp = QosResponse::new(rng.next_u64(), Verdict::from_bool(rng.coin()));
        if rng.coin() {
            resp = resp.with_hint(any_hint(rng));
        }
        resp
    }

    fn any_bytes(rng: &mut TestRng, max_len: u64) -> Vec<u8> {
        (0..rng.below(max_len))
            .map(|_| rng.next_u64() as u8)
            .collect()
    }

    #[test]
    fn decoders_never_panic_on_garbage() {
        let mut rng = TestRng::new(0xC0DE_C002);
        for _ in 0..CASES {
            let _ = decode(&any_bytes(&mut rng, 2000));
            let _ = decode(&any_bytes(&mut rng, 600));
        }
    }

    #[test]
    fn decoders_never_panic_on_corrupted_valid_frames() {
        // Garbage rarely gets past the magic; a valid frame with a few
        // bytes flipped reaches every parser branch.
        let mut rng = TestRng::new(0xC0DE_C003);
        for _ in 0..CASES {
            let req = any_request(&mut rng, true).with_lease(any_lease_report(&mut rng));
            let resp = any_response(&mut rng).with_lease(any_lease(&mut rng));
            let batch =
                former_batch_datagram(&[Frame::Request(req.clone()), Frame::Response(resp)]);
            for mut wire in [encode_request(&req), encode_response(&resp), batch] {
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(wire.len() as u64) as usize;
                    wire[at] = rng.next_u64() as u8;
                }
                wire.truncate(1 + rng.below(wire.len() as u64) as usize);
                let _ = decode(&wire);
            }
        }
    }

    fn any_lease_report(rng: &mut TestRng) -> LeaseReport {
        LeaseReport {
            holder: rng.next_u64() as u32,
            epoch: rng.next_u64() as u32,
            spent: rng.next_u64() as u32,
            solicit: rng.coin(),
            giving_back: rng.coin(),
        }
    }

    fn any_lease(rng: &mut TestRng) -> Lease {
        Lease::new(
            Credits::from_micro(rng.next_u64()),
            RefillRate::from_micro_per_sec(rng.next_u64()),
            rng.next_u64() as u32,
            rng.next_u64() as u32,
        )
    }

    /// Encode, decode, and check every strict prefix is rejected.
    fn assert_roundtrip_and_truncation(frame: Frame) {
        let wire = encode(&frame);
        assert_eq!(decode(&wire).unwrap(), frame);
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "accepted {cut}-byte prefix");
        }
    }

    #[test]
    fn any_request_of_every_kind_roundtrips_and_rejects_truncation() {
        let mut rng = TestRng::new(0xC0DE_C005);
        for case in 0..4 * CASES {
            // Kinds 0x01/0x04, 0x06, and 0x07 with and without the
            // attempt flag, in turn.
            let mut req = any_request(&mut rng, case % 4 == 1 || case % 4 == 3);
            if case % 4 >= 2 {
                req = req.with_lease(any_lease_report(&mut rng));
            }
            let expected = [
                if req.solicit_hint {
                    KIND_REQUEST_HINT
                } else {
                    KIND_REQUEST
                },
                KIND_REQUEST_DEADLINE,
                KIND_REQUEST_LEASE,
                KIND_REQUEST_LEASE,
            ][case % 4];
            assert_eq!(encode_request(&req)[3], expected);
            assert_roundtrip_and_truncation(Frame::Request(req));
        }
    }

    #[test]
    fn any_response_of_every_kind_roundtrips_and_rejects_truncation() {
        let mut rng = TestRng::new(0xC0DE_C006);
        for case in 0..2 * CASES {
            // Kinds 0x02/0x05 on even cases, 0x08 (with or without a
            // trailing hint) on odd ones.
            let mut resp = any_response(&mut rng);
            if case % 2 == 1 {
                resp = resp.with_lease(any_lease(&mut rng));
            }
            let expected = match (resp.lease.is_some(), resp.hint.is_some()) {
                (true, _) => KIND_RESPONSE_LEASE,
                (false, true) => KIND_RESPONSE_HINT,
                (false, false) => KIND_RESPONSE,
            };
            assert_eq!(encode_response(&resp)[3], expected);
            assert_roundtrip_and_truncation(Frame::Response(resp));
        }
    }
}
