//! The key-value admission request/response protocol.

use crate::{Credits, QosKey, RefillRate};
use std::fmt;

/// Correlates a response with its request across the UDP hop.
///
/// The request router retries lost datagrams, so a stale response from an
/// earlier attempt may arrive after a retry; the id lets the router accept
/// any response for the same logical request and discard cross-talk.
pub type RequestId = u64;

/// The admission decision. The paper's QoS response is a boolean; `Verdict`
/// names the two values to keep call sites readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// TRUE — admit the request.
    Allow,
    /// FALSE — throttle the request.
    Deny,
}

impl Verdict {
    /// Boolean form (TRUE = allow), as surfaced to QoS clients.
    pub const fn as_bool(self) -> bool {
        matches!(self, Verdict::Allow)
    }

    /// From the client-facing boolean.
    pub const fn from_bool(allow: bool) -> Self {
        if allow {
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Allow => "TRUE",
            Verdict::Deny => "FALSE",
        })
    }
}

impl From<Verdict> for bool {
    fn from(v: Verdict) -> bool {
        v.as_bool()
    }
}

impl From<bool> for Verdict {
    fn from(b: bool) -> Verdict {
        Verdict::from_bool(b)
    }
}

/// The shape of the rule a verdict was decided under: bucket capacity and
/// refill rate, without the live credit (which only the owning QoS server
/// may spend).
///
/// A QoS server attaches a hint to its response when the request solicited
/// one, letting routers passively learn the rules they forward. During a
/// partition brownout a router divides the hinted shape by the fleet size
/// and serves *degraded local admission* from a router-local bucket, so N
/// stateless routers jointly approximate the purchased rate instead of
/// falling back to a blind default reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleHint {
    /// Bucket capacity of the rule in force.
    pub capacity: Credits,
    /// Refill rate of the rule in force.
    pub refill_rate: RefillRate,
}

impl RuleHint {
    /// A hint advertising the given shape.
    pub fn new(capacity: Credits, refill_rate: RefillRate) -> Self {
        RuleHint {
            capacity,
            refill_rate,
        }
    }

    /// The shape divided across `n` enforcers (degraded local admission:
    /// each of N routers enforces 1/N of the purchased rate). `n` is
    /// clamped to at least 1.
    pub fn split_across(self, n: usize) -> Self {
        let n = n.max(1) as u64;
        RuleHint {
            capacity: Credits::from_micro(self.capacity.as_micro() / n),
            refill_rate: RefillRate::from_micro_per_sec(self.refill_rate.micro_per_sec() / n),
        }
    }
}

/// Per-attempt overload-control metadata: how much of the router's
/// retry budget remains, and which logical request this attempt belongs
/// to.
///
/// The budget is *remaining microseconds*, re-stamped on every retry
/// (total budget minus elapsed), so every hop can shed work whose
/// router-side deadline already passed instead of burning CPU on an
/// answer nobody is waiting for. The nonce is drawn once per logical
/// request and reused verbatim across its retries; a server that
/// remembers recently-seen nonces can recognize a duplicate attempt and
/// return the cached verdict instead of charging the bucket twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptMeta {
    /// Remaining deadline budget in microseconds. Clients stamp at least
    /// 1 (a zero budget means "already expired — shed me").
    pub budget_us: u32,
    /// Logical-request nonce, constant across retries of one call.
    pub nonce: u32,
}

impl AttemptMeta {
    /// Metadata for one attempt of logical request `nonce` with
    /// `budget_us` microseconds of deadline budget remaining.
    pub fn new(budget_us: u32, nonce: u32) -> Self {
        AttemptMeta { budget_us, nonce }
    }
}

/// A short-TTL credit lease: a slice of one key's bucket delegated to a
/// single router so it can admit locally without a round trip.
///
/// The QoS server debits the authoritative bucket for the whole slice
/// (plus the refill share accrued over the TTL) *at grant time*, so the
/// router's local admissions are pre-paid: however the network behaves,
/// delegated admits can never exceed credit already removed from the
/// authoritative bucket. `epoch` is the key's lease generation — the
/// server bumps it when the rule changes, which invalidates every
/// outstanding lease for the key (routers notice the bump on their next
/// grant and drop the stale lease; until then they burn at most the
/// already-debited slice, which is the Guan-style inaccuracy bound:
/// over-admission ≤ lease size × fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lease {
    /// Credit slice delegated to the holder (local bucket capacity).
    pub slice: Credits,
    /// The holder's share of the key's refill rate.
    pub refill: RefillRate,
    /// Lease validity in microseconds from receipt.
    pub ttl_us: u32,
    /// Lease generation of the key; a bump revokes all older leases.
    pub epoch: u32,
}

impl Lease {
    /// A lease delegating `slice` credits refilling at `refill` for
    /// `ttl_us` microseconds under generation `epoch`.
    pub fn new(slice: Credits, refill: RefillRate, ttl_us: u32, epoch: u32) -> Self {
        Lease {
            slice,
            refill,
            ttl_us,
            epoch,
        }
    }
}

/// The router → server half of the lease protocol, piggybacked on an
/// ordinary admission request: solicit a grant (or proactive renewal),
/// report how much of the current lease was spent, and optionally give
/// the lease back so unused credit folds into the authoritative bucket.
///
/// `spent` is *cumulative* for `(key, holder, epoch)`, never a delta, so
/// the reconciliation is idempotent under duplicated, reordered, or lost
/// frames: the server folds it in with `max`, and a lost report only
/// delays (never corrupts) the accounting.
///
/// On a return (`giving_back`) the counter field instead carries the
/// *unused remainder* the holder hands back. A returning holder has
/// already stopped admitting, so the remainder is provably dead credit —
/// the only amount the server can refund without double-counting. (A
/// `debited − spent` refund looks equivalent but is unsound: a grant
/// response still in flight at return time, or a holder counter that
/// restarted after a lost return, would let refunded credit be spent
/// again.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseReport {
    /// Stable identity of the reporting router node.
    pub holder: u32,
    /// Epoch of the lease being reported on (0 = none held).
    pub epoch: u32,
    /// Cumulative local admits under `(key, holder, epoch)`; on a
    /// `giving_back` report, the unused whole credits being returned.
    pub spent: u32,
    /// Ask the server for a grant or proactive renewal.
    pub solicit: bool,
    /// Return the lease: the holder has stopped admitting against it and
    /// hands back `spent` unused whole credits for the server to escrow.
    pub giving_back: bool,
}

impl LeaseReport {
    /// A report soliciting a first grant (no lease currently held).
    pub fn soliciting(holder: u32) -> Self {
        LeaseReport {
            holder,
            epoch: 0,
            spent: 0,
            solicit: true,
            giving_back: false,
        }
    }

    /// A renewal ask: still holding an `epoch` lease with `spent`
    /// cumulative admits, requesting a fresh slice.
    pub fn renewing(holder: u32, epoch: u32, spent: u32) -> Self {
        LeaseReport {
            holder,
            epoch,
            spent,
            solicit: true,
            giving_back: false,
        }
    }

    /// A return-and-reconcile: the holder dropped its `epoch` lease with
    /// `remaining` unused whole credits (and may solicit a fresh grant in
    /// the same frame).
    pub fn returning(holder: u32, epoch: u32, remaining: u32, solicit: bool) -> Self {
        LeaseReport {
            holder,
            epoch,
            spent: remaining,
            solicit,
            giving_back: true,
        }
    }
}

/// A QoS request: "may the holder of `key` make one more call?"
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosRequest {
    /// Retry-correlation id, unique per logical request per router node.
    pub id: RequestId,
    /// The QoS key to charge.
    pub key: QosKey,
    /// Ask the QoS server to include a [`RuleHint`] in its response. Off
    /// the wire this selects the hint-soliciting frame kind; a
    /// hint-unaware server ignores such a frame, so soliciting clients
    /// fall back to the plain frame on retries.
    pub solicit_hint: bool,
    /// Deadline budget and retry nonce for this attempt, when the client
    /// propagates them. Off the wire this selects the deadline frame
    /// kind; a deadline-unaware server drops that frame as garbage, so
    /// propagating clients fall back to a legacy frame on the final
    /// attempt.
    pub attempt: Option<AttemptMeta>,
    /// Lease solicitation / reconciliation piggybacked on this request.
    /// Off the wire this selects the lease frame kind; a lease-unaware
    /// server drops that frame as garbage, so lease-capable clients fall
    /// back to lease-free frames on retries.
    pub lease: Option<LeaseReport>,
}

impl QosRequest {
    /// A new request for `key` with correlation id `id`.
    pub fn new(id: RequestId, key: QosKey) -> Self {
        QosRequest {
            id,
            key,
            solicit_hint: false,
            attempt: None,
            lease: None,
        }
    }

    /// A request that also solicits a rule hint in the response.
    pub fn soliciting_hint(id: RequestId, key: QosKey) -> Self {
        QosRequest {
            id,
            key,
            solicit_hint: true,
            attempt: None,
            lease: None,
        }
    }

    /// This request carrying deadline budget and retry nonce.
    pub fn with_attempt(mut self, attempt: AttemptMeta) -> Self {
        self.attempt = Some(attempt);
        self
    }

    /// This request carrying a piggybacked lease report.
    pub fn with_lease(mut self, lease: LeaseReport) -> Self {
        self.lease = Some(lease);
        self
    }

    /// This request without the hint solicitation (the retry fallback
    /// frame understood by hint-unaware servers).
    pub fn without_hint(&self) -> Self {
        QosRequest {
            id: self.id,
            key: self.key.clone(),
            solicit_hint: false,
            attempt: self.attempt,
            lease: self.lease,
        }
    }

    /// This request without deadline metadata (the final-attempt fallback
    /// frame understood by deadline-unaware servers).
    pub fn without_attempt(&self) -> Self {
        QosRequest {
            id: self.id,
            key: self.key.clone(),
            solicit_hint: self.solicit_hint,
            attempt: None,
            lease: self.lease,
        }
    }

    /// This request without the lease report (the retry fallback frame
    /// understood by lease-unaware servers).
    pub fn without_lease(&self) -> Self {
        QosRequest {
            id: self.id,
            key: self.key.clone(),
            solicit_hint: self.solicit_hint,
            attempt: self.attempt,
            lease: None,
        }
    }
}

/// A QoS response carrying the admission verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosResponse {
    /// Echoes [`QosRequest::id`].
    pub id: RequestId,
    /// The decision.
    pub verdict: Verdict,
    /// The shape of the rule the verdict was decided under, present only
    /// when the request solicited it and a rule was in force.
    pub hint: Option<RuleHint>,
    /// A credit lease granted (or renewed) in answer to a piggybacked
    /// [`LeaseReport`], present only when the request solicited one and
    /// the server chose to delegate.
    pub lease: Option<Lease>,
}

impl QosResponse {
    /// A new response answering request `id`.
    pub fn new(id: RequestId, verdict: Verdict) -> Self {
        QosResponse {
            id,
            verdict,
            hint: None,
            lease: None,
        }
    }

    /// This response with a rule hint attached.
    pub fn with_hint(mut self, hint: RuleHint) -> Self {
        self.hint = Some(hint);
        self
    }

    /// This response with a credit lease attached.
    pub fn with_lease(mut self, lease: Lease) -> Self {
        self.lease = Some(lease);
        self
    }

    /// An `Allow` response for request `id`.
    pub fn allow(id: RequestId) -> Self {
        QosResponse::new(id, Verdict::Allow)
    }

    /// A `Deny` response for request `id`.
    pub fn deny(id: RequestId) -> Self {
        QosResponse::new(id, Verdict::Deny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_bool_roundtrip() {
        assert!(Verdict::Allow.as_bool());
        assert!(!Verdict::Deny.as_bool());
        assert_eq!(Verdict::from_bool(true), Verdict::Allow);
        assert_eq!(Verdict::from_bool(false), Verdict::Deny);
        assert!(bool::from(Verdict::Allow));
        assert_eq!(Verdict::from(false), Verdict::Deny);
    }

    #[test]
    fn verdict_displays_as_paper_booleans() {
        assert_eq!(Verdict::Allow.to_string(), "TRUE");
        assert_eq!(Verdict::Deny.to_string(), "FALSE");
    }

    #[test]
    fn response_constructors() {
        assert_eq!(QosResponse::allow(7).verdict, Verdict::Allow);
        assert_eq!(QosResponse::deny(7).verdict, Verdict::Deny);
        assert_eq!(QosResponse::allow(7).id, 7);
        assert_eq!(QosResponse::allow(7).hint, None);
    }

    #[test]
    fn hint_solicitation_constructors() {
        let key = QosKey::new("k").unwrap();
        assert!(!QosRequest::new(1, key.clone()).solicit_hint);
        let soliciting = QosRequest::soliciting_hint(1, key);
        assert!(soliciting.solicit_hint);
        let plain = soliciting.without_hint();
        assert!(!plain.solicit_hint);
        assert_eq!(plain.id, soliciting.id);
        assert_eq!(plain.key, soliciting.key);
    }

    #[test]
    fn attempt_meta_constructors() {
        let key = QosKey::new("k").unwrap();
        let plain = QosRequest::new(1, key.clone());
        assert_eq!(plain.attempt, None);
        let stamped = plain.clone().with_attempt(AttemptMeta::new(400, 0xBEEF));
        assert_eq!(stamped.attempt, Some(AttemptMeta::new(400, 0xBEEF)));
        // The final-attempt fallback strips the metadata but keeps the
        // rest of the request intact.
        let fallback = stamped.without_attempt();
        assert_eq!(fallback, plain);
        // Stripping the hint preserves the attempt metadata: the two
        // extensions downgrade independently.
        let both = QosRequest::soliciting_hint(2, key).with_attempt(AttemptMeta::new(9, 9));
        let hintless = both.without_hint();
        assert!(!hintless.solicit_hint);
        assert_eq!(hintless.attempt, both.attempt);
    }

    #[test]
    fn lease_report_constructors() {
        let first = LeaseReport::soliciting(3);
        assert!(first.solicit && !first.giving_back);
        assert_eq!((first.epoch, first.spent), (0, 0));
        let renew = LeaseReport::renewing(3, 2, 17);
        assert!(renew.solicit && !renew.giving_back);
        assert_eq!((renew.epoch, renew.spent), (2, 17));
        let ret = LeaseReport::returning(3, 2, 20, true);
        assert!(ret.solicit && ret.giving_back);
    }

    #[test]
    fn lease_extension_downgrades_independently() {
        let key = QosKey::new("k").unwrap();
        let plain = QosRequest::new(1, key.clone());
        assert_eq!(plain.lease, None);
        let leased = QosRequest::soliciting_hint(1, key)
            .with_attempt(AttemptMeta::new(400, 9))
            .with_lease(LeaseReport::soliciting(5));
        // Stripping one extension preserves the other two.
        let no_hint = leased.without_hint();
        assert!(!no_hint.solicit_hint);
        assert_eq!(no_hint.attempt, leased.attempt);
        assert_eq!(no_hint.lease, leased.lease);
        let no_attempt = leased.without_attempt();
        assert!(no_attempt.solicit_hint);
        assert_eq!(no_attempt.lease, leased.lease);
        let no_lease = leased.without_lease();
        assert!(no_lease.solicit_hint);
        assert_eq!(no_lease.attempt, leased.attempt);
        assert_eq!(no_lease.lease, None);
    }

    #[test]
    fn response_lease_attachment() {
        let lease = Lease::new(Credits::from_whole(4), RefillRate::per_second(2), 20_000, 1);
        let resp = QosResponse::allow(7).with_lease(lease);
        assert_eq!(resp.lease, Some(lease));
        assert_eq!(QosResponse::allow(7).lease, None);
    }

    #[test]
    fn hint_splits_across_fleet() {
        let hint = RuleHint::new(Credits::from_whole(100), RefillRate::per_second(40));
        let quarter = hint.split_across(4);
        assert_eq!(quarter.capacity, Credits::from_whole(25));
        assert_eq!(quarter.refill_rate, RefillRate::per_second(10));
        // Degenerate fleet sizes clamp to identity.
        assert_eq!(hint.split_across(0), hint);
        assert_eq!(hint.split_across(1), hint);
    }
}
