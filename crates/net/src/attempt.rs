//! The retry-attempt schedule as a sans-IO core.
//!
//! The paper's discipline — up to 1 + `max_retries` attempts, each waiting
//! one timeout — grew three refinements that all change *which frame* an
//! attempt puts on the wire: hint solicitation downgrades to a plain frame
//! on retries, deadline propagation stamps every non-final attempt with
//! the remaining budget and a logical-request nonce, and the final stamped
//! attempt falls back to a legacy frame a deadline-unaware server still
//! understands. That frame-selection logic used to live inline in the
//! transport's attempt loop; [`AttemptPlan`] extracts it into one pure
//! state machine over an injected clock so both socket strategies of
//! [`crate::udp::UdpRpcClient`] (socket per request, shared socket) and
//! the deterministic simulator provably send the same attempt sequence.
//! No sockets, no tasks, no wall clock.

use janus_clock::Nanos;
use janus_types::{AttemptMeta, QosRequest};
use std::time::Duration;

/// What one attempt slot should do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptStep {
    /// Put this frame on the wire and wait one attempt timeout.
    Send(QosRequest),
    /// The end-to-end budget is already spent: stop retrying — nobody is
    /// waiting for a later answer.
    BudgetSpent,
}

/// The pure attempt schedule of one logical admission request.
///
/// Construct once per call, then ask [`request_for`](Self::request_for)
/// what each attempt `0..attempts()` should send, passing the current
/// time. The plan never reads a clock itself, which is what lets the
/// simulator replay it at virtual time.
#[derive(Debug, Clone)]
pub struct AttemptPlan {
    base: QosRequest,
    attempts: u32,
    /// `(started, total budget, nonce)` when propagating deadlines.
    deadline: Option<(Nanos, Duration, u32)>,
}

impl AttemptPlan {
    /// A plan without deadline stamping: attempt 0 sends `base` verbatim
    /// (possibly soliciting a hint), retries downgrade to the plain frame.
    pub fn plain(base: QosRequest, attempts: u32) -> Self {
        AttemptPlan {
            base,
            attempts,
            deadline: None,
        }
    }

    /// A deadline-propagating plan: attempts `0..attempts-1` are stamped
    /// with the budget remaining at send time and `nonce`; the final
    /// attempt downgrades to a legacy frame; retries stop once `total`
    /// has elapsed since `started`.
    pub fn stamped(
        base: QosRequest,
        attempts: u32,
        started: Nanos,
        total: Duration,
        nonce: u32,
    ) -> Self {
        AttemptPlan {
            base,
            attempts,
            deadline: Some((started, total, nonce)),
        }
    }

    /// Total attempt slots (first try + retries).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The nonce stamped on this logical request, if deadline-propagating.
    pub fn nonce(&self) -> Option<u32> {
        self.deadline.map(|(_, _, nonce)| nonce)
    }

    /// Clamp a proposed inter-attempt pause (jittered backoff, hedge
    /// delay) to the budget remaining at `now`.
    ///
    /// A jittered exponential backoff can propose a sleep that ends past
    /// the deadline — the transport would then sleep, wake, and only
    /// *afterwards* learn from [`AttemptStep::BudgetSpent`] that nobody
    /// was waiting, having held the socket and the task for dead time.
    /// Clamping keeps the wake-up at the deadline edge, where the budget
    /// check stops the call immediately. Plans without a deadline have
    /// nothing to clamp against and return `proposed` unchanged.
    pub fn clamped_pause(&self, proposed: Duration, now: Nanos) -> Duration {
        match self.deadline {
            Some((started, total, _)) => {
                let remaining = total.saturating_sub(now.saturating_since(started));
                proposed.min(remaining)
            }
            None => proposed,
        }
    }

    /// The frame a *hedge* of attempt `attempt` should send at `now`:
    /// the same attempt re-presented — same nonce, budget restamped to
    /// what actually remains — so the server's dedup window answers the
    /// losing copy from the cache and the pair consumes one credit.
    ///
    /// Refused (`None`) for plans without a deadline stamp: an unstamped
    /// frame carries no nonce, the dedup window cannot pair the copies,
    /// and a hedge would risk a second charge. Also refused once the
    /// budget is spent — nobody is waiting for a later answer.
    pub fn hedge_for(&self, attempt: u32, now: Nanos) -> Option<QosRequest> {
        let (started, total, _) = self.deadline?;
        if now.saturating_since(started) >= total {
            return None;
        }
        match self.request_for(attempt, now) {
            AttemptStep::Send(frame) => Some(frame),
            AttemptStep::BudgetSpent => None,
        }
    }

    /// The frame attempt number `attempt` (0-based) should send at `now`,
    /// or [`AttemptStep::BudgetSpent`] when retrying must stop.
    pub fn request_for(&self, attempt: u32, now: Nanos) -> AttemptStep {
        match self.deadline {
            Some((started, total, nonce)) => {
                let elapsed = now.saturating_since(started);
                if attempt > 0 && elapsed >= total {
                    return AttemptStep::BudgetSpent;
                }
                if attempt + 1 < self.attempts {
                    let remaining = total.saturating_sub(elapsed).as_micros();
                    let budget_us = remaining.clamp(1, u128::from(u32::MAX)) as u32;
                    let mut stamped = if attempt == 0 {
                        self.base.clone()
                    } else {
                        // Retries downgrade both optimistic extensions:
                        // the hint solicitation and the lease report.
                        self.base.without_hint().without_lease()
                    };
                    stamped.attempt = Some(AttemptMeta::new(budget_us, nonce));
                    AttemptStep::Send(stamped)
                } else {
                    // Final attempt: the legacy frame an old,
                    // deadline- and lease-unaware server still
                    // understands.
                    AttemptStep::Send(self.base.without_attempt().without_hint().without_lease())
                }
            }
            None => {
                if (self.base.solicit_hint || self.base.lease.is_some()) && attempt > 0 {
                    AttemptStep::Send(self.base.without_hint().without_lease())
                } else {
                    AttemptStep::Send(self.base.clone())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::QosKey;

    fn base(solicit: bool) -> QosRequest {
        let key = QosKey::new("alice:photos").unwrap();
        if solicit {
            QosRequest::soliciting_hint(7, key)
        } else {
            QosRequest::new(7, key)
        }
    }

    fn sent(step: AttemptStep) -> QosRequest {
        match step {
            AttemptStep::Send(req) => req,
            AttemptStep::BudgetSpent => panic!("expected a frame, got BudgetSpent"),
        }
    }

    const T0: Nanos = Nanos::from_secs(5);

    #[test]
    fn plain_plan_repeats_the_request() {
        let plan = AttemptPlan::plain(base(false), 3);
        for attempt in 0..3 {
            assert_eq!(sent(plan.request_for(attempt, T0)), base(false));
        }
    }

    #[test]
    fn soliciting_plan_downgrades_on_retry() {
        let plan = AttemptPlan::plain(base(true), 3);
        assert!(sent(plan.request_for(0, T0)).solicit_hint);
        for attempt in 1..3 {
            let req = sent(plan.request_for(attempt, T0));
            assert!(!req.solicit_hint, "retry {attempt} must not solicit");
            assert_eq!(req.id, 7);
        }
    }

    #[test]
    fn stamped_plan_stamps_all_but_final_attempt() {
        let plan = AttemptPlan::stamped(base(true), 3, T0, Duration::from_micros(600), 42);
        let first = sent(plan.request_for(0, T0));
        assert!(first.solicit_hint, "attempt 0 keeps the solicitation");
        assert_eq!(first.attempt, Some(AttemptMeta::new(600, 42)));

        let at = T0.saturating_add(Duration::from_micros(250));
        let second = sent(plan.request_for(1, at));
        assert!(
            !second.solicit_hint,
            "stamped retries drop the solicitation"
        );
        assert_eq!(second.attempt, Some(AttemptMeta::new(350, 42)));

        let last = sent(plan.request_for(2, at));
        assert_eq!(last.attempt, None, "final attempt is a legacy frame");
        assert!(!last.solicit_hint);
    }

    #[test]
    fn lease_report_rides_only_the_first_attempt() {
        use janus_types::LeaseReport;
        let leased = base(true).with_lease(LeaseReport::soliciting(3));
        // Plain plan: retries drop the lease with the hint.
        let plan = AttemptPlan::plain(leased.clone(), 3);
        assert!(sent(plan.request_for(0, T0)).lease.is_some());
        for attempt in 1..3 {
            let req = sent(plan.request_for(attempt, T0));
            assert_eq!(req.lease, None, "retry {attempt} must not carry the lease");
            assert!(!req.solicit_hint);
        }
        // Stamped plan: same discipline, and the final legacy attempt is
        // free of all three extensions.
        let plan = AttemptPlan::stamped(leased, 3, T0, Duration::from_micros(600), 42);
        assert!(sent(plan.request_for(0, T0)).lease.is_some());
        let retry = sent(plan.request_for(1, T0));
        assert_eq!(retry.lease, None);
        assert!(retry.attempt.is_some(), "retries keep the deadline stamp");
        let last = sent(plan.request_for(2, T0));
        assert_eq!((last.lease, last.attempt), (None, None));
        assert!(!last.solicit_hint);
    }

    #[test]
    fn stamped_plan_stops_once_budget_is_spent() {
        let plan = AttemptPlan::stamped(base(false), 4, T0, Duration::from_micros(100), 9);
        let late = T0.saturating_add(Duration::from_micros(100));
        assert_eq!(plan.request_for(1, late), AttemptStep::BudgetSpent);
        // Attempt 0 always sends — the budget check only gates retries.
        assert!(matches!(plan.request_for(0, late), AttemptStep::Send(_)));
    }

    #[test]
    fn stamped_budget_is_floored_at_one_microsecond() {
        let plan = AttemptPlan::stamped(base(false), 3, T0, Duration::from_micros(50), 1);
        // Elapsed == budget exactly: attempt 0 still sends, with the
        // 1 µs floor (a zero budget would mean "already expired" to the
        // server).
        let req = sent(plan.request_for(0, T0.saturating_add(Duration::from_micros(50))));
        assert_eq!(req.attempt.unwrap().budget_us, 1);
    }

    #[test]
    fn backoff_pause_is_clamped_to_the_remaining_budget() {
        let plan = AttemptPlan::stamped(base(false), 4, T0, Duration::from_micros(100), 9);
        let at = T0.saturating_add(Duration::from_micros(60));
        // A jittered backoff proposing 1 ms must wake at the deadline
        // edge (40 µs away), not 960 µs past it.
        assert_eq!(
            plan.clamped_pause(Duration::from_millis(1), at),
            Duration::from_micros(40)
        );
        // A pause already inside the budget is untouched.
        assert_eq!(
            plan.clamped_pause(Duration::from_micros(10), at),
            Duration::from_micros(10)
        );
    }

    #[test]
    fn pause_after_budget_spent_is_zero() {
        let plan = AttemptPlan::stamped(base(false), 4, T0, Duration::from_micros(100), 9);
        let late = T0.saturating_add(Duration::from_micros(250));
        assert_eq!(
            plan.clamped_pause(Duration::from_millis(1), late),
            Duration::ZERO
        );
        // …and the very next schedule query stops the call.
        assert_eq!(plan.request_for(1, late), AttemptStep::BudgetSpent);
    }

    #[test]
    fn plain_plan_has_no_budget_to_clamp_against() {
        let plan = AttemptPlan::plain(base(false), 3);
        let late = T0.saturating_add(Duration::from_secs(10));
        assert_eq!(
            plan.clamped_pause(Duration::from_millis(7), late),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn hedge_reuses_the_attempt_nonce_with_a_restamped_budget() {
        let plan = AttemptPlan::stamped(base(true), 3, T0, Duration::from_micros(600), 42);
        let first = sent(plan.request_for(0, T0));
        assert_eq!(first.attempt, Some(AttemptMeta::new(600, 42)));
        // Hedge fired 200 µs in: same id, same nonce, budget restamped
        // to what actually remains.
        let hedge = plan
            .hedge_for(0, T0.saturating_add(Duration::from_micros(200)))
            .expect("budget remains");
        assert_eq!(hedge.id, first.id);
        assert_eq!(hedge.attempt, Some(AttemptMeta::new(400, 42)));
    }

    #[test]
    fn hedge_of_an_unstamped_plan_is_refused() {
        // No deadline stamp ⇒ no nonce ⇒ the dedup window could not pair
        // the copies, so the hedge must not be sent at all.
        let plan = AttemptPlan::plain(base(false), 3);
        assert_eq!(plan.hedge_for(0, T0), None);
    }

    #[test]
    fn hedge_after_budget_spent_is_refused() {
        let plan = AttemptPlan::stamped(base(false), 3, T0, Duration::from_micros(100), 9);
        let late = T0.saturating_add(Duration::from_micros(100));
        assert_eq!(plan.hedge_for(0, late), None);
        assert_eq!(plan.hedge_for(1, late), None);
    }

    #[test]
    fn nonce_is_stable_across_attempts() {
        let plan = AttemptPlan::stamped(base(false), 4, T0, Duration::from_millis(1), 1234);
        assert_eq!(plan.nonce(), Some(1234));
        for attempt in 0..3 {
            assert_eq!(
                sent(plan.request_for(attempt, T0)).attempt.unwrap().nonce,
                1234
            );
        }
        assert_eq!(AttemptPlan::plain(base(false), 2).nonce(), None);
    }
}
