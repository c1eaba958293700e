//! Default-rule policy for QoS keys absent from the database.
//!
//! When the database lookup for a key returns empty, the request may be a
//! guest/test access or an unauthorized one (paper §II-D). The service
//! provider chooses what happens: deny outright (zero capacity, zero
//! refill), grant limited access (small bucket), or wave everything
//! through (useful while onboarding Janus in shadow mode).

use janus_types::{Credits, QosKey, QosRule, RefillRate};

/// What a QoS server does with a key that has no rule in the database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DefaultRulePolicy {
    /// Zero capacity, zero refill: every request from unknown keys is
    /// denied.
    #[default]
    Deny,
    /// A small bucket: limited guest access.
    Limited {
        /// Burst allowance for unknown keys, in whole requests.
        capacity: u64,
        /// Sustained rate for unknown keys, requests per second.
        rate_per_sec: u64,
    },
    /// Admit everything (an effectively infinite bucket). Intended for
    /// shadow deployments where Janus observes but must not throttle.
    AllowAll,
}

impl DefaultRulePolicy {
    /// The paper's photo-sharing default: refill 10/s, capacity 100.
    pub fn paper_default() -> Self {
        DefaultRulePolicy::Limited {
            capacity: 100,
            rate_per_sec: 10,
        }
    }

    /// Materialize the rule this policy assigns to `key`.
    pub fn rule_for(&self, key: QosKey) -> QosRule {
        match *self {
            DefaultRulePolicy::Deny => QosRule::deny(key),
            DefaultRulePolicy::Limited {
                capacity,
                rate_per_sec,
            } => QosRule::per_second(key, capacity, rate_per_sec),
            DefaultRulePolicy::AllowAll => QosRule::new(
                key,
                Credits::from_whole(u64::MAX / janus_types::MICROCREDITS_PER_CREDIT),
                RefillRate::from_micro_per_sec(u64::MAX / 2),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeakyBucket;
    use janus_clock::Nanos;
    use janus_types::Verdict;

    fn key() -> QosKey {
        QosKey::new("unknown-visitor").unwrap()
    }

    #[test]
    fn deny_policy_denies() {
        let rule = DefaultRulePolicy::Deny.rule_for(key());
        assert!(rule.denies_everything());
        let mut b = LeakyBucket::from_rule(&rule, Nanos::ZERO);
        assert_eq!(b.try_consume(Nanos::from_secs(1000)), Verdict::Deny);
    }

    #[test]
    fn limited_policy_grants_bounded_access() {
        let rule = DefaultRulePolicy::paper_default().rule_for(key());
        assert_eq!(rule.capacity, Credits::from_whole(100));
        assert_eq!(rule.refill_rate, RefillRate::per_second(10));
        let mut b = LeakyBucket::from_rule(&rule, Nanos::ZERO);
        let admitted = (0..500)
            .filter(|_| b.try_consume(Nanos::ZERO) == Verdict::Allow)
            .count();
        assert_eq!(admitted, 100);
    }

    #[test]
    fn allow_all_admits_sustained_floods() {
        let rule = DefaultRulePolicy::AllowAll.rule_for(key());
        let mut b = LeakyBucket::from_rule(&rule, Nanos::ZERO);
        for i in 0..100_000u64 {
            assert_eq!(
                b.try_consume(Nanos::from_micros(i)),
                Verdict::Allow,
                "denied at request {i}"
            );
        }
    }

    #[test]
    fn default_is_deny() {
        assert_eq!(DefaultRulePolicy::default(), DefaultRulePolicy::Deny);
    }
}
