//! The benchmark's metric vocabulary. `BENCHMARK.json` lists exactly
//! these names and units (`harness check-manifest` verifies it), and a
//! [`Report`] refuses any name not declared here — so a typo fails the
//! run instead of silently dropping a metric.

use crate::json::Json;

/// `(name, unit)` of every end-to-end metric, printed on `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("cpu_ns_per_decision", "ns"),
    ("rss_mb", "MB"),
];

/// The span names of one admission op, in the order the op runs them.
/// Index = position in [`crate::trace::SPAN_SEGMENTS`].
pub const SPANS: &[&str] = &[
    "workload.keys.pick",
    "clock.system.now",
    "router.core.begin",
    "router.core.discipline",
    "net.attempt.plan",
    "server.core.on_request",
    "server.core.poll_worker",
    "router.core.on_response",
    "router.core.record_rtt",
];

const PER_LAYER_FIXED: &[(&str, &str)] = &[
    // Reconciliation of the traced run against the untraced one.
    ("trace.span_sum_ns", "ns"),
    ("trace.unaccounted_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.timer_overhead_ns", "ns"),
    ("trace.sampled_ops", "count"),
    // Decision latency: reported, not gated. Over ten seeds p50 spread up
    // to 0.21 (`lease_hot`) and p99 up to 0.26 (`fast_deny`, futex
    // contention in a VM) — at or above the largest bound allowed.
    ("e2e.decision_p50_ns", "ns"),
    ("e2e.decision_p99_ns", "ns"),
    ("e2e.decision_p999_ns", "ns"),
    ("e2e.latency_samples", "count"),
    ("e2e.failed_share", "share"),
    // Isolated probes, ns per call, batches of 1,024.
    ("clock.now_ns", "ns"),
    ("types.key.new_ns", "ns"),
    ("hash.routing.route_ns", "ns"),
    ("bucket.table.decide_hit_ns", "ns"),
    ("bucket.table.decide_miss_ns", "ns"),
    ("bucket.table.insert_ns", "ns"),
    ("bucket.atomic.admit_ns", "ns"),
    ("bucket.atomic.deny_ns", "ns"),
    ("server.overload.dedup_ns", "ns"),
    ("net.latency.record_ns", "ns"),
    ("net.latency.percentile_ns", "ns"),
    ("net.latency.budget_ns", "ns"),
    ("server.lease.on_report_ns", "ns"),
    // Counts from public accessors.
    ("bucket.table.probe_steps_per_decision", "1/op"),
    ("bucket.table.cas_retries_per_decision", "1/op"),
    ("bucket.table.resizes", "count"),
    ("bucket.table.migrated_slots", "count"),
    ("bucket.table.len", "count"),
    ("bucket.table.bytes_per_key", "B"),
    ("server.core.answered", "1/op"),
    ("server.core.dedup_hits", "1/op"),
    ("server.core.shed", "1/op"),
    ("server.core.default_rule_hits", "1/op"),
    ("router.core.lease_admit_share", "share"),
    ("router.core.forward_share", "share"),
    ("router.core.hinted_keys", "count"),
    ("router.core.leased_keys", "count"),
    ("net.latency.budget_refused", "count"),
    // sim_faults only.
    ("dst.sim.seeds_per_s", "1/s"),
    ("dst.sim.trace_bytes_per_request", "B"),
    ("dst.sim.defaulted_share", "share"),
    ("dst.sim.leased_share", "share"),
    ("dst.sim.degraded_share", "share"),
    ("dst.sim.reboots", "1/seed"),
    ("dst.sim.dropped", "1/seed"),
    ("dst.sim.hedges", "1/seed"),
    ("dst.sim.budget_refused", "1/seed"),
];

/// `(name, unit)` of every per-layer metric, printed on `--trace 1` by
/// every workload (0 where a layer is not on that workload's path).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut defs = Vec::new();
    for span in SPANS {
        defs.push((format!("{span}_ns"), "ns"));
        defs.push((format!("{span}_share"), "share"));
    }
    defs.extend(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    for profile in janus_dst::PROFILES {
        defs.push((format!("dst.sim.ns_per_request.{}", profile.as_str()), "ns"));
    }
    defs
}

/// One run's metric values, pre-filled with 0 for every declared name.
pub struct Report {
    values: Vec<(String, &'static str, f64)>,
}

impl Report {
    pub fn end_to_end() -> Self {
        Report {
            values: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u, 0.0))
                .collect(),
        }
    }

    pub fn per_layer() -> Self {
        Report {
            values: per_layer().into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// # Panics
    /// Panics if `name` was not declared — a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        slot.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |v| v.2)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the contract wants it.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(name, unit, value)| {
                    let metric = Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]);
                    (name.clone(), metric)
                })
                .collect(),
        )
    }
}
