//! Randomized fault-schedule search, automatic shrinking and the
//! committed seed corpus.
//!
//! A [`Profile`] names a family of fault schedules; `(seed, profile)`
//! fully determines a run, so a failing pair is a complete bug report.
//! [`search`] sweeps a seed range looking for an oracle violation;
//! [`shrink`] then greedily removes directives while the violation
//! reproduces, leaving a minimal schedule. Reproducers are committed to
//! `tests/dst_corpus.txt` as `<seed> <profile> <note>` lines and
//! replayed by CI (`corpus_replays_clean`).

use std::time::Duration;

use janus_hash::Rng;

use crate::sim::{Directive, DirectiveKind, Sim, SimConfig, SimReport};

/// A named family of fault schedules. The profile seeds a private PRNG
/// stream (salted per profile) that draws the concrete directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// No faults: the exactness baseline.
    Calm,
    /// Datagram loss bursts.
    Lossy,
    /// Duplication bursts (retry/dedup pressure).
    Dup,
    /// Reordering bursts (stale frames overtaking fresh ones).
    Reorder,
    /// Partition crashes with cold restarts.
    Crash,
    /// Partition crashes with HA standby adoption.
    Failover,
    /// Link partitions (sever + heal).
    Sever,
    /// Everything at once, HA coin-flipped.
    Mixed,
    /// Credit leases on over hot keys, with crashes, rule changes,
    /// severs and bursts racing grants, renewals and revocations.
    Lease,
    /// The bounded-memory engine under keyspace churn: a lock-free
    /// table smaller than the keyspace (forcing incremental resizes)
    /// with idle-key demotion to the cold tier and poll-time
    /// readmission, raced by crashes, severs and bursts.
    Churn,
    /// Gray failure: links stay up but answer late. One partition runs
    /// a latency multiplier (long shallow slowdowns and short savage
    /// stalls), with the gray plane — adaptive timeouts, credit-safe
    /// hedges, the global retry budget — switched on, crashes mixed in,
    /// and leases coin-flipped so late grants race revocations.
    Gray,
}

/// All profiles, in the order the searcher cycles them.
pub const PROFILES: [Profile; 11] = [
    Profile::Calm,
    Profile::Lossy,
    Profile::Dup,
    Profile::Reorder,
    Profile::Crash,
    Profile::Failover,
    Profile::Sever,
    Profile::Mixed,
    Profile::Lease,
    Profile::Churn,
    Profile::Gray,
];

impl Profile {
    /// The corpus-file spelling of this profile.
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Calm => "calm",
            Profile::Lossy => "lossy",
            Profile::Dup => "dup",
            Profile::Reorder => "reorder",
            Profile::Crash => "crash",
            Profile::Failover => "failover",
            Profile::Sever => "sever",
            Profile::Mixed => "mixed",
            Profile::Lease => "lease",
            Profile::Churn => "churn",
            Profile::Gray => "gray",
        }
    }

    /// Parse a corpus-file spelling.
    pub fn parse(s: &str) -> Option<Profile> {
        PROFILES.iter().copied().find(|p| p.as_str() == s)
    }

    fn salt(self) -> u64 {
        // Distinct streams per profile so seed N under two profiles
        // shares nothing.
        match self {
            Profile::Calm => 0x00,
            Profile::Lossy => 0x10,
            Profile::Dup => 0x20,
            Profile::Reorder => 0x30,
            Profile::Crash => 0x40,
            Profile::Failover => 0x50,
            Profile::Sever => 0x60,
            Profile::Mixed => 0x70,
            Profile::Lease => 0x80,
            Profile::Churn => 0x90,
            Profile::Gray => 0xA0,
        }
    }
}

fn millis_between(rng: &mut Rng, lo: u64, hi: u64) -> Duration {
    Duration::from_millis(rng.gen_range_inclusive(lo, hi))
}

fn burst(rng: &mut Rng, drop_pct: u8, dup_pct: u8, reorder_pct: u8) -> Directive {
    Directive {
        at: millis_between(rng, 5, 150),
        kind: DirectiveKind::Burst {
            drop_pct,
            dup_pct,
            reorder_pct,
            heal_after: millis_between(rng, 20, 80),
        },
    }
}

/// The concrete [`SimConfig`] for `(seed, profile)`. Pure function of
/// its inputs: the corpus stays reproducible forever.
pub fn config_for(seed: u64, profile: Profile) -> SimConfig {
    let mut config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut rng = Rng::seed_from_u64(seed ^ profile.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match profile {
        Profile::Calm => {}
        Profile::Lossy => {
            for _ in 0..=rng.gen_range(2) {
                let drop = 20 + rng.gen_range(41) as u8;
                config.directives.push(burst(&mut rng, drop, 0, 0));
            }
        }
        Profile::Dup => {
            for _ in 0..=rng.gen_range(2) {
                let dup = 30 + rng.gen_range(41) as u8;
                config.directives.push(burst(&mut rng, 0, dup, 0));
            }
        }
        Profile::Reorder => {
            for _ in 0..=rng.gen_range(2) {
                let reorder = 30 + rng.gen_range(41) as u8;
                config.directives.push(burst(&mut rng, 0, 0, reorder));
            }
        }
        Profile::Crash | Profile::Failover => {
            config.ha = profile == Profile::Failover;
            for _ in 0..=rng.gen_range(2) {
                config.directives.push(Directive {
                    at: millis_between(&mut rng, 10, 180),
                    kind: DirectiveKind::Crash {
                        partition: rng.gen_range(config.partitions as u64) as usize,
                    },
                });
            }
        }
        Profile::Sever => {
            for _ in 0..=rng.gen_range(2) {
                config.directives.push(Directive {
                    at: millis_between(&mut rng, 10, 150),
                    kind: DirectiveKind::Sever {
                        partition: rng.gen_range(config.partitions as u64) as usize,
                        heal_after: millis_between(&mut rng, 20, 80),
                    },
                });
            }
        }
        Profile::Mixed => {
            config.ha = rng.gen_bool(0.5);
            for _ in 0..(2 + rng.gen_range(3)) {
                let d = match rng.gen_range(3) {
                    0 => Directive {
                        at: millis_between(&mut rng, 10, 180),
                        kind: DirectiveKind::Crash {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                        },
                    },
                    1 => Directive {
                        at: millis_between(&mut rng, 10, 150),
                        kind: DirectiveKind::Sever {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                            heal_after: millis_between(&mut rng, 20, 80),
                        },
                    },
                    _ => {
                        let drop = rng.gen_range(41) as u8;
                        let dup = rng.gen_range(41) as u8;
                        let reorder = rng.gen_range(41) as u8;
                        burst(&mut rng, drop, dup, reorder)
                    }
                };
                config.directives.push(d);
            }
        }
        Profile::Lease => {
            // Hot keys so leases actually get granted — and a request
            // gap tight enough that slices drain *within* one TTL, so
            // proactive renewals (and revocations racing an installed
            // lease) get exercised, not just expiry returns. Then race
            // the lease lifecycle against crashes, rule changes, severs
            // and network bursts.
            config.lease = true;
            config.keys = 2;
            // Capacity sets the slice (capacity / 4): small slices go
            // dry mid-TTL, forcing forwards — and with them renewals and
            // the revoked-while-held install race — while large ones
            // ride a single grant to expiry and exercise returns.
            config.capacity = 12 + 4 * rng.gen_range(8);
            config.request_gap = Duration::from_micros(500);
            config.ha = rng.gen_bool(0.5);
            for _ in 0..(2 + rng.gen_range(3)) {
                let d = match rng.gen_range(4) {
                    0 => Directive {
                        at: millis_between(&mut rng, 10, 180),
                        kind: DirectiveKind::Crash {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                        },
                    },
                    1 => Directive {
                        at: millis_between(&mut rng, 10, 150),
                        kind: DirectiveKind::RuleChange {
                            key: rng.gen_range(u64::from(config.keys)) as usize,
                        },
                    },
                    2 => Directive {
                        at: millis_between(&mut rng, 10, 150),
                        kind: DirectiveKind::Sever {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                            heal_after: millis_between(&mut rng, 20, 80),
                        },
                    },
                    _ => {
                        let drop = rng.gen_range(41) as u8;
                        let dup = rng.gen_range(41) as u8;
                        let reorder = rng.gen_range(41) as u8;
                        burst(&mut rng, drop, dup, reorder)
                    }
                };
                config.directives.push(d);
            }
        }
        Profile::Churn => {
            // A drifting working set over a tiny lock-free table: 12
            // keys against 8 initial slots force incremental resizes,
            // and an idle TTL half the per-key revisit period keeps
            // every key cycling demote → cold tier → readmit while
            // crashes, severs and bursts race the sweeps. HA is
            // coin-flipped so both restart flavours replay the cold
            // tier's checkpointed credit.
            config.churn = true;
            config.partitions = 2;
            config.keys = 12;
            config.requests = 240;
            config.request_gap = Duration::from_millis(1);
            config.table_slots = 8;
            config.idle_ttl = Duration::from_millis(6);
            config.reclaim_interval = Duration::from_millis(3);
            config.ha = rng.gen_bool(0.5);
            for _ in 0..=rng.gen_range(2) {
                let d = match rng.gen_range(3) {
                    0 => Directive {
                        at: millis_between(&mut rng, 10, 200),
                        kind: DirectiveKind::Crash {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                        },
                    },
                    1 => Directive {
                        at: millis_between(&mut rng, 10, 180),
                        kind: DirectiveKind::Sever {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                            heal_after: millis_between(&mut rng, 20, 80),
                        },
                    },
                    _ => {
                        let drop = rng.gen_range(41) as u8;
                        let dup = rng.gen_range(41) as u8;
                        let reorder = rng.gen_range(41) as u8;
                        burst(&mut rng, drop, dup, reorder)
                    }
                };
                config.directives.push(d);
            }
        }
        Profile::Gray => {
            // Gray failure, with the countermeasures on. Every seed
            // carries at least one slowdown; extras mix in savage
            // short stalls (GC-pause shaped) and crashes so late
            // frames race reboots. Leases are coin-flipped — when on,
            // the Lease profile's hot-key shape is reused so grants
            // and revocations actually flow through the slow link.
            config.gray = true;
            config.ha = rng.gen_bool(0.5);
            config.lease = rng.gen_bool(0.5);
            if config.lease {
                config.keys = 2;
                config.capacity = 12 + 4 * rng.gen_range(8);
                config.request_gap = Duration::from_micros(500);
            }
            config.directives.push(Directive {
                at: millis_between(&mut rng, 10, 120),
                kind: DirectiveKind::Gray {
                    partition: rng.gen_range(config.partitions as u64) as usize,
                    factor: (10 + rng.gen_range(41)) as u32,
                    heal_after: millis_between(&mut rng, 20, 80),
                },
            });
            for _ in 0..rng.gen_range(3) {
                let d = match rng.gen_range(3) {
                    0 => Directive {
                        at: millis_between(&mut rng, 10, 150),
                        kind: DirectiveKind::Gray {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                            factor: (100 + rng.gen_range(151)) as u32,
                            heal_after: millis_between(&mut rng, 2, 10),
                        },
                    },
                    1 => Directive {
                        at: millis_between(&mut rng, 10, 150),
                        kind: DirectiveKind::Gray {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                            factor: (10 + rng.gen_range(41)) as u32,
                            heal_after: millis_between(&mut rng, 20, 80),
                        },
                    },
                    _ => Directive {
                        at: millis_between(&mut rng, 10, 180),
                        kind: DirectiveKind::Crash {
                            partition: rng.gen_range(config.partitions as u64) as usize,
                        },
                    },
                };
                config.directives.push(d);
            }
        }
    }
    config
}

/// Run one `(seed, profile)` pair to a report.
pub fn run_seed(seed: u64, profile: Profile) -> SimReport {
    Sim::new(config_for(seed, profile)).run()
}

/// Sweep `budget` seeds starting at `base_seed`, cycling every profile.
/// Returns the first failing `(seed, profile, report)`, if any.
pub fn search(base_seed: u64, budget: u32) -> Option<(u64, Profile, SimReport)> {
    for i in 0..budget {
        let seed = base_seed.wrapping_add(u64::from(i));
        let profile = PROFILES[(i as usize) % PROFILES.len()];
        let report = run_seed(seed, profile);
        if !report.ok() {
            return Some((seed, profile, report));
        }
    }
    None
}

/// Greedy single-removal shrinking over an arbitrary failure predicate:
/// repeatedly drop the first directive whose removal keeps `fails`
/// true, to a fixed point. The result still fails and no single
/// further removal preserves the failure — a local minimum.
pub fn shrink_directives(
    directives: &[Directive],
    fails: impl Fn(&[Directive]) -> bool,
) -> Vec<Directive> {
    let mut best = directives.to_vec();
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Shrink a failing config's fault schedule to a minimal reproducer
/// (the config must currently fail its oracles).
pub fn shrink(config: &SimConfig) -> SimConfig {
    let template = config.clone();
    let minimal = shrink_directives(&config.directives, |directives| {
        let mut candidate = template.clone();
        candidate.directives = directives.to_vec();
        !Sim::new(candidate).run().ok()
    });
    let mut shrunk = config.clone();
    shrunk.directives = minimal;
    shrunk
}

/// One committed reproducer / regression seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The seed to replay.
    pub seed: u64,
    /// The profile to replay it under.
    pub profile: Profile,
    /// Why this seed is pinned (one line).
    pub note: String,
}

/// Parse `tests/dst_corpus.txt`: one `<seed> <profile> <note...>` per
/// line, `#` comments and blank lines skipped. Malformed lines are
/// returned as errors so the corpus can't silently rot.
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let seed = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("corpus line {}: bad seed in {line:?}", lineno + 1))?;
        let profile = parts
            .next()
            .and_then(Profile::parse)
            .ok_or_else(|| format!("corpus line {}: bad profile in {line:?}", lineno + 1))?;
        let note = parts.next().unwrap_or("").trim().to_string();
        entries.push(CorpusEntry {
            seed,
            profile,
            note,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const CORPUS: &str = include_str!("../../../tests/dst_corpus.txt");

    #[test]
    fn corpus_replays_clean() {
        let entries = parse_corpus(CORPUS).expect("corpus parses");
        assert!(
            entries.len() >= 20,
            "corpus holds {} entries, want >= 20",
            entries.len()
        );
        for entry in &entries {
            let report = run_seed(entry.seed, entry.profile);
            assert!(
                report.ok(),
                "corpus seed {} profile {} ({}) violated:\n{:#?}\ntrace tail:\n{}",
                entry.seed,
                entry.profile.as_str(),
                entry.note,
                report.violations,
                report
                    .trace
                    .lines()
                    .rev()
                    .take(40)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect::<Vec<_>>()
                    .join("\n"),
            );
            assert_eq!(
                report.completed,
                report.issued,
                "corpus seed {} profile {}: availability floor",
                entry.seed,
                entry.profile.as_str()
            );
        }
    }

    #[test]
    fn corpus_covers_every_fault_family() {
        let entries = parse_corpus(CORPUS).expect("corpus parses");
        let covered: HashSet<Profile> = entries.iter().map(|e| e.profile).collect();
        for required in [
            Profile::Crash,
            Profile::Failover,
            Profile::Sever,
            Profile::Dup,
            Profile::Reorder,
            Profile::Lossy,
            Profile::Mixed,
            Profile::Lease,
            Profile::Churn,
            Profile::Gray,
        ] {
            assert!(
                covered.contains(&required),
                "corpus misses profile {}",
                required.as_str()
            );
        }
    }

    #[test]
    fn same_seed_and_profile_reproduce_byte_identical_runs() {
        let a = run_seed(42, Profile::Mixed);
        let b = run_seed(42, Profile::Mixed);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary(), b.summary());
    }

    /// `(seed, profile, trace lines, crc32 of trace + summary)` for the
    /// six seeds CI replays. Any change to what the simulator prints
    /// fails here; a deliberate one updates this table in the same diff.
    const GOLDEN: [(u64, Profile, usize, u32); 6] = [
        (42, Profile::Mixed, 752, 0x386c_20ca),
        (7, Profile::Failover, 646, 0x9a74_e196),
        (9, Profile::Dup, 753, 0x2c7a_f645),
        (247, Profile::Lease, 339, 0x9a83_1bf5),
        (101, Profile::Churn, 1696, 0x7873_d090),
        (47, Profile::Gray, 775, 0x65b5_2332),
    ];

    #[test]
    fn ci_seeds_reproduce_their_golden_traces() {
        for (seed, profile, lines, crc) in GOLDEN {
            let report = run_seed(seed, profile);
            let printed = format!("{}{}", report.trace, report.summary());
            assert_eq!(
                (
                    report.trace.lines().count(),
                    janus_hash::crc32(printed.as_bytes())
                ),
                (lines, crc),
                "seed {seed} {} no longer prints its golden trace",
                profile.as_str()
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_seed(42, Profile::Mixed);
        let b = run_seed(43, Profile::Mixed);
        assert_ne!(a.trace, b.trace, "seeds should explore different schedules");
    }

    #[test]
    fn config_generation_is_pure() {
        let a = config_for(7, Profile::Mixed);
        let b = config_for(7, Profile::Mixed);
        assert_eq!(a.directives, b.directives);
        assert_eq!(a.ha, b.ha);
    }

    #[test]
    fn shrinking_finds_the_minimal_schedule_for_a_synthetic_predicate() {
        let mut rng = Rng::seed_from_u64(5);
        let crash = Directive {
            at: Duration::from_millis(40),
            kind: DirectiveKind::Crash { partition: 1 },
        };
        let directives = vec![
            burst(&mut rng, 10, 0, 0),
            crash.clone(),
            burst(&mut rng, 0, 10, 0),
            Directive {
                at: Duration::from_millis(60),
                kind: DirectiveKind::Sever {
                    partition: 0,
                    heal_after: Duration::from_millis(20),
                },
            },
        ];
        // "Fails whenever a crash is present" — shrinking must strip
        // everything else and keep exactly the crash.
        let minimal = shrink_directives(&directives, |ds| {
            ds.iter()
                .any(|d| matches!(d.kind, DirectiveKind::Crash { .. }))
        });
        assert_eq!(minimal, vec![crash]);
    }

    #[test]
    fn shrinking_reduces_an_induced_failure_to_its_cause() {
        // Induce a real failure (dedup off + duplication storm) behind
        // two red-herring directives; shrink must isolate the burst.
        let mut config = config_for(9, Profile::Calm);
        config.dedup_window = 0;
        config.directives = vec![
            Directive {
                at: Duration::from_millis(20),
                kind: DirectiveKind::Sever {
                    partition: 1,
                    heal_after: Duration::from_millis(10),
                },
            },
            Directive {
                at: Duration::ZERO,
                kind: DirectiveKind::Burst {
                    drop_pct: 0,
                    dup_pct: 80,
                    reorder_pct: 0,
                    heal_after: Duration::from_secs(5),
                },
            },
            Directive {
                at: Duration::from_millis(90),
                kind: DirectiveKind::Crash { partition: 2 },
            },
        ];
        let failing = Sim::new(config.clone()).run();
        assert!(!failing.ok(), "setup must fail before shrinking");
        let shrunk = shrink(&config);
        assert!(!Sim::new(shrunk.clone()).run().ok(), "shrunk still fails");
        assert_eq!(
            shrunk.directives.len(),
            1,
            "minimal schedule is the duplication burst alone: {:?}",
            shrunk.directives
        );
        assert!(matches!(
            shrunk.directives[0].kind,
            DirectiveKind::Burst { dup_pct: 80, .. }
        ));
    }

    #[test]
    fn search_over_healthy_code_finds_nothing() {
        // A hundred seeds per profile across the healthy tree must come
        // back clean — this is the fixed-budget CI search.
        assert!(
            search(1000, 100 * PROFILES.len() as u32).is_none(),
            "randomized search found a violation on healthy code"
        );
    }
}
