//! Span recording around the public calls of one admission op.
//!
//! The op function is generic over [`Marks`]: a mark is a timestamp taken
//! at a layer boundary. [`NoMarks`] compiles to nothing (15 ops in 16),
//! [`EndToEnd`] times `RouterCore::begin` → verdict for the untraced
//! run's latency sample, and [`AllMarks`] stamps every boundary for the
//! traced run. Consecutive marks bound one segment; a span is one or
//! more segments (the three clock reads make one span).

use crate::json::Json;
use crate::metrics::SPANS;
use crate::stats::Histogram;
use std::time::Instant;

// Boundaries of one op, in execution order.
pub const START: usize = 0;
pub const PICKED: usize = 1;
pub const NOW_BEGIN: usize = 2;
pub const BEGUN: usize = 3;
pub const DISCIPLINED: usize = 4;
pub const PLANNED: usize = 5;
pub const NOW_SERVER: usize = 6;
pub const REQUESTED: usize = 7;
pub const POLLED: usize = 8;
pub const NOW_RESPONSE: usize = 9;
pub const RESPONDED: usize = 10;
pub const DONE_REMOTE: usize = 11;
/// End of an op answered without a server (lease admit, fast-fail).
/// Coincides with `BEGUN`, so only [`EndToEnd`] reads the clock for it.
pub const DONE_LOCAL: usize = 12;
const MARKS: usize = 13;

/// `SPAN_SEGMENTS[i]` are the `(from, to)` boundary pairs whose time
/// belongs to `metrics::SPANS[i]`.
pub const SPAN_SEGMENTS: &[&[(usize, usize)]] = &[
    &[(START, PICKED)],
    &[
        (PICKED, NOW_BEGIN),
        (PLANNED, NOW_SERVER),
        (POLLED, NOW_RESPONSE),
    ],
    &[(NOW_BEGIN, BEGUN)],
    &[(BEGUN, DISCIPLINED)],
    &[(DISCIPLINED, PLANNED)],
    &[(NOW_SERVER, REQUESTED)],
    &[(REQUESTED, POLLED)],
    &[(NOW_RESPONSE, RESPONDED)],
    &[(RESPONDED, DONE_REMOTE)],
];
/// The generator span: reported, but not part of a decision.
pub const PICK_SPAN: usize = 0;

pub trait Marks {
    fn at(&mut self, boundary: usize);
}

pub struct NoMarks;

impl Marks for NoMarks {
    #[inline(always)]
    fn at(&mut self, _boundary: usize) {}
}

/// Times one decision: from the key being picked to the verdict.
pub struct EndToEnd {
    started: Instant,
    pub ns: u64,
}

impl EndToEnd {
    pub fn new() -> Self {
        EndToEnd {
            started: Instant::now(),
            ns: 0,
        }
    }
}

impl Marks for EndToEnd {
    #[inline(always)]
    fn at(&mut self, boundary: usize) {
        if boundary == PICKED {
            self.started = Instant::now();
        } else if boundary == DONE_REMOTE || boundary == DONE_LOCAL {
            self.ns = self.started.elapsed().as_nanos() as u64;
        }
    }
}

/// Stamps every boundary, as nanoseconds since `origin`.
pub struct AllMarks {
    origin: Instant,
    t: [u64; MARKS],
    seen: u16,
}

impl AllMarks {
    pub fn new(origin: Instant) -> Self {
        AllMarks {
            origin,
            t: [0; MARKS],
            seen: 0,
        }
    }

    fn has(&self, boundary: usize) -> bool {
        self.seen & (1 << boundary) != 0
    }

    fn end(&self) -> usize {
        if self.has(DONE_REMOTE) {
            DONE_REMOTE
        } else {
            BEGUN
        }
    }
}

impl Marks for AllMarks {
    #[inline(always)]
    fn at(&mut self, boundary: usize) {
        if boundary == DONE_LOCAL {
            return;
        }
        self.t[boundary] = self.origin.elapsed().as_nanos() as u64;
        self.seen |= 1 << boundary;
    }
}

/// Median cost of one mark: what an empty segment measures. Subtracted
/// from every segment so a 10 ns layer is not reported as 35 ns.
pub fn timer_overhead_ns() -> f64 {
    let origin = Instant::now();
    let mut gaps = Histogram::new();
    for _ in 0..64 {
        let mut stamps = [0u64; 1024];
        for stamp in stamps.iter_mut() {
            *stamp = origin.elapsed().as_nanos() as u64;
        }
        for pair in stamps.windows(2) {
            gaps.record(pair[1] - pair[0]);
        }
    }
    gaps.quantile(0.5)
}

/// Raw spans kept for the trace file, per thread.
const KEPT_OPS: usize = 256;

/// One thread's span accumulators for a traced phase.
pub struct SpanStats {
    /// Corrected nanoseconds per span, one sample per op that ran it.
    pub spans: Vec<Histogram>,
    /// Corrected decision time (key picked → verdict), all sampled ops.
    pub decision_ns: u64,
    pub sampled: u64,
    kept: Vec<(u64, AllMarks)>,
}

impl SpanStats {
    pub fn new() -> Self {
        SpanStats {
            spans: SPANS.iter().map(|_| Histogram::new()).collect(),
            decision_ns: 0,
            sampled: 0,
            kept: Vec::with_capacity(KEPT_OPS),
        }
    }

    pub fn absorb(&mut self, op_id: u64, marks: AllMarks, overhead_ns: f64) {
        let overhead = overhead_ns as u64;
        for (span, segments) in SPAN_SEGMENTS.iter().enumerate() {
            let mut ran = false;
            let mut ns = 0;
            for &(from, to) in segments.iter() {
                if marks.has(from) && marks.has(to) {
                    ran = true;
                    ns += (marks.t[to] - marks.t[from]).saturating_sub(overhead);
                }
            }
            if ran {
                self.spans[span].record(ns);
                if span != PICK_SPAN {
                    self.decision_ns += ns;
                }
            }
        }
        self.sampled += 1;
        if self.kept.len() < KEPT_OPS {
            self.kept.push((op_id, marks));
        }
    }

    pub fn merge(&mut self, other: &SpanStats) {
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            mine.merge(theirs);
        }
        self.decision_ns += other.decision_ns;
        self.sampled += other.sampled;
    }

    /// The kept ops as `{op_id, id, parent, name, start_ns, end_ns}`
    /// spans: one root per op, one child per segment that ran. Raw
    /// timestamps (no overhead correction) relative to the phase origin.
    pub fn kept_spans(&self) -> Vec<Json> {
        let mut out = Vec::new();
        for (op_id, marks) in &self.kept {
            let root = op_id * 16;
            let span = |id: u64, parent: Json, name: &str, from: usize, to: usize| {
                Json::obj(vec![
                    ("op_id", Json::Num(*op_id as f64)),
                    ("id", Json::Num(id as f64)),
                    ("parent", parent),
                    ("name", Json::str(name)),
                    ("start_ns", Json::Num(marks.t[from] as f64)),
                    ("end_ns", Json::Num(marks.t[to] as f64)),
                ])
            };
            out.push(span(root, Json::Null, "op", START, marks.end()));
            let mut child = root;
            for (name, segments) in SPANS.iter().zip(SPAN_SEGMENTS) {
                for &(from, to) in segments.iter() {
                    if marks.has(from) && marks.has(to) {
                        child += 1;
                        out.push(span(child, Json::Num(root as f64), name, from, to));
                    }
                }
            }
        }
        out
    }
}
