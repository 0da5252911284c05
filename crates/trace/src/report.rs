//! Snapshots and their one export, JSON.

use crate::span::SpanStat;
use crate::{counter, hist, span, Counter, Hist, TraceMode};
use std::collections::HashMap;

/// One counter in a report (zero-valued counters are omitted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnap {
    /// Stable dotted name (`ntt.forward`, …).
    pub name: &'static str,
    /// Accumulated event count.
    pub value: u64,
}

/// One span path in a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnap {
    /// Slash-joined nesting path (`client/offline.he`).
    pub path: String,
    /// Aggregate timing statistics.
    pub stat: SpanStat,
}

impl SpanSnap {
    /// Leaf span name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// One histogram in a report (empty histograms are omitted). Buckets are
/// kept sparse so merged reports can still answer percentile queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnap {
    /// Stable dotted name (`wire.msg_bytes`, …).
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnap {
    /// Value at quantile `q` in `[0, 1]` (bucket lower bound, within 12.5%
    /// of the true value); 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return hist::bucket_lower_bound(i);
            }
        }
        self.max
    }

    /// Mean observation; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge(&mut self, other: &HistSnap) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut by_idx: HashMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *by_idx.entry(i).or_insert(0) += n;
        }
        let mut merged: Vec<(usize, u64)> = by_idx.into_iter().collect();
        merged.sort_unstable();
        self.buckets = merged;
    }
}

/// A snapshot of counters, spans, and histograms — either the global
/// aggregate ([`global_report`]) or one request's local view
/// ([`crate::LocalScope::finish`]). Exports as JSON
/// ([`TraceReport::to_json`]).
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Mode active when the snapshot was taken.
    pub mode: TraceMode,
    /// Non-zero counters, in slot order.
    pub counters: Vec<CounterSnap>,
    /// Span paths, sorted.
    pub spans: Vec<SpanSnap>,
    /// Non-empty histograms, in slot order.
    pub hists: Vec<HistSnap>,
}

impl TraceReport {
    pub(crate) fn from_parts(
        mode: TraceMode,
        counters: &[u64; Counter::COUNT],
        spans: &HashMap<String, SpanStat>,
    ) -> Self {
        let counters = Counter::ALL
            .iter()
            .filter(|&&c| counters[c as usize] > 0)
            .map(|&c| CounterSnap {
                name: c.name(),
                value: counters[c as usize],
            })
            .collect();
        let mut spans: Vec<SpanSnap> = spans
            .iter()
            .map(|(path, stat)| SpanSnap {
                path: path.clone(),
                stat: *stat,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        TraceReport {
            mode,
            counters,
            spans,
            hists: Vec::new(),
        }
    }

    /// Value of a counter by dotted name; `None` when the report has no
    /// such counter (distinct from a measured zero, which is never stored).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Aggregate of every span whose *leaf* name matches (or whose full
    /// path equals) `name`; `None` when nothing matched — the caller can
    /// tell "phase never ran / spans disabled" apart from a fast phase.
    pub fn span_stat(&self, name: &str) -> Option<SpanStat> {
        let mut acc: Option<SpanStat> = None;
        for s in &self.spans {
            if s.path == name || s.name() == name {
                match &mut acc {
                    Some(a) => a.merge(&s.stat),
                    None => acc = Some(s.stat),
                }
            }
        }
        acc
    }

    /// Total milliseconds across spans with leaf name `name` (see
    /// [`TraceReport::span_stat`] for the `None` contract).
    pub fn span_total_ms(&self, name: &str) -> Option<f64> {
        self.span_stat(name).map(|s| s.total_ns as f64 / 1e6)
    }

    /// Histogram by dotted name.
    pub fn hist(&self, name: &str) -> Option<&HistSnap> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Folds another report into this one (counters summed, spans merged by
    /// path, histogram buckets added). Used to combine the two parties'
    /// per-request views into one `CostReport` trace.
    pub fn merge(&mut self, other: &TraceReport) {
        self.mode = self.mode.max(other.mode);
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for s in &other.spans {
            match self.spans.iter_mut().find(|m| m.path == s.path) {
                Some(m) => m.stat.merge(&s.stat),
                None => self.spans.push(s.clone()),
            }
        }
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
        for h in &other.hists {
            match self.hists.iter_mut().find(|m| m.name == h.name) {
                Some(m) => m.merge(h),
                None => self.hists.push(h.clone()),
            }
        }
    }

    /// Machine-readable JSON (hand-built; names are plain dotted/slashed
    /// identifiers, so only quotes/backslashes need escaping).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"mode\":\"");
        out.push_str(self.mode.name());
        out.push_str("\",\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(c.name));
            out.push_str("\":");
            out.push_str(&c.value.to_string());
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                escape(&s.path),
                escape(s.name()),
                s.stat.count,
                s.stat.total_ns,
                s.stat.min_ns,
                s.stat.max_ns
            ));
        }
        out.push_str("],\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape(h.name),
                h.count,
                h.sum,
                h.max,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Snapshot of the process-wide aggregate (all threads, since start or the
/// last [`reset`]). Histograms are only available here — local scopes carry
/// counters and spans.
pub fn global_report() -> TraceReport {
    let counters = counter::snapshot();
    let span_map: HashMap<String, SpanStat> = span::snapshot().into_iter().collect();
    let mut report = TraceReport::from_parts(crate::mode(), &counters, &span_map);
    report.hists = Hist::ALL
        .iter()
        .filter_map(|&h| {
            let (count, sum, max, buckets) = hist::snapshot(h);
            (count > 0).then_some(HistSnap {
                name: h.name(),
                count,
                sum,
                max,
                buckets,
            })
        })
        .collect();
    report
}

/// Zeros every global counter, histogram, and span aggregate. Call between
/// requests when per-run global snapshots are wanted (examples do this);
/// concurrent recorders are not disturbed, they just start from zero.
pub fn reset() {
    counter::reset();
    hist::reset();
    span::reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_mode, test_lock};

    fn sample() -> TraceReport {
        TraceReport {
            mode: TraceMode::Full,
            counters: vec![CounterSnap {
                name: "ntt.forward",
                value: 12,
            }],
            spans: vec![SpanSnap {
                path: "client/offline.he".into(),
                stat: SpanStat {
                    count: 2,
                    total_ns: 3_000_000,
                    min_ns: 1_000_000,
                    max_ns: 2_000_000,
                },
            }],
            hists: vec![HistSnap {
                name: "wire.msg_bytes",
                count: 3,
                sum: 96,
                max: 64,
                buckets: vec![(crate::bucket_index(16), 2), (crate::bucket_index(64), 1)],
            }],
        }
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert!(j.contains("\"mode\":\"full\""));
        assert!(j.contains("\"ntt.forward\":12"));
        assert!(j.contains("\"path\":\"client/offline.he\""));
        assert!(j.contains("\"name\":\"offline.he\""));
        assert!(j.contains("\"total_ns\":3000000"));
        assert!(j.contains("\"p50\":16"));
    }

    #[test]
    fn span_lookup_by_leaf_and_path() {
        let r = sample();
        assert_eq!(r.span_stat("offline.he").unwrap().count, 2);
        assert_eq!(r.span_stat("client/offline.he").unwrap().count, 2);
        assert!(r.span_stat("online.eval").is_none());
        let ms = r.span_total_ms("offline.he").unwrap();
        assert!((ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn counter_lookup_distinguishes_missing() {
        let r = sample();
        assert_eq!(r.counter("ntt.forward"), Some(12));
        assert_eq!(r.counter("ntt.inverse"), None);
    }

    #[test]
    fn merge_sums_and_unions() {
        let mut a = sample();
        let mut b = sample();
        b.counters.push(CounterSnap {
            name: "ot.base",
            value: 5,
        });
        b.spans[0].path = "server/offline.he".into();
        a.merge(&b);
        assert_eq!(a.counter("ntt.forward"), Some(24));
        assert_eq!(a.counter("ot.base"), Some(5));
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.span_stat("offline.he").unwrap().count, 4);
        let h = a.hist("wire.msg_bytes").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 192);
        assert_eq!(h.percentile(0.5), 16);
    }

    #[test]
    fn percentiles_on_edges() {
        let h = sample().hists[0].clone();
        assert_eq!(h.percentile(0.0), 16);
        assert_eq!(h.percentile(1.0), 64);
        let empty = HistSnap {
            name: "x",
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![],
        };
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn global_report_roundtrip() {
        let _l = test_lock::hold();
        force_mode(Some(TraceMode::Full));
        reset();
        crate::counter::add(Counter::HeEncrypt, 3);
        crate::record(Hist::WireMsgBytes, 40);
        {
            let _g = crate::span("unit.phase");
        }
        let r = global_report();
        assert_eq!(r.counter("he.encrypt"), Some(3));
        assert_eq!(r.hist("wire.msg_bytes").unwrap().count, 1);
        assert_eq!(r.span_stat("unit.phase").unwrap().count, 1);
        force_mode(None);
        reset();
    }
}
