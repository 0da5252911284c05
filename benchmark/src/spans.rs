//! The harness's own spans, recorded from outside the program: one around
//! model build, precompute, each request and each layer replay. Kept in
//! memory and written as `trace_<workload>.json` when the traced run ends.
//! (Spans *inside* the program are `pi-trace`'s; the ledger reads those
//! through `CostReport::trace` and adds none.)

use crate::json::Value;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Spans of one request share its number.
    request: Option<u64>,
    start_us: f64,
    end_us: f64,
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&self, name: &str, parent: Option<usize>, request: Option<u64>) -> usize {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            start_us,
            end_us: start_us,
        });
        spans.len() - 1
    }

    fn end(&self, id: usize) {
        let end_us = self.now_us();
        self.spans.lock().expect("no span holder panics")[id].end_us = end_us;
    }

    pub fn to_json(&self) -> Value {
        let spans = self.spans.lock().expect("no span holder panics");
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        Value::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(&s.name)),
                        ("parent", opt(s.parent.map(|p| p as f64))),
                        ("request", opt(s.request.map(|r| r as f64))),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Where the caller hangs its spans: under a parent span of a recorder, or
/// nowhere — end-to-end runs record no spans at all.
#[derive(Clone, Copy)]
pub struct Spans<'a>(Option<(&'a Recorder, Option<usize>)>);

impl<'a> Spans<'a> {
    pub fn off() -> Self {
        Spans(None)
    }

    pub fn root(rec: &'a Recorder) -> Self {
        Spans(Some((rec, None)))
    }

    /// Runs `f` inside a span named `name` (when recording); `f` receives
    /// the context for spans of its own.
    pub fn scope<T>(&self, name: &str, request: Option<u64>, f: impl FnOnce(Spans<'a>) -> T) -> T {
        match self.0 {
            None => f(*self),
            Some((rec, parent)) => {
                let id = rec.begin(name, parent, request);
                let out = f(Spans(Some((rec, Some(id)))));
                rec.end(id);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_request_ids() {
        let rec = Recorder::new();
        Spans::root(&rec).scope("measure", None, |s| {
            s.scope("request", Some(7), |_| ());
            s.scope("replay", None, |_| ());
        });
        Spans::off().scope("unrecorded", None, |_| ());
        let json = rec.to_json();
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent"), Some(&Value::Num(0.0)));
        assert_eq!(spans[1].get("request"), Some(&Value::Num(7.0)));
        assert_eq!(spans[2].get("name"), Some(&Value::str("replay")));
        let dur = |s: &Value| {
            s.get("end_us").unwrap().as_f64().unwrap()
                - s.get("start_us").unwrap().as_f64().unwrap()
        };
        assert!(dur(&spans[0]) >= dur(&spans[1]) + dur(&spans[2]));
    }
}
