//! An in-memory span recorder for the traced run.
//!
//! It collects the program's own spans and the benchmark's spans around
//! each layer call, links each span to the span open on the same thread
//! when it started, so that a span's self time is its duration minus
//! the time its children cover.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Default)]
struct State {
    open: HashMap<u64, (&'static str, Option<u64>, Instant)>,
    closed: Vec<Span>,
}

/// Collects closed spans in memory until read.
#[derive(Default)]
pub struct SpanLog {
    state: Mutex<State>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl SpanLog {
    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a span recorder thread panicked")
    }

    /// Number of spans closed so far; a mark for [`SpanLog::since`].
    pub fn mark(&self) -> usize {
        self.state().closed.len()
    }

    /// Spans closed after `mark`, in closing order.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.state().closed[mark..].to_vec()
    }
}

impl obs::Recorder for SpanLog {
    fn span_enter(&self, name: &'static str, id: u64) {
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        self.state().open.insert(id, (name, parent, Instant::now()));
    }

    fn span_exit(&self, _name: &'static str, id: u64, _dur_us: u64) {
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().retain(|&open_id| open_id != id));
        let mut state = self.state();
        if let Some((name, parent, start)) = state.open.remove(&id) {
            state.closed.push(Span {
                id,
                name,
                parent,
                start,
                end,
            });
        }
    }

    fn add_counter(&self, _name: &'static str, _delta: u64) {}

    fn merge_histogram(&self, _name: &'static str, _hist: &obs::Histogram) {}
}

/// Durations in ms of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Total ms of the direct children of span `id`.
pub fn children_ms(spans: &[Span], id: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::ms)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Recorder;
    use std::time::Duration;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let log = SpanLog::default();
        let mark = log.mark();
        log.span_enter("outer", 1);
        std::thread::sleep(Duration::from_millis(5));
        log.span_enter("inner", 2);
        log.span_enter("leaf", 3);
        std::thread::sleep(Duration::from_millis(10));
        log.span_exit("leaf", 3, 0);
        log.span_exit("inner", 2, 0);
        log.span_enter("inner", 4);
        std::thread::sleep(Duration::from_millis(10));
        log.span_exit("inner", 4, 0);
        log.span_exit("outer", 1, 0);

        let spans = log.since(mark);
        assert_eq!(spans.len(), 4);
        let by_id = |id| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id(1).parent, None);
        assert_eq!(by_id(2).parent, Some(1));
        assert_eq!(by_id(3).parent, Some(2));
        assert_eq!(by_id(4).parent, Some(1));
        let outer = by_id(1).ms();
        let own = outer - children_ms(&spans, 1);
        assert!((own - (outer - by_id(2).ms() - by_id(4).ms())).abs() < 1e-9);
        assert!(own >= 4.0 && own < outer - 19.0, "self {own} of {outer}");
        assert!((children_ms(&spans, 2) - by_id(3).ms()).abs() < 1e-9);
        assert_eq!(children_ms(&spans, 3), 0.0);
        let inner = durations_ms(&spans, "inner");
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().all(|&ms| ms >= 10.0));
    }
}
