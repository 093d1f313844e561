//! Telemetry adapter for sink pipelines: [`TracingSink`].
//!
//! Wraps any [`ItemsetSink`] and observes the stream without modifying
//! it: emissions, total items, declined extensions and stop polls are
//! counted in plain fields, and itemset supports feed a local
//! [`obs::Histogram`]. Nothing touches the global telemetry facade
//! until [`TracingSink::publish`] (called automatically by
//! [`TracingSink::into_inner`]), so the per-emission cost is a few
//! integer adds whether or not a recorder is installed.
//!
//! Counter names published:
//!
//! - `fpm.itemsets_emitted` — emissions forwarded to the inner sink
//! - `fpm.itemset_items` — sum of emitted itemset lengths
//! - `fpm.extensions_declined` — `wants_extensions` answers of `false`
//! - `fpm.sink_stop_polls` — `should_stop` checkpoint polls observed
//! - histogram `fpm.itemset_support` — support of every emission

use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::ItemId;

/// An [`ItemsetSink`] adapter that counts the stream passing through it
/// and publishes the totals to [`obs`] once, when the run ends.
pub struct TracingSink<S> {
    inner: S,
    emitted: u64,
    total_items: u64,
    declined: u64,
    stop_polls: u64,
    support_hist: obs::Histogram,
    published: bool,
}

impl<S> TracingSink<S> {
    /// Wraps `inner`; counters start at zero.
    pub fn new(inner: S) -> Self {
        TracingSink {
            inner,
            emitted: 0,
            total_items: 0,
            declined: 0,
            stop_polls: 0,
            support_hist: obs::Histogram::new(),
            published: false,
        }
    }

    /// Emissions forwarded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Sum of emitted itemset lengths so far.
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    /// `wants_extensions` calls answered `false` by the inner sink.
    pub fn declined(&self) -> u64 {
        self.declined
    }

    /// `should_stop` polls observed.
    pub fn stop_polls(&self) -> u64 {
        self.stop_polls
    }

    /// The accumulated histogram of emitted supports.
    pub fn support_histogram(&self) -> &obs::Histogram {
        &self.support_hist
    }

    /// Publishes the accumulated counters and histogram to the global
    /// telemetry facade (a no-op when telemetry is disabled), at most
    /// once per sink.
    pub fn publish(&mut self) {
        if self.published {
            return;
        }
        self.published = true;
        obs::counter("fpm.itemsets_emitted", self.emitted);
        obs::counter("fpm.itemset_items", self.total_items);
        obs::counter("fpm.extensions_declined", self.declined);
        obs::counter("fpm.sink_stop_polls", self.stop_polls);
        obs::merge_histogram("fpm.itemset_support", &self.support_hist);
    }

    /// Publishes (if not already) and recovers the wrapped sink.
    pub fn into_inner(mut self) -> S {
        self.publish();
        self.inner
    }

    /// Borrows the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<P: Payload, S: ItemsetSink<P>> ItemsetSink<P> for TracingSink<S> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        self.emitted += 1;
        self.total_items += items.len() as u64;
        self.support_hist.record(support);
        self.inner.emit(items, support, payload);
    }

    fn wants_extensions(&mut self, items: &[ItemId], support: u64) -> bool {
        let wants = self.inner.wants_extensions(items, support);
        if !wants {
            self.declined += 1;
        }
        wants
    }

    fn should_stop(&mut self) -> bool {
        self.stop_polls += 1;
        self.inner.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams};

    fn db() -> TransactionDb {
        TransactionDb::from_rows(
            4,
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 3],
                vec![1, 2],
                vec![0, 1, 2],
            ],
        )
    }

    #[test]
    fn tracing_is_transparent_and_counts_the_stream() {
        let db = db();
        let params = MiningParams::with_min_support_count(2);
        let task = crate::MiningTask::with_params(&db, params.clone()).algorithm(Algorithm::Dense);
        let mut plain = VecSink::new();
        task.run_into(&mut plain);
        let mut traced = TracingSink::new(VecSink::new());
        task.run_into(&mut traced);
        assert_eq!(traced.emitted() as usize, plain.found.len());
        let items: u64 = plain.found.iter().map(|fi| fi.items.len() as u64).sum();
        assert_eq!(traced.total_items(), items);
        let hist = traced.support_histogram();
        assert_eq!(hist.count(), traced.emitted());
        assert_eq!(hist.max(), plain.found.iter().map(|fi| fi.support).max());
        assert_eq!(traced.into_inner().found, plain.found);
    }

    #[test]
    fn tracing_every_miner_counts_identically() {
        let db = db();
        let params = MiningParams::with_min_support_count(1);
        let mut counts = Vec::new();
        for algo in Algorithm::ALL {
            let mut traced = TracingSink::new(VecSink::new());
            crate::MiningTask::with_params(&db, params.clone())
                .algorithm(algo)
                .run_into(&mut traced);
            counts.push((traced.emitted(), traced.total_items()));
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn declined_extensions_are_counted() {
        struct Stubborn;
        impl ItemsetSink<()> for Stubborn {
            fn emit(&mut self, _: &[ItemId], _: u64, _: &()) {}
            fn wants_extensions(&mut self, _: &[ItemId], _: u64) -> bool {
                false
            }
        }
        let db = db();
        let mut traced = TracingSink::new(Stubborn);
        crate::MiningTask::new(&db, 1)
            .algorithm(Algorithm::Dense)
            .run_into(&mut traced);
        assert_eq!(traced.declined(), traced.emitted());
    }
}
