//! Acceptance tests for bounded execution (the robustness tentpole): a
//! pathologically low support threshold must not hang, panic, or OOM —
//! it must return partial results tagged `Completeness::Truncated` within
//! a small multiple of the budget, and a `CancelToken` fired from another
//! thread must stop the run at its next checkpoint.

use std::time::{Duration, Instant};

use datasets::{artificial, DatasetId, GeneratedDataset};
use divexplorer::{DivExplorer, DivergenceReport, Metric, Outcome};
use fpm::{Budget, CancelToken, TruncationReason};

/// At support 0 German credit's lattice has millions of itemsets (2.9M
/// already at s=0.01), so neither engine below can finish it within the
/// budgets of these tests, however fast the machine.
const PATHOLOGICAL_SUPPORT: f64 = 0.0;

/// The paper's FP-growth and the dense engine (the default).
const ENGINES: [fpm::Algorithm; 2] = [fpm::Algorithm::FpGrowth, fpm::Algorithm::Dense];

fn pathological_input() -> GeneratedDataset {
    DatasetId::German.generate(42)
}

/// Partial results carry exact statistics: a fixed sample of about 200
/// emitted patterns is checked against a brute-force scan of the rows.
fn assert_partial_patterns_exact(report: &DivergenceReport, d: &GeneratedDataset) {
    assert!(!report.is_empty(), "expected partial results");
    let step = (report.len() / 200).max(1);
    for idx in (0..report.len()).step_by(step) {
        let rows = d.data.support_set(report.items(idx));
        assert_eq!(report.support(idx), rows.len() as u64, "pattern {idx}");
        let (mut t, mut f) = (0, 0);
        for r in rows {
            match Metric::FalsePositiveRate.outcome(d.v[r], d.u[r]) {
                Outcome::T => t += 1,
                Outcome::F => f += 1,
                Outcome::Bot => {}
            }
        }
        let counts = report.counts(idx).get(0);
        assert_eq!((counts.t, counts.f), (t, f), "pattern {idx}");
    }
}

#[test]
fn hundred_ms_budget_truncates_fast_with_partial_results() {
    let d = pathological_input();
    for engine in ENGINES {
        let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
            .with_algorithm(engine)
            .with_budget(Budget::unlimited().with_timeout(Duration::from_millis(100)));

        let start = Instant::now();
        let report = explorer
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("budget exhaustion must not be an error");
        let elapsed = start.elapsed();

        assert!(
            elapsed < Duration::from_millis(500),
            "{engine}: must stop within one checkpoint interval of the deadline, took {elapsed:?}"
        );
        assert_eq!(
            report.completeness().truncation_reason(),
            Some(TruncationReason::Timeout),
            "{engine}"
        );
        assert_partial_patterns_exact(&report, &d);
    }
}

#[test]
fn cancel_token_fired_from_another_thread_stops_the_run() {
    let d = pathological_input();
    for engine in ENGINES {
        let token = CancelToken::new();
        let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
            .with_algorithm(engine)
            .with_cancel_token(token.clone());

        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_millis(50));
                token.cancel();
            }
        });

        let start = Instant::now();
        let report = explorer
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("cancellation must not be an error");
        let elapsed = start.elapsed();
        canceller.join().unwrap();

        assert!(
            elapsed < Duration::from_millis(500),
            "{engine}: cancel must take effect within one checkpoint interval, took {elapsed:?}"
        );
        assert_eq!(
            report.completeness().truncation_reason(),
            Some(TruncationReason::Cancelled),
            "{engine}"
        );
        assert_partial_patterns_exact(&report, &d);
    }
}

#[test]
fn parallel_engine_respects_the_same_budget() {
    let d = artificial::generate(50_000, 42);
    let explorer = DivExplorer::new(PATHOLOGICAL_SUPPORT)
        .with_threads(4)
        .with_budget(Budget::unlimited().with_max_itemsets(1_000));

    let report = explorer
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("budget exhaustion must not be an error");
    assert_eq!(report.len(), 1_000);
    assert_eq!(
        report.completeness().truncation_reason(),
        Some(TruncationReason::ItemsetLimit)
    );
}

#[test]
fn generous_budget_reproduces_the_unbudgeted_report() {
    let d = artificial::generate(2_000, 7);
    let unbudgeted = DivExplorer::new(0.05)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .unwrap();
    let budgeted = DivExplorer::new(0.05)
        .with_budget(
            Budget::unlimited()
                .with_timeout(Duration::from_secs(600))
                .with_max_itemsets(u64::MAX),
        )
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .unwrap();
    assert!(budgeted.is_exploration_complete());
    assert_eq!(budgeted.len(), unbudgeted.len());
    for p in unbudgeted.patterns() {
        let idx = budgeted.find(p.items).unwrap();
        assert_eq!(budgeted.support(idx), p.support);
        assert_eq!(budgeted.counts(idx), p.counts);
    }
}
