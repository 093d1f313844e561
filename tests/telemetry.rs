//! Integration tests for the telemetry layer: the NDJSON trace produced
//! by a real exploration must be schema-valid, timestamp-monotone and
//! span-balanced, and the aggregated counters must agree with the
//! exploration's own result — including under budget truncation, across
//! miners and thread counts.

use divexplorer::{DivExplorer, Metric};
use fpm::{Algorithm, Budget, Completeness};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// [`obs`] installs a process-global recorder, so every test that
/// installs one must hold this lock for its whole install/uninstall
/// window (tests in one binary run on parallel threads). A test that
/// fails while holding it poisons the lock; the next test recovers the
/// guard, so one failure does not cascade into every later test.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn compas() -> datasets::GeneratedDataset {
    datasets::compas::generate(2000, 42).into_dataset()
}

#[test]
fn trace_is_valid_ndjson_monotone_and_span_balanced() {
    let _guard = obs_lock();
    let path = std::env::temp_dir().join(format!("telemetry-trace-{}.ndjson", std::process::id()));

    let file = std::fs::File::create(&path).unwrap();
    obs::install(std::sync::Arc::new(obs::NdjsonRecorder::new(
        std::io::BufWriter::new(file),
    )));
    let d = compas();
    // FP-growth: the span assertions below include its tree-build phase.
    let report = DivExplorer::new(0.05)
        .with_algorithm(Algorithm::FpGrowth)
        .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
        .expect("explore");
    obs::uninstall(); // flushes the BufWriter through the recorder

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "an instrumented run must emit events");

    let mut last_ts = 0u64;
    let mut open: std::collections::HashMap<(String, u64), u64> = std::collections::HashMap::new();
    let mut seen_events: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut seen_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut emitted_total = 0u64;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("every line must be valid JSON, got {e}: {line}"));
        let ev = v["ev"].as_str().expect("ev field").to_string();
        assert!(
            ["span_enter", "span_exit", "counter", "histogram"].contains(&ev.as_str()),
            "unknown event kind {ev}"
        );
        let ts = v["ts_us"].as_u64().expect("ts_us field");
        assert!(ts >= last_ts, "ts_us must be non-decreasing in file order");
        last_ts = ts;
        let name = v["name"].as_str().expect("name field").to_string();
        match ev.as_str() {
            "span_enter" => {
                *open
                    .entry((name.clone(), v["id"].as_u64().unwrap()))
                    .or_insert(0) += 1;
            }
            "span_exit" => {
                let key = (name.clone(), v["id"].as_u64().unwrap());
                let n = open.get_mut(&key).expect("exit without matching enter");
                *n -= 1;
                if *n == 0 {
                    open.remove(&key);
                }
            }
            "counter" if name == "fpm.itemsets_emitted" => {
                emitted_total += v["delta"].as_u64().unwrap();
            }
            _ => {}
        }
        seen_events.insert(ev);
        seen_names.insert(name);
    }
    assert!(open.is_empty(), "unbalanced spans: {open:?}");
    for ev in ["span_enter", "span_exit", "counter", "histogram"] {
        assert!(seen_events.contains(ev), "missing event kind {ev}");
    }
    // Every exploration stage and the miner's own span must appear.
    for name in [
        "explore.tally",
        "explore.encode",
        "explore.mine",
        "fpm.mine.fp-growth",
        "fpm.fpgrowth.tree_build",
        "fpm.itemsets_emitted",
        "fpm.itemset_support",
        "fpm.arena_bytes",
    ] {
        assert!(
            seen_names.contains(name),
            "missing {name}; got {seen_names:?}"
        );
    }
    assert_eq!(emitted_total, report.len() as u64);
}

#[test]
fn every_miner_emits_its_phase_span_and_matching_counters() {
    let _guard = obs_lock();
    let d = compas();
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Naive]) {
        let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
        obs::install(recorder.clone());
        let report = DivExplorer::new(0.05)
            .with_algorithm(algo)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("explore");
        obs::uninstall();

        let snap = recorder.snapshot();
        let span = snap
            .span(algo.span_name())
            .unwrap_or_else(|| panic!("{algo:?} must record {}", algo.span_name()));
        assert_eq!(span.count, 1, "{algo:?}");
        assert_eq!(
            snap.counter("fpm.itemsets_emitted"),
            report.len() as u64,
            "{algo:?}: stream counter must match the report"
        );
        let hist = snap
            .histogram("fpm.itemset_support")
            .unwrap_or_else(|| panic!("{algo:?} must publish the support histogram"));
        assert_eq!(hist.count(), report.len() as u64, "{algo:?}");
    }
}

/// A request scope must attribute the whole exploration — including
/// events emitted by parallel mining workers on their own threads — to
/// the request, and close its trace even though no event ever crosses
/// the loop thread's boundary explicitly.
#[test]
fn request_context_propagates_through_parallel_mining_workers() {
    let _guard = obs_lock();
    let d = compas();
    let flight = std::sync::Arc::new(obs::FlightRecorder::new(8, 65_536));
    let stats = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(std::sync::Arc::new(obs::Tee(vec![
        flight.clone(),
        stats.clone(),
    ])));
    {
        let _req = obs::request_scope(77, "mine");
        DivExplorer::new(0.05)
            .with_threads(4)
            .with_algorithm(Algorithm::Dense)
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("explore");
    }
    obs::uninstall();

    let trace = flight
        .trace_of(77)
        .expect("the request's trace must be retained");
    assert_eq!(trace.op, "mine");
    assert!(trace.dur_us.is_some(), "scope drop must complete the trace");
    let names: std::collections::HashSet<&str> = trace
        .events
        .iter()
        .map(|e| match e {
            obs::FlightEvent::SpanEnter { name, .. }
            | obs::FlightEvent::SpanExit { name, .. }
            | obs::FlightEvent::Counter { name, .. }
            | obs::FlightEvent::Histogram { name, .. } => *name,
        })
        .collect();
    for name in ["explore.mine", "fpm.parallel.mine", "fpm.itemsets_emitted"] {
        assert!(names.contains(name), "missing {name}; got {names:?}");
    }
    // Worker-side batched publishes carry the adopted context: the
    // per-worker stats land inside the request's event stream.
    assert!(
        names.iter().any(|n| n.starts_with("fpm.dense.")),
        "worker-emitted counters must be attributed: {names:?}"
    );
    // And the aggregate registry recorded the request's latency.
    let snap = stats.snapshot();
    let lat = snap.latency("mine").expect("per-op latency histogram");
    assert_eq!(lat.count(), 1);
}

/// Under FP-growth and Dense and every thread count, the
/// `Truncated` verdict's `emitted` must equal both the patterns kept in
/// the report and the `fpm.itemsets_emitted` counter — the exit-4 path
/// reports exactly what the miner kept.
#[test]
fn truncated_verdict_agrees_with_report_and_counters() {
    let _guard = obs_lock();
    let d = compas();
    for (algo, threads) in [
        (Algorithm::FpGrowth, 1usize),
        (Algorithm::FpGrowth, 2),
        (Algorithm::Dense, 1),
        (Algorithm::Dense, 2),
    ] {
        let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
        obs::install(recorder.clone());
        let report = DivExplorer::new(0.05)
            .with_algorithm(algo)
            .with_threads(threads)
            .with_budget(Budget::unlimited().with_max_itemsets(5))
            .explore(&d.data, &d.v, &d.u, &[Metric::FalsePositiveRate])
            .expect("budget exhaustion is not an error");
        obs::uninstall();

        match *report.completeness() {
            Completeness::Truncated { emitted, .. } => {
                assert_eq!(
                    emitted,
                    report.len() as u64,
                    "{algo}, threads={threads}: verdict must count what the report holds"
                );
                assert_eq!(
                    recorder.snapshot().counter("fpm.itemsets_emitted"),
                    emitted,
                    "{algo}, threads={threads}: telemetry must agree with the verdict"
                );
            }
            Completeness::Complete => {
                panic!("{algo}, threads={threads}: a 5-itemset cap must truncate this dataset")
            }
        }
    }
}

/// The word counters report the words the counting actually read,
/// pinned on a fixed 100-row table: tidsets of two words, and a class
/// layout of two segments (even rows carry no class, odd rows class 0)
/// whose bound at position 50 splits word 0 and whose end at 100 splits
/// word 1. One tally therefore reads 3 words: word 0 up to the bound,
/// word 0 again from it, and word 1.
#[test]
fn word_counters_count_the_words_actually_read() {
    let _guard = obs_lock();
    let rows: Vec<Vec<u32>> = (0..100)
        .map(|t| if t % 2 == 0 { vec![0, 1] } else { vec![0] })
        .collect();
    let db = fpm::TransactionDb::from_rows(2, &rows);
    let payloads: Vec<fpm::CountPayload> = (0..100).map(|t| fpm::CountPayload(t % 2)).collect();
    let params = fpm::MiningParams::with_min_support_count(1);
    let kernel_words = fpm::kernels::selected().words_counter();

    let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(recorder.clone());
    let mined = fpm::MiningTask::with_params(&db, params.clone())
        .payloads(&payloads)
        .algorithm(Algorithm::Dense)
        .run()
        .store;
    obs::uninstall();
    assert_eq!(mined.len(), 3, "{{0}}, {{1}} and {{0, 1}}");
    let snap = recorder.snapshot();
    // Two root tallies (3 + 3), the support AND of {0, 1} (2), its
    // stored intersection (2) and its tally (3).
    assert_eq!(snap.counter("fpm.dense.words_anded"), 13);
    assert_eq!(snap.counter(kernel_words), 13);
    assert_eq!(snap.counter("fpm.layout.segments"), 2);
    assert_eq!(snap.span("fpm.layout.build").map(|s| s.count), Some(1));

    // The recount of the same lattice over one shard: every candidate is
    // a DFS leaf in canonical order, so each costs one tally (the last
    // one fused with its AND) and nothing is stored.
    let mut candidates = mined.to_candidates();
    candidates.sort_canonical();
    let recorder = std::sync::Arc::new(obs::StatsRecorder::new());
    obs::install(recorder.clone());
    let recounted = fpm::MiningTask::with_params(&db, params)
        .payloads(&payloads)
        .shards(1)
        .recount(&candidates);
    obs::uninstall();
    assert_eq!(recounted.store.len(), 3);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(kernel_words), 9);
    assert_eq!(snap.counter("fpm.dense.words_anded"), 0);
}
