//! The traced run: per-layer attribution.
//!
//! A span recorder is installed for the traced parts only. It collects
//! the program's own spans (`explore.tally`, `explore.encode`,
//! `explore.mine`, `explore.recount`, `fpm.fpgrowth.tree_build`,
//! `global_div.item_divergence`, `shapley.contributions`,
//! `artifact.save`, `artifact.load`, `serve.request`; `serve` tees its
//! own recorder with this one). Layers the program does not span yet are
//! timed from outside: after each traced repetition the benchmark
//! replays the commands' pipeline through each layer's public function,
//! inside a span of its own. A command's `cli` self time is its wall
//! time minus the layer calls that make it up.
//!
//! Untraced repetitions alternate with traced ones, so
//! `obs.trace_overhead` compares like with like.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datasets::artifact;
use datasets::csv::{parse_csv, CsvTable};
use divexplorer::{
    corrective::corrective_items, global_div::global_item_divergence_checked,
    pruning::prune_redundant, shapley::item_contributions, DivExplorer, Metric as Outcome, SortBy,
};

use crate::trace::{self, Span, SpanLog};
use crate::workload::{
    Instance, Kind, Sample, Tally, Workload, COMMANDS, KINDS, LABEL, PRED, PRUNE_EPS, TOP,
};
use crate::{med, rss, stats, Metric, Ready, Reference};

/// Per-layer metrics and their units, as named in BENCHMARK.json.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("csv.parse_ms", "ms"),
    ("csv.mb_per_s", "MB/s"),
    ("csv.peak_rss_mb", "MiB"),
    ("discretize.ms", "ms"),
    ("explorer.tally_ms", "ms"),
    ("explorer.encode_ms", "ms"),
    ("fpm.mine_ms", "ms"),
    ("fpm.patterns", "count"),
    ("fpm.patterns_per_s", "1/s"),
    ("fpm.peak_rss_mb", "MiB"),
    ("fpm.recount_ms", "ms"),
    ("fpm.recount_rows", "count"),
    ("report.rank_ms", "ms"),
    ("report.export_ms", "ms"),
    ("report.peak_rss_mb", "MiB"),
    ("json.serialize_ms", "ms"),
    ("json.bytes", "bytes"),
    ("json.parse_ms", "ms"),
    ("global_div.ms", "ms"),
    ("pruning.ms", "ms"),
    ("pruning.kept_ratio", "ratio"),
    ("corrective.ms", "ms"),
    ("corrective.items", "count"),
    ("shapley.ms", "ms"),
    ("cli.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.resident_mb", "MiB"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes_per_pattern", "bytes"),
    ("obs.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
    ("cli.coverage", "ratio"),
];

/// Queries per serve block of a traced run even past its deadline.
const MIN_REQUESTS: usize = 30;
/// Untraced and traced batch repetitions each, even past the deadline.
const MIN_PAIRS: usize = 2;
/// Replays of each serve request kind and of the artifact round trip in
/// a run, spread over the draws (at least one per draw).
const REPLAYS: usize = 3;
/// Quantile bins the CLI uses by default.
const BINS: usize = 3;

/// Runs `f` inside a benchmark span named `name`; returns its result
/// and the span's duration in ms.
fn layer<T>(log: &SpanLog, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let mark = log.mark();
    let out = {
        let _span = obs::span(name);
        f()
    };
    let spans = log.since(mark);
    let own = spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(f64::NAN, Span::ms);
    (out, own)
}

/// Installs the recorder until dropped.
struct Installed;

impl Installed {
    fn new(log: &Arc<SpanLog>) -> Installed {
        obs::install(Arc::clone(log) as Arc<dyn obs::Recorder>);
        Installed
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        obs::uninstall();
    }
}

/// Layer samples by metric name, plus the bookkeeping the derived
/// metrics need.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn push_peak(&mut self, name: &'static str, peak: Option<f64>) {
        if let Some(peak) = peak {
            self.push(name, peak);
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).and_then(|v| stats::median(v))
    }
}

/// Splits the label and prediction columns off a parsed CSV, as
/// `cli::prepare` does, leaving the feature table.
fn split_columns(table: CsvTable) -> Result<(CsvTable, Vec<bool>, Vec<bool>), String> {
    let mut features = CsvTable {
        header: Vec::new(),
        columns: Vec::new(),
    };
    let (mut v, mut u) = (None, None);
    for (name, column) in table.header.into_iter().zip(table.columns) {
        let flags = || -> Vec<bool> { column.iter().map(|c| c.trim() == "1").collect() };
        match name.as_str() {
            LABEL => v = Some(flags()),
            PRED => u = Some(flags()),
            _ => {
                features.header.push(name);
                features.columns.push(column);
            }
        }
    }
    Ok((
        features,
        v.ok_or("no label column")?,
        u.ok_or("no prediction column")?,
    ))
}

/// One traced batch repetition's layer times for each command, in
/// [`COMMANDS`] order, summed over the layer calls the command makes.
fn replay_batch(
    log: &SpanLog,
    w: &Workload,
    inputs: &Instance,
    reference: &Reference,
    json_len: usize,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<[f64; 6], String> {
    let ((table, parse_ms), csv_peak) =
        rss::measure_peak(|| layer(log, "csv.parse", || parse_csv(&inputs.csv, ',')));
    samples.push_peak("csv.peak_rss_mb", csv_peak);
    samples.push(
        "csv.mb_per_s",
        inputs.csv.len() as f64 / 1e6 / (parse_ms / 1e3),
    );
    let (features, v, u) = split_columns(table.map_err(|e| e.to_string())?)?;
    let (data, discretize_ms) = layer(log, "discretize", || features.into_dataset(BINS));
    let data = data.map_err(|e| e.to_string())?;
    let ((report, explorer_ms), fpm_peak) = rss::measure_peak(|| {
        layer(log, "explorer", || {
            DivExplorer::new(w.support).explore(&data, &v, &u, &[Outcome::FalsePositiveRate])
        })
    });
    samples.push_peak("fpm.peak_rss_mb", fpm_peak);
    let report = report.map_err(|e| e.to_string())?;
    tally.record(
        "replay patterns",
        (report.len() == reference.patterns)
            .then_some(())
            .ok_or(format!("replay found {} patterns", report.len())),
    );
    let prefix = parse_ms + discretize_ms + explorer_ms;

    let (_, rank_ms) = layer(log, "report.rank", || report.ranked(0, SortBy::Divergence));
    let ((export, export_ms), report_peak) =
        rss::measure_peak(|| layer(log, "report.export", || report.export()));
    samples.push_peak("report.peak_rss_mb", report_peak);
    let (json, serialize_ms) = layer(log, "json.serialize", || {
        serde_json::to_string_pretty(&export)
    });
    drop(export);
    let json_bytes = json.map_err(|e| e.to_string())?.len();
    samples.push("json.bytes", json_bytes as f64);
    // `explore --json` prints the serialized export and a newline.
    tally.record(
        "replay json",
        (json_bytes + 1 == json_len).then_some(()).ok_or(format!(
            "replay json is {json_bytes} bytes, the command printed {json_len}"
        )),
    );
    let eps: f64 = PRUNE_EPS.parse().expect("a float literal");
    let (kept, pruning_ms) = layer(log, "pruning", || prune_redundant(&report, 0, eps));
    samples.push(
        "pruning.kept_ratio",
        kept.len() as f64 / report.len() as f64,
    );
    let (globals, global_ms) = layer(log, "global_div", || {
        global_item_divergence_checked(&report, 0)
    });
    tally.record(
        "replay global",
        globals.map(drop).map_err(|e| e.to_string()),
    );
    let (found, corrective_ms) = layer(log, "corrective", || {
        let mut all = corrective_items(&report, 0);
        let found = all.len();
        all.truncate(TOP);
        found
    });
    samples.push("corrective.items", found as f64);
    let (contributions, shapley_ms) = layer(log, "shapley", || {
        item_contributions(&report, &reference.target_items, 0)
    });
    tally.record(
        "replay shapley",
        contributions
            .map_err(|e| e.to_string())
            .and_then(|_| crate::workload::efficiency(&report, &reference.target_items)),
    );
    Ok([
        prefix + rank_ms,
        prefix + export_ms + serialize_ms,
        prefix + pruning_ms + rank_ms,
        prefix + global_ms,
        prefix + corrective_ms,
        prefix + shapley_ms,
    ])
}

/// The lattice artifacts in a registry, by dataset hash.
fn arena_files(registry: &Path) -> Result<BTreeMap<u64, PathBuf>, String> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(registry).map_err(|e| format!("{}: {e}", registry.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "dxa") {
            let (key, _) = artifact::load_arena(&path).map_err(|e| e.to_string())?;
            files.insert(key.dataset_hash, path);
        }
    }
    Ok(files)
}

/// Replayed times of the request-line parse and of the ranking, per
/// draw and request kind.
type KindTimes = BTreeMap<(usize, usize), (Vec<f64>, Vec<f64>)>;

/// Replays the serve path's layers from outside. For each draw: the
/// round trip of its lattice artifact, then for each request kind the
/// line parse, the recount and the ranking.
fn replay_serve(
    log: &SpanLog,
    w: &Workload,
    ready: &Ready,
    registry: &Path,
    scratch: &Path,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<KindTimes, String> {
    let files = arena_files(registry)?;
    let copy = scratch.join("replay.dxa");
    let mut times = KindTimes::new();
    let per_draw = REPLAYS.div_ceil(ready.instances.len());
    for (i, instance) in ready.instances.iter().enumerate() {
        let args = instance.command_args(w, &["explore"], "");
        let prepared = cli::prepare(&instance.csv, &args).map_err(|e| e.to_string())?;
        let source = files
            .get(&artifact::dataset_hash(&prepared.data))
            .ok_or(format!("no lattice artifact for {}", instance.name))?;
        let mut arena = None;
        for _ in 0..per_draw {
            let (loaded, _) = layer(log, "artifact.load_arena", || artifact::load_arena(source));
            let (key, lattice) = loaded.map_err(|e| e.to_string())?;
            let (saved, _) = layer(log, "artifact.save_arena", || {
                artifact::save_arena(&copy, &key, &lattice)
            });
            saved.map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&copy).map_err(|e| e.to_string())?.len();
            samples.push(
                "artifact.bytes_per_pattern",
                bytes as f64 / lattice.len() as f64,
            );
            arena = Some(lattice);
        }
        let arena = arena.expect("per_draw > 0");
        for _ in 0..per_draw {
            for (k, (kind, line)) in KINDS.iter().zip(&ready.lines[i]).enumerate() {
                let (parsed, parse_ms) = layer(log, "json.parse", || {
                    serde_json::from_str::<serde_json::Value>(line)
                });
                tally.record("replay parse", parsed.map(drop).map_err(|e| e.to_string()));
                let u = match kind {
                    Kind::WhatIf => &instance.whatif_u,
                    Kind::Fpr | Kind::Fnr => &prepared.u,
                };
                let (report, _) = layer(log, "serve.recount", || {
                    DivExplorer::new(w.support).from_artifact(
                        &prepared.data,
                        &arena,
                        &prepared.v,
                        u,
                        &[kind.metric()],
                    )
                });
                let report = report.map_err(|e| e.to_string())?;
                let rows = report
                    .shard_stats()
                    .map_or(report.n_rows() as u64, |s| s.recount_rows);
                samples.push("fpm.recount_rows", rows as f64);
                let (_, rank_ms) =
                    layer(log, "report.rank", || report.ranked(0, SortBy::Divergence));
                let entry = times.entry((i, k)).or_default();
                entry.0.push(parse_ms);
                entry.1.push(rank_ms);
                if *kind == Kind::WhatIf {
                    samples.push("json.parse_ms", parse_ms);
                }
            }
        }
    }
    Ok(times)
}

/// Serve's own time in a request: its latency minus the program spans
/// inside it and the replayed parse and ranking of its draw and kind.
fn serve_self_ms(sample: &Sample, times: &KindTimes) -> Option<f64> {
    let request = sample.spans.iter().find(|s| s.name == "serve.request")?;
    let k = KINDS.iter().position(|&kind| kind == sample.kind)?;
    let (parse, rank) = times.get(&(sample.instance, k))?;
    Some(
        sample.ms
            - trace::children_ms(&sample.spans, request.id)
            - stats::median(parse)?
            - stats::median(rank)?,
    )
}

pub fn traced_run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let scratch = crate::workload::Scratch::new(w.name, seed)?;
    let ready = crate::get_ready(w, seed, &scratch, tally)?;
    let half_serve = Duration::from_secs_f64(w.serve_share * seconds / 2.0);
    let min = MIN_REQUESTS.max(KINDS.len() * w.instances);

    // Serve, untraced then traced, each in a fresh session.
    let (untraced, _) = crate::serve_phase(
        w,
        &ready,
        &scratch,
        None,
        &mut crate::for_budget(half_serve, min),
        tally,
    )?;
    let untraced = untraced.queries;
    let log = Arc::new(SpanLog::default());
    let mut samples = Samples::default();
    let (traced, times, hits) = {
        let _installed = Installed::new(&log);
        let (session, before) = crate::serve_phase(
            w,
            &ready,
            &scratch,
            Some(&log),
            &mut crate::for_budget(half_serve, min),
            tally,
        )?;
        let after = crate::workload::cache_stats(&session.stats);
        tally.record("stats", after.as_ref().map(drop).map_err(Clone::clone));
        let after = after.unwrap_or_default();
        let hits = after[0].saturating_sub(before[0]);
        let misses = after[1].saturating_sub(before[1]);
        samples.push("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
        samples.push("cache.resident_mb", after[2] as f64 / (1 << 20) as f64);
        let times = replay_serve(
            &log,
            w,
            &ready,
            &session.registry,
            &scratch.0,
            &mut samples,
            tally,
        )?;
        (session.queries, times, hits)
    };
    for sample in &traced {
        if let Some(own) = serve_self_ms(sample, &times) {
            samples.push("serve.self_ms", own);
        }
    }
    println!("serve: {hits} cache hits in the traced loop");

    // Batch, alternating untraced and traced repetitions of one draw.
    let until = Instant::now() + Duration::from_secs_f64((1.0 - w.serve_share) * seconds);
    let mut checker = crate::workload::BatchChecker::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut coverage: Vec<[f64; 6]> = Vec::new();
    while traced_walls.len() < MIN_PAIRS || Instant::now() < until {
        let i = traced_walls.len() % w.instances;
        plain_walls.push(crate::batch_rep(w, &ready, i, &mut checker, tally).0);
        let _installed = Installed::new(&log);
        let (walls, lens) = crate::batch_rep(w, &ready, i, &mut checker, tally);
        let (instance, reference) = (&ready.instances[i], &ready.references[i]);
        let layers = replay_batch(&log, w, instance, reference, lens[1], &mut samples, tally)?;
        let mut own = 0.0;
        let mut covered = [0.0; 6];
        for c in 0..COMMANDS.len() {
            own += walls[c] - layers[c];
            covered[c] = layers[c] / walls[c];
        }
        samples.push("cli.self_ms", own);
        samples.push(
            "cli.coverage",
            covered.iter().sum::<f64>() / covered.len() as f64,
        );
        coverage.push(covered);
        traced_walls.push(walls);
    }
    for (c, (name, _)) in COMMANDS.iter().enumerate() {
        let shares: Vec<f64> = coverage.iter().map(|r| r[c]).collect();
        let walls: Vec<f64> = plain_walls.iter().map(|r| r[c]).collect();
        println!(
            "coverage: {name} {:.1}% of {:.3} ms (untraced median) is in layer spans",
            100.0 * med(&shares, name)?,
            med(&walls, name)?
        );
    }

    // Program spans, wherever they ran while the recorder was installed.
    let spans = log.since(0);
    for (metric, span) in [
        ("explorer.tally_ms", "explore.tally"),
        ("explorer.encode_ms", "explore.encode"),
        ("fpm.mine_ms", "explore.mine"),
        ("fpm.recount_ms", "explore.recount"),
        ("csv.parse_ms", "csv.parse"),
        ("discretize.ms", "discretize"),
        ("report.rank_ms", "report.rank"),
        ("report.export_ms", "report.export"),
        ("json.serialize_ms", "json.serialize"),
        ("global_div.ms", "global_div"),
        ("pruning.ms", "pruning"),
        ("corrective.ms", "corrective"),
        ("shapley.ms", "shapley"),
        ("artifact.save_ms", "artifact.save_arena"),
        ("artifact.load_ms", "artifact.load_arena"),
    ] {
        for d in trace::durations_ms(&spans, span) {
            samples.push(metric, d);
        }
    }

    let mine_ms = samples.median("fpm.mine_ms").ok_or("no mining spans")?;
    let patterns: Vec<f64> = ready.references.iter().map(|r| r.patterns as f64).collect();
    let patterns = med(&patterns, "patterns")?;
    samples.push("fpm.patterns", patterns);
    samples.push("fpm.patterns_per_s", patterns / (mine_ms / 1e3));

    // Tracing overhead on the workload's main phase.
    let sum = |reps: &[[f64; 6]]| -> Vec<f64> { reps.iter().map(|r| r.iter().sum()).collect() };
    let batch_overhead =
        med(&sum(&traced_walls), "traced reps")? / med(&sum(&plain_walls), "reps")? - 1.0;
    let plain_kinds = [Kind::Fpr, Kind::Fnr];
    let untraced_p50 = med(
        &crate::workload::latencies(&untraced, &plain_kinds),
        "queries",
    )?;
    let traced_p50 = med(
        &crate::workload::latencies(&traced, &plain_kinds),
        "queries",
    )?;
    let serve_overhead = traced_p50 / untraced_p50 - 1.0;
    println!("overhead: batch {batch_overhead:+.4}, serve p50 {serve_overhead:+.4}");
    samples.push(
        "obs.trace_overhead",
        if w.serve_share >= 0.5 {
            serve_overhead
        } else {
            batch_overhead
        },
    );
    samples.push("error_rate", tally.error_rate());

    // The shares that justify each workload (see README.md).
    let explore_ms = med(
        &plain_walls.iter().map(|r| r[0]).collect::<Vec<_>>(),
        "explore",
    )?;
    let get = |name: &str| samples.median(name).unwrap_or(f64::NAN);
    println!(
        "share: (csv.parse + discretize) / explore = {:.4}",
        (get("csv.parse_ms") + get("discretize.ms")) / explore_ms
    );
    println!(
        "share: (fpm.recount + report.rank) / query p50 = {:.4}",
        (get("fpm.recount_ms") + get("report.rank_ms")) / untraced_p50
    );

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match samples.median(name) {
            Some(value) => metrics.push((name, value, unit)),
            // A missing peak means the kernel refused the VmHWM reset.
            None if name.ends_with("peak_rss_mb") => {}
            None => return Err(format!("no samples of {name}")),
        }
    }
    Ok(metrics)
}
