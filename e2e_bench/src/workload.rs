//! The workloads: seeded inputs, the batch command sequence, the serve
//! session and the output checks shared by the plain and traced runs.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use datasets::DatasetId;
use divexplorer::{shapley::item_contributions, DivExplorer, Metric, SortBy};
use serde_json::Value;

use crate::closed_loop::{drive, Exchange};

/// Ground-truth and prediction column names in the generated CSV.
pub const LABEL: &str = "y_true";
pub const PRED: &str = "y_pred";
/// Rows each query returns.
pub const TOP: usize = 10;
/// Share of predictions the "what-if" model flips.
const WHATIF_FLIP: f64 = 0.1;
/// ε of `explore --prune`.
pub const PRUNE_EPS: &str = "0.01";

/// One workload: a dataset at one support and how many independent
/// draws of it a run uses. A plain run follows each batch command with
/// `queries_per_command` serve queries; the traced run gives the serve
/// loop `serve_share` of its seconds.
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetId,
    pub support: f64,
    pub instances: usize,
    pub queries_per_command: usize,
    pub serve_share: f64,
}

// Why each workload exists is recorded in README.md; in short:
// audit-deep is lattice-bound (analyses and export dominate, parsing is
// ~1%), ingest-wide is parse-bound (a 3 MB CSV with numeric columns and
// a small lattice), serve-requery is the warm recount path.
// BENCHMARK.json lists audit-deep and serve-requery; ingest-wide runs by
// name (see README.md for why it is not in the listed set).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "audit-deep",
        dataset: DatasetId::German,
        // s = 0.01 would export 1.5 GB of JSON per command; 0.05 is the
        // CLI default and still yields a lattice ~80x the input rows.
        support: 0.05,
        // Draws of german differ: 84k-94k patterns, and a draw's median
        // query latency from 34 to 44 ms. A run spreads its work over 4
        // draws so that its figures depend less on which ones the seed
        // picks; more draws would make set-up eat the run's time.
        instances: 4,
        // Three ~70 ms queries per ~420 ms command: a third of the run.
        queries_per_command: 3,
        serve_share: 0.25,
    },
    Workload {
        name: "ingest-wide",
        dataset: DatasetId::Adult,
        support: 0.1,
        instances: 1,
        queries_per_command: 5,
        serve_share: 0.2,
    },
    Workload {
        name: "serve-requery",
        dataset: DatasetId::Adult,
        support: 0.01,
        instances: 1,
        // Four ~100 ms queries per ~400 ms command: half the run.
        queries_per_command: 4,
        serve_share: 0.5,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The batch sequence: metric name and subcommand arguments. `shapley`
/// also gets `--itemset` with explore's top pattern (see
/// [`Reference::target_spec`]).
pub const COMMANDS: [(&str, &[&str]); 6] = [
    ("explore_ms", &["explore"]),
    ("explore_json_ms", &["explore", "--json"]),
    ("prune_ms", &["explore", "--prune", PRUNE_EPS]),
    ("global_ms", &["global"]),
    ("corrective_ms", &["corrective"]),
    ("shapley_ms", &["shapley"]),
];

/// Counts commands and requests, and those that failed or returned a
/// wrong output.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempt; an error is a failure, reported on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("e2e_bench: {what}: {e}");
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A directory for the run's files, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(workload: &str, seed: u64) -> Result<Scratch, String> {
        let dir = PathBuf::from(".e2e_bench_tmp")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails, leaving the parent, while another run still uses it.
        let _ = std::fs::remove_dir(".e2e_bench_tmp");
    }
}

/// One draw of the workload's dataset, as the program sees it: CSV text
/// (also on disk for `serve`'s `register`), its name in the serve
/// registry, and the what-if prediction vector.
pub struct Instance {
    pub name: String,
    pub csv: String,
    pub csv_path: PathBuf,
    pub whatif_u: Vec<bool>,
}

impl Instance {
    /// Draw `i` of the run seeded with `seed`.
    pub fn generate(w: &Workload, seed: u64, i: usize, dir: &Path) -> Result<Instance, String> {
        let seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
        let g = w.dataset.generate(seed);
        let csv = datasets::csv::write_csv(&g.data, &g.v, &g.u, LABEL, PRED);
        let csv_path = dir.join(format!("input-{i}.csv"));
        std::fs::write(&csv_path, &csv).map_err(|e| format!("{}: {e}", csv_path.display()))?;
        let mut rng = SplitMix(seed ^ 0x5eed_1f0f);
        let whatif_u =
            g.u.iter()
                .map(|&u| u ^ (rng.unit() < WHATIF_FLIP))
                .collect();
        Ok(Instance {
            name: format!("d{i}"),
            csv,
            csv_path,
            whatif_u,
        })
    }

    /// CLI arguments for one batch command.
    pub fn command_args(&self, w: &Workload, argv: &[&str], itemset: &str) -> cli::Args {
        let path = self.csv_path.to_string_lossy().into_owned();
        let support = w.support.to_string();
        let mut full: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        if argv == ["shapley"] {
            full.extend(["--itemset".to_string(), itemset.to_string()]);
        }
        for flag in [
            "--input",
            &path,
            "--label",
            LABEL,
            "--pred",
            PRED,
            "--support",
            &support,
        ] {
            full.push(flag.to_string());
        }
        cli::Args::parse(full).expect("the benchmark's command lines are valid")
    }
}

/// A small seeded generator (SplitMix64) for the what-if flips.
struct SplitMix(u64);

impl SplitMix {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A row of a ranked result as it crosses the wire.
pub type Row = (String, Option<f64>);

/// What a cold `explore` of the same CSV says, computed once per run
/// (untimed) to check every output against.
pub struct Reference {
    pub rows: usize,
    pub items: u32,
    pub patterns: usize,
    /// Explore's top FPR pattern, as printed.
    pub top_display: String,
    /// The `shapley` target: the highest-ranked FPR pattern that
    /// `--itemset` can express, as a spec and as items. The spec syntax
    /// splits on ',', so an item whose value holds one (a numeric bin
    /// label such as `[2,4)`) cannot be named.
    pub target_spec: String,
    pub target_items: Vec<divexplorer::ItemId>,
    /// Top-[`TOP`] FPR and FNR rows.
    pub fpr: Vec<Row>,
    pub fnr: Vec<Row>,
    /// Result of the Eq. 5 efficiency check on the target.
    pub efficiency: Result<(), String>,
}

impl Reference {
    pub fn compute(w: &Workload, inputs: &Instance) -> Result<Reference, String> {
        let args = inputs.command_args(w, &["explore"], "");
        let prepared = cli::prepare(&inputs.csv, &args).map_err(|e| e.to_string())?;
        let metrics = [Metric::FalsePositiveRate, Metric::FalseNegativeRate];
        let report = DivExplorer::new(w.support)
            .explore(&prepared.data, &prepared.v, &prepared.u, &metrics)
            .map_err(|e| e.to_string())?;
        let top = |m: usize| -> Vec<Row> {
            report
                .ranked(m, SortBy::Divergence)
                .into_iter()
                .take(TOP)
                .map(|idx| {
                    let items = report.items(idx);
                    (
                        report.display_itemset(items),
                        wire(report.divergence(idx, m)),
                    )
                })
                .collect()
        };
        let ranked = report.ranked(0, SortBy::Divergence);
        let best = *ranked.first().ok_or("the lattice has no ranked pattern")?;
        let schema = report.schema();
        let spec_of = |idx: usize| -> Vec<String> {
            report
                .items(idx)
                .iter()
                .map(|&i| schema.display_item(i))
                .collect()
        };
        let target = *ranked
            .iter()
            .find(|&&idx| spec_of(idx).iter().all(|item| !item.contains(',')))
            .ok_or("no ranked pattern can be named with --itemset")?;
        let target_items = report.items(target).to_vec();
        Ok(Reference {
            rows: report.n_rows(),
            items: schema.n_items(),
            patterns: report.len(),
            top_display: report.display_itemset(report.items(best)),
            target_spec: spec_of(target).join(","),
            efficiency: efficiency(&report, &target_items),
            target_items,
            fpr: top(0),
            fnr: top(1),
        })
    }
}

/// Checks that the Shapley contributions of `items` sum to their
/// divergence (Eq. 5 efficiency).
pub fn efficiency(
    report: &divexplorer::DivergenceReport,
    items: &[divexplorer::ItemId],
) -> Result<(), String> {
    let idx = report
        .find(items)
        .ok_or("the shapley target is not frequent")?;
    let contributions = item_contributions(report, items, 0).map_err(|e| e.to_string())?;
    let sum: f64 = contributions.iter().map(|(_, c)| c).sum();
    let delta = report.divergence(idx, 0);
    if (sum - delta).abs() <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "shapley contributions sum to {sum}, divergence is {delta}"
        ))
    }
}

/// A float as it reads after a JSON round trip.
fn wire(x: f64) -> Option<f64> {
    let text = serde_json::to_string(&Value::Number(x)).ok()?;
    serde_json::from_str::<Value>(&text).ok()?.as_f64()
}

fn hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Runs one batch command in-process, as the binary does after reading
/// the file. Returns its wall time and its output.
pub fn run_command(args: &cli::Args, csv: &str) -> (Duration, Result<String, String>) {
    let mut out = String::new();
    let started = Instant::now();
    let status = cli::run_with_content(args, csv, &mut out);
    let wall = started.elapsed();
    let outcome = match status {
        Ok(cli::RunStatus::Complete) if !out.is_empty() => Ok(out),
        Ok(cli::RunStatus::Complete) => Err("empty output".to_string()),
        Ok(status) => Err(format!("status {status:?}")),
        Err(e) => Err(e.to_string()),
    };
    (wall, outcome)
}

/// Checks the batch outputs of one repetition against the reference and
/// against the first repetition, which every later one must repeat.
#[derive(Default)]
pub struct BatchChecker {
    first: HashMap<String, Vec<(u64, usize)>>,
}

impl BatchChecker {
    pub fn check(
        &mut self,
        instance: &Instance,
        reference: &Reference,
        outputs: &[Result<String, String>],
    ) -> Vec<Result<(), String>> {
        let prints: Vec<(u64, usize)> = outputs
            .iter()
            .map(|o| o.as_ref().map_or((0, 0), |text| (hash(text), text.len())))
            .collect();
        let first = self
            .first
            .entry(instance.name.clone())
            .or_insert_with(|| prints.clone());
        outputs
            .iter()
            .enumerate()
            .map(|(c, outcome)| {
                let text = outcome.as_ref().map_err(Clone::clone)?;
                if c == 0 {
                    check_explore_text(reference, text)?;
                }
                if prints[c] != first[c] {
                    return Err("output differs from the first repetition".to_string());
                }
                Ok(())
            })
            .collect()
    }
}

/// `explore` must report the reference pattern count and top pattern.
fn check_explore_text(reference: &Reference, text: &str) -> Result<(), String> {
    let mut lines = text.lines();
    let head = lines.next().unwrap_or_default();
    let count = head
        .rsplit_once(", ")
        .and_then(|(_, tail)| tail.split(' ').next())
        .and_then(|n| n.parse::<usize>().ok());
    if count != Some(reference.patterns) {
        return Err(format!(
            "explore reports {count:?} patterns, a cold explore {}",
            reference.patterns
        ));
    }
    let top = lines.next().unwrap_or_default().trim_start();
    if !top.starts_with(&format!("{} ", reference.top_display)) {
        return Err(format!("explore's top pattern is '{top}'"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve

fn request_line(fields: Vec<(&str, Value)>) -> String {
    let object = Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&object).expect("requests serialize")
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn register_line(inputs: &Instance) -> String {
    request_line(vec![
        ("op", text("register")),
        ("name", text(&inputs.name)),
        ("path", text(&inputs.csv_path.to_string_lossy())),
        ("label", text(LABEL)),
        ("pred", text(PRED)),
    ])
}

pub fn mine_line(w: &Workload, inputs: &Instance) -> String {
    request_line(vec![
        ("op", text("mine")),
        ("name", text(&inputs.name)),
        ("support", Value::Number(w.support)),
    ])
}

pub fn stats_line() -> String {
    request_line(vec![("op", text("stats"))])
}

/// The timed loop's three request kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fpr,
    Fnr,
    WhatIf,
}

pub const KINDS: [Kind; 3] = [Kind::Fpr, Kind::Fnr, Kind::WhatIf];

impl Kind {
    pub fn metric(self) -> Metric {
        match self {
            Kind::Fnr => Metric::FalseNegativeRate,
            Kind::Fpr | Kind::WhatIf => Metric::FalsePositiveRate,
        }
    }

    pub fn line(self, w: &Workload, inputs: &Instance) -> String {
        let mut fields = vec![
            ("op", text("query")),
            ("name", text(&inputs.name)),
            ("support", Value::Number(w.support)),
            ("metric", text(self.metric().short_name())),
            ("top", Value::Number(TOP as f64)),
        ];
        if self == Kind::WhatIf {
            let u = inputs
                .whatif_u
                .iter()
                .map(|&b| Value::Number(if b { 1.0 } else { 0.0 }))
                .collect();
            fields.push(("u", Value::Array(u)));
        }
        request_line(fields)
    }
}

/// Parses a response and requires `"ok":true`.
pub fn ok_response(exchange: &Exchange) -> Result<Value, String> {
    let value: Value =
        serde_json::from_str(&exchange.response).map_err(|e| format!("bad response: {e}"))?;
    if value["ok"].as_bool() == Some(true) {
        Ok(value)
    } else {
        Err(format!("not ok: {}", exchange.response))
    }
}

/// Checks a query response: served from the cache over the reference
/// lattice, and for plain queries the reference's top rows bit for bit.
pub fn check_query(kind: Kind, response: &Value, reference: &Reference) -> Result<(), String> {
    if response["source"].as_str() != Some("cache") {
        return Err(format!(
            "served from {:?}, not the cache",
            response["source"]
        ));
    }
    if response["patterns"].as_u64() != Some(reference.patterns as u64) {
        return Err(format!("{:?} patterns", response["patterns"]));
    }
    let rows: Vec<Row> = response["results"]
        .as_array()
        .ok_or("no results array")?
        .iter()
        .map(|row| {
            (
                row["itemset"].as_str().unwrap_or_default().to_string(),
                row["divergence"].as_f64(),
            )
        })
        .collect();
    let expected = match kind {
        Kind::Fpr => &reference.fpr,
        Kind::Fnr => &reference.fnr,
        Kind::WhatIf if rows.is_empty() => return Err("no results".to_string()),
        Kind::WhatIf => return Ok(()),
    };
    let same = rows.len() == expected.len()
        && rows
            .iter()
            .zip(expected)
            .all(|((a, x), (b, y))| a == b && x.map(f64::to_bits) == y.map(f64::to_bits));
    if same {
        Ok(())
    } else {
        Err(format!("top rows differ from a cold explore: {rows:?}"))
    }
}

/// Lines that register each draw and mine it cold.
pub fn set_up_lines(w: &Workload, instances: &[Instance]) -> Vec<String> {
    instances
        .iter()
        .flat_map(|instance| [register_line(instance), mine_line(w, instance)])
        .collect()
}

/// Checks a set-up response: `register` must succeed and `mine` must
/// have mined cold.
pub fn check_set_up(line: &str, exchange: &Exchange) -> Result<(), String> {
    let response = ok_response(exchange)?;
    if line.contains(r#""op":"mine""#) && response["source"].as_str() != Some("mined") {
        return Err(format!(
            "mine came from {:?}, not a cold mine",
            response["source"]
        ));
    }
    Ok(())
}

/// Cache counters from a `stats` response: hits, misses, resident bytes.
pub fn cache_stats(exchange: &Exchange) -> Result<[u64; 3], String> {
    let response = ok_response(exchange)?;
    let field = |key: &str| response[key].as_u64().ok_or(format!("stats lacks {key}"));
    Ok([
        field("cache_hits")?,
        field("cache_misses")?,
        field("resident_bytes")?,
    ])
}

/// One timed request.
pub struct Sample {
    pub instance: usize,
    pub kind: Kind,
    pub ms: f64,
    pub exchange: Exchange,
    /// Spans recorded during the request (traced run only).
    pub spans: Vec<crate::trace::Span>,
}

/// Everything one `serve` session sent and got back.
pub struct Session {
    pub registry: PathBuf,
    /// The set-up lines' exchanges, in order.
    pub set_up: Vec<Exchange>,
    pub queries: Vec<Sample>,
    /// The `stats` exchange that ends the session.
    pub stats: Exchange,
}

/// Runs one `serve --artifact <registry>` session through the closed
/// loop: `set_up` lines first, then queries cycling through the draws
/// (`lines[i]` holds draw `i`'s lines in [`KINDS`] order) for as long
/// as `next` says so, then `stats`, then end of input. `next` sees the
/// queries so far. It runs between a response and the next hand-off,
/// so whatever else it does is in no latency.
pub fn run_session(
    registry: &Path,
    set_up: &[String],
    lines: &[[String; 3]],
    log: Option<&crate::trace::SpanLog>,
    next: &mut dyn FnMut(&[Sample]) -> bool,
) -> Result<Session, String> {
    let args = cli::Args::parse([
        "serve".to_string(),
        "--artifact".to_string(),
        registry.to_string_lossy().into_owned(),
    ])
    .expect("the serve command line is valid");
    enum Sent {
        SetUp,
        Query(usize),
        Stats,
    }
    let mut done_set_up = Vec::new();
    let mut queries = Vec::new();
    let mut stats = None;
    let mut mark = 0;
    let mut last = None;
    let client = |previous: Option<Exchange>| -> Option<String> {
        if let Some(exchange) = previous {
            match last.take().expect("a response answers a request") {
                Sent::SetUp => done_set_up.push(exchange),
                Sent::Query(q) => queries.push(Sample {
                    instance: q / KINDS.len() % lines.len(),
                    kind: KINDS[q % KINDS.len()],
                    ms: exchange.latency.as_secs_f64() * 1e3,
                    spans: log.map(|l| l.since(mark)).unwrap_or_default(),
                    exchange,
                }),
                Sent::Stats => {
                    stats = Some(exchange);
                    return None;
                }
            }
        }
        let (next, line) = if done_set_up.len() < set_up.len() {
            (Sent::SetUp, set_up[done_set_up.len()].clone())
        } else {
            let q = queries.len();
            if !lines.is_empty() && next(&queries) {
                mark = log.map_or(0, |l| l.mark());
                let line = lines[q / KINDS.len() % lines.len()][q % KINDS.len()].clone();
                (Sent::Query(q), line)
            } else {
                (Sent::Stats, stats_line())
            }
        };
        last = Some(next);
        Some(line)
    };
    drive(client, |requests, responses| {
        cli::serve::serve_loop(&args, requests, responses)
    })?
    .map_err(|e| format!("serve loop failed: {e}"))?;
    Ok(Session {
        registry: registry.to_path_buf(),
        set_up: done_set_up,
        queries,
        stats: stats.ok_or("the session ended before its stats")?,
    })
}

/// Latencies in ms of the samples of the given kinds.
pub fn latencies(samples: &[Sample], kinds: &[Kind]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kinds.contains(&s.kind))
        .map(|s| s.ms)
        .collect()
}
