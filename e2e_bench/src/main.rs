//! End-to-end benchmark of the divexplorer CLI and `serve` loop.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload audit-deep --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` the run measures what a user waits for, with no
//! recorder installed: each batch command's wall time, serve query
//! latencies, set-up time and peak memory. Times are reported at the
//! reference host speed (see `host.rs`). With `--trace 1` it installs
//! a span recorder and times every layer from outside through its
//! public functions (see `layers.rs`). Either way the last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! README.md maps each layer metric to the end-to-end metric it should
//! move and says why each workload exists.

mod closed_loop;
mod host;
mod layers;
mod rss;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use host::{HostSpeed, Timed};

use workload::{
    check_query, check_set_up, run_session, set_up_lines, stats_line, Instance, Kind, Sample,
    Scratch, Session, Tally, Workload, COMMANDS, KINDS,
};

pub use workload::Reference;

const USAGE: &str = "usage: e2e_bench --workload <audit-deep|ingest-wide|serve-requery> \
                     --seed N --seconds S --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Calibration kernel runs before each set-up and after the last.
const SETUP_CALIBRATIONS: usize = 3;
/// Batch repetitions a plain run makes even past its deadline.
const MIN_REPS: usize = 4;
/// Queries a plain run makes even past its deadline: enough for 100
/// plain queries, so that p90 has 10 samples beyond it.
const MIN_REQUESTS: usize = 150;
/// Queries between two runs of the calibration kernel in a plain run.
const CALIBRATE_EVERY: usize = 6;

/// End-to-end metrics and their units, as named in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("explore_ms", "ms"),
    ("explore_json_ms", "ms"),
    ("prune_ms", "ms"),
    ("global_ms", "ms"),
    ("corrective_ms", "ms"),
    ("shapley_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("whatif_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::workload(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&argv) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let run = if options.trace {
        layers::traced_run
    } else {
        plain_run
    };
    let metrics = match run(options.workload, options.seed, options.seconds, &mut tally) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("e2e_bench: run failed: {e}");
            std::process::exit(1);
        }
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && finite;
    println!(
        "error_rate = {} ({} of {} failed)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_line(correct, &tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value already fails the run; keep the line JSON.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `samples`, failing on an empty set.
pub fn med(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or(format!("no samples of {what}"))
}

/// A run after set-up: the draws, what a cold explore says of each,
/// their query lines and the lattice bytes they occupy in `serve`.
pub struct Ready {
    pub instances: Vec<Instance>,
    pub references: Vec<Reference>,
    pub lines: Vec<[String; 3]>,
    pub setup_s: Vec<Timed>,
    /// Kernel times around the set-ups.
    pub setup_speed: HostSpeed,
    pub lattice_bytes: u64,
}

/// A fresh registry directory for one serve session.
fn fresh_registry(scratch: &Scratch, n: usize) -> std::path::PathBuf {
    let dir = scratch.0.join(format!("registry-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs [`SETUP_REPS`] set-ups as a user pays them: generate the CSV of
/// each draw, start `serve` on a fresh registry, register each CSV and
/// mine it cold. The calibration kernel runs [`SETUP_CALIBRATIONS`]
/// times before each set-up and after the last. Every set-up must resolve the same lattices. Then
/// computes the untimed references and prints the work counts.
pub fn get_ready(
    w: &Workload,
    seed: u64,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    let mut setup_speed = HostSpeed::default();
    let mut bytes = Vec::new();
    let mut instances = Vec::new();
    for n in 0..SETUP_REPS {
        (0..SETUP_CALIBRATIONS).for_each(|_| setup_speed.sample());
        let started = Instant::now();
        instances = (0..w.instances)
            .map(|i| Instance::generate(w, seed, i, &scratch.0))
            .collect::<Result<Vec<_>, _>>()?;
        let lines = set_up_lines(w, &instances);
        let registry = fresh_registry(scratch, n);
        let session = run_session(&registry, &lines, &[], None, &mut |_| false)?;
        let done = session.set_up.last().ok_or("no set-up responses")?.arrived;
        let took = done - started;
        setup_s.push(Timed::new(started, took, took.as_secs_f64()));
        for (line, exchange) in lines.iter().zip(&session.set_up) {
            tally.record("set-up", check_set_up(line, exchange));
        }
        let resident = workload::cache_stats(&session.stats);
        bytes.push(resident.as_ref().map_or(0, |c| c[2]));
        tally.record("stats", resident.map(drop));
    }
    (0..SETUP_CALIBRATIONS).for_each(|_| setup_speed.sample());
    tally.record(
        "set-up work counts",
        bytes
            .windows(2)
            .all(|pair| pair[0] == pair[1])
            .then_some(())
            .ok_or(format!("lattice bytes differ between set-ups: {bytes:?}")),
    );
    let references = instances
        .iter()
        .map(|instance| Reference::compute(w, instance))
        .collect::<Result<Vec<_>, _>>()?;
    for (instance, reference) in instances.iter().zip(&references) {
        tally.record("shapley efficiency", reference.efficiency.clone());
        println!(
            "{} {}: rows={} csv_bytes={} items={} patterns={} support={}",
            w.name,
            instance.name,
            reference.rows,
            instance.csv.len(),
            reference.items,
            reference.patterns,
            w.support
        );
    }
    println!(
        "{}: {} draws, lattice_bytes={} (all resident in the serve cache)",
        w.name,
        instances.len(),
        bytes[0]
    );
    let raw: Vec<f64> = setup_s.iter().map(|t| t.value).collect();
    println!("setup_s samples: {raw:?}");
    let lines = instances
        .iter()
        .map(|instance| KINDS.map(|k| k.line(w, instance)))
        .collect();
    Ok(Ready {
        instances,
        references,
        lines,
        setup_s,
        setup_speed,
        lattice_bytes: bytes[0],
    })
}

/// A `next` for [`run_session`]: queries for `budget` from its first
/// call, and at least `min` times.
pub fn for_budget(budget: Duration, min: usize) -> impl FnMut(&[Sample]) -> bool {
    let mut until = None;
    move |queries| {
        let until = *until.get_or_insert_with(|| Instant::now() + budget);
        queries.len() < min || Instant::now() < until
    }
}

/// A measured serve session on a fresh registry: set-up (untimed), a
/// `stats`, then the timed query loop for as long as `next` says so.
/// Checks every response and that the session holds the same lattices
/// as the timed set-ups. Returns the session and the cache counters
/// before the loop.
pub fn serve_phase(
    w: &Workload,
    ready: &Ready,
    scratch: &Scratch,
    log: Option<&trace::SpanLog>,
    next: &mut dyn FnMut(&[Sample]) -> bool,
    tally: &mut Tally,
) -> Result<(Session, [u64; 3]), String> {
    let mut lines = set_up_lines(w, &ready.instances);
    lines.push(stats_line());
    let registry = fresh_registry(scratch, SETUP_REPS);
    let session = run_session(&registry, &lines, &ready.lines, log, next)?;
    let (stats, set_up) = session.set_up.split_last().ok_or("no set-up responses")?;
    for (line, exchange) in lines.iter().zip(set_up) {
        tally.record("set-up", check_set_up(line, exchange));
    }
    let before = workload::cache_stats(stats);
    tally.record(
        "session work counts",
        match &before {
            Ok(c) if c[2] == ready.lattice_bytes => Ok(()),
            Ok(c) => Err(format!(
                "lattice bytes {} vs {} in set-up",
                c[2], ready.lattice_bytes
            )),
            Err(e) => Err(e.clone()),
        },
    );
    for sample in &session.queries {
        let reference = &ready.references[sample.instance];
        let checked = workload::ok_response(&sample.exchange)
            .and_then(|v| check_query(sample.kind, &v, reference));
        tally.record("query", checked);
    }
    Ok((session, before.unwrap_or_default()))
}

/// One batch repetition on draw `i`: the six commands in order. Returns
/// each command's wall time in ms and output length.
pub fn batch_rep(
    w: &Workload,
    ready: &Ready,
    i: usize,
    checker: &mut workload::BatchChecker,
    tally: &mut Tally,
) -> ([f64; 6], [usize; 6]) {
    let (instance, reference) = (&ready.instances[i], &ready.references[i]);
    let mut walls = [0.0; 6];
    let mut lens = [0; 6];
    let mut outputs = Vec::with_capacity(COMMANDS.len());
    for (c, (_, argv)) in COMMANDS.iter().enumerate() {
        let args = instance.command_args(w, argv, &reference.target_spec);
        let (wall, output) = workload::run_command(&args, &instance.csv);
        walls[c] = ms(wall);
        lens[c] = output.as_ref().map_or(0, String::len);
        outputs.push(output);
    }
    let checks = checker.check(instance, reference, &outputs);
    for ((name, _), outcome) in COMMANDS.iter().zip(checks) {
        tally.record(name, outcome);
    }
    (walls, lens)
}

/// The batch commands of a plain run, run one at a time between serve
/// queries: repetitions of the six commands, cycling through the draws.
#[derive(Default)]
struct Batch {
    reps: Vec<[Timed; 6]>,
    /// The commands of the repetition in progress.
    current: Vec<(Timed, Result<String, String>)>,
    /// VmHWM in MiB after the first repetition: the peak of a fixed
    /// amount of work. Later repetitions in the same process peak on
    /// top of what earlier ones left in the allocator, which the
    /// binary, one command per process, never sees.
    peak_mib: Option<f64>,
    checker: workload::BatchChecker,
    tally: Tally,
}

impl Batch {
    fn in_rep(&self) -> bool {
        !self.current.is_empty()
    }

    /// Runs the next command, as the binary runs it: with no recorder
    /// installed, so `serve`'s own recorder is set aside meanwhile.
    fn step(&mut self, w: &Workload, ready: &Ready) {
        let i = self.reps.len() % w.instances;
        let (instance, reference) = (&ready.instances[i], &ready.references[i]);
        let argv = COMMANDS[self.current.len()].1;
        let args = instance.command_args(w, argv, &reference.target_spec);
        let recorder = obs::uninstall();
        let started = Instant::now();
        let (wall, output) = workload::run_command(&args, &instance.csv);
        if let Some(recorder) = recorder {
            obs::install(recorder);
        }
        self.current
            .push((Timed::new(started, wall, ms(wall)), output));
        if self.current.len() == COMMANDS.len() {
            let (times, outputs): (Vec<Timed>, Vec<_>) = self.current.drain(..).unzip();
            let checks = self.checker.check(instance, reference, &outputs);
            for ((name, _), outcome) in COMMANDS.iter().zip(checks) {
                self.tally.record(name, outcome);
            }
            self.reps
                .push(times.try_into().expect("one time per command"));
            if self.reps.len() == 1 {
                self.peak_mib = rss::peak_mib();
            }
        }
    }
}

/// Prints a latency distribution with its sample count and the highest
/// percentile that keeps ten samples beyond it.
pub fn print_latency(label: &str, samples: &[f64]) {
    let n = samples.len();
    let tail = stats::highest_percentile(n).map_or("none".to_string(), |p| {
        format!(
            "p{p} = {:.3} ms ({} beyond)",
            stats::percentile(samples, p).unwrap_or(f64::NAN),
            stats::beyond(p, n)
        )
    });
    println!(
        "{label}: n={n} p50 = {:.3} ms, highest reportable {tail}",
        stats::median(samples).unwrap_or(f64::NAN)
    );
}

/// A plain run: set-up, then one serve session whose client, between
/// queries, runs the batch commands one at a time and the calibration
/// kernel. Each command is followed by `queries_per_command` queries,
/// so queries and commands are spread over the whole run, meet the same
/// host, and come in the same order on every run. It goes on until the
/// run's seconds are up and both have their minimum sample.
fn plain_run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let scratch = Scratch::new(w.name, seed)?;
    let ready = get_ready(w, seed, &scratch, tally)?;
    let mut speed = HostSpeed::default();
    let mut batch = Batch::default();
    let mut until = None;
    let mut since_command = 0;
    let mut next = |queries: &[Sample]| -> bool {
        let until = *until.get_or_insert_with(|| Instant::now() + Duration::from_secs_f64(seconds));
        loop {
            let now = Instant::now();
            let more_queries = queries.len() < MIN_REQUESTS || now < until;
            let more_batch = batch.in_rep() || batch.reps.len() < MIN_REPS || now < until;
            if more_queries && (since_command < w.queries_per_command || !more_batch) {
                since_command += 1;
                if queries.len().is_multiple_of(CALIBRATE_EVERY) {
                    speed.sample();
                }
                return true;
            }
            if !more_batch {
                return false;
            }
            speed.sample();
            batch.step(w, &ready);
            since_command = 0;
        }
    };
    let (session, _) = serve_phase(w, &ready, &scratch, None, &mut next, tally)?;
    tally.attempted += batch.tally.attempted;
    tally.failed += batch.tally.failed;

    let samples = session.queries;
    let timed = |kinds: &[Kind]| -> Vec<Timed> {
        samples
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| {
                let latency = s.exchange.latency;
                Timed::new(s.exchange.arrived - latency, latency, s.ms)
            })
            .collect()
    };
    let (plain_timed, whatif_timed) = (timed(&[Kind::Fpr, Kind::Fnr]), timed(&[Kind::WhatIf]));
    let plain = workload::latencies(&samples, &[Kind::Fpr, Kind::Fnr]);
    let whatif = workload::latencies(&samples, &[Kind::WhatIf]);
    print_latency("query", &plain);
    print_latency("whatif", &whatif);
    if stats::beyond(90.0, plain.len()) < stats::MIN_BEYOND {
        return Err(format!(
            "{} plain queries leave too few beyond p90",
            plain.len()
        ));
    }
    println!("batch repetitions: n={}", batch.reps.len());
    ready.setup_speed.print("set-up");
    speed.print("serve and batch");

    // Each time at the reference host speed; the raw figure is printed.
    let mut metrics: Vec<Metric> = Vec::new();
    let mut push = |name: &'static str, p: f64, samples: &[Timed], unit, speed: &HostSpeed| {
        let raw: Vec<f64> = samples.iter().map(|t| t.value).collect();
        let raw = stats::percentile(&raw, p).ok_or(format!("no samples of {name}"))?;
        let scaled = speed.scale(samples).ok_or("no calibration samples")?;
        let value = stats::percentile(&scaled, p).ok_or(format!("no samples of {name}"))?;
        println!("{name}: raw {raw:.6} {unit}, at reference speed {value:.6}");
        metrics.push((name, value, unit));
        Ok::<(), String>(())
    };
    push("setup_s", 50.0, &ready.setup_s, "s", &ready.setup_speed)?;
    for (c, (name, _)) in COMMANDS.iter().enumerate() {
        let walls: Vec<Timed> = batch.reps.iter().map(|r| r[c]).collect();
        push(name, 50.0, &walls, "ms", &speed)?;
    }
    push("query_p50_ms", 50.0, &plain_timed, "ms", &speed)?;
    push("query_p90_ms", 90.0, &plain_timed, "ms", &speed)?;
    push("whatif_p50_ms", 50.0, &whatif_timed, "ms", &speed)?;
    metrics.push((
        "peak_rss_mb",
        batch.peak_mib.ok_or("VmHWM unreadable")?,
        "MiB",
    ));
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|e| e.0)));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must name exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("a string").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&layers::PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("a workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("a name"))
            .collect();
        // `ingest-wide` runs by name but is left out of the listed set.
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert!(workloads.iter().all(|w| ours.contains(w)), "{workloads:?}");
        assert_eq!(workloads, ["audit-deep", "serve-requery"]);
    }

    #[test]
    fn options_are_checked() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let ok = parse_options(&argv(
            "--workload audit-deep --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.trace),
            ("audit-deep", 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload audit-deep --seed x --seconds 10 --trace 0",
            "--workload audit-deep --seed 3 --seconds 0 --trace 0",
            "--workload audit-deep --seed 3 --seconds 10 --trace 2",
            "--workload audit-deep --seed 3 --seconds 10",
        ] {
            assert!(parse_options(&argv(bad)).is_err(), "{bad}");
        }
    }
}
