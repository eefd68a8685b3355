//! Shared measurement plumbing: the per-layer tally, the span-tree reader,
//! percentiles, and a run's outcome with its printed and JSON forms.

use std::collections::BTreeMap;
use std::time::Instant;

use modsyn_fault::SplitMix64;
use modsyn_obs::{Json, Report, SpanNode};

use crate::catalog::{end_to_end, per_layer, Metric, LAYER_TIMES};

/// Directory, relative to the working directory, for per-spec detail files
/// and the serving workload's durable stores.
pub const OUT_DIR: &str = "perfbench-out";

/// Named figures, summed as specs and spans are added.
#[derive(Debug, Clone, Default)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Tally) {
        for (&name, &value) in &other.0 {
            self.add(name, value);
        }
    }

    /// Fills the figures that only make sense on totals. `core.encode_us` is
    /// the resolve call's time outside module selection and SAT: CSC
    /// encoding runs just before each `csc.attempt` span opens, so no span
    /// carries it.
    pub fn finish(&mut self) {
        let encode =
            self.get("core.resolve_us") - self.get("core.project_us") - self.get("sat.solve_us");
        self.set("core.encode_us", encode.max(0.0));
        let formulas = self.get("sat.formulas");
        if formulas > 0.0 {
            let useful = self.get("sat.sat_formulas") / formulas;
            self.set("sat.useful_ratio", useful);
        }
    }

    /// Records the traced wall and the part of it that no layer time covers.
    pub fn attribute(&mut self, traced_wall_us: f64) {
        let layers: f64 = LAYER_TIMES.iter().map(|name| self.get(name)).sum();
        self.set("traced_wall_us", traced_wall_us);
        self.set("unattributed_us", traced_wall_us - layers);
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            self.0
                .iter()
                .map(|(&name, &value)| (name, Json::from(value))),
        )
    }
}

/// Runs `f`, adding its wall time in µs to `name`.
pub fn timed<T>(tally: &mut Tally, name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    tally.add(name, started.elapsed().as_secs_f64() * 1e6);
    out
}

/// Adds what a span tree records: module selection and SAT time, module
/// and residual counts, solver and espresso counters, state-graph sizes,
/// and — with `stage_times`, for a caller that cannot time the stage calls
/// from outside — the derive, resolve and logic times.
pub fn add_spans(report: &Report, stage_times: bool, tally: &mut Tally) {
    for root in &report.roots {
        add_span(root, report.capture_us, stage_times, false, tally);
    }
}

fn add_span(node: &SpanNode, capture_us: u64, stage_times: bool, in_sat: bool, t: &mut Tally) {
    let us = node.duration_us(capture_us) as f64;
    let counter = |name: &str| node.counter(name).unwrap_or(0) as f64;
    let gauge = |name: &str| node.gauge(name).unwrap_or(0.0);
    match node.name.as_str() {
        "select" => t.add("core.project_us", us),
        "residual" => t.add("core.residual_solves", 1.0),
        // A solve can nest per-cube or per-leg solves; the outermost counts.
        "sat.solve" if !in_sat => {
            t.add("sat.solve_us", us);
            t.add("sat.formulas", 1.0);
            t.add("sat.vars", gauge("vars"));
            t.add("sat.clauses", gauge("clauses"));
            t.add("sat.conflicts", counter("conflicts"));
            t.add("sat.decisions", counter("decisions"));
            t.add("sat.propagations", counter("propagations"));
            match node.note("outcome") {
                Some("sat") => t.add("sat.sat_formulas", 1.0),
                Some("unsat") => t.add("sat.unsat_formulas", 1.0),
                _ => {}
            }
        }
        "espresso" => {
            t.add("logic.cubes_in", gauge("cubes_in"));
            t.add("logic.cubes_out", gauge("cubes_out"));
            t.add("logic.espresso_iterations", counter("iterations"));
        }
        "sg.derive" => {
            t.add("sg.states", gauge("states"));
            t.add("sg.edges", gauge("edges"));
            if stage_times {
                t.add("sg.derive_us", us);
            }
        }
        "modular" | "direct" if stage_times => t.add("core.resolve_us", us),
        "logic" if stage_times => t.add("logic.minimize_us", us),
        name if name.starts_with("module:") => {
            t.add("core.modules", 1.0);
            t.add("core.module_states", gauge("module_states"));
        }
        _ => {}
    }
    let in_sat = in_sat || node.name == "sat.solve";
    for child in &node.children {
        add_span(child, capture_us, stage_times, in_sat, t);
    }
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile of `n` samples: the highest of p99.9 … p50 with at
/// least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Untraced passes a run makes at least, so that each spec or request has
/// timings from moments apart.
pub const MIN_PASSES: u32 = 2;

/// Whether a run has measured enough after `passes` passes. An untraced
/// run makes passes until `deadline`, at least [`MIN_PASSES`]; a traced
/// run makes one untraced and one traced pass, since its per-pass figures
/// have no bound to meet.
pub fn measured_enough(trace: bool, passes: u32, deadline: Instant) -> bool {
    trace || (passes >= MIN_PASSES && Instant::now() >= deadline)
}

/// The median of `values`, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The calibration loop's time, in ms, on the 2-vCPU x86-64 host the
/// benchmark was tuned on, in a period when that host ran at full speed.
/// Reported times are scaled to that speed: they read as ms or s on that
/// host.
const REFERENCE_CALIBRATION_MS: f64 = 2.0;

/// Times the program against a fixed calibration loop run just before and
/// just after it, and scales each timing to the reference speed.
///
/// The host's speed changes in steps: it runs at full speed or up to 1.7×
/// slower, when other tenants load it, for spells of a tenth of a second
/// to minutes. The loop, timed on either side of a timing, shows which
/// speed that timing ran at, and slows about as much as the program does.
/// No change to the program touches the loop, so a program change still
/// shows in full.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    /// Every calibration timing, in ms.
    samples: Vec<f64>,
    /// The last calibration timing, which serves as the next call's
    /// timing before.
    last: Option<f64>,
    /// Raw and scaled ms of every timing taken with [`HostSpeed::time`].
    timed: (f64, f64),
}

impl HostSpeed {
    /// Times the calibration loop once, in ms.
    fn sample(&mut self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(calibration_work(std::hint::black_box(CALIBRATION_SEED)));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        self.last = Some(ms);
        ms
    }

    /// Runs `f` between two calibration timings — the one before is the
    /// last one taken, moments ago — and returns its result with its time
    /// in ms, scaled to the reference speed by the mean of the two.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last.take() {
            Some(ms) => ms,
            None => self.sample(),
        };
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let after = self.sample();
        let scaled = ms * REFERENCE_CALIBRATION_MS / ((before + after) / 2.0);
        self.timed.0 += ms;
        self.timed.1 += scaled;
        (out, scaled)
    }

    /// Scaled over raw time of everything timed so far: the factor a time
    /// measured over the same span scales by.
    pub fn scale(&self) -> f64 {
        if self.timed.0 > 0.0 {
            self.timed.1 / self.timed.0
        } else {
            1.0
        }
    }

    fn describe(&self) -> String {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        format!(
            "host: calibration loop p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms over {} timings (reference {REFERENCE_CALIBRATION_MS} ms); times scaled by {:.3} overall",
            percentile(&sorted, 10.0),
            percentile(&sorted, 50.0),
            percentile(&sorted, 90.0),
            self.samples.len(),
            self.scale()
        )
    }

    /// Time spent in the calibration loop, in seconds.
    pub fn calibration_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / 1e3
    }

    /// Adds another run's timings.
    pub fn merge(&mut self, other: &HostSpeed) {
        self.samples.extend_from_slice(&other.samples);
        self.timed.0 += other.timed.0;
        self.timed.1 += other.timed.1;
    }
}

const CALIBRATION_SEED: u64 = 0x5eed;

/// A fixed piece of work shaped like the program's: allocation, ordered
/// maps, sorting and word-wide bit operations. Its result depends on every
/// step, so none of it can be skipped.
fn calibration_work(seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut map = BTreeMap::new();
    for _ in 0..10_000 {
        map.insert(rng.next_u64() % 25_000, rng.next_u64());
    }
    let mut words: Vec<u64> = map.values().copied().collect();
    words.sort_unstable();
    let mut acc = 0u64;
    for round in 0..40u32 {
        for &word in &words {
            acc = acc.rotate_left(7) ^ (word & !(word >> (round % 64))).count_ones() as u64;
        }
    }
    acc
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
            kb.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes a traced run's per-spec detail; returns its path.
pub fn write_detail(workload: &str, seed: u64, doc: &Json) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{workload}-seed{seed}.detail.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// What one run measured and checked.
pub struct Outcome {
    /// Specs (batch) or requests (`serve`) answered in untraced passes.
    pub attempted: u64,
    /// Attempts that broke: a parse or transport error, an error status
    /// other than a typed 422, an oracle refusal.
    pub failed: u64,
    /// Every metric's value, by catalogue name.
    pub values: Tally,
    /// Wrong outputs; any one makes the run incorrect.
    pub problems: Vec<String>,
    /// Answers that missed their expectation, by spec; they lower `ok_ratio`.
    pub misses: Vec<String>,
    /// Where a traced run wrote its per-spec detail.
    pub detail: Option<String>,
    /// The host's speed over an untraced run, by which its times are scaled.
    pub host: Option<HostSpeed>,
    /// Metrics the workload has no layer for: printed `n/a`, reported 0.
    not_applicable: Vec<&'static str>,
    /// The percentile and sample count behind each `*.tail` metric.
    tails: Vec<(&'static str, f64, usize)>,
}

impl Outcome {
    /// An empty outcome; `not_applicable` picks the catalogue metrics the
    /// workload cannot measure.
    pub fn new(not_applicable: impl Fn(&str) -> bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            values: Tally::default(),
            problems: Vec::new(),
            misses: Vec::new(),
            detail: None,
            host: None,
            not_applicable: end_to_end()
                .iter()
                .chain(per_layer())
                .map(|m| m.name.as_str())
                .filter(|name| not_applicable(name))
                .collect(),
            tails: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Sets `p50` and `tail` from latency samples in ms, one per spec or
    /// request of the input set.
    pub fn latencies(&mut self, p50: &'static str, tail: &'static str, mut samples: Vec<f64>) {
        samples.sort_by(f64::total_cmp);
        let p = tail_percentile(samples.len());
        self.values.set(p50, percentile(&samples, 50.0));
        self.values.set(tail, percentile(&samples, p));
        self.tails.push((tail, p, samples.len()));
    }

    /// Prints the run's checks and every metric it reports.
    pub fn print(&self, workload: &str, trace: bool) {
        let run = if trace { "traced" } else { "untraced" };
        let verdict = if self.correct() {
            "outputs correct"
        } else {
            "OUTPUTS INCORRECT"
        };
        println!(
            "== {workload}, {run} run: {} attempted, {} failed, {verdict}",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            println!("   incorrect: {problem}");
        }
        for miss in &self.misses {
            println!("   expectation missed: {miss}");
        }
        if let Some(host) = &self.host {
            println!("   {}", host.describe());
        }
        for metric in catalogue(trace) {
            let value = if self.not_applicable.contains(&metric.name.as_str()) {
                "n/a".to_string()
            } else {
                format!("{:.3}", self.values.get(&metric.name))
            };
            let tail = self
                .tails
                .iter()
                .find(|(name, ..)| *name == metric.name)
                .map(|(_, p, n)| format!("  (p{p} of {n} samples)"))
                .unwrap_or_default();
            println!(
                "   {:<26} {:>16} {:<5} {} is better{tail}",
                metric.name, value, metric.unit, metric.better
            );
        }
        if let Some(path) = &self.detail {
            println!("   per-spec detail: {path}");
        }
    }

    fn metric_json(&self, metric: &Metric) -> Json {
        Json::obj([
            ("value", Json::from(self.values.get(&metric.name))),
            ("unit", Json::from(metric.unit.as_str())),
        ])
    }

    /// The result line of one run.
    pub fn to_json(&self, trace: bool) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(
                    catalogue(trace)
                        .iter()
                        .map(|m| (m.name.as_str(), self.metric_json(m))),
                ),
            ),
        ])
    }

    /// The result line of several runs, metrics keyed `<workload>.<metric>`.
    pub fn combined_json(runs: &[(&str, bool, Outcome)]) -> Json {
        let metrics = runs.iter().flat_map(|(workload, trace, outcome)| {
            catalogue(*trace)
                .iter()
                .map(move |m| (format!("{workload}.{}", m.name), outcome.metric_json(m)))
        });
        Json::obj([
            (
                "correct",
                Json::from(runs.iter().all(|(_, _, outcome)| outcome.correct())),
            ),
            (
                "attempted",
                Json::from(runs.iter().map(|(_, _, o)| o.attempted).sum::<u64>()),
            ),
            (
                "failed",
                Json::from(runs.iter().map(|(_, _, o)| o.failed).sum::<u64>()),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
fn catalogue(trace: bool) -> &'static [Metric] {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}
