//! `dice_benchmark`: four fixed-work workloads over the public API of the
//! DiCE reproduction, six end-to-end metrics, and a per-layer account timed
//! from outside. See `README.md` for the workloads and every metric.
//!
//! Every workload runs its set-up four times and after each its timed pass
//! once, or two or three times where a pass leaves the state as it found
//! it, the same work each time. A time is reported as the least of its
//! repeats: on a shared host interference only ever adds time, so the
//! least repeat is the one closest to the program's own cost.
//!
//! One process runs one workload:
//!
//! ```text
//! dice_benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--quick] [--out <dir>]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with no span
//! recorded; `--trace 1` follows every set-up and its passes with the same
//! again, spans recorded around every call into a layer, and prints the
//! per-layer metrics instead. The last line of standard output
//! is one JSON object with the result.

mod explore_heavy;
mod fault_search;
mod live_replay;
mod measure;
mod probes;
mod reference;
mod scenario;
mod spans;
mod table_load;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed the committed reference outputs belong to.
pub const DEFAULT_SEED: u64 = 0xD1CE;

/// The `--seconds` the work counts are sized for: about the seconds all
/// timed passes of one run take together. Other values scale every count
/// in proportion.
pub const NOMINAL_SECONDS: u32 = 16;

pub const WORKLOADS: [&str; 4] = ["table_load", "live_replay", "explore_heavy", "fault_search"];

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload does not enter reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("bgp.wire.decode_ns_per_frame", "ns"),
    ("bgp.wire.encode_ns_per_frame", "ns"),
    ("bgp.wire.bytes_in", "bytes"),
    ("bgp.wire.decode_errors", "count"),
    ("netsim.trace.generate_s", "s"),
    ("netsim.ingest.parse_s", "s"),
    ("netsim.sim.build_s", "s"),
    ("netsim.ingest.drive_s", "s"),
    ("netsim.ingest.frames", "count"),
    ("netsim.sim.quiesce_s", "s"),
    ("netsim.sim.steps", "count"),
    ("netsim.sim.delivered", "count"),
    ("netsim.sim.harvest_s", "s"),
    ("netsim.faults.injected", "count"),
    ("netsim.replay_only_s", "s"),
    ("core.live.overhead_ratio", "ratio"),
    ("router.rib.announce_ns_per_route", "ns"),
    ("router.rib.lookup_ns", "ns"),
    ("router.rib.prefixes", "count"),
    ("router.rib.rss_bytes_per_prefix", "bytes"),
    ("router.policy.eval_ns", "ns"),
    ("router.rib.fork_first_write_us", "us"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.release_s", "s"),
    ("checkpoint.cow.shared_ratio", "ratio"),
    ("checkpoint.cow.units_copied", "count"),
    ("symexec.runs", "count"),
    ("symexec.runs_per_input", "ratio"),
    ("symexec.wave_p50_us", "us"),
    ("symexec.engine_s", "s"),
    ("symexec.policy_coverage", "ratio"),
    ("solver.queries", "count"),
    ("solver.time_s", "s"),
    ("solver.unknown", "count"),
    ("solver.reuse_ratio", "ratio"),
    ("core.explore_s", "s"),
    ("core.check_live_s", "s"),
    ("core.rounds", "count"),
    ("core.faults", "count"),
    ("core.inputs_harvested", "count"),
    ("core.inputs_explored_ratio", "ratio"),
    ("core.detect_latency_p50_ms", "ms"),
    ("core.live.other_s", "s"),
    ("core.fault_search.plans", "count"),
    ("core.fault_search.candidate_runs", "count"),
    ("core.fault_search.novel_ratio", "ratio"),
    ("core.fault_search.repros", "count"),
    ("core.fault_search.shrink_run_share", "ratio"),
    ("core.fault_search.search_vs_replay_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.accounted_share", "ratio"),
];

/// What the command line asked for.
pub struct Config {
    pub seed: u64,
    pub seconds: u32,
    pub quick: bool,
    pub trace: bool,
    pub out_dir: PathBuf,
}

impl Config {
    /// Scales a work count sized for [`NOMINAL_SECONDS`] to `--seconds`.
    pub fn scaled(&self, count: usize) -> usize {
        let scaled = (count * self.seconds as usize + NOMINAL_SECONDS as usize / 2)
            / NOMINAL_SECONDS as usize;
        scaled.max(1)
    }

    /// Reference outputs are committed for exactly one configuration.
    pub fn is_reference(&self) -> bool {
        self.seed == DEFAULT_SEED && self.seconds == NOMINAL_SECONDS && !self.quick
    }
}

/// One execution of a workload's timed stretch.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall milliseconds of each round, in the order the rounds ran.
    pub round_ms: Vec<f64>,
}

/// What a run measures: several executions of set-up, each followed by one
/// or more timed passes over the same work.
#[derive(Default)]
pub struct Measured {
    /// What one unit of work is ("update", "run").
    pub unit: &'static str,
    /// Work units of one pass.
    pub work_units: u64,
    /// Wall seconds of each execution of the set-up routine.
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    /// Operations attempted and failed over all passes.
    pub attempted: u64,
    pub failed: u64,
    /// One line per output that was not what it must be.
    pub mismatches: Vec<String>,
}

impl Measured {
    pub fn new(unit: &'static str) -> Self {
        Measured {
            unit,
            ..Measured::default()
        }
    }

    /// Records a mismatch unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Runs `setup` once, then `pass` on what it built `repeats` times, and
    /// returns what each pass returned. A pass that uses its state up is run
    /// with `repeats` 1. The state is gone when this returns, so the states
    /// of two set-ups never coexist.
    pub fn run_setup<S, O>(
        &mut self,
        repeats: usize,
        setup: impl FnOnce() -> S,
        mut pass: impl FnMut(&mut S, &mut Measured) -> (Pass, O),
    ) -> Vec<O> {
        spans::set_pass(self.passes.len());
        let (mut state, setup_s) = measure::timed(setup);
        self.setup_s.push(setup_s);
        let mut outputs = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            spans::set_pass(self.passes.len());
            let (timing, output) = pass(&mut state, self);
            self.passes.push(timing);
            outputs.push(output);
        }
        outputs
    }

    /// Every pass does the same work, so all must have run as many rounds.
    fn check_rounds(&mut self) {
        let rounds = self.passes[0].round_ms.len();
        let same = self.passes.iter().all(|p| p.round_ms.len() == rounds);
        self.check(same, || {
            "passes ran different numbers of rounds".to_string()
        });
    }

    /// Each round's least time over the passes, in milliseconds.
    pub fn quiet_round_ms(&self) -> Vec<f64> {
        let rounds = self.passes.iter().map(|p| p.round_ms.len()).min();
        (0..rounds.unwrap_or(0))
            .map(|i| measure::least(self.passes.iter().map(|p| p.round_ms[i])))
            .collect()
    }

    /// Seconds one pass takes when every round runs at its least time.
    pub fn quiet_pass_s(&self) -> f64 {
        self.quiet_round_ms().iter().sum::<f64>() / 1e3
    }

    /// The pass with the least wall time.
    pub fn quietest_pass(&self) -> usize {
        (0..self.passes.len())
            .min_by(|&a, &b| self.passes[a].wall_s.total_cmp(&self.passes[b].wall_s))
            .expect("at least one pass ran")
    }
}

/// A workload's result: the measurement, the per-layer metrics of a traced
/// run, and the values the committed references are compared with.
pub struct Outcome {
    pub measured: Measured,
    /// The same passes with spans recorded, when `--trace 1`. They take
    /// turns with the untraced ones, set-up by set-up, so that both meet
    /// the same host conditions.
    pub traced: Option<Measured>,
    pub layers: Vec<(&'static str, f64)>,
    pub observed: Vec<(&'static str, String)>,
}

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut config = Config {
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        quick: false,
        trace: false,
        out_dir: PathBuf::from("dice_benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            config.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            let digits = value.trim_start_matches("0x");
            let radix = if digits.len() == value.len() { 10 } else { 16 };
            u64::from_str_radix(digits, radix).map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = number()?,
            "--seconds" => {
                config.seconds = u32::try_from(number()?)
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds {value}: expected 1 to 60"))?
            }
            "--trace" => config.trace = number()? != 0,
            "--out" => config.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((workload, config))
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let quiet = m.quiet_round_ms();
    vec![
        ("setup_s", measure::least(m.setup_s.iter().copied()), "s"),
        (
            "throughput_per_s",
            m.work_units as f64 / m.quiet_pass_s(),
            "1/s",
        ),
        ("round_latency_p50_ms", measure::median(&quiet), "ms"),
        (
            "round_latency_p90_ms",
            measure::percentile(&quiet, 90),
            "ms",
        ),
        (
            "cpu_s",
            measure::least(m.passes.iter().map(|p| p.cpu_s)),
            "s",
        ),
        ("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(reported: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    for (name, _) in reported {
        assert!(
            LAYER_METRICS.iter().any(|(known, _)| known == name),
            "{name} is not a declared per-layer metric"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = reported
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, value, unit)
        })
        .collect()
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("dice_benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {workload}: seed {:#x}, sized for {} s{}, {} core(s), {}",
        config.seed,
        config.seconds,
        if config.quick { " (quick sizes)" } else { "" },
        measure::cores(),
        if config.trace { "traced" } else { "untraced" },
    );

    let mut outcome = match workload.as_str() {
        "table_load" => table_load::run(&config),
        "live_replay" => live_replay::run(&config),
        "explore_heavy" => explore_heavy::run(&config),
        _ => fault_search::run(&config),
    };

    for (name, value) in &outcome.observed {
        println!("output {name} = {value}");
    }
    if config.is_reference() {
        let expected = reference::expected(&workload);
        for (name, value) in &outcome.observed {
            let want = expected.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            outcome.measured.check(want == Some(value.as_str()), || {
                format!("{name}: expected {want:?}, got {value}")
            });
        }
    } else {
        println!("reference outputs not compared: they belong to the default seed and sizes");
    }

    outcome.measured.check_rounds();
    let traced_pass = outcome.traced.take().map(|mut traced| {
        traced.check_rounds();
        let m = &mut outcome.measured;
        m.attempted += traced.attempted;
        m.failed += traced.failed;
        m.mismatches.append(&mut traced.mismatches);
        outcome.layers.extend(spans::overhead(m, &traced));
        traced.quietest_pass()
    });

    let m = &outcome.measured;
    let rounds = m.passes[0].round_ms.len();
    let walls: Vec<String> = m
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!(
        "{} timed passes of {} {}(s) took {} s; {} round(s) each, {} beyond p90; \
         with every round at its least time a pass takes {:.3} s",
        m.passes.len(),
        m.work_units,
        m.unit,
        walls.join(" "),
        rounds,
        measure::samples_beyond(rounds, 90),
        m.quiet_pass_s(),
    );
    let metrics = if let Some(pass) = traced_pass {
        let path = config.out_dir.join(format!("trace_{workload}.jsonl"));
        match spans::write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(error) => {
                eprintln!("dice_benchmark: cannot write {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
        spans::print_account(pass);
        per_layer(&outcome.layers)
    } else {
        end_to_end(m)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    for line in &m.mismatches {
        println!("MISMATCH {line}");
    }

    let correct = m.mismatches.is_empty();
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        rendered.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
