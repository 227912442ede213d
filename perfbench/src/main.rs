//! The repository benchmark: `serve-zipf`, `compile-cold` and `autotune`
//! driven through the sharded front door, every output checked against
//! the reference interpreter. `--trace 1` runs the per-layer breakdown
//! instead. See README.md.

mod check;
mod e2e;
mod exact;
mod layers;
mod stats;
mod streams;

use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve-zipf|compile-cold|autotune> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeZipf,
    CompileCold,
    Autotune,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeZipf,
        Workload::CompileCold,
        Workload::Autotune,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve-zipf",
            Workload::CompileCold => "compile-cold",
            Workload::Autotune => "autotune",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result line plus what the guards need.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts a fixed seed fully determines.
    pub exact: Vec<(&'static str, String)>,
    /// Wrong outputs, invalid runs and broken invariants; any fails the run.
    pub problems: Vec<String>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let d = e2e::drive(workload, seed, seconds, false);
    let w = e2e::windowed(&d);
    let typical = e2e::p50_geomean(&d);
    let attempted = d.attempted.max(1) as f64;
    let ok = d.latency_ms.len() as f64;
    let mut problems = d.problems;
    if ok == 0.0 {
        problems.push("no request completed correctly".into());
    }
    let rss = stats::peak_rss_mb().unwrap_or_else(|| {
        problems.push("peak RSS is not available from /proc/self/status".into());
        0.0
    });
    let metric = |name, value, unit| Metric { name, value, unit };
    Outcome {
        attempted: d.attempted,
        failed: d.failed + d.wrong,
        metrics: vec![
            metric("latency_p50_geomean_ms", typical, "ms"),
            metric("throughput_rps", w.throughput, "1/s"),
            metric("slo_met_ratio", d.slo_met as f64 / attempted, "ratio"),
            metric("success_ratio", ok / attempted, "ratio"),
            metric("gpu_us_geomean", d.gpu_us_geomean, "us"),
            metric("setup_s", stats::median(&d.setup_s), "s"),
            metric("peak_rss_mb", rss, "MB"),
        ],
        exact: vec![
            ("digest", format!("{:016x}", d.digest)),
            ("gpu_us_geomean", format!("{:?}", d.gpu_us_geomean)),
        ],
        problems,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    let mode = if args.trace { "traced" } else { "e2e" };
    let key = format!("{}-seed{}-{mode}", args.workload.name(), args.seed);
    exact::guard(&key, &outcome.exact, &mut outcome.problems);
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("metric `{}` is not a finite number", m.name));
        }
    }
    const SHOWN: usize = 10;
    for p in outcome.problems.iter().take(SHOWN) {
        eprintln!("perfbench: {p}");
    }
    if outcome.problems.len() > SHOWN {
        eprintln!(
            "perfbench: ... and {} more problems",
            outcome.problems.len() - SHOWN
        );
    }
    if outcome.problems.is_empty() {
        println!("{}", outcome.to_json());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
