//! `nodebench`: the repository's end-to-end benchmark of a durable
//! `cc_core::Node`, with a traced run that splits each block's time into
//! the layers below it. See README.md for the workloads, the metrics and
//! which layer should move which end-to-end number.

#![forbid(unsafe_code)]

pub mod report;
pub mod run;
pub mod trace;
pub mod workload;

use report::Metric;
use run::{Round, Setting, Tally, Tamper};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Inputs, Kind, Size};

/// Per-block latency samples a run collects before it stops, so that
/// every reported p90 has at least ten samples beyond it.
pub const MIN_BLOCK_SAMPLES: usize = 100;

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// How long to keep measuring rounds.
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Stream size; `None` for the workload's regular size.
    pub size: Option<Size>,
    /// Corruption of the followers' stream (the benchmark's own tests).
    pub tamper: Option<Tamper>,
    /// Where ledgers and the span file go.
    pub dir: PathBuf,
}

impl Options {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`, plus the
    /// test-only `--size tiny` and `--tamper receipt|state-root`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut size = None;
        let mut tamper = None;
        let mut dir = PathBuf::from(".nodebench");
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|_| "--seconds takes an integer")?)
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--size" => {
                    size = match value()?.as_str() {
                        "tiny" => Some(Size::tiny()),
                        "regular" => None,
                        _ => return Err("--size takes tiny or regular".into()),
                    }
                }
                "--tamper" => {
                    let name = value()?;
                    tamper =
                        Some(Tamper::parse(&name).ok_or_else(|| format!("unknown tamper {name}"))?);
                }
                "--dir" => dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size,
            tamper,
            dir,
        })
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Lines describing the host, the engine and the workload.
    pub header: Vec<String>,
    /// Extra human-readable lines (the traced run's self-time table).
    pub notes: Vec<String>,
    /// Attempts, failures and failed checks across all rounds.
    pub tally: Tally,
    /// The metrics of this run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every check held and no transaction failed.
    pub fn correct(&self) -> bool {
        self.tally.errors.is_empty() && self.tally.failed == 0
    }
}

fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// A message when the run cannot start (bad configuration, scratch
/// directory not writable). Failures of the node under test are not
/// errors: they are counted in the outcome's tally.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let size = options
        .size
        .unwrap_or_else(|| Size::regular(options.workload));
    let config = Setting::engine_config();
    let setting = Setting {
        engine: config.clone().build().map_err(|e| e.to_string())?,
        dir: options.dir.join(format!("run-{}", std::process::id())),
        tamper: options.tamper,
    };
    let inputs = Inputs::generate(options.workload, options.seed, size);
    let header = vec![
        format!(
            "# host: available_parallelism={} sha_ni={}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            sha_ni()
        ),
        format!(
            "# engine: strategy={:?} threads={} work_per_gas={} durability={} snapshot_interval={}",
            config.strategy,
            config.threads,
            inputs.build_world().gas_schedule().work_per_gas,
            run::DURABILITY,
            cc_core::DurabilityConfig::DEFAULT_SNAPSHOT_INTERVAL
        ),
        format!(
            "# workload: {} seed={} blocks={} block_txns={} world_entries={} expected_reverts={} trace={}",
            inputs.kind,
            inputs.seed,
            size.blocks,
            size.block_txns,
            world_entries(&inputs),
            inputs.expected_reverts,
            u8::from(options.trace)
        ),
    ];
    std::fs::create_dir_all(&setting.dir).map_err(|e| format!("{}: {e}", setting.dir.display()))?;
    let outcome = if options.trace {
        trace::run(&setting, &inputs, options, header)
    } else {
        measure(&setting, &inputs, options, header)
    };
    std::fs::remove_dir_all(&setting.dir).ok();
    outcome
}

/// Entries in the initial world's snapshot: the size the O(world) state
/// root hashes.
fn world_entries(inputs: &Inputs) -> usize {
    inputs
        .build_world()
        .snapshot()
        .contracts
        .iter()
        .flat_map(|contract| &contract.fields)
        .map(|field| field.entries.len().max(1))
        .sum()
}

/// Decides when a run has measured long enough: another round starts
/// only while the previous round's duration still fits before the
/// deadline, so a run ends close to its `--seconds`.
pub(crate) struct Budget {
    deadline: Instant,
    last_start: Instant,
    last: Duration,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub(crate) fn new(seconds: u64) -> Budget {
        let now = Instant::now();
        Budget {
            deadline: now + Duration::from_secs(seconds),
            last_start: now,
            last: Duration::ZERO,
        }
    }

    /// Whether to start round number `round` (counting from 0).
    pub(crate) fn another(&mut self, round: usize) -> bool {
        let now = Instant::now();
        if round > 0 {
            self.last = now - self.last_start;
        }
        self.last_start = now;
        round == 0 || now + self.last <= self.deadline
    }
}

/// Repeats rounds for `seconds`, and until every percentile has enough
/// samples; stops early at the first round with a failure.
fn rounds(setting: &Setting, inputs: &Inputs, seconds: u64) -> Result<(Vec<Round>, Tally), String> {
    let mut budget = Budget::new(seconds);
    let mut kept = Vec::new();
    let mut tally = Tally::default();
    let mut samples = 0;
    while budget.another(kept.len()) || samples < MIN_BLOCK_SAMPLES {
        let mut round = run::round(setting, inputs, &format!("round-{}", kept.len()))
            .map_err(|e| format!("cannot build a node: {e}"))?;
        samples += round.mine_ms.len().min(round.validate_ms.len());
        let failed = !round.tally.errors.is_empty() || round.tally.failed > 0;
        tally.absorb(std::mem::take(&mut round.tally));
        kept.push(round);
        if failed {
            break;
        }
    }
    Ok((kept, tally))
}

fn measure(
    setting: &Setting,
    inputs: &Inputs,
    options: &Options,
    header: Vec<String>,
) -> Result<Outcome, String> {
    let (rounds, tally) = rounds(setting, inputs, options.seconds)?;
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: fn(&Round) -> &Vec<f64>| {
        rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let mine = pooled(|r| &r.mine_ms);
    let validate = pooled(|r| &r.validate_ms);
    let nan = f64::NAN;
    let at = |samples: &[f64], q: f64| report::quantile(samples, q).unwrap_or(nan);
    let p90 = |samples: &[f64]| {
        if report::p90_supported(samples.len()) {
            at(samples, 0.9)
        } else {
            nan
        }
    };
    let metrics = vec![
        Metric::new(
            "produce_txn_per_s",
            "txn/s",
            report::median(&per_round(|r| r.produce_txn_per_s)).unwrap_or(nan),
        ),
        Metric::new(
            "follow_txn_per_s",
            "txn/s",
            report::median(&per_round(|r| r.follow_txn_per_s)).unwrap_or(nan),
        ),
        Metric::new("mine_block_ms_p50", "ms", at(&mine, 0.5)),
        Metric::new("mine_block_ms_p90", "ms", p90(&mine)),
        Metric::new("validate_block_ms_p50", "ms", at(&validate, 0.5)),
        Metric::new("validate_block_ms_p90", "ms", p90(&validate)),
        Metric::new(
            "setup_s",
            "s",
            report::median(&per_round(|r| r.setup.as_secs_f64())).unwrap_or(nan),
        ),
        Metric::new("peak_rss_mb", "MB", report::peak_rss_mb().unwrap_or(nan)),
    ];
    let quantiles = |samples: &[f64]| {
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .map(|q| format!("{:.2}", at(samples, q)))
            .join(" ")
    };
    let notes = vec![
        format!(
            "# rounds={} mined_blocks={} validated_blocks={}",
            rounds.len(),
            mine.len(),
            validate.len()
        ),
        format!(
            "# mine_ms p10 p25 p50 p75 p90 p95 p99 max: {}",
            quantiles(&mine)
        ),
        format!(
            "# validate_ms p10 p25 p50 p75 p90 p95 p99 max: {}",
            quantiles(&validate)
        ),
    ];
    Ok(Outcome {
        header,
        notes,
        tally,
        metrics,
    })
}
