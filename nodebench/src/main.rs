//! Command-line entry point; see the library docs and README.md.
//!
//! ```text
//! cargo run --release --manifest-path nodebench/Cargo.toml -- \
//!     --workload transfer-paper --seed 1 --seconds 20 --trace 0
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match nodebench::Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("nodebench: {e}");
            eprintln!(
                "usage: nodebench --workload transfer-paper|mixed-paper|auction-hot --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match nodebench::run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nodebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in outcome.header.iter().chain(&outcome.notes) {
        println!("{line}");
    }
    for metric in &outcome.metrics {
        println!(
            "# {:<28} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for error in &outcome.tally.errors {
        println!("# FAILED CHECK: {error}");
    }
    let unmeasured: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|metric| !metric.value.is_finite())
        .map(|metric| metric.name)
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("nodebench: not measured: {}", unmeasured.join(", "));
    }
    let correct = outcome.correct();
    println!(
        "{}",
        nodebench::report::result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    if correct && unmeasured.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
