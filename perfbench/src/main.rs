//! Command-line entry point of the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload intra_fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints human-readable tables, a `host` line with the machine's
//! fingerprint, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use perfbench::workload::{Workload, SERVING_BASE};
use perfbench::{host_fingerprint, result_json, run, Options};

const USAGE: &str = "usage: perfbench --workload intra_fleet|temporal_mixed_fleet|client_replay \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        base: SERVING_BASE,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse(&args).unwrap_or_else(|err| {
        eprintln!("error: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = run(&options);
    for problem in &outcome.tally.problems {
        eprintln!("check failed: {problem}");
    }
    println!("host {}", host_fingerprint());
    println!("{}", result_json(&outcome));
}
