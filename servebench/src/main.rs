//! P16: the end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload social-single --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Sends a workload's deterministic op stream through one deployment
//! shape — a closed-loop phase for capacity, then an open-loop phase at
//! the workload's frozen offered rate for latency — verifies every
//! timed answer against a replayed reference, and prints every metric
//! by name and unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives
//! the end-to-end metrics; `--trace 1` a separate traced run giving the
//! per-layer metrics. See `WORKLOADS.md`.

mod bench;
mod dataset;
mod load;
mod probes;
mod process;
mod proxy;
mod rng;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::all()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_in_any_order() {
        let argv: Vec<String> = [
            "--trace",
            "1",
            "--seed",
            "9",
            "--workload",
            "x",
            "--seconds",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            parse_args(&argv).unwrap(),
            Args {
                workload: "x".into(),
                seed: 9,
                seconds: 2.0,
                trace: true
            }
        );
        assert!(parse_args(&argv[..2]).is_err());
    }
}
