//! `poir-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its properties and metrics, ending with
//! one JSON result line. Exits 1 when an output check fails, 2 on bad
//! arguments.

use poir_perfbench::serve::{self, ServeConfig};
use poir_perfbench::{update, WORKLOADS};

const USAGE: &str = "usage: poir-perfbench --workload serve_cold|serve_hot|update_mix \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match workload.as_str() {
        "serve_cold" => serve::run(ServeConfig { hot: false, caches: true }, seed, seconds, trace),
        "serve_hot" => serve::run(ServeConfig { hot: true, caches: true }, seed, seconds, trace),
        _ => update::run(seed, seconds, trace),
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
