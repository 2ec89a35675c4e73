//! One seeded benchmark for automatic reference counting (`lockfree::rc` on
//! `cdrc`) against manual SMR (`lockfree::manual` on `smr`).
//!
//! ```text
//! cargo run --release --manifest-path rcbench/Cargo.toml -- \
//!     --workload kv_zipf|tree_rq|weak_queue --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! schedule with spans recorded around every layer call of one batch in 256
//! and reports per-layer metrics. Either way every operation's output is
//! checked, the last line of standard output is one JSON object, and any
//! failed check makes the exit code nonzero.

mod check;
mod drive;
mod gen;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{Args, Report, WORKLOADS};

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
fn json(rep: &Report) -> String {
    let v = &rep.verdict;
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        v.failed == 0,
        v.attempted.max(1),
        v.failed
    );
    for (i, (name, value, unit)) in rep.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s + "}}"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("rcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = workloads::run(&workload, &args).expect("workload name was checked");
    for (name, value, _) in &rep.metrics {
        if !value.is_finite() {
            let note = format!("metric {name} is not finite");
            rep.verdict.check(false, || note);
        }
    }
    for (name, value, unit) in rep.metrics.iter_mut() {
        if !value.is_finite() {
            *value = 0.0;
        }
        rep.lines.push(format!("{name:<36} {value:>14.4} {unit}"));
    }
    let v = &rep.verdict;
    rep.lines.push(format!(
        "error_rate {:.6} ({} failed of {} checked operations and end states)",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    ));
    for n in &v.notes {
        rep.lines.push(format!("FAILED: {n}"));
    }
    for l in &rep.lines {
        println!("{l}");
    }
    println!("{}", json(&rep));
    if rep.verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
