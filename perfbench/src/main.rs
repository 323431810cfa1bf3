//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints two JSON lines: the run's identity (host
//! fingerprint, workload, seed) and, last, the result
//! `{"correct", "attempted", "failed", "metrics"}`.  Both are also written
//! to `perfbench/out/<workload>-seed<n>-trace<t>.json`.  Exits 1 when any
//! output fails its check or the run cannot complete, 2 on a usage error.

use std::process::ExitCode;

use dashmm_obs::json::{obj, Value};
use perfbench::{fingerprint, run_workload, Size, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <fmm-cube|fmm-sphere-2rank|serve-mixed> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return Err(bad()),
            },
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--workload" | "--trace" => return Err(bad()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::full(),
    );
    let (outcome, metrics) = match outcome.and_then(|o| o.metrics(args.trace).map(|m| (o, m))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let host = fingerprint()
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    let run = obj(vec![
        ("host", obj(host)),
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
    ]);
    let metrics = Value::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let m = obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::from(unit)),
                ]);
                (name, m)
            })
            .collect(),
    );
    let correct = outcome.failed == 0;
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let record = obj(vec![("run", run.clone()), ("result", result.clone())]);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record.to_json()))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{}", run.to_json());
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} checked operations failed",
            args.workload, outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
