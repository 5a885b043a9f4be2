//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line, then a last
//! line of JSON: `{"correct", "attempted", "failed", "metrics"}`. `--tiny`
//! shrinks the inputs for the benchmark's self-test.

use std::process::ExitCode;

use perfbench::{run, Params, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--tiny" {
            p.tiny = true;
            continue;
        }
        let Some(v) = args.next() else {
            return usage(&format!("{a} needs a value"));
        };
        let ok = match a.as_str() {
            "--workload" => {
                workload = Some(v.clone());
                true
            }
            "--seed" => v.parse().map(|s| p.seed = s).is_ok(),
            "--seconds" => v
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .map(|s| p.seconds = s)
                .is_some(),
            "--trace" => match v.as_str() {
                "0" => true,
                "1" => {
                    p.trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown argument {a}")),
        };
        if !ok {
            return usage(&format!("bad value {v:?} for {a}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    // The seed and settings go on record ahead of the metrics.
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={}{}",
        p.seed,
        p.seconds,
        u8::from(p.trace),
        if p.tiny { " tiny" } else { "" }
    );
    let out = run(&workload, &p).expect("workload names were checked");
    print!("{}", out.render(p.trace));
    ExitCode::SUCCESS
}
