//! `fractal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--quick] [--spans <file>]`: runs one workload once, prints what it
//! measured, and ends with the result as one JSON line, whose `correct`
//! says whether every check held. Exits 2 on a bad command line.

use std::process::ExitCode;

use fractal_benchmark::{run, Config, Workload};

const USAGE: &str = "usage: fractal-benchmark --workload \
    <cold_loopback|warm_fetch|tcp_wave|republish_mixed> [--seed N] [--seconds S] \
    [--trace 0|1] [--quick] [--spans FILE]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::ColdLoopback,
        seed: 2005,
        seconds: 10.0,
        trace: false,
        quick: false,
        spans_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => cfg.spans_out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run::run(&cfg);
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.to_json_line());
    ExitCode::SUCCESS
}
