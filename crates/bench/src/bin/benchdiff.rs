//! benchdiff: compare two `BENCH_*.json` documents and gate on
//! throughput regressions.
//!
//! ```text
//! benchdiff <base.json> <fresh.json> [--tolerance <pct>] [--warn-only] [--only <substr>]
//! ```
//!
//! Loads both documents with the repo's own JSON reader
//! ([`fractal_bench::json`]), aligns every numeric series by its
//! flattened key (rows matched by `shards`/`threads`/`link`/`protocol`/…
//! identity, not position), prints the per-metric delta table, and exits
//! nonzero when any gated series — `*_per_sec`, higher-is-better — fell
//! more than the tolerance (default 50%, sized for 1-CPU shared CI
//! noise; latency series are reported but never gate). `--warn-only`
//! reports without failing; `--only <substr>` restricts gating (not
//! reporting) to matching keys.

use fractal_bench::diff::{direction, DiffReport, Direction};
use fractal_bench::json::Json;
use fractal_bench::report::render_table;

fn usage() -> ! {
    eprintln!(
        "usage: benchdiff <base.json> <fresh.json> [--tolerance <pct>] [--warn-only] \
         [--only <substr>]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchdiff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<&str> = Vec::new();
    let mut tolerance = 50.0f64;
    let mut warn_only = false;
    let mut only: Option<String> = None;
    let mut ix = 0;
    while ix < args.len() {
        match args[ix].as_str() {
            "--tolerance" => {
                ix += 1;
                tolerance = args.get(ix).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--warn-only" => warn_only = true,
            "--only" => {
                ix += 1;
                only = Some(args.get(ix).cloned().unwrap_or_else(|| usage()));
            }
            flag if flag.starts_with("--") => usage(),
            path => files.push(path),
        }
        ix += 1;
    }
    let [base_path, fresh_path] = files[..] else { usage() };

    let report = DiffReport::compare(&load(base_path), &load(fresh_path));
    println!(
        "benchdiff: {base_path} (base) vs {fresh_path} (fresh), tolerance {tolerance}% on \
         *_per_sec{}\n",
        only.as_deref().map(|s| format!(", gating only keys containing {s:?}")).unwrap_or_default()
    );

    let rows: Vec<Vec<String>> = report
        .deltas
        .iter()
        .map(|d| {
            let gated = direction(&d.key) == Direction::HigherBetter;
            let verdict = if d.regressed(tolerance) {
                "REGRESSED"
            } else if gated {
                "ok"
            } else {
                "info"
            };
            vec![
                d.key.clone(),
                format!("{}", d.base),
                format!("{}", d.fresh),
                d.pct().map(|p| format!("{p:+.1}%")).unwrap_or_else(|| "n/a".into()),
                verdict.to_string(),
            ]
        })
        .collect();
    if rows.is_empty() {
        println!("no aligned numeric series — are these the same benchmark's documents?");
    } else {
        println!("{}", render_table(&["series", "base", "fresh", "delta", "gate"], &rows));
    }
    for key in &report.only_base {
        println!("only in base:  {key}");
    }
    for key in &report.only_fresh {
        println!("only in fresh: {key}");
    }

    let regressions = report.regressions(tolerance, only.as_deref());
    if regressions.is_empty() {
        println!("\nno gated series regressed beyond {tolerance}%");
        return;
    }
    eprintln!("\n{} gated series regressed beyond {tolerance}%:", regressions.len());
    for d in &regressions {
        eprintln!("  {d}");
    }
    if warn_only {
        eprintln!("(--warn-only: exiting 0)");
    } else {
        std::process::exit(1);
    }
}
