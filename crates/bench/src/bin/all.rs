//! The figure printer: every table and figure of the evaluation, in
//! sequence or one at a time.
//!
//! ```text
//! all                    every section at its default page count
//! all <n_pages>          every section at <n_pages> workload pages
//! all <name> [n_pages]   one section; an unknown name lists the valid ones, exit 2
//! ```

use fractal_bench::{ablate, capacity, fig10, fig11, fig9a, fig9b, headline, table1};

/// Section name, its printer, and its default workload page count.
type Section = (&'static str, fn(u32), u32);

const SECTIONS: [Section; 10] = [
    ("table1", table1::print, 75),
    ("fig9a", fig9a::print, 75),
    ("fig9b", fig9b::print, 75),
    ("fig10", fig10::print, 75),
    ("fig11", fig11::print, 75),
    ("headline", headline::print, 75),
    ("capacity", capacity::print, 75),
    ("ablate_ratio", ablate::print_ratio, 75),
    ("ablate_rho", ablate::print_rho, 75),
    ("ablate_entropy", ablate::print_entropy, 20),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pages = |ix: usize| args.get(ix).and_then(|s| s.parse::<u32>().ok());
    match args.first() {
        Some(name) if pages(0).is_none() => match SECTIONS.iter().find(|s| s.0 == name) {
            Some(&(_, print, default)) => print(pages(1).unwrap_or(default)),
            None => {
                let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
                eprintln!("unknown section {name:?}; one of: {}", names.join(" "));
                std::process::exit(2);
            }
        },
        _ => {
            for (name, print, default) in SECTIONS {
                println!("\n=== {name} {}", "=".repeat(60usize.saturating_sub(name.len())));
                print(pages(0).unwrap_or(default));
            }
        }
    }
}
