//! The figure printer: every table and figure of the evaluation, in
//! sequence or one at a time.
//!
//! ```text
//! all                    every section at its default page count
//! all <n_pages>          every section at <n_pages> workload pages
//! all <name> [n_pages]   one section; an unknown name lists the valid ones, exit 2
//! ```

use fractal_bench::fig11::{self, Figure11};
use fractal_bench::{ablate, capacity, fig10, fig9a, fig9b, headline, table1};

/// A section's printer: of a workload page count, or of Figure 11's cells,
/// which Figure 10 and the headline read too and one `fig11::run` measures.
enum Printer {
    Pages(fn(u32)),
    Cells(fn(&Figure11)),
}
use Printer::{Cells, Pages};

/// Section name, its printer, and its default workload page count.
const SECTIONS: [(&str, Printer, u32); 10] = [
    ("table1", Pages(table1::print), 75),
    ("fig9a", Pages(fig9a::print), 75),
    ("fig9b", Pages(fig9b::print), 75),
    ("fig10", Cells(fig10::print), 75),
    ("fig11", Cells(fig11::print), 75),
    ("headline", Cells(headline::print), 75),
    ("capacity", Pages(capacity::print), 75),
    ("ablate_ratio", Pages(ablate::print_ratio), 75),
    ("ablate_rho", Pages(ablate::print_rho), 75),
    ("ablate_entropy", Pages(ablate::print_entropy), 20),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pages = |ix: usize| args.get(ix).and_then(|s| s.parse::<u32>().ok());
    let mut cells: Option<Figure11> = None;
    let mut print = |printer: &Printer, n_pages: u32| match printer {
        Pages(print) => print(n_pages),
        // The three share one default page count, so one run serves all.
        Cells(print) => print(cells.get_or_insert_with(|| fig11::run(n_pages))),
    };
    match args.first() {
        Some(name) if pages(0).is_none() => match SECTIONS.iter().find(|s| s.0 == name) {
            Some((_, printer, default)) => print(printer, pages(1).unwrap_or(*default)),
            None => {
                let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
                eprintln!("unknown section {name:?}; one of: {}", names.join(" "));
                std::process::exit(2);
            }
        },
        _ => {
            for (name, printer, default) in &SECTIONS {
                println!("\n=== {name} {}", "=".repeat(60usize.saturating_sub(name.len())));
                print(printer, pages(0).unwrap_or(*default));
            }
        }
    }
}
