//! `fasmlint` — the FVM trust gate for `.fasm` sources.
//!
//! Assembles, verifies, and analyzes each input, then renders the
//! annotated disassembly (stack heights, value ranges, proven-safe facts,
//! fuel bounds, capabilities, and beside each instruction the register-form
//! slot the fast path dispatches from there with the number of source ops
//! it covers) and enforces lint severity levels.
//!
//! ```text
//! fasmlint [--strict] [--quiet] [--out DIR] FILE.fasm...
//! ```
//!
//! * `--strict`  promote warn-level lints to deny
//! * `--quiet`   suppress the annotated disassembly on stdout
//! * `--out DIR` additionally write `<stem>.lint.fasm` per input to `DIR`
//!
//! Exit status is nonzero when any input fails to assemble/verify/analyze
//! or carries a deny-level lint — this is what gates `crates/pads/fasm/*`
//! in CI.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fractal_vm::analysis::{LintConfig, LintLevel};
use fractal_vm::asm::assemble;
use fractal_vm::disasm::disassemble_admitted;
use fractal_vm::sandbox::SandboxPolicy;

struct Args {
    strict: bool,
    quiet: bool,
    out_dir: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { strict: false, quiet: false, out_dir: None, files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => args.strict = true,
            "--quiet" => args.quiet = true,
            "--out" => {
                let dir = it.next().ok_or("--out requires a directory")?;
                args.out_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: fasmlint [--strict] [--quiet] [--out DIR] FILE.fasm...".to_string()
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if args.files.is_empty() {
        return Err("no input files (usage: fasmlint [--strict] [--quiet] [--out DIR] \
                    FILE.fasm...)"
            .to_string());
    }
    Ok(args)
}

/// Lints one file. Returns `(warns, denies)` or an error string.
fn lint_file(path: &Path, args: &Args, config: &LintConfig) -> Result<(usize, usize), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let module = assemble(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    // Admit (verify, analyze, translate) under the permissive default
    // policy: severity is about code quality; capability gating happens at
    // load time against the deployment policy.
    let admitted = module
        .analyzed(&SandboxPolicy::default())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let (module, analysis) = (&admitted.module, &admitted.analysis);

    let annotated =
        disassemble_admitted(&admitted).map_err(|e| format!("{}: {e}", path.display()))?;
    if !args.quiet {
        println!("; ==== {} ====", path.display());
        println!("{annotated}");
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("module");
        let out = dir.join(format!("{stem}.lint.fasm"));
        std::fs::write(&out, &annotated).map_err(|e| format!("{}: {e}", out.display()))?;
    }

    let (mut warns, mut denies) = (0usize, 0usize);
    for (f, fa) in analysis.functions.iter().enumerate() {
        let name = module.functions.get(f).map(|f| f.name.as_str()).unwrap_or("?");
        for l in &fa.lints {
            match config.level_for(l) {
                LintLevel::Allow => {}
                LintLevel::Warn => {
                    warns += 1;
                    eprintln!("{}: {name}: warn: {l}", path.display());
                }
                LintLevel::Deny => {
                    denies += 1;
                    eprintln!("{}: {name}: deny: {l}", path.display());
                }
            }
        }
    }
    Ok((warns, denies))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fasmlint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = if args.strict { LintConfig::default().strict() } else { LintConfig::default() };

    let (mut total_warns, mut total_denies, mut failed) = (0usize, 0usize, false);
    for file in &args.files {
        match lint_file(file, &args, &config) {
            Ok((w, d)) => {
                total_warns += w;
                total_denies += d;
            }
            Err(msg) => {
                eprintln!("fasmlint: error: {msg}");
                failed = true;
            }
        }
    }
    eprintln!(
        "fasmlint: {} file(s), {total_warns} warning(s), {total_denies} denial(s)",
        args.files.len()
    );
    if failed || total_denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
