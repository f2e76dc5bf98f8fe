//! Differential harness: the machine held to the reference interpreter.
//!
//! Two executions of every module — `fractal_vm::Machine` over the admitted
//! register form, and the audited [`Oracle`] over the bytecode — must agree
//! bit for bit (result or trap, fuel used and left, whole memory, log) at
//! every fuel budget, and the oracle's auditor must find **zero** violations
//! of the analyzer's claims. The two share no execution code. The corpus is
//! 256+ proptest-generated modules (built valid by construction from a
//! seeded grammar, so they pass the verifier yet exercise div/rem, shifts,
//! memory ops, host calls, loops, calls, and what the register translation
//! could get wrong: a local overwritten under a pending operand, branches
//! into the middle of a run, traps inside one), hand-written cases of each,
//! and the six shipped PAD sources driven by real protocol encoders.

use fractal_crypto::sign::SignerRegistry;
use fractal_pads::artifact::{build_deflate_pad, build_pad, open_unchecked};
use fractal_protocols::bitmap::Bitmap;
use fractal_protocols::deflate::Deflate;
use fractal_protocols::direct::Direct;
use fractal_protocols::fixedblock::FixedBlock;
use fractal_protocols::gzip::Gzip;
use fractal_protocols::varyblock::{ChunkParams, VaryBlock};
use fractal_protocols::{DiffCodec, ProtocolId};
use std::sync::Arc;

use fractal_vm::analysis::{Slot, SlotOp};
use fractal_vm::asm::assemble;
use fractal_vm::{AnalyzedModule, Machine, Module, SandboxPolicy, Trap};
use fractal_vm_oracle::Oracle;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Seeded module generator: valid by construction, adversarial by intent.
// ---------------------------------------------------------------------------

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Interesting constants: zeros, ones, sign boundaries, page boundaries.
const CONSTS: [i64; 12] = [0, 1, 2, -1, 7, 63, 64, 255, 1024, 65535, i64::MAX, i64::MIN];

/// Emits one random instruction (or short idiom) legal at stack height
/// `h` with `nlocals` addressable locals; returns the new height.
fn emit_op(rng: &mut Rng, out: &mut String, h: i32, nlocals: u8) -> i32 {
    let push_const = |rng: &mut Rng, out: &mut String| {
        let c = if rng.below(2) == 0 {
            CONSTS[rng.below(CONSTS.len() as u64) as usize]
        } else {
            rng.next() as i32 as i64
        };
        out.push_str(&format!("    push {c}\n"));
    };
    match rng.below(19) {
        0 => {
            push_const(rng, out);
            h + 1
        }
        1 => {
            out.push_str(&format!("    local.get {}\n", rng.below(nlocals as u64)));
            h + 1
        }
        2 if h >= 1 => {
            let which = ["local.set", "local.tee"][rng.below(2) as usize];
            out.push_str(&format!("    {which} {}\n", rng.below(nlocals as u64)));
            if which == "local.set" {
                h - 1
            } else {
                h
            }
        }
        3 if h >= 1 => {
            let which = ["drop", "dup", "eqz"][rng.below(3) as usize];
            out.push_str(&format!("    {which}\n"));
            match which {
                "drop" => h - 1,
                "dup" => h + 1,
                _ => h,
            }
        }
        4 | 5 if h >= 2 => {
            const BINS: [&str; 21] = [
                "add", "sub", "mul", "and", "or", "xor", "shl", "shru", "shrs", "eq", "ne", "ltu",
                "lts", "gtu", "gts", "leu", "geu", "divu", "divs", "remu", "swap",
            ];
            let op = BINS[rng.below(BINS.len() as u64) as usize];
            out.push_str(&format!("    {op}\n"));
            if op == "swap" {
                h
            } else {
                h - 1
            }
        }
        6 if h >= 1 => {
            // Provably-safe division: constant nonzero divisor, so the range
            // pass discharges the zero check and the fast path uses BinNz.
            let d = [1i64, 2, 3, 7, 16, 255, -4][rng.below(7) as usize];
            let op = ["divu", "divs", "remu"][rng.below(3) as usize];
            out.push_str(&format!("    push {d}\n    {op}\n"));
            h
        }
        7 => {
            // Provably in-bounds load at a constant address.
            let w = [8u32, 16, 32, 64][rng.below(4) as usize];
            let addr = rng.below(65536 - 8);
            out.push_str(&format!("    push {addr}\n    load{w}\n"));
            h + 1
        }
        8 if h >= 1 => {
            // Provably in-bounds store of the current top of stack.
            let w = [8u32, 16, 32, 64][rng.below(4) as usize];
            let addr = rng.below(65536 - 8);
            out.push_str(&format!("    push {addr}\n    swap\n    store{w}\n"));
            h - 1
        }
        9 => {
            // Masked dynamic load: known-bits prove the address in bounds
            // for width 1 even though its exact value is unknown.
            out.push_str(&format!(
                "    local.get {}\n    push 65535\n    and\n    load8\n",
                rng.below(nlocals as u64)
            ));
            h + 1
        }
        10 => {
            // Bulk ops with constant, in-bounds arguments.
            let dst = rng.below(30000);
            let src = 30000 + rng.below(30000);
            let len = rng.below(512);
            match rng.below(3) {
                0 => out.push_str(&format!(
                    "    push {dst}\n    push {}\n    push {len}\n    memfill\n",
                    rng.below(256)
                )),
                1 => out.push_str(&format!(
                    "    push {dst}\n    push {src}\n    push {len}\n    memcopy\n"
                )),
                _ => out.push_str(&format!(
                    "    push {dst}\n    push {src}\n    push {len}\n    lzcopy\n"
                )),
            }
            h
        }
        11 => {
            // Host calls with constant, contract-satisfying arguments.
            match rng.below(4) {
                0 => out.push_str(&format!(
                    "    push {}\n    push {}\n    push {}\n    host sha1\n",
                    rng.below(1000),
                    rng.below(512),
                    1600 + rng.below(1000)
                )),
                1 => out.push_str(&format!(
                    "    push {}\n    push {}\n    host log\n",
                    rng.below(1000),
                    rng.below(64)
                )),
                2 => out.push_str(&format!(
                    "    push {}\n    push {}\n    push {}\n    host memeq\n",
                    rng.below(1000),
                    2000 + rng.below(1000),
                    rng.below(256)
                )),
                _ => out.push_str(&format!(
                    "    push {}\n    push {}\n    host weaksum\n",
                    rng.below(1000),
                    rng.below(512)
                )),
            }
            h + 1
        }
        12 => {
            out.push_str("    memsize\n");
            h + 1
        }
        13 => {
            // Compare-and-skip over a height-neutral op: every run that
            // ends in `jmpif`, entered at its head on this path.
            const CMPS: [&str; 8] = ["eq", "ne", "ltu", "lts", "gtu", "gts", "leu", "geu"];
            let cmp = CMPS[rng.below(8) as usize];
            let (a, b) = (rng.below(nlocals as u64), rng.below(nlocals as u64));
            let c = CONSTS[rng.below(CONSTS.len() as u64) as usize];
            match rng.below(5) {
                0 => out.push_str(&format!("    local.get {a}\n    local.get {b}\n    {cmp}\n")),
                1 => out.push_str(&format!("    local.get {a}\n    push {c}\n    {cmp}\n")),
                2 => out.push_str(&format!("    local.get {a}\n    eqz\n")),
                3 => out.push_str(&format!("    memsize\n    local.get {a}\n    {cmp}\n")),
                _ => out
                    .push_str(&format!("    memsize\n    push {c}\n    dup\n    add\n    {cmp}\n")),
            }
            // `out.len()` only grows, so the label is unique.
            let label = format!("skip{}", out.len());
            out.push_str(&format!("    jmpif {label}\n    memsize\n    local.set {b}\n{label}:\n"));
            h
        }
        14 => {
            // Straight-line runs: load through a local (in bounds three
            // times in four, so the trap inside `get·load·set` runs too),
            // the scaled-index idiom, and arithmetic into a local.
            let (a, b) = (rng.below(nlocals as u64), rng.below(nlocals as u64));
            let w = [8u32, 16, 32, 64][rng.below(4) as usize];
            match rng.below(5) {
                0 => {
                    if rng.below(4) != 0 {
                        let addr = rng.below(65536 - 8);
                        out.push_str(&format!("    push {addr}\n    local.set {a}\n"));
                    }
                    out.push_str(&format!("    local.get {a}\n    load{w}\n    local.set {b}\n"));
                }
                1 => out.push_str(&format!(
                    "    memsize\n    local.get {a}\n    push 2\n    shl\n    add\n    \
                     push 65535\n    and\n    local.set {b}\n"
                )),
                // A division with both operands and its result folded in:
                // it traps (an argument is often 0 or -1) in mid-run.
                2 => {
                    let op = ["divu", "divs", "remu"][rng.below(3) as usize];
                    out.push_str(&format!(
                        "    local.get {a}\n    local.get {b}\n    {op}\n    local.set {a}\n"
                    ));
                }
                // A bulk op with three folded operands, in bounds or not,
                // that the budget sweep starves at every unit.
                3 => {
                    let op = ["memcopy", "lzcopy", "memfill"][rng.below(3) as usize];
                    let len = if rng.below(4) == 0 { 70000 } else { rng.below(300) };
                    out.push_str(&format!(
                        "    push {}\n    local.set {a}\n    push {len}\n    local.set {b}\n    \
                         local.get {a}\n    local.get {a}\n    local.get {b}\n    {op}\n",
                        rng.below(30000)
                    ));
                }
                _ => out.push_str(&format!(
                    "    local.get {a}\n    local.get {b}\n    local.get {a}\n    local.get {b}\n    \
                     xor\n    sub\n    local.set {a}\n"
                )),
            }
            h
        }
        15 => {
            // A local overwritten while its old value sits on the stack:
            // the `add` reads what `local.get` pushed, not the local.
            let a = rng.below(nlocals as u64);
            out.push_str(&format!(
                "    local.get {a}\n    local.get {a}\n    push {}\n    local.set {a}\n    add\n",
                CONSTS[rng.below(CONSTS.len() as u64) as usize]
            ));
            h + 1
        }
        16 => {
            // A branch into the second or the third op of the run
            // `get · get · bin · set`, carrying stand-ins for what the
            // skipped ops would have pushed.
            let (a, b, c) =
                (rng.below(nlocals as u64), rng.below(nlocals as u64), rng.below(nlocals as u64));
            let skipped = 1 + rng.below(2) as usize;
            let label = format!("into{}", out.len());
            for _ in 0..skipped {
                out.push_str(&format!("    push {}\n", rng.next() as i32));
            }
            out.push_str(&format!("    local.get {c}\n    jmpif {label}\n"));
            out.push_str(&"    drop\n".repeat(skipped));
            let ops = [format!("    local.get {a}\n"), format!("    local.get {b}\n")];
            for (i, op) in ops.iter().enumerate() {
                if i == skipped {
                    out.push_str(&format!("{label}:\n"));
                }
                out.push_str(op);
            }
            if skipped == 2 {
                out.push_str(&format!("{label}:\n"));
            }
            let bin = ["add", "sub", "xor", "ltu", "gts"][rng.below(5) as usize];
            out.push_str(&format!("    {bin}\n    local.set {c}\n"));
            h
        }
        17 => {
            emit_fusable(rng, out, nlocals);
            h
        }
        _ => {
            // Unknown-operand arithmetic on an argument: keeps ⊤ intervals
            // flowing so the auditor also checks trivial claims.
            out.push_str(&format!("    local.get {}\n", rng.below(nlocals as u64)));
            h + 1
        }
    }
}

/// One of the five shapes the superinstruction pass fuses, or a near miss
/// whose sum lands in a local (which must not fuse), height-neutral. It is
/// entered at its head or, through a branch that carries stand-ins for
/// what the skipped ops would have pushed, at its second or third slot.
fn emit_fusable(rng: &mut Rng, out: &mut String, nlocals: u8) {
    let mut local = || rng.below(nlocals as u64);
    let (a, b, c, sel) = (local(), local(), local(), local());
    let skip = format!("skip{}", out.len());
    let branch = format!("jmpif {skip}");
    let get = |n: u64| format!("local.get {n}");
    let mut setup = String::new();
    // The ops, and per later slot the op it starts at and the stack height
    // there.
    let (ops, entries): (Vec<String>, &[(usize, usize)]) = match rng.below(6) {
        // add · br.ltu, register or immediate addend.
        0 => {
            let y = if rng.below(2) == 0 { get(b) } else { format!("push {}", rng.below(300)) };
            let ops = vec![get(a), y, "add".into(), get(c), "gtu".into(), branch];
            (ops, &[(3, 1)])
        }
        // mov · sub · br.ltu.
        1 => (vec![get(a), get(b), get(c), "sub".into(), "gtu".into(), branch], &[(1, 1), (4, 2)]),
        // load · add: in bounds three times in four; else at or past the
        // end of memory, so the load traps with the increment unpaid.
        2 => {
            let w = [8, 16][rng.below(2) as usize];
            let addr = if rng.below(4) != 0 { rng.below(65000) } else { 65535 + rng.below(2) };
            setup = format!("    push {addr}\n    local.set {a}\n");
            let k = [1, 2, -1, 300][rng.below(4) as usize];
            let ops = [get(a), format!("load{w}"), format!("local.set {b}"), get(a)];
            let ops = [&ops[..], &[format!("push {k}"), "add".into(), format!("local.set {a}")]];
            (ops.concat(), &[(3, 0)])
        }
        // add · jmp.
        3 => {
            let ops = vec![get(a), get(b), "add".into(), format!("local.set {c}")];
            ([ops, vec![format!("jmp {skip}")]].concat(), &[(4, 0)])
        }
        // mov · sub · lzcopy, in bounds unless the length is 70 000.
        4 => {
            let len = if rng.below(4) == 0 { 70000 } else { rng.below(300) };
            let dst = 300 + rng.below(30000);
            setup = format!(
                "    push {dst}\n    local.set {a}\n    push {}\n    local.set {b}\n    \
                 push {len}\n    local.set {c}\n",
                1 + rng.below(300)
            );
            (vec![get(a), get(a), get(b), "sub".into(), get(c), "lzcopy".into()], &[(1, 1), (4, 2)])
        }
        // The sum in a local, which the branch reads and which outlives it.
        _ => {
            let ops = [get(a), get(b), "add".into(), format!("local.set {c}"), get(a), get(c)];
            ([&ops[..], &["ltu".into(), branch]].concat(), &[(4, 0)])
        }
    };
    out.push_str(&setup);
    let (entry, held) = match rng.below(3) as usize {
        0 => (0, 0),
        i => entries[(i - 1).min(entries.len() - 1)],
    };
    let into = format!("into{}", out.len());
    if entry > 0 {
        for _ in 0..held {
            out.push_str(&format!("    push {}\n", rng.below(30000)));
        }
        out.push_str(&format!("    local.get {sel}\n    jmpif {into}\n"));
        out.push_str(&"    drop\n".repeat(held));
    }
    for (i, op) in ops.iter().enumerate() {
        if i == entry && entry > 0 {
            out.push_str(&format!("{into}:\n"));
        }
        out.push_str(&format!("    {op}\n"));
    }
    if !ops.last().is_some_and(|op| op.starts_with("jmp ")) {
        out.push_str(&format!("    memsize\n    local.set {b}\n"));
    }
    out.push_str(&format!("{skip}:\n"));
    // Every local the shape may have written goes to memory, so a write a
    // fused slot wrongly skips shows even if nothing reads the local again.
    let at = rng.below(30000) & !7;
    for (i, n) in [a, b, c].into_iter().enumerate() {
        out.push_str(&format!("    push {}\n    local.get {n}\n    store64\n", at + 8 * i as u64));
    }
}

/// Pads/trims the stack to exactly one value and returns.
fn emit_ret(out: &mut String, mut h: i32) {
    while h > 1 {
        out.push_str("    drop\n");
        h -= 1;
    }
    if h == 0 {
        out.push_str("    push 0\n");
    }
    out.push_str("    ret\n");
}

/// A bounded counting loop whose body is height-neutral. `nlocals` must
/// exclude `counter`, or the body could clobber it and spin until fuel
/// exhaustion (2 machines × full budget per proptest case).
fn emit_loop(rng: &mut Rng, out: &mut String, id: usize, counter: u64, nlocals: u8) {
    let k = 1 + rng.below(6);
    out.push_str(&format!("    push {k}\n    local.set {counter}\nloop{id}:\n"));
    // Height-neutral body.
    match rng.below(3) {
        0 => out.push_str(&format!(
            "    local.get {}\n    push 3\n    mul\n    local.set {}\n",
            rng.below(nlocals as u64),
            rng.below(nlocals as u64)
        )),
        1 => {
            let addr = rng.below(60000);
            out.push_str(&format!(
                "    push {addr}\n    load32\n    push 1\n    add\n    push {addr}\n    \
                 swap\n    store32\n"
            ));
        }
        _ => out.push_str("    memsize\n    drop\n"),
    }
    out.push_str(&format!(
        "    local.get {counter}\n    push 1\n    sub\n    local.tee {counter}\n    \
         jmpif loop{id}\n"
    ));
}

/// Builds a whole valid module from `seed`: 0–2 straight-line helper
/// functions plus a `main` that mixes straight-line idioms, bounded
/// loops, and calls.
fn gen_module(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::from(".memory 1\n");
    // helper0 takes one argument and helper1 two, so a call's window
    // opens one or two stack registers below the caller's top.
    let n_helpers = rng.below(3);
    for i in 0..n_helpers {
        out.push_str(&format!("\n.func helper{i} args={} locals=1\n", i + 1));
        let mut h = 0i32;
        for _ in 0..(2 + rng.below(8)) {
            h = emit_op(&mut rng, &mut out, h, i as u8 + 2);
        }
        emit_ret(&mut out, h);
    }
    out.push_str("\n.func main args=2 locals=3\n");
    let mut h = 0i32;
    let mut loops = 0usize;
    for _ in 0..(6 + rng.below(24)) {
        match rng.below(10) {
            0 if loops < 2 => {
                // Loops need the stack flat so the backedge height matches.
                emit_ret_height_zero(&mut out, &mut h);
                emit_loop(&mut rng, &mut out, loops, 4, 4);
                loops += 1;
            }
            1 if n_helpers > 0 && h >= 1 => {
                let callee = rng.below(n_helpers);
                if callee == 1 {
                    out.push_str("    dup\n");
                }
                out.push_str(&format!("    call helper{callee}\n"));
            }
            _ => h = emit_op(&mut rng, &mut out, h, 5),
        }
    }
    emit_ret(&mut out, h);
    out
}

/// [`gen_module`] over four pages instead of one, for the tests that need a
/// tenant's instance kept: every address the generator proves in bounds stays
/// in the first page, so the dirty span stays under the half of memory past
/// which the pool frees an instance rather than wipe it. The one length
/// chosen to overrun one page is raised to overrun four.
fn gen_roomy_module(seed: u64) -> String {
    gen_module(seed)
        .replacen(".memory 1\n", ".memory 4\n", 1)
        .replace("    push 70000\n", "    push 270000\n")
}

/// Drops the stack to height zero (loop prologue).
fn emit_ret_height_zero(out: &mut String, h: &mut i32) {
    while *h > 0 {
        out.push_str("    drop\n");
        *h -= 1;
    }
}

// ---------------------------------------------------------------------------
// The differential check itself.
// ---------------------------------------------------------------------------

/// A module's admitted bundle, built once and run at many budgets.
struct Subject {
    analyzed: Arc<AnalyzedModule>,
    /// Printed with every failed assertion: the source or the PAD's name.
    what: String,
}

impl Subject {
    fn new(module: Module, policy: &SandboxPolicy, what: String) -> Subject {
        let analyzed = module.analyzed(policy).unwrap_or_else(|e| panic!("{e}\n{what}"));
        Subject { analyzed: Arc::new(analyzed), what }
    }

    fn assemble(src: &str) -> Subject {
        let module = assemble(src).unwrap_or_else(|e| panic!("generated module: {e}\n{src}"));
        Subject::new(module, &SandboxPolicy::default(), src.to_string())
    }

    /// Writes `staged` into a machine and an audited oracle built under
    /// `policy`, calls `entry(args)` on each and asserts result (or trap
    /// kind), fuel used and left, memory and log identical plus a clean
    /// audit. Returns the outcome and the fuel the call used.
    fn differential(
        &self,
        policy: &SandboxPolicy,
        staged: &[(usize, &[u8])],
        entry: &str,
        args: &[i64],
    ) -> (Result<i64, Trap>, u64) {
        let what = format!("fuel={} args={args:?}\n{}", policy.max_fuel, self.what);
        let analyzed = &self.analyzed;
        let oracle = Oracle::new(&analyzed.module, policy.clone()).expect("instantiates");
        let mut oracle = oracle.audited(&analyzed.analysis);
        let mut machine = Machine::new_analyzed(Arc::clone(analyzed)).unwrap();
        // The machine runs under the policy of the proof; `policy` differs
        // from it in the budget alone.
        machine.limit_fuel(policy.max_fuel);
        for &(addr, bytes) in staged {
            oracle.write_memory(addr, bytes).expect("staged input fits");
            machine.write_memory(addr, bytes).expect("staged input fits");
        }

        let outcome = oracle.call(entry, args);
        assert_eq!(outcome, machine.call(entry, args), "result\n{what}");
        assert_eq!(oracle.fuel_used(), machine.fuel_used(), "fuel used\n{what}");
        assert_eq!(oracle.fuel_remaining(), machine.fuel_remaining(), "fuel left\n{what}");
        let memory = machine.read_memory(0, machine.memory_len()).unwrap();
        assert!(oracle.memory() == memory, "memory differs\n{what}");
        assert_eq!(oracle.log_bytes(), machine.log_bytes(), "log differs\n{what}");
        let violations = oracle.violations();
        assert!(violations.is_empty(), "analyzer unsoundness: {violations:?}\n{what}");
        (outcome, oracle.fuel_used())
    }

    /// Runs `entry(args)` at the full budget, at every smaller one and at
    /// up to a whole slot more: below what the full run uses, the run ends
    /// in a trap having spent at most its budget; from there on it ends as
    /// the full run did — even when a slot's main op traps with the rest of
    /// the slot unpaid. Returns the full run's outcome and fuel.
    fn sweep(&self, entry: &str, args: &[i64]) -> (Result<i64, Trap>, u64) {
        let run =
            |fuel| self.differential(&SandboxPolicy::default().with_fuel(fuel), &[], entry, args);
        let full = run(1_000_000);
        for fuel in 0..full.1 {
            let (outcome, used) = run(fuel);
            assert!(outcome.is_err() && used <= fuel, "fuel={fuel}: {outcome:?} after {used}");
        }
        for fuel in full.1..=full.1 + 10 {
            assert_eq!(run(fuel), full, "fuel={fuel}\n{}", self.what);
        }
        full
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 generated modules: the machine and the oracle agree and the
    /// auditor confirms every static claim — at the full budget, at every
    /// smaller one and at up to a whole slot more, so a run that exhausts
    /// its fuel anywhere inside a slot ends exactly where the plain ops
    /// would have, and one that traps does so whatever the slot's unpaid
    /// rest.
    #[test]
    fn generated_modules_agree_across_paths(seed in any::<u64>(), raw0 in any::<i64>(), raw1 in any::<i64>()) {
        // Mix raw arguments with adversarial edge values.
        let mut rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
        let pick = |rng: &mut Rng, raw: i64| {
            if rng.below(3) == 0 { CONSTS[rng.below(CONSTS.len() as u64) as usize] } else { raw }
        };
        let args = [pick(&mut rng, raw0), pick(&mut rng, raw1)];
        let _ = Subject::assemble(&gen_module(seed)).sweep("main", &args);
    }
}

/// The generator reaches every shape the superinstruction pass fuses, so
/// the budget sweep above runs each of them.
#[test]
fn the_generator_emits_every_fused_form() {
    use fractal_vm::analysis::SlotOp::*;
    let mut seen = Vec::new();
    for seed in 0..256 {
        let module = assemble(&gen_module(seed)).unwrap();
        let functions = module.functions.len();
        let analyzed = module.analyzed(&SandboxPolicy::default()).unwrap();
        seen.extend((0..functions).flat_map(|f| analyzed.slots(f).iter().map(|s| s.op)));
    }
    for form in [BrLtUAdd, BrLtUAddI, BrLtUSub, Load8Inc, Load16Inc, AddJmp, LzCopySub] {
        assert!(seen.contains(&form), "{form:?}");
    }
}

/// [`Subject::sweep`] of `entry(args)` in `src`; returns the full run's
/// outcome and fuel, and the slot table of function 0.
fn sweep(src: &str, entry: &str, args: &[i64]) -> (Result<i64, Trap>, u64, Vec<Slot>) {
    let subject = Subject::assemble(src);
    let (outcome, fuel) = subject.sweep(entry, args);
    (outcome, fuel, subject.analyzed.slots(0).to_vec())
}

/// Slots as `fasmlint` prints them.
fn shown(slots: &[Slot], at: &[usize]) -> Vec<String> {
    at.iter().map(|&i| slots[i].to_string()).collect()
}

/// The five shapes as gzip writes them fuse and run as their parts, and
/// near misses whose sum and copies land in locals read afterwards do not
/// fuse: every write happens.
#[test]
fn fused_slots_and_their_near_misses_agree_at_every_budget() {
    let fused = r#"
        .memory 1
        .func main args=3 locals=2
            local.get 0
            load8
            local.set 3
            local.get 0
            push 1
            add
            local.set 0
            local.get 0
            local.get 2
            add
            local.get 1
            gtu
            jmpif out
            local.get 3
            local.get 1
            local.get 2
            sub
            gtu
            jmpif out
            local.get 1
            local.get 1
            local.get 2
            sub
            local.get 2
            lzcopy
            local.get 1
            local.get 3
            add
            local.set 4
            jmp out
        out:
            local.get 0
            local.get 4
            add
            ret
    "#;
    let (outcome, fuel, slots) = sweep(fused, "main", &[100, 300, 7]);
    // 34 ops, and one unit for the seven bytes `lzcopy` moves.
    assert_eq!((outcome, fuel), (Ok(101 + 300), 34 + 1));
    assert_eq!(
        shown(&slots, &[0, 7, 13, 19, 25]),
        [
            "load8 r3, [r0], r0+=1 x7",
            "br.ltu r1, r0+r2 -> @30 x6",
            "br.ltu r1-r2, r3 -> @30 x6",
            "lzcopy r1, r1-r2, r2 x6",
            "add r4, r1, r3 -> @30 x5",
        ]
    );
    assert_eq!((slots[0].n, slots[0].tail), (7, 5));
    // The load traps with what it and its operand cost paid and the
    // increment unpaid, at every budget from 2 to 6: 2 are used.
    let (outcome, fuel, _) = sweep(fused, "main", &[65536, 300, 7]);
    assert!(matches!(outcome, Err(Trap::OutOfBounds { .. })));
    assert_eq!(fuel, 2);

    let near = r#"
        .memory 1
        .func main args=2 locals=3
            local.get 0
            local.get 1
            add
            local.set 2
            local.get 0
            local.get 2
            ltu
            jmpif a
        a:
            local.get 1
            local.set 3
            local.get 0
            local.get 1
            sub
            local.set 4
            local.get 4
            local.get 3
            ltu
            jmpif b
        b:
            local.get 2
            local.get 3
            add
            local.get 4
            add
            ret
    "#;
    let (outcome, _, slots) = sweep(near, "main", &[5, 3]);
    assert_eq!(outcome, Ok(8 + 3 + 2));
    assert_eq!(
        shown(&slots, &[0, 4, 8, 10, 14]),
        [
            "add r2, r0, r1 x4",
            "br.ltu r0, r2 -> @8 x4",
            "mov r3, r1 x2",
            "sub r4, r0, r1 x4",
            "br.ltu r4, r3 -> @18 x4",
        ]
    );
}

/// A fused `load · add` whose load traps out of bounds: at every budget
/// that pays for the load (and what precedes it) but not the increment the
/// slot also stands for, the trap is how the run ends, charged through the
/// load, with the rest left in the tank.
#[test]
fn a_fused_post_increment_load_traps_with_its_increment_unpaid() {
    for (w, addr) in [(8, 65536), (16, 65535), (16, -1)] {
        let src = format!(
            ".memory 1\n.func main args=1 locals=1\n    push 1\n    drop\n    local.get 0\n    \
             load{w}\n    local.set 1\n    local.get 0\n    push 2\n    add\n    local.set 0\n    \
             local.get 1\n    ret\n"
        );
        let subject = Subject::assemble(&src);
        let load = &subject.analyzed.slots(0)[2];
        assert_eq!((load.n, load.tail), (7, 5), "{load}");
        // `push`, `drop`, `local.get`, the load: n - tail = 2 after the prefix.
        for fuel in 0..=2 + 7 {
            let policy = SandboxPolicy::default().with_fuel(fuel);
            let (_, used) = subject.differential(&policy, &[], "main", &[addr]);
            assert_eq!(used, fuel.min(4), "fuel={fuel}");
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-written cases of what the register translation could get wrong.
// ---------------------------------------------------------------------------

#[test]
fn a_local_overwritten_after_its_get_is_read_at_its_old_value() {
    // `local.get 0` is on the stack when `local.set 0` overwrites the
    // local; the `add` must see the value that was pushed.
    let src = r#"
        .memory 1
        .func main args=1 locals=0
            local.get 0
            local.get 0
            push 1
            local.set 0
            add
            local.get 0
            add
            ret
    "#;
    let (outcome, fuel, slots) = sweep(src, "main", &[20]);
    assert_eq!((outcome, fuel), (Ok(41), 8));
    // The first get is materialised, and nothing folds across the set.
    assert_eq!(slots[0].op, SlotOp::Mov);
    assert_eq!((slots[2].op, slots[2].n, slots[2].d), (SlotOp::Const, 2, 0));
    assert_eq!((slots[4].op, slots[4].n), (SlotOp::Add, 1));
}

#[test]
fn a_branch_into_a_run_executes_the_ops_from_there() {
    // `head` starts the run get·get·add·set; the two side entries land
    // on its second and third op with the operands the skipped ops
    // would have pushed.
    let src = r#"
        .memory 1
        .func main args=2 locals=1
            local.get 0
            push 1
            eq
            jmpif enter_second
            local.get 0
            push 2
            eq
            jmpif enter_third
        head:
            local.get 1
        second:
            local.get 1
        third:
            add
            local.set 2
            local.get 2
            ret
        enter_second:
            push 100
            jmp second
        enter_third:
            push 100
            push 7
            jmp third
    "#;
    let (outcome, _, slots) = sweep(src, "main", &[0, 21]);
    assert_eq!(outcome, Ok(42));
    assert_eq!(sweep(src, "main", &[1, 21]).0, Ok(121));
    assert_eq!(sweep(src, "main", &[2, 21]).0, Ok(107));
    let head = 8;
    assert_eq!((slots[0].op, slots[0].n), (SlotOp::BrEqI, 4), "{}", slots[0]);
    // One slot for the whole run, and the covered slots keep the
    // (shorter) runs that start at them.
    let show: Vec<String> = slots[head..head + 4].iter().map(|s| s.to_string()).collect();
    assert_eq!(show, ["add r2, r1, r1 x4", "add r2, r3, r1 x3", "add r2, r3, r4 x2", "mov r2, r3"]);
    assert!(slots.iter().any(|s| s.op == SlotOp::Jmp && s.t as usize == head + 1));
    assert!(slots.iter().any(|s| s.op == SlotOp::Jmp && s.t as usize == head + 2));
}

#[test]
fn a_trap_in_the_middle_of_a_run_ends_at_the_oracles_fuel() {
    // A load out of bounds between its `local.get` and `local.set`.
    let load = r#"
        .memory 1
        .func main args=1 locals=1
            local.get 0
            load8
            local.set 1
            local.get 1
            ret
    "#;
    let (outcome, fuel, slots) = sweep(load, "main", &[65536]);
    assert!(matches!(outcome, Err(Trap::OutOfBounds { .. })));
    assert_eq!(fuel, 2);
    assert_eq!((slots[0].op, slots[0].n, slots[0].tail), (SlotOp::Load8, 3, 1));
    assert_eq!(sweep(load, "main", &[0]).1, 5);

    // A division by zero, likewise; its operands fold, its trap does not.
    let div = r#"
        .memory 1
        .func main args=2 locals=1
            local.get 0
            local.get 1
            divu
            local.set 2
            local.get 2
            ret
    "#;
    let (outcome, fuel, slots) = sweep(div, "main", &[5, 0]);
    assert_eq!((outcome, fuel), (Err(Trap::DivideByZero), 3));
    assert_eq!((slots[0].op, slots[0].n, slots[0].tail), (SlotOp::DivU, 4, 1));
    assert_eq!(sweep(div, "main", &[6, 2]), (Ok(3), 6, slots));
    assert_eq!(sweep(div, "main", &[i64::MIN, -1]).0, Ok(0));

    // A bulk op that cannot pay for its bytes, and one out of bounds.
    let copy = r#"
        .memory 1
        .func main args=3 locals=0
            local.get 0
            local.get 1
            local.get 2
            memcopy
            push 9
            ret
    "#;
    let (outcome, fuel, slots) = sweep(copy, "main", &[0, 4096, 800]);
    assert_eq!((outcome, fuel), (Ok(9), 4 + 101 + 2));
    assert_eq!((slots[0].op, slots[0].n), (SlotOp::MemCopy, 4));
    let (outcome, fuel, _) = sweep(copy, "main", &[0, 65000, 800]);
    assert!(matches!(outcome, Err(Trap::OutOfBounds { .. })));
    assert_eq!(fuel, 4 + 101);
}

#[test]
fn calls_take_their_arguments_from_stack_registers_and_restore_the_window() {
    let src = r#"
        .memory 1
        .func main args=2 locals=1
            push 1000
            local.get 0
            local.get 1
            push 3
            mul
            call mix
            local.set 2
            ; the operand under the arguments survived the call
            local.get 2
            add
            local.get 0
            add
            ret
        .func mix args=2 locals=2
            ; locals start zeroed on every entry
            local.get 2
            local.get 3
            add
            jmpif bad
            local.get 0
            local.set 2
            local.get 1
            local.set 3
            local.get 2
            push 10
            mul
            local.get 3
            add
            ret
        bad:
            unreachable
    "#;
    // 1000 + (7 * 10 + 5 * 3) + 7
    assert_eq!(sweep(src, "main", &[7, 5]).0, Ok(1092));
}

#[test]
fn recursion_runs_to_the_call_depth_limit_and_unwinds_exactly() {
    let src = r#"
        .memory 1
        .func down args=1 locals=1
            local.get 0
            eqz
            jmpif base
            local.get 0
            local.get 0
            push 1
            sub
            call down
            add
            ret
        base:
            push 0
            ret
    "#;
    let depth = SandboxPolicy::default().max_call_depth as i64;
    // depth - 1 nested calls fit; one more does not.
    let n = depth - 1;
    assert_eq!(sweep(src, "down", &[n]).0, Ok(n * (n + 1) / 2));
    assert_eq!(sweep(src, "down", &[depth]).0, Err(Trap::CallDepthExceeded));
}

#[test]
fn a_trap_in_a_callee_and_a_halt_below_an_empty_frame() {
    let src = r#"
        .memory 1
        .func main args=1 locals=0
            push 77
            local.get 0
            call inner
            add
            ret
        .func inner args=1 locals=0
            local.get 0
            eqz
            jmpif stop
            local.get 0
            load64
            ret
        stop:
            ; frame-relative height 0: the result is main's 77
            halt
    "#;
    assert_eq!(sweep(src, "main", &[0]).0, Ok(77));
    assert_eq!(sweep(src, "main", &[8]).0, Ok(77));
    assert!(matches!(sweep(src, "main", &[-8]).0, Err(Trap::OutOfBounds { .. })));
    // The instance is reusable after the trap: windows start over.
    let analyzed = assemble(src).unwrap().analyzed(&SandboxPolicy::default()).unwrap();
    let mut m = Machine::new_analyzed(analyzed).unwrap();
    assert!(m.call("main", &[-8]).is_err());
    assert_eq!(m.call("main", &[0]), Ok(77));
}

#[test]
fn dup_swap_tee_and_drop_at_every_height() {
    for height in 0..6 {
        let mut src = String::from(".memory 1\n.func main args=2 locals=1\n");
        for i in 0..height {
            src.push_str(&format!("    push {}\n", 1000 + i));
        }
        src.push_str(
            "    local.get 0\n    local.get 1\n    swap\n    dup\n    local.tee 2\n    drop\n    \
             sub\n    local.get 2\n    add\n",
        );
        for _ in 0..height {
            src.push_str("    add\n");
        }
        src.push_str("    ret\n");
        // (b - a) + a, plus what was underneath.
        let under: i64 = (0..height).map(|i| 1000 + i).sum();
        assert_eq!(sweep(&src, "main", &[3, 10]).0, Ok(10 + under), "height {height}");
    }
}

#[test]
fn every_operator_and_comparison_matches_the_oracle() {
    const OPS: [&str; 20] = [
        "add", "sub", "mul", "and", "or", "xor", "shl", "shru", "shrs", "eq", "ne", "ltu", "lts",
        "gtu", "gts", "leu", "geu", "divu", "divs", "remu",
    ];
    let values = [0i64, 1, -1, 7, 64, 65, i64::MAX, i64::MIN];
    for op in OPS {
        // Register and immediate forms, as a value and as a branch
        // (`jmpif` and `jmpifz`).
        let src = format!(
            r#"
            .memory 1
            .func main args=2 locals=1
                local.get 0
                local.get 1
                {op}
                local.set 2
                local.get 0
                push 7
                {op}
                local.get 2
                add
                local.set 2
                local.get 0
                local.get 1
                {op}
                jmpif a
                local.get 2
                push 16
                add
                local.set 2
            a:
                local.get 0
                push -1
                {op}
                jmpifz b
                local.get 2
                push 32
                add
                local.set 2
            b:
                local.get 2
                ret
        "#
        );
        let subject = Subject::assemble(&src);
        let policy = SandboxPolicy::default();
        for a in values {
            for b in values {
                let _ = subject.differential(&policy, &[], "main", &[a, b]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The six shipped PADs, driven by real protocol encoders.
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random bytes.
fn data(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.next() as u8).collect()
}

fn native(p: ProtocolId) -> Box<dyn DiffCodec> {
    match p {
        ProtocolId::Direct => Box::new(Direct),
        ProtocolId::Gzip => Box::new(Gzip),
        ProtocolId::Bitmap => Box::new(Bitmap::with_block_size(64)),
        ProtocolId::VaryBlock => {
            Box::new(VaryBlock::with_params(ChunkParams { min: 32, max: 512, mask: 0x3F }))
        }
        ProtocolId::FixedBlock => Box::new(FixedBlock::with_block_size(64)),
    }
}

/// The staged inputs and arguments of `decode(old, payload)`, laid out as
/// `PadRuntime::decode` lays them out: old at 64, then the payload, then
/// the output region, each 8-byte aligned.
fn decode_call<'a>(
    module: &Module,
    old: &'a [u8],
    payload: &'a [u8],
) -> ([(usize, &'a [u8]); 2], [i64; 6]) {
    let pay_base = (64 + old.len() + 7) & !7;
    let out_base = (pay_base + payload.len() + 7) & !7;
    let out_cap = module.memory_bytes() - out_base;
    let args = [64, old.len(), pay_base, payload.len(), out_base, out_cap].map(|v| v as i64);
    ([(64, old), (pay_base, payload)], args)
}

#[test]
fn shipped_pads_audit_clean_on_real_payloads() {
    let signer = SignerRegistry::new().provision("differential");
    let old = data(11, 3000);
    let mut new = data(22, 3500);
    let keep = old.len().min(new.len()) / 2;
    new[..keep].copy_from_slice(&old[..keep]);
    let policy = SandboxPolicy::for_pads();
    let decode = |module: Module, old: &[u8], payload: &[u8], what: String| {
        let subject = Subject::new(module, &policy, what);
        let (staged, args) = decode_call(&subject.analyzed.module, old, payload);
        let _ = subject.differential(&policy, &staged, "decode", &args);
    };

    for p in ProtocolId::ALL {
        let module = open_unchecked(&build_pad(p, &signer));
        let payload = native(p).encode(&old, &new);
        decode(module.clone(), &old, &payload, format!("{p} genuine"));
        // Garbage payloads exercise the error paths under audit too.
        decode(module, &old, &data(33, 700), format!("{p} garbage"));
    }

    // The DEFLATE extension PAD is the sixth shipped source.
    let module = open_unchecked(&build_deflate_pad(&signer));
    decode(module.clone(), &[], &Deflate.encode(&[], &new), "deflate genuine".into());
    decode(module, &[], &data(44, 700), "deflate garbage".into());
}

/// Budgets at which a run of `full` fuel is cut short: around every run
/// length (2, 3 and 4, each ± 1), spread through the run at offsets that
/// walk across the slots, one unit short of finishing, and exactly enough.
fn sampled_budgets(full: u64) -> Vec<u64> {
    let mut budgets: Vec<u64> = (0..=5).collect();
    budgets.extend((1..=12).map(|k| full * k / 13 + k));
    budgets.extend([full.saturating_sub(1), full]);
    budgets.retain(|&b| b <= full);
    budgets
}

#[test]
fn shipped_pads_agree_at_sampled_fuel_budgets() {
    let signer = SignerRegistry::new().provision("differential-fuel");
    let old = data(11, 3000);
    let mut new = data(22, 3500);
    new[..1500].copy_from_slice(&old[..1500]);

    // (PAD, what the client holds, what the server sent): the five protocol
    // PADs plus the DEFLATE extension PAD, six sources in all.
    let mut subjects = Vec::new();
    for p in ProtocolId::ALL {
        let module = open_unchecked(&build_pad(p, &signer));
        subjects.push((module, p.to_string(), old.clone(), native(p).encode(&old, &new).to_vec()));
    }
    let module = open_unchecked(&build_deflate_pad(&signer));
    subjects.push((module, "deflate".into(), Vec::new(), Deflate.encode(&[], &new).to_vec()));

    for (module, name, old, payload) in subjects {
        let subject = Subject::new(module, &SandboxPolicy::for_pads(), name);
        let (staged, args) = decode_call(&subject.analyzed.module, &old, &payload);
        let run = |fuel: u64| {
            let policy = SandboxPolicy::for_pads().with_fuel(fuel);
            subject.differential(&policy, &staged, "decode", &args).1
        };
        let full = run(SandboxPolicy::for_pads().max_fuel);
        for fuel in sampled_budgets(full) {
            assert!(run(fuel) <= fuel, "{}: spent more than the budget", subject.what);
        }
    }
}

#[test]
fn shipped_upstream_builders_audit_clean() {
    let signer = SignerRegistry::new().provision("differential-upstream");
    let old = data(55, 4000);
    let policy = SandboxPolicy::for_pads();

    for (p, entry) in [(ProtocolId::Bitmap, "digests"), (ProtocolId::FixedBlock, "signatures")] {
        let module = open_unchecked(&build_pad(p, &signer));
        let subject = Subject::new(module, &policy, format!("{p} {entry}"));
        // `PadRuntime::upstream`'s staging: old at 64, the output region
        // after it; 64-byte blocks.
        let out_base = (64 + old.len() + 7) & !7;
        let out_cap = subject.analyzed.module.memory_bytes() - out_base;
        let args = [64, old.len(), 64, out_base, out_cap].map(|v| v as i64);
        let _ = subject.differential(&policy, &[(64, &old)], entry, &args);
    }
}

// ---------------------------------------------------------------------------
// Recycled ≡ fresh: an instance checked out of an admitted module's pool is
// the instance a first checkout makes, whatever its previous tenant did.
// ---------------------------------------------------------------------------

/// Everything a run leaves observable.
#[derive(PartialEq, Debug)]
struct Observed {
    result: Result<i64, Trap>,
    fuel_used: u64,
    fuel_left: u64,
    memory: Vec<u8>,
    log: Vec<u8>,
}

fn whole_memory(machine: &Machine) -> &[u8] {
    machine.read_memory(0, machine.memory_len()).unwrap()
}

fn observe(machine: &mut Machine, entry: &str, args: &[i64]) -> Observed {
    let result = machine.call(entry, args);
    Observed {
        result,
        fuel_used: machine.fuel_used(),
        fuel_left: machine.fuel_remaining(),
        memory: whole_memory(machine).to_vec(),
        log: machine.log_bytes().to_vec(),
    }
}

/// One admission whose instances are used, dropped and checked out again,
/// and what a never-used instance of its module holds. Tests that need an
/// oracle build a second `Recycling` from the same source: two admissions
/// share no pool.
struct Recycling {
    pooled: Arc<AnalyzedModule>,
    /// What a never-used instance holds: zeroes and the data segments.
    image: Vec<u8>,
    what: String,
}

impl Recycling {
    fn new(src: &str, policy: &SandboxPolicy) -> Recycling {
        let module = assemble(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let pooled = Arc::new(module.clone().analyzed(policy).unwrap());
        let image = Oracle::new(&module, policy.clone()).unwrap().memory().to_vec();
        Recycling { pooled, image, what: src.to_string() }
    }

    /// Checks an instance out and holds it to the never-used image.
    fn checkout(&self, recycled: bool) -> Machine {
        let machine = Machine::new_analyzed(Arc::clone(&self.pooled)).unwrap();
        assert_eq!(machine.is_recycled(), recycled, "{}", self.what);
        assert!(whole_memory(&machine) == self.image, "a checkout is not pristine\n{}", self.what);
        assert_eq!((machine.fuel_used(), machine.log_bytes()), (0, &[][..]), "{}", self.what);
        machine
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A tenant stages bytes, runs `main(first)` under a budget that cuts it
    /// off at every possible unit (so it ends in a result, a trap inside a
    /// bulk op or a division, or starvation anywhere), and is dropped. The
    /// next tenant's `main(second)` must be, to the byte and the fuel unit,
    /// the run a machine over a never-used instance makes.
    #[test]
    fn a_recycled_instance_runs_as_a_never_used_one(
        seed in any::<u64>(),
        raw in (any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>()),
    ) {
        let mut rng = Rng::new(seed ^ 0x5DEECE66D);
        let mut pick = |raw: i64| {
            if rng.below(3) == 0 { CONSTS[rng.below(CONSTS.len() as u64) as usize] } else { raw }
        };
        let (first, second) = ([pick(raw.0), pick(raw.1)], [pick(raw.2), pick(raw.3)]);
        let src = gen_roomy_module(seed);
        let subject = Recycling::new(&src, &SandboxPolicy::default());
        let junk = data(seed, 700);

        // The oracle never shares a pool with the subject.
        let oracle = Recycling::new(&src, &SandboxPolicy::default());
        let expected = observe(&mut oracle.checkout(false), "main", &second);
        let full = {
            let mut tenant = oracle.checkout(true);
            tenant.write_memory(40_000, &junk).unwrap();
            let _ = tenant.call("main", &first);
            tenant.fuel_used()
        };

        for budget in 0..=full {
            let mut tenant = subject.checkout(budget > 0);
            tenant.write_memory(40_000, &junk).unwrap();
            tenant.limit_fuel(budget);
            let _ = tenant.call("main", &first);
            drop(tenant);
            let mut next = subject.checkout(true);
            prop_assert!(observe(&mut next, "main", &second) == expected, "budget {}\n{}", budget, src);
        }
    }
}

/// The ends the generator reaches only by chance, by name: stores and a
/// result, a bulk copy that traps after earlier stores landed, the `sha1`
/// host write, the log, `lzcopy`'s overlapping writes, and an embedder that
/// only ever calls `write_memory`.
#[test]
fn every_way_a_tenant_can_end_leaves_a_pristine_instance() {
    let src = r#"
        .memory 4
        .data 16 str:"segment"
        .func stores args=1 locals=0
            push 70000
            local.get 0
            store64
            push 131071
            push 0xEE
            store8
            push 70000
            load64
            ret
        .func copy_out_of_bounds args=0 locals=0
            push 9000
            push 0x55
            push 300
            memfill
            push 262000
            push 9000
            push 300
            memcopy
            push 1
            ret
        .func digest args=0 locals=0
            push 16
            push 7
            push 50000
            host sha1
            drop
            push 16
            push 7
            host log
            drop
            push 50000
            load8
            ret
        .func repeat args=0 locals=0
            push 100000
            push 0xAB
            store8
            push 100001
            push 100000
            push 5000
            lzcopy
            push 104999
            load8
            ret
    "#;
    let subject = Recycling::new(src, &SandboxPolicy::default());
    let ends: [(&str, &[i64]); 4] =
        [("stores", &[-2]), ("copy_out_of_bounds", &[]), ("digest", &[]), ("repeat", &[])];
    let mut recycled = false;
    for (entry, args) in ends {
        // What the entry does on a first instance…
        let oracle = Recycling::new(src, &SandboxPolicy::default());
        let expected = observe(&mut oracle.checkout(false), entry, args);
        assert!(expected.memory != subject.image, "{entry} wrote nothing");
        // …it does on one every earlier entry has run on and been dropped from.
        let mut tenant = subject.checkout(recycled);
        assert_eq!(observe(&mut tenant, entry, args), expected, "{entry}");
        recycled = true;
    }
    assert!(matches!(
        observe(&mut subject.checkout(true), "copy_out_of_bounds", &[]).result,
        Err(Trap::OutOfBounds { .. })
    ));
    // An embedder that writes and never calls.
    let mut tenant = subject.checkout(true);
    tenant.write_memory(131_072 - 3, b"end").unwrap();
    tenant.write_memory(0, b"start").unwrap();
    drop(tenant);
    subject.checkout(true);
}

#[test]
fn an_instance_returned_on_another_thread_is_checked_out_pristine_on_this_one() {
    let subject = Recycling::new(&gen_roomy_module(7), &SandboxPolicy::default());
    let mut tenant = subject.checkout(false);
    let junk = data(9, 4000);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            tenant.write_memory(1000, &junk).unwrap();
            let _ = tenant.call("main", &[3, -1]);
            // Dropped here: the pool is the module's, not the thread's.
        });
    });
    subject.checkout(true);
}

/// `dirty(n)` fills the first `n` bytes of a 64 KiB memory.
const DIRTIER: &str = r#"
    .memory 1
    .func dirty args=1 locals=0
        push 0
        push 0xAA
        local.get 0
        memfill
        push 0
        ret
"#;

fn dirtied(subject: &Recycling, len: i64, recycled: bool) -> Machine {
    let mut tenant = subject.checkout(recycled);
    assert_eq!(tenant.call("dirty", &[len]), Ok(0));
    tenant
}

#[test]
fn an_instance_that_dirtied_most_of_its_memory_is_freed_not_scrubbed() {
    // The default policy grants 16 MiB: the pool's budget is nowhere near.
    let subject = Recycling::new(DIRTIER, &SandboxPolicy::default());
    drop(dirtied(&subject, 65536, false));
    drop(dirtied(&subject, 32769, false));
    // Half the memory is the most a kept instance may have to be wiped of.
    drop(dirtied(&subject, 32768, false));
    subject.checkout(true);
}

#[test]
fn the_pool_retains_less_than_the_policy_grants_an_instance() {
    // A policy sized to the module: 64 KiB.
    let subject = Recycling::new(DIRTIER, &SandboxPolicy::default().with_memory(65536));
    // Three live at once, 30 000 bytes each: the first two returned fit
    // under 64 KiB, the third does not.
    let live = [
        dirtied(&subject, 30_000, false),
        dirtied(&subject, 30_000, false),
        dirtied(&subject, 30_000, false),
    ];
    drop(live);
    let again = [subject.checkout(true), subject.checkout(true), subject.checkout(false)];
    drop(again);
    // Returned clean, all three fit.
    let again = [subject.checkout(true), subject.checkout(true), subject.checkout(true)];
    drop(again);
}

#[test]
fn an_evicted_admission_frees_its_pool_with_it() {
    use fractal_vm::AdmissionCache;
    let constant = |k: usize| {
        assemble(&format!(".memory 1\n.func main args=0 locals=0\n push {k}\n ret\n")).unwrap()
    };
    let cache = AdmissionCache::new();
    let policy = SandboxPolicy::default();
    let admit = |k: usize| {
        let module = constant(k);
        cache
            .get_or_admit(&module.digest(), &policy, || module.clone().analyzed(&policy))
            .unwrap()
            .0
    };
    let admitted = admit(0);
    let watch = Arc::downgrade(&admitted);
    // Fill its pool: two instances used and returned.
    let pair = [Machine::new_analyzed(Arc::clone(&admitted)), Machine::new_analyzed(admitted)];
    drop(pair);
    assert!(Machine::new_analyzed(watch.upgrade().expect("the cache holds it"))
        .unwrap()
        .is_recycled());
    // Push it out of the cache. Nothing else holds the admission, so it —
    // and the pool inside it — is gone: no sweep, no second owner.
    for k in 1..=cache.capacity() {
        admit(k);
    }
    assert!(watch.upgrade().is_none(), "an evicted admission outlived its last machine");
}
