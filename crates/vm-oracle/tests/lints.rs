//! The range pass and the lints, run on demand over admission's proof.
//!
//! Admission computes neither, so nothing in a deployment would notice them
//! stop working; these tests are what does. The shipped PADs pin the pass's
//! output exactly, and small modules show each lint fire.

use fractal_vm::{assemble, AnalyzedModule, SandboxPolicy};
use fractal_vm_oracle::lint::{Lint, Severity};
use fractal_vm_oracle::range::{flow_ranges, proven, FunctionFacts};

const SHIPPED: [(&str, &str); 6] = [
    ("direct", include_str!("../../pads/fasm/direct.fasm")),
    ("gzip", include_str!("../../pads/fasm/gzip.fasm")),
    ("bitmap", include_str!("../../pads/fasm/bitmap.fasm")),
    ("recipe", include_str!("../../pads/fasm/recipe.fasm")),
    ("deflate", include_str!("../../pads/fasm/deflate.fasm")),
    ("signatures", include_str!("../../pads/fasm/signatures.fasm")),
];

fn admit(src: &str, policy: &SandboxPolicy) -> (AnalyzedModule, Vec<FunctionFacts>) {
    let admitted = assemble(src).unwrap().analyzed(policy).unwrap();
    let facts = flow_ranges(&admitted.module, &admitted.analysis);
    (admitted, facts)
}

/// Function 0's lints in `src`, admitted under the default policy.
fn lints(src: &str) -> Vec<Lint> {
    admit(src, &SandboxPolicy::default()).1.swap_remove(0).lints
}

/// Across the six shipped PADs the pass proves exactly two facts, both
/// shift amounts in deflate, and no lint fires: a pass that stops running
/// (or starts proving something new) turns this red.
#[test]
fn shipped_pads_are_lint_free_and_prove_only_deflates_two_shifts() {
    let mut proven_sites = Vec::new();
    for (name, src) in SHIPPED {
        let (admitted, facts) = admit(src, &SandboxPolicy::for_pads());
        assert_eq!(facts.len(), admitted.module.functions.len(), "{name}");
        for (f, (ff, fa)) in facts.iter().zip(&admitted.analysis.functions).enumerate() {
            assert!(ff.lints.is_empty(), "{name}: {:?}", ff.lints);
            assert_eq!(ff.insns.len(), fa.insns.len(), "{name}: facts align with insns");
            for (insn, fact) in fa.insns.iter().zip(&ff.insns) {
                if fact.proven != 0 {
                    proven_sites.push((name, f, insn.op, fact.proven));
                }
            }
        }
    }
    assert_eq!(proven_sites.len(), 2, "{proven_sites:?}");
    for (name, _, op, fact) in proven_sites {
        assert_eq!((name, fact), ("deflate", proven::SHIFT_IN_RANGE));
        assert_eq!(op, fractal_vm::Op::ShrU);
    }
}

#[test]
fn a_balanced_loop_has_no_lints() {
    let src = ".func main args=1 locals=1\ntop:\n local.get 0\n jmpifz done\n local.get 0\n \
               push 1\n sub\n local.set 0\n jmp top\ndone:\n push 7\n ret\n";
    assert_eq!(lints(src), vec![]);
}

#[test]
fn dead_store_lint_fires() {
    let found = lints(".func f args=0 locals=1\n push 5\n local.set 0\n push 0\n ret\n");
    assert_eq!(found, vec![Lint::DeadStore { func: 0, at: 2, local: 0 }]);
    assert_eq!(found[0].severity(), Severity::Deny);
}

#[test]
fn unreachable_code_is_a_warning() {
    let src = ".func f args=0 locals=0\n push 0\n ret\n push 0\n push 1\n host log\n drop\n ret\n";
    let found = lints(src);
    assert_eq!(found, vec![Lint::UnreachableCode { func: 0, at: 3 }]);
    assert_eq!(found[0].severity(), Severity::Warn);
}

#[test]
fn an_inescapable_loop_never_returns() {
    let found = lints(".func spin args=0 locals=0\ntop:\n jmp top\n");
    assert_eq!(found, vec![Lint::NeverReturns { func: 0 }]);
    assert_eq!(found[0].severity(), Severity::Warn);
}

/// The range pass's certain-trap lints, each denied.
#[test]
fn certain_traps_are_denied() {
    let src = ".memory 1\n.func f args=1 locals=0\n local.get 0\n push 0\n divu\n \
               push 100000\n load8\n add\n local.get 0\n push 64\n shl\n add\n ret\n";
    let found = lints(src);
    let kinds: Vec<_> = found.iter().map(std::mem::discriminant).collect();
    let expected = [
        Lint::CertainDivideByZero { func: 0, at: 0 },
        Lint::CertainOutOfBounds { func: 0, at: 0 },
        Lint::ShiftAmountMasked { func: 0, at: 0 },
    ];
    assert_eq!(kinds, expected.iter().map(std::mem::discriminant).collect::<Vec<_>>());
    assert!(found.iter().all(|l| l.severity() == Severity::Deny), "{found:?}");
}
