//! The lints, run on demand over admission's proof.
//!
//! Admission computes none of them, so nothing in a deployment would notice
//! them stop working; these tests are what does. The shipped PADs come out
//! lint-free, and small modules show each lint fire.

use fractal_vm::{assemble, SandboxPolicy};
use fractal_vm_oracle::lint::{collect_lints, Lint, Severity};

const SHIPPED: [(&str, &str); 6] = [
    ("direct", include_str!("../../pads/fasm/direct.fasm")),
    ("gzip", include_str!("../../pads/fasm/gzip.fasm")),
    ("bitmap", include_str!("../../pads/fasm/bitmap.fasm")),
    ("recipe", include_str!("../../pads/fasm/recipe.fasm")),
    ("deflate", include_str!("../../pads/fasm/deflate.fasm")),
    ("signatures", include_str!("../../pads/fasm/signatures.fasm")),
];

/// Every function's lints in `src`, admitted under `policy`.
fn all_lints(src: &str, policy: &SandboxPolicy) -> Vec<Lint> {
    let admitted = assemble(src).unwrap().analyzed(policy).unwrap();
    let functions = admitted.analysis.functions.iter().enumerate();
    functions.flat_map(|(idx, fa)| collect_lints(idx, fa)).collect()
}

/// The lints in `src`, admitted under the default policy.
fn lints(src: &str) -> Vec<Lint> {
    all_lints(src, &SandboxPolicy::default())
}

/// No lint fires on the six shipped PADs, which is what `fasmlint` gates
/// their sources on.
#[test]
fn shipped_pads_are_lint_free() {
    for (name, src) in SHIPPED {
        assert_eq!(all_lints(src, &SandboxPolicy::for_pads()), vec![], "{name}");
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
