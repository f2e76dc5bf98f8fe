//! The claims auditor: silent on what the analyzer proved, and seen to fire
//! on each kind of claim once that claim is made false.

use fractal_vm::{analyze_module, assemble, HostId, Module, ModuleAnalysis, Op};
use fractal_vm::{SandboxPolicy, Trap};
use fractal_vm_oracle::{AuditViolation, Oracle};

/// `div(a, b)` divides; `log()` logs the four bytes of its data segment.
const SRC: &str = r#"
    .memory 1
    .data 0 str:"fire"
    .func div args=2 locals=0
        local.get 0
        local.get 1
        divu
        ret
    .func log args=0 locals=0
        push 0
        push 4
        host log
        ret
"#;

/// Runs `entry(args)` on an oracle auditing `analysis`; returns the outcome
/// and every violation.
fn audit(
    module: &Module,
    analysis: &ModuleAnalysis,
    entry: &str,
    args: &[i64],
) -> (Result<i64, Trap>, Vec<AuditViolation>) {
    let mut oracle = Oracle::new(module, SandboxPolicy::default()).unwrap().audited(analysis);
    let outcome = oracle.call(entry, args);
    (outcome, oracle.violations().to_vec())
}

#[test]
fn each_kind_of_false_claim_is_reported_exactly() {
    let module = assemble(SRC).unwrap();
    let clean = analyze_module(&module, &SandboxPolicy::default()).unwrap();

    // What the analyzer proved holds.
    assert_eq!(audit(&module, &clean, "div", &[6, 2]), (Ok(3), vec![]));
    assert_eq!(audit(&module, &clean, "div", &[6, 0]), (Err(Trap::DivideByZero), vec![]));
    assert_eq!(audit(&module, &clean, "log", &[]), (Ok(0), vec![]));

    // A minimum above what a call uses: `div` is four ops.
    let mut costly = clean.clone();
    costly.functions[0].min_fuel = 5;
    let violation = AuditViolation::FuelBelowClaim { func: 0, claimed: 5, observed: 4 };
    assert_eq!(audit(&module, &costly, "div", &[6, 2]), (Ok(3), vec![violation]));

    // An entry claimed never to complete that completes.
    let mut infeasible = clean.clone();
    infeasible.functions[0].min_fuel = u64::MAX;
    let violation = AuditViolation::InfeasibleEntryCompleted { func: 0 };
    assert_eq!(audit(&module, &infeasible, "div", &[6, 2]), (Ok(3), vec![violation]));

    // A reachable intrinsic left out of its function's set.
    let mut hostless = clean.clone();
    hostless.functions[1].own_hosts &= !(1 << HostId::Log.id());
    let host_at = clean.functions[1].insns.iter().find(|i| matches!(i.op, Op::HostCall(_)));
    let at = host_at.expect("log calls a host").at;
    let violation = AuditViolation::UnclaimedHostCall { func: 1, at, id: HostId::Log.id() };
    assert_eq!(audit(&module, &hostless, "log", &[]), (Ok(0), vec![violation]));
}

/// The call-graph fuel fixpoint must hit its round cap gracefully:
/// terminate, and claim only *sound* (under-approximate) lower bounds —
/// never panic, spin, or overclaim.
#[test]
fn fuel_fixpoint_cap_is_graceful_and_sound() {
    // Case 1: guaranteed cap-hit. Self-recursion with no base case makes
    // the bound grow every round, so only the round cap stops the fixpoint.
    // The capped value is a legitimate lower bound (the entry can never
    // complete, so any claim is sound), and a run traps without audit
    // violations.
    let src = r#"
        .memory 1
        .func spin args=0 locals=0
            call spin
            ret
    "#;
    let m = assemble(src).unwrap();
    let policy = SandboxPolicy::default();
    let a = m.clone().analyzed(&policy).unwrap().analysis;
    let claimed = a.functions[0].min_fuel;
    assert!(claimed > 1, "cap should still have grown the bound: {claimed}");
    let mut oracle = Oracle::new(&m, policy.clone()).unwrap().audited(&a);
    assert!(oracle.call("spin", &[]).is_err(), "unbounded recursion must trap");
    assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());

    // Case 2: a 20-function mutually recursive ring where only f0 has a
    // base case. Full convergence for f1 needs the base-case cost to
    // propagate through every hop of the cycle — more rounds than the cap
    // in at least one sweep order. Whatever the cap leaves must
    // under-approximate the true minimum (5 fuel per hop × 19 hops + 5 for
    // f0's base path = 100) and hold at run time.
    const N: usize = 20;
    let mut src = String::from(".memory 1\n");
    src.push_str(
        ".func f0 args=1 locals=0\n    local.get 0\n    eqz\n    jmpif base\n    \
         local.get 0\n    push 1\n    sub\n    call f1\n    ret\nbase:\n    push 77\n    \
         ret\n",
    );
    for i in 1..N {
        let next = (i + 1) % N;
        src.push_str(&format!(
            ".func f{i} args=1 locals=0\n    local.get 0\n    push 1\n    sub\n    \
             call f{next}\n    ret\n"
        ));
    }
    let m = assemble(&src).unwrap();
    let a = m.clone().analyzed(&policy).unwrap().analysis;
    let claimed = a.functions[1].min_fuel;
    assert!(claimed > 1, "ring bound should exceed the floor: {claimed}");
    assert!(claimed <= 100, "ring bound overclaims the true minimum: {claimed}");
    // Run f1 all the way around the ring; the auditor cross-checks the
    // observed fuel against the claim.
    let mut oracle = Oracle::new(&m, policy).unwrap().audited(&a);
    assert_eq!(oracle.call("f1", &[19]), Ok(77));
    assert!(oracle.fuel_used() >= claimed, "{} < {claimed}", oracle.fuel_used());
    assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
}
