//! The claims auditor: what the admission analyzer proved, checked against
//! what the oracle observes.
//!
//! It reads the [`ModuleAnalysis`] a module was admitted with, as the
//! analyzer left it — the set of intrinsics each function calls
//! (`own_hosts`) and the least fuel a successful call of it can use
//! (`min_fuel`). Before each host call it compares the intrinsic with the
//! function's set; after a call that completes, the fuel it used with the
//! claimed minimum. A mismatch is an [`AuditViolation`]: a bug in the
//! analysis, never in the module. It never changes how the oracle runs.

use fractal_vm::{ModuleAnalysis, Op};

/// Violations kept per oracle: the first few diagnose an unsound pass, and
/// a looping module must not grow the report without bound.
const MAX_VIOLATIONS: usize = 64;

/// A claim the analyzer made that observed execution contradicted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditViolation {
    /// A call that completed used less fuel than the claimed lower bound.
    FuelBelowClaim {
        /// Entry function index.
        func: usize,
        /// The analyzer's claimed minimum.
        claimed: u64,
        /// Fuel the call actually consumed.
        observed: u64,
    },
    /// An entry claimed never to complete (`min_fuel = u64::MAX`) did.
    InfeasibleEntryCompleted {
        /// Entry function index.
        func: usize,
    },
    /// A host intrinsic outside its function's claimed set executed.
    UnclaimedHostCall {
        /// Function index.
        func: usize,
        /// Byte offset of the host call.
        at: usize,
        /// The intrinsic id observed.
        id: u8,
    },
}

/// The auditor's state inside an [`Oracle`](crate::Oracle).
pub(crate) struct Auditor<'a> {
    analysis: &'a ModuleAnalysis,
    pub(crate) violations: Vec<AuditViolation>,
}

impl<'a> Auditor<'a> {
    pub(crate) fn new(analysis: &'a ModuleAnalysis) -> Auditor<'a> {
        Auditor { analysis, violations: Vec::new() }
    }

    fn record(&mut self, violation: AuditViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        }
    }

    /// Checks the claims about `op`, at byte offset `at` of function `func`,
    /// before `op` runs.
    pub(crate) fn before(&mut self, func: usize, at: usize, op: &Op) {
        let Some(f) = self.analysis.functions.get(func) else { return };
        if let Op::HostCall(id) = *op {
            if id >= 8 || f.own_hosts & (1 << id) == 0 {
                self.record(AuditViolation::UnclaimedHostCall { func, at, id });
            }
        }
    }

    /// Checks the fuel claim of entry `func`, whose call completed after
    /// using `observed` fuel. (A trap may end a run short of any minimum.)
    pub(crate) fn completed(&mut self, func: usize, observed: u64) {
        let Some(f) = self.analysis.functions.get(func) else { return };
        match f.min_fuel {
            u64::MAX => self.record(AuditViolation::InfeasibleEntryCompleted { func }),
            claimed if observed < claimed => {
                self.record(AuditViolation::FuelBelowClaim { func, claimed, observed })
            }
            _ => {}
        }
    }
}
