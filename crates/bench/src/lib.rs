//! # fractal-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§4.4), each regenerating the corresponding result from the
//! simulated platform. Each module's `print` is the one printer of its
//! series and `--bin all <name> [n_pages]` runs it. Every figure is a
//! count or a simulated-time reading, so `--bin all` prints the same bytes
//! on every run; the wall-clock cost of the hot paths is `benchmark/`'s
//! per-layer rows, and `calibrate` is the one bin that reads a clock.
//!
//! | Paper artifact | Module | Run with |
//! |---|---|---|
//! | Table 1 | [`table1`] | `all table1` |
//! | Figure 9(a) | [`fig9a`] | `all fig9a` |
//! | Figure 9(b) | [`fig9b`] | `all fig9b` |
//! | Figure 10(a–d) | [`fig10`] | `all fig10` |
//! | Figure 11(a–c) | [`fig11`] | `all fig11` |
//! | headline −41%/−14% | [`headline`] | `all headline` |
//! | ratio-matrix ablation | [`ablate`] | `all ablate_ratio` |
//! | ρ sensitivity | [`ablate`] | `all ablate_rho` |
//! | entropy-stage ablation | [`ablate`] | `all ablate_entropy` |
//! | server-capacity extension | [`capacity`] | `all capacity` |
//! | native-regime calibration | — | `calibrate` |
//!
//! Run everything: `cargo run --release -p fractal-bench --bin all`.

#![forbid(unsafe_code)]

pub mod ablate;
pub mod bench_env;
pub mod capacity;
pub mod fig10;
pub mod fig11;
pub mod fig9a;
pub mod fig9b;
pub mod headline;
pub mod json;
pub mod report;
pub mod table1;
pub mod workbench;

/// Seed of the order-sensitive FNV-1a folds below.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one more value into an order-sensitive FNV accumulator.
pub fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}
