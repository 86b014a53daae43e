//! Experiment harness regenerating every table and figure of the SIGMOD
//! 2025 autotuning tutorial.
//!
//! Each experiment in [`all_experiments`] corresponds to one slide-level
//! claim (see `DESIGN.md`'s experiment index E1-E36) and produces a
//! [`Report`]: the table/series the tutorial shows, the paper's expected
//! shape, and a pass/fail check of that shape against our measurement.
//!
//! Run everything with:
//! ```text
//! cargo run -p autotune-bench --release --bin repro
//! ```
//! or a single experiment with `-- e15`.

pub mod experiments;
mod report;

pub use report::{Report, Row};

/// An experiment entry: CLI key plus the function that runs it.
pub type Experiment = (&'static str, fn() -> Report);

/// Returns every experiment in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e01", experiments::e01_tuning_wins::run as fn() -> Report),
        ("e02", experiments::e02_classic_search::run),
        ("e05", experiments::e05_gp_visuals::run),
        ("e06", experiments::e06_kernels::run),
        ("e07", experiments::e07_acquisitions::run),
        ("e08", experiments::e08_surrogates::run),
        ("e09", experiments::e09_discrete::run),
        ("e10", experiments::e10_parallel::run),
        ("e11", experiments::e11_moo::run),
        ("e12", experiments::e12_multitask::run),
        ("e13", experiments::e13_constraints::run),
        ("e14", experiments::e14_structured::run),
        ("e15", experiments::e15_llamatune::run),
        ("e16", experiments::e16_multifidelity::run),
        ("e17", experiments::e17_transfer::run),
        ("e18", experiments::e18_importance::run),
        ("e19", experiments::e19_early_abort::run),
        ("e20", experiments::e20_noise::run),
        ("e21", experiments::e21_rl::run),
        ("e22", experiments::e22_ga::run),
        ("e23", experiments::e23_context::run),
        ("e24", experiments::e24_safety::run),
        ("e25", experiments::e25_wid::run),
        ("e26", experiments::e26_synth::run),
        ("e27", experiments::e27_llm_priors::run),
        ("e28", experiments::e28_profile_guided::run),
        ("e29", experiments::e29_async::run),
        ("e30", experiments::e30_faults::run),
        ("e31", experiments::e31_overhead::run),
        ("e32", experiments::e32_hotpath::run),
        ("e33", experiments::e33_serve::run),
        ("e34", experiments::e34_chaos::run),
        ("e35", experiments::e35_cache::run),
        ("e36", experiments::e36_scale::run),
        ("ablations", experiments::ablations::run),
    ]
}
