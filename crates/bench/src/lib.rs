//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§6), plus the ablations called out in
//! DESIGN.md.
//!
//! The library half holds the runners; the `experiments` binary is the
//! CLI around them. Beside the paper's artifacts sit the probes the
//! gate tests share ([`hotpath`], [`metro_huge`]);
//! `tests/alloc_gates.rs` and `tests/wall_floors.rs` gate the engine's
//! allocations and wall clock. The query service's overload and
//! live-update scenarios are `fp-allfp`'s chaos suites, not runners
//! here.
//!
//! | artifact | runner | binary subcommand |
//! |---|---|---|
//! | Table 1 (pattern schema) | [`table1::render`] | `table1` |
//! | Figure 9(a)/(b) (expanded nodes, naiveLB vs bdLB) | [`fig9::run`] | `fig9` |
//! | Figure 10(a)/(b) (discrete vs CapeCod ratios) | [`fig10::run`] | `fig10` |
//! | §6 constant-speed comparison (≈50% claim) | [`const_speed::run`] | `const-speed` |
//! | A-1 grid granularity | [`ablations::grid_sweep`] | `ablation-grid` |
//! | A-2 dominance pruning | [`ablations::pruning`] | `ablation-pruning` |
//! | A-3 CCAM placement / buffer pool | [`ablations::ccam_placement`] | `ablation-ccam` |
//! | hierarchy vs flat race | [`hotpath::measure_hierarchy`] | `hier-race` |
//! | million-node tier | [`metro_huge::run`] | `metro-huge` |
//! | sampling CPU profile of a benchmark workload | [`profile::run`] | `profile` |

pub mod ablations;
pub mod alloc;
pub mod clock;
pub mod const_speed;
pub mod fig10;
pub mod fig9;
pub mod hotpath;
pub mod metro_huge;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod table1;

pub use report::Table;
pub use scenario::{BackendKind, Scale, Scenario};
