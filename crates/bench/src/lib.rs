//! # han-bench — figure reproduction harnesses and benchmarks
//!
//! One binary per figure of the paper's evaluation (run with
//! `cargo run --release -p han-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2a` | Fig. 2(a): load vs. time, 350 min, high rate, both strategies |
//! | `fig2b` | Fig. 2(b): peak load vs. arrival rate |
//! | `fig2c` | Fig. 2(c): average load ± std-dev vs. arrival rate |
//! | `claims` | the in-text claims (peak ↓ up to 50 %, std ↓ up to 58 %, average unchanged) |
//! | `fig1_minicast` | Fig. 1: the 2-second MiniCast round timeline on the testbed |
//! | `ablation` | beyond-paper: scheduling-rule and CP-model ablations |

#![warn(unreachable_pub)]

pub mod harness;
