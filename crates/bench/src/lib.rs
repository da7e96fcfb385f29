//! # dc-bench — the experiment harness
//!
//! One binary per table/figure of the paper (the same index is in the
//! README's "Experiments" section):
//!
//! | binary         | reproduces                      |
//! |----------------|---------------------------------|
//! | `exp_rdma`     | Figure 1                        |
//! | `exp_plans`    | Tables 1 and 2                  |
//! | `exp_loit`     | Figures 6a, 6b, 7a, 7b          |
//! | `exp_skewed`   | Figures 8a, 8b                  |
//! | `exp_gaussian` | Figures 9a, 9b                  |
//! | `exp_tpch`     | Table 4                         |
//! | `exp_scaling`  | Figures 10 and 11               |
//! | `exp_ablation` | design-choice ablations         |
//! | `exp_baselines`| §7 related-work baselines       |
//!
//! Each prints human-readable tables/plots to stdout and writes CSV
//! series to `target/experiments/`. The environment variable `DC_SCALE`
//! (default `1.0` = full paper scale) shrinks the workload volume for
//! quick runs, e.g. `DC_SCALE=0.1 cargo run --release -p dc-bench --bin
//! exp_loit`.
//!
//! The Criterion micro-benches (`benches/micro.rs`, `benches/kernel.rs`,
//! `benches/baselines.rs`) cover the hot protocol and kernel paths —
//! including the paper's "below one µsec per instruction" interpreter
//! claim — and the §7 baseline machinery.

/// Workload scale factor from `DC_SCALE` (clamped to `(0, 1]`).
pub fn scale() -> f64 {
    std::env::var("DC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|v| v.clamp(0.01, 1.0))
        .unwrap_or(1.0)
}

/// Banner printed by every harness binary.
pub fn banner(what: &str, paper_ref: &str) {
    println!("═══════════════════════════════════════════════════════════════");
    println!("Data Cyclotron reproduction — {what}");
    println!("Paper artifact: {paper_ref}  (EDBT 2010)");
    let s = scale();
    if s < 1.0 {
        println!("Workload scale: {s} (set DC_SCALE=1.0 for full paper scale)");
    } else {
        println!("Workload scale: full paper scale");
    }
    println!("═══════════════════════════════════════════════════════════════");
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_parses_env() {
        // Cannot mutate env safely in parallel tests; just check default.
        let s = super::scale();
        assert!(s > 0.0 && s <= 1.0);
    }
}
