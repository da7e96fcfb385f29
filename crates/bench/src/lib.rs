//! # dc-bench — the experiment harness
//!
//! One binary per figure or table of the paper's §5 evaluation, and one
//! for the §7 baselines. The same index is in the README's "Experiments"
//! section, and `tests/paper_scenarios.rs` checks that both name exactly
//! the binaries in `src/bin/`:
//!
//! | binary         | reproduces                      |
//! |----------------|---------------------------------|
//! | `exp_loit`     | Figures 6a, 6b, 7a, 7b          |
//! | `exp_skewed`   | Figures 8a, 8b                  |
//! | `exp_gaussian` | Figures 9a, 9b                  |
//! | `exp_tpch`     | Table 4                         |
//! | `exp_scaling`  | Figures 10 and 11               |
//! | `exp_baselines`| §7 related-work baselines       |
//!
//! Figure 1 has no binary. Tables 1 and 2 (the paper's MAL plan and its
//! Data Cyclotron rewrite) are checked as printed text by `mal`'s
//! optimizer test `reproduces_paper_table2_exactly`.
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

/// Workload scale factor from `DC_SCALE` (see [`parse_scale`]). A value
/// it refuses ends the process with a message: a figure at the wrong
/// scale is worse than none.
pub fn scale() -> f64 {
    let raw = std::env::var_os("DC_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// `DC_SCALE`'s value: unset is `1.0` (full paper scale); anything else
/// must be a finite number in `(0, 1]`.
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        // NaN fails both comparisons.
        Ok(v) if v > 0.0 && v <= 1.0 => Ok(v),
        _ => Err(format!("DC_SCALE must be a number in (0, 1], not {raw:?}")),
    }
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
    use super::parse_scale;

    #[test]
    fn scale_accepts_only_a_number_in_the_unit_interval() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        assert_eq!(parse_scale(Some("0.05")), Ok(0.05));
        assert_eq!(parse_scale(Some("0.001")), Ok(0.001));
        for bad in ["0,1", "", " 0.1", "nan", "NaN", "inf", "0", "-0.5", "1.5"] {
            assert!(parse_scale(Some(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
