//! The level-of-interest metric (paper Eq. 1) and the adaptive LOIT
//! threshold ladder. This module is the single source of truth for the
//! LOI arithmetic *and* the paper's ladder parameters: every consumer
//! (the live engine config, the offline sims) takes the levels and
//! watermarks from here instead of repeating the §5.2 literals.

/// The experiment ladder of §5.2: LOIT levels {0.1, 0.6, 1.1}.
pub const DEFAULT_LEVELS: [f64; 3] = [0.1, 0.6, 1.1];

/// Queue-load fraction above which the ladder raises LOIT (§5.2: 80%).
pub const DEFAULT_HIGH_WATERMARK: f64 = 0.8;

/// Queue-load fraction below which the ladder lowers LOIT (§5.2: 40%).
pub const DEFAULT_LOW_WATERMARK: f64 = 0.4;

/// Equation 1 of the paper, as the owner computes it each cycle:
///
/// ```text
/// CAVG    = copies / hops
/// newLOI  = LOI / cycles + CAVG
/// ```
///
/// `cycles` is the value *after* the owner increments it for the
/// completed cycle. The division by `cycles` applies an age weight: old
/// BATs decay unless interest is renewed every pass. `hops == 0` (a BAT
/// coming straight back with no intermediate nodes — degenerate rings)
/// contributes zero interest.
pub fn new_loi(loi: f64, copies: u32, hops: u32, cycles: u32) -> f64 {
    let cavg = if hops == 0 { 0.0 } else { copies as f64 / hops as f64 };
    loi / cycles.max(1) as f64 + cavg
}

/// The per-node threshold ladder: LOIT is "stepwise increased until the
/// pending local BATs can start moving" (§4.4) and stepped back down when
/// the queue drains. The experiments use levels {0.1, 0.6, 1.1} with
/// watermarks 80% / 40% (§5.2).
#[derive(Clone, Debug)]
pub struct LoitLadder {
    levels: Vec<f64>,
    idx: usize,
}

impl LoitLadder {
    /// A ladder starting at its lowest level.
    pub fn new(levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty());
        LoitLadder { levels, idx: 0 }
    }

    pub fn fixed(level: f64) -> Self {
        LoitLadder::new(vec![level])
    }

    /// The current threshold.
    pub fn current(&self) -> f64 {
        self.levels[self.idx]
    }

    pub fn level_index(&self) -> usize {
        self.idx
    }

    /// One adaptation step from the observed queue-load fraction, at the
    /// §5.2 watermarks. Returns the direction taken, if any.
    pub fn adapt(&mut self, load_fraction: f64) -> Option<Direction> {
        if load_fraction > DEFAULT_HIGH_WATERMARK && self.idx + 1 < self.levels.len() {
            self.idx += 1;
            Some(Direction::Raised)
        } else if load_fraction < DEFAULT_LOW_WATERMARK && self.idx > 0 {
            self.idx -= 1;
            Some(Direction::Lowered)
        } else {
            None
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Raised,
    Lowered,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_paper_arithmetic() {
        // First cycle, all 9 downstream nodes used it: loi=0, copies=9,
        // hops=9 (ring of 10: nine hops back to owner), cycles=1.
        let l1 = new_loi(0.0, 9, 9, 1);
        assert!((l1 - 1.0).abs() < 1e-12);
        // Second cycle with no interest: decays to l1/2.
        let l2 = new_loi(l1, 0, 9, 2);
        assert!((l2 - 0.5).abs() < 1e-12);
        // Renewed interest keeps it high.
        let l2b = new_loi(l1, 9, 9, 2);
        assert!((l2b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn age_weight_decays_unrenewed_bats() {
        let mut loi = 1.0;
        for cycle in 2..=20 {
            loi = new_loi(loi, 0, 9, cycle);
        }
        assert!(loi < 0.01, "old unrenewed BAT must decay, loi={loi}");
    }

    #[test]
    fn steady_interest_converges_bounded() {
        let mut loi = 0.0;
        for cycle in 1..=100 {
            loi = new_loi(loi, 9, 9, cycle);
        }
        assert!(loi > 1.0 && loi < 1.2, "steady-state loi={loi}");
    }

    #[test]
    fn zero_hops_guard() {
        assert_eq!(new_loi(0.5, 3, 0, 1), 0.5);
    }

    #[test]
    fn partial_interest_cavg() {
        // 3 of 9 nodes used it.
        let l = new_loi(0.0, 3, 9, 1);
        assert!((l - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_adapts_with_hysteresis() {
        let mut lad = LoitLadder::new(DEFAULT_LEVELS.to_vec());
        assert_eq!(lad.current(), 0.1);
        assert_eq!(lad.adapt(0.85), Some(Direction::Raised));
        assert_eq!(lad.current(), 0.6);
        assert_eq!(lad.adapt(0.85), Some(Direction::Raised));
        assert_eq!(lad.current(), 1.1);
        // Already at top: no change.
        assert_eq!(lad.adapt(0.95), None);
        // Mid-band: no change.
        assert_eq!(lad.adapt(0.6), None);
        assert_eq!(lad.adapt(0.3), Some(Direction::Lowered));
        assert_eq!(lad.current(), 0.6);
    }

    #[test]
    fn fixed_ladder_never_moves() {
        let mut lad = LoitLadder::fixed(0.5);
        assert_eq!(lad.adapt(1.0), None);
        assert_eq!(lad.adapt(0.0), None);
        assert_eq!(lad.current(), 0.5);
    }
}
