//! CapeCod patterns (Definition 2): one speed profile per day category.

use crate::{DayCategory, Result, SpeedProfile, TrafficError};

/// A CapeCod pattern: a daily speed profile for every day category
/// (Definition 2).
///
/// Profiles are indexed by [`DayCategory`] position; a pattern built
/// for the default two-category set holds `[workday, non-workday]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CapeCodPattern {
    profiles: Vec<SpeedProfile>,
}

impl CapeCodPattern {
    /// Build from one profile per category, in category order.
    pub fn new(profiles: Vec<SpeedProfile>) -> Result<Self> {
        if profiles.is_empty() {
            return Err(TrafficError::BadPieces(
                "pattern needs at least one profile".into(),
            ));
        }
        Ok(CapeCodPattern { profiles })
    }

    /// A pattern with the same constant speed in every category
    /// (`speed` in miles per minute) — the "commercial navigation
    /// system" assumption the paper contrasts against.
    pub fn uniform(speed: f64, categories: usize) -> Result<Self> {
        let p = SpeedProfile::constant(speed)?;
        Self::new(vec![p; categories.max(1)])
    }

    /// The paper's §2.1 example: non-workday constant 1 mpm; workday
    /// 1 mpm with a \[7:00, 9:00) rush window at 1/2 mpm.
    // Constant arguments: a rush window inside the day at positive
    // speeds, a positive constant speed, and a non-empty profile list.
    #[allow(clippy::expect_used)]
    pub fn paper_example() -> Self {
        let workday =
            SpeedProfile::with_rush_window(1.0, 0.5, pwl::time::hm(7, 0), pwl::time::hm(9, 0))
                .expect("valid window");
        let nonworkday = SpeedProfile::constant(1.0).expect("valid speed");
        CapeCodPattern::new(vec![workday, nonworkday]).expect("two profiles")
    }

    /// Profile for `category`.
    pub fn profile(&self, category: DayCategory) -> Result<&SpeedProfile> {
        self.profiles
            .get(usize::from(category.0))
            .ok_or(TrafficError::UnknownCategory(category))
    }

    /// Number of categories covered.
    pub fn n_categories(&self) -> usize {
        self.profiles.len()
    }

    /// The pattern with every profile time-mirrored (see
    /// [`SpeedProfile::time_mirrored`]); powers the arrival-interval
    /// query reduction.
    pub fn time_mirrored(&self) -> CapeCodPattern {
        CapeCodPattern {
            profiles: self
                .profiles
                .iter()
                .map(SpeedProfile::time_mirrored)
                .collect(),
        }
    }

    /// Maximum speed across all categories (used by the naive
    /// lower-bound estimator's `v_max`).
    pub fn max_speed(&self) -> f64 {
        self.profiles
            .iter()
            .map(SpeedProfile::max_speed)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum speed across all categories.
    pub fn min_speed(&self) -> f64 {
        self.profiles
            .iter()
            .map(SpeedProfile::min_speed)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::time::hm;

    #[test]
    fn paper_example_pattern() {
        let p = CapeCodPattern::paper_example();
        assert_eq!(p.n_categories(), 2);
        let wd = p.profile(DayCategory::WORKDAY).unwrap();
        assert_eq!(wd.speed_at(hm(8, 0)), 0.5);
        let nwd = p.profile(DayCategory::NON_WORKDAY).unwrap();
        assert_eq!(nwd.speed_at(hm(8, 0)), 1.0);
        assert_eq!(p.max_speed(), 1.0);
        assert_eq!(p.min_speed(), 0.5);
        assert!(matches!(
            p.profile(DayCategory(7)),
            Err(TrafficError::UnknownCategory(DayCategory(7)))
        ));
    }

    #[test]
    fn uniform_pattern() {
        let p = CapeCodPattern::uniform(0.75, 2).unwrap();
        assert_eq!(p.n_categories(), 2);
        assert_eq!(
            p.profile(DayCategory::WORKDAY).unwrap().speed_at(hm(8, 0)),
            0.75
        );
        assert_eq!(p.max_speed(), 0.75);
        assert!(CapeCodPattern::uniform(0.0, 2).is_err());
    }

    #[test]
    fn time_mirrored_pattern_mirrors_every_profile() {
        let p = CapeCodPattern::paper_example();
        let m = p.time_mirrored();
        assert_eq!(m.n_categories(), 2);
        // workday rush [7:00, 9:00) shows up at (15:00, 17:00] mirrored
        let wd = m.profile(DayCategory::WORKDAY).unwrap();
        assert_eq!(wd.speed_at(hm(16, 0)), 0.5);
        assert_eq!(wd.speed_at(hm(8, 0)), 1.0);
        // non-workday constant is a fixed point
        let nwd = m.profile(DayCategory::NON_WORKDAY).unwrap();
        assert_eq!(nwd.pieces().len(), 1);
        // involution
        assert_eq!(m.time_mirrored(), p);
        // extremes preserved
        assert_eq!(m.max_speed(), p.max_speed());
        assert_eq!(m.min_speed(), p.min_speed());
    }

    #[test]
    fn empty_pattern_rejected() {
        assert!(CapeCodPattern::new(vec![]).is_err());
    }
}
