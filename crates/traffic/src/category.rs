//! Day categories (Definition 1).

/// A day category: the index of a profile in each [`crate::CapeCodPattern`].
///
/// Every day belongs to exactly one category; two days in the same
/// category exhibit identical speed patterns on every road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DayCategory(pub u8);

impl DayCategory {
    /// The workday category of the default two-category set.
    pub const WORKDAY: DayCategory = DayCategory(0);
    /// The non-workday category of the default two-category set.
    pub const NON_WORKDAY: DayCategory = DayCategory(1);
}

impl std::fmt::Display for DayCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "category#{}", self.0)
    }
}
