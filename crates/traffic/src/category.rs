//! Day categories (Definition 1).

/// A day category — an index into a [`CategorySet`].
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

/// A named, ordered list of day categories (Definition 1).
///
/// The paper's experiments use `{workday, non-workday}`; the paper
/// notes accuracy can be improved by adding categories (e.g. splitting
/// Fridays out), which this type supports directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategorySet {
    names: Vec<String>,
}

impl CategorySet {
    /// Build from category names; at least one name is required.
    pub fn new<S: Into<String>>(names: Vec<S>) -> Option<Self> {
        if names.is_empty() || names.len() > usize::from(u8::MAX) {
            return None;
        }
        Some(CategorySet {
            names: names.into_iter().map(Into::into).collect(),
        })
    }

    /// The paper's default set: `workday`, `non-workday`.
    // Two names are within the one-to-255 that `new` accepts.
    #[allow(clippy::expect_used)]
    pub fn workday_nonworkday() -> Self {
        CategorySet::new(vec!["workday", "non-workday"]).expect("two names")
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of category `c`, if it exists.
    pub fn name(&self, c: DayCategory) -> Option<&str> {
        self.names.get(usize::from(c.0)).map(String::as_str)
    }

    /// Look up a category by name.
    pub fn by_name(&self, name: &str) -> Option<DayCategory> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| DayCategory(i as u8))
    }

    /// Iterate all categories in order.
    pub fn iter(&self) -> impl Iterator<Item = DayCategory> + '_ {
        (0..self.names.len()).map(|i| DayCategory(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set() {
        let s = CategorySet::workday_nonworkday();
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(DayCategory::WORKDAY), Some("workday"));
        assert_eq!(s.name(DayCategory::NON_WORKDAY), Some("non-workday"));
        assert_eq!(s.by_name("workday"), Some(DayCategory::WORKDAY));
        assert_eq!(s.by_name("friday"), None);
        assert_eq!(s.name(DayCategory(9)), None);
    }

    #[test]
    fn custom_set_with_friday() {
        let s = CategorySet::new(vec!["workday", "friday", "non-workday"]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.by_name("friday"), Some(DayCategory(1)));
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn empty_set_rejected() {
        assert!(CategorySet::new(Vec::<String>::new()).is_none());
    }
}
