//! Row-major records: the native exchange unit of the executor.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A single record: an immutable, shared list of [`Value`]s matching some
/// schema.
///
/// Rows are built once, in a single allocation, and never mutated.
/// Cloning one bumps a reference count and copies no values, so moving a
/// row along an executor edge, through a shuffle or into a sort input is
/// a pointer move. Operators allocate only the rows they create
/// (projections, join concatenations, aggregate outputs).
///
/// # Examples
///
/// ```
/// use pspp_common::{Row, Value};
/// let r = Row::from(vec![Value::Int(7), Value::from("x")]);
/// assert_eq!(r[0], Value::Int(7));
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value at `idx`, if in bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// A new row keeping only the columns at `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn project(&self, indices: &[usize]) -> Row {
        indices.iter().map(|&i| self.0[i].clone()).collect()
    }

    /// Concatenates two rows (join output).
    pub fn concat(&self, right: &Row) -> Row {
        self.iter().chain(right.iter()).cloned().collect()
    }

    /// Total payload bytes (sum of [`Value::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.0.iter().map(Value::byte_size).sum()
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

/// Copies the values into a fresh shared allocation; hot paths build rows
/// with [`FromIterator`] or from an array instead.
impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values.into())
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(values: [Value; N]) -> Self {
        Row(Arc::new(values))
    }
}

/// Builds the row in one allocation when the standard library knows the
/// iterator's exact length up front (maps over slices, chains, `cloned`);
/// other iterators are buffered first.
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl Index<usize> for Row {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

/// Convenience macro for building a [`Row`] from heterogeneous literals.
///
/// ```
/// use pspp_common::{row, Row, Value};
/// let r: Row = row![1i64, "abc", 2.5];
/// assert_eq!(r.len(), 3);
/// assert_eq!(r[1], Value::from("abc"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let r = row![1i64, "a", 2.0];
        assert_eq!(r.project(&[2, 0]), row![2.0, 1i64]);
        let s = r.concat(&row![true]);
        assert_eq!(s.len(), 4);
        assert_eq!(s[3], Value::Bool(true));
    }

    #[test]
    fn macro_in_function_scope() {
        let r = row![42i64];
        assert_eq!(r[0].as_i64(), Some(42));
    }

    #[test]
    fn byte_size_sums_values() {
        assert_eq!(row![1i64, "abc"].byte_size(), 8 + 3);
    }

    #[test]
    fn iteration() {
        let r = row![1i64, 2i64];
        let total: i64 = r.iter().filter_map(Value::as_i64).sum();
        assert_eq!(total, 3);
        let refs: Vec<&Value> = (&r).into_iter().collect();
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn clone_shares_storage() {
        let r = row![1i64, "shared", 2.5];
        let c = r.clone();
        assert_eq!(c.values().as_ptr(), r.values().as_ptr());
        assert_eq!(c, r);
    }

    #[test]
    fn debug_and_hash_match_a_plain_value_list() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let values = vec![Value::Int(3), Value::from("x"), Value::Null];
        let r = Row::from(values.clone());
        assert_eq!(format!("{r:?}"), format!("Row({values:?})"));
        let digest = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        assert_eq!(digest(&|s| r.hash(s)), digest(&|s| values.hash(s)));
    }
}
