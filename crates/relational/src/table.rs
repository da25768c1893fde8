//! Heap tables with secondary indexes.

use crate::error::SqlError;
use crate::types::Column;
use nimble_xml::{Atomic, AtomicKey};
use std::collections::{BTreeMap, HashMap};

/// Index structure choice: hash supports equality probes, B-tree also
/// supports ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKind {
    Hash,
    BTree,
}

#[derive(Debug, Clone)]
pub(crate) enum Index {
    Hash(HashMap<AtomicKey, Vec<usize>>),
    BTree(BTreeMap<AtomicKey, Vec<usize>>),
}

impl Index {
    fn new(kind: IndexKind) -> Index {
        match kind {
            IndexKind::Hash => Index::Hash(HashMap::new()),
            IndexKind::BTree => Index::BTree(BTreeMap::new()),
        }
    }

    fn insert(&mut self, key: Atomic, row: usize) {
        match self {
            Index::Hash(m) => m.entry(AtomicKey(key)).or_default().push(row),
            Index::BTree(m) => m.entry(AtomicKey(key)).or_default().push(row),
        }
    }

    pub(crate) fn kind(&self) -> IndexKind {
        match self {
            Index::Hash(_) => IndexKind::Hash,
            Index::BTree(_) => IndexKind::BTree,
        }
    }

    /// Row ids matching an equality probe, ascending.
    pub(crate) fn lookup_eq(&self, key: &Atomic) -> &[usize] {
        let k = AtomicKey(key.clone());
        let hit = match self {
            Index::Hash(m) => m.get(&k),
            Index::BTree(m) => m.get(&k),
        };
        hit.map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ids for a (closed/open) range; only B-tree supports this.
    pub(crate) fn lookup_range(
        &self,
        low: Option<(&Atomic, bool)>,
        high: Option<(&Atomic, bool)>,
    ) -> Option<Vec<usize>> {
        let m = match self {
            Index::BTree(m) => m,
            Index::Hash(_) => return None,
        };
        use std::ops::Bound;
        let lo = match low {
            None => Bound::Unbounded,
            Some((a, inclusive)) => {
                let k = AtomicKey(a.clone());
                if inclusive {
                    Bound::Included(k)
                } else {
                    Bound::Excluded(k)
                }
            }
        };
        let hi = match high {
            None => Bound::Unbounded,
            Some((a, inclusive)) => {
                let k = AtomicKey(a.clone());
                if inclusive {
                    Bound::Included(k)
                } else {
                    Bound::Excluded(k)
                }
            }
        };
        let mut out = Vec::new();
        for (_, rows) in m.range((lo, hi)) {
            out.extend_from_slice(rows);
        }
        Some(out)
    }
}

/// A heap table: column metadata, row storage, and per-column indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub(crate) rows: Vec<Vec<Atomic>>,
    /// Column name → (column position, index over it).
    pub(crate) indexes: HashMap<String, (usize, Index)>,
}

impl Table {
    pub fn new(name: &str, columns: Vec<Column>) -> Table {
        Table {
            name: name.to_string(),
            columns,
            rows: Vec::new(),
            indexes: HashMap::new(),
        }
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Borrow the raw rows (used by adapters that export the whole table).
    pub fn rows(&self) -> &[Vec<Atomic>] {
        &self.rows
    }

    /// Insert a row, coercing values to column types and maintaining all
    /// indexes.
    pub fn insert(&mut self, values: Vec<Atomic>) -> Result<(), SqlError> {
        let row = self.coerce_row(values)?;
        self.append(row);
        Ok(())
    }

    /// Insert several rows, all or none: every row is arity-checked and
    /// coerced before the first is appended, so a bad row anywhere in the
    /// list leaves the table and its indexes as they were.
    pub fn insert_all(&mut self, rows: Vec<Vec<Atomic>>) -> Result<(), SqlError> {
        let rows: Vec<Vec<Atomic>> = rows
            .into_iter()
            .map(|values| self.coerce_row(values))
            .collect::<Result<_, _>>()?;
        self.rows.reserve(rows.len());
        for row in rows {
            self.append(row);
        }
        Ok(())
    }

    /// The row as it would be stored: one value per column, each coerced
    /// to its column's type.
    fn coerce_row(&self, values: Vec<Atomic>) -> Result<Vec<Atomic>, SqlError> {
        if values.len() != self.columns.len() {
            return Err(SqlError::new(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                values.len()
            )));
        }
        self.columns
            .iter()
            .zip(values)
            .map(|(col, v)| col.ty.coerce(v))
            .collect()
    }

    /// Store a coerced row and enter it in every index.
    fn append(&mut self, row: Vec<Atomic>) {
        let rid = self.rows.len();
        for (ci, index) in self.indexes.values_mut() {
            index.insert(row[*ci].clone(), rid);
        }
        self.rows.push(row);
    }

    /// Create an index over an existing column, back-filling current rows.
    pub fn create_index(&mut self, column: &str, kind: IndexKind) -> Result<(), SqlError> {
        let ci = self
            .column_index(column)
            .ok_or_else(|| SqlError::new(format!("no column {:?} in {}", column, self.name)))?;
        let mut idx = Index::new(kind);
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert(row[ci].clone(), rid);
        }
        self.indexes.insert(column.to_string(), (ci, idx));
        Ok(())
    }

    /// Drop an index if present.
    pub fn drop_index(&mut self, column: &str) -> bool {
        self.indexes.remove(column).is_some()
    }

    /// Names of indexed columns.
    pub fn indexed_columns(&self) -> Vec<(String, IndexKind)> {
        let mut v: Vec<(String, IndexKind)> = self
            .indexes
            .iter()
            .map(|(c, (_, i))| (c.clone(), i.kind()))
            .collect();
        v.sort();
        v
    }

    pub(crate) fn index_on(&self, column: &str) -> Option<&Index> {
        self.indexes.get(column).map(|(_, index)| index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ColumnType;

    fn people() -> Table {
        let mut t = Table::new(
            "people",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("age", ColumnType::Int),
            ],
        );
        for (id, name, age) in [(1, "ada", 36), (2, "alan", 41), (3, "grace", 36)] {
            t.insert(vec![
                Atomic::Int(id),
                Atomic::Str(name.into()),
                Atomic::Int(age),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_coerces_and_validates() {
        let mut t = people();
        assert!(t
            .insert(vec![Atomic::Str("4".into()), Atomic::Str("x".into()), Atomic::Int(1)])
            .is_ok());
        assert!(t.insert(vec![Atomic::Int(5)]).is_err());
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.rows()[3][0], Atomic::Int(4));
    }

    #[test]
    fn hash_index_lookup() {
        let mut t = people();
        t.create_index("age", IndexKind::Hash).unwrap();
        let idx = t.index_on("age").unwrap();
        let rows = idx.lookup_eq(&Atomic::Int(36));
        assert_eq!(rows, vec![0, 2]);
        assert!(idx.lookup_range(None, None).is_none());
    }

    #[test]
    fn btree_index_range() {
        let mut t = people();
        t.create_index("age", IndexKind::BTree).unwrap();
        let idx = t.index_on("age").unwrap();
        let rows = idx
            .lookup_range(Some((&Atomic::Int(37), true)), None)
            .unwrap();
        assert_eq!(rows, vec![1]);
        let rows = idx
            .lookup_range(Some((&Atomic::Int(36), true)), Some((&Atomic::Int(36), true)))
            .unwrap();
        assert_eq!(rows, vec![0, 2]);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = people();
        t.create_index("id", IndexKind::Hash).unwrap();
        t.insert(vec![
            Atomic::Int(9),
            Atomic::Str("new".into()),
            Atomic::Int(20),
        ])
        .unwrap();
        assert_eq!(t.index_on("id").unwrap().lookup_eq(&Atomic::Int(9)), vec![3]);
    }
}
