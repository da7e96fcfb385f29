//! The SQL catalog and BAT registry: `schema.table.column → BAT`.
//! This is what MonetDB's `sql.bind` resolves against (paper §3.2) and
//! what the Data Cyclotron's data loader administers per node (structure
//! S1 owns a subset of these BATs).

use crate::bat::Bat;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::{stage, MutOp, Mutation};
use crate::value::{ColType, Val};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a BAT inside a [`BatStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BatKey(pub u32);

impl fmt::Display for BatKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bat#{}", self.0)
    }
}

/// Column definition inside a table.
#[derive(Clone, Debug)]
pub struct ColDef {
    pub name: String,
    pub ty: ColType,
    pub bat: BatKey,
}

/// Table definition.
#[derive(Clone, Debug)]
pub struct TableDef {
    pub schema: String,
    pub name: String,
    pub columns: Vec<ColDef>,
    pub row_count: usize,
}

impl TableDef {
    pub fn column(&self, name: &str) -> Option<&ColDef> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// The BAT registry: owns the actual column data. BATs are handed out as
/// `Arc<Bat>` so the interpreter can share them across plan threads
/// without copies (the paper's "pointer to a memory mapped region").
#[derive(Default)]
pub struct BatStore {
    bats: Vec<Option<Arc<Bat>>>,
}

impl BatStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, bat: Bat) -> BatKey {
        let key = BatKey(self.bats.len() as u32);
        self.bats.push(Some(Arc::new(bat)));
        key
    }

    pub fn get(&self, key: BatKey) -> Result<Arc<Bat>> {
        self.bats
            .get(key.0 as usize)
            .and_then(|o| o.clone())
            .ok_or_else(|| BatError::NotFound(key.to_string()))
    }

    /// Replace the BAT behind a key (multi-version updates, §6.4).
    pub fn replace(&mut self, key: BatKey, bat: Bat) -> Result<()> {
        let slot =
            self.bats.get_mut(key.0 as usize).ok_or_else(|| BatError::NotFound(key.to_string()))?;
        *slot = Some(Arc::new(bat));
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.bats.iter().filter(|b| b.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn total_bytes(&self) -> usize {
        self.bats.iter().flatten().map(|b| b.byte_size()).sum()
    }
}

/// The SQL catalog.
#[derive(Default)]
pub struct Catalog {
    /// `schema.table` → definition.
    tables: BTreeMap<String, TableDef>,
}

fn qual(schema: &str, table: &str) -> String {
    format!("{schema}.{table}")
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table from column specs and row-major data. Convenience
    /// for tests and examples; bulk loads use `create_table_columnar`.
    pub fn create_table(
        &mut self,
        store: &mut BatStore,
        schema: &str,
        table: &str,
        cols: &[(&str, ColType)],
        rows: &[Vec<Val>],
    ) -> Result<()> {
        let mut columns: Vec<Column> = cols.iter().map(|&(_, ty)| Column::empty(ty)).collect();
        for row in rows {
            if row.len() != cols.len() {
                return Err(BatError::LengthMismatch { left: row.len(), right: cols.len() });
            }
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v)?;
            }
        }
        self.create_table_columnar(
            store,
            schema,
            table,
            cols.iter().map(|&(n, _)| n).zip(columns).collect(),
        )
    }

    /// Create a table from complete columns.
    pub fn create_table_columnar(
        &mut self,
        store: &mut BatStore,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<()> {
        let key = qual(schema, table);
        if self.tables.contains_key(&key) {
            return Err(BatError::AlreadyExists(key));
        }
        let row_count = cols.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut columns = Vec::with_capacity(cols.len());
        for (name, col) in cols {
            if col.len() != row_count {
                return Err(BatError::LengthMismatch { left: col.len(), right: row_count });
            }
            let ty = col.col_type();
            let bat = store.insert(Bat::dense(col));
            columns.push(ColDef { name: name.to_string(), ty, bat });
        }
        self.tables.insert(
            key,
            TableDef { schema: schema.to_string(), name: table.to_string(), columns, row_count },
        );
        Ok(())
    }

    /// `INSERT`/`UPDATE`/`DELETE` on a single node: the rows are
    /// appended, or the rows matching the predicate conjunction get each
    /// assignment, or leave every column in lockstep (§6.4's owner-side
    /// rewrite, by the same [`crate::ops::stage`] a ring owner runs).
    /// Returns the number of rows matched (added). Every rewritten
    /// column is staged before any is replaced, so a bad statement leaves
    /// the table untouched.
    pub fn mutate_rows(&mut self, store: &mut BatStore, m: &Mutation) -> Result<usize> {
        let def = self.table(&m.schema, &m.table)?;
        let cols = def
            .columns
            .iter()
            .map(|c| Ok((c.name.as_str(), store.get(c.bat)?)))
            .collect::<Result<Vec<_>>>()?;
        let staged = stage(&cols, &m.op, &m.preds)?;
        let keys: Vec<BatKey> = staged.columns.iter().map(|(i, _)| def.columns[*i].bat).collect();
        for (key, (_, bat)) in keys.into_iter().zip(staged.columns) {
            store.replace(key, bat)?;
        }
        let row_count = &mut self
            .tables
            .get_mut(&qual(&m.schema, &m.table))
            .expect("looked up above")
            .row_count;
        match m.op {
            MutOp::Insert(_) => *row_count += staged.matched,
            MutOp::Delete => *row_count -= staged.matched,
            MutOp::Update(_) => {}
        }
        Ok(staged.matched)
    }

    pub fn table(&self, schema: &str, table: &str) -> Result<&TableDef> {
        self.tables.get(&qual(schema, table)).ok_or_else(|| BatError::NotFound(qual(schema, table)))
    }

    /// `sql.bind(schema, table, column, access)` — resolve a persistent
    /// column BAT. `access` 0 is the readable base column (other access
    /// modes carry deltas in MonetDB; only 0 is meaningful here).
    pub fn bind(&self, schema: &str, table: &str, column: &str) -> Result<BatKey> {
        let t = self.table(schema, table)?;
        t.column(column)
            .map(|c| c.bat)
            .ok_or_else(|| BatError::NotFound(format!("{schema}.{table}.{column}")))
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CmpOp, RowPredicate};

    fn setup() -> (Catalog, BatStore) {
        let mut cat = Catalog::new();
        let mut store = BatStore::new();
        cat.create_table(
            &mut store,
            "sys",
            "t",
            &[("id", ColType::Int), ("name", ColType::Str)],
            &[vec![Val::Int(1), Val::from("one")], vec![Val::Int(2), Val::from("two")]],
        )
        .unwrap();
        (cat, store)
    }

    #[test]
    fn bind_resolves() {
        let (cat, store) = setup();
        let key = cat.bind("sys", "t", "id").unwrap();
        let bat = store.get(key).unwrap();
        assert_eq!(bat.count(), 2);
        assert_eq!(bat.tail_type(), ColType::Int);
    }

    #[test]
    fn bind_missing_column_errs() {
        let (cat, _) = setup();
        assert!(cat.bind("sys", "t", "nope").is_err());
        assert!(cat.bind("sys", "missing", "id").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut cat, mut store) = setup();
        let r = cat.create_table(&mut store, "sys", "t", &[("x", ColType::Int)], &[]);
        assert!(matches!(r, Err(BatError::AlreadyExists(_))));
    }

    #[test]
    fn ragged_rows_rejected() {
        let mut cat = Catalog::new();
        let mut store = BatStore::new();
        let r = cat.create_table(
            &mut store,
            "sys",
            "bad",
            &[("a", ColType::Int), ("b", ColType::Int)],
            &[vec![Val::Int(1)]],
        );
        assert!(r.is_err());
    }

    /// A mutation of `sys.t`.
    fn on_t(op: MutOp, preds: &[RowPredicate]) -> Mutation {
        Mutation { schema: "sys".into(), table: "t".into(), op, preds: preds.to_vec() }
    }

    fn insert(cols: &[(&str, Column)]) -> Mutation {
        on_t(MutOp::Insert(cols.iter().map(|(n, c)| (n.to_string(), c.clone())).collect()), &[])
    }

    #[test]
    fn insert_grows_all_columns() {
        let (mut cat, mut store) = setup();
        // Named in any order.
        let m = insert(&[
            ("name", Column::from(vec!["three", "four"])),
            ("id", Column::from(vec![3, 4])),
        ]);
        assert_eq!(cat.mutate_rows(&mut store, &m).unwrap(), 2);
        let def = cat.table("sys", "t").unwrap();
        assert_eq!(def.row_count, 4);
        let ids = store.get(def.column("id").unwrap().bat).unwrap();
        assert_eq!(ids.count(), 4);
        assert_eq!(ids.bun(3).1, Val::Int(4));
    }

    #[test]
    fn insert_rejects_partial_ragged_or_predicated() {
        let (mut cat, mut store) = setup();
        let id = |v: Vec<i32>| ("id", Column::from(v));
        let name = |v: Vec<&str>| ("name", Column::from(v));
        let bad = [
            // Missing a column; one named twice; one the table lacks.
            insert(&[id(vec![3])]),
            insert(&[id(vec![3]), id(vec![4])]),
            insert(&[id(vec![3]), ("ghost", Column::from(vec!["x"]))]),
            // Ragged lengths; a type mismatch.
            insert(&[id(vec![3, 4]), name(vec!["x"])]),
            insert(&[("id", Column::from(vec!["oops"])), name(vec!["x"])]),
            // A WHERE clause.
            on_t(
                MutOp::Insert(vec![("id".into(), Column::from(vec![3]))]),
                &[RowPredicate::Cmp { column: "id".into(), op: CmpOp::Eq, value: Val::Int(1) }],
            ),
        ];
        for m in bad {
            assert!(cat.mutate_rows(&mut store, &m).is_err(), "{m:?}");
        }
        let err = cat.mutate_rows(&mut store, &insert(&[id(vec![3])])).unwrap_err();
        assert!(err.to_string().contains("INSERT must cover all 2 columns, got 1"), "{err}");
        assert_eq!(cat.table("sys", "t").unwrap().row_count, 2, "no partial append");
        assert_eq!(store.get(cat.bind("sys", "t", "id").unwrap()).unwrap().count(), 2);
        assert_eq!(store.get(cat.bind("sys", "t", "name").unwrap()).unwrap().count(), 2);
    }

    #[test]
    fn update_rows_rewrites_matching_rows_only() {
        let (mut cat, mut store) = setup();
        let mut update = |assigns: &[(&str, Val)], preds: &[RowPredicate]| {
            let assigns = assigns.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            cat.mutate_rows(&mut store, &on_t(MutOp::Update(assigns), preds))
        };
        let id_is =
            |v: i32| [RowPredicate::Cmp { column: "id".into(), op: CmpOp::Eq, value: Val::Int(v) }];
        assert_eq!(update(&[("name", Val::from("won"))], &id_is(1)).unwrap(), 1);
        // No matches → 0 affected, nothing rewritten.
        assert_eq!(update(&[("id", Val::Int(9))], &id_is(77)).unwrap(), 0);
        // Bad assignment column / type errors leave the table untouched.
        assert!(update(&[("ghost", Val::Int(1))], &[]).is_err());
        assert!(update(&[("id", Val::from("x"))], &[]).is_err());
        assert!(update(&[], &[]).is_err(), "empty SET");
        // A duplicate assignment is rejected (live apply and WAL replay
        // could disagree on which value wins), and a type-mismatched
        // value fails even when the WHERE clause matches nothing.
        assert!(update(&[("id", Val::Int(1)), ("id", Val::Int(2))], &[]).is_err());
        assert!(update(&[("id", Val::from("x"))], &id_is(777)).is_err());
        let names = store.get(cat.bind("sys", "t", "name").unwrap()).unwrap();
        assert_eq!(names.bun(0).1, Val::from("won"));
        assert_eq!(names.bun(1).1, Val::from("two"), "non-matching row untouched");
        assert_eq!(cat.table("sys", "t").unwrap().row_count, 2, "UPDATE never changes row count");
        assert_eq!(store.get(cat.bind("sys", "t", "id").unwrap()).unwrap().bun(0).1, Val::Int(1));
    }

    #[test]
    fn delete_rows_shrinks_all_columns_in_lockstep() {
        let (mut cat, mut store) = setup();
        let id_is_1 =
            [RowPredicate::Cmp { column: "id".into(), op: CmpOp::Eq, value: Val::Int(1) }];
        let n = cat.mutate_rows(&mut store, &on_t(MutOp::Delete, &id_is_1)).unwrap();
        assert_eq!(n, 1);
        let def = cat.table("sys", "t").unwrap();
        assert_eq!(def.row_count, 1);
        for c in &def.columns {
            assert_eq!(store.get(c.bat).unwrap().count(), 1, "column {}", c.name);
        }
        assert_eq!(
            store.get(cat.bind("sys", "t", "name").unwrap()).unwrap().bun(0).1,
            Val::from("two")
        );
        // Unconditional DELETE empties the table but keeps its schema.
        let n = cat.mutate_rows(&mut store, &on_t(MutOp::Delete, &[])).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cat.table("sys", "t").unwrap().row_count, 0);
        assert!(cat.bind("sys", "t", "id").is_ok());
    }

    #[test]
    fn store_replace() {
        let mut store = BatStore::new();
        let k = store.insert(Bat::dense(Column::from(vec![1, 2, 3])));
        assert_eq!(store.get(k).unwrap().count(), 3);
        store.replace(k, Bat::dense(Column::from(vec![9]))).unwrap();
        assert_eq!(store.get(k).unwrap().count(), 1);
    }

    #[test]
    fn total_bytes_tracks() {
        let (_, store) = setup();
        assert!(store.total_bytes() > 0);
    }
}
