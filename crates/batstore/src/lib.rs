//! # batstore — a MonetDB-style binary column kernel
//!
//! The Data Cyclotron paper (§3) builds on MonetDB, whose storage unit is
//! the *Binary Association Table* (BAT): a two-column table mapping a head
//! (usually a dense, virtual OID sequence) to a tail of base-type values.
//! Query plans are compositions of binary relational-algebra operators
//! over BATs. This crate is that kernel, built from scratch:
//!
//! * [`Column`] — typed vectors (`void`/`oid`/`int`/`lng`/`dbl`/`str`/
//!   `bool`/`date`) with a contiguous string heap,
//! * [`Bat`] — head/tail pairs with lightweight properties (sortedness,
//!   key-ness) used to pick algorithms,
//! * [`ops`] — the operator library appearing in the paper's MAL plans
//!   (`select`, `uselect`, `join`, `reverse`, `mark`, `mirror`, `semijoin`)
//!   plus the fused scan → group → aggregate operator, sort and slice,
//! * [`Catalog`] / [`BatStore`] — schema.table.column → BAT binding
//!   (the `sql.bind` of the plans),
//! * [`storage`] — binary persistence (the "cold data on attached disks"
//!   of the paper's data loader),
//! * [`resultset`] — typed query results (named, typed columns plus
//!   DDL/DML outcomes) with a binary wire form reusing the BAT encoding,
//! * [`wire`] — the checked byte reader and the writers every binary
//!   format of the system is encoded and decoded with.

pub mod bat;
pub mod catalog;
pub mod column;
pub mod error;
pub mod heap;
pub mod int;
pub mod ops;
pub mod resultset;
pub mod storage;
pub mod value;
pub mod wire;

pub use bat::{Bat, Props};
pub use catalog::{BatKey, BatStore, Catalog, ColDef, TableDef};
pub use column::Column;
pub use error::{BatError, Result};
pub use heap::StrCol;
pub use int::IntCol;
pub use ops::RowPredicate;
pub use resultset::{ResultColumn, ResultSet};
pub use value::{ColType, Val};
