//! The session context: catalog + BAT store + the seam to the Data
//! Cyclotron layer.
//!
//! The `datacyclotron` MAL module calls through [`DcHooks`]. The live ring
//! engine implements it with real request/pin/unpin semantics (pin blocks
//! until the fragment arrives from the predecessor node — paper §4.2.1);
//! [`LocalHooks`] implements it against the local catalog so plans run
//! unchanged on a single node ("the BAT is retrieved from disk or local
//! memory and put into the DBMS space").

use crate::error::{MalError, Result};
use batstore::ops::Mutation;
use batstore::{Bat, BatStore, Catalog, ColType, Column};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// The seam between the DBMS layer and the Data Cyclotron layer (§4.1):
/// the three calls the DC optimizer injects into plans, plus the DDL/DML
/// entry points (`sql.createTable`, and `sql.append`/`sql.update`/
/// `sql.delete`) that SQL statements route through so table creation and
/// mutations reach the ring's owner/versioning machinery (§6.4) instead
/// of a local store.
pub trait DcHooks: Send + Sync {
    /// `datacyclotron.request(schema, table, column, access)`: announce
    /// interest; never blocks. Returns a ticket to pin against.
    fn request(&self, query: u64, schema: &str, table: &str, column: &str) -> Result<u64>;

    /// `datacyclotron.pin(ticket)`: block until the BAT is available in
    /// the local DBMS space and return it.
    fn pin(&self, query: u64, ticket: u64) -> Result<Arc<Bat>>;

    /// `datacyclotron.unpin(ticket)`: release the fragment; the memory
    /// region may be reclaimed once all pins are gone.
    fn unpin(&self, query: u64, ticket: u64) -> Result<()>;

    /// `sql.createTable`: register a new table. On a ring node this
    /// makes the node the owner of the (empty) column fragments and
    /// replicates the metadata around the ring.
    fn create_table(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        _cols: &[(String, ColType)],
    ) -> Result<()> {
        Err(MalError::Dc(format!("this DC seam cannot create {schema}.{table}")))
    }

    /// `sql.append` / `sql.update` / `sql.delete`: append the rows, or
    /// write each assignment into, or remove, every row matching the
    /// predicate conjunction; returns the number of rows added or
    /// matched. On a ring node the *logical* mutation is routed to the
    /// fragment owner, which applies it to its authoritative payload and
    /// bumps the fragment versions (§6.4).
    fn mutate_rows(&self, _query: u64, m: Mutation) -> Result<u64> {
        Err(MalError::Dc(format!("this DC seam cannot mutate {}.{}", m.schema, m.table)))
    }

    /// `sql.sysview`: materialize a read-only `dc.*` system view
    /// (`stats`, `latency`, `trace`) as a typed result set from the
    /// node's live telemetry. Only ring nodes have telemetry to serve.
    fn sys_view(&self, _query: u64, view: &str) -> Result<batstore::ResultSet> {
        Err(MalError::Dc(format!("system view dc.{view} is only available on a ring node")))
    }
}

/// Single-node hooks: requests resolve directly against the local
/// catalog. Used for tests, for the MonetDB-equivalent baseline, and for
/// plans that were not rewritten by the DC optimizer.
pub struct LocalHooks {
    catalog: Arc<RwLock<Catalog>>,
    store: Arc<RwLock<BatStore>>,
    tickets: Mutex<Vec<Arc<Bat>>>,
}

impl LocalHooks {
    pub fn new(catalog: Arc<RwLock<Catalog>>, store: Arc<RwLock<BatStore>>) -> Self {
        LocalHooks { catalog, store, tickets: Mutex::new(Vec::new()) }
    }
}

impl DcHooks for LocalHooks {
    fn request(&self, _query: u64, schema: &str, table: &str, column: &str) -> Result<u64> {
        let key = self.catalog.read().bind(schema, table, column)?;
        let bat = self.store.read().get(key)?;
        let mut tickets = self.tickets.lock();
        tickets.push(bat);
        Ok((tickets.len() - 1) as u64)
    }

    fn pin(&self, _query: u64, ticket: u64) -> Result<Arc<Bat>> {
        self.tickets
            .lock()
            .get(ticket as usize)
            .cloned()
            .ok_or_else(|| MalError::Dc(format!("unknown ticket {ticket}")))
    }

    fn unpin(&self, _query: u64, _ticket: u64) -> Result<()> {
        Ok(())
    }

    fn create_table(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        cols: &[(String, ColType)],
    ) -> Result<()> {
        let mut catalog = self.catalog.write();
        let mut store = self.store.write();
        let typed: Vec<(&str, Column)> =
            cols.iter().map(|(name, ty)| (name.as_str(), Column::empty(*ty))).collect();
        catalog.create_table_columnar(&mut store, schema, table, typed)?;
        Ok(())
    }

    fn mutate_rows(&self, _query: u64, m: Mutation) -> Result<u64> {
        let mut catalog = self.catalog.write();
        let mut store = self.store.write();
        Ok(catalog.mutate_rows(&mut store, &m)? as u64)
    }
}

/// Everything an executing plan can reach.
pub struct SessionCtx {
    pub catalog: Arc<RwLock<Catalog>>,
    pub store: Arc<RwLock<BatStore>>,
    /// The Data Cyclotron layer: ring hooks when this node participates in
    /// a ring, [`LocalHooks`] otherwise. One instance for the session so
    /// tickets issued by `request` stay valid for `pin`/`unpin`.
    hooks: Arc<dyn DcHooks>,
    /// Captured `io.stdout()` output (`io.print` and friends).
    pub out: Mutex<String>,
    /// The typed result published by the plan's SQL sink
    /// (`sql.exportResult` / `sql.createTable` / `sql.append`).
    result: Mutex<Option<batstore::ResultSet>>,
    /// The query id handed to `DcHooks` calls (assigned at submit time).
    pub query_id: u64,
}

impl SessionCtx {
    pub fn new(catalog: Arc<RwLock<Catalog>>, store: Arc<RwLock<BatStore>>) -> Self {
        let hooks = Arc::new(LocalHooks::new(Arc::clone(&catalog), Arc::clone(&store)));
        SessionCtx {
            catalog,
            store,
            hooks,
            out: Mutex::new(String::new()),
            result: Mutex::new(None),
            query_id: 0,
        }
    }

    pub fn with_dc(mut self, dc: Arc<dyn DcHooks>) -> Self {
        self.hooks = dc;
        self
    }

    pub fn with_query_id(mut self, qid: u64) -> Self {
        self.query_id = qid;
        self
    }

    /// The Data Cyclotron seam for this session.
    pub fn hooks(&self) -> Arc<dyn DcHooks> {
        Arc::clone(&self.hooks)
    }

    /// Publish the statement's typed result. The SQL sinks call this
    /// once per statement; a later sink replaces an earlier one.
    pub fn set_result(&self, rs: batstore::ResultSet) {
        *self.result.lock() = Some(rs);
    }

    /// Drain the session's typed result. Captured `io.print` text (which
    /// has no columnar shape) rides along as leading info text.
    pub fn take_result(&self) -> batstore::ResultSet {
        let text = std::mem::take(&mut *self.out.lock());
        let mut rs = self.result.lock().take().unwrap_or_default();
        rs.prepend_text(&text);
        rs
    }

    /// Drain the session's output as rendered text. This is a view of
    /// [`SessionCtx::take_result`] — the typed result is the source of
    /// truth; the string is produced here, at the edge, on demand.
    pub fn take_output(&self) -> String {
        self.take_result().render()
    }

    pub fn write_output(&self, s: &str) {
        self.out.lock().push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::{ColType, Val};

    fn ctx() -> SessionCtx {
        let mut catalog = Catalog::new();
        let mut store = BatStore::new();
        catalog
            .create_table(&mut store, "sys", "t", &[("id", ColType::Int)], &[vec![Val::Int(42)]])
            .unwrap();
        SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
    }

    #[test]
    fn local_hooks_resolve_catalog() {
        let c = ctx();
        let hooks = c.hooks();
        let t = hooks.request(1, "sys", "t", "id").unwrap();
        let bat = hooks.pin(1, t).unwrap();
        assert_eq!(bat.count(), 1);
        hooks.unpin(1, t).unwrap();
    }

    #[test]
    fn local_hooks_missing_column() {
        let c = ctx();
        assert!(c.hooks().request(1, "sys", "t", "ghost").is_err());
    }

    #[test]
    fn pin_unknown_ticket_fails() {
        let c = ctx();
        assert!(c.hooks().pin(1, 99).is_err());
    }

    #[test]
    fn output_capture() {
        let c = ctx();
        c.write_output("hello ");
        c.write_output("world");
        assert_eq!(c.take_output(), "hello world");
        assert_eq!(c.take_output(), "", "drained");
    }

    #[test]
    fn typed_result_is_the_source_of_truth() {
        let c = ctx();
        let mut rs = batstore::ResultSet::new();
        rs.push_column(
            "sys.t",
            "id",
            "int",
            Arc::new(Bat::dense(batstore::Column::from(vec![42]))),
        );
        c.set_result(rs.clone());
        let got = c.take_result();
        assert_eq!(got, rs);
        assert!(c.take_result().is_empty(), "drained");
        // The string API is a rendering of the same result.
        c.set_result(rs);
        assert!(c.take_output().contains("[ 42 ]"));
    }

    #[test]
    fn print_text_rides_along_as_info() {
        let c = ctx();
        c.write_output("debug line\n");
        c.set_result(batstore::ResultSet::with_affected(3));
        let rs = c.take_result();
        assert_eq!(rs.info.as_deref(), Some("debug line\n"));
        assert_eq!(rs.affected, Some(3));
        assert_eq!(rs.render(), "debug line\n3 rows affected\n");
    }
}
