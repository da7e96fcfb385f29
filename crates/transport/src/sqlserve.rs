//! The server side of the `dc-client` framed SQL protocol: accept
//! connections on a listener, shake hands, and answer any number of
//! `Query` frames per connection against a local [`RingNode`].
//!
//! This is the front door the paper's premise requires — "queries settle
//! on any node" (§4.2) — exposed as a library so the `dc-node` binary,
//! the examples, and the distributed tests all serve the identical
//! protocol. Results leave as typed column frames
//! ([`dc_client::proto::result_frames`]); text rendering happens only in
//! clients that want text.

use datacyclotron::{DcError, RingNode};
use dc_client::proto::{
    read_frame, write_frame, ErrorKind, Frame, DEFAULT_BATCH_ROWS, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A [`TcpStream`] that feeds every byte moved in either direction into
/// the node's observability counters, so `dc.stats` shows the SQL front
/// door's traffic next to the ring fabric's.
struct MeteredConn {
    inner: TcpStream,
    bytes_in: Arc<dc_obs::Counter>,
    bytes_out: Arc<dc_obs::Counter>,
}

impl Read for MeteredConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_in.add(n as u64);
        Ok(n)
    }
}

impl Write for MeteredConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes_out.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Decrements the active-session gauge when a connection thread exits,
/// however it exits.
struct SessionGuard(Arc<dc_obs::Gauge>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// How long a fresh connection may dawdle before its `Hello` arrives.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle cap between statements on an established session. Generous —
/// sessions are long-lived by design — but bounded, so an abandoned
/// connection cannot hold its thread forever.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Serve the framed SQL protocol on `listener` forever, one thread per
/// connection. Never returns; run it on a dedicated thread (see
/// [`spawn_sql_server`]).
pub fn serve_sql(listener: TcpListener, node: Arc<RingNode>) -> ! {
    loop {
        let Ok((conn, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        };
        let node = Arc::clone(&node);
        std::thread::spawn(move || {
            let _ = handle_conn(conn, &node);
        });
    }
}

/// Spawn [`serve_sql`] on a background thread and return its handle.
/// The thread lives until the process exits (the listener has no
/// shutdown protocol; tests simply drop off its end).
pub fn spawn_sql_server(listener: TcpListener, node: Arc<RingNode>) -> JoinHandle<()> {
    std::thread::spawn(move || serve_sql(listener, node))
}

/// Drive one client connection: validate the `Hello`, then answer
/// `Query` frames until the peer disconnects or times out idle.
pub fn handle_conn(conn: TcpStream, node: &RingNode) -> io::Result<()> {
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(HELLO_TIMEOUT)).ok();
    let obs = node.obs();
    let sessions = obs.gauge("obs_sql_sessions_active");
    sessions.inc();
    let _guard = SessionGuard(Arc::clone(&sessions));
    let mut conn = MeteredConn {
        inner: conn,
        bytes_in: obs.counter("obs_sql_frame_bytes_in"),
        bytes_out: obs.counter("obs_sql_frame_bytes_out"),
    };
    match read_frame(&mut conn, DEFAULT_MAX_FRAME)? {
        Some(Frame::Hello { version: PROTOCOL_VERSION }) => {
            write_frame(&mut conn, &Frame::Hello { version: PROTOCOL_VERSION })?;
        }
        Some(Frame::Hello { version }) => {
            // Answer with our version so a newer client can say *why*
            // the handshake failed, then hang up.
            let _ = write_frame(&mut conn, &Frame::Hello { version: PROTOCOL_VERSION });
            let _ = write_frame(
                &mut conn,
                &Frame::Error {
                    kind: ErrorKind::Protocol,
                    message: format!(
                        "unsupported protocol v{version} (server speaks v{PROTOCOL_VERSION})"
                    ),
                },
            );
            return Ok(());
        }
        _ => return Ok(()), // not a protocol client; drop silently
    }

    conn.inner.set_read_timeout(Some(IDLE_TIMEOUT)).ok();
    while let Some(frame) = read_frame(&mut conn, DEFAULT_MAX_FRAME)? {
        let Frame::Query { sql } = frame else {
            write_frame(
                &mut conn,
                &Frame::Error {
                    kind: ErrorKind::Protocol,
                    message: "expected a Query frame".into(),
                },
            )?;
            continue;
        };
        let stmt = sql.trim();
        // `.wait <table>` blocks until catalog gossip for a freshly
        // created table reaches this node (scripting aid).
        let reply = if let Some(table) = stmt.strip_prefix(".wait ") {
            let table = table.trim();
            node.wait_for_table_timeout("sys", table, Duration::from_secs(10))
                .map(|()| datacyclotron::ResultSet::with_info("ok\n"))
                .map_err(|e| (ErrorKind::Ring, e.to_string()))
        } else if stmt == ".metrics" {
            // One-shot Prometheus-style `name value` dump of every node
            // counter, gauge, and histogram (scraped by `dc-node metrics`).
            Ok(datacyclotron::ResultSet::with_info(node.obs().render_text()))
        } else {
            node.execute(stmt).map_err(|e| (error_kind(&e), e.to_string()))
        };
        match reply {
            Ok(rs) => {
                for f in dc_client::proto::result_frames(&rs, DEFAULT_BATCH_ROWS) {
                    write_frame(&mut conn, &f)?;
                }
            }
            // An Error frame ends the statement, not the session. The
            // engine's classification rides along so clients can branch
            // (retry Ring failures, reject Parse ones) without scraping
            // the message.
            Err((kind, message)) => write_frame(&mut conn, &Frame::Error { kind, message })?,
        }
    }
    Ok(())
}

/// The engine's error classification as the wire carries it.
fn error_kind(e: &DcError) -> ErrorKind {
    match e {
        DcError::Parse(_) => ErrorKind::Parse,
        DcError::Plan(_) => ErrorKind::Plan,
        DcError::Exec(_) => ErrorKind::Exec,
        DcError::Ring(_) => ErrorKind::Ring,
    }
}
