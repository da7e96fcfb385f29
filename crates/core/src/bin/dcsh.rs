//! `dcsh` — an interactive SQL shell over a live Data Cyclotron ring.
//!
//! ```sh
//! cargo run -p datacyclotron --bin dcsh            # 3-node ring
//! DCSH_NODES=5 cargo run -p datacyclotron --bin dcsh
//! echo "select count(*) from sales" | cargo run -p datacyclotron --bin dcsh
//! ```
//!
//! Commands: `.help`, `.demo`, `.tables`, `.plan <sql>`, `.node <i>`,
//! `.timing on|off`, `.stats`, `.hotset`, `.quit`. Anything else is executed as SQL
//! on the current node — SELECT, CREATE TABLE, and INSERT alike — the DC
//! optimizer rewrites the plan and pins block until the fragments flow
//! past. For a multi-process ring over TCP, see the `dc-node` binary in
//! `dc-transport`.

use batstore::Column;
use datacyclotron::Ring;
use std::io::{BufRead, Write};
use std::time::Instant;

struct Shell {
    ring: Ring,
    node: usize,
    timing: bool,
    tables: Vec<String>,
    queries_run: u64,
}

impl Shell {
    fn load_demo(&mut self) {
        if !self.tables.is_empty() {
            println!("demo data already loaded");
            return;
        }
        let n = 1000;
        let regions: Vec<&str> = (0..n).map(|i| ["eu", "us", "ap", "af", "sa"][i % 5]).collect();
        let amounts: Vec<i32> = (0..n).map(|i| ((i * 37 + 11) % 500) as i32).collect();
        let quarters: Vec<i32> = (0..n).map(|i| (i % 4 + 1) as i32).collect();
        let keys: Vec<i32> = (0..n as i32).collect();
        self.ring
            .load_table(
                "sys",
                "sales",
                vec![
                    ("k", Column::from(keys.clone())),
                    ("region", Column::from(regions)),
                    ("amount", Column::from(amounts)),
                    ("quarter", Column::from(quarters)),
                ],
            )
            .expect("load sales");
        let labels: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "even" } else { "odd" }).collect();
        self.ring
            .load_table(
                "sys",
                "dims",
                vec![("k", Column::from(keys)), ("label", Column::from(labels))],
            )
            .expect("load dims");
        self.tables =
            vec!["sys.sales(k, region, amount, quarter)".into(), "sys.dims(k, label)".into()];
        println!("loaded demo tables:");
        for t in &self.tables {
            println!("  {t}");
        }
    }

    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match cmd {
            ".help" => {
                println!(".demo            load the demo tables");
                println!(".tables          list loaded tables");
                println!(".plan <sql>      show the MAL plan and its DC rewrite");
                println!(".node <i>        settle queries on ring node i (now {})", self.node);
                println!(".timing on|off   print query wall time (now {})", self.timing);
                println!(".stats           session counts, then the node's dc.stats and latency");
                println!(".hotset          per-fragment residency and LOI on the current node");
                println!(".quit            exit");
            }
            ".demo" => self.load_demo(),
            ".tables" => {
                if self.tables.is_empty() {
                    println!("(none — try .demo)");
                }
                for t in &self.tables {
                    println!("  {t}");
                }
            }
            ".plan" => {
                if rest.is_empty() {
                    println!("usage: .plan <sql>");
                } else {
                    match self.ring.explain_sql(self.node, rest) {
                        Ok((plan, dc)) => {
                            println!("-- MAL plan\n{plan}\n-- after DcOptimizer\n{dc}")
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
            ".node" => match rest.parse::<usize>() {
                Ok(i) if i < self.ring.len() => {
                    self.node = i;
                    println!("queries now settle on node {i}");
                }
                _ => println!("usage: .node <0..{}>", self.ring.len() - 1),
            },
            ".timing" => {
                self.timing = rest == "on";
                println!("timing {}", if self.timing { "on" } else { "off" });
            }
            ".stats" => {
                println!("ring nodes:     {}", self.ring.len());
                println!("queries run:    {}", self.queries_run);
                println!("current node:   {}", self.node);
                let obs = self.ring.node(self.node).obs();
                println!("-- node {} counters and gauges (dc.stats, zeros omitted)", self.node);
                for (name, value) in obs.stats() {
                    if value != 0 {
                        println!("  {name:<32} {value}");
                    }
                }
                let hists = obs.histograms();
                let nonempty: Vec<_> = hists.iter().filter(|(_, snap)| snap.count > 0).collect();
                if !nonempty.is_empty() {
                    println!("-- node {} latency (µs)", self.node);
                    println!(
                        "  {:<24} {:>8} {:>8} {:>8} {:>8}",
                        "histogram", "count", "p50", "p95", "p99"
                    );
                    for (name, snap) in nonempty {
                        println!(
                            "  {name:<24} {:>8} {:>8} {:>8} {:>8}",
                            snap.count,
                            snap.p50(),
                            snap.p95(),
                            snap.p99()
                        );
                    }
                }
            }
            ".hotset" => match self.ring.node(self.node).hotset() {
                Ok(snap) => {
                    let budget = snap
                        .mem_budget
                        .map(|b| format!("{b} bytes"))
                        .unwrap_or_else(|| "unlimited".into());
                    println!(
                        "node {}: LOIT {:.2} (level {}), resident {} bytes, spilled {} bytes, \
                         budget {budget}",
                        self.node,
                        snap.loit,
                        snap.loit_level,
                        snap.resident_bytes,
                        snap.spilled_bytes
                    );
                    if snap.rows.is_empty() {
                        println!("(no owned fragments on this node)");
                    } else {
                        println!(
                            "  {:<10} {:<24} {:<8} {:>8} {:>4} {:>10}",
                            "bat", "table", "state", "loi", "ver", "bytes"
                        );
                        for r in snap.rows {
                            println!(
                                "  {:<10} {:<24} {:<8} {:>8.3} {:>4} {:>10}",
                                format!("{}", r.bat),
                                r.table,
                                r.state,
                                r.loi,
                                r.version,
                                r.size
                            );
                        }
                    }
                }
                Err(e) => println!("error reading hotset: {e}"),
            },
            ".quit" | ".exit" => return false,
            other => println!("unknown command {other}; try .help"),
        }
        true
    }

    fn sql(&mut self, line: &str) {
        let started = Instant::now();
        // The typed API is the source of truth; the shell renders it and
        // reports the row count the way a wire client would see it.
        match self.ring.execute(self.node, line) {
            Ok(rs) => {
                print!("{}", rs.render());
                self.queries_run += 1;
                if self.timing {
                    let shape = if rs.column_count() > 0 {
                        format!("{} row(s), {} col(s), ", rs.row_count(), rs.column_count())
                    } else {
                        String::new()
                    };
                    println!("-- {shape}{:.1} ms", started.elapsed().as_secs_f64() * 1e3);
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

fn main() {
    let nodes: usize = std::env::var("DCSH_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| (1..=64).contains(&n))
        .unwrap_or(3);
    println!("dcsh — Data Cyclotron shell ({nodes}-node ring); .help for commands");
    let mut shell = Shell {
        ring: Ring::builder(nodes).build(),
        node: 0,
        timing: false,
        tables: Vec::new(),
        queries_run: 0,
    };
    shell.load_demo();

    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("dc[{}]> ", shell.node);
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('.') {
            if !shell.command(line) {
                break;
            }
        } else {
            shell.sql(line);
        }
    }
    println!("bye");
}

/// Minimal isatty check without extra dependencies: honor an env
/// override and default to non-interactive when piped input is likely.
fn atty_stdin() -> bool {
    std::env::var("DCSH_PROMPT").map(|v| v == "1").unwrap_or(false)
}
