//! Shard-by-canonical-hash multi-process mode.
//!
//! A router is a lightweight front process over N independent `svd`
//! instances ("shards"). Every compile request is forwarded to the shard
//! selected by its **v2 canonical request key** —
//! [`sv_core::request_key`], the pure hash of (canonical loop, canonical
//! machine encoding, canonical driver config) that already keys the
//! compile cache. Two consequences fall out of the key being a pure
//! function of the request:
//!
//! * **routing is only cache locality** — any shard computes the
//!   byte-identical response for any request, so failover to a different
//!   shard is always *correct*, it merely costs a cold compile;
//! * **repeat traffic concentrates** — identical requests always land on
//!   the same shard, so each shard's two-tier cache sees the full repeat
//!   rate of its slice of the keyspace.
//!
//! Per-shard health is tracked from live forwarding outcomes plus
//! explicit [`Router::health_check`] probes (a `stats` round-trip).
//! A request whose keyed shard fails is failed over through the
//! remaining shards in ring order; only when every shard refuses does
//! the client see a typed `unavailable` error. `shutdown` is broadcast
//! to all shards, acked to the client, and then shuts the router down.

use crate::proto::{
    error_response, ok_response, parse_request, CompileRequest, Request, ServeError,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use sv_core::json_escape;
use sv_machine::MachineRegistry;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard connect timeout.
    pub connect_timeout_ms: u64,
    /// Per-shard response read timeout (compiles can be slow; this only
    /// bounds a shard that stopped answering entirely).
    pub read_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig { connect_timeout_ms: 1_000, read_timeout_ms: 30_000 }
    }
}

struct Shard {
    addr: String,
    healthy: AtomicBool,
}

/// One persistent connection from a router worker to a shard.
struct ShardConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ShardConn {
    fn connect(addr: &str, cfg: &RouterConfig) -> std::io::Result<ShardConn> {
        use std::net::ToSocketAddrs;
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable shard `{addr}`")))?;
        let stream =
            TcpStream::connect_timeout(&sock, Duration::from_millis(cfg.connect_timeout_ms))?;
        stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ShardConn { stream, reader })
    }

    /// Send one request line, read one response line.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.stream, "{line}")?;
        self.stream.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "shard hung up"));
        }
        Ok(resp.trim_end().to_string())
    }
}

/// The routing front process: pure-hash shard selection, health
/// tracking, typed failover.
pub struct Router {
    shards: Vec<Shard>,
    registry: MachineRegistry,
    cfg: RouterConfig,
    closed: AtomicBool,
}

impl Router {
    /// Build a router over shard addresses (each a running `svd --tcp`).
    /// The registry must resolve the same machine names the shards do,
    /// so named requests key identically on both sides.
    pub fn new(addrs: Vec<String>, registry: MachineRegistry, cfg: RouterConfig) -> Router {
        assert!(!addrs.is_empty(), "a router needs at least one shard");
        Router {
            shards: addrs
                .into_iter()
                .map(|addr| Shard { addr, healthy: AtomicBool::new(true) })
                .collect(),
            registry,
            cfg,
            closed: AtomicBool::new(false),
        }
    }

    /// The shard index a compile request keys to: its v2 canonical
    /// request key modulo the shard count. Requests the router cannot
    /// resolve (unparseable loop, unknown machine) go to shard 0 —
    /// every shard renders the identical typed error, so the fallback
    /// only needs to be deterministic.
    pub fn shard_for(&self, req: &CompileRequest) -> usize {
        let n = self.shards.len() as u128;
        let Ok(looop) = sv_ir::parse_loop(&req.loop_text) else { return 0 };
        let Ok(machine) = req.machine_config(&self.registry) else { return 0 };
        let key = sv_core::request_key(&looop, &machine, &req.driver_config());
        (key.0 % n) as usize
    }

    /// Probe every shard with a `stats` round-trip, updating and
    /// returning the per-shard health flags.
    pub fn health_check(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| {
                let up = ShardConn::connect(&s.addr, &self.cfg)
                    .and_then(|mut c| c.call("{\"verb\":\"stats\",\"id\":0}"))
                    .map(|resp| resp.contains("\"ok\":true"))
                    .unwrap_or(false);
                s.healthy.store(up, Ordering::Relaxed);
                up
            })
            .collect()
    }

    /// Whether the router has been shut down (a routed `shutdown` verb).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Forward `line` starting at shard `target`, failing over through
    /// the remaining shards in ring order. Health flags are updated from
    /// the outcomes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when every shard fails.
    fn forward(
        &self,
        conns: &mut [Option<ShardConn>],
        target: usize,
        line: &str,
    ) -> Result<String, ServeError> {
        let n = self.shards.len();
        for k in 0..n {
            let i = (target + k) % n;
            match self.try_shard(conns, i, line) {
                Ok(resp) => {
                    self.shards[i].healthy.store(true, Ordering::Relaxed);
                    return Ok(resp);
                }
                Err(_) => self.shards[i].healthy.store(false, Ordering::Relaxed),
            }
        }
        Err(ServeError::Unavailable {
            message: format!("all {n} shard(s) failed for this request"),
        })
    }

    /// One shard attempt with a single reconnect: a dead persistent
    /// connection is replaced once before the shard is declared failed
    /// for this request.
    fn try_shard(
        &self,
        conns: &mut [Option<ShardConn>],
        i: usize,
        line: &str,
    ) -> std::io::Result<String> {
        if conns[i].is_none() {
            conns[i] = Some(ShardConn::connect(&self.shards[i].addr, &self.cfg)?);
        }
        if let Ok(resp) = conns[i].as_mut().expect("just connected").call(line) {
            return Ok(resp);
        }
        // The cached connection was stale (shard restarted, idle drop):
        // one fresh connection decides.
        conns[i] = Some(ShardConn::connect(&self.shards[i].addr, &self.cfg)?);
        conns[i].as_mut().expect("just connected").call(line)
    }

    /// The first shard currently marked healthy (stateless verbs), or
    /// shard 0 when none is.
    fn any_healthy(&self) -> usize {
        self.shards
            .iter()
            .position(|s| s.healthy.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Serve one client connection: route each line, write each response.
    fn handle_conn(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let Ok(reader) = stream.try_clone() else { return };
        let mut writer = stream;
        let mut reader = BufReader::new(reader);
        let mut conns: Vec<Option<ShardConn>> =
            (0..self.shards.len()).map(|_| None).collect();
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return,
                Ok(_) => {
                    let out = self.route_line(&mut conns, line.trim_end());
                    line.clear();
                    if let Some(out) = out {
                        if writeln!(writer, "{out}").is_err() {
                            return;
                        }
                        let _ = writer.flush();
                    }
                    if self.is_closed() {
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if self.is_closed() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// Route one request line; `None` for blank lines.
    fn route_line(&self, conns: &mut [Option<ShardConn>], line: &str) -> Option<String> {
        if line.trim().is_empty() {
            return None;
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, e)) => return Some(error_response(id, &e)),
        };
        let id = req.id();
        let target = match &req {
            Request::Compile { req, .. } => self.shard_for(req),
            // A wire batch is one unit: it rides to its first member's
            // shard (an empty batch is stateless — any shard).
            Request::Batch { reqs, .. } => {
                reqs.first().map(|r| self.shard_for(r)).unwrap_or_else(|| self.any_healthy())
            }
            Request::Machines { .. } | Request::Stats { .. } | Request::Metrics { .. } => {
                self.any_healthy()
            }
            Request::Shutdown { .. } => {
                return Some(self.broadcast_shutdown(conns, line, id));
            }
        };
        Some(match self.forward(conns, target, line) {
            Ok(resp) => resp,
            Err(e) => error_response(id, &e),
        })
    }

    /// Forward `shutdown` to every shard (best effort), ack the client,
    /// and close the router.
    fn broadcast_shutdown(
        &self,
        conns: &mut [Option<ShardConn>],
        line: &str,
        id: u64,
    ) -> String {
        let mut acked = 0usize;
        for i in 0..self.shards.len() {
            if self.try_shard(conns, i, line).is_ok() {
                acked += 1;
            }
        }
        self.closed.store(true, Ordering::Relaxed);
        ok_response(
            id,
            &format!(
                "{{\"shutdown\":true,\"shards_acked\":{acked},\"shards\":{}}}",
                self.shards.len()
            ),
        )
    }

    /// Accept and route client connections until a `shutdown` is routed.
    /// Accept failures are contained exactly like the server's loop.
    ///
    /// # Errors
    ///
    /// Only for listener-level setup failure.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            let mut conns = Vec::new();
            while !self.is_closed() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        conns.push(scope.spawn(move || self.handle_conn(stream)));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(())
    }

    /// Render the router's own health view as one JSON line (logged at
    /// startup and probed by operators via `health_check`).
    pub fn health_object(&self) -> String {
        let entries: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"addr\":\"{}\",\"healthy\":{}}}",
                    json_escape(&s.addr),
                    s.healthy.load(Ordering::Relaxed)
                )
            })
            .collect();
        format!("{{\"shards\":[{}]}}", entries.join(","))
    }
}
