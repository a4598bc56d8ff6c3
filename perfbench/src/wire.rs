//! The wire workloads: closed loops over loopback TCP against a spawned
//! `svd --tcp` (default flags), driven through the shipped
//! `RetryClient<TcpTransport>`, every response byte-checked against an
//! in-process `ServeService::compile_body` of the same request.

use crate::inputs::{miss_request, warm_set};
use crate::layers::{
    compile_layer_metrics, median_self_us, self_ms, traced_compile, zeroed_layer_sheet,
    CompileRecord, REPORTED,
};
use crate::stats::{median, percentile, sorted, Latencies, Sheet};
use crate::trace::Tracer;
use crate::{status_mb, Outcome};
use std::collections::HashMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use sv_core::cache::render_result;
use sv_core::{compile_checked, request_key, CompiledLoop, Strategy};
use sv_machine::MachineConfig;
use sv_serve::client::Transport;
use sv_serve::json::{self, Value};
use sv_serve::proto::{batch_response, ok_response};
use sv_serve::{
    parse_request, BatchConfig, Batcher, CompileRequest, InProcess, Request, RetryClient,
    RetryPolicy, RetryStats, ServeService, TcpTransport,
};
use sv_sim::executed_selfcheck;
use sv_workloads::SmallRng;

/// Daemon start-ups timed for `setup_s`; the median is reported and the
/// last daemon is the one measured.
const SETUPS: usize = 3;

/// How a wire workload drives the daemon.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Concurrent closed-loop connections (one thread each).
    pub connections: usize,
    /// Share of requests that are never-seen misses.
    pub miss_share: f64,
    /// Send the machine as inline spec text instead of naming `paper`.
    pub inline_spec: bool,
    /// The strategies a connection's misses cycle through, in order.
    pub miss_strategies: &'static [Strategy],
}

impl Shape {
    /// The `n`th miss of connection `conn` under `seed`.
    fn miss(&self, seed: u64, conn: u64, n: u64) -> CompileRequest {
        let strategy = self.miss_strategies[n as usize % self.miss_strategies.len()];
        miss_request(seed, conn, n, self.inline_spec, strategy)
    }
}

/// `wire_warm`: one connection, every request a hit, machine by name.
pub const WARM: Shape = Shape {
    connections: 1,
    miss_share: 0.0,
    inline_spec: false,
    miss_strategies: &[Strategy::Selective],
};
/// `wire_mixed`: two connections, ~10% misses under `selective`, machine
/// inline.
pub const MIXED: Shape = Shape {
    connections: 2,
    miss_share: 0.1,
    inline_spec: true,
    miss_strategies: &[Strategy::Selective],
};
/// `wire_compile`: one connection, every request a miss, the strategy
/// cycling through modulo, traditional, full, selective and optimal.
pub const COMPILE: Shape =
    Shape { connections: 1, miss_share: 1.0, inline_spec: false, miss_strategies: &REPORTED };

/// A spawned `svd --tcp 127.0.0.1:0` and its announced address.
pub(crate) struct Svd {
    child: Child,
    /// `host:port` read from the daemon's port file.
    pub addr: String,
}

impl Svd {
    /// Start a daemon with default flags (plus an ephemeral port and a
    /// port file under `dir`) and wait for its address.
    pub(crate) fn spawn(bin: &Path, dir: &Path, tag: &str) -> Result<Svd, String> {
        let port_file = dir.join(format!("svd-{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join(format!("svd-{tag}.log")))
            .map_err(|e| format!("svd log: {e}"))?;
        let child = Command::new(bin)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut svd = Svd { child, addr: String::new() };
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim();
                if text.parse::<std::net::SocketAddr>().is_ok() {
                    svd.addr = text.to_string();
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(svd);
                }
            }
            if let Ok(Some(status)) = svd.child.try_wait() {
                return Err(format!("svd exited before listening: {status}"));
            }
            if Instant::now() > give_up {
                return Err("svd did not announce a port within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One request over a fresh connection (no retries).
    pub(crate) fn call(&self, line: &str) -> Result<String, String> {
        TcpTransport::new(self.addr.clone()).call(line).map_err(|e| format!("{e:?}"))
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub(crate) fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| status_mb(&s, "VmHWM:"))
            .unwrap_or(0.0)
    }

    /// Ask the daemon to drain and exit, and wait for it.
    pub(crate) fn shutdown(&mut self) -> Result<(), String> {
        let ack = self.call("{\"verb\":\"shutdown\",\"id\":0}");
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return ack.map(drop),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("svd did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Svd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The warm set and the reference bodies every response is checked
/// against.
struct Reference {
    warm: Vec<CompileRequest>,
    /// Each warm request's wire line split around its id.
    lines: Vec<(String, String)>,
    bodies: Vec<Arc<str>>,
    /// Time to generate the warm set (ms).
    gen_ms: f64,
}

impl Reference {
    fn new(shape: Shape) -> Result<Reference, String> {
        let t0 = Instant::now();
        let warm = warm_set(shape.inline_spec);
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let svc = ServeService::in_memory();
        let bodies = warm
            .iter()
            .map(|r| svc.compile_body(r).map(|(b, _)| b).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        // `to_wire` renders `{"verb":"compile","id":N,...}`: keep the text
        // around the id so a request line is one format, not a re-render.
        let lines = warm
            .iter()
            .map(|r| {
                let w = r.to_wire(0);
                let (head, tail) = w.split_once("\"id\":0,").expect("wire line carries an id");
                (format!("{head}\"id\":"), format!(",{tail}"))
            })
            .collect();
        Ok(Reference { warm, lines, bodies, gen_ms })
    }

    /// The wire line of warm request `i` with correlation id `id`.
    fn line(&self, i: usize, id: u64) -> String {
        let (head, tail) = &self.lines[i];
        format!("{head}{id}{tail}")
    }

    /// The whole warm set as one `batch` line, and its expected response.
    fn warm_batch(&self) -> (String, String) {
        let subs: Vec<String> = self.warm.iter().map(|r| r.to_wire(0)).collect();
        let line = format!("{{\"verb\":\"batch\",\"id\":1,\"requests\":[{}]}}", subs.join(","));
        let elements: Vec<String> = self.bodies.iter().map(|b| b.to_string()).collect();
        (line, batch_response(1, &elements))
    }

    /// A fresh in-memory service holding exactly the warm set.
    fn seeded_service(&self) -> ServeService {
        let svc = ServeService::in_memory();
        for (r, b) in self.warm.iter().zip(&self.bodies) {
            let l = sv_ir::parse_loop(&r.loop_text).expect("warm loop text parses");
            let m = r.machine_config(svc.registry()).expect("warm machine resolves");
            svc.cache().insert(request_key(&l, &m, &r.driver_config()), Arc::clone(b));
        }
        svc
    }
}

/// Spawn, announce and warm one daemon; returns it with the set-up time.
fn start(bin: &Path, dir: &Path, tag: &str, reference: &Reference) -> Result<(Svd, f64), String> {
    let (line, expected) = reference.warm_batch();
    let t0 = Instant::now();
    let svd = Svd::spawn(bin, dir, tag)?;
    let got = svd.call(&line)?;
    let secs = t0.elapsed().as_secs_f64();
    if got != expected {
        return Err("warm-up batch response differs from the in-process bodies".into());
    }
    Ok((svd, secs))
}

/// What a connection sent: a warm-set hit or its `n`th miss.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Hit(usize),
    Miss(u64),
}

/// One request a connection sent.
#[derive(Debug, Clone, Copy)]
struct Sent {
    id: u64,
    kind: Kind,
}

/// What one closed-loop connection observed.
#[derive(Default)]
struct Conn {
    index: u64,
    lat_us: Vec<f64>,
    sent: Vec<Sent>,
    /// Miss responses by position in `sent`, checked after the timed loop.
    miss_responses: Vec<(usize, String)>,
    failed: u64,
    failures: Vec<String>,
    bytes_in: u64,
    bytes_out: u64,
    stats: RetryStats,
    window: Option<(Instant, Instant)>,
}

/// The wire line of a sent request (misses are regenerated from the seed).
fn line_of(reference: &Reference, shape: Shape, seed: u64, conn: u64, s: Sent) -> String {
    match s.kind {
        Kind::Hit(i) => reference.line(i, s.id),
        Kind::Miss(n) => shape.miss(seed, conn, n).to_wire(s.id),
    }
}

/// Drive one connection for `seconds`.
fn drive(
    addr: &str,
    reference: &Reference,
    shape: Shape,
    seed: u64,
    conn: u64,
    seconds: f64,
    barrier: &Barrier,
) -> Conn {
    let policy = RetryPolicy { seed: seed ^ conn, ..RetryPolicy::default() };
    let mut client = RetryClient::new(TcpTransport::new(addr.to_string()), policy);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (conn + 1));
    let mut out = Conn { index: conn, ..Conn::default() };
    let mut misses = 0u64;
    barrier.wait();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        let id = (conn + 1) * 1_000_000_000 + out.sent.len() as u64;
        let kind = if shape.miss_share > 0.0 && rng.chance(shape.miss_share) {
            misses += 1;
            Kind::Miss(misses - 1)
        } else {
            Kind::Hit(rng.index(reference.warm.len()))
        };
        let sent = Sent { id, kind };
        let line = line_of(reference, shape, seed, conn, sent);
        let t0 = Instant::now();
        let r = client.call(&line, None);
        out.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.bytes_in += line.len() as u64 + 1;
        match (r, kind) {
            (Ok(resp), Kind::Hit(i)) => {
                out.bytes_out += resp.len() as u64 + 1;
                if resp != ok_response(id, &reference.bodies[i]) {
                    out.failed += 1;
                    out.failures.push(format!("request {id}: wrong bytes for a hit"));
                }
            }
            (Ok(resp), Kind::Miss(_)) => {
                out.bytes_out += resp.len() as u64 + 1;
                out.miss_responses.push((out.sent.len(), resp));
            }
            (Err(e), _) => {
                out.failed += 1;
                out.failures.push(format!("request {id}: {e}"));
            }
        }
        out.sent.push(sent);
    }
    out.window = Some((start, Instant::now()));
    out.stats = client.stats();
    out
}

/// Compile a request the way the daemon does and run the delivered code
/// through `sv_sim::executed_selfcheck`; returns (pieces, pieces at the
/// scheduled II).
fn executed_check(svc: &ServeService, req: &CompileRequest) -> Result<(u64, u64), String> {
    let l = sv_ir::parse_loop(&req.loop_text).map_err(|e| e.to_string())?;
    let m = req.machine_config(svc.registry()).map_err(|e| e.to_string())?;
    let (c, _) = compile_checked(&l, &m, &req.driver_config()).map_err(|e| e.to_string())?;
    executed_pieces(&c, &m)
}

/// `sv_sim::executed_selfcheck` of delivered code: (pieces, pieces at the
/// scheduled II).
fn executed_pieces(c: &CompiledLoop, m: &MachineConfig) -> Result<(u64, u64), String> {
    let pieces = executed_selfcheck(c, m)?;
    let at_ii = pieces.iter().filter(|p| p.report.steady_state_ok(p.scheduled_ii)).count();
    Ok((pieces.len() as u64, at_ii as u64))
}

/// Check every miss response against an in-process compile of the same
/// request, and hold the compiled code to the executed check; returns
/// the number of misses that fail either.
fn check_misses(conns: &mut [Conn], shape: Shape, seed: u64) -> u64 {
    let svc = ServeService::in_memory();
    let mut bad = 0;
    for c in conns.iter_mut() {
        for (k, resp) in &c.miss_responses {
            let s = c.sent[*k];
            let Kind::Miss(n) = s.kind else { continue };
            let req = shape.miss(seed, c.index, n);
            let failure = match svc.compile_body(&req) {
                Ok((body, _)) if *resp == ok_response(s.id, &body) => {
                    executed_check(&svc, &req).err().map(|e| format!("executed check: {e}"))
                }
                Ok(_) => Some("wrong bytes for a miss".to_string()),
                Err(e) => Some(format!("in-process compile failed: {e}")),
            };
            if let Some(f) = failure {
                bad += 1;
                c.failures.push(format!("request {}: {f}", s.id));
            }
        }
    }
    bad
}

/// Counters from the daemon's `stats` verb.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    compiles: u64,
    flushes: u64,
    rejected: u64,
}

fn server_counters(svd: &Svd) -> Result<ServerCounters, String> {
    let resp = svd.call("{\"verb\":\"stats\",\"id\":2}")?;
    let v = json::parse(&resp)?;
    let get = |section: &str, key: &str| -> u64 {
        v.get("result")
            .and_then(|r| r.get(section))
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Ok(ServerCounters {
        hits: get("cache", "mem_hits") + get("cache", "disk_hits"),
        misses: get("cache", "misses"),
        evictions: get("cache", "evictions"),
        compiles: get("queue", "compiles"),
        flushes: get("queue", "flushes"),
        rejected: get("queue", "rejected"),
    })
}

/// Everything one measured wire run produced.
struct WireRun {
    reference: Reference,
    conns: Vec<Conn>,
    setup_s: f64,
    peak_rss_mb: f64,
    before: ServerCounters,
    after: ServerCounters,
    window_s: f64,
    failed: u64,
}

fn run_wire(
    bin: &Path,
    dir: &Path,
    shape: Shape,
    seed: u64,
    seconds: f64,
    setups: usize,
) -> Result<WireRun, String> {
    let reference = Reference::new(shape)?;
    let mut setup = Vec::with_capacity(setups);
    let mut svd = None;
    for k in 0..setups {
        if let Some(mut old) = svd.take() {
            Svd::shutdown(&mut old)?;
        }
        let (d, secs) = start(bin, dir, &format!("{seed}-{k}"), &reference)?;
        setup.push(secs);
        svd = Some(d);
    }
    let mut svd = svd.expect("at least one set-up");
    let before = server_counters(&svd)?;
    let barrier = Barrier::new(shape.connections);
    let mut conns: Vec<Conn> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.connections as u64)
            .map(|c| {
                let (addr, reference, barrier) = (&svd.addr, &reference, &barrier);
                s.spawn(move || drive(addr, reference, shape, seed, c, seconds, barrier))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let after = server_counters(&svd)?;
    let peak_rss_mb = svd.peak_rss_mb();
    svd.shutdown()?;
    let first = conns.iter().filter_map(|c| c.window).map(|w| w.0).min().expect("window");
    let last = conns.iter().filter_map(|c| c.window).map(|w| w.1).max().expect("window");
    let failed =
        conns.iter().map(|c| c.failed).sum::<u64>() + check_misses(&mut conns, shape, seed);
    Ok(WireRun {
        reference,
        conns,
        setup_s: median(&setup),
        peak_rss_mb,
        before,
        after,
        window_s: (last - first).as_secs_f64(),
        failed,
    })
}

fn latencies(run: &WireRun) -> Latencies {
    Latencies::new(run.conns.iter().flat_map(|c| c.lat_us.iter().copied()).collect())
}

fn attempted(run: &WireRun) -> u64 {
    run.conns.iter().map(|c| c.sent.len() as u64).sum()
}

fn failure_notes(run: &WireRun) -> Vec<String> {
    run.conns
        .iter()
        .flat_map(|c| c.failures.iter().take(20))
        .map(|f| format!("FAILED {f}"))
        .collect()
}

/// Σ cycles over the warm set's delivered code, and the share delivered
/// by the requested strategy, read from the reference bodies the daemon
/// matched byte for byte.
fn warm_code(reference: &Reference) -> (f64, f64) {
    let mut cycles = 0u64;
    let mut clean = 0usize;
    for b in &reference.bodies {
        let v = json::parse(b).expect("reference body is JSON");
        cycles += v.get("cycles").and_then(Value::as_u64).unwrap_or(0);
        clean += usize::from(
            v.get("fallbacks").and_then(Value::as_arr).is_some_and(<[Value]>::is_empty),
        );
    }
    (cycles as f64 / 1e6, clean as f64 / reference.bodies.len().max(1) as f64)
}

/// The untraced measurement: end-to-end rows.
pub fn measure(
    bin: &Path,
    dir: &Path,
    shape: Shape,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let run = run_wire(bin, dir, shape, seed, seconds, SETUPS)?;
    let lat = latencies(&run);
    let attempted = attempted(&run);
    let (code_mcycles, decided) = warm_code(&run.reference);
    let mut sheet = Sheet::default();
    sheet.set("ops_per_s", attempted as f64 / run.window_s, "1/s");
    sheet.set("p50_us", lat.p(50.0), "us");
    sheet.set("p90_us", lat.p(90.0), "us");
    sheet.set("success_rate", 1.0 - run.failed as f64 / attempted.max(1) as f64, "ratio");
    sheet.set("setup_s", run.setup_s, "s");
    sheet.set("peak_rss_mb", run.peak_rss_mb, "MB");
    sheet.set("code_mcycles", code_mcycles, "Mcycles");
    sheet.set("decided_share", decided, "ratio");
    let misses: usize = run.conns.iter().map(|c| c.miss_responses.len()).sum();
    let mut notes = vec![
        format!(
            "{attempted} requests ({misses} misses) on {} connection(s) in {:.3} s",
            shape.connections, run.window_s
        ),
        lat.describe("client-observed request"),
    ];
    notes.extend(failure_notes(&run));
    Ok(Outcome { sheet, attempted, failed: run.failed, notes, spans: None })
}

/// Requests per connection that a traced run replays in-process: a
/// prefix of what the connection sent, so replay time stays bounded
/// however fast the daemon answers.
const REPLAY_MAX: usize = 2000;

/// Alternating untraced/traced replay rounds behind the overhead figure.
const OVERHEAD_ROUNDS: usize = 5;

/// One request replayed in-process, with the bytes the daemon answered.
struct Replay {
    conn: usize,
    id: u64,
    line: String,
    expected: Option<String>,
}

fn replay_items(run: &WireRun, shape: Shape, seed: u64) -> Vec<Replay> {
    let mut out = Vec::new();
    for (ci, c) in run.conns.iter().enumerate() {
        let misses: HashMap<usize, &String> =
            c.miss_responses.iter().map(|(k, r)| (*k, r)).collect();
        for (k, &s) in c.sent.iter().take(REPLAY_MAX).enumerate() {
            let expected = match s.kind {
                Kind::Hit(i) => Some(ok_response(s.id, &run.reference.bodies[i])),
                Kind::Miss(_) => misses.get(&k).map(|r| (*r).clone()),
            };
            let line = line_of(&run.reference, shape, seed, c.index, s);
            out.push(Replay { conn: ci, id: s.id, line, expected });
        }
    }
    out
}

/// Replay through a warm service's public entry point without spans;
/// returns per-request times (ns) and the total wall time (s).
fn replay_direct(reference: &Reference, items: &[Replay]) -> (Vec<u64>, f64) {
    let svc = reference.seeded_service();
    let t0 = Instant::now();
    let out = items
        .iter()
        .map(|r| {
            let t = Instant::now();
            let line = match parse_request(&r.line) {
                Ok(Request::Compile { id, req }) => match svc.compile_body(&req) {
                    Ok((body, _)) => ok_response(id, &body),
                    Err(e) => e.to_string(),
                },
                _ => String::new(),
            };
            std::hint::black_box(line);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    (out, t0.elapsed().as_secs_f64())
}

/// What a layer-by-layer replay produced.
struct TracedReplay {
    /// The response line of each replayed request.
    lines: Vec<String>,
    /// One record per miss compile.
    recs: Vec<CompileRecord>,
    /// Rendered body sizes of the misses.
    rendered: Vec<usize>,
    /// Each miss's request id, delivered code and machine.
    delivered: Vec<(u64, CompiledLoop, MachineConfig)>,
    /// Wall time of the replay (s).
    secs: f64,
}

/// Replay layer by layer inside spans — the path
/// `ServeService::compile_body` takes, called from outside: request
/// parse, loop parse, machine resolution, key derivation, cache lookup,
/// and on a miss compile, render and insert.
fn replay_traced(tr: &mut Tracer, reference: &Reference, items: &[Replay]) -> TracedReplay {
    let svc = reference.seeded_service();
    let mut lines = Vec::with_capacity(items.len());
    let mut recs = Vec::new();
    let mut rendered = Vec::new();
    let mut delivered = Vec::new();
    let t0 = Instant::now();
    for r in items {
        let (line, _) = tr.span("request", r.id, |tr| -> Result<String, String> {
            let (parsed, _) = tr.span("proto.parse", r.id, |_| parse_request(&r.line));
            let Ok(Request::Compile { id, req }) = parsed else {
                return Err("replayed line is not a compile request".into());
            };
            let (l, _) = tr.span("ir.parse", id, |_| sv_ir::parse_loop(&req.loop_text));
            let l = l.map_err(|e| e.to_string())?;
            let (m, _) = tr.span("machine.resolve", id, |_| req.machine_config(svc.registry()));
            let m = m.map_err(|e| e.to_string())?;
            let cfg = req.driver_config();
            let (key, _) = tr.span("cache.key", id, |_| request_key(&l, &m, &cfg));
            let (hit, _) = tr.span("cache.lookup", id, |_| svc.cache().lookup(key));
            let body = match hit {
                Some((body, _)) => body,
                None => {
                    let (c, rep, rec) =
                        traced_compile(tr, id, &l, &m, &cfg).map_err(|e| e.to_string())?;
                    recs.push(rec);
                    let (body, _) = tr.span("render", id, |_| render_result(key, &m, &c, &rep));
                    rendered.push(body.len());
                    let body: Arc<str> = Arc::from(body);
                    tr.span("cache.insert", id, |_| svc.cache().insert(key, Arc::clone(&body)));
                    delivered.push((id, c, m));
                    body
                }
            };
            Ok(tr.span("proto.render", id, |_| ok_response(id, &body)).0)
        });
        lines.push(line.unwrap_or_else(|e| e));
    }
    TracedReplay { lines, recs, rendered, delivered, secs: t0.elapsed().as_secs_f64() }
}

/// Replay each connection's requests through an in-process `Batcher`
/// (default batching, as `svd` runs it) behind the same retrying client,
/// one thread per connection; returns per-request round trips (µs) in
/// `items` order.
fn replay_batcher(
    reference: &Reference,
    items: &[Replay],
    connections: usize,
) -> Result<Vec<f64>, String> {
    let cfg = BatchConfig { jobs: sv_core::parallel::default_jobs(), ..BatchConfig::default() };
    let batcher = Arc::new(Batcher::new(Arc::new(reference.seeded_service()), cfg));
    let per_conn: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let batcher = Arc::clone(&batcher);
                s.spawn(move || {
                    let mut client =
                        RetryClient::new(InProcess::new(batcher), RetryPolicy::default());
                    items
                        .iter()
                        .filter(|r| r.conn == ci)
                        .map(|r| {
                            let t0 = Instant::now();
                            let resp = client.call(&r.line, None).map_err(|e| e.to_string())?;
                            let us = t0.elapsed().as_secs_f64() * 1e6;
                            std::hint::black_box(resp);
                            Ok(us)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    let batcher = Arc::try_unwrap(batcher).map_err(|_| "batcher still shared".to_string())?;
    batcher.join().map_err(|e| e.to_string())?;
    Ok(per_conn.into_iter().collect::<Result<Vec<_>, _>>()?.concat())
}

/// The header line (`loop NAME (...)`) of a sent request's loop.
fn loop_header(run: &WireRun, shape: Shape, seed: u64, conn: u64, s: Sent) -> String {
    let text = match s.kind {
        Kind::Hit(i) => run.reference.warm[i].loop_text.clone(),
        Kind::Miss(n) => shape.miss(seed, conn, n).loop_text,
    };
    text.lines().next().unwrap_or_default().to_string()
}

/// The traced run: one wire phase (client-observed latencies, retries,
/// daemon counters), then a prefix of the same requests replayed
/// in-process directly, layer by layer inside spans, and through a
/// `Batcher`.
pub fn traced(
    bin: &Path,
    dir: &Path,
    shape: Shape,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let run = run_wire(bin, dir, shape, seed, seconds, 1)?;
    let wire = latencies(&run);
    let items = replay_items(&run, shape, seed);
    let (direct_ns, first_untraced) = replay_direct(&run.reference, &items);
    let mut tr = Tracer::default();
    let replay = replay_traced(&mut tr, &run.reference, &items);
    let first_traced = replay.secs;
    // A replay is short; alternate a few more rounds of each and compare
    // medians so the overhead figure is not one round's noise.
    let (mut untraced, mut traced) = (vec![first_untraced], vec![first_traced]);
    for _ in 1..OVERHEAD_ROUNDS {
        untraced.push(replay_direct(&run.reference, &items).1);
        traced.push(replay_traced(&mut Tracer::default(), &run.reference, &items).secs);
    }
    let (untraced_s, traced_s) = (median(&untraced), median(&traced));
    let replay_bad = replay
        .lines
        .iter()
        .zip(&items)
        .filter(|(line, r)| r.expected.as_ref().is_some_and(|e| e != *line))
        .count() as u64;
    let round_trips = replay_batcher(&run.reference, &items, shape.connections)?;
    let batcher = Latencies::new(round_trips.clone());
    let waits = sorted(
        round_trips.iter().zip(&direct_ns).map(|(rt, &d)| (rt - d as f64 / 1e3).max(0.0)).collect(),
    );

    let mut sheet = zeroed_layer_sheet();
    let n = attempted(&run).max(1) as f64;
    let (retries, give_ups) =
        run.conns.iter().fold((0, 0), |(r, g), c| (r + c.stats.retries, g + c.stats.give_ups));
    sheet.set("transport.p50_us", wire.p(50.0) - batcher.p(50.0), "us");
    sheet.set("client.retries", retries as f64, "count");
    sheet.set("client.give_ups", give_ups as f64, "count");
    sheet.set("proto.parse_us", median_self_us(&tr, "proto.parse"), "us");
    sheet.set(
        "proto.bytes_in",
        run.conns.iter().map(|c| c.bytes_in).sum::<u64>() as f64 / n,
        "bytes",
    );
    sheet.set(
        "proto.bytes_out",
        run.conns.iter().map(|c| c.bytes_out).sum::<u64>() as f64 / n,
        "bytes",
    );
    sheet.set("batch.wait_p50_us", percentile(&waits, 50.0), "us");
    sheet.set("batch.wait_p99_us", percentile(&waits, 99.0), "us");
    let d = |f: fn(&ServerCounters) -> u64| f(&run.after).saturating_sub(f(&run.before));
    sheet.set(
        "batch.occupancy",
        d(|c| c.compiles) as f64 / d(|c| c.flushes).max(1) as f64,
        "ratio",
    );
    sheet.set("batch.rejected", d(|c| c.rejected) as f64, "count");
    sheet.set("ir.parse_us", median_self_us(&tr, "ir.parse"), "us");
    sheet.set("machine.resolve_us", median_self_us(&tr, "machine.resolve"), "us");
    sheet.set("cache.key_us", median_self_us(&tr, "cache.key"), "us");
    sheet.set("cache.lookup_us", median_self_us(&tr, "cache.lookup"), "us");
    sheet.set("cache.insert_us", median_self_us(&tr, "cache.insert"), "us");
    let (hits, misses) = (d(|c| c.hits), d(|c| c.misses));
    sheet.set("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    sheet.set("cache.evictions", d(|c| c.evictions) as f64, "count");
    compile_layer_metrics(&mut sheet, &tr, &replay.recs);
    sheet.set("render.us", median_self_us(&tr, "render"), "us");
    let rendered = &replay.rendered;
    let render_bytes = rendered.iter().sum::<usize>() as f64 / rendered.len().max(1) as f64;
    sheet.set("render.bytes", render_bytes, "bytes");
    let (mut pieces, mut at_ii, mut exec_bad) = (0, 0, 0u64);
    for (id, c, m) in &replay.delivered {
        match tr.span("sim.check", *id, |_| executed_pieces(c, m)).0 {
            Ok((p, a)) => (pieces, at_ii) = (pieces + p, at_ii + a),
            Err(_) => exec_bad += 1,
        }
    }
    sheet.set("sim.check_ms", self_ms(&tr, "sim.check"), "ms");
    sheet.set("sim.at_ii_ratio", at_ii as f64 / pieces.max(1) as f64, "ratio");
    sheet.set("workloads.gen_ms", run.reference.gen_ms, "ms");
    sheet.set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0, "%");
    let total_us: f64 = run.conns.iter().flat_map(|c| c.lat_us.iter()).sum();
    sheet.set("slowest_op_ms", wire.max() / 1e3, "ms");
    sheet.set("slowest_op_share", wire.max() / total_us.max(1.0), "ratio");
    let slowest = run
        .conns
        .iter()
        .flat_map(|c| c.lat_us.iter().zip(&c.sent).map(move |(us, s)| (*us, c.index, *s)))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, conn, s)| loop_header(&run, shape, seed, conn, s))
        .unwrap_or_default();
    let failed = run.failed + replay_bad + exec_bad;
    let mut notes = vec![
        wire.describe("client-observed request"),
        batcher.describe("in-process Batcher round trip"),
        format!("slowest request: `{slowest}` at {:.3} ms", wire.max() / 1e3),
        format!(
            "traced replay {traced_s:.4} s vs untraced {untraced_s:.4} s (medians of {OVERHEAD_ROUNDS} rounds) over {} requests",
            items.len()
        ),
        format!(
            "daemon counters over the timed loop: {hits} hits, {misses} misses, {} flushes",
            d(|c| c.flushes)
        ),
    ];
    if exec_bad > 0 {
        notes.push(format!("FAILED {exec_bad} replayed misses failed the executed check"));
    }
    if replay_bad > 0 {
        notes.push(format!(
            "FAILED {replay_bad} traced replays produced other bytes than the daemon"
        ));
    }
    notes.extend(failure_notes(&run));
    Ok(Outcome { sheet, attempted: attempted(&run), failed, notes, spans: Some(tr) })
}
