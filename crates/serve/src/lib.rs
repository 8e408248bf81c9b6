//! # sdfg-serve — SDFG-as-a-service
//!
//! A long-running, multi-tenant execution server over the
//! compile-once/invoke-many [`Session`](sdfg_exec::Session) API. Tenants
//! `POST` a serialized SDFG once and get back a content-hash handle; the
//! program is validated and optimized at submit time, and every
//! subsequent invoke binds inputs, runs, and streams outputs back — no
//! per-request compilation. All resident programs share one plan cache,
//! buffer pool, tuning database and work-stealing scheduler pool, so
//! tenants transparently benefit from each other's warmed state.
//!
//! The wire protocol is deliberately small (std-only HTTP/1.1 with
//! keep-alive, thread-per-connection):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/programs` | submit a serialized SDFG → `{"program": "<hash>"}` |
//! | `POST /v1/programs/{hash}/invoke` | bind inputs, execute, return outputs |
//! | `GET /v1/programs` | registry listing with per-program usage stats |
//! | `GET /metrics` | Prometheus exposition (the process-global registry) |
//! | `GET /healthz` | liveness probe |
//!
//! Robustness: invokes pass a bounded admission queue (overflow is shed
//! with `429` + `Retry-After`), each tenant (`x-api-key` header) has an
//! in-flight cap, and every invoke carries a wall-clock deadline that
//! cancels the run between SDFG states (`504`, registry unharmed). An
//! invoke whose containers, sized under its symbols, exceed the
//! per-invoke byte budget is refused before any allocation (`413`).
//! Every request lands in the run ledger tagged with tenant and request
//! id.

pub mod admission;
pub mod http;
pub mod registry;

pub use admission::{Admission, Permit, Reject};
pub use registry::{ProgramEntry, Registry, RegistryConfig, Submitted};

use http::{ParseError, Request, Response};
use sdfg_core::serialize::{Json, JsonCursor};
use sdfg_core::SdfgError;
use sdfg_exec::Bindings;
use sdfg_profile::{ledger, metrics};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the server needs to start; `Default` is a sane
/// single-machine configuration on an ephemeral port.
pub struct ServerConfig {
    /// Port to bind on `127.0.0.1` (0 = ephemeral, see
    /// [`Server::addr`]).
    pub port: u16,
    /// Execution policy for registered programs.
    pub registry: RegistryConfig,
    /// Maximum concurrently executing invokes.
    pub max_inflight: usize,
    /// Invokes allowed to queue beyond the cap before shedding with 429.
    pub queue_depth: usize,
    /// Per-tenant running + queued invoke cap.
    pub tenant_cap: usize,
    /// Default invoke deadline when the request names none, ms.
    pub default_timeout_ms: u64,
    /// Request body cap for invoke payloads, bytes.
    pub max_body_bytes: usize,
    /// Per-invoke cap on the bytes of the program's containers, sized
    /// under the invoke's symbol bindings before anything is allocated.
    pub max_invoke_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            registry: RegistryConfig::default(),
            max_inflight: 4,
            queue_depth: 16,
            tenant_cap: 4,
            default_timeout_ms: 30_000,
            max_body_bytes: 64 << 20,
            max_invoke_bytes: 1 << 30,
        }
    }
}

/// A running server: accept loop on its own thread, one thread per
/// connection. Dropping it stops accepting new connections.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving. With `port` 0 the OS picks an ephemeral
    /// port; read it back from [`Server::addr`].
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new(config.registry));
        let admission = Admission::new(config.max_inflight, config.queue_depth, config.tenant_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            admission: Arc::clone(&admission),
            default_timeout_ms: config.default_timeout_ms,
            max_body_bytes: config.max_body_bytes,
            max_invoke_bytes: config.max_invoke_bytes,
            request_seq: AtomicU64::new(0),
        });
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("sdfg-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name("sdfg-serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared));
                }
            })?;
        Ok(Server {
            addr,
            registry,
            admission,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port for ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared program registry (for embedding and tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Running + queued invokes right now.
    pub fn inflight(&self) -> usize {
        self.admission.inflight()
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight requests on already-accepted connections complete.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-server state every connection thread sees.
struct Shared {
    registry: Arc<Registry>,
    admission: Arc<Admission>,
    default_timeout_ms: u64,
    max_body_bytes: usize,
    max_invoke_bytes: usize,
    request_seq: AtomicU64,
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Every response leaves in one send (`http::write_response`), so
    // Nagle has nothing to coalesce; left on, it would hold a response
    // whose send did not fill a segment until the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut stream = stream;
    loop {
        let req = match http::read_request(&mut reader, shared.max_body_bytes) {
            Ok(req) => req,
            Err(ParseError::Eof) | Err(ParseError::Io(_)) => return,
            Err(ParseError::Bad(msg)) => {
                let resp = error_response(400, "SDFG-H400", &msg);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
            Err(ParseError::TooLarge { limit, got }) => {
                let err = SdfgError::PayloadTooLarge { limit, got };
                let resp = error_response(413, err.code(), &err.to_string());
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let resp = route(&req, shared);
        match http::write_response(&mut stream, &resp, keep_alive) {
            Ok(true) => continue,
            _ => return,
        }
    }
}

fn route(req: &Request, shared: &Shared) -> Response {
    let m = metrics::serve();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            m.requests_other.inc();
            Response::text(200, "ok\n")
        }
        ("GET", "/metrics") => {
            m.requests_other.inc();
            Response::text(200, metrics::global().render_prometheus())
        }
        ("GET", "/v1/programs") => {
            m.requests_other.inc();
            list_programs(shared)
        }
        ("POST", "/v1/programs") => {
            m.requests_submit.inc();
            submit(req, shared)
        }
        ("POST", path) => match invoke_target(path) {
            Some(hash_str) => {
                m.requests_invoke.inc();
                invoke(req, shared, hash_str)
            }
            None => {
                m.requests_other.inc();
                error_response(404, "SDFG-H404", &format!("no route for `{path}`"))
            }
        },
        (_, path) => {
            m.requests_other.inc();
            error_response(
                405,
                "SDFG-H405",
                &format!("method {} not supported on `{path}`", req.method),
            )
        }
    }
}

/// Matches `/v1/programs/{hash}/invoke` and returns the hash segment.
fn invoke_target(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/v1/programs/")?;
    let (hash, tail) = rest.split_once('/')?;
    (tail == "invoke" && !hash.is_empty()).then_some(hash)
}

fn tenant_of(req: &Request) -> String {
    req.header("x-api-key")
        .filter(|k| !k.is_empty())
        .unwrap_or("anonymous")
        .to_string()
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn submit(req: &Request, shared: &Shared) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error_response(400, "SDFG-S002", "request body is not UTF-8");
    };
    match shared.registry.submit(body) {
        Ok(sub) => {
            let status = if sub.existing { 200 } else { 201 };
            Response::json(
                status,
                format!(
                    "{{\"program\":\"{:016x}\",\"name\":{},\"existing\":{}}}",
                    sub.hash,
                    json_str(&sub.name),
                    sub.existing
                ),
            )
        }
        Err(err) => sdfg_error_response(&err),
    }
}

fn list_programs(shared: &Shared) -> Response {
    let mut out = String::from("{\"programs\":[");
    for (i, (hash, name, invokes, errors, submit_hits, avg_ms)) in
        shared.registry.list().into_iter().enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"program\":\"{hash:016x}\",\"name\":{},\"invokes\":{invokes},\
             \"errors\":{errors},\"submit_hits\":{submit_hits},\"avg_ms\":{avg_ms}}}",
            json_str(&name),
        ));
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn invoke(req: &Request, shared: &Shared, hash_str: &str) -> Response {
    let m = metrics::serve();
    let Ok(hash) = u64::from_str_radix(hash_str, 16) else {
        return error_response(
            400,
            "SDFG-H400",
            &format!("`{hash_str}` is not a program handle (16 hex digits)"),
        );
    };
    let Some(entry) = shared.registry.get(hash) else {
        return error_response(
            404,
            "SDFG-H404",
            &format!("no program {hash:016x} registered"),
        );
    };
    let (bindings, timeout_ms, outputs_filter) =
        match decode_invoke_body(&req.body, shared.max_body_bytes) {
            Ok(parts) => parts,
            Err(resp) => return resp,
        };
    let need = entry.footprint_bytes(&bindings);
    if need > shared.max_invoke_bytes as u64 {
        let err = SdfgError::MemoryBudget {
            limit: shared.max_invoke_bytes,
            need,
        };
        return sdfg_error_response(&err);
    }
    let tenant = tenant_of(req);
    let request_id = format!(
        "req-{}",
        shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1
    );
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(shared.default_timeout_ms));
    let deadline = Instant::now() + timeout;

    m.inflight.add(1);
    let t0 = Instant::now();
    let result = (|| {
        let _permit = match shared.admission.admit(&tenant, deadline) {
            Ok(p) => p,
            Err(reject) => return Err(reject_response(reject)),
        };
        // The permit may have been granted with part of the budget spent
        // queueing; the run gets only what remains.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            m.rejected_timeout.inc();
            let err = SdfgError::Timeout {
                ms: timeout.as_millis() as u64,
            };
            return Err(sdfg_error_response(&err));
        }
        let _scope = ledger::request_scope(&tenant, &request_id);
        entry.invoke(bindings, Some(remaining)).map_err(|err| {
            if matches!(err, SdfgError::Timeout { .. }) {
                m.rejected_timeout.inc();
            }
            sdfg_error_response(&err)
        })
    })();
    m.inflight.add(-1);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    m.request_duration_ms.observe(wall_ms);

    let out = match result {
        Ok(out) => out,
        Err(resp) => return resp.with_header("x-request-id", request_id),
    };
    let arrays = out.into_arrays();
    let mut body = format!("{{\"program\":\"{hash:016x}\",\"outputs\":{{");
    let mut names: Vec<&String> = match &outputs_filter {
        Some(want) => {
            for name in want {
                if !arrays.contains_key(name) {
                    let err = SdfgError::UnknownData { name: name.clone() };
                    return sdfg_error_response(&err).with_header("x-request-id", request_id);
                }
            }
            want.iter().collect()
        }
        None => arrays.keys().collect(),
    };
    names.sort();
    // Most shortest round-trip doubles fit 20 bytes with their comma.
    body.reserve(
        names
            .iter()
            .map(|n| arrays[*n].len() * 20 + n.len() + 4)
            .sum(),
    );
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&json_str(name));
        body.push(':');
        json_f64_array(&mut body, &arrays[*name]);
    }
    let _ = write!(body, "}},\"wall_ms\":{wall_ms}}}");
    Response::json(200, body).with_header("x-request-id", request_id)
}

fn reject_response(reject: Reject) -> Response {
    let m = metrics::serve();
    match reject {
        Reject::QueueFull => {
            m.rejected_queue.inc();
            error_response(429, "SDFG-H429", "admission queue is full; retry shortly")
                .with_header("retry-after", "1".into())
        }
        Reject::TenantCap => {
            m.rejected_tenant.inc();
            error_response(
                429,
                "SDFG-H429",
                "tenant in-flight cap reached; retry shortly",
            )
            .with_header("retry-after", "1".into())
        }
        Reject::Timeout => {
            m.rejected_timeout.inc();
            error_response(
                504,
                "SDFG-X004",
                "deadline expired while queued for admission",
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Wire JSON
// ---------------------------------------------------------------------------

type InvokeParts = (Bindings, Option<u64>, Option<Vec<String>>);

/// Decodes an invoke body: `{"symbols": {..}, "arrays": {..},
/// "timeout_ms": N, "outputs": [..]}`; every field optional, and the
/// first of repeated fields wins. Each `arrays` entry streams straight
/// into its `Vec<f64>`, with no [`Json`] tree in between.
fn decode_invoke_body(body: &[u8], max_bytes: usize) -> Result<InvokeParts, Response> {
    if body.is_empty() {
        return Ok((Bindings::new(), None, None));
    }
    let src = std::str::from_utf8(body)
        .map_err(|_| error_response(400, "SDFG-S002", "request body is not UTF-8"))?;
    let syntax = |msg: String| error_response(400, "SDFG-S002", &format!("deserialization: {msg}"));
    let mut c = JsonCursor::new(src, max_bytes).map_err(syntax)?;
    let mut bindings = Bindings::new();
    let (mut timeout_ms, mut outputs) = (None, None);
    if c.peek() != Some(b'{') {
        // Not an object: nothing to bind, but it must still be JSON.
        c.value().map_err(syntax)?;
        c.finish().map_err(syntax)?;
        return Ok((bindings, timeout_ms, outputs));
    }
    c.begin_object().map_err(syntax)?;
    let mut seen: Vec<String> = Vec::new();
    while let Some(key) = c.next_key().map_err(syntax)? {
        if seen.contains(&key) {
            c.value().map_err(syntax)?;
            continue;
        }
        match key.as_str() {
            "arrays" if c.peek() == Some(b'{') => {
                c.begin_object().map_err(syntax)?;
                while let Some(name) = c.next_key().map_err(syntax)? {
                    if c.peek() != Some(b'[') {
                        return Err(bad_field(&format!("array `{name}` must be a JSON array")));
                    }
                    let mut data = Vec::new();
                    c.f64_array(&mut data)
                        .map_err(|msg| syntax(format!("array `{name}`: {msg}")))?;
                    bindings = bindings.array_vec(&name, data);
                }
            }
            "symbols" => {
                if let Json::Obj(pairs) = c.value().map_err(syntax)? {
                    for (name, v) in pairs {
                        bindings = bindings.symbol(&name, symbol_value(&name, &v)?);
                    }
                }
            }
            "timeout_ms" => match c.value().map_err(syntax)? {
                Json::Num(x) if x >= 0.0 => timeout_ms = Some(x as u64),
                _ => return Err(bad_field("timeout_ms must be a non-negative number")),
            },
            "outputs" => {
                let Json::Arr(items) = c.value().map_err(syntax)? else {
                    return Err(bad_field("outputs must be an array of names"));
                };
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Str(s) = item else {
                        return Err(bad_field("outputs must be an array of names"));
                    };
                    names.push(s);
                }
                outputs = Some(names);
            }
            // Unknown fields, and `arrays` that is not an object, are
            // skipped, as the tree decoder skipped them.
            _ => {
                c.value().map_err(syntax)?;
            }
        }
        seen.push(key);
    }
    c.finish().map_err(syntax)?;
    Ok((bindings, timeout_ms, outputs))
}

/// A symbol binding: an integer that fits `i64` exactly.
fn symbol_value(name: &str, v: &Json) -> Result<i64, Response> {
    let Json::Num(x) = v else {
        return Err(bad_field(&format!("symbol `{name}` must be a number")));
    };
    if x.fract() != 0.0 {
        return Err(bad_field(&format!("symbol `{name}` must be an integer")));
    }
    // -2^63 is exact in f64; every integral double in [-2^63, 2^63)
    // converts without saturating.
    let min = i64::MIN as f64;
    if !(min..-min).contains(x) {
        return Err(bad_field(&format!("symbol `{name}` does not fit in i64")));
    }
    Ok(*x as i64)
}

fn bad_field(msg: &str) -> Response {
    error_response(400, "SDFG-S002", msg)
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes an `f64` array. Finite values use Rust's shortest
/// round-trip representation, so a client that reparses them gets
/// bitwise-identical doubles; non-finite values (unrepresentable in
/// JSON) are emitted as `null`.
fn json_f64_array(out: &mut String, data: &[f64]) {
    out.push('[');
    for (i, x) in data.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\":{{\"code\":{},\"message\":{}}}}}",
            json_str(code),
            json_str(message)
        ),
    )
}

/// Maps a typed engine error onto an HTTP status: client-side defects
/// (bad graph, unknown data, shape mismatch, malformed payload) are 4xx,
/// deadline expiry is 504, anything else is the server's fault.
fn sdfg_error_response(err: &SdfgError) -> Response {
    let status = match err {
        SdfgError::PayloadTooLarge { .. } | SdfgError::MemoryBudget { .. } => 413,
        SdfgError::Timeout { .. } => 504,
        SdfgError::Serialize { .. }
        | SdfgError::Validation { .. }
        | SdfgError::UnknownData { .. }
        | SdfgError::ShapeMismatch { .. } => 400,
        _ => 500,
    };
    error_response(status, err.code(), &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn invoke_target_parses() {
        assert_eq!(
            invoke_target("/v1/programs/00ff00ff00ff00ff/invoke"),
            Some("00ff00ff00ff00ff")
        );
        assert_eq!(invoke_target("/v1/programs/abc"), None);
        assert_eq!(invoke_target("/v1/programs//invoke"), None);
        assert_eq!(invoke_target("/v1/other/abc/invoke"), None);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn f64_array_round_trips_bitwise() {
        let vals = [0.1, -1.5e-300, 3.0, f64::MAX, 1.0 / 3.0];
        let mut s = String::new();
        json_f64_array(&mut s, &vals);
        let doc = sdfg_core::serialize::parse_json(&s).unwrap();
        let Json::Arr(items) = doc else { panic!() };
        for (item, want) in items.iter().zip(vals) {
            let Json::Num(got) = item else { panic!() };
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn decode_invoke_body_full() {
        let body =
            br#"{"symbols":{"N":8},"arrays":{"A":[1.0,2.5]},"timeout_ms":250,"outputs":["A"]}"#;
        let Ok((b, timeout, outputs)) = decode_invoke_body(body, 1 << 20) else {
            panic!("body should decode");
        };
        assert_eq!(b.array_names().collect::<Vec<_>>(), vec!["A"]);
        assert_eq!(timeout, Some(250));
        assert_eq!(outputs, Some(vec!["A".to_string()]));
    }

    #[test]
    fn decode_invoke_body_rejects_junk() {
        assert!(decode_invoke_body(b"{\"symbols\":{\"N\":1.5}}", 1 << 20).is_err());
        assert!(decode_invoke_body(b"not json", 1 << 20).is_err());
    }

    /// A splitmix64 stream: seeded, dependency-free bit patterns.
    fn bit_patterns(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    /// The encoder as it was: one `format!` allocation per element.
    fn json_f64_array_by_format(data: &[f64]) -> String {
        let items: Vec<String> = data
            .iter()
            .map(|x| {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    #[test]
    fn f64_array_bytes_match_the_format_encoder() {
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e21,
            1e-7,
            0.1,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let sweep: Vec<f64> = bit_patterns(7, 20_000).map(f64::from_bits).collect();
        for data in [&[][..], &edges[..], &sweep[..]] {
            let mut got = String::from("prefix");
            json_f64_array(&mut got, data);
            assert_eq!(got, format!("prefix{}", json_f64_array_by_format(data)));
        }
    }

    /// `parse_json` then a copy: how the decoder read arrays before.
    fn arrays_via_tree(body: &str) -> HashMap<String, Vec<f64>> {
        let doc = sdfg_core::serialize::parse_json(body).unwrap();
        let Some(Json::Obj(pairs)) = doc.get("arrays") else {
            panic!("no arrays");
        };
        pairs
            .iter()
            .map(|(name, v)| {
                let Json::Arr(items) = v else { panic!() };
                let data = items
                    .iter()
                    .map(|x| match x {
                        Json::Num(x) => *x,
                        _ => panic!(),
                    })
                    .collect();
                (name.clone(), data)
            })
            .collect()
    }

    #[test]
    fn streamed_arrays_equal_parse_json_bitwise() {
        // Shortest, exponent and debug spellings, integers, and a few
        // hand-written forms the grammar also takes.
        let finite: Vec<f64> = bit_patterns(8, 3_000)
            .map(f64::from_bits)
            .filter(|x| x.is_finite())
            .collect();
        let spell = |f: fn(&f64) -> String| -> String {
            let items: Vec<String> = finite.iter().map(f).collect();
            format!("[{}]", items.join(", "))
        };
        let body = format!(
            "{{\"symbols\": {{\"N\": 3}},\n \"arrays\": {{\"short\": {}, \"exp\": {}, \
             \"debug\": {}, \"ints\": [0, -0, 7, 9007199254740993], \
             \"forms\": [1E5, 2.5e+3, -1.0e-310, 123456789012345678901234567890, 1e999],\
             \"empty\": [ ]}}}}",
            spell(|x| format!("{x}")),
            spell(|x| format!("{x:e}")),
            spell(|x| format!("{x:?}")),
        );
        let Ok((bindings, _, _)) = decode_invoke_body(body.as_bytes(), body.len()) else {
            panic!("body should decode");
        };
        let want = arrays_via_tree(&body);
        assert_eq!(bindings.arrays().len(), want.len());
        for (name, want) in &want {
            let got = &bindings.arrays()[name];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "array `{name}`");
        }
    }

    fn rejection(body: &str) -> (u16, String) {
        match decode_invoke_body(body.as_bytes(), 1 << 20) {
            Ok(_) => panic!("`{body}` should be rejected"),
            Err(resp) => (resp.status, String::from_utf8(resp.body).unwrap()),
        }
    }

    #[test]
    fn malformed_arrays_are_400_with_a_position() {
        for body in [
            "{\"arrays\": {\"A\": [1.0, 2.5",
            "{\"arrays\": {\"A\": [1.0, null]}}",
            "{\"arrays\": {\"A\": [1.0, \"x\"]}}",
            "{\"arrays\": {\"A\": [1.0 2.0]}}",
            "{\"arrays\": {\"A\": [1.0]}} trailing",
            "{\"arrays\": {\"A\": [1.0]},\n \"symbols\": {\"N\": 1}",
        ] {
            let (status, msg) = rejection(body);
            assert_eq!(status, 400, "{body}: {msg}");
            assert!(msg.contains("SDFG-S002"), "{body}: {msg}");
            assert!(msg.contains("(line "), "{body}: no position in {msg}");
        }
        let (status, msg) = rejection("{\"arrays\": {\"A\": 1.0}}");
        assert_eq!(status, 400);
        assert!(msg.contains("must be a JSON array"), "{msg}");
    }

    #[test]
    fn symbols_outside_i64_are_400() {
        for n in ["9223372036854775808", "1e19", "-1e19", "1e999"] {
            let (status, msg) = rejection(&format!("{{\"symbols\": {{\"N\": {n}}}}}"));
            assert_eq!(status, 400, "{n}: {msg}");
            assert!(msg.contains("SDFG-S002"), "{msg}");
        }
        let edge = "{\"symbols\": {\"lo\": -9223372036854775808, \"hi\": 9223372036854774784}}";
        let Ok((b, _, _)) = decode_invoke_body(edge.as_bytes(), 1 << 20) else {
            panic!("in-range symbols should decode");
        };
        assert_eq!(b.symbols()["lo"], i64::MIN);
        assert_eq!(b.symbols()["hi"], 9_223_372_036_854_774_784);
    }

    #[test]
    fn repeated_fields_keep_the_first() {
        let body = br#"{"arrays":{"A":[1]},"arrays":{"B":[2]},"timeout_ms":5,"timeout_ms":"x"}"#;
        let Ok((b, timeout, _)) = decode_invoke_body(body, 1 << 20) else {
            panic!("body should decode");
        };
        assert_eq!(b.array_names().collect::<Vec<_>>(), vec!["A"]);
        assert_eq!(timeout, Some(5));
    }
}
