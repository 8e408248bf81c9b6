//! `serve-mix`: an in-process `sdfg_serve::Server` driven over loopback
//! HTTP by a closed loop of keep-alive clients drawing a seeded mix of
//! `small` and `large` invokes.

use crate::catalog::{warm_row, LARGE, SMALL};
use crate::poly::burst_len;
use crate::stats::{geomean, mean, median, p99, p99_min_samples, Rng};
use crate::trace::{self, Span, Tracer};
use crate::verify::{allclose, bitwise, REF_TOL};
use crate::{jit_counters, ms, Mode, Outcome};
use sdfg_core::serialize::{self, parse_json, parse_json_limited, Json};
use sdfg_exec::{OptLevel, Session, Stats};
use sdfg_profile::metrics;
use sdfg_serve::{RegistryConfig, Server, ServerConfig};
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scale of the `small` class kernels.
pub const SMALL_SCALE: usize = 32;
/// Scale of the `large` class kernels.
pub const LARGE_SCALE: usize = 128;
/// Closed-loop clients, one keep-alive connection and thread each.
pub const CLIENTS: usize = 2;
/// Invoke body cap of the server (its default), also used to time the
/// decode step the server performs.
const MAX_BODY: usize = 64 << 20;
/// A client times a reference burst after every this many responses.
const REF_EVERY: usize = 4;

/// One request of the mix: the program index into [`programs`].
pub fn programs() -> Vec<(&'static str, usize)> {
    SMALL
        .iter()
        .map(|n| (*n, SMALL_SCALE))
        .chain(LARGE.iter().map(|n| (*n, LARGE_SCALE)))
        .collect()
}

/// The request sequence of client `client` under `seed`: each draw picks
/// a class with equal odds, then a program of that class uniformly.
pub struct Sequence(Rng);

impl Sequence {
    pub fn new(seed: u64, client: usize) -> Sequence {
        Sequence(Rng::new(seed, 1 + client as u64))
    }

    pub fn next_program(&mut self) -> usize {
        if self.0.below(2) == 0 {
            self.0.below(SMALL.len())
        } else {
            SMALL.len() + self.0.below(LARGE.len())
        }
    }
}

fn is_small(idx: usize) -> bool {
    idx < SMALL.len()
}

/// A keep-alive HTTP/1.1 connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one pre-encoded request and reads the whole response.
    fn send(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn http_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Invoke body: the workload's symbols and arrays, asking back only the
/// checked containers. `f64` values print in shortest round-trip form,
/// so the server binds bitwise-identical inputs.
fn invoke_body(w: &Workload) -> String {
    let mut out = String::from("{\"symbols\":{");
    for (i, (name, v)) in w.symbols.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        out.push_str(&format!("{sep}\"{name}\":{v}"));
    }
    out.push_str("},\"arrays\":{");
    let mut names: Vec<&String> = w.arrays.keys().collect();
    names.sort();
    for (i, name) in names.into_iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        out.push_str(&format!("{sep}\"{name}\":["));
        for (j, x) in w.arrays[name].iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            out.push_str(&format!("{sep}{x}"));
        }
        out.push(']');
    }
    out.push_str("},\"outputs\":[");
    for (i, name) in w.check.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        out.push_str(&format!("{sep}\"{name}\""));
    }
    out.push_str("]}");
    out
}

/// Reparses the output arrays of an invoke response.
fn parse_outputs(body: &[u8]) -> Result<HashMap<String, Vec<f64>>, String> {
    let src = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = parse_json(src)?;
    let Some(Json::Obj(outputs)) = doc.get("outputs") else {
        return Err(format!("response has no outputs: {src:.200}"));
    };
    let mut arrays = HashMap::new();
    for (name, v) in outputs {
        let Json::Arr(items) = v else {
            return Err(format!("output `{name}` is not an array"));
        };
        let data = items
            .iter()
            .map(|x| match x {
                Json::Num(f) => Ok(*f),
                _ => Err(format!("output `{name}` holds a non-number")),
            })
            .collect::<Result<Vec<f64>, String>>()?;
        arrays.insert(name.clone(), data);
    }
    Ok(arrays)
}

struct Program {
    name: &'static str,
    w: Workload,
    handle: String,
    request: Vec<u8>,
    reference: fn(&Workload) -> HashMap<String, Vec<f64>>,
    /// Output of the direct session run.
    expected: HashMap<String, Vec<f64>>,
    /// Response bytes before `wall_ms` of the first invoke, once reparsed
    /// and found bitwise equal to `expected`. A later response with the
    /// same bytes holds the same values; any other is reparsed itself.
    verified: Vec<u8>,
    stats: Stats,
    ref_ms: Vec<f64>,
}

/// What one client thread brings back: its samples and spans.
type ClientRun = Result<(Vec<Sample>, Vec<Span>), String>;

struct Sample {
    program: usize,
    traced: bool,
    ok: bool,
    latency_ms: f64,
    invoke_ms: f64,
    wall_ms: f64,
    request_bytes: usize,
    response_bytes: usize,
    /// Median of a reference burst timed right after this invoke.
    ref_ms: Option<f64>,
}

fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig {
        registry: RegistryConfig {
            nthreads: 1,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

pub fn run(seed: u64, mode: Mode) -> Result<Outcome, String> {
    let traced = mode.trace;
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch, 0);
    let jit0 = jit_counters();
    let rejected0 = rejected();
    let mut out = Outcome::default();

    // Set-up: server start, then build, submit and first-invoke every
    // program over HTTP.
    let t_setup = Instant::now();
    let mut server = tr.span("serve.start", "server", start_server)?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut progs = Vec::new();
    for (name, scale) in programs() {
        let kernel = polybench::by_name(name).ok_or(format!("no kernel `{name}`"))?;
        let w = tr.span("frontend.build", name, || (kernel.build)(scale));
        let json = tr.span("core.to_json", name, || serialize::to_json(&w.sdfg));
        if traced {
            tr.span("core.validate", name, || sdfg_core::validate(&w.sdfg))
                .map_err(|e| format!("{name}: invalid SDFG: {e:?}"))?;
            tr.span("core.content_hash", name, || {
                black_box(serialize::content_hash(&w.sdfg))
            });
            tr.span("core.from_json", name, || serialize::from_json(&json))
                .map_err(|e| format!("{name}: SDFG does not reparse: {e}"))?;
        }
        let submit = http_request("POST", "/v1/programs", json.as_bytes());
        let (status, body) = tr
            .span("serve.submit", name, || client.send(&submit))
            .map_err(|e| format!("{name}: submit: {e}"))?;
        let doc = std::str::from_utf8(&body)
            .ok()
            .and_then(|s| parse_json(s).ok())
            .ok_or(format!("{name}: submit answered {status} without JSON"))?;
        let handle = doc
            .str_field("program")
            .map_err(|e| format!("{name}: submit answered {status}: {e}"))?
            .to_string();
        let request = http_request(
            "POST",
            &format!("/v1/programs/{handle}/invoke"),
            invoke_body(&w).as_bytes(),
        );
        let first = tr
            .span("exec.first_invoke", name, || client.send(&request))
            .map_err(|e| format!("{name}: first invoke: {e}"))?;
        out.attempted += 1;
        progs.push((name, w, handle, request, first));
    }
    out.setup_s = t_setup.elapsed().as_secs_f64();
    if mode.setup_only {
        drop(client);
        server.shutdown();
        return Ok(out);
    }

    // Expected outputs: a direct session at the registry's policy, itself
    // checked against the naive reference.
    let mut programs: Vec<Program> = Vec::new();
    for (name, w, handle, request, first) in progs {
        let kernel = polybench::by_name(name).expect("kernel exists");
        let session = tr
            .span("exec.session_build", name, || {
                Session::builder(w.sdfg.clone())
                    .opt_level(OptLevel::Aggressive)
                    .nthreads(1)
                    .build()
            })
            .map_err(|e| format!("{name}: direct session: {e}"))?;
        let direct = session
            .run(w.bindings())
            .map_err(|e| format!("{name}: direct run: {e}"))?;
        let stats = direct.stats().clone();
        let expected = direct.into_arrays();
        let want = (kernel.reference)(&w);
        allclose(&w.check, &expected, &want, REF_TOL)
            .map_err(|e| format!("{name}: direct session vs reference: {e}"))?;
        let mut p = Program {
            name,
            w,
            handle,
            request,
            reference: kernel.reference,
            expected,
            verified: Vec::new(),
            stats,
            ref_ms: Vec::new(),
        };
        match check_response(&p, first.0, &first.1) {
            Ok(_) => p.verified = split_wall_ms(&first.1)?.0.to_vec(),
            Err(e) => {
                eprintln!("perfbench: {name}: first invoke: {e}");
                out.failed += 1;
            }
        }
        programs.push(p);
    }
    let bursts: Vec<usize> = programs
        .iter()
        .map(|p| burst_len(reference_ms(p)))
        .collect();
    drop(client);
    let spans_setup = tr.into_spans();

    // Closed loop.
    let min_samples = p99_min_samples(10);
    let completed = AtomicUsize::new(0);
    let deadline = Instant::now() + mode.seconds;
    let t_load = Instant::now();
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (programs, completed, bursts) = (&programs, &completed, &bursts);
                s.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut seq = Sequence::new(seed, c);
                    let mut tr = Tracer::new(false, epoch, 1 + c as u32);
                    let mut samples = Vec::new();
                    loop {
                        let idx = seq.next_program();
                        let p = &programs[idx];
                        let on = traced && samples.len() % 2 == 1;
                        tr.set_on(on);
                        let t_inv = Instant::now();
                        tr.begin("invoke", p.name);
                        tr.begin("serve.http", p.name);
                        let t = Instant::now();
                        let sent = client.send(&p.request);
                        let latency_ms = ms(t.elapsed());
                        tr.end();
                        let (status, body) =
                            sent.map_err(|e| format!("{}: invoke: {e}", p.name))?;
                        let checked = tr.span("check", p.name, || check_response(p, status, &body));
                        tr.end();
                        let invoke_ms = ms(t_inv.elapsed());
                        // Every few responses, time the program's reference
                        // at once: the host ran the engine moments ago, so
                        // a host running faster or slower moves both. This
                        // client has nothing in flight meanwhile.
                        let ref_ms = (samples.len() % REF_EVERY == 0).then(|| {
                            tr.span("workloads.reference", p.name, || {
                                let burst: Vec<f64> =
                                    (0..bursts[idx]).map(|_| reference_ms(p)).collect();
                                median(&burst)
                            })
                        });
                        let wall_ms = match &checked {
                            Ok(w) => *w,
                            Err(e) => {
                                eprintln!("perfbench: {}: invoke: {e}", p.name);
                                0.0
                            }
                        };
                        samples.push(Sample {
                            program: idx,
                            traced: on,
                            ok: checked.is_ok(),
                            latency_ms,
                            invoke_ms,
                            wall_ms,
                            request_bytes: p.request.len(),
                            response_bytes: body.len(),
                            ref_ms,
                        });
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if done >= min_samples && Instant::now() >= deadline {
                            break;
                        }
                    }
                    tr.set_on(false);
                    Ok((samples, tr.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let load_s = t_load.elapsed().as_secs_f64();
    server.shutdown();

    let mut samples = Vec::new();
    let mut span_lists = vec![spans_setup];
    for r in results {
        let (s, spans) = r?;
        samples.extend(s);
        span_lists.push(spans);
    }
    for s in &samples {
        programs[s.program].ref_ms.extend(s.ref_ms);
    }
    if programs.iter().any(|p| p.ref_ms.is_empty()) {
        return Err("a program's reference was never timed".into());
    }
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let good: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let lat_of = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        good.iter().filter(|s| f(s)).map(|s| s.latency_ms).collect()
    };
    let per_program: Vec<Vec<f64>> = (0..programs.len())
        .map(|i| lat_of(&|s| s.program == i))
        .collect();
    if per_program.iter().any(|v| v.is_empty()) {
        return Err("a program completed no warm invoke".into());
    }
    // Median engine time (the response's `wall_ms`) per program.
    let engine: Vec<f64> = (0..programs.len())
        .map(|i| {
            let v: Vec<f64> = good
                .iter()
                .filter(|s| s.program == i)
                .map(|s| s.wall_ms)
                .collect();
            median(&v)
        })
        .collect();

    if !traced {
        // Engine time, not client latency: both it and the reference are
        // compute, so a host running faster or slower moves them together,
        // while the loopback stall of the `small` class does not move.
        let ratios: Vec<f64> = programs
            .iter()
            .zip(&engine)
            .map(|(p, eng)| median(&p.ref_ms) / eng)
            .collect();
        let all = lat_of(&|_| true);
        let meds: Vec<f64> = per_program.iter().map(|v| median(v)).collect();
        // A class's p50 counts each of its programs once, whatever share
        // of the mix the seed gave it: the mean of their medians.
        let (small, large) = meds.split_at(SMALL.len());
        out.end_to_end = vec![
            ("speedup_vs_ref.geomean", geomean(&ratios)),
            ("suite_warm_ms", meds.iter().sum()),
            ("invoke_ms.small.p50", mean(small)),
            ("invoke_ms.large.p50", mean(large)),
            ("invoke_ms.p99", p99(&all, 10)?),
            ("invokes_per_s", samples.len() as f64 / load_s),
        ];
    }

    let mut spans = trace::merge(span_lists);
    if traced {
        let mut tr = Tracer::new(true, epoch, 0);
        layers(&mut tr, &programs, &good, &engine, &mut out)?;
        spans.extend(tr.into_spans());
        let l = &mut out.layers;
        for (metric, span) in [
            ("frontend.build_ms", "frontend.build"),
            ("core.validate_ms", "core.validate"),
            ("core.content_hash_ms", "core.content_hash"),
            ("core.to_json_ms", "core.to_json"),
            ("core.from_json_ms", "core.from_json"),
            ("transforms.optimize_ms", "transforms.optimize"),
            ("exec.session_build_ms", "exec.session_build"),
            ("exec.first_invoke_ms", "exec.first_invoke"),
            ("serve.submit_ms", "serve.submit"),
        ] {
            l.insert(metric.into(), trace::total_ms(&spans, span));
        }
        let decode = trace::durations_by_tag(&spans, "serve.decode");
        for (class, names) in [("small", &SMALL[..]), ("large", &LARGE[..])] {
            let v: Vec<f64> = names
                .iter()
                .flat_map(|n| decode[n].iter().copied())
                .collect();
            l.insert(format!("serve.decode_ms.{class}"), median(&v));
        }
        l.insert("serve.rejected".into(), (rejected() - rejected0) as f64);
        // One registry: every program shares its plan cache, buffer pool
        // and scheduler (none at one thread).
        let reg = server.registry();
        let (cache, pool) = (reg.plan_cache().stats(), reg.buffer_pool().stats());
        let hits = crate::share(cache.hits, cache.hits + cache.misses);
        l.insert("exec.plan_cache_hit_rate".into(), hits);
        l.insert(
            "exec.pool_reuse_rate".into(),
            crate::share(pool.reuses, pool.acquires),
        );
        let handle = u64::from_str_radix(&programs[0].handle, 16).map_err(|e| e.to_string())?;
        if let Some(st) = reg.get(handle).and_then(|e| e.session.sched_stats()) {
            let passes = good.len() as f64 / programs.len() as f64;
            let tiles: u64 = st.workers.iter().map(|w| w.tiles).sum();
            let steals: u64 = st.workers.iter().map(|w| w.steals).sum();
            let idle: u64 = st.workers.iter().map(|w| w.idle_ns).sum();
            l.insert("sched.launches".into(), st.launches as f64 / passes);
            l.insert("sched.tiles".into(), tiles as f64 / passes);
            l.insert("sched.steals".into(), steals as f64 / passes);
            let busy = st.nworkers as f64 * load_s * CLIENTS as f64;
            l.insert("sched.idle_share".into(), idle as f64 / 1e9 / busy);
        }
    }
    out.spans = spans;
    out.jit_delta(jit0);
    out.rows = programs
        .iter()
        .zip(per_program.iter().zip(&engine))
        .map(|(p, (lat, eng))| {
            format!(
                "{{\"kernel\":\"{}\",\"invoke_ms\":{},\"engine_ms\":{eng},\"ref_ms\":{},\
                 \"samples\":{}}}",
                p.name,
                median(lat),
                median(&p.ref_ms),
                lat.len()
            )
        })
        .collect();
    Ok(out)
}

/// Checks one invoke response bitwise against the direct session and
/// returns the engine's `wall_ms`.
fn check_response(p: &Program, status: u16, body: &[u8]) -> Result<f64, String> {
    if status != 200 {
        let text = String::from_utf8_lossy(body);
        return Err(format!("status {status}: {text:.200}"));
    }
    let (outputs, wall_ms) = split_wall_ms(body)?;
    if outputs != p.verified.as_slice() {
        bitwise(&p.w.check, &parse_outputs(body)?, &p.expected)?;
    }
    Ok(wall_ms)
}

/// Splits an invoke response at its trailing `wall_ms` field: the bytes
/// before it (program handle and outputs) and the engine time.
fn split_wall_ms(body: &[u8]) -> Result<(&[u8], f64), String> {
    const KEY: &[u8] = b",\"wall_ms\":";
    let at = body
        .windows(KEY.len())
        .rposition(|w| w == KEY)
        .ok_or("response has no wall_ms")?;
    let tail = std::str::from_utf8(&body[at + KEY.len()..]).map_err(|e| e.to_string())?;
    let wall_ms = tail
        .trim_end_matches('}')
        .parse()
        .map_err(|_| format!("bad wall_ms `{tail}`"))?;
    Ok((&body[..at], wall_ms))
}

/// One call of the program's naive reference, ms.
fn reference_ms(p: &Program) -> f64 {
    let t = Instant::now();
    black_box((p.reference)(black_box(&p.w)));
    ms(t.elapsed())
}

/// Invokes the server refused: queue full, tenant cap or deadline.
fn rejected() -> u64 {
    let m = metrics::serve();
    m.rejected_queue.get() + m.rejected_tenant.get() + m.rejected_timeout.get()
}

/// Per-layer figures of a traced run, besides the span totals.
fn layers(
    tr: &mut Tracer,
    programs: &[Program],
    good: &[&Sample],
    engine: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    // Decode cost of each request body, as the server pays it.
    for p in programs {
        let body = &p.request[p.request.len() - body_len(&p.request)..];
        let src = std::str::from_utf8(body).map_err(|_| "request is not UTF-8")?;
        for _ in 0..5 {
            tr.span("serve.decode", p.name, || parse_json_limited(src, MAX_BODY))
                .map_err(|e| format!("{}: request does not parse: {e}", p.name))?;
        }
    }
    // The registry's pipeline, re-run on a copy: pass count and the
    // lowering table of the optimized program.
    let (mut passes, mut maps, mut jit) = (0usize, 0usize, 0usize);
    for p in programs {
        let mut sdfg = p.w.sdfg.clone();
        let env = p.w.symbols.iter().cloned().collect();
        let report = tr
            .span("transforms.optimize", p.name, || {
                sdfg_transforms::optimize_with_env(&mut sdfg, OptLevel::Aggressive, &env)
            })
            .map_err(|e| format!("{}: optimize: {e}", p.name))?;
        passes += report.strict_applied + report.heuristic_applied;
        let optimized = Workload {
            name: p.w.name.clone(),
            sdfg,
            symbols: p.w.symbols.clone(),
            arrays: p.w.arrays.clone(),
            check: p.w.check.clone(),
        };
        out.attempted += 1;
        match tr.span("lower.report", p.name, || optimized.run_exec_profiled()) {
            Ok((_, _, _, _, lowerings)) => {
                maps += lowerings.len();
                jit += lowerings.iter().filter(|m| m.tier == "jit").count();
            }
            Err(e) => {
                eprintln!("perfbench: {}: profiled run failed: {e}", p.name);
                out.failed += 1;
            }
        }
    }
    let l = &mut out.layers;
    l.insert("transforms.passes_applied".into(), passes as f64);
    crate::insert_lowering(l, maps, jit);

    let class = |small: bool, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        good.iter()
            .filter(|s| is_small(s.program) == small)
            .map(|s| f(s))
            .collect()
    };
    let gemm = programs
        .iter()
        .position(|p| p.name == "gemm")
        .expect("gemm is served");
    let ref_suite: f64 = programs.iter().map(|p| median(&p.ref_ms)).sum();
    l.insert("workloads.ref_suite_ms".into(), ref_suite);
    let tuned = crate::poly::gemm_tuned_ms(&programs[gemm].w);
    l.insert("workloads.gemm_tuned_ratio".into(), tuned / engine[gemm]);
    for (i, p) in programs.iter().enumerate() {
        l.insert(warm_row(p.name), engine[i]);
    }
    for (small, tag) in [(true, "small"), (false, "large")] {
        l.insert(
            format!("serve.engine_ms.{tag}.p50"),
            median(&class(small, &|s| s.wall_ms)),
        );
        let outside = class(small, &|s| s.latency_ms - s.wall_ms);
        l.insert(
            format!("serve.outside_engine_ms.{tag}.p50"),
            median(&outside),
        );
    }
    let bytes = |f: &dyn Fn(&Sample) -> usize| median(&class(false, &|s| f(s) as f64));
    l.insert(
        "serve.request_bytes.large".into(),
        bytes(&|s| s.request_bytes),
    );
    l.insert(
        "serve.response_bytes.large".into(),
        bytes(&|s| s.response_bytes),
    );

    let pass: Vec<&Stats> = programs.iter().map(|p| &p.stats).collect();
    crate::insert_pass_counters(l, &pass);
    let overhead: f64 = (0..programs.len())
        .map(|i| {
            let inv = |traced: bool| -> Vec<f64> {
                good.iter()
                    .filter(|s| s.program == i && s.traced == traced)
                    .map(|s| s.invoke_ms)
                    .collect()
            };
            median(&inv(true)) - median(&inv(false))
        })
        .sum();
    let untraced: f64 = (0..programs.len())
        .map(|i| {
            let v: Vec<f64> = good
                .iter()
                .filter(|s| s.program == i && !s.traced)
                .map(|s| s.invoke_ms)
                .collect();
            median(&v)
        })
        .sum();
    l.insert("trace.overhead_ms".into(), overhead);
    l.insert("trace.overhead_share".into(), overhead / untraced);
    Ok(())
}

/// Length of the body of a pre-encoded request.
fn body_len(request: &[u8]) -> usize {
    let head_end = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request has a head")
        + 4;
    request.len() - head_end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_request_sequence() {
        let draw = |seed, client| {
            let mut s = Sequence::new(seed, client);
            (0..64).map(|_| s.next_program()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(4, 0));
        assert_ne!(draw(3, 0), draw(3, 1), "clients draw independent sequences");
        let seq = draw(3, 0);
        assert!(seq.iter().all(|&i| i < programs().len()));
        assert!(seq.iter().any(|&i| is_small(i)) && seq.iter().any(|&i| !is_small(i)));
    }

    #[test]
    fn request_framing() {
        let req = http_request("POST", "/v1/programs", b"{}");
        assert!(req.starts_with(b"POST /v1/programs HTTP/1.1\r\n"));
        assert_eq!(body_len(&req), 2);
        let w = polybench::by_name("atax").unwrap();
        let w = (w.build)(4);
        let body = invoke_body(&w);
        let doc = parse_json(&body).expect("invoke body is JSON");
        assert!(doc.get("outputs").is_some());
    }
}
