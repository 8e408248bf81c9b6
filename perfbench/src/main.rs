//! The repository benchmark: default-path Polybench against naive Rust at
//! one and N threads, and a live `sdfg-serve` mix. See `README.md`.
//!
//! Usage: `perfbench --workload <poly-serial|poly-parallel|serve-mix>
//! --seed <n> --seconds <s> --trace <0|1>`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).

mod catalog;
mod poly;
mod serve;
mod stats;
mod trace;
mod verify;

use sdfg_core::serialize::json_escape;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Set-ups measured per run, each in a fresh process with an empty JIT
/// artifact directory; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Where runs keep private scratch and write their result files.
const OUT_DIR: &str = ".perfbench";

/// How a workload runs.
#[derive(Clone, Copy)]
pub struct Mode {
    pub seconds: Duration,
    pub trace: bool,
    pub setup_only: bool,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<trace::Span>,
    /// Per-program JSON rows for the result file.
    pub rows: Vec<String>,
    /// Host slowdown against nominal in the warm phase, for workloads
    /// that state times at the nominal host speed.
    pub host_factor: Option<f64>,
}

impl Outcome {
    fn jit_delta(&mut self, before: [u64; 3]) {
        let now = jit_counters();
        for (i, name) in ["jit.compiles", "jit.cache_hits", "jit.fallbacks"]
            .iter()
            .enumerate()
        {
            self.layers
                .insert(name.to_string(), (now[i] - before[i]) as f64);
        }
    }
}

/// JIT compiles, cache hits and fallbacks so far in this process.
pub fn jit_counters() -> [u64; 3] {
    let m = sdfg_profile::metrics::core();
    [
        m.jit_compiles.get(),
        m.jit_cache_hits.get(),
        m.jit_fallbacks.get(),
    ]
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, 0 for an empty base.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Engine counters of one warm pass over the workload's programs.
pub fn insert_pass_counters(l: &mut BTreeMap<String, f64>, pass: &[&sdfg_exec::Stats]) {
    let sum = |f: fn(&sdfg_exec::Stats) -> u64| pass.iter().map(|s| f(s)).sum::<u64>();
    let points = sum(|s| s.tasklet_points);
    let jit = sum(|s| s.jit_points);
    for (name, v) in [
        ("exec.states_executed", sum(|s| s.states_executed)),
        ("exec.interstate_evals", sum(|s| s.interstate_evals)),
        ("exec.map_launches", sum(|s| s.map_launches)),
        ("exec.tasklet_points", points),
        ("exec.jit_points", jit),
        ("exec.native_points", sum(|s| s.native_points)),
        ("exec.nest_calls", sum(|s| s.nest_calls)),
        ("exec.nest_points", sum(|s| s.nest_points)),
    ] {
        l.insert(name.into(), v as f64);
    }
    l.insert("exec.jit_point_share".into(), share(jit, points));
}

/// Map counts of the lowering table.
pub fn insert_lowering(l: &mut BTreeMap<String, f64>, total: usize, jit: usize) {
    l.insert("lower.maps_total".into(), total as f64);
    l.insert("lower.maps_jit".into(), jit as f64);
    l.insert(
        "lower.jit_map_share".into(),
        share(jit as u64, total as u64),
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["poly-serial", "poly-parallel", "serve-mix"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if a.seconds == 0 && !a.setup_only {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads every invoke of the workload runs with.
fn nthreads(workload: &str) -> usize {
    if workload == "poly-parallel" {
        nproc()
    } else {
        1
    }
}

fn run_workload(a: &Args) -> Result<Outcome, String> {
    let mode = Mode {
        seconds: Duration::from_secs(a.seconds),
        trace: a.trace,
        setup_only: a.setup_only,
    };
    match a.workload.as_str() {
        "serve-mix" => serve::run(a.seed, mode),
        w => poly::run(nthreads(w), a.seed, mode),
    }
}

/// A private, empty directory for JIT artifacts and compiler temporaries,
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(OUT_DIR)
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one set-up in a child process with its own empty JIT directory.
fn child_setup(a: &Args, n: usize) -> Result<f64, String> {
    let scratch = Scratch::new(&format!("setup{n}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &a.workload,
            "--seed",
            &a.seed.to_string(),
            "--setup-only",
        ])
        .env("SDFG_JIT_CACHE", &scratch.0)
        .env("TMPDIR", &scratch.0)
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or(format!("set-up child printed no time: {stdout}"))
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// First line of a tool's `--version`, or `unknown`.
fn tool_version(cmd: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    Command::new(cmd)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment a result was measured in.
fn environment(a: &Args, cwd: &Path) -> String {
    // The checkout may not be a repository; never look above it.
    let ceiling = cwd
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    let commit = tool_version(
        "git",
        &["rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", &ceiling)],
    );
    let scale = if a.workload == "serve-mix" {
        format!(
            "\"small:{} large:{}\"",
            serve::SMALL_SCALE,
            serve::LARGE_SCALE
        )
    } else {
        poly::SCALE.to_string()
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"scale\":{scale},\"nthreads\":{},\
         \"nproc\":{},\"cc\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"traced\":{}}}",
        a.workload,
        a.seed,
        a.seconds,
        nthreads(&a.workload),
        nproc(),
        json_escape(&tool_version("cc", &["--version"], &[])),
        json_escape(&tool_version("rustc", &["--version"], &[])),
        json_escape(&commit),
        a.trace
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match measure(&a) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            ExitCode::FAILURE
        }
    }
}

fn measure(a: &Args) -> Result<ExitCode, String> {
    // Children inherit their scratch directory; the parent makes its own.
    let scratch = match std::env::var_os("SDFG_JIT_CACHE") {
        Some(_) if a.setup_only => None,
        _ => Some(Scratch::new(&a.workload)?),
    };
    if let Some(s) = &scratch {
        // Set before any thread starts: read by the JIT and by `cc`.
        std::env::set_var("SDFG_JIT_CACHE", &s.0);
        std::env::set_var("TMPDIR", &s.0);
    }
    // Profiled executors size themselves from this, like the sessions.
    std::env::set_var("SDFG_NTHREADS", nthreads(&a.workload).to_string());

    if a.setup_only {
        let out = run_workload(a)?;
        println!("setup_s {}", out.setup_s);
        return Ok(ExitCode::SUCCESS);
    }

    let mut setups = Vec::new();
    if !a.trace {
        for n in 1..SETUP_RUNS {
            setups.push(child_setup(a, n)?);
        }
    }
    let out = run_workload(a)?;
    setups.push(out.setup_s);

    let mut correct = out.failed == 0;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if a.trace {
        if let Err(e) = trace::check(&out.spans, "invoke") {
            eprintln!("perfbench: trace self-check failed: {e}");
            correct = false;
        }
        let mut layers = out.layers.clone();
        layers.insert("fail_rate".into(), share(out.failed, out.attempted));
        layers.insert("trace.spans".into(), out.spans.len() as f64);
        let declared = catalog::per_layer();
        for name in layers.keys() {
            if !declared.iter().any(|(n, _)| n == name) {
                return Err(format!("per-layer metric `{name}` is not declared"));
            }
        }
        for (name, unit) in declared {
            let v = layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        let mut e2e = out.end_to_end.clone();
        e2e.push(("setup_s", stats::median(&setups)));
        e2e.push(("peak_rss_mb", peak_rss_mb()?));
        for (name, unit) in catalog::END_TO_END {
            let v = e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or(format!("end-to-end metric `{name}` was not measured"))?;
            metrics.push((name.to_string(), v, unit));
        }
    }
    for (name, v, _) in &metrics {
        if !catalog::valid_name(name) {
            return Err(format!("metric name `{name}` is malformed"));
        }
        if !v.is_finite() {
            return Err(format!("metric `{name}` is {v}"));
        }
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics_json.join(",")
    );
    write_files(a, &out, &setups, &result)?;
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Writes the result file (environment, set-up samples, per-program rows,
/// result) and, for traced runs, the span file.
fn write_files(a: &Args, out: &Outcome, setups: &[f64], result: &str) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let dir = cwd.join(OUT_DIR).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, a.trace as u8);
    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    let self_ms: Vec<String> = trace::self_by_name(&out.spans)
        .into_iter()
        .map(|(name, (count, ns))| {
            format!(
                "\"{name}\":{{\"spans\":{count},\"self_ms\":{}}}",
                ns as f64 / 1e6
            )
        })
        .collect();
    let host = match out.host_factor {
        Some(f) => f.to_string(),
        None => "null".into(),
    };
    let doc = format!(
        "{{\"environment\":{},\"setup_s_samples\":[{}],\"host_factor\":{host},\"programs\":[\n{}\n],\
         \"span_self_times\":{{{}}},\"result\":{result}}}\n",
        environment(a, &cwd),
        setups.join(","),
        out.rows.join(",\n"),
        self_ms.join(",")
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    if a.trace {
        let path = dir.join(format!("{stem}.spans.json"));
        std::fs::write(&path, trace::to_json(&out.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}
