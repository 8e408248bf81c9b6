//! JIT tier runtime: turns the C kernels emitted by `sdfg_codegen::jit`
//! into callable native code.
//!
//! The pipeline is the paper's §4.3 step ❸ (compiler invocation) done at
//! run time: probe the system C compiler once per process, compile the
//! kernel source into a shared object, `dlopen` it, and hand the executor
//! a raw function pointer. Three cache levels keep warm processes from
//! ever recompiling:
//!
//! 1. an in-process registry keyed by [`kernel_hash`] (shared by every
//!    executor and session in the process — concurrent requests for the
//!    same kernel block on one compilation and share the artifact);
//! 2. an on-disk artifact cache (`SDFG_JIT_CACHE`, default
//!    `$TMPDIR/sdfg-jit-cache`) holding `<hash>.so` + `<hash>.c`, written
//!    atomically (temp file + rename) so concurrent processes are safe;
//! 3. the lowered plan itself, which stores the `Arc<JitKernel>` in the
//!    `PlanCache` (see `crate::lower`).
//!
//! The cache key hashes the C source, the compiler's `--version` line, and
//! the flag set — a compiler upgrade or flag change invalidates artifacts
//! automatically. A corrupt `.so` (truncated write, disk damage) fails
//! `dlopen`, is deleted, and is recompiled once; a second failure falls
//! back to the VM tier.
//!
//! Everything degrades gracefully: no compiler, a failed compile, or a
//! failed `dlopen` records a `jit_fallback` ledger record (plus the
//! `sdfg_jit_fallbacks_total` metric) and the map runs on the next tier.
//! `SDFG_JIT=off` disables the tier for the whole process. The `dlopen`
//! binding is a raw `extern "C"` declaration against libdl, keeping the
//! workspace std-only; loaded handles are intentionally never closed
//! (kernels may be cached in plans that outlive any one executor).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Compiler flags for kernel compilation. `-ffp-contract=off` is load
/// bearing: Rust never contracts `a*b + c` into an FMA, so the C compiler
/// must not either or JIT results would diverge bitwise from the VM and
/// native tiers.
pub const CFLAGS: &[&str] = &["-O2", "-fPIC", "-shared", "-ffp-contract=off"];

/// ABI generation tag mixed into every [`kernel_hash`]: bumping it
/// invalidates all cached artifacts at once (v2 added the nest entry
/// point and its widened signature).
const ABI_TAG: &str = "sdfg-jit-abi-v2";

/// The fixed per-body kernel ABI (see `sdfg_codegen::jit` for the
/// contract).
pub type JitFn = unsafe extern "C" fn(
    ins: *const *const f64,
    in_off: *const i64,
    in_stp: *const i64,
    outs: *const *mut f64,
    out_off: *const i64,
    out_stp: *const i64,
    syms: *const f64,
    n: i64,
);

/// The whole-nest kernel ABI (v2; see `sdfg_codegen::jit` for the
/// `geo`/`bnd` layout contract).
pub type NestFn = unsafe extern "C" fn(
    bufs: *const *mut f64,
    geo: *const i64,
    syms: *const f64,
    bnd: *const i64,
    lo0: i64,
    hi0: i64,
    npts: *mut i64,
);

/// A loaded, callable kernel. The underlying shared object stays mapped
/// for the life of the process. Holds the raw entry-point address; the
/// typed accessors transmute it to the ABI the kernel was compiled for
/// (the loader resolves [`sdfg_codegen::jit::JIT_ENTRY`] or
/// [`sdfg_codegen::jit::NEST_ENTRY`], so a given kernel only ever has one
/// valid accessor — callers keep body kernels and nest kernels in
/// separate plan fields).
pub struct JitKernel {
    /// Content hash the artifact was cached under.
    pub hash: u64,
    sym: *mut std::os::raw::c_void,
}

// SAFETY: `sym` is the address of immutable, process-lifetime mapped code;
// calling it concurrently is the whole point (parallel tiles).
unsafe impl Send for JitKernel {}
unsafe impl Sync for JitKernel {}

impl JitKernel {
    /// The per-body kernel entry point.
    ///
    /// # Safety contract (for callers)
    ///
    /// The generated code performs no bounds checks: every
    /// `off + k*stp` for `k ∈ [0, n)` must be a valid index into the
    /// corresponding slice, and `syms` must hold one value per program
    /// symbol. Only valid on kernels loaded through [`JIT_ENTRY`]'s
    /// compile path ([`get_or_compile`]).
    ///
    /// [`JIT_ENTRY`]: sdfg_codegen::jit::JIT_ENTRY
    pub fn func(&self) -> JitFn {
        // SAFETY: the loader resolved this symbol from a kernel emitted
        // against the v1 signature.
        unsafe { std::mem::transmute::<*mut std::os::raw::c_void, JitFn>(self.sym) }
    }

    /// The whole-nest entry point. Only valid on kernels loaded through
    /// [`get_or_compile_nest`]; the caller must pre-validate every
    /// address the nest can reach (the kernel performs no bounds checks).
    pub fn nest_func(&self) -> NestFn {
        // SAFETY: the loader resolved this symbol from a kernel emitted
        // against the v2 nest signature.
        unsafe { std::mem::transmute::<*mut std::os::raw::c_void, NestFn>(self.sym) }
    }
}

impl std::fmt::Debug for JitKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitKernel({:016x})", self.hash)
    }
}

/// Process default for the JIT tier: `SDFG_JIT=off|0|false` disables it
/// entirely. Read once — per-executor/tuned overrides layer on top.
pub fn env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !matches!(
            std::env::var("SDFG_JIT").ok().as_deref(),
            Some("off") | Some("0") | Some("false")
        )
    })
}

/// A usable system C compiler, probed once per process.
#[derive(Clone, Debug)]
pub struct CcInfo {
    /// Invocation path/name (`$CC`, else the first of `cc`/`gcc`/`clang`
    /// that answers `--version`).
    pub path: String,
    /// First line of `--version` output (part of the artifact cache key).
    pub version: String,
}

/// The probed compiler, or `None` when the machine has none (every JIT
/// request then falls back to the VM tier).
pub fn cc() -> Option<&'static CcInfo> {
    static CC: OnceLock<Option<CcInfo>> = OnceLock::new();
    CC.get_or_init(probe_cc).as_ref()
}

fn probe_cc() -> Option<CcInfo> {
    let mut cands: Vec<String> = Vec::new();
    if let Ok(c) = std::env::var("CC") {
        if !c.trim().is_empty() {
            cands.push(c);
        }
    }
    cands.extend(["cc", "gcc", "clang"].iter().map(|s| s.to_string()));
    for cand in cands {
        let out = std::process::Command::new(&cand).arg("--version").output();
        if let Ok(out) = out {
            if out.status.success() {
                let version = String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                return Some(CcInfo {
                    path: cand,
                    version,
                });
            }
        }
    }
    None
}

/// FNV-1a 64 over source + compiler version + flags: the artifact cache
/// key. Deterministic across processes so on-disk artifacts are shared.
pub fn kernel_hash(source: &str, cc: &CcInfo) -> u64 {
    fn mix(h: u64, bytes: &[u8]) -> u64 {
        let mut h = h;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = mix(h, ABI_TAG.as_bytes());
    h = mix(h, &[0]);
    h = mix(h, source.as_bytes());
    h = mix(h, &[0]);
    h = mix(h, cc.version.as_bytes());
    for f in CFLAGS {
        h = mix(h, &[0]);
        h = mix(h, f.as_bytes());
    }
    h
}

/// On-disk artifact cache directory (`SDFG_JIT_CACHE`, default
/// `$TMPDIR/sdfg-jit-cache`). Read per call so tests and long-lived
/// services can redirect it.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("SDFG_JIT_CACHE") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir().join("sdfg-jit-cache"),
    }
}

// --- counters -----------------------------------------------------------------

#[derive(Default)]
struct Cells {
    compiles: AtomicU64,
    registry_hits: AtomicU64,
    disk_loads: AtomicU64,
    fallbacks: AtomicU64,
    compile_ms: AtomicU64,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(Cells::default)
}

/// Cumulative JIT runtime counters (process-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Kernels compiled by invoking the system C compiler.
    pub compiles: u64,
    /// Requests served from the in-process registry (the kernel was
    /// already materialized in this process).
    pub registry_hits: u64,
    /// Kernels materialized by loading an existing on-disk artifact.
    /// `compiles + disk_loads` counts materializations; the
    /// `sdfg_jit_cache_hits_total` metric is `registry_hits + disk_loads`.
    pub disk_loads: u64,
    /// JIT-eligible bodies that fell back to another tier.
    pub fallbacks: u64,
    /// Total wall-clock milliseconds spent inside the C compiler.
    pub compile_ms: u64,
}

/// Snapshot of the process-wide counters.
pub fn stats() -> JitStats {
    let c = cells();
    JitStats {
        compiles: c.compiles.load(Ordering::Relaxed),
        registry_hits: c.registry_hits.load(Ordering::Relaxed),
        disk_loads: c.disk_loads.load(Ordering::Relaxed),
        fallbacks: c.fallbacks.load(Ordering::Relaxed),
        compile_ms: c.compile_ms.load(Ordering::Relaxed),
    }
}

/// Records one JIT fallback: bumps the counters and appends a
/// `jit_fallback` ledger record (reason ∈ `disabled`, `no_compiler`,
/// `compile_failed`, `dlopen_failed`, `unsupported_body`, ...).
pub fn record_fallback(content_hash: u64, map: &str, reason: &str, detail: &str) {
    cells().fallbacks.fetch_add(1, Ordering::Relaxed);
    sdfg_profile::metrics::core().jit_fallbacks.inc();
    if sdfg_profile::ledger::enabled() {
        let mut detail = detail.to_string();
        if detail.len() > 400 {
            detail.truncate(400);
        }
        let mut rec = sdfg_profile::ledger::JitFallbackRecord {
            seq: 0,
            content_hash: format!("{content_hash:016x}"),
            map: map.to_string(),
            reason: reason.to_string(),
            detail,
        };
        sdfg_profile::ledger::append_jit_fallback(&mut rec);
    }
}

// --- registry -----------------------------------------------------------------

type Slot = Arc<OnceLock<Result<Arc<JitKernel>, String>>>;

fn registry() -> &'static Mutex<HashMap<u64, Slot>> {
    static REG: OnceLock<Mutex<HashMap<u64, Slot>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
}

/// Where a kernel request was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Served {
    /// The in-process registry: an earlier request materialized it.
    Registry,
    /// An existing artifact in the on-disk cache, loaded.
    Disk,
    /// A fresh compilation.
    Compiled,
}

/// Returns the loaded kernel for `source`, compiling at most once per
/// process per hash (concurrent callers for the same hash block on the
/// first compilation and share its result — including its failure, so a
/// broken kernel is not retried every launch).
pub fn get_or_compile(source: &str) -> Result<Arc<JitKernel>, String> {
    get_or_compile_entry(source, sdfg_codegen::jit::JIT_ENTRY).map(|(k, _)| k)
}

/// [`get_or_compile`] for whole-nest kernels: same registry and artifact
/// cache, but the loader resolves the v2 [`NEST_ENTRY`] symbol.
///
/// [`NEST_ENTRY`]: sdfg_codegen::jit::NEST_ENTRY
pub fn get_or_compile_nest(source: &str) -> Result<Arc<JitKernel>, String> {
    get_or_compile_entry(source, sdfg_codegen::jit::NEST_ENTRY).map(|(k, _)| k)
}

fn get_or_compile_entry(source: &str, entry: &str) -> Result<(Arc<JitKernel>, Served), String> {
    let cc = cc().ok_or_else(|| "no C compiler found (cc/gcc/clang)".to_string())?;
    let hash = kernel_hash(source, cc);
    let slot: Slot = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.entry(hash).or_default().clone()
    };
    let mut served = Served::Registry;
    let res = slot.get_or_init(|| {
        load_or_compile_in(&cache_dir(), source, cc, hash, entry).map(|(k, how)| {
            served = how;
            k
        })
    });
    let kern = res.clone()?;
    if served == Served::Registry {
        cells().registry_hits.fetch_add(1, Ordering::Relaxed);
        sdfg_profile::metrics::core().jit_cache_hits.inc();
    }
    Ok((kern, served))
}

/// Loads `hash`'s artifact from `dir`, compiling it there if missing and
/// recovering (delete + recompile once) when an existing artifact fails to
/// load; reports which of the two materialized it. Exposed to unit tests
/// via an explicit directory.
pub(crate) fn load_or_compile_in(
    dir: &Path,
    source: &str,
    cc: &CcInfo,
    hash: u64,
    entry: &str,
) -> Result<(Arc<JitKernel>, Served), String> {
    let so_path = dir.join(format!("{hash:016x}.so"));
    if so_path.exists() {
        match load_kernel(&so_path, hash, entry) {
            Ok(k) => {
                cells().disk_loads.fetch_add(1, Ordering::Relaxed);
                sdfg_profile::metrics::core().jit_cache_hits.inc();
                return Ok((k, Served::Disk));
            }
            Err(_) => {
                // Corrupt artifact: remove and recompile once.
                let _ = std::fs::remove_file(&so_path);
            }
        }
    }
    compile_into(dir, source, cc, hash)?;
    load_kernel(&so_path, hash, entry)
        .map(|k| (k, Served::Compiled))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&so_path);
        })
        .map_err(|e| format!("dlopen of freshly compiled kernel failed: {e}"))
}

/// Compiles `source` into `dir/<hash>.so` (atomic rename; also drops the
/// `.c` next to it for debuggability).
fn compile_into(dir: &Path, source: &str, cc: &CcInfo, hash: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    let stem = format!("{hash:016x}");
    let tag = format!("tmp.{}", std::process::id());
    let c_tmp = dir.join(format!("{stem}.c.{tag}"));
    let c_path = dir.join(format!("{stem}.c"));
    let so_tmp = dir.join(format!("{stem}.so.{tag}"));
    let so_path = dir.join(format!("{stem}.so"));
    std::fs::write(&c_tmp, source).map_err(|e| format!("write {}: {e}", c_tmp.display()))?;
    let _ = std::fs::rename(&c_tmp, &c_path);
    let t0 = std::time::Instant::now();
    let out = std::process::Command::new(&cc.path)
        .args(CFLAGS)
        .arg("-o")
        .arg(&so_tmp)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .map_err(|e| format!("spawn {}: {e}", cc.path))?;
    let ms = t0.elapsed().as_millis() as u64;
    cells().compile_ms.fetch_add(ms, Ordering::Relaxed);
    if !out.status.success() {
        let _ = std::fs::remove_file(&so_tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let head: String = stderr.lines().take(4).collect::<Vec<_>>().join("; ");
        return Err(format!("{} failed ({}): {head}", cc.path, out.status));
    }
    std::fs::rename(&so_tmp, &so_path).map_err(|e| format!("rename {}: {e}", so_path.display()))?;
    cells().compiles.fetch_add(1, Ordering::Relaxed);
    sdfg_profile::metrics::core().jit_compiles.inc();
    Ok(())
}

// --- dlopen binding -----------------------------------------------------------

#[cfg(unix)]
mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    #[link(name = "dl")]
    extern "C" {
        pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlerror() -> *mut c_char;
    }

    pub const RTLD_NOW: c_int = 2;
}

#[cfg(unix)]
fn load_kernel(so_path: &Path, hash: u64, entry: &str) -> Result<Arc<JitKernel>, String> {
    use std::ffi::{CStr, CString};
    let path = CString::new(so_path.to_string_lossy().as_bytes())
        .map_err(|_| "NUL in artifact path".to_string())?;
    let entry_c = CString::new(entry).map_err(|_| "NUL in entry name".to_string())?;
    // SAFETY: plain libdl calls; the handle is intentionally leaked so the
    // mapped code outlives every plan that may cache the function pointer.
    unsafe {
        dl::dlerror(); // clear any stale error
        let handle = dl::dlopen(path.as_ptr(), dl::RTLD_NOW);
        if handle.is_null() {
            return Err(dl_error_string());
        }
        let sym = dl::dlsym(handle, entry_c.as_ptr());
        if sym.is_null() {
            return Err(format!("symbol `{entry}` missing: {}", dl_error_string()));
        }
        let _ = CStr::from_ptr(path.as_ptr()); // keep the binding obviously alive
        Ok(Arc::new(JitKernel { hash, sym }))
    }
}

#[cfg(unix)]
fn dl_error_string() -> String {
    // SAFETY: dlerror returns a static, thread-local C string (or NULL).
    unsafe {
        let p = dl::dlerror();
        if p.is_null() {
            "unknown dlopen error".to_string()
        } else {
            std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
        }
    }
}

#[cfg(not(unix))]
fn load_kernel(_so_path: &Path, _hash: u64, _entry: &str) -> Result<Arc<JitKernel>, String> {
    Err("dynamic loading unsupported on this platform".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "sdfg-jit-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A trivial kernel: out[k] = 2*in[k] + 1 over the ABI.
    const SRC: &str = "#include <math.h>\n\
        void sdfg_kernel(const double *const *ins, const long long *in_off,\n\
                         const long long *in_stp, double *const *outs,\n\
                         const long long *out_off, const long long *out_stp,\n\
                         const double *syms, long long n) {\n\
          (void)syms;\n\
          for (long long k = 0; k < n; ++k)\n\
            outs[0][out_off[0] + k * out_stp[0]] =\n\
              2.0 * ins[0][in_off[0] + k * in_stp[0]] + 1.0;\n\
        }\n";

    fn call(kern: &JitKernel, input: &[f64], out: &mut [f64]) {
        let ins = [input.as_ptr()];
        let outs = [out.as_mut_ptr()];
        let zero = [0i64];
        let one = [1i64];
        // SAFETY: offsets/strides stay within the slices for n = len.
        unsafe {
            (kern.func())(
                ins.as_ptr(),
                zero.as_ptr(),
                one.as_ptr(),
                outs.as_ptr(),
                zero.as_ptr(),
                one.as_ptr(),
                std::ptr::null(),
                input.len() as i64,
            );
        }
    }

    #[test]
    fn hash_covers_source_and_compiler() {
        let cc1 = CcInfo {
            path: "cc".into(),
            version: "cc 1.0".into(),
        };
        let cc2 = CcInfo {
            path: "cc".into(),
            version: "cc 2.0".into(),
        };
        let h = kernel_hash("int x;", &cc1);
        assert_eq!(h, kernel_hash("int x;", &cc1), "deterministic");
        assert_ne!(h, kernel_hash("int y;", &cc1), "source-sensitive");
        assert_ne!(h, kernel_hash("int x;", &cc2), "compiler-sensitive");
    }

    #[test]
    fn compile_load_call_roundtrip() {
        let Some(cc) = cc() else { return };
        let dir = test_dir("abi");
        let hash = kernel_hash(SRC, cc);
        let (kern, _) =
            load_or_compile_in(&dir, SRC, cc, hash, sdfg_codegen::jit::JIT_ENTRY).unwrap();
        let input = [0.0, 1.0, 2.5, -3.0];
        let mut out = [0.0; 4];
        call(&kern, &input, &mut out);
        assert_eq!(out, [1.0, 3.0, 6.0, -5.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_cache_hit_miss_and_corrupt_recovery() {
        let Some(cc) = cc() else { return };
        let dir = test_dir("cache");
        let hash = kernel_hash(SRC, cc);
        let so = dir.join(format!("{hash:016x}.so"));

        // A corrupt artifact left behind by another process: the loader
        // must recover by recompiling in place. (Corrupting a file this
        // process already mapped would be undefined — the dynamic loader
        // dedups by inode and keeps the pages mapped — so the test models
        // the only corruption that can really happen: before first load.)
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&so, b"not a shared object").unwrap();
        let (kern, served) =
            load_or_compile_in(&dir, SRC, cc, hash, sdfg_codegen::jit::JIT_ENTRY).unwrap();
        let mut out = [0.0];
        call(&kern, &[4.0], &mut out);
        assert_eq!(out, [9.0]);
        assert_eq!(served, Served::Compiled, "corrupt artifact recompiled");
        assert!(so.exists(), "artifact persisted");

        // Warm hit: the artifact is mapped without invoking the compiler.
        let (_, served) =
            load_or_compile_in(&dir, SRC, cc, hash, sdfg_codegen::jit::JIT_ENTRY).unwrap();
        assert_eq!(served, Served::Disk, "hit: no compile");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_shares_one_compilation_across_threads() {
        if cc().is_none() {
            return;
        }
        // A source unique to this test so the registry slot is fresh.
        let src = format!("{SRC}/* registry-test-{} */\n", std::process::id());
        let served: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| get_or_compile_entry(&src, sdfg_codegen::jit::JIT_ENTRY)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        let first = served[0].0.hash;
        assert!(served.iter().all(|(k, _)| k.hash == first));
        // One request materializes the kernel (compiling it, or loading an
        // artifact a previous process left); the other seven share it.
        let materialized = served
            .iter()
            .filter(|(_, how)| *how != Served::Registry)
            .count();
        assert_eq!(
            materialized, 1,
            "eight concurrent requests, one materialization"
        );
    }

    #[test]
    fn fallback_counters_accumulate() {
        let before = stats().fallbacks;
        record_fallback(0xabcd, "state0/map", "unsupported_body", "indexed access");
        assert_eq!(stats().fallbacks, before + 1);
    }

    #[test]
    fn nest_kernel_roundtrip_triangular() {
        // Emit a real triangular nest through the v2 emitter, compile it,
        // and run one tile: for i ∈ [0,4), for j ∈ [0,i): A[4i+j] += 1·1.
        use sdfg_codegen::jit::{
            emit_nest_kernel, JitBody, JitOutMode, JitWcrOp, NestItem, NestOut, NestSpec,
            NestTasklet,
        };
        use sdfg_lang::recognize::{BinOpKind, Operand, Pattern};
        if cc().is_none() {
            return;
        }
        let spec = NestSpec {
            ndims: 2,
            nports: 1,
            tasklets: vec![NestTasklet {
                body: JitBody::Pattern(Pattern::BinOp {
                    op: BinOpKind::Add,
                    a: Operand::Const(0.5),
                    b: Operand::Const(0.5),
                }),
                ins: vec![],
                outs: vec![NestOut {
                    port: 0,
                    mode: JitOutMode::CombinePerPoint(JitWcrOp::Sum),
                }],
            }],
            body: vec![NestItem::Loop {
                dim: 1,
                body: vec![NestItem::Call(0)],
            }],
        };
        let src = emit_nest_kernel(&spec).unwrap();
        let kern = get_or_compile_nest(&src).unwrap();
        let mut a = [0.0f64; 16];
        let bufs = [a.as_mut_ptr()];
        // geo row (width 4): buf 0, base 0, coeffs (4, 1) → A[4i+j].
        let geo = [0i64, 0, 4, 1];
        // bnd rows (width 3): dim-0 rows unused; dim 1 is j ∈ [0, i).
        let bnd = [0i64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0];
        let mut npts = 0i64;
        // SAFETY: geometry above stays inside `a` for i ∈ [0,4).
        unsafe {
            (kern.nest_func())(
                bufs.as_ptr(),
                geo.as_ptr(),
                std::ptr::null(),
                bnd.as_ptr(),
                0,
                4,
                &mut npts,
            );
        }
        // Strict lower triangle of the 4×4 view gets +1.
        for i in 0..4 {
            for j in 0..4 {
                let want = if j < i { 1.0 } else { 0.0 };
                assert_eq!(a[4 * i + j], want, "A[{i}][{j}]");
            }
        }
        assert_eq!(npts, 6);
    }
}
