//! `poly-serial` and `poly-parallel`: the 30 Polybench kernels, each in
//! its own builder-default `Session` (OptLevel None, JIT on), timed
//! against the kernel's naive Rust reference.

use crate::catalog::{warm_row, LARGE, SMALL};
use crate::stats::{geomean, mean, median, p99, p99_min_samples, Rng};
use crate::trace::{self, Tracer};
use crate::verify::{allclose, REF_TOL};
use crate::{jit_counters, ms, Mode, Outcome};
use sdfg_exec::{Session, Stats};
use sdfg_profile::SchedWorker;
use sdfg_workloads::polybench::{self, PolyKernel};
use sdfg_workloads::tuned;
use sdfg_workloads::workload::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Problem scale of every kernel.
pub const SCALE: usize = 64;

/// Geometric mean of the 30 reference times on the nominal host, ms.
///
/// Shared hosts change speed by up to 1.8x between runs a minute apart,
/// and within a run, the naive references as much as the engine. Warm
/// times are stated at the nominal host speed: each round's samples are
/// divided by the [`host_factor`] of the references timed in that round.
/// Engine changes move them; the host's state moves them much less.
const NOMINAL_REF_GEOMEAN_MS: f64 = 0.125;

/// How much slower than nominal the host ran, from one reference time
/// per kernel.
fn host_factor(ref_ms: &[f64]) -> f64 {
    geomean(ref_ms) / NOMINAL_REF_GEOMEAN_MS
}

/// The suite in the order `seed` fixes.
pub fn kernel_order(seed: u64) -> Vec<PolyKernel> {
    let mut ks = polybench::all();
    Rng::new(seed, 0).shuffle(&mut ks);
    ks
}

struct Entry {
    kernel: PolyKernel,
    w: Workload,
    session: Session,
    want: HashMap<String, Vec<f64>>,
    /// Reference burst median, one per round.
    ref_ms: Vec<f64>,
    /// Caller-observed `Session::run` latency, one burst median per round
    /// with a successful invoke, and the round it came from.
    warm_ms: Vec<f64>,
    warm_round: Vec<usize>,
    /// Whole warm invoke (bindings, run, check), split by traced rounds.
    invoke_ms: [Vec<f64>; 2],
    stats: Option<Stats>,
    burst: usize,
    ref_burst: usize,
}

/// Target length of one burst of back-to-back calls, ms.
const BURST_MS: f64 = 2.0;
/// Most calls in one burst.
const MAX_BURST: usize = 64;

pub fn burst_len(call_ms: f64) -> usize {
    ((BURST_MS / call_ms).ceil() as usize).clamp(1, MAX_BURST)
}

/// One warm invoke with fresh bindings, checked against the reference;
/// returns the `Session::run` latency in ms, `None` on a failure.
fn invoke(e: &mut Entry, tr: &mut Tracer, out: &mut Outcome, traced: bool) -> Option<f64> {
    let name = e.kernel.name;
    let t_inv = Instant::now();
    tr.begin("invoke", name);
    let bindings = tr.span("exec.bindings", name, || e.w.bindings());
    tr.begin("exec.run", name);
    let t = Instant::now();
    let result = e.session.run(bindings);
    let lat = ms(t.elapsed());
    tr.end();
    out.attempted += 1;
    let checked = tr.span("check", name, || match result {
        Ok(o) => allclose(&e.w.check, o.arrays(), &e.want, REF_TOL).map(|()| o.stats().clone()),
        Err(err) => Err(format!("failed: {err}")),
    });
    tr.end();
    e.invoke_ms[traced as usize].push(ms(t_inv.elapsed()));
    match checked {
        Ok(stats) => {
            e.stats.get_or_insert(stats);
            Some(lat)
        }
        Err(err) => {
            eprintln!("perfbench: {name}: warm invoke: {err}");
            out.failed += 1;
            None
        }
    }
}

/// Sums the per-worker scheduler counters: (launches, tiles, steals, idle ns).
fn sched_totals(s: &Session) -> (u64, u64, u64, u64) {
    match s.sched_stats() {
        Some(st) => {
            let sum = |f: fn(&SchedWorker) -> u64| st.workers.iter().map(f).sum::<u64>();
            (
                st.launches,
                sum(|w| w.tiles),
                sum(|w| w.steals),
                sum(|w| w.idle_ns),
            )
        }
        None => (0, 0, 0, 0),
    }
}

pub fn run(nthreads: usize, seed: u64, mode: Mode) -> Result<Outcome, String> {
    let traced = mode.trace;
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch, 0);
    let jit0 = jit_counters();
    let mut out = Outcome::default();

    // Set-up: everything paid before warm traffic.
    let t_setup = Instant::now();
    let mut entries = Vec::new();
    for kernel in kernel_order(seed) {
        let name = kernel.name;
        let w = tr.span("frontend.build", name, || (kernel.build)(SCALE));
        if traced {
            tr.span("core.validate", name, || sdfg_core::validate(&w.sdfg))
                .map_err(|e| format!("{name}: invalid SDFG: {e:?}"))?;
            tr.span("core.content_hash", name, || {
                black_box(sdfg_core::serialize::content_hash(&w.sdfg))
            });
            let json = tr.span("core.to_json", name, || {
                sdfg_core::serialize::to_json(&w.sdfg)
            });
            tr.span("core.from_json", name, || {
                sdfg_core::serialize::from_json(&json)
            })
            .map_err(|e| format!("{name}: SDFG does not reparse: {e}"))?;
        }
        let session = tr
            .span("exec.session_build", name, || {
                w.session().nthreads(nthreads).build()
            })
            .map_err(|e| format!("{name}: session build: {e}"))?;
        let bindings = w.bindings();
        let first = tr.span("exec.first_invoke", name, || session.run(bindings));
        out.attempted += 1;
        let first = first.map_err(|e| format!("{name}: first invoke: {e}"))?;
        entries.push((kernel, w, session, first.into_arrays()));
    }
    out.setup_s = t_setup.elapsed().as_secs_f64();
    if mode.setup_only {
        return Ok(out);
    }

    let mut entries: Vec<Entry> = entries
        .into_iter()
        .map(|(kernel, w, session, first)| {
            let want = (kernel.reference)(&w);
            if let Err(e) = allclose(&w.check, &first, &want, REF_TOL) {
                eprintln!("perfbench: {}: first invoke: {e}", kernel.name);
                out.failed += 1;
            }
            Entry {
                kernel,
                w,
                session,
                want,
                ref_ms: Vec::new(),
                warm_ms: Vec::new(),
                warm_round: Vec::new(),
                invoke_ms: [Vec::new(), Vec::new()],
                stats: None,
                burst: 1,
                ref_burst: 1,
            }
        })
        .collect();

    if traced {
        lowering_table(&mut tr, &entries, &mut out);
    }

    // Warm invoke-many phase: rounds over the suite in the seeded order
    // until the time is up and the pooled sample supports a p99. Each
    // round runs a burst of back-to-back references and invokes per
    // kernel and keeps each burst's median, so a fast kernel is timed
    // with warm caches whatever ran before it.
    tr.set_on(false);
    for e in &mut entries {
        let t = Instant::now();
        black_box((e.kernel.reference)(black_box(&e.w)));
        e.ref_burst = burst_len(ms(t.elapsed()));
        let lat = invoke(e, &mut tr, &mut out, false).unwrap_or(BURST_MS);
        e.burst = burst_len(lat);
    }
    let min_rounds = p99_min_samples(10).div_ceil(entries.len());
    let sched0: Vec<_> = entries.iter().map(|e| sched_totals(&e.session)).collect();
    let deadline = Instant::now() + mode.seconds;
    let (mut rounds, mut busy_ms) = (0usize, 0.0);
    loop {
        // Traced runs alternate untraced and traced rounds; the difference
        // is the tracing overhead.
        let on = traced && rounds % 2 == 1;
        tr.set_on(on);
        for e in &mut entries {
            let name = e.kernel.name;
            let refs: Vec<f64> = (0..e.ref_burst)
                .map(|_| {
                    tr.span("workloads.reference", name, || {
                        let t = Instant::now();
                        black_box((e.kernel.reference)(black_box(&e.w)));
                        ms(t.elapsed())
                    })
                })
                .collect();
            e.ref_ms.push(median(&refs));
            let lats: Vec<f64> = (0..e.burst)
                .filter_map(|_| invoke(e, &mut tr, &mut out, on))
                .collect();
            busy_ms += lats.iter().sum::<f64>();
            if !lats.is_empty() {
                e.warm_ms.push(median(&lats));
                e.warm_round.push(rounds);
            }
        }
        rounds += 1;
        if rounds >= min_rounds && Instant::now() >= deadline {
            break;
        }
    }
    let spans = tr.into_spans();
    if entries.iter().any(|e| e.warm_ms.is_empty()) {
        return Err("a kernel completed no warm invoke".into());
    }

    // End-to-end figures, times at the nominal host speed.
    let round_factor: Vec<f64> = (0..rounds)
        .map(|r| host_factor(&entries.iter().map(|e| e.ref_ms[r]).collect::<Vec<_>>()))
        .collect();
    out.host_factor = Some(median(&round_factor));
    let nominal = |e: &Entry| -> Vec<f64> {
        e.warm_ms
            .iter()
            .zip(&e.warm_round)
            .map(|(v, &r)| v / round_factor[r])
            .collect()
    };
    let ratios: Vec<f64> = entries
        .iter()
        .map(|e| median(&e.ref_ms) / median(&e.warm_ms))
        .collect();
    // A class's p50 counts each of its programs once: the mean of their
    // medians, which moves smoothly when two programs trade places.
    let class_p50 = |names: &[&str]| -> f64 {
        let meds: Vec<f64> = entries
            .iter()
            .filter(|e| names.contains(&e.kernel.name))
            .map(|e| median(&nominal(e)))
            .collect();
        mean(&meds)
    };
    let all: Vec<f64> = entries.iter().flat_map(nominal).collect();
    let busy_s = busy_ms / 1e3;
    let suite_ms: f64 = entries.iter().map(|e| median(&nominal(e))).sum();
    if !traced {
        out.end_to_end = vec![
            ("speedup_vs_ref.geomean", geomean(&ratios)),
            ("suite_warm_ms", suite_ms),
            ("invoke_ms.small.p50", class_p50(&SMALL)),
            ("invoke_ms.large.p50", class_p50(&LARGE)),
            ("invoke_ms.p99", p99(&all, 10)?),
            // A caller cycling through the suite.
            ("invokes_per_s", entries.len() as f64 / (suite_ms / 1e3)),
        ];
    }

    // Per-layer figures (traced runs).
    if traced {
        let l = &mut out.layers;
        let refs = trace::durations_by_tag(&spans, "workloads.reference");
        l.insert(
            "workloads.ref_suite_ms".into(),
            refs.values().map(|v| median(v)).sum(),
        );
        let runs = trace::durations_by_tag(&spans, "exec.run");
        for (kernel, v) in &runs {
            l.insert(warm_row(kernel), median(v));
        }
        if let Some(gemm) = entries.iter().find(|e| e.kernel.name == "gemm") {
            let ratio = gemm_tuned_ms(&gemm.w) / median(&runs["gemm"]);
            l.insert("workloads.gemm_tuned_ratio".into(), ratio);
        }
        for (metric, span) in [
            ("frontend.build_ms", "frontend.build"),
            ("core.validate_ms", "core.validate"),
            ("core.content_hash_ms", "core.content_hash"),
            ("core.to_json_ms", "core.to_json"),
            ("core.from_json_ms", "core.from_json"),
            ("exec.session_build_ms", "exec.session_build"),
            ("exec.first_invoke_ms", "exec.first_invoke"),
        ] {
            l.insert(metric.into(), trace::total_ms(&spans, span));
        }
        let pass: Vec<&Stats> = entries.iter().filter_map(|e| e.stats.as_ref()).collect();
        crate::insert_pass_counters(l, &pass);
        let (mut hits, mut lookups, mut reuses, mut acquires) = (0, 0, 0, 0);
        for e in &entries {
            let c = e.session.cache_stats();
            let p = e.session.pool_stats();
            hits += c.hits;
            lookups += c.hits + c.misses;
            reuses += p.reuses;
            acquires += p.acquires;
        }
        l.insert(
            "exec.plan_cache_hit_rate".into(),
            crate::share(hits, lookups),
        );
        l.insert(
            "exec.pool_reuse_rate".into(),
            crate::share(reuses, acquires),
        );
        let mut d = (0, 0, 0, 0);
        for (e, s0) in entries.iter().zip(&sched0) {
            let s1 = sched_totals(&e.session);
            d.0 += s1.0 - s0.0;
            d.1 += s1.1 - s0.1;
            d.2 += s1.2 - s0.2;
            d.3 += s1.3 - s0.3;
        }
        let r = rounds as f64;
        l.insert("sched.launches".into(), d.0 as f64 / r);
        l.insert("sched.tiles".into(), d.1 as f64 / r);
        l.insert("sched.steals".into(), d.2 as f64 / r);
        let workers = nthreads as f64;
        l.insert(
            "sched.idle_share".into(),
            d.3 as f64 / 1e9 / (workers * busy_s),
        );
        let overhead: f64 = entries
            .iter()
            .map(|e| median(&e.invoke_ms[1]) - median(&e.invoke_ms[0]))
            .sum();
        let untraced: f64 = entries.iter().map(|e| median(&e.invoke_ms[0])).sum();
        l.insert("trace.overhead_ms".into(), overhead);
        l.insert("trace.overhead_share".into(), overhead / untraced);
    }
    out.spans = spans;
    out.jit_delta(jit0);

    out.rows = entries
        .iter()
        .zip(&ratios)
        .map(|(e, ratio)| {
            format!(
                "{{\"kernel\":\"{}\",\"warm_ms\":{},\"ref_ms\":{},\"speedup\":{},\"samples\":{}}}",
                e.kernel.name,
                median(&e.warm_ms),
                median(&e.ref_ms),
                ratio,
                e.warm_ms.len()
            )
        })
        .collect();
    Ok(out)
}

/// Lowering decisions of every kernel's maps, from a profiled run.
fn lowering_table(tr: &mut Tracer, entries: &[Entry], out: &mut Outcome) {
    let (mut total, mut jit) = (0usize, 0usize);
    for e in entries {
        let name = e.kernel.name;
        match tr.span("lower.report", name, || e.w.run_exec_profiled()) {
            Ok((_, _, _, _, lowerings)) => {
                total += lowerings.len();
                jit += lowerings.iter().filter(|m| m.tier == "jit").count();
            }
            Err(err) => {
                eprintln!("perfbench: {name}: profiled run failed: {err}");
                out.failed += 1;
            }
        }
        out.attempted += 1;
    }
    crate::insert_lowering(&mut out.layers, total, jit);
}

/// Median time of the tuned gemm baseline on the workload's operands.
pub fn gemm_tuned_ms(w: &Workload) -> f64 {
    let (ni, nj, nk) = (
        w.sym("NI") as usize,
        w.sym("NJ") as usize,
        w.sym("NK") as usize,
    );
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut c = w.arrays["C"].clone();
            let t = Instant::now();
            tuned::gemm_tuned(&w.arrays["A"], &w.arrays["B"], &mut c, ni, nk, nj);
            black_box(&c);
            ms(t.elapsed())
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_kernel_order() {
        let names = |seed| {
            kernel_order(seed)
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
        let mut sorted = names(7);
        sorted.sort();
        let mut all: Vec<_> = polybench::all().iter().map(|k| k.name).collect();
        all.sort();
        assert_eq!(sorted, all, "every kernel runs exactly once per round");
    }

    #[test]
    fn host_factor_is_reference_geomean_over_nominal() {
        let nominal = [NOMINAL_REF_GEOMEAN_MS; 30];
        assert!((host_factor(&nominal) - 1.0).abs() < 1e-12);
        let slow: Vec<f64> = [0.5, 2.0]
            .iter()
            .map(|x| x * 1.5 * NOMINAL_REF_GEOMEAN_MS)
            .collect();
        assert!((host_factor(&slow) - 1.5).abs() < 1e-12);
    }
}
