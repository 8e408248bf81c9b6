//! The `harness --autotune` mode: measurement-driven configuration search
//! with a persistent per-kernel tuning database.
//!
//! For each kernel the driver runs a coordinate-descent search over the
//! knob stages of [`sdfg_transforms::autotune::default_stages`] — serial
//! threshold, fusion, vectorization width, forced tile sizes, scheduler
//! grain — using the bench harness's warm-median protocol as the
//! objective (same warmup, same session-reuse discipline, same
//! batch-minimum/median estimator as `--bench --repeat`). Every candidate
//! is verified **bitwise** against the untuned session before it is
//! measured; a mismatch rejects the candidate outright.
//!
//! The incumbent starts at the `Aggressive`-equivalent default
//! configuration, whose measurement is the baseline. A candidate only
//! replaces the incumbent when its warm median is strictly faster, so the
//! persisted winner is never slower than `Aggressive`. Winners land in
//! the tuning database (`bench/tuned.json` by default) keyed by
//! `(content_hash, target, nthreads)`; `--opt=tuned` and
//! [`sdfg_exec::SessionBuilder::tuning_db`] pick them up at compile
//! time.
//!
//! Each measured trial increments `sdfg_autotune_trials_total{outcome}`
//! and, when the run ledger is enabled, appends an `autotune_trial`
//! record, so a tuning session is fully reconstructible from the
//! observability artifacts.

use crate::bench_json::{median_ms, warm_batch_mins};
use sdfg_exec::{OptLevel, SessionBuilder, TuneEntry, TuneKey, TunedConfig, TuningDb};
use sdfg_profile::{ledger, metrics};
use sdfg_transforms::autotune::default_stages;
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::collections::{HashMap, HashSet};

/// Configuration for one `--autotune` invocation.
pub struct TuneConfig {
    /// Kernel names to tune (Polybench registry names).
    pub kernels: Vec<String>,
    /// Problem scale passed to each kernel builder.
    pub scale: usize,
    /// Timed iterations per warm batch (best is kept).
    pub reps: usize,
    /// Untimed warm iterations before each measurement.
    pub warmup: usize,
    /// Warm batches per measurement; the objective is the median of
    /// per-batch minima.
    pub repeat: usize,
    /// Maximum measured candidate trials per kernel (`--budget`). The
    /// baseline measurement is not counted.
    pub budget: usize,
    /// Tuning database path (`--db`).
    pub db: String,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            kernels: vec!["atax".into(), "trisolv".into()],
            scale: 24,
            reps: 9,
            warmup: 3,
            repeat: 3,
            budget: 16,
            db: "bench/tuned.json".into(),
        }
    }
}

/// What tuning one kernel produced.
pub struct TuneOutcome {
    /// Kernel name.
    pub kernel: String,
    /// Warm-median milliseconds of the `Aggressive` baseline.
    pub baseline_warm_ms: f64,
    /// Warm-median milliseconds of the winner (≤ baseline by
    /// construction).
    pub tuned_warm_ms: f64,
    /// The winning configuration.
    pub best: TunedConfig,
    /// Measured candidate trials (excludes the baseline).
    pub trials: u32,
    /// Candidates rejected by the bitwise verification.
    pub rejected: u32,
}

impl TuneOutcome {
    /// Baseline-over-tuned speedup (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        if self.tuned_warm_ms <= 0.0 {
            0.0
        } else {
            self.baseline_warm_ms / self.tuned_warm_ms
        }
    }
}

/// Runs the workload once on a fresh session (configured by `setup`) and
/// returns the checked output containers.
fn outputs_once(
    w: &Workload,
    setup: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> Result<HashMap<String, Vec<f64>>, String> {
    let session = setup(w.session()).build().map_err(|e| e.to_string())?;
    let out = session.run(w.bindings()).map_err(|e| e.to_string())?;
    w.check
        .iter()
        .map(|c| Ok((c.clone(), out.array(c).map_err(|e| e.to_string())?.to_vec())))
        .collect()
}

/// Bitwise comparison of checked outputs: every element must match in its
/// bit pattern (`f64::to_bits`), so even rounding-level divergence from a
/// reordered reduction is caught.
fn bits_equal(a: &HashMap<String, Vec<f64>>, b: &HashMap<String, Vec<f64>>) -> bool {
    a.len() == b.len()
        && a.iter().all(|(k, xs)| {
            b.get(k).is_some_and(|ys| {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}

/// Warm-median measurement of a fresh session configured by `setup` —
/// the bench protocol (`--repeat` batches of best-of-`reps`) reused as a
/// library.
fn measure(
    w: &Workload,
    cfg: &TuneConfig,
    setup: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> Result<f64, String> {
    let session = setup(w.session()).build().map_err(|e| e.to_string())?;
    let mins = warm_batch_mins(&session, w.bindings(), cfg.warmup, cfg.reps, cfg.repeat)
        .map_err(|e| e.to_string())?;
    Ok(median_ms(mins))
}

/// Bumps the outcome counter and appends the ledger trial record.
fn record_trial(mut rec: ledger::TrialRecord) {
    let m = metrics::core();
    match rec.outcome.as_str() {
        "improved" => m.autotune_improved.inc(),
        "no_gain" => m.autotune_no_gain.inc(),
        _ => m.autotune_rejected.inc(),
    }
    ledger::append_trial(&mut rec);
}

/// Tunes one kernel: measures the `Aggressive` baseline, walks the knob
/// stages under the trial budget, persists the winner into the database
/// at [`TuneConfig::db`], and round-trips it (reload → `--opt=tuned`
/// executor → bitwise compare against the untuned executor).
pub fn tune_kernel(name: &str, cfg: &TuneConfig) -> Result<TuneOutcome, String> {
    let kernel = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .ok_or_else(|| format!("unknown kernel `{name}`"))?;
    let w = (kernel.build)(cfg.scale);
    let chash = sdfg_core::serialize::content_hash(&w.sdfg);
    let nthreads = w
        .session()
        .build()
        .map_err(|e| e.to_string())?
        .nthreads()
        .max(1);

    // The correctness oracle: the untuned (OptLevel::None) session.
    let reference = outputs_once(&w, |b| b)?;

    // The incumbent: the Aggressive-equivalent default configuration,
    // measured through the real Aggressive pipeline path.
    let mut best = TunedConfig::default();
    let baseline_ms = measure(&w, cfg, |b| b.opt_level(OptLevel::Aggressive))?;
    let mut best_ms = baseline_ms;
    println!(
        "autotune {name}: scale {} | {} reps x {} batches | budget {} | baseline {:.3} ms",
        cfg.scale, cfg.reps, cfg.repeat, cfg.budget, baseline_ms
    );

    let trial_rec = |stage: &str, label: &str, c: &TunedConfig, warm: f64, best: f64, out: &str| {
        ledger::TrialRecord {
            seq: 0,
            kernel: name.to_string(),
            content_hash: format!("{chash:016x}"),
            target: "cpu".into(),
            nthreads,
            stage: stage.into(),
            candidate: label.into(),
            config_json: c.to_json(),
            warm_ms: warm,
            best_ms: best,
            outcome: out.into(),
        }
    };
    let mut tried: HashSet<String> = HashSet::new();
    tried.insert(best.to_json());
    let mut trials = 0u32;
    let mut rejected = 0u32;
    'search: for (stage, knobs) in default_stages() {
        for knob in knobs {
            if trials as usize >= cfg.budget {
                println!("  budget exhausted ({trials} trials)");
                break 'search;
            }
            let mut candidate = best.clone();
            knob.apply(&mut candidate);
            if !tried.insert(candidate.to_json()) {
                continue; // revisits the incumbent or a measured point
            }
            trials += 1;
            let label = knob.label();
            // Verify before measuring: a candidate that changes results
            // is discarded no matter how fast it is.
            let got = outputs_once(&w, |b| b.tuned_config(candidate.clone()))?;
            if !bits_equal(&got, &reference) {
                rejected += 1;
                record_trial(trial_rec(
                    stage, &label, &candidate, 0.0, best_ms, "rejected",
                ));
                println!("  [{stage}] {label}: REJECTED (outputs differ from untuned)");
                continue;
            }
            let warm = measure(&w, cfg, |b| b.tuned_config(candidate.clone()))?;
            let outcome = if warm < best_ms {
                "improved"
            } else {
                "no_gain"
            };
            record_trial(trial_rec(stage, &label, &candidate, warm, best_ms, outcome));
            println!("  [{stage}] {label}: {warm:.3} ms  {outcome}");
            if warm < best_ms {
                best_ms = warm;
                best = candidate;
            }
        }
    }

    // Persist the winner. The incumbent is never slower than the
    // baseline, so the database invariant tuned_warm_ms <= baseline
    // holds by construction (equality = the Aggressive default won).
    let db_path = std::path::Path::new(&cfg.db);
    let mut db = TuningDb::load(db_path)?.unwrap_or_default();
    db.insert(TuneEntry {
        key: TuneKey {
            content_hash: chash,
            target: "cpu".into(),
            nthreads: nthreads as u32,
        },
        kernel: name.to_string(),
        config: best.clone(),
        tuned_warm_ms: best_ms,
        baseline_warm_ms: baseline_ms,
        trials,
    });
    db.save(db_path)
        .map_err(|e| format!("cannot write tuning db `{}`: {e}", cfg.db))?;
    println!(
        "  winner: {best} | {best_ms:.3} ms ({:.2}x vs aggressive) -> {}",
        baseline_ms / best_ms.max(1e-12),
        cfg.db
    );

    // Round-trip: a fresh session must find the entry in the saved
    // database and reproduce the untuned outputs bitwise.
    let tuned = w
        .session()
        .tuning_db(db_path)
        .build()
        .map_err(|e| e.to_string())?;
    let out = tuned.run(w.bindings()).map_err(|e| e.to_string())?;
    if tuned.tuned_config().as_ref() != Some(&best) {
        return Err(format!(
            "round-trip failed for `{name}`: saved entry not found by lookup"
        ));
    }
    let got: HashMap<String, Vec<f64>> = w
        .check
        .iter()
        .map(|c| Ok::<_, String>((c.clone(), out.array(c).map_err(|e| e.to_string())?.to_vec())))
        .collect::<Result<_, _>>()?;
    if !bits_equal(&got, &reference) {
        return Err(format!(
            "round-trip failed for `{name}`: tuned outputs differ from untuned"
        ));
    }
    println!("  round-trip: PASS (db lookup + bitwise-equal outputs)");

    Ok(TuneOutcome {
        kernel: name.to_string(),
        baseline_warm_ms: baseline_ms,
        tuned_warm_ms: best_ms,
        best,
        trials,
        rejected,
    })
}

/// Runs `--autotune` end to end; returns `false` on any failure.
pub fn run_autotune(cfg: &TuneConfig) -> bool {
    let mut ok = true;
    let mut outcomes = Vec::new();
    for name in &cfg.kernels {
        match tune_kernel(name, cfg) {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                eprintln!("autotune {name}: FAIL — {e}");
                ok = false;
            }
        }
        println!();
    }
    if !outcomes.is_empty() {
        println!(
            "{:<16} {:>12} {:>12} {:>9} {:>7} {:>9}",
            "kernel", "baseline ms", "tuned ms", "speedup", "trials", "rejected"
        );
        for o in &outcomes {
            println!(
                "{:<16} {:>12.3} {:>12.3} {:>8.2}x {:>7} {:>9}",
                o.kernel,
                o.baseline_warm_ms,
                o.tuned_warm_ms,
                o.speedup(),
                o.trials,
                o.rejected
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_equal_is_exact() {
        let a: HashMap<String, Vec<f64>> = [("y".to_string(), vec![1.0, 2.0])].into();
        let mut b = a.clone();
        assert!(bits_equal(&a, &b));
        // One ULP apart fails.
        b.get_mut("y").unwrap()[1] = f64::from_bits(2.0f64.to_bits() + 1);
        assert!(!bits_equal(&a, &b));
        // Different keys or lengths fail.
        assert!(!bits_equal(&a, &HashMap::new()));
        // Negative zero differs from zero bitwise, NaN equals itself.
        let z: HashMap<String, Vec<f64>> = [("y".to_string(), vec![0.0])].into();
        let nz: HashMap<String, Vec<f64>> = [("y".to_string(), vec![-0.0])].into();
        assert!(!bits_equal(&z, &nz));
        let n: HashMap<String, Vec<f64>> = [("y".to_string(), vec![f64::NAN])].into();
        assert!(bits_equal(&n, &n.clone()));
    }

    #[test]
    fn stage_walk_respects_budget_without_measuring() {
        // Pure bookkeeping check: the number of candidates in the default
        // stages bounds the trial count the driver can spend.
        let total: usize = default_stages().iter().map(|(_, ks)| ks.len()).sum();
        assert!(total >= 8, "search space too small: {total}");
    }
}
