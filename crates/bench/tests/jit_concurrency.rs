//! Concurrent sessions share one compiled JIT artifact.
//!
//! This lives in its own test binary (its own process) because the JIT
//! compile counters are process-global: here they are touched only by
//! this test, so the "exactly one compilation" assertion is exact.

use sdfg_exec::jit;
use sdfg_workloads::polybench;

#[test]
fn concurrent_invokes_share_one_compiled_artifact() {
    if jit::cc().is_none() {
        return; // no system C compiler: nothing to share
    }
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == "gemm")
        .unwrap();
    let w = (k.build)(24);
    let session = w.session().build().unwrap();
    let before = jit::stats();
    let outs: Vec<_> = std::thread::scope(|s| {
        (0..8)
            .map(|_| s.spawn(|| session.run(w.bindings()).unwrap()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let after_cold = jit::stats();
    let cold = after_cold.compiles - before.compiles;
    let loaded = after_cold.disk_loads - before.disk_loads;
    // gemm lowers a handful of map bodies (the beta scale, the
    // contraction); eight concurrent cold invokes must materialize each
    // exactly once — by compiling, or by loading a prior run's artifact
    // from the on-disk cache — and share the handle. If the registry
    // failed to dedup, every racing thread would do its own work (8× the
    // kernels).
    assert!(cold + loaded >= 1, "no kernel was JIT-compiled or loaded");
    assert!(
        cold + loaded <= 4,
        "concurrent invokes materialized {cold} compiles + {loaded} loads \
         — registry dedup failed"
    );
    for o in &outs {
        assert!(
            o.stats().jit_points > 0,
            "invoke did not reach the JIT tier"
        );
    }
    // And every invoke saw bit-identical results.
    let first = outs[0].array("C").unwrap();
    for o in &outs[1..] {
        let c = o.array("C").unwrap();
        assert!(
            first.iter().zip(c).all(|(a, b)| a.to_bits() == b.to_bits()),
            "concurrent invokes diverged"
        );
    }

    // A second session (private plan cache) lowers the same maps again:
    // every kernel must hit the in-process registry, compiling and
    // loading nothing.
    let session2 = w.session().build().unwrap();
    let o = session2.run(w.bindings()).unwrap();
    assert!(
        o.stats().jit_points > 0,
        "second session missed the JIT tier"
    );
    let after_second = jit::stats();
    assert_eq!(
        after_second.compiles, after_cold.compiles,
        "a second session recompiled an already-shared artifact"
    );
    assert_eq!(
        after_second.disk_loads, after_cold.disk_loads,
        "a second session reloaded an already-shared artifact"
    );
}
