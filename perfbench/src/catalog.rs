//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! declares the same names and units; a test keeps the two equal.

use sdfg_workloads::polybench;

/// Kernels of the `small` request class: responses of a few KiB.
pub const SMALL: [&str; 5] = ["atax", "bicg", "gesummv", "mvt", "trisolv"];
/// Kernels of the `large` request class: bodies of a few hundred KiB.
pub const LARGE: [&str; 3] = ["gemm", "jacobi-2d", "lu"];

/// End-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("speedup_vs_ref.geomean", "ratio"),
    ("suite_warm_ms", "ms"),
    ("invoke_ms.small.p50", "ms"),
    ("invoke_ms.large.p50", "ms"),
    ("invoke_ms.p99", "ms"),
    ("invokes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

const LAYER_FIXED: [(&str, &str); 46] = [
    ("workloads.ref_suite_ms", "ms"),
    ("workloads.gemm_tuned_ratio", "ratio"),
    ("frontend.build_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.content_hash_ms", "ms"),
    ("core.to_json_ms", "ms"),
    ("core.from_json_ms", "ms"),
    ("transforms.optimize_ms", "ms"),
    ("transforms.passes_applied", "count"),
    ("exec.session_build_ms", "ms"),
    ("exec.first_invoke_ms", "ms"),
    ("exec.states_executed", "count"),
    ("exec.interstate_evals", "count"),
    ("exec.map_launches", "count"),
    ("exec.tasklet_points", "count"),
    ("exec.jit_points", "count"),
    ("exec.native_points", "count"),
    ("exec.nest_calls", "count"),
    ("exec.nest_points", "count"),
    ("exec.jit_point_share", "share"),
    ("exec.plan_cache_hit_rate", "share"),
    ("exec.pool_reuse_rate", "share"),
    ("lower.maps_total", "count"),
    ("lower.maps_jit", "count"),
    ("lower.jit_map_share", "share"),
    ("jit.compiles", "count"),
    ("jit.cache_hits", "count"),
    ("jit.fallbacks", "count"),
    ("sched.launches", "count"),
    ("sched.tiles", "count"),
    ("sched.steals", "count"),
    ("sched.idle_share", "share"),
    ("serve.submit_ms", "ms"),
    ("serve.decode_ms.small", "ms"),
    ("serve.decode_ms.large", "ms"),
    ("serve.engine_ms.small.p50", "ms"),
    ("serve.engine_ms.large.p50", "ms"),
    ("serve.outside_engine_ms.small.p50", "ms"),
    ("serve.outside_engine_ms.large.p50", "ms"),
    ("serve.request_bytes.large", "bytes"),
    ("serve.response_bytes.large", "bytes"),
    ("serve.rejected", "count"),
    ("fail_rate", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Name of the per-kernel warm-time row.
pub fn warm_row(kernel: &str) -> String {
    format!("exec.warm_ms.{kernel}")
}

/// Per-layer metrics, printed by traced runs of every workload (zero
/// where the workload does not reach the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    out.extend(polybench::all().iter().map(|k| (warm_row(k.name), "ms")));
    out
}

/// A metric name as the result line may carry it.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::serialize::{parse_json, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&src).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no `{section}` list");
        };
        items
            .iter()
            .map(|m| {
                let name = m.str_field("name").expect("name").to_string();
                let unit = m.str_field("unit").expect("unit").to_string();
                (name, unit)
            })
            .collect()
    }

    fn owned(list: &[(String, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_are_declared() {
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(owned(&e2e), declared("end_to_end"));
        assert_eq!(owned(&per_layer()), declared("per_layer"));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_name(n), "`{n}` is not a valid metric name");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn classes_name_suite_kernels() {
        for name in SMALL.iter().chain(&LARGE) {
            assert!(
                polybench::by_name(name).is_some(),
                "`{name}` is not a kernel"
            );
        }
    }
}
