//! The metric names, units and directions, as `BENCHMARK.json` lists them.

/// `(name, unit, better)` of every end-to-end metric.  Every workload
/// reports all of them in its untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("read_p50_ms", "ms", "lower"),
    ("read_p90_ms", "ms", "lower"),
    ("reads_per_s", "1/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.  Every workload
/// reports all of them in its traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("snapshot.load_ms", "ms", "lower"),
    ("delta.install_ms", "ms", "lower"),
    ("reduce.ms", "ms", "lower"),
    ("alg2.ms", "ms", "lower"),
    ("alg2.peel_rounds", "count", "lower"),
    ("promote.ms", "ms", "lower"),
    ("maxcard.ms", "ms", "lower"),
    ("solve.ms", "ms", "lower"),
    ("solve.coverage", "ratio", "higher"),
    ("solve.ms_w1", "ms", "lower"),
    ("pram.depth", "count", "lower"),
    ("pram.work", "count", "lower"),
    ("executor.fork_join_us", "us", "lower"),
    ("response.clone_ms", "ms", "lower"),
    ("response.bytes_copied", "B", "lower"),
    ("delta.apply_us", "us", "lower"),
    ("delta.flush_us", "us", "lower"),
    ("delta.shard_solves", "count", "lower"),
    ("delta.full_solves", "count", "lower"),
    ("delta.fallback_full_solves", "count", "lower"),
    ("delta.spliced_applicants", "count", "lower"),
    ("server.submit_us", "us", "lower"),
    ("server.queue_len_p90", "count", "lower"),
    ("server.delta_ticks", "count", "lower"),
    ("server.deltas_coalesced", "count", "higher"),
    ("server.coalesce_factor", "ratio", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.degraded_responses", "count", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("alloc.per_op", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use crate::workload::Workload;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_metric_name(n), "{n}");
            assert!(!all[..i].contains(n), "{n} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    /// `BENCHMARK.json` at the repository root lists exactly these metrics
    /// and workloads, with these units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}", "better": "{better}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!(r#""name": "{}""#, w.name())));
        }
        let listed = json.matches(r#""name":"#).count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
