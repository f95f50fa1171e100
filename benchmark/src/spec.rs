//! The names the benchmark is made of: every end-to-end metric with its
//! regression bound, and every per-layer metric with the layer it measures
//! and the end-to-end number it is predicted to move. `BENCHMARK.json` is
//! this file printed (`hwjoin-benchmark spec`); a self-test keeps the two
//! identical.

use crate::json::Json;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A metric a user of the system sees. Measured with harness tracing off,
/// reported by every workload.
///
/// The bounds are the widest the benchmark's driver allows. The box this was
/// sized on alternates between quiet phases, where ten runs of a workload
/// spread 3–9 % (IQR / median), and phases where a neighbour slows the same
/// code by 20–35 % for minutes; a tighter bound would reject innocent
/// changes measured in the second kind.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "generate + load/encode/index + reference results + server bind/connect + warm-ups; median of the set-ups one run makes",
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "median wall, seen by its caller, of one query that executed a join (svc: replies not served from the result cache)",
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: Higher,
        bound: 0.25,
        what: "rows of every loaded table / median executed-query seconds: input processed per second at the stated size",
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "process user+sys CPU (getrusage) over the timed region / operations: shows a wall gain bought with extra cores",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
        what: "VmHWM of the workload's process when the timed region ends",
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "completed-and-correct operations / wall of the timed (closed-loop) region",
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "median wall of one operation as its client sees it, cache hits included (svc: send to last frame)",
    },
    EndToEnd {
        name: "latency_ms_tail",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "the same, at the highest percentile that repeats on the workload's sample count: p95 on the service workloads, p75 on the engine workloads",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Stage busy time from the `Timeline` a run returns.
    Stage,
    /// Counter from `JoinSummary`, a metrics snapshot or `ClientReply`.
    Counter,
    /// Isolated kernel: the layer's public function on inputs cut from the
    /// workload's own tables.
    Kernel,
    /// Harness span around a top-level call.
    Harness,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::Stage => "S",
            Source::Counter => "C",
            Source::Kernel => "K",
            Source::Harness => "H",
        }
    }
}

use Source::{Counter as C, Harness as H, Kernel as K, Stage as S};

/// A metric of one layer. The layer is the first segment of the name.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Which end-to-end metric, on which workload, this is predicted to move
    /// (written down before measuring; see the README's interaction table).
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const NONE: &str = "none: describes the measurement, not the program";
const SETUP: &str = "setup_s everywhere; no timed metric";
const SCAN: &str = "query_ms_p50 @ paper_zigzag_col (scan ~30%), wide_repart_* (~45%), star3_auto (~30%); not svc_tcp_cached";
const PROBE_OUT: &str = "query_ms_p50 @ paper_zigzag_col (probe ~50%), paper_repart_text (~30%); not wide_repart_* (output tiny)";
const BUILD_PROBE: &str = "query_ms_p50 @ wide_repart_mt (build+probe ~25%); not paper_* (<2%)";
const SHUFFLE: &str =
    "query_ms_p50 @ wide_repart_mt (~25%), star3_auto (~15-25%); not paper_zigzag_col (~2%)";
const BLOOM: &str =
    "query_ms_p50 @ paper_zigzag_col by ~1-2%: predicted not to clear the bound anywhere";
const SPILL: &str = "query_ms_p50, cpu_ms_per_query @ wide_repart_spill (build+probe ~80%); all others spill 0 bytes";
const PLAN: &str = "qps, latency_ms_p50 @ svc_tcp_uncached; query_ms_p50 @ star3_auto; not paper_*, wide_* (explicit algorithm)";
const MULTIWAY: &str =
    "query_ms_p50 @ star3_auto; latency_ms_tail @ svc_tcp_uncached (stars are the slow tenth)";
const FRONT: &str =
    "qps, latency_ms_p50 @ svc_tcp_cached (~100% of a hit); not svc_tcp_uncached (<2% of a miss)";
const RELOAD: &str = "qps @ svc_tcp_cached (refill after each reload); not latency_ms_p50 there";
const DBSIDE: &str =
    "latency_ms_p50 @ svc_tcp_uncached (the db / db(BF) share of the mix); no engine workload";
const VOLUME: &str = "none directly: a volume that must stay equal unless a change states why";

pub const PER_LAYER: [PerLayer; 90] = [
    // harness
    pl("harness.calib.spin_ms", "ms", Lower, H, NONE),
    pl("harness.calib.memwalk_ms", "ms", Lower, H, NONE),
    pl("harness.trace_overhead.pct", "%", Lower, H, NONE),
    // datagen / load
    pl("datagen.generate.s", "s", Lower, H, SETUP),
    pl("core.load.s", "s", Lower, H, SETUP),
    pl("core.reference.s", "s", Lower, H, SETUP),
    // storage
    pl("storage.decode_columnar.ns_per_row", "ns/row", Lower, K, SCAN),
    pl("storage.decode_text.ns_per_row", "ns/row", Lower, K, "query_ms_p50 @ paper_repart_text (scan ~55%); every other workload is columnar"),
    pl("storage.encode_columnar.ns_per_row", "ns/row", Lower, K, SETUP),
    pl("storage.encode_text.ns_per_row", "ns/row", Lower, K, SETUP),
    pl("storage.columnar.bytes_per_row", "B/row", Lower, C, "peak_rss_mb, setup_s on columnar workloads"),
    pl("storage.text.bytes_per_row", "B/row", Lower, C, "peak_rss_mb, setup_s @ paper_repart_text"),
    // common
    pl("common.filter.ns_per_row", "ns/row", Lower, K, SCAN),
    pl("common.partition.ns_per_row", "ns/row", Lower, K, SHUFFLE),
    pl("common.take.ns_per_row", "ns/row", Lower, K, PROBE_OUT),
    pl("common.hash_build.ns_per_row", "ns/row", Lower, K, BUILD_PROBE),
    pl("common.hash_probe.ns_per_probe_row", "ns/row", Lower, K, BUILD_PROBE),
    pl("common.hash_probe.ns_per_out_row", "ns/row", Lower, K, PROBE_OUT),
    pl("common.aggregate.ns_per_row", "ns/row", Lower, K, "query_ms_p50 @ paper_* (aggregate stage share)"),
    pl("common.mempool.reserve_ns", "ns", Lower, K, "none expected: once per query"),
    pl("common.metrics.add_id_ns", "ns", Lower, K, "none expected: per message, not per row"),
    pl("common.trace.span_ns", "ns", Lower, K, "none expected: one span per phase per worker"),
    // bloom
    pl("bloom.insert.ns_per_key", "ns/key", Lower, K, BLOOM),
    pl("bloom.probe.ns_per_key", "ns/key", Lower, K, BLOOM),
    pl("bloom.blocked_insert.ns_per_key", "ns/key", Lower, K, BLOOM),
    pl("bloom.blocked_probe.ns_per_key", "ns/key", Lower, K, BLOOM),
    pl("bloom.member_sel.ns_per_row", "ns/row", Lower, K, BLOOM),
    pl("bloom.merge30.us", "us", Lower, K, BLOOM),
    pl("bloom.fpr_x1e6", "count", Lower, C, "net.shuffle.tuples @ paper_zigzag_col (false positives are shuffled for nothing)"),
    // hdfs + jen
    pl("jen.scan.ns_per_row", "ns/row", Lower, K, SCAN),
    pl("jen.hhj.build.ns_per_row", "ns/row", Lower, K, SPILL),
    pl("jen.hhj.probe.ns_per_row", "ns/row", Lower, K, SPILL),
    pl("jen.hhj.finish.ms", "ms", Lower, K, SPILL),
    pl("jen.spill.write_mb_per_s", "MB/s", Higher, K, SPILL),
    pl("jen.spill.read_mb_per_s", "MB/s", Higher, K, SPILL),
    pl("jen.spill.bytes_written", "B", Lower, C, SPILL),
    pl("jen.spill.bytes_read", "B", Lower, C, SPILL),
    pl("jen.mem.evictions", "count", Lower, C, SPILL),
    pl("jen.mem.partitions_resident", "count", Higher, C, SPILL),
    pl("jen.mem.high_water_bytes", "B", Lower, C, "peak_rss_mb @ wide_repart_spill"),
    pl("hdfs.bytes_scanned", "B", Lower, C, VOLUME),
    // edw
    pl("edw.scan.ns_per_row", "ns/row", Lower, K, "query_ms_p50 on every engine workload (the T scan, small next to the L scan)"),
    pl("edw.bloom_build.ns_per_row", "ns/row", Lower, K, BLOOM),
    pl("edw.join_aggregate.ms", "ms", Lower, K, DBSIDE),
    // net
    pl("net.send_recv.ns_per_msg", "ns", Lower, K, SHUFFLE),
    pl("net.send_recv.ns_per_row", "ns/row", Lower, K, SHUFFLE),
    pl("net.cross_bytes", "B", Lower, C, VOLUME),
    pl("net.intra_hdfs_bytes", "B", Lower, C, VOLUME),
    pl("net.msgs", "count", Lower, C, VOLUME),
    pl("net.shuffle.tuples", "count", Lower, C, VOLUME),
    pl("net.shuffle.max_over_mean_x1000", "count", Lower, C, "query_ms_p50 @ wide_repart_mt (the straggler bounds the shuffle)"),
    // core
    pl("core.stage.scan.busy_ms", "ms", Lower, S, SCAN),
    pl("core.stage.bloom_build.busy_ms", "ms", Lower, S, BLOOM),
    pl("core.stage.bloom_apply.busy_ms", "ms", Lower, S, BLOOM),
    pl("core.stage.shuffle_send.busy_ms", "ms", Lower, S, SHUFFLE),
    pl("core.stage.shuffle_recv.busy_ms", "ms", Lower, S, SHUFFLE),
    pl("core.stage.hash_build.busy_ms", "ms", Lower, S, BUILD_PROBE),
    pl("core.stage.probe.busy_ms", "ms", Lower, S, PROBE_OUT),
    pl("core.stage.aggregate.busy_ms", "ms", Lower, S, "query_ms_p50 @ paper_* (aggregate stage share)"),
    pl("core.stage.unattributed.pct", "%", Lower, S, "none: the residual the stage spans do not explain, reported not gated"),
    pl("core.sample_stats.ms", "ms", Lower, H, PLAN),
    pl("core.advise.us", "us", Lower, H, PLAN),
    pl("core.session.us", "us", Lower, H, PLAN),
    pl("core.driver.speedup_x1000", "count", Higher, H, "query_ms_p50 @ wide_repart_mt, at most Nx; watch cpu_ms_per_query there; not threads-1 workloads"),
    pl("core.multiway.cascade.ms", "ms", Lower, H, MULTIWAY),
    pl("core.multiway.hypercube.ms", "ms", Lower, H, MULTIWAY),
    pl("core.multiway.shuffle_bytes", "B", Lower, C, VOLUME),
    pl("core.advisor.ran_hypercube", "count", Higher, C, "none: records which family star3_auto measured"),
    // costmodel
    pl("costmodel.estimate.us", "us", Lower, H, PLAN),
    // service
    pl("service.submit_hit.ns", "ns", Lower, K, FRONT),
    pl("service.result_cache.get_hit.ns", "ns", Lower, K, FRONT),
    pl("service.result_cache.insert.ns", "ns", Lower, K, RELOAD),
    pl("service.reload.ms", "ms", Lower, K, RELOAD),
    pl("service.queue_wait.us_p50", "us", Lower, C, "latency_ms_p50 @ svc_tcp_uncached (sampling + admission before a slot)"),
    pl("service.queue_wait.us_p99", "us", Lower, C, "latency_ms_tail @ svc_tcp_uncached"),
    pl("service.exec.ms_p50", "ms", Lower, C, "latency_ms_p50, qps @ svc_tcp_uncached (~90% of a miss)"),
    pl("service.overhead.us_mean", "us", Lower, C, "latency_ms_p50 @ svc_tcp_uncached (server latency - queue - exec)"),
    pl("service.result_cache.hit_ratio_x1000", "count", Higher, C, FRONT),
    pl("service.bloom_cache.hit_ratio_x1000", "count", Higher, C, RELOAD),
    pl("service.result_cache.invalidations", "count", Lower, C, RELOAD),
    // server
    pl("server.codec.query_encode.ns", "ns", Lower, K, FRONT),
    pl("server.codec.query_decode.ns", "ns", Lower, K, FRONT),
    pl("server.codec.chunk_encode.ns_per_row", "ns/row", Lower, K, FRONT),
    pl("server.codec.chunk_decode.ns_per_row", "ns/row", Lower, K, FRONT),
    pl("server.wire.frame_roundtrip.ns", "ns", Lower, K, FRONT),
    pl("server.connect_hello.us", "us", Lower, H, SETUP),
    pl("server.frontdoor.overhead_us_p50", "us", Lower, H, FRONT),
    pl("server.frontdoor.hit_latency_us_p99", "us", Lower, H, "latency_ms_tail @ svc_tcp_cached"),
    pl("server.latency.binary_ms_p50", "ms", Lower, H, "latency_ms_p50 @ svc_tcp_uncached (binary is 90% of the mix)"),
    pl("server.latency.star_ms_p50", "ms", Lower, H, MULTIWAY),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The tables above as markdown, for the README (`hwjoin-benchmark describe`).
pub fn describe() -> String {
    let mut out = String::from("| workload | why it exists |\n|---|---|\n");
    for w in &WORKLOADS {
        out += &format!("| `{}` | {} |\n", w.name, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n";
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | source | predicted to move |\n|---|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.source.letter(),
            m.moves
        );
    }
    out
}

/// `BENCHMARK.json`, built from the tables above.
pub fn benchmark_json() -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.name())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {unit:?}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound out of range",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention {name}"
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_this_file_printed() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
