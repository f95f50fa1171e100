//! The paper's evaluation (§5) — Table 1, Figs. 8–15 and the §5.5 advisor
//! grid — as one table of panels and named claims.
//!
//! A panel is data: its sweep points, the formats and algorithms run at
//! each, and its table. A claim is data too: a stable name, what the paper
//! reports, and a check of the paper's shape (who wins, by roughly how
//! much, where the crossovers sit) over the panel's rows, and the state it
//! is recorded to show: it matches the paper, or it deviates for a stated
//! cause (EXPERIMENTS.md). Each distinct (workload, format) is loaded once
//! and each algorithm runs on it once, however many panels read it. The
//! binary prints every table with its `OK matches paper` / `!! DIVERGES`
//! lines, then the known deviations by name, and exits nonzero if any
//! claim's state differs from its recorded one, in either direction: a
//! deviation that closes fails the run just as a regression does.
//!
//! `paper_figures [WORD…]` runs the panels whose id starts with a word
//! (`paper_figures fig13 advisor`), or all of them. `HYBRID_BENCH_SCALE`
//! picks the scale; only `default` is a valid check (see EXPERIMENTS.md).

use std::process::ExitCode;

use hybrid_bench::report::{paper_millions, print_table, secs, verdict};
use hybrid_bench::{spec_from_env, ExpSystem};
use hybrid_core::{advisor::advise, JoinAlgorithm, JoinSummary};
use hybrid_costmodel::scale::{PAPER_L_ROWS, PAPER_T_ROWS};
use hybrid_datagen::WorkloadSpec;
use hybrid_storage::FileFormat::{self, Columnar, Text};

const REP: JoinAlgorithm = JoinAlgorithm::Repartition { bloom: false };
const REP_BF: JoinAlgorithm = JoinAlgorithm::Repartition { bloom: true };
const ZIGZAG: JoinAlgorithm = JoinAlgorithm::Zigzag;
const BROADCAST: JoinAlgorithm = JoinAlgorithm::Broadcast;
const DB: JoinAlgorithm = JoinAlgorithm::DbSide { bloom: false };
const DB_BF: JoinAlgorithm = JoinAlgorithm::DbSide { bloom: true };
const REP_FAMILY: &[JoinAlgorithm] = &[REP, REP_BF, ZIGZAG];
const TIMES: &[&str] = &["config", "repartition", "repartition(BF)", "zigzag"];
const BF_BENEFIT: &[&str] = &["config", "db", "db(BF)", "BF benefit"];
/// Fig. 8's (σL, ST′) pairs, also swept by Fig. 15(a).
const FIG8: [(f64, f64); 3] = [(0.1, 0.05), (0.2, 0.1), (0.4, 0.2)];

/// One algorithm's run on one loaded workload, reduced to what panels read.
struct Cell {
    load: ([f64; 4], FileFormat),
    alg: JoinAlgorithm,
    /// The advisor's pre-execution choice for the workload.
    advised: JoinAlgorithm,
    cost_s: f64,
    summary: JoinSummary,
}

/// The selectivities (σT, σL, ST′, SL′) that tell the workloads apart.
fn sel(s: &WorkloadSpec) -> [f64; 4] {
    [s.sigma_t, s.sigma_l, s.st, s.sl]
}

/// One sweep point: the panel's cells, format-major, then by algorithm.
struct Row<'a> {
    label: &'a str,
    spec: &'a WorkloadSpec,
    cells: Vec<&'a Cell>,
}

impl Row<'_> {
    fn cost(&self, i: usize) -> f64 {
        self.cells[i].cost_s
    }
}

/// A claim's verdict line up to its `OK`/`!!` marker (measured numbers
/// included), and whether the measurement matches the paper.
type Check = fn(&[Row]) -> (String, bool);

/// The state a claim is recorded to show at the default scale.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expected {
    Matches,
    /// A known deviation from the paper, and its cause.
    Deviates {
        cause: &'static str,
    },
}

/// Fig. 13(b)'s deviation, as EXPERIMENTS.md explains it.
const FLAT_INGEST: &str = "ingestion priced at one flat rate: the EDW charges `read_hdfs` \
per tuple as calibrated on the plain DB-side join, so db(BF) stays cheap once its filter \
has cut the stream";

struct Claim {
    name: String,
    /// What the paper reports.
    paper: &'static str,
    check: Check,
    expected: Expected,
}

impl Claim {
    fn deviates(self, cause: &'static str) -> Claim {
        let expected = Expected::Deviates { cause };
        Claim { expected, ..self }
    }
}

struct Panel {
    id: &'static str,
    title: String,
    formats: &'static [FileFormat],
    algs: &'static [JoinAlgorithm],
    /// Each sweep point's label and workload.
    points: Vec<(String, WorkloadSpec)>,
    headers: &'static [&'static str],
    /// A point's table lines: one, or one per algorithm for Table 1.
    table: fn(&Row) -> Vec<Vec<String>>,
    claims: Vec<Claim>,
}

fn claim(id: &str, name: &str, paper: &'static str, check: Check) -> Claim {
    let name = format!("{id}.{name}");
    let expected = Expected::Matches;
    Claim {
        name,
        paper,
        check,
        expected,
    }
}

/// Every panel, in the paper's order, at `base`'s scale.
fn panels(base: &WorkloadSpec) -> Vec<Panel> {
    let at = |sigma_t, sigma_l, st, sl| WorkloadSpec {
        sigma_t,
        sigma_l,
        st,
        sl,
        ..base.clone()
    };
    let by_sigma_l = |t, st, sl| -> Vec<(String, WorkloadSpec)> {
        let point = |l| (format!("sigma_L={l}"), at(t, l, st, sl));
        [0.001, 0.01, 0.1, 0.2].map(point).to_vec()
    };
    let fig8 = |t, sl, points: &[(f64, f64)]| -> Vec<(String, WorkloadSpec)> {
        let point = |&(l, st)| (format!("sigma_L={l} ST'={st}"), at(t, l, st, sl));
        points.iter().map(point).collect()
    };
    let suffix = "— estimated paper-scale time";
    let mut panels = vec![Panel {
        id: "table1",
        title: "Table 1: zigzag vs repartition joins (sigma_T=0.1, sigma_L=0.4, SL'=0.1, ST'=0.2)"
            .into(),
        formats: &[Columnar],
        algs: REP_FAMILY,
        points: vec![(String::new(), at(0.1, 0.4, 0.2, 0.1))],
        headers: &[
            "algorithm",
            "shuffled (paper)",
            "shuffled (measured→paper scale)",
            "DB sent (paper)",
            "DB sent (measured→paper scale)",
        ],
        table: table1,
        claims: vec![
            claim("table1", "bf_shuffle_cut", "~9.9x", bf_shuffle_cut),
            claim("table1", "zigzag_db_sent_cut", "~5.5x", zigzag_db_cut),
        ],
    }];
    for (id, fig, t, sl) in [("fig8a", "8(a)", 0.1, 0.1), ("fig8b", "8(b)", 0.2, 0.2)] {
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T={t}, SL'={sl} (Parquet) {suffix}"),
            formats: &[Columnar],
            algs: REP_FAMILY,
            points: fig8(t, sl, &FIG8),
            headers: TIMES,
            table: times,
            claims: vec![
                claim(id, "zigzag_fastest", "everywhere", zigzag_fastest),
                claim(id, "max_speedup_vs_rep", "up to 2.1x", speedup_vs_rep),
                claim(id, "max_speedup_vs_rep_bf", "up to 1.8x", speedup_vs_bf),
            ],
        });
    }
    let (fig9_st, fig9_sl) = (
        [0.5, 0.5, 0.5, 0.5, 0.35, 0.2],
        [0.8, 0.4, 0.1, 0.4, 0.4, 0.4],
    );
    let fig9 = fig9_st.into_iter().zip(fig9_sl).collect::<Vec<_>>();
    for (id, fig, points) in [
        ("fig9a", "9(a): ST'=0.5, varying SL'", &fig9[..3]),
        ("fig9b", "9(b): SL'=0.4, varying ST'", &fig9[3..]),
    ] {
        let point = |&(st, sl): &(f64, f64)| (format!("ST'={st} SL'={sl}"), at(0.1, 0.4, st, sl));
        panels.push(Panel {
            id,
            title: format!("Fig {fig} (sigma_T=0.1, sigma_L=0.4, Parquet) {suffix}"),
            formats: &[Columnar],
            algs: REP_FAMILY,
            points: points.iter().map(point).collect(),
            headers: TIMES,
            table: times,
            claims: vec![claim(id, "zigzag_improves", "monotone", zigzag_improves)],
        });
    }
    for (id, fig, t) in [("fig10a", "10(a)", 0.001), ("fig10b", "10(b)", 0.01)] {
        let claim = if t < 0.01 {
            claim(id, "broadcast_wins", "with large L'", broadcast_wins)
        } else {
            claim(id, "repartition_wins", "everywhere", repartition_wins)
        };
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T={t} (Parquet) {suffix}"),
            formats: &[Columnar],
            algs: &[BROADCAST, REP],
            points: by_sigma_l(t, 0.2, 0.1),
            headers: &["config", "broadcast", "repartition", "winner"],
            table: broadcast_vs_repartition,
            claims: vec![claim],
        });
    }
    for (id, fig, t, sl) in [
        ("fig11a", "11(a)", 0.05, 0.05),
        ("fig11b", "11(b)", 0.1, 0.1),
    ] {
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T={t}, SL'={sl} (Parquet) {suffix}"),
            formats: &[Columnar],
            algs: &[DB, DB_BF],
            points: by_sigma_l(t, 0.2, sl),
            headers: BF_BENEFIT,
            table: bf_benefit,
            claims: vec![
                claim(id, "bf_benefit_grows", "with L'", bf_grows),
                claim(id, "bf_marginal_at_0_001", "cancelled", bf_marginal),
                claim(id, "bf_helps_at_0_2", "clear", bf_helps),
            ],
        });
    }
    for (id, fig, t) in [("fig12a", "12(a)", 0.05), ("fig12b", "12(b)", 0.1)] {
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T={t}, no Bloom filters (Parquet) {suffix}"),
            formats: &[Columnar],
            algs: &[DB, BROADCAST, REP],
            points: by_sigma_l(t, 0.2, 0.1),
            headers: &["config", "db", "hdfs-best", "winner"],
            table: db_vs_hdfs,
            claims: vec![
                claim(id, "db_deteriorates", "steeply", db_steep),
                claim(id, "hdfs_wins_from_0_1", "sigma_L >= 0.1", hdfs_wins),
            ],
        });
    }
    for (id, fig, t) in [("fig13a", "13(a)", 0.05), ("fig13b", "13(b)", 0.1)] {
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T={t}, with Bloom filters (Parquet) {suffix}"),
            formats: &[Columnar],
            algs: &[DB, DB_BF, REP_BF, ZIGZAG],
            points: by_sigma_l(t, 0.2, 0.1),
            headers: &["config", "db-best", "hdfs-best", "zigzag", "winner"],
            table: db_vs_hdfs_bf,
            claims: vec![
                claim(id, "zigzag_steady", "vs steep DB side", zigzag_steady),
                claim(id, "db_wins_to_0_01", "sigma_L <= 0.01", db_wins),
                match claim(id, "hdfs_wins_from_0_1", "sigma_L >= 0.1", hdfs_wins_bf) {
                    c if t == 0.1 => c.deviates(FLAT_INGEST),
                    c => c,
                },
            ],
        });
    }
    for (id, fig, algs) in [
        ("fig14a", "14(a) zigzag", &[ZIGZAG]),
        ("fig14b", "14(b) db(BF)", &[DB_BF]),
    ] {
        panels.push(Panel {
            id,
            title: format!("Fig {fig}: sigma_T=0.1 {suffix}"),
            formats: &[Text, Columnar],
            algs,
            points: by_sigma_l(0.1, 0.2, 0.1),
            headers: &[
                "config",
                "text",
                "parquet",
                "speedup",
                "bytes-scanned ratio",
            ],
            table: text_vs_parquet,
            claims: vec![claim(id, "columnar_faster", "everywhere", columnar_faster)],
        });
    }
    panels.push(Panel {
        id: "fig15a",
        title: format!("Fig 15(a): repartition family on TEXT (sigma_T=0.2, SL'=0.2) {suffix}"),
        formats: &[Text],
        algs: REP_FAMILY,
        points: fig8(0.2, 0.2, &FIG8),
        headers: TIMES,
        table: times,
        claims: vec![claim(
            "fig15a",
            "zigzag_best_on_text",
            "best",
            zigzag_on_text,
        )],
    });
    // §5.4's masking argument: where the DB transfer does not dominate
    // (σT = 0.1) the BF pays off on Parquet, but the text scan hides it.
    panels.push(Panel {
        id: "fig15a_gain",
        title: "Fig 15(a) masking: repartition(BF) gain over repartition (sigma_T=0.1, SL'=0.1)"
            .into(),
        formats: &[Text, Columnar],
        algs: &[REP, REP_BF],
        points: fig8(0.1, 0.1, &FIG8[1..]),
        headers: &["config", "text", "parquet"],
        table: bf_gain,
        claims: vec![claim("fig15a", "bf_gain_masked", "masked", bf_masked)],
    });
    panels.push(Panel {
        id: "fig15b",
        title: format!("Fig 15(b): DB-side join on TEXT (sigma_T=0.1, SL'=0.1) {suffix}"),
        formats: &[Text],
        algs: &[DB, DB_BF],
        points: by_sigma_l(0.1, 0.2, 0.1),
        headers: BF_BENEFIT,
        table: bf_benefit,
        claims: vec![claim(
            "fig15b",
            "bf_negligible_at_0_001",
            "~1x",
            bf_negligible,
        )],
    });
    let grid_t = [0.001, 0.01, 0.05, 0.05, 0.05, 0.1, 0.1, 0.1];
    let grid = grid_t
        .into_iter()
        .zip([0.2, 0.2, 0.001, 0.01, 0.2, 0.001, 0.1, 0.4]);
    panels.push(Panel {
        id: "advisor",
        title: "Advisor (§5.5 rules) vs measured-best algorithm".into(),
        formats: &[Columnar],
        algs: &[DB, DB_BF, BROADCAST, REP, REP_BF, ZIGZAG],
        points: grid
            .map(|(t, l)| (format!("sigma_T={t} sigma_L={l}"), at(t, l, 0.2, 0.1)))
            .collect(),
        headers: &[
            "config",
            "advised",
            "measured best",
            "advised vs best time",
            "verdict",
        ],
        table: advisor,
        claims: vec![
            claim("s5_5", "advisor_within_25pct", "7/8+", advisor_agrees),
            claim("s5_5", "exact_best", "7/8+", advisor_exact),
        ],
    });
    panels
}

// --- tables -----------------------------------------------------------------

fn table1(r: &Row) -> Vec<Vec<String>> {
    let l_factor = PAPER_L_ROWS / r.spec.l_rows as f64;
    let t_factor = PAPER_T_ROWS / r.spec.t_rows as f64;
    let paper = [(5_854, 165), (591, 165), (591, 30)];
    let line = |(c, (shuffled, sent)): (&&Cell, (u64, u64))| {
        vec![
            c.alg.name().to_string(),
            format!("{shuffled} million"),
            paper_millions(c.summary.hdfs_tuples_shuffled, l_factor),
            format!("{sent} million"),
            paper_millions(c.summary.db_tuples_sent, t_factor),
        ]
    };
    r.cells.iter().zip(paper).map(line).collect()
}

fn times(r: &Row) -> Vec<Vec<String>> {
    let times = r.cells.iter().map(|c| secs(c.cost_s));
    vec![std::iter::once(r.label.to_string()).chain(times).collect()]
}

fn pick(first_wins: bool, first: &str, second: &str) -> String {
    if first_wins { first } else { second }.to_string()
}

fn broadcast_vs_repartition(r: &Row) -> Vec<Vec<String>> {
    let (bc, rep) = (r.cost(0), r.cost(1));
    let winner = pick(bc < rep, "broadcast", "repartition");
    vec![vec![r.label.into(), secs(bc), secs(rep), winner]]
}

fn bf_benefit(r: &Row) -> Vec<Vec<String>> {
    let (plain, bf) = (r.cost(0), r.cost(1));
    let gain = format!("{:.2}x", plain / bf);
    vec![vec![r.label.into(), secs(plain), secs(bf), gain]]
}

fn db_vs_hdfs(r: &Row) -> Vec<Vec<String>> {
    let (db, hdfs) = (r.cost(0), r.cost(1).min(r.cost(2)));
    let winner = pick(db < hdfs, "db", "hdfs");
    vec![vec![r.label.into(), secs(db), secs(hdfs), winner]]
}

/// The best DB-side and the best HDFS-side time of a Fig. 13 row.
fn best_sides(r: &Row) -> (f64, f64) {
    (r.cost(0).min(r.cost(1)), r.cost(2).min(r.cost(3)))
}

fn db_vs_hdfs_bf(r: &Row) -> Vec<Vec<String>> {
    let (db, hdfs) = best_sides(r);
    let (zigzag, winner) = (secs(r.cost(3)), pick(db < hdfs, "db", "hdfs"));
    vec![vec![r.label.into(), secs(db), secs(hdfs), zigzag, winner]]
}

fn text_vs_parquet(r: &Row) -> Vec<Vec<String>> {
    let (text, parquet) = (r.cells[0], r.cells[1]);
    let bytes = |c: &Cell| c.summary.hdfs_bytes_scanned as f64;
    vec![vec![
        r.label.into(),
        secs(text.cost_s),
        secs(parquet.cost_s),
        format!("{:.2}x", text.cost_s / parquet.cost_s),
        format!("{:.1}x", bytes(text) / bytes(parquet).max(1.0)),
    ]]
}

/// Repartition(BF)'s gain over repartition, on text and on Parquet.
fn bf_gains(r: &Row) -> (f64, f64) {
    (r.cost(0) / r.cost(1), r.cost(2) / r.cost(3))
}

fn bf_gain(r: &Row) -> Vec<Vec<String>> {
    let (text, parquet) = bf_gains(r);
    let (text, parquet) = (format!("{text:.2}x"), format!("{parquet:.2}x"));
    vec![vec![r.label.into(), text, parquet]]
}

/// The measured-best algorithm (the first on ties), its time, the advised
/// algorithm's time, and whether that is within 25 % of the best.
fn advisor_pick(r: &Row) -> (JoinAlgorithm, f64, f64, bool) {
    let best = r
        .cells
        .iter()
        .reduce(|b, c| if c.cost_s < b.cost_s { c } else { b });
    let best = best.expect("the advisor panel runs every paper variant");
    let advised = r.cells.iter().find(|c| c.alg == c.advised);
    let advised_s = advised.expect("the advisor picks a paper variant").cost_s;
    let agrees = advised_s <= best.cost_s * 1.25;
    (best.alg, best.cost_s, advised_s, agrees)
}

fn advisor(r: &Row) -> Vec<Vec<String>> {
    let (best, best_s, advised_s, agree) = advisor_pick(r);
    vec![vec![
        r.label.into(),
        r.cells[0].advised.name().into(),
        best.name().into(),
        format!("{advised_s:.0}s vs {best_s:.0}s"),
        pick(agree, "agree", "miss"),
    ]]
}

// --- claims: every bound is the one the figure has carried since it was
// first reproduced -----------------------------------------------------------

fn bf_shuffle_cut(rows: &[Row]) -> (String, bool) {
    let [rep, bf, _] = [0, 1, 2].map(|i| rows[0].cells[i].summary.hdfs_tuples_shuffled);
    let x = rep as f64 / bf.max(1) as f64;
    let text = format!("BF shuffle reduction: {x:.1}x (paper ~9.9x)  ");
    (text, (6.0..14.0).contains(&x))
}

fn zigzag_db_cut(rows: &[Row]) -> (String, bool) {
    let [_, bf, zz] = [0, 1, 2].map(|i| rows[0].cells[i].summary.db_tuples_sent);
    let x = bf as f64 / zz.max(1) as f64;
    let text = format!("zigzag DB-transfer reduction: {x:.1}x (paper ~5.5x)  ");
    (text, (3.5..8.0).contains(&x))
}

/// Zigzag (cell 2) is at most as slow as both repartition variants.
fn zigzag_never_beaten(rows: &[Row]) -> bool {
    let beaten = |r: &Row| r.cost(2) > r.cost(0) || r.cost(2) > r.cost(1);
    !rows.iter().any(beaten)
}

fn zigzag_fastest(rows: &[Row]) -> (String, bool) {
    let text = "zigzag fastest in every config: ";
    (text.into(), zigzag_never_beaten(rows))
}

/// The largest ratio of cell `over`'s time to zigzag's.
fn max_speedup(rows: &[Row], over: usize) -> f64 {
    let speedups = rows.iter().map(|r| r.cost(over) / r.cost(2));
    speedups.fold(0.0, f64::max)
}

fn speedup_vs_rep(rows: &[Row]) -> (String, bool) {
    let x = max_speedup(rows, 0);
    let text = format!("max speedup vs repartition {x:.1}x (paper: up to 2.1x)  ");
    (text, (1.3..3.5).contains(&x))
}

fn speedup_vs_bf(rows: &[Row]) -> (String, bool) {
    let x = max_speedup(rows, 1);
    let text = format!("max speedup vs repartition(BF) {x:.1}x (paper: up to 1.8x)  ");
    (text, (1.1..2.6).contains(&x))
}

fn zigzag_improves(rows: &[Row]) -> (String, bool) {
    let ok = rows.windows(2).all(|w| w[1].cost(2) <= w[0].cost(2) * 1.05);
    let text = "zigzag improves as the join-key selectivity decreases: ";
    (text.into(), ok)
}

fn broadcast_wins(rows: &[Row]) -> (String, bool) {
    let wins = |r: &Row| r.spec.sigma_l >= 0.1 && r.cost(0) < r.cost(1);
    let text = "broadcast wins somewhere at sigma_T=0.001 with large L': ";
    (text.into(), rows.iter().any(wins))
}

fn repartition_wins(rows: &[Row]) -> (String, bool) {
    let ok = rows.iter().all(|r| r.cost(0) >= r.cost(1) * 0.95);
    let text = "repartition (at worst ties) everywhere at sigma_T=0.01: ";
    (text.into(), ok)
}

/// Cell 0's time over cell 1's (plain over Bloom-filtered), per row.
fn benefits(rows: &[Row]) -> Vec<f64> {
    rows.iter().map(|r| r.cost(0) / r.cost(1)).collect()
}

fn bf_grows(rows: &[Row]) -> (String, bool) {
    let ok = benefits(rows).windows(2).all(|w| w[1] >= w[0] * 0.95);
    ("BF benefit grows with sigma_L: ".into(), ok)
}

fn bf_marginal(rows: &[Row]) -> (String, bool) {
    let b = benefits(rows)[0];
    let text = format!("BF benefit marginal at sigma_L=0.001 ({b:.2}x): ");
    (text, b < 1.2)
}

fn bf_helps(rows: &[Row]) -> (String, bool) {
    let b = benefits(rows)[3];
    let text = format!("BF clearly helps at sigma_L=0.2 ({b:.2}x): ");
    (text, b > 1.3)
}

fn db_steep(rows: &[Row]) -> (String, bool) {
    let (first, last) = (rows[0].cost(0), rows[3].cost(0));
    let text = format!("DB-side deteriorates steeply with sigma_L ({first:.0}s -> {last:.0}s): ");
    (text, last > first * 3.0)
}

fn hdfs_wins(rows: &[Row]) -> (String, bool) {
    let db_loses = |r: &Row| r.cost(0) >= r.cost(1).min(r.cost(2));
    let ok = rows.iter().all(|r| r.spec.sigma_l < 0.1 || db_loses(r));
    ("HDFS side wins for sigma_L >= 0.1: ".into(), ok)
}

fn hdfs_wins_bf(rows: &[Row]) -> (String, bool) {
    let db_loses = |r: &Row| best_sides(r).0 >= best_sides(r).1;
    let ok = rows.iter().all(|r| r.spec.sigma_l < 0.1 || db_loses(r));
    ("HDFS side wins for sigma_L >= 0.1: ".into(), ok)
}

fn zigzag_steady(rows: &[Row]) -> (String, bool) {
    let zz = rows[3].cost(3) / rows[0].cost(3);
    let db = best_sides(&rows[3]).0 / best_sides(&rows[0]).0;
    let text = format!("zigzag growth over sigma_L range {zz:.2}x vs db-side {db:.2}x: ");
    (text, zz < db && zz < 1.8)
}

fn db_wins(rows: &[Row]) -> (String, bool) {
    let db_wins = |r: &Row| best_sides(r).0 <= best_sides(r).1;
    let ok = rows.iter().all(|r| r.spec.sigma_l > 0.01 || db_wins(r));
    let text = "db side wins for sigma_L <= 0.01 (\"the same cases as before\"): ";
    (text.into(), ok)
}

fn columnar_faster(rows: &[Row]) -> (String, bool) {
    let ok = rows.iter().all(|r| r.cost(1) < r.cost(0));
    ("columnar faster in every config: ".into(), ok)
}

fn zigzag_on_text(rows: &[Row]) -> (String, bool) {
    let text = "zigzag still best on text: ";
    (text.into(), zigzag_never_beaten(rows))
}

fn bf_masked(rows: &[Row]) -> (String, bool) {
    let n = rows.len() as f64;
    let text = rows.iter().map(|r| bf_gains(r).0).sum::<f64>() / n;
    let parquet = rows.iter().map(|r| bf_gains(r).1).sum::<f64>() / n;
    let line = format!(
        "repartition-BF gain (sigma_T=0.1 grid): text {text:.2}x vs parquet {parquet:.2}x \
(paper: text gain masked by the scan): "
    );
    (line, text < parquet)
}

fn bf_negligible(rows: &[Row]) -> (String, bool) {
    let text = "BF benefit negligible (or negative) at sigma_L=0.001 on text: ";
    (text.into(), benefits(rows)[0] < 1.1)
}

fn advisor_agrees(rows: &[Row]) -> (String, bool) {
    let (agreements, n) = (
        rows.iter().filter(|r| advisor_pick(r).3).count(),
        rows.len(),
    );
    let text = format!("advisor within 25% of best on {agreements}/{n} configs: ");
    (text, agreements + 1 >= n)
}

fn advisor_exact(rows: &[Row]) -> (String, bool) {
    let exact = rows
        .iter()
        .filter(|r| advisor_pick(r).0 == r.cells[0].advised);
    let (exact, n) = (exact.count(), rows.len());
    let text = format!("advisor picks the measured best on {exact}/{n} configs: ");
    (text, exact + 1 >= n)
}

// --- measure, report, exit --------------------------------------------------

/// Every (sweep point, format) of a panel.
fn loads(p: &Panel) -> impl Iterator<Item = (&WorkloadSpec, FileFormat)> {
    p.points
        .iter()
        .flat_map(|(_, s)| p.formats.iter().map(move |&f| (s, f)))
}

/// Loads each distinct (workload, format) the panels read once, and runs
/// every algorithm any of them wants there once.
fn measure(panels: &[Panel]) -> hybrid_common::error::Result<Vec<Cell>> {
    let mut cells: Vec<Cell> = Vec::new();
    for (spec, format) in panels.iter().flat_map(loads) {
        let load = (sel(spec), format);
        if cells.iter().any(|c| c.load == load) {
            continue;
        }
        let wanted = panels
            .iter()
            .filter(|p| loads(p).any(|(s, f)| (sel(s), f) == load));
        let mut algs: Vec<JoinAlgorithm> = Vec::new();
        for alg in wanted.flat_map(|p| p.algs) {
            if !algs.contains(alg) {
                algs.push(*alg);
            }
        }
        let mut exp = ExpSystem::build(spec.clone(), format)?;
        let advised = advise(&exp.workload.estimates(&exp.system)?);
        for alg in algs {
            let m = exp.run(alg)?;
            let (cost_s, summary) = (m.cost.total_s, m.summary);
            cells.push(Cell {
                load,
                alg,
                advised,
                cost_s,
                summary,
            });
        }
    }
    Ok(cells)
}

/// The panel's rows, read from the measured cells.
fn rows<'a>(p: &'a Panel, cells: &'a [Cell]) -> Vec<Row<'a>> {
    let series = || {
        p.formats
            .iter()
            .flat_map(|&f| p.algs.iter().map(move |&a| (f, a)))
    };
    let cell = |spec, (f, a)| {
        cells
            .iter()
            .find(|c| c.load == (sel(spec), f) && c.alg == a)
    };
    let row = |(label, spec): &'a (String, WorkloadSpec)| Row {
        label,
        spec,
        cells: series().map(|s| cell(spec, s).expect("measured")).collect(),
    };
    p.points.iter().map(row).collect()
}

/// A claim whose measured state differs from its recorded one: its name,
/// verdict line, and what the paper reports.
type Unexpected = (String, String, &'static str);

/// What the claims showed: those off their recorded state, and the known
/// deviations that held, by name with their cause.
struct Outcome {
    matched: usize,
    unexpected: Vec<Unexpected>,
    deviations: Vec<(String, &'static str)>,
}

/// Prints every panel's table and verdict lines, and sorts each claim's
/// state against its recorded one.
fn report(panels: &[Panel], cells: &[Cell]) -> Outcome {
    let mut outcome = Outcome {
        matched: 0,
        unexpected: Vec::new(),
        deviations: Vec::new(),
    };
    for p in panels {
        let rows = rows(p, cells);
        print_table(
            &p.title,
            p.headers,
            &rows.iter().flat_map(p.table).collect::<Vec<_>>(),
        );
        for c in &p.claims {
            let (line, ok) = (c.check)(&rows);
            let note = match (ok, c.expected) {
                (false, Expected::Deviates { cause }) => {
                    outcome.deviations.push((c.name.clone(), cause));
                    " (known deviation)"
                }
                (true, Expected::Deviates { .. }) => " (recorded as a known deviation)",
                _ => "",
            };
            println!("  {line}{}{note}", verdict(ok));
            outcome.matched += usize::from(ok);
            if ok != (c.expected == Expected::Matches) {
                let line = line.trim_end().trim_end_matches(':').to_string();
                outcome.unexpected.push((c.name.clone(), line, c.paper));
            }
        }
    }
    outcome
}

fn exit_code(unexpected: &[Unexpected]) -> ExitCode {
    if unexpected.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let mut panels = panels(&spec_from_env());
    let ids: Vec<&str> = panels.iter().map(|p| p.id).collect();
    panels.retain(|p| words.is_empty() || words.iter().any(|w| p.id.starts_with(w.as_str())));
    if panels.is_empty() {
        eprintln!(
            "no panel id starts with {words:?}; the ids are {}",
            ids.join(" ")
        );
        return Ok(ExitCode::from(2));
    }
    let outcome = report(&panels, &measure(&panels)?);
    let claims: usize = panels.iter().map(|p| p.claims.len()).sum();
    let (matched, off) = (outcome.matched, outcome.unexpected.len());
    println!(
        "\n== Claims: {matched}/{claims} match the paper, {} known deviation(s), \
{off} off their recorded state ==",
        outcome.deviations.len()
    );
    for (name, cause) in &outcome.deviations {
        println!("  known deviation {name}: {cause}");
    }
    for (name, line, paper) in &outcome.unexpected {
        println!("  !! {name}: {line} — paper: {paper}");
    }
    Ok(exit_code(&outcome.unexpected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_names_are_unique() {
        let panels = panels(&WorkloadSpec::tiny());
        let mut names: Vec<&str> = panels
            .iter()
            .flat_map(|p| &p.claims)
            .map(|c| &*c.name)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "a claim name repeats");
    }

    /// One panel's report over synthetic times, `times[point][alg]`: every
    /// claim of the panel is evaluated, none is run.
    fn panel_report(id: &str, times: &[&[f64]]) -> Outcome {
        let mut panels = panels(&WorkloadSpec::tiny());
        panels.retain(|p| p.id == id);
        let (specs, algs) = (&panels[0].points, panels[0].algs);
        let cell = |((_, spec), i): (&(String, WorkloadSpec), usize), j: usize| Cell {
            load: (sel(spec), Columnar),
            alg: algs[j],
            advised: ZIGZAG,
            cost_s: times[i][j],
            summary: JoinSummary::default(),
        };
        let points = specs.iter().zip(0..);
        let cells: Vec<Cell> = points
            .flat_map(|p| (0..algs.len()).map(move |j| cell(p, j)))
            .collect();
        report(&panels, &cells)
    }

    /// Fig. 8(a)'s default-scale times, with zigzag's at sigma_L = 0.4
    /// moved.
    fn fig8a_report(zigzag_at_0_4: f64) -> Vec<Unexpected> {
        let times: [&[f64]; 3] = [
            &[262.0, 264.0, 196.0],
            &[262.0, 264.0, 208.0],
            &[537.0, 264.0, zigzag_at_0_4],
        ];
        panel_report("fig8a", &times).unexpected
    }

    #[test]
    fn one_broken_bound_names_its_claim_and_fails_the_run() {
        let ok = fig8a_report(233.0);
        assert!(ok.is_empty(), "{ok:?}");
        assert_eq!(exit_code(&ok), ExitCode::SUCCESS);
        // 537 / 150 = 3.6x breaks only the 1.3..3.5 bound: zigzag stays
        // fastest, and 264 / 150 = 1.8x stays inside 1.1..2.6
        let diverged = fig8a_report(150.0);
        assert_eq!(exit_code(&diverged), ExitCode::FAILURE);
        assert_eq!(diverged.len(), 1, "{diverged:?}");
        assert_eq!(diverged[0].0, "fig8a.max_speedup_vs_rep");
        assert!(diverged[0].1.contains("3.6x"), "{diverged:?}");
    }

    /// Fig. 13(b) rows (db, db(BF), repartition(BF), zigzag) per sigma_L,
    /// with db(BF)'s time at the two large sigma_L points set.
    fn fig13b_report(db_bf_large: f64) -> Outcome {
        let times: [&[f64]; 4] = [
            &[152.0, 160.0, 200.0, 220.0],
            &[160.0, 165.0, 200.0, 221.0],
            &[300.0, db_bf_large, 230.0, 222.0],
            &[600.0, db_bf_large + 2.0, 240.0, 223.0],
        ];
        panel_report("fig13b", &times)
    }

    #[test]
    fn a_known_deviation_passes_and_fails_the_run_once_it_closes() {
        // db(BF) under zigzag at sigma_L >= 0.1: the recorded deviation
        let held = fig13b_report(177.0);
        assert!(held.unexpected.is_empty(), "{:?}", held.unexpected);
        let names: Vec<&str> = held.deviations.iter().map(|d| &*d.0).collect();
        assert_eq!(names, ["fig13b.hdfs_wins_from_0_1"]);
        assert_eq!(held.deviations[0].1, FLAT_INGEST);
        // the HDFS side wins there: the paper's shape, but not the record
        let closed = fig13b_report(250.0);
        assert!(closed.deviations.is_empty());
        assert_eq!(exit_code(&closed.unexpected), ExitCode::FAILURE);
        assert_eq!(closed.unexpected.len(), 1, "{:?}", closed.unexpected);
        assert_eq!(closed.unexpected[0].0, "fig13b.hdfs_wins_from_0_1");
    }
}
