//! Regeneration of every figure of the paper's evaluation (§5).
//!
//! Each function returns a [`Figure`] — headers + rows + notes — that
//! the `reproduce` binary prints. Sizes are scaled to what a full run
//! with every simulated baseline finishes in minutes (documented in
//! EXPERIMENTS.md; [`uc1_scale`] runs UC1 at the paper's);
//! `Config::quick` shrinks them further for CI.

use crate::eloc::eloc;
use crate::setup::{planning_table, uc1_session, uc2_session};
use crate::uc1::{self, run_s3ss, run_sshared, run_ssolvers};
use crate::uc2::run_uc2;
use crate::OrDie;
use baselines::neldermead::{nelder_mead, NmOptions};
use baselines::uc1::{
    madlib_python, matlab_native, matlab_yalmip, p4_direct, p4_symbolic, p4_symbolic_mpt, Uc1Task,
};
use baselines::uc2::{madlib_cplex, order_grid, r_cplex};
use obs::timed;
use solvedbplus_core::solvers::search_arima_order;
use solvedbplus_core::Session;
use sqlengine::{Table, Value};
use std::time::Duration;

/// A reproduced table/figure: printable series.
#[derive(Debug, Clone)]
pub struct Figure {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Figure {
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Serialize as a `BENCH_*.json` artifact. The tree is strings all
    /// the way down, so a hand-rolled emitter suffices.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let arr = |items: &[String]| -> String {
            let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", arr(r))).collect();
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"headers\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}\n",
            esc(&self.id),
            esc(&self.title),
            arr(&self.headers),
            rows.join(",\n"),
            arr(&self.notes)
        )
    }

    /// The artifact filename for this figure: `Fig 9` → `BENCH_FIG_9.json`.
    pub fn json_filename(&self) -> String {
        let slug: String = self
            .id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { '_' })
            .collect();
        format!("BENCH_{slug}.json")
    }
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub quick: bool,
}

impl Config {
    pub fn full() -> Config {
        Config { quick: false }
    }

    pub fn quick() -> Config {
        Config { quick: true }
    }

    /// UC1 history length (hours).
    fn uc1_history(&self) -> usize {
        if self.quick {
            96
        } else {
            336
        }
    }

    /// UC1 planning horizon (hours). The paper's is 288 ([`uc1_scale`]
    /// runs it); the figures that also run the baselines use 48.
    fn uc1_horizon(&self) -> usize {
        if self.quick {
            12
        } else {
            48
        }
    }

    fn p3_iterations(&self) -> usize {
        if self.quick {
            40
        } else {
            200
        }
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

// ---------------------------------------------------------------------------
// Tables 1 & 4 — the running example
// ---------------------------------------------------------------------------

/// Reproduce Table 1 → Table 4: the §3.1 prediction query on the
/// paper's exact 10-row dataset.
pub fn table1(_cfg: Config) -> Figure {
    let mut s = Session::new();
    datagen::install_table1(s.db_mut());
    let out = s
        .query("SOLVESELECT t(pvsupply) AS (SELECT * FROM input) USING predictive_solver()")
        .or_die("prediction query");
    let fmt = |v: &sqlengine::Value| -> String {
        match v.as_f64() {
            Ok(f) => format!("{f:.1}"),
            Err(_) => v.to_string(),
        }
    };
    let mut rows = Vec::new();
    for r in &out.rows {
        rows.push(vec![r[0].to_string(), fmt(&r[1]), fmt(&r[2]), fmt(&r[3]), fmt(&r[4])]);
    }
    Figure {
        id: "Table 4".into(),
        title: "Output of the prediction phase for the running example".into(),
        headers: vec![
            "time".into(),
            "outTemp".into(),
            "inTemp".into(),
            "hLoad".into(),
            "pvSupply".into(),
        ],
        rows,
        notes: vec![
            "pvSupply for 12:00-16:00 is filled by predictive_solver; inTemp/hLoad stay unknown"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 3 — UC1 implementation sizes and runtimes
// ---------------------------------------------------------------------------

/// Split a script into P1..P4 sections at `P1:`/`P2:`/... markers and
/// count eLOC per phase (header text counts toward P1).
pub fn phase_eloc(source: &str) -> [usize; 4] {
    let mut sections: [String; 4] = Default::default();
    let mut cur = 0usize;
    for line in source.lines() {
        for (k, marker) in ["P1:", "P2:", "P3:", "P4:"].iter().enumerate() {
            if line.contains(marker) {
                cur = k;
            }
        }
        sections[cur].push_str(line);
        sections[cur].push('\n');
    }
    [eloc(&sections[0]), eloc(&sections[1]), eloc(&sections[2]), eloc(&sections[3])]
}

pub fn fig3a(_cfg: Config) -> Figure {
    let s3ss = {
        let p1 = eloc(uc1::S_3SS_P1);
        let p2 = eloc(uc1::S_3SS_P2);
        let p3 = eloc(uc1::S_3SS_P3);
        let p4 = eloc(uc1::S_3SS_P4);
        [p1, p2, p3, p4]
    };
    let shared_model = eloc(uc1::S_SHARED_MODEL);
    let sshared = {
        let p1 = eloc(uc1::S_3SS_P1);
        let p2 = eloc(uc1::S_3SS_P2);
        // The shared model's lines are split between its two users (the
        // paper: "the size of the model is equally shared").
        let p3 = eloc(uc1::S_SHARED_P3) + shared_model / 2;
        let p4 = eloc(uc1::S_SHARED_P4) + shared_model - shared_model / 2;
        [p1, p2, p3, p4]
    };
    let ssolvers = [eloc(uc1::S_SOLVERS), 0, 0, 0];
    let native = phase_eloc(uc1::MATLAB_NATIVE_M);
    let yalmip = phase_eloc(uc1::MATLAB_YALMIP_M);

    let mut rows = Vec::new();
    for (name, e) in [
        ("Matlab-native", native),
        ("S-solvers", ssolvers),
        ("Matlab-YALMIP", yalmip),
        ("S-3SS", s3ss),
        ("S-shared", sshared),
    ] {
        rows.push(vec![
            name.to_string(),
            e[0].to_string(),
            e[1].to_string(),
            e[2].to_string(),
            e[3].to_string(),
            e.iter().sum::<usize>().to_string(),
        ]);
    }
    Figure {
        id: "Fig 3(a)".into(),
        title: "UC1 implementation sizes (eLOC) per phase".into(),
        headers: vec!["stack".into(), "P1".into(), "P2".into(), "P3".into(), "P4".into(), "total".into()],
        rows,
        notes: vec![
            "SolveDB+ scripts are the executable files under crates/bench/scripts/uc1".into(),
            "Matlab/Python files are transcriptions (not executable here), run via structural simulations".into(),
        ],
    }
}

pub fn fig3b(cfg: Config) -> Figure {
    let history = cfg.uc1_history();
    let horizon = cfg.uc1_horizon();
    let rows_data = datagen::energy_series(history + horizon, 2026);
    let mut task = Uc1Task::new(
        rows_data[..history].to_vec(),
        rows_data[history..].iter().map(|r| r.out_temp).collect(),
    );
    task.p3_evaluations = cfg.p3_iterations();

    let native = matlab_native(&task).times;
    let yalmip = matlab_yalmip(&task).times;

    let (mut s1, _) = uc1_session(history, horizon, 2026);
    let s3ss = run_s3ss(&mut s1, Some(cfg.p3_iterations())).or_die("s3ss");
    let (mut s2, _) = uc1_session(history, horizon, 2026);
    let sshared = run_sshared(&mut s2, Some(cfg.p3_iterations())).or_die("sshared");
    let (mut s3, _) = uc1_session(history, horizon, 2026);
    let ssolv = run_ssolvers(&mut s3, cfg.p3_iterations()).or_die("ssolvers");

    let mut rows = Vec::new();
    for (name, t) in [
        ("Matlab-native", native),
        ("S-solvers", ssolv),
        ("Matlab-YALMIP", yalmip),
        ("S-3SS", s3ss),
        ("S-shared", sshared),
    ] {
        rows.push(vec![
            name.to_string(),
            secs(t.p1),
            secs(t.p2),
            secs(t.p3),
            secs(t.p4),
            secs(t.total()),
        ]);
    }
    Figure {
        id: "Fig 3(b)".into(),
        title: format!("UC1 runtimes (s) per phase — history {history} h, horizon {horizon} h"),
        headers: vec![
            "stack".into(),
            "P1".into(),
            "P2".into(),
            "P3".into(),
            "P4".into(),
            "total".into(),
        ],
        rows,
        notes: vec!["S-solvers reports the single composite SOLVESELECT under P4".into()],
    }
}

/// The S-3SS pipeline at the paper's 288-step horizon over a growing
/// history, up to the paper's 8737 rows: the run that says how far the
/// UC1 scale substitution of the other figures still is from necessary.
pub fn uc1_scale(cfg: Config) -> Figure {
    let horizon = if cfg.quick { 24 } else { 288 };
    let histories: &[usize] = if cfg.quick { &[96, 192] } else { &[336, 1000, 2000, 4000, 8737] };
    let mut rows = Vec::new();
    for &history in histories {
        let (mut s, _) = uc1_session(history, horizon, 2026);
        let t = run_s3ss(&mut s, Some(cfg.p3_iterations())).or_die("s3ss");
        uc1::validate_plan(&mut s).or_die("plan");
        let p2_pivots = uc1::p2_pivots(&mut s).or_die("P2 pivots");
        rows.push(vec![
            history.to_string(),
            (2 * history).to_string(),
            p2_pivots.to_string(),
            secs(t.p1),
            secs(t.p2),
            secs(t.p3),
            secs(t.p4),
            secs(t.total()),
        ]);
    }
    Figure {
        id: "UC1 scale".into(),
        title: format!("S-3SS runtimes (s) per phase — horizon {horizon} h (paper: 8737 h + 288 h)"),
        headers: vec![
            "history (h)".into(),
            "P2 LP rows".into(),
            "P2 pivots".into(),
            "P1".into(),
            "P2".into(),
            "P3".into(),
            "P4".into(),
            "total".into(),
        ],
        rows,
        notes: vec![
            "P2 is one L1-regression LP with two rows per history row; P4's LP has one equality row per horizon step".into(),
            "P2 pivots: simplex iterations of that LP, read from the script's SOLVESELECT run again outside the phase times".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — P2 / P3 scalability
// ---------------------------------------------------------------------------

pub fn fig4a(cfg: Config) -> Figure {
    // Scale factor of training+prediction input; 1 model vs N models.
    let base_hist = if cfg.quick { 60 } else { 150 };
    let base_hor = if cfg.quick { 6 } else { 12 };
    let scales: Vec<usize> = if cfg.quick { vec![1, 2] } else { vec![1, 2, 3, 4, 5] };

    let mut rows = Vec::new();
    for &k in &scales {
        let hist = base_hist * k;
        let hor = base_hor * k;
        let data = datagen::energy_series(hist + hor, 7 + k as u64);

        // YALMIP-style LP regression (general-purpose modelling).
        let y: Vec<f64> = data[..hist].iter().map(|r| r.pv_supply).collect();
        let feats = vec![data[..hist].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
        let fut = vec![data[hist..].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
        let (_, yalmip_1) = timed(|| baselines::uc1::p2_symbolic_lr(&y, &feats, &fut));

        // SolveDB+ explicit LP (S-3SS P2 script).
        let (mut s, _) = uc1_session(hist, hor, 7 + k as u64);
        s.execute_script(uc1::S_3SS_P1).or_die("UC1 P1");
        let (_, sdb_1) = timed(|| s.execute_script(uc1::S_3SS_P2).or_die("UC1 P2"));

        // Reference "fitlm": native least squares, N models (N = k) on
        // base-sized data.
        let (_, fitlm_n) = timed(|| {
            for m in 0..k {
                let d = datagen::energy_series(base_hist + base_hor, 100 + m as u64);
                let y: Vec<f64> = d[..base_hist].iter().map(|r| r.pv_supply).collect();
                let f = vec![d[..base_hist].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
                let mut lr = forecast::LinearRegression::new();
                use forecast::Forecaster;
                lr.fit(&y, &f).or_die("LR fit");
                let futm = vec![d[base_hist..].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
                let _ = lr.forecast(base_hor, &futm).or_die("LR forecast");
            }
        });

        // N independent base-size models for the general tools.
        let (_, yalmip_n) = timed(|| {
            for m in 0..k {
                let d = datagen::energy_series(base_hist + base_hor, 200 + m as u64);
                let y: Vec<f64> = d[..base_hist].iter().map(|r| r.pv_supply).collect();
                let f = vec![d[..base_hist].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
                let fu = vec![d[base_hist..].iter().map(|r| r.out_temp).collect::<Vec<f64>>()];
                let _ = baselines::uc1::p2_symbolic_lr(&y, &f, &fu);
            }
        });
        let (_, sdb_n) = timed(|| {
            for m in 0..k {
                let (mut s, _) = uc1_session(base_hist, base_hor, 300 + m as u64);
                s.execute_script(uc1::S_3SS_P1).or_die("UC1 P1");
                s.execute_script(uc1::S_3SS_P2).or_die("UC1 P2");
            }
        });

        rows.push(vec![
            format!("{k}x"),
            secs(yalmip_1),
            secs(yalmip_n),
            secs(sdb_1),
            secs(sdb_n),
            secs(fitlm_n),
        ]);
    }
    Figure {
        id: "Fig 4(a)".into(),
        title: format!(
            "Forecasting (P2) scalability — base {base_hist}+{base_hor} rows (paper: 8737+288)"
        ),
        headers: vec![
            "scale".into(),
            "YALMIP 1 model".into(),
            "YALMIP N models".into(),
            "SolveDB+ 1 model".into(),
            "SolveDB+ N models".into(),
            "fitlm reference (N)".into(),
        ],
        rows,
        notes: vec![
            "LP-based LR scales superlinearly with input size; specialized least squares stays near-linear".into(),
        ],
    }
}

pub fn fig4b(cfg: Config) -> Figure {
    let sizes: Vec<usize> = if cfg.quick { vec![50, 100] } else { vec![100, 200, 400, 600] };
    let mut rows = Vec::new();
    for &n in &sizes {
        let data = datagen::energy_series(n, 31);
        let u: Vec<Vec<f64>> = data.iter().map(|r| vec![r.out_temp, r.h_load]).collect();
        let measured: Vec<f64> = data.iter().map(|r| r.in_temp).collect();

        // fminsearch (Matlab/YALMIP): the fitness runs in Matlab's
        // interpreter — modelled by the baselines' expression walker.
        let (r, fminsearch) = timed(|| {
            nelder_mead(
                |p| baselines::interp::interpreted_hvac_sse(p[0], p[1], p[2], &u, &measured),
                &[0.5, 0.05, 0.0005],
                NmOptions { max_iterations: 100, ..Default::default() },
            )
        });
        let fminsearch_per_iter = fminsearch.as_secs_f64() / r.evaluations.max(1) as f64;

        // SolveDB+ (simulated annealing over the SQL-expressed fitness).
        let (mut s, _) = uc1_session(n, 4, 31);
        s.execute_script(uc1::S_3SS_P1).or_die("UC1 P1");
        let iters = if cfg.quick { 20 } else { 50 };
        let sql = uc1::S_3SS_P3.replace("iterations := 400", &format!("iterations := {iters}"));
        let (_, sdb) = timed(|| s.execute_script(&sql).or_die("UC1 P2 variant"));
        let sdb_per_iter = sdb.as_secs_f64() / iters as f64;

        // Reference ssest: native annealing fit.
        let (fit, ssest) = timed(|| {
            ssmodel::fit_hvac(&u, &measured, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)), 100, 3)
        });
        let ssest_per_iter = ssest.as_secs_f64() / fit.evaluations.max(1) as f64;

        rows.push(vec![
            n.to_string(),
            format!("{fminsearch_per_iter:.6}"),
            format!("{sdb_per_iter:.6}"),
            format!("{ssest_per_iter:.6}"),
            format!("{:.2}", sdb_per_iter / fminsearch_per_iter.max(1e-12)),
        ]);
    }
    Figure {
        id: "Fig 4(b)".into(),
        title: "P3 fitness-function evaluation time (s/iteration) vs training size".into(),
        headers: vec![
            "rows".into(),
            "Matlab/YALMIP (fminsearch)".into(),
            "SolveDB+ (simulated annealing)".into(),
            "reference native impl (ssest)".into(),
            "SolveDB+/interpreted".into(),
        ],
        rows,
        notes: vec![
            "SolveDB+ evaluates the SQL-expressed simulation per iteration; the references use native code".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 5 — P4 scalability with breakdown
// ---------------------------------------------------------------------------

pub fn fig5(cfg: Config) -> Figure {
    let base = if cfg.quick { 24 } else { 288 };
    let scales = [0.5, 1.0, 1.5, 2.0];
    let mut rows = Vec::new();
    for &sc in &scales {
        let horizon = (base as f64 * sc) as usize;
        let history = cfg.uc1_history();
        let data = datagen::energy_series(history + horizon, 55);
        let mut task = Uc1Task::new(
            data[..history].to_vec(),
            data[history..].iter().map(|r| r.out_temp).collect(),
        );
        task.p3_evaluations = 10;
        let pv: Vec<f64> = data[history..].iter().map(|r| r.pv_supply).collect();
        let hvac = (datagen::TRUE_A1, datagen::TRUE_B1, datagen::TRUE_B2);
        let x0 = data[history - 1].in_temp;

        // YALMIP + MPT breakdowns (with CSV data I/O).
        let dir = baselines::csvio::TempDir::new("fig5").or_die("temp dir");
        let (_, io) = timed(|| {
            let tbl = datagen::energy_table(&data[history..]);
            let p = dir.file("hor.csv");
            baselines::csvio::export_csv(&tbl, &p).or_die("csv export");
            let _ = baselines::csvio::import_csv_numeric(&p).or_die("csv import");
        });
        let (_, mut yal) = p4_symbolic(&task, hvac, &pv, x0);
        yal.data_io = io;
        let (_, mut mpt) = p4_symbolic_mpt(&task, hvac, &pv, x0);
        mpt.data_io = io;

        // SolveDB+: model generation = symbolic compilation, measured
        // through the direct path (the engine compiles rules straight to
        // the LP; I/O is in-DBMS and counted as zero-ish).
        let (_, sdb) = p4_direct(&task, hvac, &pv, x0);

        for (name, b) in [("YALMIP", yal), ("SolveDB+", sdb), ("MPT", mpt)] {
            rows.push(vec![
                format!("{sc}x ({horizon} steps)"),
                name.to_string(),
                format!("{:.6}", b.data_io.as_secs_f64()),
                format!("{:.6}", b.solving.as_secs_f64()),
                format!("{:.6}", b.model_generation.as_secs_f64()),
                format!("{:.6}", b.total().as_secs_f64()),
            ]);
        }
    }
    Figure {
        id: "Fig 5".into(),
        title: format!("HVAC optimization (P4) scalability — 1x = {base} steps (paper: 288)"),
        headers: vec![
            "scale".into(),
            "stack".into(),
            "data I/O".into(),
            "optimization".into(),
            "model generation".into(),
            "total".into(),
        ],
        rows,
        notes: vec![
            "MPT's double translation dominates its model generation (paper: 215 s at 2x)".into()
        ],
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — CDTE / shared model eLOC
// ---------------------------------------------------------------------------

pub const P2_NOCDTE: &str = include_str!("../scripts/features/p2_nocdte.sql");
pub const P2_CDTE: &str = include_str!("../scripts/features/p2_cdte.sql");
pub const P2_WRAPPED: &str = include_str!("../scripts/features/p2_wrapped.sql");
pub const P3_NOCDTE: &str = include_str!("../scripts/features/p3_nocdte.sql");
pub const P3_CDTE: &str = include_str!("../scripts/features/p3_cdte.sql");
pub const P3_SHARED: &str = include_str!("../scripts/features/p3_shared.sql");
pub const P4_NOCDTE: &str = include_str!("../scripts/features/p4_nocdte.sql");
pub const P4_CDTE: &str = include_str!("../scripts/features/p4_cdte.sql");
pub const P4_SHARED: &str = include_str!("../scripts/features/p4_shared.sql");

pub fn fig6(_cfg: Config) -> Figure {
    let shared_model = eloc(uc1::S_SHARED_MODEL);
    let rows = vec![
        vec![
            "Forecasting (P2)".into(),
            eloc(P2_NOCDTE).to_string(),
            eloc(P2_CDTE).to_string(),
            "no shared model".into(),
        ],
        vec![
            "HVAC model fitting (P3)".into(),
            eloc(P3_NOCDTE).to_string(),
            eloc(P3_CDTE).to_string(),
            (eloc(P3_SHARED) + shared_model / 2).to_string(),
        ],
        vec![
            "HVAC optimization (P4)".into(),
            eloc(P4_NOCDTE).to_string(),
            eloc(P4_CDTE).to_string(),
            (eloc(P4_SHARED) + shared_model - shared_model / 2).to_string(),
        ],
    ];
    Figure {
        id: "Fig 6".into(),
        title: "SolveDB+ implementation sizes with and without CDTEs / shared models (eLOC)".into(),
        headers: vec![
            "sub-problem".into(),
            "SolveDB (no CDTE)".into(),
            "SolveDB+ CDTE".into(),
            "SolveDB+ shared model".into(),
        ],
        rows,
        notes: vec!["shared-model lines are split between P3 and P4, as in the paper".into()],
    }
}

// ---------------------------------------------------------------------------
// Figures 7 & 8 — in-DBMS comparison
// ---------------------------------------------------------------------------

/// SolveDB+ side of the in-DBMS comparison: specialized lr_solver for
/// P2, SQL-fitness annealing for P3, symbolic-LP SOLVESELECT for P4.
pub fn run_sdb_indbms(s: &mut Session, p3_iters: usize) -> baselines::PhaseTimes {
    s.execute_script(uc1::S_3SS_P1).or_die("UC1 P1");
    let (_, p2) = timed(|| {
        s.execute_script(include_str!("../scripts/uc1/s_indbms_p2.sql")).or_die("in-DBMS P2")
    });
    let sql = uc1::S_3SS_P3.replace("iterations := 400", &format!("iterations := {p3_iters}"));
    let (_, p3) = timed(|| s.execute_script(&sql).or_die("UC1 P3"));
    let (_, p4) = timed(|| s.execute_script(uc1::S_3SS_P4).or_die("UC1 P4"));
    baselines::PhaseTimes { p1: Duration::ZERO, p2, p3, p4 }
}

pub fn fig7(cfg: Config) -> Figure {
    let history = cfg.uc1_history();
    let horizon = cfg.uc1_horizon();
    let (mut s, _) = uc1_session(history, horizon, 77);
    let sdb = run_sdb_indbms(&mut s, cfg.p3_iterations());

    let data = datagen::energy_series(history + horizon, 77);
    let mut task = Uc1Task::new(
        data[..history].to_vec(),
        data[history..].iter().map(|r| r.out_temp).collect(),
    );
    task.p3_evaluations = cfg.p3_iterations();
    let madlib = madlib_python(&task).times;

    let sdb_eloc = eloc(include_str!("../scripts/uc1/s_indbms_p2.sql"))
        + eloc(uc1::S_3SS_P1)
        + eloc(uc1::S_3SS_P3)
        + eloc(uc1::S_3SS_P4);
    let madlib_eloc = eloc(uc1::MADLIB_PYTHON_PY);

    Figure {
        id: "Fig 7".into(),
        title: "UC1 vs the in-DBMS analytics stack (single instance)".into(),
        headers: vec![
            "stack".into(),
            "P2 (s)".into(),
            "P3 (s)".into(),
            "P4 (s)".into(),
            "total (s)".into(),
            "eLOC".into(),
        ],
        rows: vec![
            vec![
                "SolveDB+".into(),
                secs(sdb.p2),
                secs(sdb.p3),
                secs(sdb.p4),
                secs(sdb.total()),
                sdb_eloc.to_string(),
            ],
            vec![
                "MADlib+Python".into(),
                secs(madlib.p2),
                secs(madlib.p3),
                secs(madlib.p4),
                secs(madlib.total()),
                madlib_eloc.to_string(),
            ],
        ],
        notes: vec![],
    }
}

pub fn fig8(cfg: Config) -> Figure {
    let counts: Vec<usize> = if cfg.quick { vec![1, 3] } else { vec![1, 5, 10, 25] };
    let history = if cfg.quick { 72 } else { 168 };
    let horizon = 12;
    let mut rows = Vec::new();
    for &n in &counts {
        // SolveDB+: n independent instances.
        let (_, sdb) = timed(|| {
            for i in 0..n {
                let (mut s, _) = uc1_session(history, horizon, 1000 + i as u64);
                run_sdb_indbms(&mut s, 30);
            }
        });
        // MADlib stack: n instances.
        let (_, madlib) = timed(|| {
            for i in 0..n {
                let data = datagen::energy_series(history + horizon, 1000 + i as u64);
                let mut task = Uc1Task::new(
                    data[..history].to_vec(),
                    data[history..].iter().map(|r| r.out_temp).collect(),
                );
                task.p3_evaluations = 30;
                let _ = madlib_python(&task);
            }
        });
        rows.push(vec![n.to_string(), secs(sdb), secs(madlib)]);
    }
    Figure {
        id: "Fig 8".into(),
        title: "Multi-instance UC1 scalability (P2+P3+P4 per instance, seconds)".into(),
        headers: vec!["instances".into(), "SolveDB+".into(), "MADlib+Python".into()],
        rows,
        notes: vec![
            "the paper reports per-phase panels (a)-(c); totals shown here include all phases"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Figures 9 & 10 — UC2
// ---------------------------------------------------------------------------

pub fn fig9(cfg: Config) -> Figure {
    // Up to the paper's 2000 items.
    let scales: Vec<usize> = if cfg.quick { vec![5, 10] } else { vec![10, 25, 50, 100, 500, 2000] };
    let months = if cfg.quick { 30 } else { 80 };
    let mut rows = Vec::new();
    // ARIMA fits at the largest size: (items, requested, distinct).
    let mut fits = (0, 0, 0);
    for &n in &scales {
        let (mut s, items) = uc2_session(n, months, 9);
        let ids: Vec<i64> = items.iter().map(|i| i.item_id).collect();
        let (_, sdb) = timed(|| run_uc2(&mut s, &ids).or_die("UC2 pipeline"));
        let (_, r) = timed(|| {
            let _ = r_cplex(&items);
        });
        let (_, madlib) = timed(|| {
            let _ = madlib_cplex(&items);
        });
        if n == scales[scales.len() - 1] {
            // The order search P2 runs per item, on its own: the pipeline
            // runs it inside an INSERT, whose solve is not traced.
            for it in &items {
                let search = search_arima_order(&it.orders, 7);
                fits = (fits.0 + 1, fits.1 + search.evaluations, fits.2 + search.distinct);
            }
        }

        let ratio = format!("{:.2}", sdb.as_secs_f64() / r.as_secs_f64().max(1e-9));
        rows.push(vec![n.to_string(), secs(sdb), secs(r), secs(madlib), ratio]);
    }
    let per_item = |v: usize| v as f64 / fits.0.max(1) as f64;
    Figure {
        id: "Fig 9".into(),
        title: format!("UC2 combined P1-P4 scalability — {months} months of orders per item"),
        headers: vec![
            "items".into(),
            "SolveDB+ (ARIMA+MIP)".into(),
            "R/CPLEX".into(),
            "MADlib/CPLEX".into(),
            "SolveDB+/R".into(),
        ],
        rows,
        notes: vec![format!(
            "ARIMA fits per item: R/MADlib grid-search {} orders; SolveDB+ searches orders \
             with PSO (10x10), requesting {:.0} and fitting {:.1} distinct",
            order_grid().len(),
            per_item(fits.1),
            per_item(fits.2)
        )],
    }
}

pub fn fig10(cfg: Config) -> Figure {
    let n = if cfg.quick { 10 } else { 50 };
    let months = if cfg.quick { 30 } else { 80 };
    let (mut s, items) = uc2_session(n, months, 13);
    let ids: Vec<i64> = items.iter().map(|i| i.item_id).collect();
    let sdb = run_uc2(&mut s, &ids).or_die("UC2 pipeline");
    let r = r_cplex(&items).times;
    let m = madlib_cplex(&items).times;

    let sdb_eloc = eloc(crate::uc2::UC2_SQL);
    let r_eloc = eloc(crate::uc2::R_CPLEX_R);
    let m_eloc = eloc(crate::uc2::MADLIB_CPLEX_PY);

    let mk = |name: &str, t: baselines::PhaseTimes, e: usize| {
        vec![
            name.to_string(),
            secs(t.p1),
            secs(t.p2),
            secs(t.p3),
            secs(t.p4),
            secs(t.total()),
            e.to_string(),
        ]
    };
    Figure {
        id: "Fig 10".into(),
        title: format!("UC2 per-phase runtimes and eLOC at {n} items"),
        headers: vec![
            "stack".into(),
            "P1".into(),
            "P2".into(),
            "P3".into(),
            "P4".into(),
            "total (s)".into(),
            "eLOC".into(),
        ],
        rows: vec![
            mk("SolveDB+", sdb, sdb_eloc),
            mk("R/cplex", r, r_eloc),
            mk("MADlib/cplex", m, m_eloc),
        ],
        notes: vec![],
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — LR implementations
// ---------------------------------------------------------------------------

pub fn fig11(cfg: Config) -> Figure {
    let n = if cfg.quick { 40 } else { 120 };
    let horizon = 10;

    // Prepare the feature-script tables.
    let mut s = Session::new();
    let data = datagen::energy_series(n + horizon, 21);
    let lrdata: Vec<Vec<sqlengine::Value>> = data[..n]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                sqlengine::Value::Int(i as i64 + 1),
                sqlengine::Value::Float(r.out_temp),
                sqlengine::Value::Float(sqlengine::types::timeval::decompose(r.time).hour as f64),
                sqlengine::Value::Float(r.pv_supply),
            ]
        })
        .collect();
    s.db_mut().put_table(
        "lrdata",
        sqlengine::Table::from_rows(&["rid", "outtemp", "hr", "pvsupply"], lrdata),
    );
    s.db_mut().put_table("lrseries", {
        let mut t = planning_table(&data, n);
        // lr_solver fills the single `y` decision column: rename pvsupply.
        let idx = t.schema.index_of("pvsupply").or_die("pvsupply column");
        t.schema.columns[idx].name = "y".into();
        t
    });

    let mut time_script =
        |sql: &str| -> Duration { timed(|| s.execute_script(sql).or_die("feature script")).1 };
    let t_nocdte = time_script(P2_NOCDTE);
    let t_cdte = time_script(P2_CDTE);
    let t_wrapped = time_script(P2_WRAPPED);

    Figure {
        id: "Fig 11".into(),
        title: format!("LR solver implementations at {n} training rows: eLOC and runtime"),
        headers: vec!["variant".into(), "eLOC".into(), "runtime (s)".into()],
        rows: vec![
            vec![
                "No CDTE".into(),
                eloc(P2_NOCDTE).to_string(),
                format!("{:.6}", t_nocdte.as_secs_f64()),
            ],
            vec![
                "CDTE".into(),
                eloc(P2_CDTE).to_string(),
                format!("{:.6}", t_cdte.as_secs_f64()),
            ],
            vec![
                "Sci-kit-style wrapped solver".into(),
                eloc(P2_WRAPPED).to_string(),
                format!("{:.6}", t_wrapped.as_secs_f64()),
            ],
        ],
        notes: vec![
            "the wrapped solver runs native least squares — the paper's ~8x speedup over the LP formulation".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Presolve payoff — interval propagation on vs off
// ---------------------------------------------------------------------------

/// Turn presolve off in a `USING solverlp.cbc()` clause.
pub fn presolve_off(sql: &str) -> String {
    sql.replace("solverlp.cbc()", "solverlp.cbc(presolve := off)")
}

/// Execute one solve and pull its solver stats out of the trace.
fn traced_solve(s: &mut Session, sql: &str) -> (Duration, obs::SolverStats) {
    let (r, t) = timed(|| s.execute(sql));
    let r = r.or_die("traced solve");
    let st = r.trace.and_then(|tr| tr.solvers.first().cloned()).or_die("solver stats in trace");
    (t, st)
}

/// The nonzeros of each row of the constraint matrix `solverlp` hands
/// the kernel for one solve statement: after presolve, and as lowered
/// (`presolve := off`).
pub fn kernel_rows(s: &Session, sql: &str) -> [Vec<usize>; 2] {
    use solvedbplus_core::check::presolve::reduce::reduce_with;
    let sqlengine::ast::Statement::Solve(stmt) =
        sqlengine::parser::parse_statement(sql).or_die("solve statement")
    else {
        panic!("bench: not a solve statement: {sql}");
    };
    let ctes = sqlengine::Ctes::new();
    let prob = solvedbplus_core::build_problem(s.db(), &ctes, &stmt).or_die("problem");
    let model = solvedbplus_core::compile_model(s.db(), &ctes, &prob);
    let low = model.lowered();
    let pre = reduce_with(&low.problem, model.propagated().clone());
    let rows = |p: &lp::Problem| p.constraints.iter().map(|c| c.coeffs().len()).collect();
    [rows(&pre.reduced), rows(&low.problem)]
}

/// Presolve on/off comparison across the UC1 LP (at the figures'
/// horizon and at the paper's 288 steps, where presolve substitutes the
/// recursive CDTE's auxiliary columns out), the UC2 knapsack MIP and a
/// bound-snapping MIP microbench: solve time, branch-and-bound nodes,
/// simplex pivots, the reduction counters, the rows and nonzeros the
/// kernel sees, and the (identical) objectives.
pub fn presolve(cfg: Config) -> Figure {
    let mut rows = Vec::new();
    let mut compare = |workload: &str, s: &mut Session, sql: &str| {
        let runs = [("on", sql.to_string()), ("off", presolve_off(sql))];
        for ((mode, sql), kernel) in runs.into_iter().zip(kernel_rows(s, sql)) {
            let (t, st) = traced_solve(s, &sql);
            rows.push(vec![
                workload.to_string(),
                mode.to_string(),
                secs(t),
                st.nodes_explored.to_string(),
                st.iterations.to_string(),
                st.presolve_cols.to_string(),
                st.presolve_bounds.to_string(),
                st.presolve_rows.to_string(),
                kernel.len().to_string(),
                kernel.iter().sum::<usize>().to_string(),
                st.objective.map(|o| format!("{o:.2}")).unwrap_or_else(|| "-".into()),
            ]);
        }
    };

    // UC1 P4: the HVAC planning LP, run on a session prepared through
    // P3 (the solve does not mutate its inputs, so one session serves
    // both runs).
    let long = if cfg.quick { 24 } else { 288 };
    for (label, horizon) in [
        ("UC1 HVAC plan (LP)".to_string(), cfg.uc1_horizon()),
        (format!("UC1 HVAC plan (LP, {long} steps)"), long),
    ] {
        let (mut s, _) = uc1_session(cfg.uc1_history(), horizon, 41);
        s.execute_script(uc1::S_3SS_P1).or_die("UC1 P1");
        s.execute_script(uc1::S_3SS_P2).or_die("UC1 P2");
        s.execute_script(&uc1::S_3SS_P3.replace("iterations := 400", "iterations := 40"))
            .or_die("UC1 P3");
        let p4 = uc1::S_3SS_P4;
        let start = p4.find("SOLVESELECT").or_die("UC1 P4 solve statement");
        compare(&label, &mut s, p4[start..].trim().trim_end_matches(';'));
    }

    // UC2 P4: the warehouse knapsack MIP over forecast-weighted profits.
    {
        let n = if cfg.quick { 8 } else { 25 };
        let months = if cfg.quick { 30 } else { 80 };
        let (mut s, items) = uc2_session(n, months, 7);
        let ids: Vec<i64> = items.iter().map(|i| i.item_id).collect();
        crate::uc2::prepare_uc2_profit(&mut s, &ids).or_die("UC2 P2+P3");
        compare(&format!("UC2 knapsack MIP ({n} items)"), &mut s, &crate::uc2::p4_solve_sql());
    }

    // Bound-snapping MIP: maximize sum(x) with a per-row 2x <= 7 over
    // integer decisions. Presolve snaps every upper bound to x <= 3, the
    // root relaxation becomes integral, and branch-and-bound never
    // branches; without it every variable sits fractional at 3.5.
    {
        let n = if cfg.quick { 12 } else { 40 };
        let mut s = Session::new();
        s.execute_script("CREATE TABLE mb (rid int, x int)").or_die("mb table");
        for i in 0..n {
            s.execute_script(&format!("INSERT INTO mb VALUES ({i}, NULL)")).or_die("mb row");
        }
        let sql = "SOLVESELECT q(x) AS (SELECT rid, x FROM mb) \
                   MAXIMIZE (SELECT sum(x) FROM q) \
                   SUBJECTTO (SELECT x >= 0, 2 * x <= 7 FROM q) \
                   USING solverlp.cbc()";
        compare(&format!("bound-snap MIP ({n} int vars)"), &mut s, sql);
    }

    Figure {
        id: "Presolve".into(),
        title: "Presolve payoff: solve time, search size and kernel nonzeros, presolve on vs off"
            .into(),
        headers: vec![
            "workload".into(),
            "presolve".into(),
            "solve (s)".into(),
            "B&B nodes".into(),
            "pivots".into(),
            "vars fixed".into(),
            "bounds tightened".into(),
            "rows removed".into(),
            "rows".into(),
            "nonzeros".into(),
            "objective".into(),
        ],
        rows,
        notes: vec![
            "identical objectives within each pair is the correctness check; nodes and time are the payoff".into(),
            "rows, nonzeros: the constraint matrix handed to the kernel (with presolve on, after substitution)".into(),
            "pivots: simplex iterations, over every node of a search".into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Matrix classification payoff — integrality proofs on vs off
// ---------------------------------------------------------------------------

/// Turn matrix classification off in a `USING solverlp.cbc()` clause.
fn matrixclass_off(sql: &str) -> String {
    sql.replace("solverlp.cbc()", "solverlp.cbc(matrixclass := off)")
}

/// Matrix-classification on/off comparison across models with provable
/// structure: an assignment MIP (network TU), a staffing MIP with a
/// consecutive-ones coverage matrix (interval TU), a crew-rostering
/// set-partitioning model (census/cut registration, no whole-matrix
/// proof), and an aggregated knapsack whose linking variable is
/// implied-integral (branch-and-bound stops branching on it). Within
/// each pair the objective must be identical — the proofs are shortcuts,
/// never approximations.
pub fn matrix(cfg: Config) -> Figure {
    let mut rows = Vec::new();
    let mut push = |workload: &str, runs: [(&str, (Duration, obs::SolverStats)); 2]| {
        for (mode, (t, st)) in runs {
            rows.push(vec![
                workload.to_string(),
                mode.to_string(),
                secs(t),
                st.nodes_explored.to_string(),
                if st.integrality_proof.is_empty() { "-".into() } else { st.integrality_proof },
                if st.matrix_class.is_empty() { "-".into() } else { st.matrix_class },
                st.objective.map(|o| format!("{o:.2}")).unwrap_or_else(|| "-".into()),
            ]);
        }
    };

    // Assignment n×n: every variable sits in exactly one worker row and
    // one task row — a network matrix. With the proof, solverlp solves
    // the LP relaxation once (0 nodes, certified); without it, it runs
    // branch-and-bound and merely gets lucky at the root.
    {
        let n = if cfg.quick { 4 } else { 8 };
        let mut s = Session::new();
        s.execute_script("CREATE TABLE assign (w int, t int, cost float8, x int)")
            .or_die("assign table");
        for w in 0..n {
            for t in 0..n {
                let cost = 1.0 + ((w * 7 + t * 13) % 17) as f64;
                s.execute_script(&format!("INSERT INTO assign VALUES ({w}, {t}, {cost}, NULL)"))
                    .or_die("assign row");
            }
        }
        let sql = "SOLVESELECT a(x) AS (SELECT * FROM assign) \
                   MINIMIZE (SELECT sum(cost * x) FROM a) \
                   SUBJECTTO (SELECT sum(x) = 1 FROM a GROUP BY w), \
                             (SELECT sum(x) = 1 FROM a GROUP BY t), \
                             (SELECT 0 <= x <= 1 FROM a) \
                   USING solverlp.cbc()";
        let on = traced_solve(&mut s, sql);
        let off = traced_solve(&mut s, &matrixclass_off(sql));
        push(&format!("assignment {n}x{n} (network TU)"), [("on", on), ("off", off)]);
    }

    // Shift staffing: each coverage window spans consecutive shifts, so
    // the matrix has the consecutive-ones property (interval TU).
    {
        let mut s = Session::new();
        s.execute_script("CREATE TABLE shifts (sid int, staff int)").or_die("shifts table");
        for sid in 1..=6 {
            s.execute_script(&format!("INSERT INTO shifts VALUES ({sid}, NULL)"))
                .or_die("shift row");
        }
        let sql = "SOLVESELECT s(staff) AS (SELECT * FROM shifts) \
                   MINIMIZE (SELECT sum(staff) FROM s) \
                   SUBJECTTO (SELECT sum(staff) >= 3 FROM s WHERE sid BETWEEN 1 AND 2), \
                             (SELECT sum(staff) >= 5 FROM s WHERE sid BETWEEN 2 AND 4), \
                             (SELECT sum(staff) >= 4 FROM s WHERE sid BETWEEN 3 AND 5), \
                             (SELECT sum(staff) >= 2 FROM s WHERE sid BETWEEN 4 AND 6), \
                             (SELECT 0 <= staff <= 10 FROM s) \
                   USING solverlp.cbc()";
        let on = traced_solve(&mut s, sql);
        let off = traced_solve(&mut s, &matrixclass_off(sql));
        push("shift staffing (interval TU)", [("on", on), ("off", off)]);
    }

    // Crew rostering: pick pairings so every flight is covered exactly
    // once — pure set-partitioning rows. No whole-matrix proof (some
    // pairings span three flights), but the census registers the rows
    // as cut-separation candidates.
    {
        let mut s = Session::new();
        s.execute_script(crate::CREW_SETUP).or_die("crew tables");
        let on = traced_solve(&mut s, crate::CREW_SOLVE);
        let off = traced_solve(&mut s, &matrixclass_off(crate::CREW_SOLVE));
        push("crew rostering (set partitioning)", [("on", on), ("off", off)]);
    }

    // Duty-hours aggregate: crew clusters whose LP root is fractional
    // (each is the classic odd-cycle set-partitioning gap), plus one
    // integer aggregate `total = sum(hours * pick)` inserted as the
    // FIRST decision row so most-fractional branching reaches for it.
    // Its integrality is implied by the linking equality, so with
    // classification on, branch-and-bound relaxes it and branches on
    // the picks directly; without the proof it wastes nodes splitting
    // the aggregate. This is the genuine node-count collapse.
    {
        let k = if cfg.quick { 3 } else { 5 };
        let mut s = Session::new();
        s.execute_script(
            "CREATE TABLE duties (did int, kind int, dcost float8, coef float8, pick int);
             CREATE TABLE cover (did int, flight int)",
        )
        .or_die("duties tables");
        // The aggregate first: cost 0, coefficient -1 in the link row.
        s.execute_script("INSERT INTO duties VALUES (0, 1, 0, -1, NULL)").or_die("total row");
        for t in 0..k {
            // Per cluster: three two-flight pairings (cheap, forming the
            // odd cycle) and three single-flight reserves (expensive).
            let costs = [10.0, 10.0, 10.0, 8.0, 8.0, 8.0];
            let hb = (t % 4) as f64;
            let hours = [7.0 + hb, 9.0 + hb, 11.0 + hb, 5.0, 4.0, 6.0];
            let covers: [&[usize]; 6] = [&[1, 2], &[2, 3], &[1, 3], &[1], &[2], &[3]];
            for i in 0..6 {
                let did = 1 + 6 * t + i;
                s.execute_script(&format!(
                    "INSERT INTO duties VALUES ({did}, 0, {}, {}, NULL)",
                    costs[i], hours[i]
                ))
                .or_die("duty row");
                for fl in covers[i] {
                    s.execute_script(&format!("INSERT INTO cover VALUES ({did}, {})", 3 * t + fl))
                        .or_die("cover row");
                }
            }
        }
        let sql = "SOLVESELECT d(pick) AS (SELECT * FROM duties) \
                   MINIMIZE (SELECT sum(dcost * pick) FROM d) \
                   SUBJECTTO (SELECT sum(pick) = 1 FROM d JOIN cover ON d.did = cover.did \
                                GROUP BY cover.flight), \
                             (SELECT sum(coef * pick) = 0 FROM d), \
                             (SELECT 0 <= pick <= 1 FROM d WHERE kind = 0), \
                             (SELECT 0 <= pick <= 10000 FROM d WHERE kind = 1) \
                   USING solverlp.cbc()";
        let on = traced_solve(&mut s, sql);
        let off = traced_solve(&mut s, &matrixclass_off(sql));
        push(&format!("duty-hours aggregate ({k} clusters)"), [("on", on), ("off", off)]);
    }

    Figure {
        id: "Matrix".into(),
        title: "Matrix classification payoff: proofs, row classes and search size, on vs off"
            .into(),
        headers: vec![
            "workload".into(),
            "matrixclass".into(),
            "solve (s)".into(),
            "B&B nodes".into(),
            "proof".into(),
            "row classes".into(),
            "objective".into(),
        ],
        rows,
        notes: vec![
            "identical objectives within each pair is the correctness check; the proof column \
             shows what was certified and nodes show the search the proof removed"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Executor comparison: reference row interpreter vs planned columnar pipeline
// ---------------------------------------------------------------------------

/// Time one SQL statement under both executors, asserting identical
/// results (as multisets — the optimizer may reorder joins). Returns
/// (rows, row_time, columnar_time) with the best of three runs each.
fn race_executors(s: &mut Session, sql: &str) -> (usize, Duration, Duration) {
    let canon = |t: &Table| -> Vec<String> {
        let mut keys: Vec<String> = t
            .rows
            .iter()
            .map(|r| r.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join("\u{1f}"))
            .collect();
        keys.sort();
        keys
    };
    let best = |s: &mut Session, sql: &str| -> (Table, Duration) {
        let (mut t, mut d) = timed(|| s.query(sql));
        for _ in 0..2 {
            let (t2, d2) = timed(|| s.query(sql));
            if d2 < d {
                d = d2;
                t = t2;
            }
        }
        (t.unwrap_or_else(|e| panic!("executor bench query failed ({e}): {sql}")), d)
    };
    let prev = s.db_mut().set_force_row_interpreter(true);
    let (row_t, row_d) = best(s, sql);
    s.db_mut().set_force_row_interpreter(false);
    let (col_t, col_d) = best(s, sql);
    s.db_mut().set_force_row_interpreter(prev);
    assert_eq!(canon(&row_t), canon(&col_t), "row and columnar executors disagree on: {sql}");
    (col_t.num_rows(), row_d, col_d)
}

/// Row vs columnar executor on the scan/filter/join/aggregate
/// micro-suite and on the UC1/UC2 model-instantiation queries.
pub fn executor(cfg: Config) -> Figure {
    let n: i64 = if cfg.quick { 20_000 } else { 120_000 };
    // Synthetic fact/dim pair; deterministic LCG so runs are comparable.
    let mut x: i64 = 0x5DEECE66D;
    let mut rnd = |m: i64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33).rem_euclid(m)
    };
    let fact: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(rnd(64)),
                Value::Int(rnd(1000)),
                Value::Float(rnd(10_000) as f64 / 10.0),
            ]
        })
        .collect();
    let dim: Vec<Vec<Value>> =
        (0..64).map(|i| vec![Value::Int(i), Value::text(format!("grp{i}"))]).collect();
    let fact = Table::from_rows(&["id", "g", "a", "b"], fact);
    let mut s = Session::new();
    s.db_mut().put_table("fact", fact.clone());
    s.db_mut().put_table("dim", Table::from_rows(&["id", "name"], dim));
    // A block evaluated once per outer row — the shape of a subquery in a
    // SOLVESELECT rule: 500 outer rows, 16 of 8000 inner rows each.
    let ints = |row: &[i64]| row.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
    let outer_rows = (0..500).map(|i| ints(&[i])).collect();
    let inner_rows = (0..8000).map(|i| ints(&[i % 500, i])).collect();
    s.db_mut().put_table("outer500", Table::from_rows(&["id"], outer_rows));
    s.db_mut().put_table("inner8000", Table::from_rows(&["id", "w"], inner_rows));
    // A recurrence over 336 rows of history, one step per row — the
    // shape of UC1's simulation CDTE.
    let chain_rows = (0..336).map(|k| vec![Value::Int(k), Value::Float(rnd(100) as f64)]).collect();
    s.db_mut().put_table("chain336", Table::from_rows(&["k", "w"], chain_rows));

    let aggregate = "SELECT g, count(*), sum(a), avg(b), min(a), max(b) FROM fact GROUP BY g";
    let micro: &[(&str, String)] = &[
        ("scan+project", "SELECT id, g, a, b FROM fact".into()),
        ("filter", "SELECT id, a FROM fact WHERE a > 500 AND g < 32".into()),
        (
            "hash join",
            "SELECT f.id, d.name FROM fact f JOIN dim d ON f.g = d.id WHERE f.a < 250".into(),
        ),
        // The shape of a rule instantiation: a few dimension rows pick
        // their share of the fact table.
        (
            "hash join: 20-row filtered dim ⋈ fact",
            "SELECT d.id, count(*), sum(f.a) FROM dim d JOIN fact f ON f.g = d.id \
             WHERE d.id BETWEEN 10 AND 29 GROUP BY d.id"
                .into(),
        ),
        ("aggregate", aggregate.into()),
        ("rollup", "SELECT g, sum(a) FROM fact WHERE g < 16 GROUP BY ROLLUP (g)".into()),
        (
            "correlated scalar subquery: 500 outer × 8000 inner",
            "SELECT o.id, (SELECT sum(w) FROM inner8000 i WHERE i.id = o.id) FROM outer500 o"
                .into(),
        ),
        (
            "closed subquery under a block with columns",
            "SELECT o.id, (SELECT sum(w) FROM inner8000 i WHERE i.id = 7) FROM outer500 o".into(),
        ),
        (
            "recursive CTE: 336 one-row steps over a kept build",
            "WITH RECURSIVE r(k, x) AS (SELECT 0, 20.0 UNION ALL \
             SELECT r.k + 1, 0.9 * r.x + 0.01 * c.w FROM r JOIN chain336 c ON c.k = r.k) \
             SELECT k, x FROM r"
                .into(),
        ),
        (
            "ORDER BY … LIMIT 1 over 8000 rows",
            "SELECT id, w FROM inner8000 ORDER BY w DESC LIMIT 1".into(),
        ),
    ];
    let mut rows = Vec::new();
    let mut agg_speedup = 0.0;
    for (name, sql) in micro {
        let (nrows, row_d, col_d) = race_executors(&mut s, sql);
        let speedup = row_d.as_secs_f64() / col_d.as_secs_f64().max(1e-9);
        if *name == "aggregate" {
            agg_speedup = speedup;
        }
        rows.push(vec![
            (*name).to_string(),
            nrows.to_string(),
            secs(row_d),
            secs(col_d),
            format!("{speedup:.2}x"),
        ]);
    }

    // The same query twice on a table version nothing has scanned: the
    // first execution pivots the columns it keeps into the table's
    // columnar image, the second finds them there. (`race_executors`
    // reports the best of three, so its columnar column is the second.)
    s.db_mut().put_table("fact", fact);
    let (first_t, first_d) = timed(|| s.query(aggregate).or_die("first scan"));
    let (again_t, again_d) = timed(|| s.query(aggregate).or_die("image reuse"));
    assert_eq!(first_t, again_t, "the same query twice disagrees with itself");
    for (which, d) in [("first scan of a table version", first_d), ("same query again", again_d)] {
        rows.push(vec![
            format!("aggregate: {which}"),
            again_t.num_rows().to_string(),
            "-".into(),
            secs(d),
            format!("{:.2}x", first_d.as_secs_f64() / d.as_secs_f64().max(1e-9)),
        ]);
    }

    // Model instantiation: the SELECTs a SOLVESELECT evaluates to build
    // its problem instance, over the UC1 and UC2 datasets.
    let (mut s1, _) = uc1_session(cfg.uc1_history(), cfg.uc1_horizon(), 7);
    let uc1_sql = "SELECT time, outtemp, intemp, hload, pvsupply FROM input \
                   WHERE intemp IS NULL ORDER BY time";
    let (nrows, row_d, col_d) = race_executors(&mut s1, uc1_sql);
    rows.push(vec![
        "UC1 instantiation".into(),
        nrows.to_string(),
        secs(row_d),
        secs(col_d),
        format!("{:.2}x", row_d.as_secs_f64() / col_d.as_secs_f64().max(1e-9)),
    ]);
    let (mut s2, _) = uc2_session(if cfg.quick { 40 } else { 120 }, 24, 1);
    let uc2_sql = "SELECT i.item_id, i.price - i.cost AS margin, sum(o.quantity), avg(o.quantity) \
                   FROM items i JOIN orders o ON i.item_id = o.item_id \
                   GROUP BY i.item_id, i.price - i.cost";
    let (nrows, row_d, col_d) = race_executors(&mut s2, uc2_sql);
    rows.push(vec![
        "UC2 instantiation".into(),
        nrows.to_string(),
        secs(row_d),
        secs(col_d),
        format!("{:.2}x", row_d.as_secs_f64() / col_d.as_secs_f64().max(1e-9)),
    ]);

    Figure {
        id: "Executor".into(),
        title: "Reference row interpreter vs planned columnar executor".into(),
        headers: vec![
            "workload".into(),
            "rows out".into(),
            "row (s)".into(),
            "columnar (s)".into(),
            "speedup".into(),
        ],
        rows,
        notes: vec![
            "every pair asserted identical (multiset of result rows); the row column is the \
             reference interpreter, reachable only through `set_force_row_interpreter`"
                .into(),
            "the two `aggregate:` rows time one columnar execution each; their speedup is \
             relative to the first scan"
                .into(),
            format!("aggregate-heavy speedup: {agg_speedup:.2}x (target ≥2x in release builds)"),
        ],
    }
}

// ---------------------------------------------------------------------------
// Storage: fsync-policy cost and recovery speed
// ---------------------------------------------------------------------------

/// Table sizes of the storage figure's shared-append sweep.
const SHARED_APPEND_ROWS: [usize; 3] = [1_000, 10_000, 100_000];

/// µs per single-row INSERT into a table of `rows` rows on `engine`, a
/// second connection reading the table between the inserts — so the
/// version each INSERT writes is held by the reader too.
fn shared_insert_us(engine: &std::sync::Arc<storage::StorageEngine>, rows: usize) -> f64 {
    const INSERTS: usize = 100;
    let connect = || {
        let mut s = Session::new();
        s.attach_storage(engine.clone()).or_die("attach storage");
        s
    };
    let (mut writer, mut reader) = (connect(), connect());
    let table = format!("shared_{rows}");
    let values: Vec<String> = (0..rows).map(|i| format!("({i})")).collect();
    writer
        .execute_script(&format!(
            "CREATE TABLE {table} (x INT); INSERT INTO {table} VALUES {}",
            values.join(", ")
        ))
        .or_die("load shared table");
    // The load's WAL bytes reach the disk here, not inside a timed insert.
    writer.execute("CHECKPOINT").or_die("checkpoint after the load");
    let count = format!("SELECT count(*) FROM {table}");
    let mut spent = Duration::ZERO;
    for i in 0..INSERTS {
        let seen = reader.query_scalar(&count).or_die("read between inserts");
        assert_eq!(seen, Value::Int((rows + i) as i64), "the reader sees every committed row");
        let insert = format!("INSERT INTO {table} VALUES ({})", rows + i);
        spent += timed(|| writer.execute(&insert).or_die("shared insert")).1;
    }
    spent.as_secs_f64() * 1e6 / INSERTS as f64
}

/// Durability cost/benefit across fsync policies: single-statement
/// ingest throughput (each statement is one group commit), WAL-tail
/// recovery, checkpoint cost, and snapshot-based recovery, against an
/// ephemeral session as the no-WAL baseline; then the cost of one
/// INSERT into a table another connection reads, by table size.
pub fn storage_fig(cfg: Config) -> Figure {
    use std::sync::Arc;
    use storage::{FsyncPolicy, StorageEngine};

    let n: usize = if cfg.quick { 150 } else { 1000 };
    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("ephemeral (no WAL)", None),
        ("never", Some(FsyncPolicy::Never)),
        ("interval:100", Some(FsyncPolicy::Interval(Duration::from_millis(100)))),
        ("always", Some(FsyncPolicy::Always)),
    ];
    let mut rows = Vec::new();
    for (label, policy) in policies {
        let dir = std::env::temp_dir().join(format!(
            "sdb-bench-storage-{}-{}",
            label
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut s = Session::new();
        if let Some(p) = policy {
            let engine = Arc::new(StorageEngine::open(&dir, p).or_die("open storage"));
            s.attach_storage(engine).or_die("attach storage");
        }
        s.execute_script("CREATE TABLE kv (k INT, v TEXT)").or_die("create kv");
        let (_, ingest) = timed(|| {
            for i in 0..n {
                s.execute(&format!("INSERT INTO kv VALUES ({i}, 'value-{i}')")).or_die("insert");
            }
        });
        let stmts_per_s = n as f64 / ingest.as_secs_f64().max(1e-9);

        let (fsyncs, wal_bytes, wal_recover, ckpt, snap_recover) = match policy {
            None => ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
            Some(p) => {
                let fsyncs =
                    s.query_scalar("SELECT fsyncs FROM sdb_storage").or_die("fsyncs").to_string();
                let wal_bytes = s
                    .query_scalar("SELECT wal_bytes FROM sdb_storage")
                    .or_die("wal_bytes")
                    .to_string();
                // Recovery from the raw WAL (n+1 records replay).
                let (e2, wal_recover) =
                    timed(|| StorageEngine::open(&dir, p).or_die("reopen (wal)"));
                assert_eq!(e2.recovery_stats().replayed_records, n as u64 + 1, "{label}");
                // Checkpoint, then recovery from the snapshot alone.
                let (_, ckpt) = timed(|| s.execute("CHECKPOINT").or_die("checkpoint"));
                let (e3, snap_recover) =
                    timed(|| StorageEngine::open(&dir, p).or_die("reopen (snapshot)"));
                assert_eq!(e3.recovery_stats().replayed_records, 0, "{label}");
                let mut check = Session::new();
                check
                    .attach_storage(Arc::new(StorageEngine::open(&dir, p).or_die("reopen (check)")))
                    .or_die("attach check");
                let cnt = check.query_scalar("SELECT count(*) FROM kv").or_die("count");
                assert_eq!(cnt, Value::Int(n as i64), "{label}: rows lost across recovery");
                (fsyncs, wal_bytes, secs(wal_recover), secs(ckpt), secs(snap_recover))
            }
        };
        let mut row = vec![
            label.to_string(),
            n.to_string(),
            secs(ingest),
            format!("{stmts_per_s:.0}"),
            fsyncs,
            wal_bytes,
            wal_recover,
            ckpt,
            snap_recover,
        ];
        let _ = std::fs::remove_dir_all(&dir);
        for size in SHARED_APPEND_ROWS {
            row.push(match policy {
                None => "-".into(),
                Some(p) => {
                    let engine = Arc::new(StorageEngine::open(&dir, p).or_die("open storage"));
                    let us = shared_insert_us(&engine, size);
                    drop(engine);
                    let _ = std::fs::remove_dir_all(&dir);
                    format!("{us:.0}")
                }
            });
        }
        rows.push(row);
    }
    Figure {
        id: "Storage".into(),
        title: format!(
            "Durable catalog: fsync-policy ingest cost and recovery speed ({n} single-row inserts)"
        ),
        headers: vec![
            "mode".into(),
            "inserts".into(),
            "ingest (s)".into(),
            "stmts/s".into(),
            "fsyncs".into(),
            "wal bytes".into(),
            "wal recover (s)".into(),
            "checkpoint (s)".into(),
            "snap recover (s)".into(),
        ]
        .into_iter()
        .chain(SHARED_APPEND_ROWS.iter().map(|r| format!("shared insert µs ({r} rows)")))
        .collect(),
        rows,
        notes: vec![
            "each INSERT is one statement = one group commit; `always` pays one fsync per statement".into(),
            "recovery is asserted lossless: count(*) matches after reopen in every durable mode".into(),
            "shared insert µs: mean of 100 single-row INSERTs into a table of that many rows, a \
             second connection counting its rows between them (asserted: it sees every committed \
             row); the INSERT copies at most the 1024-row chunk it lands in"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Observability: instrumentation overhead and progress-emission cost
// ---------------------------------------------------------------------------

/// Cost of the telemetry plane itself: per-op price of the histogram
/// and metrics-registry primitives, their share of an executor
/// micro-suite's wall clock (target < 2%), and what live progress
/// emission adds to a long MIP solve.
pub fn obs_fig(cfg: Config) -> Figure {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let mut rows = Vec::new();

    // Primitive costs, amortized over a tight loop.
    let reps: u64 = if cfg.quick { 200_000 } else { 1_000_000 };
    let mut h = obs::Histogram::new();
    let (_, hist_d) = timed(|| {
        for i in 0..reps {
            h.record(i % 100_000);
        }
    });
    let hist_ns = hist_d.as_nanos() as f64 / reps as f64;
    rows.push(vec![
        "Histogram::record".into(),
        format!("{reps} ops"),
        format!("{hist_ns:.1} ns/op"),
        String::new(),
    ]);

    let reg = obs::MetricsRegistry::new();
    let stmt_reps = reps / 10;
    let (_, rec_d) = timed(|| {
        for i in 0..stmt_reps {
            reg.record_statement_exec("SELECT ?", i % 100_000, 1, false, None, None);
        }
    });
    let record_ns = rec_d.as_nanos() as f64 / stmt_reps as f64;
    rows.push(vec![
        "record_statement_exec".into(),
        format!("{stmt_reps} ops"),
        format!("{record_ns:.1} ns/op"),
        String::new(),
    ]);
    let (_, stage_d) = timed(|| {
        for i in 0..stmt_reps {
            reg.record_stage("solve/compile", i % 100_000);
        }
    });
    let stage_ns = stage_d.as_nanos() as f64 / stmt_reps as f64;
    rows.push(vec![
        "record_stage".into(),
        format!("{stmt_reps} ops"),
        format!("{stage_ns:.1} ns/op"),
        String::new(),
    ]);

    // Instrumentation share of the executor micro-suite: run real
    // statements through a session (shape fingerprinting + statement
    // recording happen on every one), then price that recording work
    // against the measured wall clock.
    let n: i64 = if cfg.quick { 5_000 } else { 30_000 };
    let mut x: i64 = 0x5DEECE66D;
    let mut rnd = |m: i64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33).rem_euclid(m)
    };
    let fact: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(rnd(64)), Value::Float(rnd(10_000) as f64 / 10.0)])
        .collect();
    let mut s = Session::new();
    s.db_mut().put_table("fact", Table::from_rows(&["id", "g", "a"], fact));
    let suite = [
        "SELECT id, g, a FROM fact",
        "SELECT id, a FROM fact WHERE a > 500 AND g < 32",
        "SELECT g, count(*), sum(a), avg(a) FROM fact GROUP BY g",
    ];
    let iters = if cfg.quick { 5 } else { 10 };
    let mut statements = 0u64;
    let (_, suite_d) = timed(|| {
        for _ in 0..iters {
            for sql in &suite {
                let _ = s.execute(sql);
                statements += 1;
            }
        }
    });
    // Per-statement instrumentation: one shape fingerprint + one
    // statement record (which includes one histogram record).
    let parsed = sqlengine::parser::parse_statement(suite[2]).ok();
    let shape_ns = match &parsed {
        Some(stmt) => {
            let shape_reps = 10_000u64;
            let (_, d) = timed(|| {
                for _ in 0..shape_reps {
                    let _ = sqlengine::statement_shape(stmt);
                }
            });
            d.as_nanos() as f64 / shape_reps as f64
        }
        None => 0.0,
    };
    let instr_nanos = statements as f64 * (shape_ns + record_ns);
    let overhead_pct = 100.0 * instr_nanos / (suite_d.as_nanos() as f64).max(1.0);
    rows.push(vec![
        "executor micro-suite".into(),
        format!("{statements} stmts"),
        secs(suite_d),
        format!("instrumentation {overhead_pct:.3}%"),
    ]);

    // Progress emission on a long MIP: identical hard knapsacks, one
    // silent, one with a counting progress sink installed (emission is
    // throttled to one event per 100 ms inside the solver).
    let items = if cfg.quick { 36 } else { 44 };
    let knapsack_session = |with_sink: Option<Arc<AtomicU64>>| -> (Duration, u64) {
        let mut s = Session::new();
        if let Some(counter) = &with_sink {
            let counter = counter.clone();
            s.set_progress_sink(Arc::new(move |_ev: &obs::ProgressEvent| {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        s.execute("CREATE TABLE items (id int, weight float8, value float8, pick float8)")
            .or_die("create");
        for i in 0..items {
            s.execute(&format!(
                "INSERT INTO items VALUES ({i}, {}, {}, NULL)",
                (i * 5) % 11 + 1,
                (i * 7) % 13 + 1,
            ))
            .or_die("insert");
        }
        let (out, d) = timed(|| {
            s.execute(
                "SOLVESELECT q(pick) AS (SELECT * FROM items) \
                 MAXIMIZE (SELECT sum(value * pick) FROM q) \
                 SUBJECTTO (SELECT sum(weight * pick) <= 80 FROM q), \
                           (SELECT 0 <= pick <= 1 FROM q) \
                 USING solverlp.cbc()",
            )
        });
        out.or_die("knapsack solves");
        let events = with_sink.map(|c| c.load(Ordering::Relaxed)).unwrap_or(0);
        (d, events)
    };
    let (silent_d, _) = knapsack_session(None);
    let counter = Arc::new(AtomicU64::new(0));
    let (sink_d, events) = knapsack_session(Some(counter));
    let delta_pct =
        100.0 * (sink_d.as_secs_f64() - silent_d.as_secs_f64()) / silent_d.as_secs_f64().max(1e-9);
    rows.push(vec![
        "MIP, no progress sink".into(),
        format!("{items} items"),
        secs(silent_d),
        String::new(),
    ]);
    rows.push(vec![
        "MIP, progress sink".into(),
        format!("{events} event(s)"),
        secs(sink_d),
        format!("delta {delta_pct:+.1}%"),
    ]);

    Figure {
        id: "Obs".into(),
        title: "Telemetry-plane overhead (histograms, fingerprints, progress)".into(),
        headers: vec!["probe".into(), "volume".into(), "time".into(), "overhead".into()],
        rows,
        notes: vec![
            format!(
                "instrumentation share of the executor micro-suite: {overhead_pct:.3}% \
                 (target < 2%)"
            ),
            "progress emission is throttled to one event per 100 ms; its cost is one \
             atomic load per solver progress point"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------------
// Table 3 claim checks
// ---------------------------------------------------------------------------

pub fn summary(cfg: Config) -> Figure {
    // Claim A: shared models ≈ 2x less P3-P4 code.
    let shared_model = eloc(uc1::S_SHARED_MODEL);
    let p34_plain = eloc(uc1::S_3SS_P3) + eloc(uc1::S_3SS_P4);
    let p34_shared = eloc(uc1::S_SHARED_P3) + eloc(uc1::S_SHARED_P4) + shared_model;
    // Claim B: CDTEs up to 3x less code for the LR spec.
    let lr_ratio = eloc(P2_NOCDTE) as f64 / eloc(P2_CDTE) as f64;
    // Claim C: composite solvers ≈ 5x less code for P2-P4.
    let p24_explicit = eloc(uc1::S_3SS_P2) + eloc(uc1::S_3SS_P3) + eloc(uc1::S_3SS_P4);
    let p24_solvers = eloc(uc1::S_SOLVERS);
    // Claim D: specialized forecasting much faster than the LP route.
    let fig = fig11(cfg);
    let lp_time: f64 = fig.rows[1][2].parse().unwrap_or(0.0);
    let wrapped_time: f64 = fig.rows[2][2].parse().unwrap_or(1.0);
    // Floor the denominator at 50 µs so sub-resolution runs don't
    // inflate the ratio.
    let speedup = lp_time / wrapped_time.max(5e-5);

    Figure {
        id: "Table 3".into(),
        title: "Feature-impact claims (paper Table 3) — measured".into(),
        headers: vec!["claim".into(), "paper".into(), "measured".into()],
        rows: vec![
            vec![
                "shared models: less P3-P4 code".into(),
                "up to 2x".into(),
                format!(
                    "{:.2}x ({p34_plain} vs {p34_shared} eLOC)",
                    p34_plain as f64 / p34_shared as f64
                ),
            ],
            vec![
                "CDTEs: less SOLVESELECT code (LR)".into(),
                "up to 3x".into(),
                format!("{lr_ratio:.2}x"),
            ],
            vec![
                "composite solvers: less P2-P4 code".into(),
                "up to 5x".into(),
                format!(
                    "{:.2}x ({p24_explicit} vs {p24_solvers} eLOC)",
                    p24_explicit as f64 / p24_solvers as f64
                ),
            ],
            vec![
                "specialized forecasting speedup".into(),
                "~6-8x".into(),
                format!("{speedup:.1}x"),
            ],
        ],
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_serialize_to_json_artifacts() {
        let f = Figure {
            id: "Fig 9".into(),
            title: "a \"quoted\" title".into(),
            headers: vec!["x".into(), "y".into()],
            rows: vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
            notes: vec!["line\nbreak".into()],
        };
        assert_eq!(f.json_filename(), "BENCH_FIG_9.json");
        let j = f.to_json();
        assert!(j.contains("\"id\": \"Fig 9\""), "{j}");
        assert!(j.contains("a \\\"quoted\\\" title"), "{j}");
        assert!(j.contains("[\"1\", \"2\"]"), "{j}");
        assert!(j.contains("line\\nbreak"), "{j}");
    }

    #[test]
    fn presolve_figure_shows_node_reduction_at_equal_objectives() {
        let f = presolve(Config::quick());
        assert_eq!(f.rows.len(), 8);
        // Objectives agree within each on/off pair.
        for pair in f.rows.chunks(2) {
            assert_eq!(pair[0][0], pair[1][0]);
            assert_eq!((pair[0][1].as_str(), pair[1][1].as_str()), ("on", "off"));
            assert_eq!(pair[0][10], pair[1][10], "objective drift in {}", pair[0][0]);
        }
        // The recursive CDTE reaches the kernel as a staircase: at 24
        // steps one row per step after the first, 2 + 22·3 nonzeros.
        // Without presolve its auxiliary columns stay, each with its
        // definition (2 + 22·3 nonzeros) beside its two-entry `intemp`
        // row (1 + 23·2).
        let matrix: Vec<(&str, &str)> =
            f.rows[2..4].iter().map(|r| (r[8].as_str(), r[9].as_str())).collect();
        assert_eq!(matrix, [("23", "68"), ("47", "115")]);
        // Each presolved row is carried by its load, a column singleton,
        // from the crash on: three pivots at most (the CI gate).
        for on in [&f.rows[0], &f.rows[2]] {
            let count = |i: usize| -> u64 { on[i].parse().unwrap() };
            assert!(count(4) <= 3 && count(9) <= 3 * count(8), "{on:?}");
        }
        // The bound-snap MIP demonstrates the payoff: fewer B&B nodes
        // with presolve on, and nonzero reduction counters.
        let snap = &f.rows[6..8];
        let nodes = |r: &Vec<String>| -> u64 { r[3].parse().unwrap() };
        assert!(
            nodes(&snap[0]) < nodes(&snap[1]),
            "expected fewer nodes with presolve on: {} vs {}",
            snap[0][3],
            snap[1][3]
        );
        assert!(snap[0][6].parse::<u64>().unwrap() > 0, "bounds tightened should be counted");
    }

    #[test]
    fn phase_eloc_splits_on_markers() {
        let src = "\
header line
% --- P2: forecast
x = 1;
y = 2;
% --- P4: optimize
z = 3;
";
        let e = phase_eloc(src);
        assert_eq!(e, [1, 2, 0, 1]);
    }

    #[test]
    fn fig3a_shapes_hold() {
        let f = fig3a(Config::quick());
        assert_eq!(f.rows.len(), 5);
        let total = |i: usize| -> usize { f.rows[i][5].parse().unwrap() };
        // S-solvers is the most compact; S-shared is within a couple of
        // lines of S-3SS (this engine's terse recursive-CTE syntax makes
        // duplicating the model cheap — see EXPERIMENTS.md, Fig 3a).
        let by_name: std::collections::HashMap<&str, usize> =
            (0..5).map(|i| (f.rows[i][0].as_str(), total(i))).collect();
        assert!(by_name["S-solvers"] < by_name["S-3SS"]);
        assert!(by_name["S-shared"] <= by_name["S-3SS"] + 2);
        assert!(by_name["S-solvers"] < by_name["Matlab-native"]);
    }

    #[test]
    fn fig6_shapes_hold() {
        let f = fig6(Config::quick());
        // No-CDTE P2 needs more code than CDTE.
        let nocdte: usize = f.rows[0][1].parse().unwrap();
        let cdte: usize = f.rows[0][2].parse().unwrap();
        assert!(nocdte > cdte, "{nocdte} vs {cdte}");
        // P3 doesn't benefit much from CDTEs (paper Fig. 6).
        let p3_nocdte: usize = f.rows[1][1].parse().unwrap();
        let p3_cdte: usize = f.rows[1][2].parse().unwrap();
        assert!(p3_nocdte.abs_diff(p3_cdte) <= 3);
    }

    #[test]
    fn table1_runs() {
        let f = table1(Config::quick());
        assert_eq!(f.rows.len(), 10);
        // The last 5 pvSupply cells are filled.
        for r in &f.rows[5..] {
            assert_ne!(r[4], "NULL");
        }
    }

    #[test]
    fn fig11_runs_and_wrapped_is_fastest() {
        let f = fig11(Config::quick());
        let lp: f64 = f.rows[1][2].parse().unwrap();
        let wrapped: f64 = f.rows[2][2].parse().unwrap();
        assert!(wrapped < lp, "wrapped {wrapped} vs LP {lp}");
    }
}
