//! `uc2_knapsack`: the UC2 (supply chain) P4 step — one 0/1 knapsack
//! `SOLVESELECT` per warehouse, six warehouses per op.
//!
//! Set-up forecasts demand for a seeded item catalog (the ARIMA solver
//! for the first items, a three-month mean for the long tail) and
//! derives expected profit in SQL (UC2 P2 and P3); every warehouse of
//! every ring entry then carries its own seeded subset of the catalog,
//! so each knapsack is a different instance. Branch-and-bound effort
//! varies several-fold between instances, and instances drawn from a
//! small catalog are alike: only a catalog much larger than one ring's
//! stock keeps the total work steady from seed to seed (300 items: 20 %
//! spread of total pivots over ten seeds; 4200: 6 %).

use crate::harness::{
    derive_seed, timed_ms, Built, Digest, Metrics, Recorder, Rng, RunOptions, Workload,
};
use crate::spans::Tracer;
use crate::sqlutil::{self, close, floats, run_script, run_statement, text, StageSums};
use solvedbplus_core::Session;
use sqlengine::{Table, Value};
use std::time::Instant;

const P2_FORECAST: &str = include_str!("../../sql/uc2_p2_forecast.sql");
const P3_PROFIT: &str = include_str!("../../sql/uc2_p3_profit.sql");
const P4_KNAPSACK: &str = include_str!("../../sql/uc2_p4_knapsack.sql");

/// Share of a warehouse's stock volume that fits, as in the script.
const CAPACITY_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub catalog: usize,
    /// Catalog items forecast by the ARIMA solver, one statement each.
    pub forecasted: usize,
    pub months: usize,
    pub warehouses: usize,
    pub items: usize,
    pub ring: usize,
}

pub fn size(quick: bool) -> Size {
    if quick {
        Size { catalog: 60, forecasted: 10, months: 24, warehouses: 2, items: 12, ring: 2 }
    } else {
        Size { catalog: 4200, forecasted: 150, months: 24, warehouses: 6, items: 60, ring: 70 }
    }
}

/// One stocked item: (item id, expected profit, volume).
pub type Item = (i64, f64, f64);

struct Entry {
    session: Session,
    /// Stock per warehouse, as generated — what the answers are checked
    /// against.
    stock: Vec<Vec<Item>>,
    first_objectives: Option<Vec<f64>>,
}

pub struct Uc2 {
    statements: Vec<String>,
    ring: Vec<Entry>,
    stages: StageSums,
    arima_item_ms: f64,
}

/// Expected profit and volume per catalog item: UC2 P2 (one ARIMA
/// forecast per item) and P3 (the `profit` join), run through SQL.
/// Returns the items, the generator time and the time per forecast.
fn catalog_profit(
    size: Size,
    seed: u64,
    digest: &mut Digest,
) -> Result<(Vec<Item>, f64, f64), String> {
    let (items, gen_ms) = timed_ms(|| datagen::supply_chain(size.catalog, size.months, seed));
    let mut s = Session::new();
    let (forecasted, tail) = items.split_at(size.forecasted.min(items.len()));
    // Order histories only for the items ARIMA forecasts; the item
    // table and the naive forecasts cover the whole catalog.
    datagen::install_supply_chain(s.db_mut(), forecasted);
    let item_rows = items
        .iter()
        .map(|it| {
            let f = Value::Float;
            vec![Value::Int(it.item_id), f(it.size), f(it.price), f(it.cost)]
        })
        .collect();
    s.db_mut()
        .put_table("items", Table::from_rows(&["item_id", "size", "price", "cost"], item_rows));
    let naive_rows = tail
        .iter()
        .map(|it| {
            let recent = &it.orders[it.orders.len().saturating_sub(3)..];
            let mean = recent.iter().sum::<f64>() / recent.len().max(1) as f64;
            vec![Value::Int(it.item_id), Value::Float(mean)]
        })
        .collect();
    s.db_mut().put_table("naive_forecast", Table::from_rows(&["item_id", "qty"], naive_rows));
    for name in ["items", "orders", "naive_forecast"] {
        sqlutil::digest_table(digest, s.db().table(name).map_err(text)?);
    }
    let quiet = Tracer::new(Instant::now());
    run_script(&mut s, "CREATE TABLE demand_forecast (item_id int, qty float8)", &quiet)?;
    let t = Instant::now();
    for it in forecasted {
        run_script(&mut s, &P2_FORECAST.replace("$ITEM", &it.item_id.to_string()), &quiet)?;
    }
    let arima_item_ms = t.elapsed().as_secs_f64() * 1e3 / forecasted.len().max(1) as f64;
    run_script(
        &mut s,
        "INSERT INTO demand_forecast SELECT item_id, qty FROM naive_forecast",
        &quiet,
    )?;
    run_script(&mut s, P3_PROFIT, &quiet)?;
    let t = sqlutil::query(&mut s, "SELECT item_id, v, volume FROM profit ORDER BY item_id")?;
    if t.num_rows() != size.catalog {
        return Err(format!("profit has {} rows, not {}", t.num_rows(), size.catalog));
    }
    let (v, volume) = (floats(&t, 1)?, floats(&t, 2)?);
    let profit = t
        .rows
        .iter()
        .zip(v.into_iter().zip(volume))
        .map(|(r, (v, vol))| Ok((r[0].as_i64().map_err(text)?, v, vol)))
        .collect::<Result<Vec<Item>, String>>()?;
    Ok((profit, gen_ms, arima_item_ms))
}

pub fn knapsack_sql(warehouse: usize) -> String {
    P4_KNAPSACK.replace("$W", &warehouse.to_string())
}

/// The `stock` table of `warehouses` seeded subsets of `profit`.
pub fn stock_table(
    profit: &[Item],
    warehouses: usize,
    items: usize,
    rng: &mut Rng,
) -> (Vec<Vec<Item>>, Table) {
    let stock: Vec<Vec<Item>> = (0..warehouses)
        .map(|_| rng.sample(profit.len(), items).into_iter().map(|j| profit[j]).collect())
        .collect();
    let rows = stock
        .iter()
        .enumerate()
        .flat_map(|(w, items)| {
            items.iter().map(move |&(id, v, vol)| {
                vec![Value::Int(w as i64 + 1), Value::Int(id), Value::Float(v), Value::Float(vol)]
            })
        })
        .collect();
    let table = Table::from_rows(&["warehouse_id", "item_id", "v", "volume"], rows);
    (stock, table)
}

pub fn build(opts: &RunOptions) -> Result<Built, String> {
    let size = size(opts.quick);
    let mut digest = Digest::default();
    for sql in [P2_FORECAST, P3_PROFIT, P4_KNAPSACK] {
        digest.str(sql);
    }
    let (profit, mut gen_ms, arima_item_ms) = catalog_profit(size, opts.seed, &mut digest)?;
    let statements: Vec<String> = (1..=size.warehouses).map(knapsack_sql).collect();
    let mut ring = Vec::with_capacity(size.ring);
    for k in 0..size.ring {
        let mut rng = Rng::new(derive_seed(opts.seed, k as u64));
        let ((stock, table), ms) =
            timed_ms(|| stock_table(&profit, size.warehouses, size.items, &mut rng));
        gen_ms += ms;
        sqlutil::digest_table(&mut digest, &table);
        let mut session = Session::new();
        session.db_mut().put_table("stock", table);
        ring.push(Entry { session, stock, first_objectives: None });
    }
    let workload = Uc2 { statements, ring, stages: StageSums::default(), arima_item_ms };
    Ok(Built { workload: Box::new(workload), digest: digest.finish(), gen_ms })
}

/// Greedy by profit density: the integral prefix is a lower bound on
/// the knapsack optimum, the prefix plus a fraction of the next item
/// (the LP relaxation) an upper bound.
fn knapsack_bounds(items: &[Item], capacity: f64) -> (f64, f64) {
    let mut order: Vec<&Item> = items.iter().filter(|it| it.1 > 0.0).collect();
    order.sort_by(|a, b| (b.1 * a.2).total_cmp(&(a.1 * b.2)));
    let (mut value, mut room) = (0.0, capacity);
    for it in order {
        if it.2 <= room {
            value += it.1;
            room -= it.2;
        } else {
            return (value, value + it.1 * room / it.2);
        }
    }
    (value, value)
}

/// Check one warehouse's answer against its generated stock: picks are
/// binary, the capacity holds, and the objective lies between the
/// greedy and the LP-relaxation bound. Returns the objective.
pub fn check_plan(t: &Table, items: &[Item]) -> Result<f64, String> {
    if t.num_rows() != items.len() {
        return Err(format!("plan has {} rows, not {}", t.num_rows(), items.len()));
    }
    let pick_col = t.schema.index_of("pick").ok_or("plan has no pick column")?;
    let id_col = t.schema.index_of("item_id").ok_or("plan has no item_id column")?;
    let capacity = CAPACITY_SHARE * items.iter().map(|it| it.2).sum::<f64>();
    let (mut value, mut used) = (0.0, 0.0);
    for row in &t.rows {
        let id = row[id_col].as_i64().map_err(text)?;
        let pick = row[pick_col].as_f64().map_err(text)?;
        if pick != 0.0 && pick != 1.0 {
            return Err(format!("pick {pick} is not binary"));
        }
        let it = items.iter().find(|it| it.0 == id).ok_or(format!("unknown item {id}"))?;
        value += it.1 * pick;
        used += it.2 * pick;
    }
    if used > capacity * (1.0 + 1e-9) + 1e-9 {
        return Err(format!("volume {used} exceeds the capacity {capacity}"));
    }
    let (lower, upper) = knapsack_bounds(items, capacity);
    if value < lower * (1.0 - 1e-9) - 1e-9 || value > upper * (1.0 + 1e-9) + 1e-9 {
        return Err(format!("objective {value} outside [{lower}, {upper}]"));
    }
    Ok(value)
}

/// The same knapsack as an `lp::Problem` the benchmark builds itself.
fn knapsack_problem(items: &[Item]) -> lp::Problem {
    let mut p = lp::Problem::maximize(0);
    for _ in items {
        p.add_var(0.0, 1.0, true);
    }
    p.set_objective(items.iter().enumerate().map(|(j, it)| (j, it.1)).collect());
    let capacity = CAPACITY_SHARE * items.iter().map(|it| it.2).sum::<f64>();
    let volumes = items.iter().enumerate().map(|(j, it)| (j, it.2)).collect();
    p.add_constraint(volumes, lp::Rel::Le, capacity);
    p
}

impl Uc2 {
    fn op(&mut self, i: usize, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        let e = &mut self.ring[i];
        let t = Instant::now();
        let ran: Result<Vec<_>, String> = tracer.span("op", || {
            self.statements.iter().map(|sql| run_statement(&mut e.session, sql, tracer)).collect()
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = ran.and_then(|results| {
            let mut objectives = Vec::with_capacity(results.len());
            for (w, r) in results.into_iter().enumerate() {
                if pass == 0 {
                    self.stages.add_result(&r);
                }
                let plan = r.into_table().map_err(text)?;
                let objective = check_plan(&plan, &e.stock[w])
                    .map_err(|why| format!("entry {i}, warehouse {w}: {why}"))?;
                objectives.push(objective);
            }
            match &e.first_objectives {
                Some(first) if !first.iter().zip(&objectives).all(|(a, b)| close(*a, *b, 1e-9)) => {
                    Err(format!("entry {i}: objectives differ from the first pass"))
                }
                Some(_) => Ok(()),
                None => {
                    e.first_objectives = Some(objectives);
                    Ok(())
                }
            }
        });
        rec.op(i, pass, ms, verdict);
    }
}

impl Workload for Uc2 {
    fn warm_up(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(Instant::now());
        run_script(&mut self.ring[0].session, &self.statements[0], &quiet).map(|_| ())
    }

    fn pass(&mut self, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        for i in 0..self.ring.len() {
            tracer.set_op((pass * self.ring.len() + i) as u64);
            self.op(i, pass, tracer, rec);
        }
    }

    fn finish(&mut self, _rec: &mut Recorder, _m: &mut Metrics) {}

    fn program_counts(&self, m: &mut Metrics) {
        self.stages.metrics(m);
    }

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        m.insert("forecast.arima_item_ms", self.arima_item_ms);
        let texts: Vec<&str> = self.statements.iter().map(String::as_str).collect();
        sqlutil::parser_probe(&texts, tracer, m)?;

        // lp on the first entry's knapsacks, built by the benchmark; the
        // exact optimum also pins down what the SQL path answered.
        let e = &self.ring[0];
        let (mut mip_ms, mut nodes, mut pivots, mut analyze_ms) = (0.0, 0usize, 0usize, 0.0);
        for (w, items) in e.stock.iter().enumerate() {
            let p = knapsack_problem(items);
            let ((sol, stats), ms) = timed_ms(|| {
                tracer.span("probe.lp.mip", || {
                    lp::mip::branch_and_bound_stats(&p, lp::mip::MipOptions::default())
                })
            });
            mip_ms += ms;
            nodes += stats.nodes_explored;
            pivots += stats.simplex_iterations;
            analyze_ms +=
                timed_ms(|| tracer.span("probe.lp.analyze", || lp::matrix::analyze(&p))).1;
            let answered = e.first_objectives.as_ref().map(|o| o[w]);
            if !sol.is_optimal() || answered.is_some_and(|a| !close(a, sol.objective, 1e-6)) {
                return Err(format!(
                    "warehouse {w}: SQL answered {answered:?}, branch-and-bound finds {}",
                    sol.objective
                ));
            }
        }
        m.insert("lp.mip_ms", mip_ms);
        m.insert("lp.mip_nodes", nodes as f64);
        m.insert("lp.pivots", pivots as f64);
        m.insert("lp.pivot_us", mip_ms * 1e3 / pivots.max(1) as f64);
        m.insert("lp.pivots_per_node", pivots as f64 / nodes.max(1) as f64);
        m.insert("lp.analyze_us", analyze_ms * 1e3);

        let solve = self.statements[0].clone();
        sqlutil::core_probe(&mut self.ring[0].session, &solve, true, tracer, m)
    }
}
