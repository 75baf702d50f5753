//! `sql_mix`: plain SQL, no solver. One op is a round of two writes
//! (insert a batch of `orders` rows, delete the batch of the round
//! before) and eight reads from four templates, each template issued
//! twice with the same literal so the second can hit the plan cache the
//! round's writes invalidated.

use crate::harness::{
    derive_seed, timed_ms, Built, Digest, Metrics, Recorder, Rng, RunOptions, Workload,
};
use crate::spans::Tracer;
use crate::sqlutil::{self, close, floats, run_statement, text};
use datagen::ScItem;
use solvedbplus_core::Session;
use sqlengine::types::timeval;
use sqlengine::{parser, Database, ExecResult, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub items: usize,
    pub months: usize,
    pub batch: usize,
    pub ring: usize,
}

pub fn size(quick: bool) -> Size {
    if quick {
        Size { items: 40, months: 24, batch: 10, ring: 3 }
    } else {
        Size { items: 500, months: 80, batch: 50, ring: 75 }
    }
}

/// The literals of one round.
#[derive(Debug, Clone)]
struct Round {
    /// (item id, quantity) of the rows the round inserts.
    batch: Vec<(i64, f64)>,
    point_item: i64,
    /// An item the batch just wrote to: the read must see the write.
    agg_item: i64,
    join_from: i64,
    rollup_items: [i64; 3],
}

/// Items per join-template range.
const JOIN_SPAN: i64 = 20;

/// The benchmark's own model of `orders`: generated rows plus the
/// batches currently inserted, from which every read is recomputed.
struct Model {
    items: Vec<ScItem>,
    /// Live batches: batch number → its rows.
    live: BTreeMap<u64, Vec<(i64, f64)>>,
}

impl Model {
    fn item(&self, id: i64) -> &ScItem {
        &self.items[(id - 1) as usize]
    }

    /// Quantities of every (item, month) group of `id`: the generated
    /// months, then one group per live batch that touches the item.
    fn groups(&self, id: i64) -> Vec<f64> {
        let mut g = self.item(id).orders.clone();
        for rows in self.live.values() {
            let q: Vec<f64> = rows.iter().filter(|r| r.0 == id).map(|r| r.1).collect();
            if !q.is_empty() {
                g.push(q.iter().sum());
            }
        }
        g
    }

    fn count_and_sum(&self, id: i64) -> (usize, f64) {
        let extra: Vec<f64> =
            self.live.values().flatten().filter(|r| r.0 == id).map(|r| r.1).collect();
        let it = self.item(id);
        (it.orders.len() + extra.len(), it.orders.iter().chain(&extra).sum())
    }
}

/// Batch `g` carries a month of its own, later than any generated one.
fn batch_month(g: u64) -> String {
    let day = timeval::days_from_civil(2030, 1, 1) + g as i64;
    let c = timeval::decompose(day * timeval::MICROS_PER_DAY);
    format!("{:04}-{:02}-{:02}", c.year, c.month, c.day)
}

fn round_sql(r: &Round, g: u64) -> (Vec<String>, Vec<String>) {
    let month = batch_month(g);
    let values: Vec<String> =
        r.batch.iter().map(|(id, q)| format!("({id}, timestamp '{month}', {q:?})")).collect();
    let writes = vec![
        format!("INSERT INTO orders VALUES {}", values.join(", ")),
        format!("DELETE FROM orders WHERE month = timestamp '{}'", batch_month(g - 1)),
    ];
    let [a, b, c] = r.rollup_items;
    let reads = vec![
        format!("SELECT size, price, cost FROM items WHERE item_id = {}", r.point_item),
        format!("SELECT count(*), sum(quantity) FROM orders WHERE item_id = {}", r.agg_item),
        format!(
            "SELECT i.item_id, sum(o.quantity * i.price) AS revenue \
             FROM items i JOIN orders o ON o.item_id = i.item_id \
             WHERE i.item_id BETWEEN {} AND {} GROUP BY i.item_id ORDER BY i.item_id",
            r.join_from,
            r.join_from + JOIN_SPAN - 1
        ),
        format!(
            "SELECT item_id, month, sum(quantity) AS q FROM orders \
             WHERE item_id IN ({a}, {b}, {c}) GROUP BY ROLLUP(item_id, month) \
             ORDER BY q DESC LIMIT 10"
        ),
    ];
    (writes, reads)
}

pub struct SqlMix {
    session: Session,
    model: Model,
    ring: Vec<Round>,
    /// The number of the next round, from 1; it numbers the batches.
    rounds: u64,
    reads: u64,
    columnar_reads: u64,
    cache_hits: u64,
    cache_eligible: u64,
    rows_out: u64,
}

pub fn build(opts: &RunOptions) -> Result<Built, String> {
    let size = size(opts.quick);
    let (items, mut gen_ms) =
        timed_ms(|| datagen::supply_chain(size.items, size.months, opts.seed));
    let mut session = Session::new();
    datagen::install_supply_chain(session.db_mut(), &items);
    let mut digest = Digest::default();
    for name in ["items", "orders"] {
        sqlutil::digest_table(&mut digest, session.db().table(name).map_err(text)?);
    }
    let n = size.items as i64;
    let (ring, ms) = timed_ms(|| {
        (0..size.ring)
            .map(|k| {
                let mut rng = Rng::new(derive_seed(opts.seed, k as u64));
                let batch: Vec<(i64, f64)> = (0..size.batch)
                    .map(|_| (rng.below(size.items) as i64 + 1, (rng.unit() * 400.0).round()))
                    .collect();
                let distinct = rng.sample(size.items, 3);
                Round {
                    point_item: rng.below(size.items) as i64 + 1,
                    agg_item: batch[rng.below(batch.len())].0,
                    join_from: rng.below((n - JOIN_SPAN + 1).max(1) as usize) as i64 + 1,
                    rollup_items: [
                        distinct[0] as i64 + 1,
                        distinct[1] as i64 + 1,
                        distinct[2] as i64 + 1,
                    ],
                    batch,
                }
            })
            .collect::<Vec<Round>>()
    });
    gen_ms += ms;
    for (k, r) in ring.iter().enumerate() {
        let (writes, reads) = round_sql(r, k as u64 + 1);
        for sql in writes.iter().chain(&reads) {
            digest.str(sql);
        }
    }
    let workload = SqlMix {
        session,
        model: Model { items, live: BTreeMap::new() },
        ring,
        rounds: 1,
        reads: 0,
        columnar_reads: 0,
        cache_hits: 0,
        cache_eligible: 0,
        rows_out: 0,
    };
    Ok(Built { workload: Box::new(workload), digest: digest.finish(), gen_ms })
}

impl SqlMix {
    fn check_read(&self, template: usize, r: &Round, res: ExecResult) -> Result<(), String> {
        let t = res.into_table().map_err(text)?;
        match template {
            0 => {
                let it = self.model.item(r.point_item);
                let got = [floats(&t, 0)?, floats(&t, 1)?, floats(&t, 2)?];
                if t.num_rows() != 1
                    || got[0][0] != it.size
                    || got[1][0] != it.price
                    || got[2][0] != it.cost
                {
                    return Err(format!("point lookup of item {} is wrong", r.point_item));
                }
            }
            1 => {
                let (count, sum) = self.model.count_and_sum(r.agg_item);
                let got_count = t.rows[0][0].as_i64().map_err(text)?;
                let got_sum = floats(&t, 1)?[0];
                if got_count != count as i64 || !close(got_sum, sum, 1e-9) {
                    return Err(format!(
                        "item {}: count/sum {got_count}/{got_sum}, expected {count}/{sum}",
                        r.agg_item
                    ));
                }
            }
            2 => {
                let revenue = floats(&t, 1)?;
                if revenue.len() != JOIN_SPAN.min(self.model.items.len() as i64) as usize {
                    return Err(format!("join returned {} groups", revenue.len()));
                }
                for (k, got) in revenue.iter().enumerate() {
                    let id = r.join_from + k as i64;
                    let want = self.model.count_and_sum(id).1 * self.model.item(id).price;
                    if t.rows[k][0].as_i64().map_err(text)? != id || !close(*got, want, 1e-9) {
                        return Err(format!("item {id}: revenue {got}, expected {want}"));
                    }
                }
            }
            _ => {
                // ROLLUP(item, month): every (item, month) group, the
                // three item totals and the grand total; top ten by q.
                let mut all = Vec::new();
                let mut grand = 0.0;
                for id in r.rollup_items {
                    let groups = self.model.groups(id);
                    let total: f64 = groups.iter().sum();
                    grand += total;
                    all.push(total);
                    all.extend(groups);
                }
                all.push(grand);
                all.sort_by(|a, b| b.total_cmp(a));
                all.truncate(10);
                let got = floats(&t, 2)?;
                if got.len() != all.len() || got.iter().zip(&all).any(|(g, w)| !close(*g, *w, 1e-9))
                {
                    return Err(format!(
                        "rollup {:?}: got {got:?}, expected {all:?}",
                        r.rollup_items
                    ));
                }
            }
        }
        Ok(())
    }

    /// One round: two writes, then each read template twice.
    fn round(&mut self, i: usize, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        let r = self.ring[i].clone();
        let g = self.rounds;
        self.rounds += 1;
        let (writes, reads) = round_sql(&r, g);
        let started = Instant::now();
        let mut verdict: Result<(), String> = Ok(());
        let mut answers = Vec::with_capacity(8);
        tracer.span("op", || {
            for (k, sql) in writes.iter().enumerate() {
                let (res, ms) = timed_ms(|| run_statement(&mut self.session, sql, tracer));
                rec.class("write", ms);
                let expect = if k == 0 {
                    r.batch.len()
                } else {
                    self.model.live.get(&(g - 1)).map_or(0, Vec::len)
                };
                match res {
                    Ok(res) if res.row_count() == Some(expect) => {}
                    Ok(res) => {
                        verdict = Err(format!(
                            "write {k} affected {:?} rows, expected {expect}",
                            res.row_count()
                        ))
                    }
                    Err(e) => verdict = Err(e),
                }
            }
            for (template, sql) in reads.iter().enumerate() {
                for _ in 0..2 {
                    let (res, ms) = timed_ms(|| run_statement(&mut self.session, sql, tracer));
                    rec.class("read", ms);
                    answers.push((template, res));
                }
            }
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;

        // Outside the timer: bring the model up to date, then check.
        self.model.live.insert(g, r.batch.clone());
        self.model.live.remove(&(g - 1));
        for (template, res) in answers {
            let checked = res.and_then(|res| {
                if pass == 0 {
                    self.reads += 1;
                    self.columnar_reads += u64::from(res.plan_fingerprint.is_some());
                    self.cache_eligible += u64::from(res.plan_cache_hit.is_some());
                    self.cache_hits += u64::from(res.plan_cache_hit == Some(true));
                    if let Outcome::Table(t) = &res.outcome {
                        self.rows_out += t.num_rows() as u64;
                    }
                }
                self.check_read(template, &r, res)
            });
            if verdict.is_ok() {
                verdict = checked;
            }
        }
        rec.op(i, pass, ms, verdict.map_err(|why| format!("round {g}: {why}")));
    }
}

impl Workload for SqlMix {
    fn warm_up(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(Instant::now());
        let mut rec = Recorder::default();
        self.round(0, usize::MAX, &quiet, &mut rec);
        match rec.complaints.pop() {
            Some(why) => Err(why),
            None => Ok(()),
        }
    }

    fn pass(&mut self, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        for i in 0..self.ring.len() {
            tracer.set_op((pass * self.ring.len() + i) as u64);
            self.round(i, pass, tracer, rec);
        }
    }

    fn finish(&mut self, rec: &mut Recorder, _m: &mut Metrics) {
        // The table must be back to its generated size plus one batch.
        let want = self.model.items.iter().map(|it| it.orders.len()).sum::<usize>()
            + self.model.live.values().map(Vec::len).sum::<usize>();
        match self.session.query_scalar("SELECT count(*) FROM orders").map(|v| v.as_i64()) {
            Ok(Ok(n)) if n == want as i64 => {}
            other => rec.fail(format!("orders holds {other:?} rows, expected {want}")),
        }
    }

    fn program_counts(&self, m: &mut Metrics) {
        m.insert("exec.rows_out", self.rows_out as f64);
        m.insert("exec.columnar_share", self.columnar_reads as f64 / self.reads.max(1) as f64);
        m.insert(
            "exec.plan_cache_hit_share",
            self.cache_hits as f64 / self.cache_eligible.max(1) as f64,
        );
    }

    /// `sqlengine` alone, on a database of the benchmark's own holding
    /// the same tables: parser, then plan and executor on pre-parsed
    /// statements of the first round.
    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        let (writes, reads) = round_sql(&self.ring[0], 1);
        let texts: Vec<&str> = writes.iter().chain(&reads).map(String::as_str).collect();
        sqlutil::parser_probe(&texts, tracer, m)?;

        let mut db = Database::new();
        datagen::install_supply_chain(&mut db, &self.model.items);
        let parse = |sql: &str| parser::parse_statement(sql).map_err(text);
        let mut run = |sql: &str, span: &'static str| -> Result<f64, String> {
            let stmt = parse(sql)?;
            let (r, ms) =
                timed_ms(|| tracer.span(span, || sqlengine::execute_statement(&mut db, &stmt)));
            r.map(|_| ms).map_err(text)
        };
        let (mut select_ms, mut plan_us) = (0.0, 0.0);
        for sql in &reads {
            select_ms += run(sql, "probe.exec.select")?;
            plan_us += run(&format!("EXPLAIN {sql}"), "probe.exec.plan")? * 1e3;
        }
        m.insert("exec.select_ms", select_ms);
        m.insert("exec.plan_only_us", plan_us);
        let insert_ms = run(&writes[0], "probe.exec.insert")?;
        m.insert("exec.insert_us_per_row", insert_ms * 1e3 / self.ring[0].batch.len() as f64);
        let delete = format!("DELETE FROM orders WHERE month = timestamp '{}'", batch_month(1));
        m.insert("exec.delete_ms", run(&delete, "probe.exec.delete")?);
        Ok(())
    }
}
