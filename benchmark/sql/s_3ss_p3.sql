-- S-3SS / P3: HVAC thermal-model fitting. The LTI simulation is spelled
-- out inside the query (no shared model), solved by simulated annealing.
DROP TABLE IF EXISTS hvac_pars;
CREATE TABLE hvac_pars AS
SOLVESELECT t(a1, b1, b2) AS
  (SELECT 0.5::float8 AS a1, 0.05::float8 AS b1, 0.0005::float8 AS b2)
WITH sim AS (
  WITH RECURSIVE s(time, x, intemp) AS (
    -- Initial data, for step 0
    SELECT (SELECT min(time) FROM hist) AS time,
           (SELECT intemp FROM hist ORDER BY time LIMIT 1) AS x,
           (SELECT intemp FROM hist ORDER BY time LIMIT 1) AS intemp
    UNION ALL
    -- Computed data, for steps > 0
    SELECT s.time + interval '1 hour',
           t.a1 * s.x
           + t.b1 * n.outtemp
           + t.b2 * n.hload,
           n.intemp
    FROM s JOIN hist n ON n.time = s.time, t)
  SELECT time, x, intemp FROM s)
MINIMIZE (SELECT sum((sim.x - h.intemp)^2) FROM sim, hist h WHERE sim.time = h.time)
SUBJECTTO (SELECT 0 <= a1 <= 1, 0 <= b1 <= 1, 0 <= b2 <= 0.001 FROM t)
USING swarmops.sa(iterations := 400, seed := 5);
