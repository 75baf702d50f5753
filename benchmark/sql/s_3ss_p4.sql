-- S-3SS / P4: HVAC cost optimization. The LTI dynamics are spelled out
-- again (duplicated from P3 — no shared model), now as linear
-- constraints over the decision loads.
DROP TABLE IF EXISTS plan;
CREATE TABLE plan AS
SOLVESELECT t(hload, intemp) AS
  (SELECT h.time, h.outtemp, h.intemp, h.hload, f.pvsupply
   FROM horizon h JOIN pv_forecast f ON f.time = h.time)
WITH sim AS (
  WITH RECURSIVE s(time, x) AS (
    -- Initial data, for step 0
    SELECT (SELECT min(time) FROM t) AS time,
           (SELECT intemp FROM hist ORDER BY time DESC LIMIT 1) AS x
    UNION ALL
    -- Computed data, for steps > 0
    SELECT s.time + interval '1 hour',
           hvac_pars.a1 * s.x
           + hvac_pars.b1 * n.outtemp
           + hvac_pars.b2 * n.hload
    FROM s JOIN t n ON n.time = s.time, hvac_pars)
  SELECT time, x FROM s)
MINIMIZE (SELECT sum((hload - pvsupply) * 0.12) FROM t)
SUBJECTTO (SELECT t.intemp = sim.x FROM sim, t WHERE t.time = sim.time),
          (SELECT 20 <= intemp <= 25, 0 <= hload <= 17000 FROM t)
USING solverlp.cbc();
