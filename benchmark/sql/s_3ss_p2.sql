-- S-3SS / P2: PV supply forecast as an explicit L1-regression LP
-- (general-purpose solver), per paper Sec. 4.1, followed by forecast
-- materialization for the horizon.
DROP TABLE IF EXISTS lr_pars;
CREATE TABLE lr_pars AS
SOLVESELECT p(b0, b1, b2) AS
  (SELECT NULL::float8 AS b0, NULL::float8 AS b1, NULL::float8 AS b2)
WITH e(err) AS
  (SELECT outtemp, hour(time) AS hr, pvsupply, NULL::float8 AS err FROM hist)
MINIMIZE (SELECT sum(err) FROM e)
SUBJECTTO (SELECT -1*err <= (b0 + b1*outtemp + b2*hr - pvsupply) <= err FROM e, p)
USING solverlp.cbc();
DROP TABLE IF EXISTS pv_forecast;
CREATE TABLE pv_forecast AS
SELECT h.time, greatest(0.0, p.b0 + p.b1*h.outtemp + p.b2*hour(h.time)) AS pvsupply
FROM horizon h, lr_pars p;
