-- S-3SS / P1: data management. Split the planning table into history
-- (complete measurements) and the planning horizon, as temp tables that
-- link the three SOLVESELECTs.
DROP TABLE IF EXISTS hist;
CREATE TABLE hist AS SELECT * FROM input WHERE pvsupply IS NOT NULL;
DROP TABLE IF EXISTS horizon;
CREATE TABLE horizon AS SELECT * FROM input WHERE pvsupply IS NULL;
