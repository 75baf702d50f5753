-- expect: SD015
-- `b` is typed by the engine's binder: `SELECT *` over a USING join
-- returns k, x, k, y, so the INSERT's column list names a column `b`
-- does not have, and the run fails there with a binder error.
CREATE TABLE a (k int, x int);
CREATE TABLE c (k int, y int);
CREATE TABLE b AS SELECT * FROM a JOIN c USING (k);
INSERT INTO b (k, zz) VALUES (1, 2.0);
SELECT * FROM b;
