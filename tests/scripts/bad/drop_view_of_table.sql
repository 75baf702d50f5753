-- expect: SD015
-- DROP VIEW names views only: over a table it fails with
-- `relation 't' is not a view`.
CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
DROP VIEW t;
SELECT * FROM t;
