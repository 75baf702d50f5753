-- expect: SD015
-- DROP VIEW names views only: over a table it fails with
-- `view 't' does not exist`.
CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
DROP VIEW t;
SELECT * FROM t;
