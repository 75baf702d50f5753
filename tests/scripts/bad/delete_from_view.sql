-- expect: SD015
-- A view takes no DELETE: the statement fails with
-- `relation 'v' is a view`.
CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
CREATE VIEW v AS SELECT a FROM t;
DELETE FROM v;
SELECT * FROM t;
