-- expect: SD015
-- A view takes no UPDATE: the statement fails with
-- `relation 'v' is a view`.
CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
CREATE VIEW v AS SELECT a FROM t;
UPDATE v SET a = 2;
SELECT * FROM v;
