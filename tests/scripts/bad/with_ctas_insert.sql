-- expect: SD015
-- `d` gets the schema of its WITH query (two columns), so an INSERT of
-- three values per row does not fit it.
CREATE TABLE t (a int, b float8);
CREATE TABLE d AS WITH w AS (SELECT * FROM t) SELECT * FROM w;
INSERT INTO d VALUES (1, 2.0, 3);
SELECT * FROM d;
