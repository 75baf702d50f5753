-- expect: SD015
-- CREATE OR REPLACE VIEW replaces a view, never a table: statement 3
-- fails, where a view and a table under one name would split reads of
-- `t` (the view) from writes to it (the table).
CREATE TABLE t (a int);
INSERT INTO t VALUES (1);
CREATE OR REPLACE VIEW t AS SELECT 42 AS b;
INSERT INTO t VALUES (5);
SELECT * FROM t;
