-- An INSERT without a column list may carry fewer values than the
-- table has columns: the rest are NULL.
CREATE TABLE t (x int, y int);
INSERT INTO t VALUES (1);
INSERT INTO t VALUES (2, 3);
SELECT * FROM t;
