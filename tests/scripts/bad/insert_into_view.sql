-- expect: SD015
-- A view takes no rows: the INSERT fails with
-- `relation 'v' is a view`.
CREATE VIEW v AS SELECT 1 AS a;
INSERT INTO v VALUES (2);
SELECT * FROM v;
