-- expect: SD015
-- DROP TABLE names tables only: over a view it fails with
-- `relation 'v' is a view`.
CREATE VIEW v AS SELECT 1 AS a;
DROP TABLE v;
SELECT * FROM v;
