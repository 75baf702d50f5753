-- A table created from a view has the view's columns, so an INSERT
-- naming them fits it.
CREATE TABLE base (k int, v float8);
INSERT INTO base VALUES (1, 0.5), (2, 1.5);
CREATE VIEW doubled AS SELECT k, v * 2 AS w FROM base;
CREATE TABLE snap AS SELECT * FROM doubled;
INSERT INTO snap (k, w) VALUES (3, 4.5);
SELECT * FROM snap;
