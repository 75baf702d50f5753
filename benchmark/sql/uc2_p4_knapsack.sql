-- UC2 / P4: the knapsack of one warehouse ($W) under its volume
-- capacity. `stock` holds the expected profit and volume of the items
-- each warehouse can carry.
SOLVESELECT p(pick) AS
  (SELECT item_id, v, volume, NULL::int AS pick FROM stock WHERE warehouse_id = $W)
MAXIMIZE (SELECT sum(v * pick) FROM p)
SUBJECTTO (SELECT sum(volume * pick)
                  <= 0.4 * (SELECT sum(volume) FROM stock WHERE warehouse_id = $W) FROM p),
          (SELECT 0 <= pick <= 1 FROM p)
USING solverlp.cbc()
