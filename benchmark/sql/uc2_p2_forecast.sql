-- UC2 / P2: next-month demand per item with the ARIMA solver. Set-up
-- runs this once per catalog item, with $ITEM replaced by its id.
INSERT INTO demand_forecast
SELECT item_id, qty FROM (
  SOLVESELECT t(qty) AS (
    SELECT item_id, month, quantity AS qty FROM orders WHERE item_id = $ITEM
    UNION ALL
    SELECT $ITEM, (SELECT max(month) FROM orders WHERE item_id = $ITEM)
                  + interval '31 days', NULL::float8
    ORDER BY month)
  USING arima_solver(seed := 7)
) f ORDER BY f.month DESC LIMIT 1;
