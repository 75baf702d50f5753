-- UC2 / P3: expected profit = margin weighted by forecasted demand.
DROP TABLE IF EXISTS profit;
CREATE TABLE profit AS
SELECT i.item_id, (i.price - i.cost) * greatest(0.0, f.qty) AS v,
       i.size * greatest(0.0, f.qty) AS volume
FROM items i JOIN demand_forecast f ON f.item_id = i.item_id;
