//! In-memory tables: schema + row storage.

use crate::error::{Error, Result};
use crate::types::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column { name: name.into(), ty }
    }
}

/// A table schema. Column names are stored as written (the lexer already
/// folds unquoted identifiers to lower case); lookups are exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    pub fn from_names(names: &[&str]) -> Schema {
        Schema { columns: names.iter().map(|n| Column::new(*n, DataType::Unknown)).collect() }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Rename the leading columns to `names` (a CTE's column list).
    pub(crate) fn rename(&mut self, names: &[String]) -> Result<()> {
        if names.len() > self.len() {
            return Err(Error::bind(format!(
                "column alias list has {} entries but result has {} columns",
                names.len(),
                self.len()
            )));
        }
        for (col, name) in self.columns.iter_mut().zip(names) {
            col.name = name.clone();
        }
        Ok(())
    }

    /// This schema with each column typed by its first non-NULL value in
    /// `rows`; a column with none keeps the type it has here. A query
    /// result is typed this way on both executors, from its static types,
    /// so a column of NULLs stays typed (solver variable integrality is
    /// read off it).
    pub fn typed_by(mut self, rows: &[Row]) -> Schema {
        for (i, col) in self.columns.iter_mut().enumerate() {
            if let Some(v) = rows.iter().filter_map(|r| r.get(i)).find(|v| !v.is_null()) {
                col.ty = v.data_type();
            }
        }
        self
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// An in-memory table (also used for intermediate results).
/// Equality is structural over schema and rows (with [`Value`]'s
/// numeric cross-type semantics), used by tests and the wire codec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(schema: Schema) -> Table {
        Table { schema, rows: Vec::new() }
    }

    pub fn with_rows(schema: Schema, rows: Vec<Row>) -> Table {
        Table { schema, rows }
    }

    /// Build a table from column names and rows of convertible values —
    /// a test/datagen convenience.
    pub fn from_rows(names: &[&str], rows: Vec<Row>) -> Table {
        Table { schema: Schema::from_names(names).typed_by(&rows), rows }
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// Append a row, coercing each value to the column's declared type
    /// (Unknown columns accept anything).
    pub fn push_coerced(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::eval(format!(
                "row has {} values, table has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&self.schema.columns) {
            out.push(coerce(v, &col.ty)?);
        }
        self.rows.push(out);
        Ok(())
    }

    /// Fetch a single value (row-major); test convenience.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Fetch by column name; test convenience.
    pub fn value_by_name(&self, row: usize, name: &str) -> Result<&Value> {
        let idx =
            self.schema.index_of(name).ok_or_else(|| Error::bind(format!("no column '{name}'")))?;
        Ok(&self.rows[row][idx])
    }

    /// The single value of a 1×1 table (scalar subquery result shape).
    pub fn scalar(&self) -> Result<Value> {
        if self.num_columns() != 1 {
            return Err(Error::eval(format!(
                "expected a single column, got {}",
                self.num_columns()
            )));
        }
        match self.rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(self.rows[0][0].clone()),
            n => Err(Error::eval(format!("expected at most one row, got {n}"))),
        }
    }

    /// Extract one column as a vector.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>> {
        let idx =
            self.schema.index_of(name).ok_or_else(|| Error::bind(format!("no column '{name}'")))?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }
}

/// Coerce a value to a column type on storage (mirrors PostgreSQL's
/// assignment casts: numeric widening/narrowing and text parsing).
pub fn coerce(v: Value, ty: &DataType) -> Result<Value> {
    if v.is_null() || *ty == DataType::Unknown || v.data_type() == *ty {
        return Ok(v);
    }
    v.cast(ty)
}

impl fmt::Display for Table {
    /// Render as an aligned text table (for examples and debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.columns.iter().map(|c| c.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Shared handle used throughout execution.
pub type TableRef = Arc<Table>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_infers_types() {
        let t = Table::from_rows(
            &["a", "b"],
            vec![vec![Value::Null, Value::text("x")], vec![Value::Int(2), Value::text("y")]],
        );
        assert_eq!(t.schema.columns[0].ty, DataType::Int);
        assert_eq!(t.schema.columns[1].ty, DataType::Text);
    }

    #[test]
    fn push_coerced_casts() {
        let mut t = Table::new(Schema::new(vec![
            Column::new("a", DataType::Float),
            Column::new("b", DataType::Text),
        ]));
        t.push_coerced(vec![Value::Int(1), Value::Int(7)]).unwrap();
        assert_eq!(t.rows[0][0], Value::Float(1.0));
        assert_eq!(t.rows[0][1], Value::text("7"));
        assert!(t.push_coerced(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn scalar_shapes() {
        let t = Table::from_rows(&["x"], vec![vec![Value::Int(5)]]);
        assert_eq!(t.scalar().unwrap(), Value::Int(5));
        let empty = Table::from_rows(&["x"], vec![]);
        assert!(empty.scalar().unwrap().is_null());
        let two = Table::from_rows(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(two.scalar().is_err());
        let wide = Table::from_rows(&["x", "y"], vec![]);
        assert!(wide.scalar().is_err());
    }

    #[test]
    fn display_renders_grid() {
        let t = Table::from_rows(&["id", "name"], vec![vec![Value::Int(1), Value::text("aa")]]);
        let s = t.to_string();
        assert!(s.contains("| id | name |"));
        assert!(s.contains("| 1  | aa   |"));
    }
}
