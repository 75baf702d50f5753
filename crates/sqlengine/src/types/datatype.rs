//! Logical column types.

use crate::error::{Error, Result};
use std::fmt;

/// The engine's logical data types. `Unknown` is the type of `NULL`
/// literals and of decision cells before a solver fills them; it unifies
/// with every other type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    Unknown,
    Bool,
    Int,
    Float,
    Text,
    Timestamp,
    Interval,
    Bits,
    /// A user-defined type, by lower-case name (e.g. `model`).
    Named(String),
}

impl DataType {
    /// Resolve a SQL type name (as written in casts or `CREATE TABLE`).
    pub fn from_sql_name(name: &str) -> Result<DataType> {
        let n = name.trim().to_ascii_lowercase();
        Ok(match n.as_str() {
            "bool" | "boolean" => DataType::Bool,
            "int" | "int2" | "int4" | "int8" | "integer" | "bigint" | "smallint" => DataType::Int,
            "float" | "float4" | "float8" | "real" | "double" | "double precision" | "numeric"
            | "decimal" => DataType::Float,
            "text" | "varchar" | "char" | "character varying" | "string" => DataType::Text,
            "timestamp" | "timestamptz" | "datetime" | "date" => DataType::Timestamp,
            "interval" => DataType::Interval,
            "bit" | "varbit" | "bit varying" => DataType::Bits,
            "" => return Err(Error::parse("empty type name")),
            _ => DataType::Named(n),
        })
    }

    /// SQL rendering of the type.
    pub fn sql_name(&self) -> String {
        match self {
            DataType::Unknown => "unknown".into(),
            DataType::Bool => "boolean".into(),
            DataType::Int => "int8".into(),
            DataType::Float => "float8".into(),
            DataType::Text => "text".into(),
            DataType::Timestamp => "timestamp".into(),
            DataType::Interval => "interval".into(),
            DataType::Bits => "bit".into(),
            DataType::Named(n) => n.clone(),
        }
    }

    /// The common type of two inputs (for set operations, CASE arms,
    /// recursive CTE unification). `Unknown` defers to the other side.
    pub fn unify(&self, other: &DataType) -> Result<DataType> {
        match (self, other) {
            (a, b) if a == b => Ok(a.clone()),
            (DataType::Unknown, b) => Ok(b.clone()),
            (a, DataType::Unknown) => Ok(a.clone()),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Ok(DataType::Float)
            }
            (a, b) => Err(Error::bind(format!(
                "cannot unify types {} and {}",
                a.sql_name(),
                b.sql_name()
            ))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_name_aliases() {
        assert_eq!(DataType::from_sql_name("float8").unwrap(), DataType::Float);
        assert_eq!(DataType::from_sql_name("INT4").unwrap(), DataType::Int);
        assert_eq!(DataType::from_sql_name("Boolean").unwrap(), DataType::Bool);
        assert_eq!(DataType::from_sql_name("model").unwrap(), DataType::Named("model".into()));
    }

    #[test]
    fn unify_rules() {
        assert_eq!(DataType::Int.unify(&DataType::Float).unwrap(), DataType::Float);
        assert_eq!(DataType::Unknown.unify(&DataType::Text).unwrap(), DataType::Text);
        assert!(DataType::Bool.unify(&DataType::Text).is_err());
    }

    #[test]
    fn display_roundtrip() {
        for t in [DataType::Bool, DataType::Int, DataType::Float, DataType::Text] {
            assert_eq!(DataType::from_sql_name(&t.sql_name()).unwrap(), t);
        }
    }
}
