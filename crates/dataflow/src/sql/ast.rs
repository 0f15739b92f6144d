//! Query AST.

/// A literal value in a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// `TRUE` / `FALSE`
    Bool(bool),
    /// Numeric literal.
    Number(f64),
    /// Single-quoted string.
    String(String),
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Dotted JSON path into the document.
    Field(String),
    /// A literal.
    Literal(Literal),
    /// Comparison: `lhs op rhs`.
    Compare {
        /// Left side.
        lhs: Box<Expr>,
        /// One of `= != < <= > >=`.
        op: CompareOp,
        /// Right side.
        rhs: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `lhs AND rhs`.
    And(Box<Expr>, Box<Expr>),
    /// `lhs OR rhs`.
    Or(Box<Expr>, Box<Expr>),
    /// `NOT expr`.
    Not(Box<Expr>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(field)` — non-null values.
    Count(String),
    /// `SUM(field)`
    Sum(String),
    /// `AVG(field)`
    Avg(String),
    /// `MIN(field)`
    Min(String),
    /// `MAX(field)`
    Max(String),
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain field projection.
    Field {
        /// Dotted path.
        path: String,
        /// Output column name.
        alias: String,
    },
    /// An aggregate.
    Agg {
        /// The aggregate.
        agg: Aggregate,
        /// Output column name.
        alias: String,
    },
}

impl SelectItem {
    /// The output column name.
    pub fn alias(&self) -> &str {
        match self {
            SelectItem::Field { alias, .. } | SelectItem::Agg { alias, .. } => alias,
        }
    }
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// Output column name.
    pub column: String,
    /// Descending?
    pub descending: bool,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM source name (informational; the caller binds the data).
    pub from: String,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY field paths.
    pub group_by: Vec<String>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
}

impl Query {
    /// True if any select item is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        self.select
            .iter()
            .any(|s| matches!(s, SelectItem::Agg { .. }))
    }

    /// The top-level document fields this query can read, sorted and
    /// deduplicated: the first segment of every path in SELECT, aggregate
    /// arguments, WHERE and GROUP BY. Every document access in
    /// [`execute`](super::execute) is a `doc.path(..)` over one of those
    /// paths (ORDER BY names output columns, and there is no `SELECT *`),
    /// so rows holding only these fields execute to the same table as
    /// whole documents.
    pub fn referenced_fields(&self) -> Vec<&str> {
        let mut paths: Vec<&str> = self.group_by.iter().map(String::as_str).collect();
        for item in &self.select {
            match item {
                SelectItem::Field { path, .. } => paths.push(path),
                SelectItem::Agg { agg, .. } => paths.extend(agg.argument()),
            }
        }
        if let Some(filter) = &self.filter {
            filter.collect_paths(&mut paths);
        }
        let mut fields: Vec<&str> = paths
            .into_iter()
            .map(|p| p.split(['.', '[']).next().unwrap_or(p))
            .collect();
        fields.sort_unstable();
        fields.dedup();
        fields
    }
}

impl Aggregate {
    /// The field path the aggregate reads (`None` for `COUNT(*)`).
    fn argument(&self) -> Option<&str> {
        match self {
            Aggregate::CountStar => None,
            Aggregate::Count(f)
            | Aggregate::Sum(f)
            | Aggregate::Avg(f)
            | Aggregate::Min(f)
            | Aggregate::Max(f) => Some(f),
        }
    }
}

impl Expr {
    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Field(path) => out.push(path),
            Expr::Literal(_) => {}
            Expr::Compare { lhs, rhs, .. } | Expr::And(lhs, rhs) | Expr::Or(lhs, rhs) => {
                lhs.collect_paths(out);
                rhs.collect_paths(out);
            }
            Expr::IsNull { expr, .. } | Expr::Not(expr) => expr.collect_paths(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_query;

    #[test]
    fn referenced_fields_are_the_first_segments_of_every_read_path() {
        let q = parse_query(
            "SELECT social.twitter AS t, SUM(rounds[0].raised_usd), COUNT(*) FROM docs \
             WHERE NOT (likes > 3 OR bio IS NULL) AND social.fb = 'x' \
             GROUP BY social.twitter, role ORDER BY t LIMIT 3",
        )
        .unwrap();
        assert_eq!(q.referenced_fields(), vec!["bio", "likes", "role", "rounds", "social"]);
        let q = parse_query("SELECT COUNT(*) AS n FROM docs").unwrap();
        assert!(q.referenced_fields().is_empty());
    }
}
