//! Error types of the serving tier.
//!
//! Every failure a request can hit maps onto exactly one HTTP status (see
//! [`ServeError::status`]), so the in-process and TCP front ends agree on
//! semantics by construction.

use crowdnet_column::ColumnError;
use crowdnet_dataflow::sql::SqlError;
use crowdnet_store::StoreError;

/// Everything that can go wrong while serving one request.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying store failed (missing namespace, corrupt doc, I/O).
    Store(StoreError),
    /// The column projection — the serving tiers' only scan source —
    /// failed: a run that does not decode under `/sql` or an artifact
    /// build, or the store failing underneath the rebuild from the log.
    /// There is no other source to fall back to, so it is served as a
    /// status, never swallowed.
    Column(ColumnError),
    /// The ad-hoc SQL query failed to parse or execute.
    Sql(SqlError),
    /// The request was syntactically fine but semantically unusable
    /// (bad id, missing query parameter, unsupported value).
    BadRequest(String),
    /// The requested entity/route does not exist.
    NotFound(String),
    /// The route exists but not for this method.
    MethodNotAllowed(String),
    /// Admission control rejected the request: the bounded queue was full.
    /// Served as `503` with a `Retry-After` header.
    Shed {
        /// Seconds the client should wait before retrying.
        retry_after_secs: u64,
    },
    /// The request sat in the queue (or ran) past its deadline.
    DeadlineExceeded {
        /// The deadline that was missed, in clock-milliseconds.
        deadline_ms: u64,
        /// The clock reading when the overrun was detected.
        now_ms: u64,
    },
    /// The server is draining and no longer admits new work.
    ShuttingDown,
    /// A socket-level failure on the TCP front end.
    Io(std::io::Error),
}

impl ServeError {
    /// The HTTP status code this error is served as.
    pub fn status(&self) -> u16 {
        match self {
            // A store failure keeps its status through a column rebuild.
            ServeError::Store(e) | ServeError::Column(ColumnError::Store(e)) => match e {
                StoreError::NamespaceNotFound(_) | StoreError::SnapshotNotFound { .. } => 404,
                _ => 500,
            },
            ServeError::NotFound(_) => 404,
            ServeError::Column(_) | ServeError::Io(_) => 500,
            ServeError::Sql(_) | ServeError::BadRequest(_) => 400,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::Shed { .. } | ServeError::DeadlineExceeded { .. } => 503,
            ServeError::ShuttingDown => 503,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Column(e) => write!(f, "column error: {e}"),
            ServeError::Sql(e) => write!(f, "sql error: {e}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            ServeError::Shed { retry_after_secs } => {
                write!(f, "overloaded, retry after {retry_after_secs}s")
            }
            ServeError::DeadlineExceeded {
                deadline_ms,
                now_ms,
            } => write!(f, "deadline {deadline_ms}ms exceeded at {now_ms}ms"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Column(e) => Some(e),
            ServeError::Sql(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<ColumnError> for ServeError {
    fn from(e: ColumnError) -> Self {
        ServeError::Column(e)
    }
}

impl From<SqlError> for ServeError {
    fn from(e: SqlError) -> Self {
        ServeError::Sql(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_semantics() {
        assert_eq!(ServeError::NotFound("x".into()).status(), 404);
        assert_eq!(
            ServeError::Store(StoreError::NamespaceNotFound("ns".into())).status(),
            404
        );
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::Column(ColumnError::Corrupt("run".into())).status(), 500);
        let under_rebuild = ColumnError::Store(StoreError::NamespaceNotFound("ns".into()));
        assert_eq!(ServeError::Column(under_rebuild).status(), 404);
        assert_eq!(ServeError::Shed { retry_after_secs: 1 }.status(), 503);
        assert_eq!(
            ServeError::DeadlineExceeded {
                deadline_ms: 5,
                now_ms: 9
            }
            .status(),
            503
        );
        assert_eq!(ServeError::ShuttingDown.status(), 503);
    }

    #[test]
    fn display_and_source_are_wired() {
        let e = ServeError::Store(StoreError::NamespaceNotFound("ns".into()));
        assert!(e.to_string().contains("store error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::ShuttingDown).is_none());
    }
}
