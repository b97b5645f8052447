//! Error types for the message broker.

use std::fmt;

/// Result alias used across the crate.
pub type MqResult<T> = Result<T, MqError>;

/// Errors produced by broker operations.
#[derive(Debug)]
pub enum MqError {
    /// The named queue does not exist on this broker.
    QueueNotFound(String),
    /// A queue with this name already exists and `exclusive` redeclaration
    /// was requested.
    QueueExists(String),
    /// The delivery tag is unknown (already acked, or never delivered).
    UnknownDeliveryTag(u64),
    /// A blocking operation timed out.
    Timeout,
    /// The broker has been shut down.
    BrokerClosed,
    /// The queue reached its configured capacity and the publish policy is
    /// to reject.
    QueueFull(String),
    /// Underlying I/O failure (journal).
    Io(std::io::Error),
    /// The journal on disk is corrupt or truncated mid-record.
    CorruptJournal(String),
    /// A deterministic fault-injection point (entk-fail) fired. Only ever
    /// produced in tests that arm failpoints; carries the failpoint name.
    FaultInjected(String),
}

impl fmt::Display for MqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqError::QueueNotFound(q) => write!(f, "queue not found: {q}"),
            MqError::QueueExists(q) => write!(f, "queue already exists: {q}"),
            MqError::UnknownDeliveryTag(t) => write!(f, "unknown delivery tag: {t}"),
            MqError::Timeout => write!(f, "operation timed out"),
            MqError::BrokerClosed => write!(f, "broker is closed"),
            MqError::QueueFull(q) => write!(f, "queue full: {q}"),
            MqError::Io(e) => write!(f, "journal I/O error: {e}"),
            MqError::CorruptJournal(m) => write!(f, "corrupt journal: {m}"),
            MqError::FaultInjected(name) => write!(f, "injected fault: {name}"),
        }
    }
}

impl std::error::Error for MqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MqError {
    fn from(e: std::io::Error) -> Self {
        MqError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        assert!(MqError::QueueNotFound("pending".into())
            .to_string()
            .contains("pending"));
        assert!(MqError::UnknownDeliveryTag(42).to_string().contains("42"));
        assert_eq!(MqError::Timeout.to_string(), "operation timed out");
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = MqError::from(std::io::Error::other("disk"));
        assert!(e.source().is_some());
    }
}
