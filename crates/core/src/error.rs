//! Error type for the t2vec pipeline.

use std::fmt;

/// Errors produced by training, encoding, and persistence.
#[derive(Debug)]
pub enum T2VecError {
    /// The training corpus produced no usable vocabulary or pairs.
    InsufficientData(String),
    /// A configuration value is out of range.
    InvalidConfig(String),
    /// A request carried data the system refuses to store or act on
    /// (e.g. a non-finite embedding); nothing was changed.
    InvalidInput(String),
    /// I/O failure during save/load.
    Io(std::io::Error),
    /// Serialization failure during save/load.
    Serde(serde_json::Error),
    /// A checkpoint file failed validation (bad frame, checksum
    /// mismatch, unsupported version, or a config that disagrees with
    /// the run being resumed).
    Checkpoint(String),
}

impl fmt::Display for T2VecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            T2VecError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            T2VecError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            T2VecError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            T2VecError::Io(e) => write!(f, "io error: {e}"),
            T2VecError::Serde(e) => write!(f, "serialization error: {e}"),
            T2VecError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for T2VecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            T2VecError::Io(e) => Some(e),
            T2VecError::Serde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for T2VecError {
    fn from(e: std::io::Error) -> Self {
        T2VecError::Io(e)
    }
}

impl From<serde_json::Error> for T2VecError {
    fn from(e: serde_json::Error) -> Self {
        T2VecError::Serde(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = T2VecError::InsufficientData("no hot cells".into());
        assert!(e.to_string().contains("no hot cells"));
        let e = T2VecError::InvalidConfig("hidden = 0".into());
        assert!(e.to_string().contains("hidden = 0"));
        let io: T2VecError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let io: T2VecError = std::io::Error::other("x").into();
        assert!(io.source().is_some());
        assert!(T2VecError::InsufficientData("y".into()).source().is_none());
    }
}
