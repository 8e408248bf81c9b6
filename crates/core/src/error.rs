//! The workspace-wide error type.
//!
//! Every layer used to define its own error shape (`TransformError` in
//! `sdfg-transforms`, `FrontendError` in `sdfg-frontend`, ad-hoc strings in
//! between). [`SdfgError`] folds them into one enum with stable error
//! codes, so tooling can match on a code instead of a message and the
//! layers compose through `?` without conversion boilerplate. The runtime
//! engines keep richer internal error enums (they wrap tasklet-VM and
//! symbolic sub-errors the IR crate cannot name), but convert into
//! [`SdfgError`] at their API boundaries via `From` impls defined in their
//! own crates.

use crate::validate::ValidationError;
use std::fmt;

/// A failure anywhere in the SDFG toolchain, with a stable error code.
#[derive(Clone, Debug, PartialEq)]
pub enum SdfgError {
    /// Structural validation failed (`SDFG-V001`). Carries every failure
    /// found by the pass, pre-rendered.
    Validation {
        /// One rendered message per validation failure.
        errors: Vec<String>,
    },
    /// A transformation rewrite failed mid-application (`SDFG-T001`).
    Transform {
        /// Explanation.
        message: String,
    },
    /// A transformation name did not resolve in the registry (`SDFG-T002`).
    UnknownTransform {
        /// The requested name.
        name: String,
    },
    /// A transformation found no occurrence of its pattern (`SDFG-T003`).
    NoMatch {
        /// Transformation name.
        name: String,
        /// Chain step index, when applied as part of a chain.
        step: Option<usize>,
    },
    /// A pattern match is missing a role the rewrite needs (`SDFG-T004`).
    RoleMissing {
        /// The missing role name.
        role: String,
    },
    /// A transformation parameter has the wrong type (`SDFG-P001`).
    ParamType {
        /// Parameter name.
        param: String,
        /// What the accessor wanted.
        expected: &'static str,
        /// What the parameter held.
        got: String,
    },
    /// A transformation parameter could not be parsed from text
    /// (`SDFG-P002`).
    ParamParse {
        /// Parameter name.
        param: String,
        /// The unparseable text.
        text: String,
    },
    /// The frontend rejected a program (`SDFG-F001`).
    Frontend {
        /// 1-based source line (0 when unknown).
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The optimizing executor failed (`SDFG-X001`).
    Exec {
        /// Rendered executor error.
        message: String,
    },
    /// A data container name did not resolve at runtime (`SDFG-X002`).
    UnknownData {
        /// The requested container name.
        name: String,
    },
    /// A bound array's element count does not match the container's
    /// declared shape under the bound symbols (`SDFG-X003`).
    ShapeMismatch {
        /// Container name.
        name: String,
        /// Element count the shape evaluates to.
        expected: usize,
        /// Element count actually provided.
        got: usize,
    },
    /// A run exceeded its wall-clock deadline and was cancelled between
    /// state executions (`SDFG-X004`).
    Timeout {
        /// The deadline budget in milliseconds.
        ms: u64,
    },
    /// An invoke's containers, sized under its symbol bindings, exceed
    /// the per-invoke byte budget (`SDFG-X005`).
    MemoryBudget {
        /// The budget in bytes.
        limit: usize,
        /// Bytes the containers would take (saturating).
        need: u64,
    },
    /// A serialized program exceeded the deserializer's configured size
    /// limit (`SDFG-S001`).
    PayloadTooLarge {
        /// The configured limit in bytes.
        limit: usize,
        /// The payload size in bytes.
        got: usize,
    },
    /// A serialized program failed to deserialize (`SDFG-S002`). The
    /// message carries the byte offset and line/column of the defect.
    Serialize {
        /// Rendered parse/decode error with position info.
        message: String,
    },
    /// The reference interpreter failed (`SDFG-I001`).
    Interp {
        /// Rendered interpreter error.
        message: String,
    },
    /// The automatic optimization pipeline failed (`SDFG-O001`).
    Optimization {
        /// The pass that failed.
        pass: String,
        /// Explanation.
        message: String,
    },
}

impl SdfgError {
    /// Creates a generic transformation error (the old `TransformError`).
    pub fn transform(message: impl Into<String>) -> SdfgError {
        SdfgError::Transform {
            message: message.into(),
        }
    }

    /// Creates a frontend error.
    pub fn frontend(line: usize, message: impl Into<String>) -> SdfgError {
        SdfgError::Frontend {
            line,
            message: message.into(),
        }
    }

    /// Creates an optimization-pipeline error.
    pub fn optimization(pass: impl Into<String>, message: impl Into<String>) -> SdfgError {
        SdfgError::Optimization {
            pass: pass.into(),
            message: message.into(),
        }
    }

    /// The stable error code for this failure class.
    pub fn code(&self) -> &'static str {
        match self {
            SdfgError::Validation { .. } => "SDFG-V001",
            SdfgError::Transform { .. } => "SDFG-T001",
            SdfgError::UnknownTransform { .. } => "SDFG-T002",
            SdfgError::NoMatch { .. } => "SDFG-T003",
            SdfgError::RoleMissing { .. } => "SDFG-T004",
            SdfgError::ParamType { .. } => "SDFG-P001",
            SdfgError::ParamParse { .. } => "SDFG-P002",
            SdfgError::Frontend { .. } => "SDFG-F001",
            SdfgError::Exec { .. } => "SDFG-X001",
            SdfgError::UnknownData { .. } => "SDFG-X002",
            SdfgError::ShapeMismatch { .. } => "SDFG-X003",
            SdfgError::Timeout { .. } => "SDFG-X004",
            SdfgError::MemoryBudget { .. } => "SDFG-X005",
            SdfgError::PayloadTooLarge { .. } => "SDFG-S001",
            SdfgError::Serialize { .. } => "SDFG-S002",
            SdfgError::Interp { .. } => "SDFG-I001",
            SdfgError::Optimization { .. } => "SDFG-O001",
        }
    }
}

impl fmt::Display for SdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            SdfgError::Validation { errors } => {
                write!(f, "validation failed: {}", errors.join("; "))
            }
            SdfgError::Transform { message } => write!(f, "{message}"),
            SdfgError::UnknownTransform { name } => {
                write!(f, "unknown transformation `{name}`")
            }
            SdfgError::NoMatch { name, step } => match step {
                Some(i) => write!(f, "step {i}: `{name}` found no match"),
                None => write!(f, "`{name}` found no match"),
            },
            SdfgError::RoleMissing { role } => {
                write!(f, "match has no node bound to role `{role}`")
            }
            SdfgError::ParamType {
                param,
                expected,
                got,
            } => write!(f, "parameter `{param}`: expected {expected}, got {got}"),
            SdfgError::ParamParse { param, text } => {
                write!(f, "parameter `{param}`: cannot parse `{text}`")
            }
            SdfgError::Frontend { line, message } => write!(f, "line {line}: {message}"),
            SdfgError::Exec { message } => write!(f, "executor: {message}"),
            SdfgError::UnknownData { name } => {
                write!(f, "unknown data container `{name}`")
            }
            SdfgError::ShapeMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "array `{name}`: shape evaluates to {expected} elements, got {got}"
            ),
            SdfgError::Timeout { ms } => write!(f, "run exceeded the {ms} ms deadline"),
            SdfgError::MemoryBudget { limit, need } => write!(
                f,
                "containers need {need} bytes under the bound symbols, \
                 over the {limit}-byte per-invoke budget"
            ),
            SdfgError::PayloadTooLarge { limit, got } => {
                write!(f, "payload of {got} bytes exceeds the {limit}-byte limit")
            }
            SdfgError::Serialize { message } => write!(f, "deserialization: {message}"),
            SdfgError::Interp { message } => write!(f, "interpreter: {message}"),
            SdfgError::Optimization { pass, message } => {
                write!(f, "optimization pass `{pass}`: {message}")
            }
        }
    }
}

impl std::error::Error for SdfgError {}

impl From<ValidationError> for SdfgError {
    fn from(e: ValidationError) -> SdfgError {
        SdfgError::Validation {
            errors: vec![e.to_string()],
        }
    }
}

impl From<Vec<ValidationError>> for SdfgError {
    fn from(es: Vec<ValidationError>) -> SdfgError {
        SdfgError::Validation {
            errors: es.iter().map(|e| e.to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_displayed() {
        let e = SdfgError::transform("scope vanished");
        assert_eq!(e.code(), "SDFG-T001");
        assert!(e.to_string().starts_with("[SDFG-T001]"));
        let p = SdfgError::ParamType {
            param: "width".into(),
            expected: "int",
            got: "str(\"wide\")".into(),
        };
        assert_eq!(p.code(), "SDFG-P001");
        assert!(p.to_string().contains("`width`"));
        let u = SdfgError::UnknownData { name: "A".into() };
        assert_eq!(u.code(), "SDFG-X002");
        assert!(u.to_string().contains("unknown data container `A`"));
    }

    #[test]
    fn validation_errors_fold_in() {
        let e: SdfgError = ValidationError::NoStartState.into();
        assert_eq!(e.code(), "SDFG-V001");
        let e: SdfgError = vec![ValidationError::NoStartState].into();
        assert!(e.to_string().contains("no start state"));
    }
}
