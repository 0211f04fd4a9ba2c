//! JSON problem codec: the job-payload format shared by the `abs-server`
//! `POST /jobs` endpoint and the CLI `--problem-json` input path.
//!
//! Two problem encodings are accepted, discriminated by `"format"`:
//!
//! **Dense upper triangle** — `n` and the row-major upper triangle of
//! `W` (diagonal included), `n·(n+1)/2` integer weights:
//!
//! ```json
//! {"format": "dense", "n": 3, "upper": [-5, 2, 0, -3, 1, -8]}
//! ```
//!
//! **G-set-style edge list** — 1-indexed vertices, each edge
//! `[u, v, w]` encoded exactly like [`crate::format::parse_edge_list`]:
//! `W_uv = W_vu = w` and `−w` on both diagonals, so `E(X) = −cut(X)`:
//!
//! ```json
//! {"format": "edge-list", "n": 5, "edges": [[1, 2, 3], [2, 4, -1]]}
//! ```
//!
//! Every weight must be an integer that fits `i16` (after accumulation
//! of duplicate edges). Floats — including anything JSON would round —
//! are rejected with a typed error rather than truncated; JSON itself
//! cannot encode NaN, so a literal `NaN` fails at the syntax layer.

use crate::matrix::{Qubo, QuboBuilder, QuboError};

/// A typed rejection of a JSON problem payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonProblemError {
    /// The text is not valid JSON.
    Syntax(String),
    /// The top-level value is not an object.
    NotObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong JSON type.
    BadType {
        /// Field name.
        field: &'static str,
        /// What was expected there.
        expected: &'static str,
    },
    /// The `"format"` discriminator names no known encoding.
    UnknownFormat(String),
    /// A weight is not an integer (a float, NaN-adjacent, or a number
    /// outside `i64`).
    NotInteger {
        /// Field holding the offending array.
        field: &'static str,
        /// Zero-based element index within it.
        index: usize,
    },
    /// A single weight is outside the 16-bit range.
    Overflow {
        /// Field holding the offending array.
        field: &'static str,
        /// Zero-based element index within it.
        index: usize,
        /// The out-of-range value.
        value: i64,
    },
    /// The `"upper"` array length disagrees with `n`.
    SizeMismatch {
        /// `n·(n+1)/2` for the declared `n`.
        expected: usize,
        /// Actual element count.
        got: usize,
    },
    /// An edge is malformed: wrong arity, a self-loop, or a vertex id
    /// that is 0 or greater than `n`.
    BadEdge {
        /// Zero-based edge index.
        index: usize,
        /// What is wrong with it.
        why: &'static str,
    },
    /// A structurally invalid problem (bad size, accumulated overflow).
    Problem(QuboError),
}

impl std::fmt::Display for JsonProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Syntax(m) => write!(f, "invalid JSON: {m}"),
            Self::NotObject => write!(f, "problem payload must be a JSON object"),
            Self::MissingField(field) => write!(f, "missing field {field:?}"),
            Self::BadType { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            Self::UnknownFormat(got) => {
                write!(
                    f,
                    "unknown format {got:?} (expected \"dense\" or \"edge-list\")"
                )
            }
            Self::NotInteger { field, index } => {
                write!(f, "{field}[{index}] is not an integer")
            }
            Self::Overflow {
                field,
                index,
                value,
            } => write!(f, "{field}[{index}] = {value} outside the i16 weight range"),
            Self::SizeMismatch { expected, got } => write!(
                f,
                "upper triangle has {got} entries, expected {expected} for the declared n"
            ),
            Self::BadEdge { index, why } => write!(f, "edges[{index}]: {why}"),
            Self::Problem(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for JsonProblemError {}

impl From<QuboError> for JsonProblemError {
    fn from(e: QuboError) -> Self {
        Self::Problem(e)
    }
}

/// Reads `obj[field]` as a `usize`, rejecting floats and negatives.
fn usize_field(obj: &serde_json::Value, field: &'static str) -> Result<usize, JsonProblemError> {
    let v = obj
        .get(field)
        .ok_or(JsonProblemError::MissingField(field))?;
    let n = v.as_u64().ok_or(JsonProblemError::BadType {
        field,
        expected: "a non-negative integer",
    })?;
    usize::try_from(n).map_err(|_| JsonProblemError::BadType {
        field,
        expected: "a non-negative integer",
    })
}

/// Reads one array element as an `i16` weight, with typed rejections
/// for floats (`as_i64` is `None` for any JSON float) and overflow.
fn weight_at(
    v: &serde_json::Value,
    field: &'static str,
    index: usize,
) -> Result<i16, JsonProblemError> {
    let w = v
        .as_i64()
        .ok_or(JsonProblemError::NotInteger { field, index })?;
    i16::try_from(w).map_err(|_| JsonProblemError::Overflow {
        field,
        index,
        value: w,
    })
}

/// Parses a JSON problem payload into a dense [`Qubo`].
///
/// # Errors
/// [`JsonProblemError`] on malformed JSON, an unknown `"format"`,
/// non-integer or out-of-range weights, a mismatched upper-triangle
/// length, or malformed edges.
pub fn parse_problem(text: &str) -> Result<Qubo, JsonProblemError> {
    let value = serde_json::from_str(text).map_err(|e| JsonProblemError::Syntax(e.to_string()))?;
    parse_problem_value(&value)
}

/// Parses an already-decoded JSON value (the server reuses the job
/// payload's `"problem"` sub-object without re-serializing it).
///
/// # Errors
/// See [`parse_problem`].
pub fn parse_problem_value(value: &serde_json::Value) -> Result<Qubo, JsonProblemError> {
    if value.as_object().is_none() {
        return Err(JsonProblemError::NotObject);
    }
    let format = value
        .get("format")
        .ok_or(JsonProblemError::MissingField("format"))?
        .as_str()
        .ok_or(JsonProblemError::BadType {
            field: "format",
            expected: "a string",
        })?;
    match format {
        "dense" => parse_dense(value),
        "edge-list" => parse_edge_list(value),
        other => Err(JsonProblemError::UnknownFormat(other.to_string())),
    }
}

/// Decodes the `"dense"` encoding: `n` plus the row-major upper
/// triangle (diagonal included).
fn parse_dense(value: &serde_json::Value) -> Result<Qubo, JsonProblemError> {
    let n = usize_field(value, "n")?;
    let upper = value
        .get("upper")
        .ok_or(JsonProblemError::MissingField("upper"))?
        .as_array()
        .ok_or(JsonProblemError::BadType {
            field: "upper",
            expected: "an array of integers",
        })?;
    let expected = n
        .checked_mul(n + 1)
        .map(|x| x / 2)
        .ok_or(JsonProblemError::Problem(QuboError::BadSize(n)))?;
    if upper.len() != expected {
        return Err(JsonProblemError::SizeMismatch {
            expected,
            got: upper.len(),
        });
    }
    let mut b = QuboBuilder::new(n)?;
    let mut k = 0usize;
    for i in 0..n {
        for j in i..n {
            let w = weight_at(&upper[k], "upper", k)?;
            if w != 0 {
                b.add(i, j, w)?;
            }
            k += 1;
        }
    }
    Ok(b.build()?)
}

/// Decodes the `"edge-list"` encoding with the Max-Cut QUBO mapping of
/// [`crate::format::parse_edge_list`]: duplicate edges fold by
/// accumulation, and the accumulated cell must still fit `i16`.
fn parse_edge_list(value: &serde_json::Value) -> Result<Qubo, JsonProblemError> {
    let n = usize_field(value, "n")?;
    let edges = value
        .get("edges")
        .ok_or(JsonProblemError::MissingField("edges"))?
        .as_array()
        .ok_or(JsonProblemError::BadType {
            field: "edges",
            expected: "an array of [u, v, w] triples",
        })?;
    let mut b = QuboBuilder::new(n)?;
    for (index, e) in edges.iter().enumerate() {
        let triple = e.as_array().ok_or(JsonProblemError::BadEdge {
            index,
            why: "not an array",
        })?;
        if triple.len() != 3 {
            return Err(JsonProblemError::BadEdge {
                index,
                why: "expected exactly [u, v, w]",
            });
        }
        let vertex = |k: usize, why: &'static str| -> Result<usize, JsonProblemError> {
            let id = triple[k]
                .as_u64()
                .ok_or(JsonProblemError::BadEdge { index, why })?;
            let id = usize::try_from(id).map_err(|_| JsonProblemError::BadEdge { index, why })?;
            if id == 0 || id > n {
                return Err(JsonProblemError::BadEdge {
                    index,
                    why: "vertex id out of range (ids are 1-indexed)",
                });
            }
            Ok(id)
        };
        let u = vertex(0, "u is not a positive integer")?;
        let v = vertex(1, "v is not a positive integer")?;
        if u == v {
            return Err(JsonProblemError::BadEdge {
                index,
                why: "self-loop",
            });
        }
        let w = weight_at(&triple[2], "edges", index)?;
        // `−w` must also fit the weight range (`−(−32768)` does not).
        let neg = w.checked_neg().ok_or(JsonProblemError::Overflow {
            field: "edges",
            index,
            value: i64::from(w),
        })?;
        b.add(u - 1, v - 1, w)?;
        b.add(u - 1, u - 1, neg)?;
        b.add(v - 1, v - 1, neg)?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format;
    use crate::BitVec;

    #[test]
    fn dense_round_trips_the_fig1_example() {
        let q = parse_problem(
            r#"{"format": "dense", "n": 4,
                "upper": [-5, 2, 0, 3, -3, 1, 0, -8, 2, -6]}"#,
        )
        .unwrap();
        let x = BitVec::from_bits(&[1, 0, 1, 1]);
        // Diagonals x_0, x_2, x_3 plus the set couplers W_03 and W_23,
        // counted once per unordered pair (both triangles are stored).
        assert_eq!(q.energy(&x), -5 - 8 - 6 + 2 * (3 + 2));
        assert_eq!(q.get(0, 3), 3);
        assert_eq!(q.get(3, 0), 3);
    }

    #[test]
    fn dense_rejects_mismatched_n() {
        let err = parse_problem(r#"{"format": "dense", "n": 3, "upper": [1, 2, 3]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::SizeMismatch {
                expected: 6,
                got: 3
            }
        );
    }

    #[test]
    fn dense_rejects_floats_and_overflow() {
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [1.5]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::NotInteger {
                field: "upper",
                index: 0
            }
        );
        // Exponent-form floats are floats even when integral in value.
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [1e2]}"#).unwrap_err();
        assert!(matches!(err, JsonProblemError::NotInteger { .. }));
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [40000]}"#).unwrap_err();
        assert_eq!(
            err,
            JsonProblemError::Overflow {
                field: "upper",
                index: 0,
                value: 40000
            }
        );
    }

    #[test]
    fn nan_is_a_syntax_error() {
        // JSON has no NaN literal; it must die at the syntax layer, not
        // sneak through as a number.
        let err = parse_problem(r#"{"format": "dense", "n": 1, "upper": [NaN]}"#).unwrap_err();
        assert!(matches!(err, JsonProblemError::Syntax(_)));
    }

    #[test]
    fn missing_and_mistyped_fields_are_typed() {
        assert_eq!(
            parse_problem("[1, 2]").unwrap_err(),
            JsonProblemError::NotObject
        );
        assert_eq!(
            parse_problem(r#"{"n": 2}"#).unwrap_err(),
            JsonProblemError::MissingField("format")
        );
        assert_eq!(
            parse_problem(r#"{"format": "dense", "upper": []}"#).unwrap_err(),
            JsonProblemError::MissingField("n")
        );
        assert_eq!(
            parse_problem(r#"{"format": "csr", "n": 2}"#).unwrap_err(),
            JsonProblemError::UnknownFormat("csr".into())
        );
        assert!(matches!(
            parse_problem(r#"{"format": "dense", "n": -3, "upper": []}"#).unwrap_err(),
            JsonProblemError::BadType { field: "n", .. }
        ));
    }

    #[test]
    fn edge_list_matches_the_text_format_encoding() {
        // Same instance through both codecs must yield identical
        // energies everywhere (4 vertices, exhaustive check).
        let json = r#"{"format": "edge-list", "n": 4,
                       "edges": [[1, 2, 3], [2, 3, 1], [3, 4, 2], [1, 4, -1], [1, 2, 2]]}"#;
        let q = parse_problem(json).unwrap();
        let text = "4 5\n1 2 3\n2 3 1\n3 4 2\n1 4 -1\n1 2 2\n";
        let sparse = format::parse_edge_list(text).unwrap();
        for bits in 0..16u32 {
            let x = BitVec::from_bits(&[
                (bits & 1) as u8,
                ((bits >> 1) & 1) as u8,
                ((bits >> 2) & 1) as u8,
                ((bits >> 3) & 1) as u8,
            ]);
            assert_eq!(q.energy(&x), sparse.energy(&x), "bits {bits:#06b}");
        }
    }

    #[test]
    fn edge_list_rejects_bad_edges() {
        let e = |json: &str| parse_problem(json).unwrap_err();
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 1, 2]]}"#),
            JsonProblemError::BadEdge {
                index: 0,
                why: "self-loop"
            }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[0, 2, 1]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 4, 1]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 2]]}"#),
            JsonProblemError::BadEdge { index: 0, .. }
        ));
        assert!(matches!(
            e(r#"{"format": "edge-list", "n": 3, "edges": [[1, 2, 0.5]]}"#),
            JsonProblemError::NotInteger {
                field: "edges",
                index: 0
            }
        ));
    }

    #[test]
    fn accumulated_overflow_is_reported_per_cell() {
        let json = r#"{"format": "edge-list", "n": 2,
                       "edges": [[1, 2, 30000], [1, 2, 30000]]}"#;
        assert!(matches!(
            parse_problem(json).unwrap_err(),
            JsonProblemError::Problem(QuboError::WeightOverflow(_, _))
        ));
        // 131 076 · 32 767 = 2³² − 4: an unchecked i32 fold wraps to a
        // valid-looking W₀₁ = −4 instead of overflowing.
        let edges = vec!["[1, 2, 32767]"; 131_076].join(",");
        let json = format!(r#"{{"format": "edge-list", "n": 2, "edges": [{edges}]}}"#);
        assert!(matches!(
            parse_problem(&json).unwrap_err(),
            JsonProblemError::Problem(QuboError::WeightOverflow(_, _))
        ));
    }
}
