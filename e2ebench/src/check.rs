//! Output checks. Every response is checked; any failed check makes the
//! operation a failure in `error_ratio`.

use std::collections::HashSet;

use grdf_query::eval::QueryResult;

use crate::json::{self, Json};
use crate::schedule::{Expect, Op};

/// A query answer in comparable form: SELECT rows as sorted
/// `(variable, rendered term)` lists, sorted; or an ASK boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Rows(Vec<Vec<(String, String)>>),
    Bool(bool),
}

impl Answer {
    pub fn rows(&self) -> usize {
        match self {
            Answer::Rows(r) => r.len(),
            Answer::Bool(_) => 1,
        }
    }

    /// The same answer computed in-process (the reference path).
    pub fn from_result(result: &QueryResult) -> Option<Answer> {
        match result {
            QueryResult::Select { rows, .. } => {
                let mut out: Vec<Vec<(String, String)>> = rows
                    .iter()
                    .map(|b| b.iter().map(|(k, v)| (k.clone(), v.to_string())).collect())
                    .collect();
                out.sort();
                Some(Answer::Rows(out))
            }
            QueryResult::Boolean(b) => Some(Answer::Bool(*b)),
            QueryResult::Graph(_) => None,
        }
    }
}

fn select_rows(v: &Json) -> Option<Vec<Vec<(String, String)>>> {
    let Json::Arr(vars) = v.get("vars")? else {
        return None;
    };
    if !vars.iter().all(|x| matches!(x, Json::Str(_))) {
        return None;
    }
    let Json::Arr(rows) = v.get("rows")? else {
        return None;
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let Json::Obj(cells) = row else { return None };
        let mut r = Vec::with_capacity(cells.len());
        for (k, cell) in cells {
            r.push((k.clone(), cell.as_str()?.to_string()));
        }
        r.sort();
        out.push(r);
    }
    out.sort();
    Some(out)
}

/// Parse a `/query` 200 body into an [`Answer`]; `None` when malformed.
pub fn parse_answer(body: &[u8]) -> Option<Answer> {
    let v = json::parse(std::str::from_utf8(body).ok()?)?;
    match v.get("type")?.as_str()? {
        "select" => select_rows(&v).map(Answer::Rows),
        "boolean" => match v.get("value")? {
            Json::Bool(b) => Some(Answer::Bool(*b)),
            _ => None,
        },
        _ => None,
    }
}

/// Check one response. Returns the parsed answer of a query (for row
/// counts and the reference sample) or a description of the failure.
pub fn check_response(
    op: &Op,
    status: u16,
    body: &[u8],
    forbidden: Option<&HashSet<String>>,
) -> Result<Option<Answer>, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    if let Expect::Applied(n) = op.expect {
        let v = std::str::from_utf8(body)
            .ok()
            .and_then(json::parse)
            .ok_or("malformed update body")?;
        return match v.get("applied") {
            Some(Json::Num(got)) if *got == n as f64 => Ok(None),
            other => Err(format!("applied {other:?}, expected {n}")),
        };
    }
    let answer = parse_answer(body).ok_or("malformed query body")?;
    if let (Some(forbidden), Answer::Rows(rows)) = (forbidden, &answer) {
        for (_, cell) in rows.iter().flatten() {
            if forbidden.contains(cell) {
                return Err(format!("leaked {cell}"));
            }
        }
    }
    if let Expect::Values { var, values } = &op.expect {
        let Answer::Rows(rows) = &answer else {
            return Err("probe got a boolean".to_string());
        };
        let mut got: Vec<&str> = rows
            .iter()
            .flatten()
            .filter(|(k, _)| k == var)
            .map(|(_, v)| v.as_str())
            .collect();
        got.sort_unstable();
        if got.len() != rows.len() || got != *values {
            return Err(format!("stale probe: got {got:?}, expected {values:?}"));
        }
    }
    Ok(Some(answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Kind;

    fn probe(values: &[&str]) -> Op {
        Op {
            kind: Kind::Probe,
            role: 1,
            body: String::new(),
            expect: Expect::Values {
                var: "r",
                values: values.iter().map(|s| (*s).to_string()).collect(),
            },
        }
    }

    fn read() -> Op {
        Op {
            kind: Kind::Read(crate::schedule::Shape::Point),
            role: 0,
            body: String::new(),
            expect: Expect::Answer,
        }
    }

    #[test]
    fn a_planted_sensitive_literal_is_a_failure() {
        let forbidden: HashSet<String> = ["\"121NR\"".to_string()].into();
        let clean =
            br#"{"type": "select", "vars": ["p", "o"], "rows": [{"p": "<urn:x>", "o": "\"ok\""}]}"#;
        assert!(check_response(&read(), 200, clean, Some(&forbidden)).is_ok());
        let leak = br#"{"type": "select", "vars": ["p", "o"], "rows": [{"p": "<urn:x>", "o": "\"121NR\""}]}"#;
        let err = check_response(&read(), 200, leak, Some(&forbidden)).unwrap_err();
        assert!(err.contains("leaked"), "{err}");
    }

    #[test]
    fn a_stale_probe_value_is_a_failure() {
        let body =
            br#"{"type": "select", "vars": ["r"], "rows": [{"r": "\"a\""}, {"r": "\"b\""}]}"#;
        assert!(check_response(&probe(&["\"a\"", "\"b\""]), 200, body, None).is_ok());
        let err = check_response(&probe(&["\"a\"", "\"c\""]), 200, body, None).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        let err = check_response(&probe(&["\"a\""]), 200, body, None).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn wrong_status_and_malformed_bodies_are_failures() {
        assert!(check_response(&read(), 504, b"{\"error\": \"x\"}", None).is_err());
        assert!(check_response(&read(), 200, b"{\"type\": \"select\"", None).is_err());
        assert!(
            check_response(&read(), 200, b"{\"type\": \"select\", \"rows\": []}", None).is_err()
        );
        let update = Op {
            kind: Kind::Insert,
            role: 2,
            body: String::new(),
            expect: Expect::Applied(1),
        };
        assert!(check_response(&update, 200, b"{\"applied\": 1}", None).is_ok());
        assert!(check_response(&update, 200, b"{\"applied\": 0}", None).is_err());
    }
}
