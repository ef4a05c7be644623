//! Answer checks. Every answer is held to properties the method must
//! have (§3.2, §4.2); German-syn answers are also held to exact SCM
//! ground truth. A failed check is a failed operation.

use crate::workload::Truth;
use lewis_core::{Engine, ExplainRequest, ExplainResponse, Scores};
use lewis_serve::wire::{self, Json};
use tabular::{AttrId, Value};

/// How a served answer was classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A 200 whose answer passed every check.
    Answered,
    /// A typed 422 the paper's semantics allow (`unsupported`,
    /// `no_recourse`): counted as answered.
    Declined(&'static str),
    /// A 5xx, an untyped error, an undecodable body or a failed check.
    Failed(String),
}

/// What the checks need to know about the served engine.
pub struct Shape {
    pub features: Vec<AttrId>,
    pub cardinalities: Vec<usize>,
    pub pred: AttrId,
}

impl Shape {
    pub fn of(engine: &Engine) -> Shape {
        let schema = engine.table().schema();
        Shape {
            features: engine.features().to_vec(),
            cardinalities: schema
                .attr_ids()
                .map(|a| schema.cardinality(a).expect("attribute in schema"))
                .collect(),
            pred: engine.estimator().pred_attr(),
        }
    }
}

/// Classify one HTTP answer to `request`.
pub fn verdict(shape: &Shape, request: &ExplainRequest, status: u16, body: &[u8]) -> Verdict {
    let json = match std::str::from_utf8(body).ok().map(Json::parse) {
        Some(Ok(json)) => json,
        _ => return Verdict::Failed(format!("status {status}: undecodable body")),
    };
    match status {
        200 => match wire::response_from_json(&json) {
            Ok(response) => match check_answer(shape, request, &response) {
                Ok(()) => Verdict::Answered,
                Err(e) => Verdict::Failed(e),
            },
            Err(e) => Verdict::Failed(format!("undecodable answer: {e}")),
        },
        422 => match wire::error_from_json(&json).map(|e| e.code) {
            Ok(code) if code == "unsupported" => Verdict::Declined("unsupported"),
            Ok(code) if code == "no_recourse" => Verdict::Declined("no_recourse"),
            other => Verdict::Failed(format!("422 with {other:?}")),
        },
        _ => Verdict::Failed(format!("status {status}: {}", json.to_json())),
    }
}

fn unit(what: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{what} = {x} lies outside [0, 1]"))
    }
}

fn scores_in_unit(what: &str, s: &Scores) -> Result<(), String> {
    unit(&format!("{what} NEC"), s.necessity)?;
    unit(&format!("{what} SUF"), s.sufficiency)?;
    unit(&format!("{what} NESUF"), s.nesuf)
}

/// The properties every answer must have.
pub fn check_answer(
    shape: &Shape,
    request: &ExplainRequest,
    response: &ExplainResponse,
) -> Result<(), String> {
    match (request, response) {
        (ExplainRequest::Global, ExplainResponse::Global(g)) => {
            check_ranking(shape, &tabular::Context::empty(), g)
        }
        (ExplainRequest::ContextualGlobal { k }, ExplainResponse::Global(g)) => {
            check_ranking(shape, k, g)
        }
        (ExplainRequest::Contextual { attr, k }, ExplainResponse::Contextual(c)) => {
            if c.attr != *attr || c.context != *k {
                return Err(format!(
                    "contextual answer for {} in {:?}",
                    c.attr, c.context
                ));
            }
            scores_in_unit(&format!("{attr}"), &c.scores)
        }
        (ExplainRequest::Local { row }, ExplainResponse::Local(l)) => {
            if l.outcome != row[shape.pred.index()] {
                return Err(format!(
                    "local outcome {} does not echo the row's prediction {}",
                    l.outcome,
                    row[shape.pred.index()]
                ));
            }
            let mut attrs: Vec<AttrId> = l.contributions.iter().map(|c| c.attr).collect();
            attrs.sort();
            let mut want = shape.features.clone();
            want.sort();
            if attrs != want {
                return Err(format!("local contributions cover {attrs:?}, not {want:?}"));
            }
            for c in &l.contributions {
                unit(&format!("{} positive", c.attr), c.positive)?;
                unit(&format!("{} negative", c.attr), c.negative)?;
                if c.value != row[c.attr.index()] {
                    return Err(format!("{} contribution for value {}", c.attr, c.value));
                }
            }
            Ok(())
        }
        (
            ExplainRequest::Recourse {
                row,
                actionable,
                opts,
            },
            ExplainResponse::Recourse(r),
        ) => check_recourse(shape, row, actionable, opts.alpha, r),
        _ => Err("answer kind does not match the request".into()),
    }
}

/// A ranking lists each free feature once, sorted by NESUF with the
/// attribute-id tie-break, every score in [0, 1].
fn check_ranking(
    shape: &Shape,
    k: &tabular::Context,
    g: &lewis_core::GlobalExplanation,
) -> Result<(), String> {
    let mut listed: Vec<AttrId> = g.attributes.iter().map(|a| a.attr).collect();
    listed.sort();
    let mut free: Vec<AttrId> = shape
        .features
        .iter()
        .copied()
        .filter(|a| !k.constrains(*a))
        .collect();
    free.sort();
    if listed != free {
        return Err(format!(
            "ranking lists {listed:?}, free features are {free:?}"
        ));
    }
    for a in &g.attributes {
        scores_in_unit(&format!("{}", a.attr), &a.scores)?;
    }
    for w in g.attributes.windows(2) {
        let (x, y) = (&w[0], &w[1]);
        let ordered = x.scores.nesuf > y.scores.nesuf
            || (x.scores.nesuf == y.scores.nesuf && x.attr < y.attr);
        if !ordered {
            return Err(format!(
                "ranking not sorted: {} ({}) before {} ({})",
                x.attr, x.scores.nesuf, y.attr, y.scores.nesuf
            ));
        }
    }
    Ok(())
}

fn check_recourse(
    shape: &Shape,
    row: &[Value],
    actionable: &[AttrId],
    alpha: f64,
    r: &lewis_core::Recourse,
) -> Result<(), String> {
    let mut cost = 0.0;
    for a in &r.actions {
        if !actionable.contains(&a.attr) {
            return Err(format!("action on non-actionable attribute {}", a.attr));
        }
        if a.from != row[a.attr.index()] {
            return Err(format!(
                "action on {} starts from {}, row has {}",
                a.attr,
                a.from,
                row[a.attr.index()]
            ));
        }
        if a.to as usize >= shape.cardinalities[a.attr.index()] {
            return Err(format!("action on {} leaves the domain: {}", a.attr, a.to));
        }
        cost += a.cost;
    }
    if (cost - r.total_cost).abs() > 1e-9 * cost.abs().max(1.0) {
        return Err(format!(
            "total_cost {} is not the action sum {cost}",
            r.total_cost
        ));
    }
    if let Some(s) = r.verified_sufficiency {
        if s < alpha {
            return Err(format!("verified sufficiency {s} is below alpha {alpha}"));
        }
    }
    Ok(())
}

/// The scores an answer gives each attribute.
fn answered_scores(response: &ExplainResponse) -> Vec<(AttrId, Scores)> {
    match response {
        ExplainResponse::Global(g) => g.attributes.iter().map(|a| (a.attr, a.scores)).collect(),
        ExplainResponse::Contextual(c) => vec![(c.attr, c.scores)],
        _ => Vec::new(),
    }
}

/// Every score of `response` lies within its tolerance of the exact
/// SCM value.
pub fn check_truth(truth: &Truth, response: &ExplainResponse) -> Result<(), String> {
    let got = answered_scores(response);
    for (attr, exact, tol) in &truth.expected {
        let Some((_, s)) = got.iter().find(|(a, _)| a == attr) else {
            return Err(format!("{attr} missing from the answer"));
        };
        for (what, est, want) in [
            ("NEC", s.necessity, exact.necessity),
            ("SUF", s.sufficiency, exact.sufficiency),
            ("NESUF", s.nesuf, exact.nesuf),
        ] {
            if (est - want).abs() > *tol {
                return Err(format!(
                    "{attr} {what} = {est:.4}, ground truth {want:.4} (tolerance {tol:.4})"
                ));
            }
        }
    }
    Ok(())
}

/// The in-process answer to `request`, through the wire codec, as the
/// server would frame it: `(status, body)`.
pub fn in_process(engine: &Engine, request: &ExplainRequest) -> (u16, String) {
    match engine.run(request) {
        Ok(response) => (200, wire::response_to_json(&response).to_json()),
        Err(e) => (wire::error_status(&e), wire::error_to_json(&e).to_json()),
    }
}

/// An HTTP answer equals an in-process one (see [`in_process`]), byte
/// for byte after re-encoding.
pub fn same_answer(want: &(u16, String), status: u16, body: &[u8]) -> Result<(), String> {
    let got = std::str::from_utf8(body)
        .ok()
        .and_then(|b| Json::parse(b).ok())
        .map(|j| j.to_json())
        .unwrap_or_default();
    if status != want.0 || got != want.1 {
        return Err(format!(
            "HTTP answer ({status}) differs from in-process ({})",
            want.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tolerance;
    use lewis_core::{Action, Recourse};
    use lewis_serve::EngineRegistry;
    use std::sync::Arc;
    use tabular::Context;

    fn engine() -> Arc<Engine> {
        let mut registry = EngineRegistry::new();
        registry.load_builtin("german_syn", 3000, 5).unwrap();
        registry.get("german_syn").unwrap().engine()
    }

    fn answer(engine: &Engine, request: &ExplainRequest) -> ExplainResponse {
        engine.run(request).unwrap()
    }

    #[test]
    fn honest_answers_pass() {
        let e = engine();
        let shape = Shape::of(&e);
        let row = e.table().row(0).unwrap();
        for request in [
            ExplainRequest::Global,
            ExplainRequest::ContextualGlobal {
                k: Context::of([(AttrId(0), row[0])]),
            },
            ExplainRequest::Contextual {
                attr: AttrId(2),
                k: Context::of([(AttrId(0), row[0])]),
            },
            ExplainRequest::Local { row: row.clone() },
        ] {
            let (status, body) = in_process(&e, &request);
            assert_eq!(
                verdict(&shape, &request, status, body.as_bytes()),
                Verdict::Answered
            );
        }
    }

    #[test]
    fn a_score_outside_the_unit_interval_is_rejected() {
        let e = engine();
        let request = ExplainRequest::Contextual {
            attr: AttrId(2),
            k: Context::empty(),
        };
        let mut response = answer(&e, &request);
        if let ExplainResponse::Contextual(c) = &mut response {
            c.scores.nesuf = 1.2;
        }
        let err = check_answer(&Shape::of(&e), &request, &response).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn an_unsorted_ranking_is_rejected() {
        let e = engine();
        let mut response = answer(&e, &ExplainRequest::Global);
        if let ExplainResponse::Global(g) = &mut response {
            g.attributes.swap(0, 1);
        }
        let err = check_answer(&Shape::of(&e), &ExplainRequest::Global, &response).unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
        // a duplicated feature is rejected too
        let mut response = answer(&e, &ExplainRequest::Global);
        if let ExplainResponse::Global(g) = &mut response {
            let first = g.attributes[0].clone();
            g.attributes[1] = first;
        }
        assert!(check_answer(&Shape::of(&e), &ExplainRequest::Global, &response).is_err());
    }

    #[test]
    fn an_action_on_a_non_actionable_attribute_is_rejected() {
        let e = engine();
        let shape = Shape::of(&e);
        let row = e.table().row(0).unwrap();
        let actionable = vec![AttrId(2), AttrId(3)];
        let request = ExplainRequest::Recourse {
            row: row.clone(),
            actionable: actionable.clone(),
            opts: lewis_core::RecourseOptions::default(),
        };
        let action = |attr: AttrId| Action {
            attr,
            name: String::new(),
            from: row[attr.index()],
            to: 0,
            from_label: String::new(),
            to_label: String::new(),
            cost: 1.0,
        };
        let honest = Recourse {
            actions: vec![action(AttrId(2))],
            total_cost: 1.0,
            verified_sufficiency: Some(0.9),
            surrogate_probability: 0.9,
            n_constraints: 1,
        };
        check_answer(&shape, &request, &ExplainResponse::Recourse(honest.clone())).unwrap();
        let mut bad = honest.clone();
        bad.actions = vec![action(AttrId(1))];
        let err = check_answer(&shape, &request, &ExplainResponse::Recourse(bad)).unwrap_err();
        assert!(err.contains("non-actionable"), "{err}");
        let mut bad = honest.clone();
        bad.total_cost = 2.0;
        assert!(check_answer(&shape, &request, &ExplainResponse::Recourse(bad)).is_err());
        let mut bad = honest.clone();
        bad.actions[0].to = 99;
        assert!(check_answer(&shape, &request, &ExplainResponse::Recourse(bad)).is_err());
        let mut bad = honest;
        bad.verified_sufficiency = Some(0.5);
        assert!(check_answer(&shape, &request, &ExplainResponse::Recourse(bad)).is_err());
    }

    #[test]
    fn a_ground_truth_miss_is_rejected() {
        let e = engine();
        let request = ExplainRequest::Contextual {
            attr: AttrId(2),
            k: Context::empty(),
        };
        let response = answer(&e, &request);
        let ExplainResponse::Contextual(c) = &response else {
            unreachable!()
        };
        let tol = tolerance(&[3000]);
        let truth = |shift: f64| Truth {
            request: request.clone(),
            expected: vec![(
                AttrId(2),
                Scores {
                    necessity: c.scores.necessity + shift,
                    sufficiency: c.scores.sufficiency,
                    nesuf: c.scores.nesuf,
                },
                tol,
            )],
        };
        check_truth(&truth(tol / 2.0), &response).unwrap();
        let err = check_truth(&truth(2.0 * tol), &response).unwrap_err();
        assert!(err.contains("ground truth"), "{err}");
    }

    #[test]
    fn typed_422s_are_declined_and_5xx_fail() {
        let e = engine();
        let shape = Shape::of(&e);
        let request = ExplainRequest::Global;
        let body = r#"{"error":{"code":"unsupported","message":"no rows"}}"#;
        assert_eq!(
            verdict(&shape, &request, 422, body.as_bytes()),
            Verdict::Declined("unsupported")
        );
        let body = r#"{"error":{"code":"ml","message":"boom"}}"#;
        assert!(matches!(
            verdict(&shape, &request, 500, body.as_bytes()),
            Verdict::Failed(_)
        ));
        assert!(matches!(
            verdict(&shape, &request, 200, b"{"),
            Verdict::Failed(_)
        ));
    }
}
