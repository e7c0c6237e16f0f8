//! JSON request/response codec for the `/v1/localize` endpoint.
//!
//! Request forms (`Content-Type: application/json`):
//!
//! ```json
//! {"model": "vital", "observation": {"device": "BLU", "min": [...], "max": [...], "mean": [...]}}
//! {"model": "vital", "observations": [{...}, {...}]}
//! ```
//!
//! `model` may be omitted when the server hosts exactly one model. Each
//! observation carries the three per-AP RSSI channels the localizers
//! consume; `min`/`max` default to `mean` when omitted (single-sample
//! captures), `device` and `rp_label` are optional metadata.
//!
//! Responses:
//!
//! ```json
//! {"model": "vital", "prediction": 7}
//! {"model": "vital", "predictions": [7, 3], "count": 2}
//! ```

use std::fmt;

use fingerprint::FingerprintObservation;
use jsonio::{Json, JsonError};

/// Upper bound on observations per bulk request, bounding the memory one
/// request can pin while queued.
pub const MAX_BULK_OBSERVATIONS: usize = 1024;

/// Upper bound on a request's `deadline_ms` (24 h) — far beyond any
/// plausible wait, and small enough that deadline arithmetic on the
/// admission `Instant` can never overflow.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Typed failures turning a request body into observations. All map to
/// HTTP 400.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The body was not valid JSON.
    Json(JsonError),
    /// The JSON was valid but did not match the request schema.
    Schema(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Json(e) => write!(f, "invalid JSON body: {e}"),
            CodecError::Schema(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<JsonError> for CodecError {
    fn from(e: JsonError) -> Self {
        CodecError::Json(e)
    }
}

/// A decoded `/v1/localize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeRequest {
    /// Requested model name (`None` = the server's only model).
    pub model: Option<String>,
    /// Observations to localize (exactly one for the single form).
    pub observations: Vec<FingerprintObservation>,
    /// Whether the bulk (`observations`) form was used — controls the
    /// response shape.
    pub bulk: bool,
    /// Per-request deadline in milliseconds from admission (`None` = use
    /// the server's `--default-deadline-ms`). A job still queued past its
    /// deadline is shed with HTTP 504 instead of served late.
    pub deadline_ms: Option<u64>,
}

fn schema(msg: impl Into<String>) -> CodecError {
    CodecError::Schema(msg.into())
}

/// Reads a required array of numbers that are finite as `f32`s.
fn channel(obj: &Json, key: &str, context: &str) -> Result<Option<Vec<f32>>, CodecError> {
    let Some(value) = obj.get(key) else {
        return Ok(None);
    };
    let items = value
        .as_array()
        .ok_or_else(|| schema(format!("{context}: {key:?} must be an array of numbers")))?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        // Checked after the cast: a finite f64 beyond the f32 range (`1e39`)
        // would otherwise reach the model as an infinity.
        let n = item
            .as_f64()
            .map(|n| n as f32)
            .filter(|n| n.is_finite())
            .ok_or_else(|| {
                schema(format!(
                    "{context}: {key}[{i}] must be a finite number within f32 range"
                ))
            })?;
        out.push(n);
    }
    Ok(Some(out))
}

fn observation_from_json(
    value: &Json,
    context: &str,
) -> Result<FingerprintObservation, CodecError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(schema(format!("{context} must be an object")));
    }
    let mean = channel(value, "mean", context)?
        .ok_or_else(|| schema(format!("{context}: missing \"mean\" channel")))?;
    if mean.is_empty() {
        return Err(schema(format!("{context}: \"mean\" must not be empty")));
    }
    let min = channel(value, "min", context)?.unwrap_or_else(|| mean.clone());
    let max = channel(value, "max", context)?.unwrap_or_else(|| mean.clone());
    if min.len() != mean.len() || max.len() != mean.len() {
        return Err(schema(format!(
            "{context}: channel lengths differ (min {}, max {}, mean {})",
            min.len(),
            max.len(),
            mean.len()
        )));
    }
    let device = match value.get("device") {
        None => String::new(),
        Some(d) => d
            .as_str()
            .ok_or_else(|| schema(format!("{context}: \"device\" must be a string")))?
            .to_string(),
    };
    let rp_label = match value.get("rp_label") {
        None => 0,
        Some(l) => l.as_usize().ok_or_else(|| {
            schema(format!(
                "{context}: \"rp_label\" must be a non-negative integer"
            ))
        })?,
    };
    Ok(FingerprintObservation {
        rp_label,
        device,
        min,
        max,
        mean,
    })
}

/// Decodes a `/v1/localize` request body.
///
/// # Errors
/// [`CodecError::Json`] for syntactically invalid bodies, otherwise
/// [`CodecError::Schema`] naming the offending field.
pub fn parse_localize_request(body: &[u8]) -> Result<LocalizeRequest, CodecError> {
    let text = std::str::from_utf8(body).map_err(|_| schema("body is not UTF-8"))?;
    let doc = jsonio::parse(text)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(schema("request body must be a JSON object"));
    }
    let model = match doc.get("model") {
        None | Some(Json::Null) => None,
        Some(m) => Some(
            m.as_str()
                .ok_or_else(|| schema("\"model\" must be a string"))?
                .to_string(),
        ),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(value) => {
            let ms = value
                .as_usize()
                .map(|ms| ms as u64)
                .filter(|ms| (1..=MAX_DEADLINE_MS).contains(ms))
                .ok_or_else(|| {
                    schema(format!(
                        "\"deadline_ms\" must be an integer between 1 and {MAX_DEADLINE_MS}"
                    ))
                })?;
            Some(ms)
        }
    };
    match (doc.get("observation"), doc.get("observations")) {
        (Some(_), Some(_)) => Err(schema(
            "send either \"observation\" or \"observations\", not both",
        )),
        (Some(single), None) => Ok(LocalizeRequest {
            model,
            observations: vec![observation_from_json(single, "observation")?],
            bulk: false,
            deadline_ms,
        }),
        (None, Some(many)) => {
            let items = many
                .as_array()
                .ok_or_else(|| schema("\"observations\" must be an array"))?;
            if items.is_empty() {
                return Err(schema("\"observations\" must not be empty"));
            }
            if items.len() > MAX_BULK_OBSERVATIONS {
                return Err(schema(format!(
                    "bulk request of {} observations exceeds the {MAX_BULK_OBSERVATIONS} limit",
                    items.len()
                )));
            }
            let observations = items
                .iter()
                .enumerate()
                .map(|(i, item)| observation_from_json(item, &format!("observations[{i}]")))
                .collect::<Result<_, _>>()?;
            Ok(LocalizeRequest {
                model,
                observations,
                bulk: true,
                deadline_ms,
            })
        }
        (None, None) => Err(schema("missing \"observation\" or \"observations\"")),
    }
}

/// Encodes an observation as request JSON (used by the load generator and
/// tests; `f32` channels widen losslessly to JSON numbers, so a decoded
/// observation is bit-identical to the encoded one).
pub fn observation_to_json(observation: &FingerprintObservation) -> Json {
    let nums = |v: &[f32]| Json::arr(v.iter().map(|x| Json::from(f64::from(*x))));
    Json::obj([
        ("device", Json::from(observation.device.as_str())),
        ("rp_label", Json::from(observation.rp_label)),
        ("min", nums(&observation.min)),
        ("max", nums(&observation.max)),
        ("mean", nums(&observation.mean)),
    ])
}

/// Builds a bulk request body for `observations` against `model`.
pub fn localize_request_body(
    model: Option<&str>,
    observations: &[FingerprintObservation],
) -> String {
    localize_request_body_with_deadline(model, None, observations)
}

/// [`localize_request_body`] with an optional per-request `deadline_ms`.
pub fn localize_request_body_with_deadline(
    model: Option<&str>,
    deadline_ms: Option<u64>,
    observations: &[FingerprintObservation],
) -> String {
    let mut members = Vec::new();
    if let Some(model) = model {
        members.push(("model", Json::from(model)));
    }
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms", Json::from(ms)));
    }
    members.push((
        "observations",
        Json::arr(observations.iter().map(observation_to_json)),
    ));
    Json::obj(members).to_json_string()
}

/// Builds the success response for a localize request.
pub fn predictions_response(model: &str, predictions: &[usize], bulk: bool) -> Json {
    if bulk {
        Json::obj([
            ("model", Json::from(model)),
            (
                "predictions",
                Json::arr(predictions.iter().map(|p| Json::from(*p))),
            ),
            ("count", Json::from(predictions.len())),
        ])
    } else {
        // Single form: callers pass exactly one prediction; an empty slice
        // degrades to `null` rather than panicking the worker.
        let first = predictions.first().map_or(Json::Null, |p| Json::from(*p));
        Json::obj([("model", Json::from(model)), ("prediction", first)])
    }
}

/// Builds the `{"error": ...}` body used by every non-2xx response.
pub fn error_response(message: &str) -> Json {
    Json::obj([("error", Json::from(message))])
}

/// Extracts the predictions from a response body (single or bulk form) —
/// the client-side inverse of [`predictions_response`].
///
/// # Errors
/// [`CodecError`] when the body is not a valid response document.
pub fn parse_predictions(body: &[u8]) -> Result<Vec<usize>, CodecError> {
    let text = std::str::from_utf8(body).map_err(|_| schema("body is not UTF-8"))?;
    let doc = jsonio::parse(text)?;
    if let Some(single) = doc.get("prediction") {
        let p = single
            .as_usize()
            .ok_or_else(|| schema("\"prediction\" must be a non-negative integer"))?;
        return Ok(vec![p]);
    }
    let items = doc
        .get("predictions")
        .and_then(Json::as_array)
        .ok_or_else(|| schema("missing \"prediction\"/\"predictions\""))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_usize()
                .ok_or_else(|| schema(format!("predictions[{i}] must be a non-negative integer")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(seed: f32) -> FingerprintObservation {
        FingerprintObservation {
            rp_label: 3,
            device: "BLU".into(),
            min: vec![-90.5 + seed, -80.25],
            max: vec![-70.125 + seed, -60.0],
            mean: vec![-80.0 + seed, -70.0625],
        }
    }

    #[test]
    fn observations_round_trip_bit_exactly() {
        let original = obs(0.333);
        let body = localize_request_body(Some("vital"), std::slice::from_ref(&original));
        let decoded = parse_localize_request(body.as_bytes()).unwrap();
        assert_eq!(decoded.model.as_deref(), Some("vital"));
        assert!(decoded.bulk);
        let back = &decoded.observations[0];
        assert_eq!(back.rp_label, original.rp_label);
        assert_eq!(back.device, original.device);
        for (a, b) in [
            (&back.min, &original.min),
            (&back.max, &original.max),
            (&back.mean, &original.mean),
        ] {
            let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn single_form_and_channel_defaults() {
        let body = br#"{"observation": {"mean": [-80, -70.5]}}"#;
        let req = parse_localize_request(body).unwrap();
        assert!(!req.bulk);
        assert_eq!(req.model, None);
        let o = &req.observations[0];
        assert_eq!(o.min, o.mean);
        assert_eq!(o.max, o.mean);
        assert_eq!(o.device, "");
        assert_eq!(o.rp_label, 0);
    }

    #[test]
    fn schema_violations_are_typed_and_named() {
        let cases: &[(&[u8], &str)] = &[
            (b"[1,2]", "must be a JSON object"),
            (b"{}", "missing \"observation\""),
            (br#"{"observation": {"mean": []}}"#, "must not be empty"),
            (br#"{"observations": []}"#, "must not be empty"),
            (
                br#"{"observation": {"mean": [1], "min": [1, 2]}}"#,
                "channel lengths differ",
            ),
            (br#"{"observation": {"mean": ["x"]}}"#, "finite number"),
            (
                br#"{"observation": {"mean": [1e39]}}"#,
                "mean[0] must be a finite",
            ),
            (
                br#"{"observation": {"mean": [1], "max": [-1e39]}}"#,
                "max[0] must be a finite",
            ),
            (
                br#"{"model": 7, "observation": {"mean": [1]}}"#,
                "\"model\" must be a string",
            ),
            (
                br#"{"observation": {"mean": [1]}, "observations": []}"#,
                "not both",
            ),
        ];
        for (body, needle) in cases {
            match parse_localize_request(body) {
                Err(CodecError::Schema(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                }
                other => panic!("expected schema error for {body:?}, got {other:?}"),
            }
        }
        assert!(matches!(
            parse_localize_request(b"{not json"),
            Err(CodecError::Json(_))
        ));
    }

    #[test]
    fn values_at_the_edge_of_f32_range_stay_finite() {
        // The largest f32 survives the f64 -> f32 cast; just past the
        // range a value would round to infinity and is refused above.
        let body = format!(r#"{{"observation": {{"mean": [{}, -1e-45]}}}}"#, f32::MAX);
        let req = parse_localize_request(body.as_bytes()).expect("in range");
        assert_eq!(req.observations[0].mean, vec![f32::MAX, -1e-45]);
        assert!(req.observations[0].mean.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deadline_ms_round_trips_and_is_validated() {
        let body = localize_request_body_with_deadline(
            Some("vital"),
            Some(250),
            std::slice::from_ref(&obs(0.0)),
        );
        let req = parse_localize_request(body.as_bytes()).unwrap();
        assert_eq!(req.deadline_ms, Some(250));

        // Omitted → None (server default applies downstream).
        let body = localize_request_body(Some("vital"), std::slice::from_ref(&obs(0.0)));
        let req = parse_localize_request(body.as_bytes()).unwrap();
        assert_eq!(req.deadline_ms, None);

        // Zero, negative, fractional and absurd values are 400s.
        for bad in [
            r#"{"deadline_ms": 0, "observation": {"mean": [1]}}"#,
            r#"{"deadline_ms": -5, "observation": {"mean": [1]}}"#,
            r#"{"deadline_ms": 1.5, "observation": {"mean": [1]}}"#,
            r#"{"deadline_ms": 86400001, "observation": {"mean": [1]}}"#,
            r#"{"deadline_ms": "soon", "observation": {"mean": [1]}}"#,
        ] {
            match parse_localize_request(bad.as_bytes()) {
                Err(CodecError::Schema(msg)) => {
                    assert!(msg.contains("deadline_ms"), "{msg:?} for {bad}")
                }
                other => panic!("expected schema error for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bulk_limit_is_enforced() {
        let one = r#"{"mean": [1]}"#;
        let many = vec![one; MAX_BULK_OBSERVATIONS + 1].join(",");
        let body = format!(r#"{{"observations": [{many}]}}"#);
        match parse_localize_request(body.as_bytes()) {
            Err(CodecError::Schema(msg)) => assert!(msg.contains("exceeds")),
            other => panic!("expected bulk-limit error, got {other:?}"),
        }
    }

    #[test]
    fn responses_parse_back() {
        let bulk = predictions_response("vital", &[3, 1, 4], true).to_json_string();
        assert_eq!(parse_predictions(bulk.as_bytes()).unwrap(), vec![3, 1, 4]);
        let single = predictions_response("vital", &[9], false).to_json_string();
        assert_eq!(parse_predictions(single.as_bytes()).unwrap(), vec![9]);
        assert!(parse_predictions(b"{}").is_err());
    }
}
