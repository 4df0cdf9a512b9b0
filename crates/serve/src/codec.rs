//! The predict JSON codec: wire format of `POST /v1/predict`.
//!
//! Scenes travel in the *normalized* frame the model consumes (focal's
//! last observed position at the origin), exactly as [`TrajWindow`]
//! stores them, so encode→decode is an identity on window contents —
//! including f32 bit patterns: coordinates are printed as shortest
//! round-trip f64 (`adaptraj_obs::json::push_f64`), and f32→f64→text→
//! f64→f32 is exact.
//!
//! Decode is strict: protocol horizons are enforced (`obs` must be
//! exactly `T_OBS` points, `fut` empty or exactly `T_PRED`), and every
//! coordinate must be finite — NaN/Inf never reach the tape, where the
//! health tripwires would otherwise fire server-side (a request bug must
//! be a `400`, not an incident).

use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED};
use adaptraj_obs::json::{Arr, Obj, Value, MAX_SAFE_INTEGER};

/// Upper bound on neighbors per scene: a request is a single camera
/// scene, not a crowd dump; this bounds per-request work.
pub const MAX_NEIGHBORS: usize = 256;

/// Hard cap on best-of-k samples per request.
pub const MAX_K: usize = 20;

/// A decoded predict request.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    pub window: TrajWindow,
    /// Rng seed for the per-window sample stream; the same seed replayed
    /// through the offline path (`Predictor::predict_k`) reproduces the
    /// served trajectories bit for bit.
    pub seed: u64,
    /// Number of sampled modes (best-of-k), `1..=MAX_K`.
    pub k: usize,
}

/// Structured decode error: `code` is machine-readable and stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    pub code: &'static str,
    pub message: String,
}

fn err(code: &'static str, message: impl Into<String>) -> CodecError {
    CodecError {
        code,
        message: message.into(),
    }
}

fn point_json(p: Point) -> String {
    Arr::new()
        .push_f64(p[0] as f64)
        .push_f64(p[1] as f64)
        .finish()
}

fn track_json(track: &[Point]) -> String {
    let mut a = Arr::new();
    for &p in track {
        a = a.push_raw(&point_json(p));
    }
    a.finish()
}

/// Encodes a normalized window as the `scene` object of the wire format.
pub fn encode_scene(w: &TrajWindow) -> String {
    let mut neighbors = Arr::new();
    for n in &w.neighbors {
        neighbors = neighbors.push_raw(&track_json(n));
    }
    Obj::new()
        .str("domain", w.domain.tag())
        .raw("obs", &track_json(&w.obs))
        .raw("fut", &track_json(&w.fut))
        .raw("neighbors", &neighbors.finish())
        .raw("origin", &point_json(w.origin))
        .finish()
}

/// Encodes a full predict request body.
pub fn encode_request(w: &TrajWindow, seed: u64, k: usize) -> String {
    Obj::new()
        .raw("scene", &encode_scene(w))
        .u64("seed", seed)
        .u64("k", k as u64)
        .finish()
}

fn decode_point(v: &Value, what: &str) -> Result<Point, CodecError> {
    let items = v
        .as_array()
        .ok_or_else(|| err("invalid_scene", format!("{what} must be a [x, y] array")))?;
    if items.len() != 2 {
        return Err(err(
            "invalid_scene",
            format!(
                "{what} must have exactly 2 coordinates, got {}",
                items.len()
            ),
        ));
    }
    let mut p = [0.0f32; 2];
    for (i, item) in items.iter().enumerate() {
        let x = item.as_f64().ok_or_else(|| {
            err(
                "invalid_scene",
                format!("{what} coordinate {i} must be a number"),
            )
        })?;
        if !x.is_finite() {
            return Err(err(
                "non_finite",
                format!("{what} coordinate {i} is not finite"),
            ));
        }
        let xf = x as f32;
        if !xf.is_finite() {
            return Err(err(
                "non_finite",
                format!("{what} coordinate {i} overflows f32"),
            ));
        }
        p[i] = xf;
    }
    Ok(p)
}

fn decode_track(v: &Value, what: &str, want_len: usize) -> Result<Vec<Point>, CodecError> {
    let items = v.as_array().ok_or_else(|| {
        err(
            "invalid_scene",
            format!("{what} must be an array of points"),
        )
    })?;
    if items.len() != want_len {
        return Err(err(
            "invalid_scene",
            format!("{what} must have {want_len} points, got {}", items.len()),
        ));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, p)| decode_point(p, &format!("{what}[{i}]")))
        .collect()
}

/// Decodes the `scene` object into a normalized window. `fut` and
/// `origin` are optional (a live request has no ground-truth future);
/// an absent or empty `fut` decodes as `T_PRED` zeros.
pub fn decode_scene(v: &Value) -> Result<TrajWindow, CodecError> {
    let tag = v
        .get("domain")
        .and_then(|d| d.as_str())
        .ok_or_else(|| err("invalid_scene", "scene.domain (string) is required"))?;
    let domain = DomainId::from_tag(tag).ok_or_else(|| {
        err(
            "unknown_domain",
            format!(
                "unknown domain '{}' (expected eth_ucy | l_cas | syi | sdd)",
                tag.to_ascii_lowercase()
            ),
        )
    })?;
    let obs = decode_track(
        v.get("obs")
            .ok_or_else(|| err("invalid_scene", "scene.obs is required"))?,
        "scene.obs",
        T_OBS,
    )?;
    let fut = match v.get("fut") {
        None => vec![[0.0, 0.0]; T_PRED],
        Some(f) => {
            let items = f
                .as_array()
                .ok_or_else(|| err("invalid_scene", "scene.fut must be an array of points"))?;
            if items.is_empty() {
                vec![[0.0, 0.0]; T_PRED]
            } else {
                decode_track(f, "scene.fut", T_PRED)?
            }
        }
    };
    let neighbors = match v.get("neighbors") {
        None => Vec::new(),
        Some(n) => {
            let items = n.as_array().ok_or_else(|| {
                err(
                    "invalid_scene",
                    "scene.neighbors must be an array of tracks",
                )
            })?;
            if items.len() > MAX_NEIGHBORS {
                return Err(err(
                    "invalid_scene",
                    format!(
                        "at most {MAX_NEIGHBORS} neighbors per scene, got {}",
                        items.len()
                    ),
                ));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, t)| decode_track(t, &format!("scene.neighbors[{i}]"), T_OBS))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let origin = match v.get("origin") {
        None => [0.0, 0.0],
        Some(o) => decode_point(o, "scene.origin")?,
    };
    Ok(TrajWindow {
        obs,
        fut,
        neighbors,
        domain,
        origin,
    })
}

/// Decodes a full predict request body. `seed` is required (it is the
/// reproducibility contract); `k` defaults to 1.
pub fn decode_request(body: &str) -> Result<PredictRequest, CodecError> {
    let v =
        Value::parse(body).map_err(|e| err("invalid_json", format!("body is not JSON: {e}")))?;
    let scene = v
        .get("scene")
        .ok_or_else(|| err("invalid_scene", "request.scene is required"))?;
    let window = decode_scene(scene)?;
    let seed = v
        .get("seed")
        .ok_or_else(|| err("invalid_request", "request.seed is required"))?
        .as_u64()
        .ok_or_else(|| {
            err(
                "invalid_request",
                format!(
                    "request.seed must be an unsigned integer no greater than \
                     2^53-1 ({MAX_SAFE_INTEGER}); larger JSON numbers lose precision"
                ),
            )
        })?;
    let k = match v.get("k") {
        None => 1,
        Some(kv) => kv
            .as_u64()
            .ok_or_else(|| err("invalid_request", "request.k must be an unsigned integer"))?
            as usize,
    };
    if k == 0 || k > MAX_K {
        return Err(err(
            "invalid_request",
            format!("request.k must be in 1..={MAX_K}, got {k}"),
        ));
    }
    Ok(PredictRequest { window, seed, k })
}

/// Encodes mode trajectories as the `modes` array of the response (also
/// the golden-file format `serve_gate` pins CI against).
pub fn encode_modes(modes: &[Vec<Point>]) -> String {
    let mut arr = Arr::new();
    for m in modes {
        arr = arr.push_raw(&mode_json(m));
    }
    arr.finish()
}

/// Per-mode metadata alongside each sampled trajectory.
fn mode_json(trajectory: &[Point]) -> String {
    let end = trajectory.last().copied().unwrap_or([0.0, 0.0]);
    let displacement = (end[0] as f64).hypot(end[1] as f64);
    Obj::new()
        .raw("trajectory", &track_json(trajectory))
        .raw("endpoint", &point_json(end))
        .f64("displacement", displacement)
        .finish()
}

/// [`encode_response_with_id`] for a response with no request id
/// (`request_id` 0; the server numbers requests from 1).
pub fn encode_response(
    model: &str,
    version: u64,
    seed: u64,
    modes: &[Vec<Point>],
    batch_windows: usize,
    queue_ms: f64,
    exec_ms: f64,
) -> String {
    encode_response_with_id(
        0,
        model,
        version,
        seed,
        modes,
        batch_windows,
        queue_ms,
        exec_ms,
    )
}

/// Encodes a successful predict response: the k sampled modes (in sample
/// order — mode `s` is the model's s-th draw from the request seed) plus
/// serving metadata. `request_id` is the id the request's window carried
/// in its job's `WindowBatch`; the job's `serve_exec` span names its first
/// request, so a response can be found in `/timeline`.
#[allow(clippy::too_many_arguments)]
pub fn encode_response_with_id(
    request_id: u64,
    model: &str,
    version: u64,
    seed: u64,
    modes: &[Vec<Point>],
    batch_windows: usize,
    queue_ms: f64,
    exec_ms: f64,
) -> String {
    Obj::new()
        .str("schema", "adaptraj-serve/v1")
        .u64("request_id", request_id)
        .str("model", model)
        .u64("version", version)
        .u64("seed", seed)
        .u64("k", modes.len() as u64)
        .raw("modes", &encode_modes(modes))
        .u64("batch_windows", batch_windows as u64)
        .f64("queue_ms", queue_ms)
        .f64("exec_ms", exec_ms)
        .finish()
}

/// Extracts the mode trajectories from a response document (the inverse
/// of [`encode_response`], used by tests and `serve_gate`).
pub fn decode_response_modes(body: &str) -> Result<Vec<Vec<Point>>, CodecError> {
    let v = Value::parse(body).map_err(|e| err("invalid_json", format!("bad response: {e}")))?;
    let modes = v
        .get("modes")
        .and_then(|m| m.as_array())
        .ok_or_else(|| err("invalid_response", "response.modes missing"))?;
    modes
        .iter()
        .enumerate()
        .map(|(i, m)| {
            decode_track(
                m.get("trajectory").ok_or_else(|| {
                    err("invalid_response", format!("modes[{i}].trajectory missing"))
                })?,
                &format!("modes[{i}].trajectory"),
                T_PRED,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_window() -> TrajWindow {
        TrajWindow {
            obs: (0..T_OBS)
                .map(|t| [0.25 * t as f32 - 1.75, 0.125 * t as f32])
                .collect(),
            fut: (0..T_PRED)
                .map(|t| [0.3 * t as f32, -0.1 * t as f32])
                .collect(),
            neighbors: vec![(0..T_OBS).map(|t| [1.0 + 0.1 * t as f32, -0.5]).collect()],
            domain: DomainId::LCas,
            origin: [13.25, -2.5],
        }
    }

    #[test]
    fn scene_round_trips_bit_exactly() {
        let w = sample_window();
        let json = encode_scene(&w);
        let v = Value::parse(&json).unwrap();
        let back = decode_scene(&v).unwrap();
        assert_eq!(back.domain, w.domain);
        assert_eq!(back.obs, w.obs);
        assert_eq!(back.fut, w.fut);
        assert_eq!(back.neighbors, w.neighbors);
        assert_eq!(back.origin, w.origin);
    }

    #[test]
    fn request_decode_defaults_and_validation() {
        let w = sample_window();
        let body = encode_request(&w, 99, 3);
        let req = decode_request(&body).unwrap();
        assert_eq!(req.seed, 99);
        assert_eq!(req.k, 3);

        // k defaults to 1; seed is required.
        let no_k = Obj::new()
            .raw("scene", &encode_scene(&w))
            .u64("seed", 7)
            .finish();
        assert_eq!(decode_request(&no_k).unwrap().k, 1);
        let no_seed = Obj::new().raw("scene", &encode_scene(&w)).finish();
        assert_eq!(
            decode_request(&no_seed).unwrap_err().code,
            "invalid_request"
        );

        // Seeds must survive the f64 parse exactly: 2^53-1 is the largest
        // accepted; 2^53+1 (parses as 2^53) and 2^64 are refused, naming
        // the limit, instead of reaching the model as a different seed.
        let with_seed = |seed: &str| {
            let scene = encode_scene(&w);
            format!(r#"{{"scene":{scene},"seed":{seed}}}"#)
        };
        assert_eq!(
            decode_request(&with_seed("9007199254740991")).unwrap().seed,
            MAX_SAFE_INTEGER
        );
        for seed in ["9007199254740993", "18446744073709551616"] {
            let e = decode_request(&with_seed(seed)).unwrap_err();
            assert_eq!(e.code, "invalid_request", "{seed}");
            assert!(e.message.contains("9007199254740991"), "{}", e.message);
        }

        let big_k = Obj::new()
            .raw("scene", &encode_scene(&w))
            .u64("seed", 7)
            .u64("k", 999)
            .finish();
        assert_eq!(decode_request(&big_k).unwrap_err().code, "invalid_request");
    }

    #[test]
    fn decode_rejects_non_finite_coordinates() {
        // JSON has no NaN literal, but huge exponents parse to +Inf.
        let body = r#"{"scene":{"domain":"syi","obs":[[1e999,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]},"seed":1}"#;
        let e = decode_request(body).unwrap_err();
        assert_eq!(e.code, "non_finite");
        // f64 values beyond f32 range are rejected too, not squashed.
        let body = r#"{"scene":{"domain":"syi","obs":[[1e60,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]},"seed":1}"#;
        assert_eq!(decode_request(body).unwrap_err().code, "non_finite");
    }

    #[test]
    fn decode_enforces_protocol_horizons() {
        let body = r#"{"scene":{"domain":"sdd","obs":[[0,0]]},"seed":1}"#;
        let e = decode_request(body).unwrap_err();
        assert_eq!(e.code, "invalid_scene");
        assert!(e.message.contains("8 points"), "{}", e.message);
    }

    #[test]
    fn empty_future_decodes_to_zeros() {
        let mut w = sample_window();
        w.fut.clear();
        let json = encode_scene(&w);
        let back = decode_scene(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back.fut, vec![[0.0f32, 0.0f32]; T_PRED]);
    }

    #[test]
    fn response_modes_round_trip() {
        let modes: Vec<Vec<Point>> = (0..3)
            .map(|s| {
                (0..T_PRED)
                    .map(|t| [s as f32 + 0.1 * t as f32, -(t as f32)])
                    .collect()
            })
            .collect();
        let body = encode_response_with_id(17, "PECNet-vanilla", 2, 42, &modes, 4, 0.8, 1.6);
        let back = decode_response_modes(&body).unwrap();
        assert_eq!(back, modes);
        let v = Value::parse(&body).unwrap();
        assert_eq!(v.get("request_id").unwrap().as_u64(), Some(17));
        let unnumbered = encode_response("PECNet-vanilla", 2, 42, &modes, 4, 0.8, 1.6);
        let v = Value::parse(&unnumbered).unwrap();
        assert_eq!(v.get("request_id").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("batch_windows").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("model").unwrap().as_str(), Some("PECNet-vanilla"));
    }
}
