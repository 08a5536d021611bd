//! Versioned request/response wire schema.
//!
//! Documents are plain JSON with manual serde (the same pattern as the
//! run ledger): every document carries a `schema_version`, decoding
//! rejects versions it does not know with a clean error instead of
//! guessing, and optional response blocks are omitted — not null — so
//! stored response bytes never change shape retroactively.

use serde::{Content, DeError, Deserialize, Serialize};
use std::time::Duration;
use topogen_core::zoo::{Scale, TopologySpec};
use topogen_generators::plrg::PlrgParams;
use topogen_metrics::CurvePoint;

/// Current wire schema version. Bump on any incompatible change to the
/// request or response document shape.
pub const WIRE_VERSION: u64 = 1;

/// The metric names a request may ask for.
pub const KNOWN_METRICS: [&str; 5] = [
    "expansion",
    "resilience",
    "distortion",
    "signature",
    "hierarchy",
];

/// Default metric set when the request omits `metrics`: the three basic
/// curves plus the signature (hierarchy is opt-in — the link-value
/// analysis is a separate, heavier pipeline). Kept sorted, matching the
/// normalization `from_json` applies.
pub const DEFAULT_METRICS: [&str; 4] = ["distortion", "expansion", "resilience", "signature"];

/// A decode failure with enough context for an HTTP error reply.
#[derive(Clone, Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<DeError> for WireError {
    fn from(e: DeError) -> Self {
        WireError(e.0)
    }
}

/// One generate+measure request.
#[derive(Clone, Debug)]
pub struct MeasureRequest {
    /// The topology to build.
    pub spec: TopologySpec,
    /// Master seed (the daemon derives the suite seed exactly as the
    /// batch CLI does, so responses match batch artifacts bit-for-bit).
    pub seed: u64,
    /// Topology scale.
    pub scale: Scale,
    /// Requested metric names (validated subset of [`KNOWN_METRICS`],
    /// sorted + deduplicated so equivalent requests share a cache key).
    pub metrics: Vec<String>,
    /// Thorough (figure-quality) vs quick sampling budgets.
    pub thorough: bool,
    /// Per-request deadline in seconds; `None` uses the daemon default.
    pub deadline_secs: Option<f64>,
    /// Stream progress events as NDJSON before the final result line.
    pub stream: bool,
}

impl MeasureRequest {
    /// A quick request for `spec` with the default metric set.
    pub fn new(spec: TopologySpec, seed: u64, scale: Scale) -> Self {
        MeasureRequest {
            spec,
            seed,
            scale,
            metrics: DEFAULT_METRICS.iter().map(|m| m.to_string()).collect(),
            thorough: false,
            deadline_secs: None,
            stream: false,
        }
    }

    /// Whether `metric` was requested.
    pub fn wants(&self, metric: &str) -> bool {
        self.metrics.iter().any(|m| m == metric)
    }

    /// Parse a request document, rejecting unknown schema versions and
    /// malformed fields with a clean error.
    pub fn from_json(text: &str) -> Result<MeasureRequest, WireError> {
        let c: Content =
            serde_json::from_str(text).map_err(|e| WireError(format!("invalid JSON: {e}")))?;
        check_version(&c)?;
        let scale = match c.get("scale") {
            None => Scale::Small,
            Some(v) => parse_scale(&String::from_content(v)?)?,
        };
        let spec = match c.get("topology") {
            None => return Err(WireError("missing field `topology`".into())),
            Some(t) => parse_topology(t, scale)?,
        };
        let seed = match c.get("seed") {
            None => return Err(WireError("missing field `seed`".into())),
            Some(v) => u64::from_content(v)?,
        };
        let mut metrics: Vec<String> = match c.get("metrics") {
            None => DEFAULT_METRICS.iter().map(|m| m.to_string()).collect(),
            Some(v) => Vec::<String>::from_content(v)?,
        };
        for m in &metrics {
            if !KNOWN_METRICS.contains(&m.as_str()) {
                return Err(WireError(format!(
                    "unknown metric {m:?} (known: {})",
                    KNOWN_METRICS.join(", ")
                )));
            }
        }
        metrics.sort();
        metrics.dedup();
        if metrics.is_empty() {
            return Err(WireError("empty metric set".into()));
        }
        let thorough = match c.get("thorough") {
            None => false,
            Some(v) => bool::from_content(v)?,
        };
        let deadline_secs = match c.get("deadline_secs") {
            None | Some(Content::Null) => None,
            Some(v) => {
                // Above zero, and the CLI's `--deadline` rule: seconds a
                // `Duration` can hold, so the daemon's conversion of them
                // cannot panic.
                let secs = f64::from_content(v)?;
                if secs <= 0.0 || Duration::try_from_secs_f64(secs).is_err() {
                    return Err(WireError(format!(
                        "deadline_secs must be a positive number of seconds, got {secs}"
                    )));
                }
                Some(secs)
            }
        };
        let stream = match c.get("stream") {
            None => false,
            Some(v) => bool::from_content(v)?,
        };
        Ok(MeasureRequest {
            spec,
            seed,
            scale,
            metrics,
            thorough,
            deadline_secs,
            stream,
        })
    }

    /// Render as a request document (what clients and tests send).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema_version".to_string(), WIRE_VERSION.to_content()),
            ("topology".to_string(), topology_content(&self.spec)),
        ];
        fields.push(("seed".to_string(), self.seed.to_content()));
        fields.push((
            "scale".to_string(),
            Content::Str(topogen_core::cache::scale_tag(self.scale).to_string()),
        ));
        fields.push(("metrics".to_string(), self.metrics.to_content()));
        fields.push(("thorough".to_string(), self.thorough.to_content()));
        if let Some(d) = self.deadline_secs {
            fields.push(("deadline_secs".to_string(), d.to_content()));
        }
        if self.stream {
            fields.push(("stream".to_string(), true.to_content()));
        }
        serde_json::to_string(&Content::Map(fields)).expect("request serializes")
    }
}

/// Reject documents whose `schema_version` is missing or unknown.
fn check_version(c: &Content) -> Result<(), WireError> {
    match c.get("schema_version") {
        None => Err(WireError("missing field `schema_version`".into())),
        Some(v) => {
            let version = u64::from_content(v)?;
            if version != WIRE_VERSION {
                return Err(WireError(format!(
                    "unsupported schema_version {version} (this daemon speaks {WIRE_VERSION})"
                )));
            }
            Ok(())
        }
    }
}

/// The scale a wire tag names (`small`, `paper`, `large` or `xl`) — the
/// same table `repro --scale` reads.
pub fn parse_scale(s: &str) -> Result<Scale, WireError> {
    match s {
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        "large" => Ok(Scale::Large),
        "xl" => Ok(Scale::Xl),
        other => Err(WireError(format!(
            "unknown scale {other:?} (expected \"small\", \"paper\", \"large\", or \"xl\")"
        ))),
    }
}

/// A topology reference: either a zoo name (`"Mesh"`, `"PLRG"`, …)
/// resolved against the Figure 1 + degree-based zoos at the request's
/// scale, or an inline parameter map for the simple generators
/// (`{"kind": "mesh", "side": 12}`).
fn parse_topology(c: &Content, scale: Scale) -> Result<TopologySpec, WireError> {
    match c {
        Content::Str(name) => {
            let mut zoo = TopologySpec::figure1_zoo(scale);
            zoo.extend(TopologySpec::degree_based_zoo(scale));
            zoo.into_iter()
                .find(|s| s.name() == *name)
                .ok_or_else(|| WireError(format!("unknown topology name {name:?}")))
        }
        Content::Map(_) => {
            let kind = match c.get("kind") {
                Some(Content::Str(k)) => k.clone(),
                _ => return Err(WireError("inline topology needs a `kind` string".into())),
            };
            let u = |key: &str| -> Result<usize, WireError> {
                match c.get(key) {
                    Some(v) => Ok(usize::from_content(v)?),
                    None => Err(WireError(format!("topology kind {kind:?} needs `{key}`"))),
                }
            };
            let f = |key: &str| -> Result<f64, WireError> {
                match c.get(key) {
                    Some(v) => Ok(f64::from_content(v)?),
                    None => Err(WireError(format!("topology kind {kind:?} needs `{key}`"))),
                }
            };
            // The generators assert these preconditions; a request that
            // breaks one is malformed, not a build to attempt.
            let require = |ok: bool, key: &str, rule: &str, got: &dyn std::fmt::Display| {
                if ok {
                    Ok(())
                } else {
                    Err(WireError(format!(
                        "topology kind {kind:?}: `{key}` must be {rule}, got {got}"
                    )))
                }
            };
            match kind.as_str() {
                "tree" => {
                    let (k, depth) = (u("k")?, u("depth")?);
                    require(k >= 2, "k", "at least 2", &k)?;
                    Ok(TopologySpec::Tree { k, depth })
                }
                "mesh" => Ok(TopologySpec::Mesh { side: u("side")? }),
                "linear" => Ok(TopologySpec::Linear { n: u("n")? }),
                "complete" => Ok(TopologySpec::Complete { n: u("n")? }),
                "random" => {
                    let (n, p) = (u("n")?, f("p")?);
                    require((0.0..=1.0).contains(&p), "p", "in [0, 1]", &p)?;
                    Ok(TopologySpec::Random { n, p })
                }
                "plrg" => {
                    let (n, alpha) = (u("n")?, f("alpha")?);
                    let max_degree = match c.get("max_degree") {
                        None | Some(Content::Null) => None,
                        Some(v) => Some(usize::from_content(v)?),
                    };
                    require(alpha > 1.0, "alpha", "above 1", &alpha)?;
                    if let Some(d) = max_degree {
                        require(d >= 1, "max_degree", "at least 1", &d)?;
                    }
                    Ok(TopologySpec::Plrg(PlrgParams {
                        n,
                        alpha,
                        max_degree,
                    }))
                }
                other => Err(WireError(format!(
                    "unknown topology kind {other:?} \
                     (inline kinds: tree, mesh, linear, complete, random, plrg; \
                     or use a zoo name)"
                ))),
            }
        }
        other => Err(WireError(format!(
            "topology must be a zoo name or an inline map, got {other:?}"
        ))),
    }
}

/// The wire form of a spec for [`MeasureRequest::to_json`]: the inline
/// map for the simple kinds, the zoo name otherwise.
fn topology_content(spec: &TopologySpec) -> Content {
    let kv = |pairs: Vec<(&str, Content)>| {
        Content::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    match spec {
        TopologySpec::Tree { k, depth } => kv(vec![
            ("kind", Content::Str("tree".into())),
            ("k", (*k as u64).to_content()),
            ("depth", (*depth as u64).to_content()),
        ]),
        TopologySpec::Mesh { side } => kv(vec![
            ("kind", Content::Str("mesh".into())),
            ("side", (*side as u64).to_content()),
        ]),
        TopologySpec::Linear { n } => kv(vec![
            ("kind", Content::Str("linear".into())),
            ("n", (*n as u64).to_content()),
        ]),
        TopologySpec::Complete { n } => kv(vec![
            ("kind", Content::Str("complete".into())),
            ("n", (*n as u64).to_content()),
        ]),
        TopologySpec::Random { n, p } => kv(vec![
            ("kind", Content::Str("random".into())),
            ("n", (*n as u64).to_content()),
            ("p", p.to_content()),
        ]),
        TopologySpec::Plrg(p) => {
            let mut pairs = vec![
                ("kind", Content::Str("plrg".into())),
                ("n", (p.n as u64).to_content()),
                ("alpha", p.alpha.to_content()),
            ];
            if let Some(d) = p.max_degree {
                pairs.push(("max_degree", (d as u64).to_content()));
            }
            kv(pairs)
        }
        other => Content::Str(other.name()),
    }
}

/// The `hierarchy` response block (§5 summary statistics; the full
/// link-value vector is deliberately not shipped).
#[derive(Clone, Debug)]
pub struct HierarchyBlock {
    /// strict / moderate / loose.
    pub class: String,
    /// Max normalized link value.
    pub max: f64,
    /// Median normalized link value.
    pub median: f64,
    /// Pearson correlation with min endpoint degree.
    pub degree_correlation: Option<f64>,
}

/// One measure response. Optional blocks are present iff the matching
/// metric was requested; serialization omits absent blocks entirely.
#[derive(Clone, Debug)]
pub struct MeasureResponse {
    /// Topology display name.
    pub name: String,
    /// Canonical `generator(params)` rendering of the request's spec.
    pub topology: String,
    /// The request's master seed.
    pub seed: u64,
    /// `"small"`, `"paper"`, `"large"`, or `"xl"`.
    pub scale: String,
    /// Whether thorough budgets were used.
    pub thorough: bool,
    /// Analysis-graph node count.
    pub nodes: u64,
    /// Analysis-graph edge count.
    pub edges: u64,
    /// L/H signature (requested via `"signature"`).
    pub signature: Option<String>,
    /// E(h) per radius (requested via `"expansion"`).
    pub expansion: Option<Vec<f64>>,
    /// R(n) curve (requested via `"resilience"`).
    pub resilience: Option<Vec<CurvePoint>>,
    /// D(n) curve (requested via `"distortion"`).
    pub distortion: Option<Vec<CurvePoint>>,
    /// §5 summary (requested via `"hierarchy"`).
    pub hierarchy: Option<HierarchyBlock>,
}

fn curve_content(points: &[CurvePoint]) -> Content {
    Content::Seq(
        points
            .iter()
            .map(|p| {
                Content::Map(vec![
                    ("radius".to_string(), (p.radius as u64).to_content()),
                    ("avg_size".to_string(), p.avg_size.to_content()),
                    ("value".to_string(), p.value.to_content()),
                ])
            })
            .collect(),
    )
}

impl Serialize for MeasureResponse {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("schema_version".to_string(), WIRE_VERSION.to_content()),
            ("name".to_string(), self.name.to_content()),
            ("topology".to_string(), self.topology.to_content()),
            ("seed".to_string(), self.seed.to_content()),
            ("scale".to_string(), self.scale.to_content()),
            ("thorough".to_string(), self.thorough.to_content()),
            ("nodes".to_string(), self.nodes.to_content()),
            ("edges".to_string(), self.edges.to_content()),
        ];
        if let Some(sig) = &self.signature {
            fields.push(("signature".to_string(), sig.to_content()));
        }
        if let Some(e) = &self.expansion {
            fields.push(("expansion".to_string(), e.to_content()));
        }
        if let Some(r) = &self.resilience {
            fields.push(("resilience".to_string(), curve_content(r)));
        }
        if let Some(d) = &self.distortion {
            fields.push(("distortion".to_string(), curve_content(d)));
        }
        if let Some(h) = &self.hierarchy {
            fields.push((
                "hierarchy".to_string(),
                Content::Map(vec![
                    ("class".to_string(), h.class.to_content()),
                    ("max".to_string(), h.max.to_content()),
                    ("median".to_string(), h.median.to_content()),
                    (
                        "degree_correlation".to_string(),
                        h.degree_correlation.to_content(),
                    ),
                ]),
            ));
        }
        Content::Map(fields)
    }
}

impl MeasureResponse {
    /// The exact response body: pretty JSON plus a trailing newline —
    /// what gets cached, served, and printed by `repro measure`.
    pub fn body(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("response serializes");
        s.push('\n');
        s
    }
}

/// An error reply document (also the non-result lines of a stream).
pub fn error_body(error: &str, exit: crate::ExitCode) -> String {
    let doc = Content::Map(vec![
        ("schema_version".to_string(), WIRE_VERSION.to_content()),
        ("error".to_string(), error.to_content()),
        (
            "status".to_string(),
            Content::Str(exit.as_str().to_string()),
        ),
        ("code".to_string(), (exit.code() as u64).to_content()),
    ]);
    let mut s = serde_json::to_string_pretty(&doc).expect("error serializes");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let mut req = MeasureRequest::new(TopologySpec::Mesh { side: 12 }, 7, Scale::Small);
        req.metrics = vec!["expansion".into(), "signature".into()];
        req.deadline_secs = Some(2.5);
        let back = MeasureRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.spec.name(), "Mesh");
        assert_eq!(
            topogen_core::cache::spec_canonical(&back.spec),
            "mesh(side=12)"
        );
        assert_eq!(back.seed, 7);
        assert_eq!(back.metrics, req.metrics);
        assert_eq!(back.deadline_secs, Some(2.5));
        assert!(!back.stream);
    }

    #[test]
    fn zoo_names_resolve_at_scale() {
        let req = MeasureRequest::from_json(
            r#"{"schema_version":1,"topology":"PLRG","seed":1,"scale":"small"}"#,
        )
        .unwrap();
        assert_eq!(req.spec.name(), "PLRG");
        assert_eq!(req.metrics, DEFAULT_METRICS.to_vec());
        let err =
            MeasureRequest::from_json(r#"{"schema_version":1,"topology":"NoSuchThing","seed":1}"#)
                .unwrap_err();
        assert!(err.0.contains("unknown topology name"), "{err}");
    }

    #[test]
    fn unknown_schema_version_rejected_cleanly() {
        let err = MeasureRequest::from_json(r#"{"schema_version":99,"topology":"Mesh","seed":1}"#)
            .unwrap_err();
        assert!(err.0.contains("unsupported schema_version 99"), "{err}");
        // Missing version is as unacceptable as a wrong one.
        let err = MeasureRequest::from_json(r#"{"topology":"Mesh","seed":1}"#).unwrap_err();
        assert!(err.0.contains("schema_version"), "{err}");
    }

    #[test]
    fn invalid_fields_rejected() {
        for (doc, needle) in [
            (
                r#"{"schema_version":1,"seed":1}"#,
                "missing field `topology`",
            ),
            (
                r#"{"schema_version":1,"topology":"Mesh"}"#,
                "missing field `seed`",
            ),
            (
                r#"{"schema_version":1,"topology":"Mesh","seed":1,"metrics":["bogus"]}"#,
                "unknown metric",
            ),
            (
                r#"{"schema_version":1,"topology":"Mesh","seed":1,"metrics":[]}"#,
                "empty metric set",
            ),
            (
                r#"{"schema_version":1,"topology":"Mesh","seed":1,"deadline_secs":-1}"#,
                "deadline_secs",
            ),
            (
                r#"{"schema_version":1,"topology":"Mesh","seed":1,"deadline_secs":1e300}"#,
                "deadline_secs",
            ),
            (
                r#"{"schema_version":1,"topology":{"side":3},"seed":1}"#,
                "needs a `kind`",
            ),
            (
                r#"{"schema_version":1,"topology":{"kind":"hypercube"},"seed":1}"#,
                "unknown topology kind",
            ),
            (
                r#"{"schema_version":1,"topology":{"kind":"plrg","n":200,"alpha":1.0},"seed":1}"#,
                "`alpha` must be above 1",
            ),
            (
                r#"{"schema_version":1,"topology":{"kind":"plrg","n":200,"alpha":2.2,"max_degree":0},"seed":1}"#,
                "`max_degree` must be at least 1",
            ),
            (
                r#"{"schema_version":1,"topology":{"kind":"random","n":200,"p":1.5},"seed":1}"#,
                "`p` must be in [0, 1]",
            ),
            (
                r#"{"schema_version":1,"topology":{"kind":"tree","k":1,"depth":3},"seed":1}"#,
                "`k` must be at least 2",
            ),
            ("not json at all", "invalid JSON"),
        ] {
            let err = MeasureRequest::from_json(doc).unwrap_err();
            assert!(err.0.contains(needle), "{doc} → {err}");
        }
    }

    #[test]
    fn response_round_trips_and_omits_absent_blocks() {
        let resp = MeasureResponse {
            name: "Mesh".into(),
            topology: "mesh(side=3)".into(),
            seed: 9,
            scale: "small".into(),
            thorough: false,
            nodes: 9,
            edges: 12,
            signature: Some("LHH".into()),
            expansion: Some(vec![0.1, 0.5, 1.0]),
            resilience: Some(vec![CurvePoint {
                radius: 1,
                avg_size: 4.0,
                value: 2.0,
            }]),
            distortion: None,
            hierarchy: None,
        };
        let body = resp.body();
        assert!(body.ends_with('\n'));
        let back: Content = serde_json::from_str(body.trim_end()).unwrap();
        let Content::Map(fields) = &back else {
            panic!("response is not a map: {back:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "name",
                "topology",
                "seed",
                "scale",
                "thorough",
                "nodes",
                "edges",
                "signature",
                "expansion",
                "resilience",
            ]
        );
        assert_eq!(back.get("signature"), Some(&Content::Str("LHH".into())));
        assert_eq!(
            Vec::<f64>::from_content(back.get("expansion").unwrap()).unwrap(),
            [0.1, 0.5, 1.0]
        );
        let point = match back.get("resilience") {
            Some(Content::Seq(points)) => &points[0],
            other => panic!("resilience is not a sequence: {other:?}"),
        };
        assert_eq!(
            f64::from_content(point.get("avg_size").unwrap()).unwrap(),
            4.0
        );
    }

    #[test]
    fn error_body_carries_exit_taxonomy() {
        let body = error_body("queue full", crate::ExitCode::Failures);
        assert!(body.contains("\"status\": \"failures\""), "{body}");
        assert!(body.contains("\"code\": 1"), "{body}");
    }
}
