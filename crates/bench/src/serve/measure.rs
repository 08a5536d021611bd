//! Request execution: generate the topology, run the requested
//! metrics, and render the response — all against an explicit
//! [`RunCtx`], never ambient state.
//!
//! Two layers of caching cooperate here. The engine core already
//! caches built topologies and metric curves in the content-addressed
//! store; on top of that the daemon caches the **rendered response
//! body** under the request's canonical parameters, so a repeat query
//! is answered byte-for-byte from disk without touching the engines.

use topogen_core::cache::{scale_tag, spec_canonical};
use topogen_core::ctx::RunCtx;
use topogen_core::hier::HierOptions;
use topogen_store::codec::{self, bytes_payload, ContainerWriter};
use topogen_store::key::KeyBuilder;

use super::wire::{HierarchyBlock, MeasureRequest, MeasureResponse};
use crate::ExpCtx;

/// Section tag for a cached response body (UTF-8 JSON bytes).
const SEC_RESPONSE_BODY: [u8; 4] = *b"SRVB";

/// The store key identifying one request's canonical parameters.
pub fn response_key(req: &MeasureRequest) -> String {
    KeyBuilder::new("serve-response")
        .field("topology", &spec_canonical(&req.spec))
        .field("scale", scale_tag(req.scale))
        .u64("seed", req.seed)
        .field("metrics", &req.metrics.join("+"))
        .field("budget", if req.thorough { "thorough" } else { "quick" })
        .finish()
}

/// Execute `req` under `ctx`: build the topology, run the requested
/// metric set, and assemble the response — the daemon's and `repro
/// measure`'s one path. The suite runs with the parameters a batch
/// experiment gets from [`ExpCtx::suite_params`] at the request's scale,
/// seed and budget (the sampled tiers' centers, checkpoint batches and
/// bootstrap included), and §5 with the default [`HierOptions`], so an
/// answer's curves, signature and hierarchy are the batch run's and
/// share its store entries.
pub fn run_measure(ctx: &RunCtx, req: &MeasureRequest) -> MeasureResponse {
    let t = topogen_core::zoo::build_in(ctx, &req.spec, req.scale, req.seed);
    let mut resp = MeasureResponse {
        name: t.name.clone(),
        topology: spec_canonical(&req.spec),
        seed: req.seed,
        scale: scale_tag(req.scale).to_string(),
        thorough: req.thorough,
        nodes: t.graph.node_count() as u64,
        edges: t.graph.edge_count() as u64,
        signature: None,
        expansion: None,
        resilience: None,
        distortion: None,
        hierarchy: None,
    };
    let wants_suite = ["expansion", "resilience", "distortion", "signature"]
        .iter()
        .any(|m| req.wants(m));
    if wants_suite {
        let params = ExpCtx {
            scale: req.scale,
            seed: req.seed,
            quick: !req.thorough,
        }
        .suite_params();
        let suite = topogen_core::suite::run_suite_in(ctx, &t, &params);
        if req.wants("signature") {
            resp.signature = Some(suite.signature.to_string());
        }
        if req.wants("expansion") {
            resp.expansion = Some(suite.expansion);
        }
        if req.wants("resilience") {
            resp.resilience = Some(suite.resilience);
        }
        if req.wants("distortion") {
            resp.distortion = Some(suite.distortion);
        }
    }
    if req.wants("hierarchy") {
        let (report, _timing) =
            topogen_core::hier::hierarchy_report_timed_in(ctx, &t, &HierOptions::default());
        resp.hierarchy = Some(HierarchyBlock {
            class: report.class,
            max: report.max,
            median: report.median,
            degree_correlation: report.degree_correlation,
        });
    }
    resp
}

/// Serve `req` to its final body bytes: consult the response cache in
/// `ctx.store`, compute-and-persist on a miss. Returns the body and
/// whether it was a cache hit.
pub fn measure_body(ctx: &RunCtx, req: &MeasureRequest) -> (String, bool) {
    let key = response_key(req);
    if let Some(store) = &ctx.store {
        if let Some(bytes) = store.get(&key) {
            if let Some(body) = body_from_container(&bytes) {
                return (body, true);
            }
        }
    }
    let body = run_measure(ctx, req).body();
    if let Some(store) = &ctx.store {
        let mut w = ContainerWriter::new();
        w.section(SEC_RESPONSE_BODY, &bytes_payload(body.as_bytes()));
        store.put(&key, &w.finish());
    }
    (body, false)
}

fn body_from_container(bytes: &[u8]) -> Option<String> {
    let sections = codec::read_sections(bytes).ok()?;
    let payload = codec::find_section(&sections, SEC_RESPONSE_BODY)?;
    let raw = codec::bytes_from_payload(payload).ok()?;
    String::from_utf8(raw).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use topogen_core::zoo::{Scale, TopologySpec};

    fn tiny_request() -> MeasureRequest {
        MeasureRequest::new(TopologySpec::Mesh { side: 6 }, 11, Scale::Small)
    }

    #[test]
    fn response_key_separates_params_and_ignores_request_framing() {
        let base = tiny_request();
        let mut other_seed = tiny_request();
        other_seed.seed = 12;
        assert_ne!(response_key(&base), response_key(&other_seed));
        let mut thorough = tiny_request();
        thorough.thorough = true;
        assert_ne!(response_key(&base), response_key(&thorough));
        // Framing knobs (deadline, streaming) don't change the answer,
        // so they must not change the key.
        let mut framed = tiny_request();
        framed.deadline_secs = Some(5.0);
        framed.stream = true;
        assert_eq!(response_key(&base), response_key(&framed));
    }

    #[test]
    fn warm_body_is_byte_identical_and_flagged_as_hit() {
        let dir =
            std::env::temp_dir().join(format!("topogen-serve-measure-test-{}", std::process::id()));
        let store = Arc::new(topogen_store::Store::open(&dir).unwrap());
        let ctx = RunCtx::new().with_store(store);
        let req = tiny_request();
        let (cold, hit_cold) = measure_body(&ctx, &req);
        let (warm, hit_warm) = measure_body(&ctx, &req);
        assert!(!hit_cold);
        assert!(hit_warm);
        assert_eq!(cold, warm);
        // And both match a cache-less computation.
        let fresh = run_measure(&RunCtx::new(), &req).body();
        assert_eq!(cold, fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_tier_request_answers_with_the_batch_suite_params() {
        let req = MeasureRequest::from_json(
            r#"{"schema_version":1,"topology":{"kind":"mesh","side":12},"seed":11,"scale":"large"}"#,
        )
        .unwrap();
        let resp = run_measure(&RunCtx::new(), &req);
        let t = topogen_core::zoo::build_in(&RunCtx::new(), &req.spec, Scale::Large, 11);
        let params = ExpCtx {
            scale: Scale::Large,
            seed: 11,
            quick: true,
        }
        .suite_params();
        let batch = topogen_core::suite::run_suite_in(&RunCtx::new(), &t, &params);
        // Bit patterns, so the radius-0 NaN values compare equal.
        let bits = |c: &[topogen_metrics::CurvePoint]| -> Vec<(u32, u64, u64)> {
            c.iter()
                .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
                .collect()
        };
        let expansion_bits = |e: &[f64]| -> Vec<u64> { e.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(
            expansion_bits(&resp.expansion.unwrap()),
            expansion_bits(&batch.expansion)
        );
        assert_eq!(bits(&resp.resilience.unwrap()), bits(&batch.resilience));
        assert_eq!(bits(&resp.distortion.unwrap()), bits(&batch.distortion));
        assert_eq!(resp.signature, Some(batch.signature.to_string()));
    }

    #[test]
    fn metric_subset_prunes_response_blocks() {
        let mut req = tiny_request();
        req.metrics = vec!["signature".into()];
        let resp = run_measure(&RunCtx::new(), &req);
        assert!(resp.signature.is_some());
        assert!(resp.expansion.is_none());
        assert!(resp.resilience.is_none());
        assert!(resp.distortion.is_none());
        assert!(resp.hierarchy.is_none());
    }
}
