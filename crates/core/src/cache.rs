//! Artifact-store glue: content hashes, binary payloads, and cache keys
//! for the expensive pipelines (topology builds, metric-curve suites,
//! link-value analyses).
//!
//! Everything here is deterministic: content hashes walk the exact
//! normalized edge lists, floats are stored as IEEE-754 bit patterns,
//! and cache keys render parameters through the `Generate` trait's
//! `canonical_params`. That is what makes a warm `repro` run
//! byte-identical to a cold one — a hit replays the exact bits the cold
//! run computed, and everything derived from them (signatures, stats)
//! is a pure function of those bits.
//!
//! Decoding is fail-open: any malformed or misaligned payload yields
//! `None` and the caller recomputes (and overwrites the entry). The
//! checksum layer below already rejects corrupted files; this layer
//! guards against semantic drift (e.g. an entry written by a different
//! graph shape than the key promised).

use crate::zoo::{AsOverlayData, BuiltTopology, Scale, TopologySpec};
use topogen_graph::Graph;
use topogen_metrics::CurvePoint;
use topogen_policy::rel::{AsAnnotations, Relationship};
use topogen_store::codec::{
    self, bytes_payload, f64_payload, graph_payload, u32_payload, ContainerWriter,
};
use topogen_store::fnv::Fnv1a;
use topogen_store::key::KeyBuilder;

// ---------------------------------------------------------------------------
// Content hashes
// ---------------------------------------------------------------------------

/// FNV-1a over a graph's normalized structure (node count + exact edge
/// list). O(m) — negligible next to the O(n·m) metric pipelines keyed
/// by it.
pub fn graph_hash(g: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(g.node_count() as u64);
    h.write_u64(g.edge_count() as u64);
    for e in g.edges() {
        h.write_u64(((e.a as u64) << 32) | e.b as u64);
    }
    h.finish()
}

fn rel_code(r: Relationship) -> u8 {
    match r {
        Relationship::CustomerOfB => 0,
        Relationship::ProviderOfB => 1,
        Relationship::Peer => 2,
        Relationship::Sibling => 3,
    }
}

fn rel_from_code(c: u8) -> Option<Relationship> {
    Some(match c {
        0 => Relationship::CustomerOfB,
        1 => Relationship::ProviderOfB,
        2 => Relationship::Peer,
        3 => Relationship::Sibling,
        _ => return None,
    })
}

fn annotation_codes(ann: &AsAnnotations, edge_count: usize) -> Vec<u8> {
    (0..edge_count).map(|i| rel_code(ann.by_index(i))).collect()
}

/// FNV-1a over per-edge relationship codes (edge order).
pub fn annotations_hash(ann: &AsAnnotations, edge_count: usize) -> u64 {
    topogen_store::fnv::fnv1a(&annotation_codes(ann, edge_count))
}

/// FNV-1a over a router→AS assignment vector.
pub fn router_as_hash(router_as: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(router_as.len() as u64);
    for &v in router_as {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Canonical spec rendering
// ---------------------------------------------------------------------------

/// Scale tag folded into topology keys.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
        Scale::Large => "large",
        Scale::Xl => "xl",
    }
}

/// Canonical `generator(params)` rendering of a spec. Parameterized
/// generators delegate to the `Generate` trait's `canonical_params`, so
/// any two specs that generate differently render differently.
pub fn spec_canonical(spec: &TopologySpec) -> String {
    use topogen_generators::Generate;
    match spec {
        TopologySpec::Tree { k, depth } => format!("tree(k={k},depth={depth})"),
        TopologySpec::Mesh { side } => format!("mesh(side={side})"),
        TopologySpec::Linear { n } => format!("linear(n={n})"),
        TopologySpec::Complete { n } => format!("complete(n={n})"),
        TopologySpec::Random { n, p } => format!("random(n={n},p={p:?})"),
        TopologySpec::Waxman(p) => format!("waxman({})", p.canonical_params()),
        TopologySpec::TransitStub(p) => format!("transit-stub({})", p.canonical_params()),
        TopologySpec::Tiers(p) => format!("tiers({})", p.canonical_params()),
        TopologySpec::Plrg(p) => format!("plrg({})", p.canonical_params()),
        TopologySpec::Ba(p) => format!("ba({})", p.canonical_params()),
        TopologySpec::AlbertBarabasi(p) => format!("albert-barabasi({})", p.canonical_params()),
        TopologySpec::Brite(p) => format!("brite({})", p.canonical_params()),
        TopologySpec::Glp(p) => format!("glp({})", p.canonical_params()),
        TopologySpec::Inet(p) => format!("inet({})", p.canonical_params()),
        TopologySpec::NLevel(p) => format!("n-level({})", p.canonical_params()),
        TopologySpec::PlrgRewired(inner) => format!("plrg-rewired({})", spec_canonical(inner)),
        TopologySpec::MeasuredAs => "measured-as".to_string(),
        TopologySpec::MeasuredRl => "measured-rl".to_string(),
    }
}

/// Cache key for a built topology.
pub fn topology_key(spec: &TopologySpec, scale: Scale, seed: u64) -> String {
    KeyBuilder::new("topology")
        .field("gen", &spec_canonical(spec))
        .field("scale", scale_tag(scale))
        .u64("seed", seed)
        .finish()
}

// ---------------------------------------------------------------------------
// Topology payloads
// ---------------------------------------------------------------------------

/// Serialize a built topology (graph + optional annotations, router→AS
/// map, and AS overlay) as one `.tgr` container.
pub fn encode_topology(t: &BuiltTopology) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.section(codec::SEC_GRAPH, &graph_payload(&t.graph));
    if let Some(ann) = &t.annotations {
        w.section(
            codec::SEC_ANNOTATIONS,
            &bytes_payload(&annotation_codes(ann, t.graph.edge_count())),
        );
    }
    if let Some(ras) = &t.router_as {
        w.section(codec::SEC_ROUTER_AS, &u32_payload(ras));
    }
    if let Some(ov) = &t.as_overlay {
        w.section(codec::SEC_OVERLAY_GRAPH, &graph_payload(&ov.as_graph));
        w.section(
            codec::SEC_OVERLAY_ANNOTATIONS,
            &bytes_payload(&annotation_codes(&ov.annotations, ov.as_graph.edge_count())),
        );
    }
    w.finish()
}

fn decode_annotations(payload: &[u8], g: &Graph) -> Option<AsAnnotations> {
    let codes = codec::bytes_from_payload(payload).ok()?;
    if codes.len() != g.edge_count() {
        return None;
    }
    let rels: Option<Vec<Relationship>> = codes.into_iter().map(rel_from_code).collect();
    Some(AsAnnotations::new(g, rels?))
}

/// Decode a cached topology for `spec`. `None` (caller recomputes) on
/// any structural mismatch.
pub fn decode_topology(bytes: &[u8], spec: &TopologySpec) -> Option<BuiltTopology> {
    let sections = codec::read_sections(bytes).ok()?;
    let graph =
        codec::graph_from_payload(codec::find_section(&sections, codec::SEC_GRAPH)?).ok()?;
    let annotations = match codec::find_section(&sections, codec::SEC_ANNOTATIONS) {
        Some(p) => Some(decode_annotations(p, &graph)?),
        None => None,
    };
    let router_as = match codec::find_section(&sections, codec::SEC_ROUTER_AS) {
        Some(p) => {
            let v = codec::u32_from_payload(p).ok()?;
            if v.len() != graph.node_count() {
                return None;
            }
            Some(v)
        }
        None => None,
    };
    let as_overlay = match codec::find_section(&sections, codec::SEC_OVERLAY_GRAPH) {
        Some(p) => {
            let as_graph = codec::graph_from_payload(p).ok()?;
            let ann = decode_annotations(
                codec::find_section(&sections, codec::SEC_OVERLAY_ANNOTATIONS)?,
                &as_graph,
            )?;
            Some(AsOverlayData {
                as_graph,
                annotations: ann,
            })
        }
        None => None,
    };
    Some(BuiltTopology {
        name: spec.name(),
        graph,
        annotations,
        router_as,
        as_overlay,
    })
}

// ---------------------------------------------------------------------------
// Metric-curve payloads
// ---------------------------------------------------------------------------

fn curve_payload(points: &[CurvePoint]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 20 * points.len());
    codec::put_u64(&mut buf, points.len() as u64);
    for p in points {
        codec::put_u32(&mut buf, p.radius);
        codec::put_f64(&mut buf, p.avg_size);
        codec::put_f64(&mut buf, p.value);
    }
    buf
}

fn curve_from_payload(bytes: &[u8]) -> Option<Vec<CurvePoint>> {
    let mut r = codec::Reader::new(bytes);
    let c = r.count(20).ok()?;
    let mut out = Vec::with_capacity(c);
    for _ in 0..c {
        out.push(CurvePoint {
            radius: r.u32().ok()?,
            avg_size: r.f64().ok()?,
            value: r.f64().ok()?,
        });
    }
    (r.remaining() == 0).then_some(out)
}

/// Serialize the three metric curves of a suite run.
pub fn encode_curves(
    expansion: &[f64],
    resilience: &[CurvePoint],
    distortion: &[CurvePoint],
) -> Vec<u8> {
    encode_curves_ci(expansion, resilience, distortion, None)
}

/// Decode a cached suite-curves container.
#[allow(clippy::type_complexity)]
pub fn decode_curves(bytes: &[u8]) -> Option<(Vec<f64>, Vec<CurvePoint>, Vec<CurvePoint>)> {
    let sections = codec::read_sections(bytes).ok()?;
    let expansion =
        codec::f64_from_payload(codec::find_section(&sections, codec::SEC_EXPANSION)?).ok()?;
    let resilience = curve_from_payload(codec::find_section(&sections, codec::SEC_RESILIENCE)?)?;
    let distortion = curve_from_payload(codec::find_section(&sections, codec::SEC_DISTORTION)?)?;
    Some((expansion, resilience, distortion))
}

// ---------------------------------------------------------------------------
// Suite-partial payloads (checkpointed per-batch engine outputs)
// ---------------------------------------------------------------------------

/// Section tag for one checkpointed batch of per-job engine outputs.
const SEC_SUITE_PARTIAL: [u8; 4] = *b"SPRT";
/// Section tag for bootstrap 95% confidence intervals of the suite's
/// classification summary statistics.
const SEC_SUITE_CI: [u8; 4] = *b"CI95";

/// Deterministic store key for one center batch of a suite run: derived
/// from the full curves key (itself covering graph hash + every
/// sampling knob), the batch size, and the batch index — so a resumed
/// process recomputes exactly the batches the killed one never wrote.
pub fn suite_partial_key(curves_key: &str, batch_size: usize, index: usize) -> String {
    KeyBuilder::new("suite-partial")
        .u64("curves", topogen_store::fnv::fnv1a(curves_key.as_bytes()))
        .u64("batch_size", batch_size as u64)
        .u64("index", index as u64)
        .finish()
}

/// Serialize one batch of [`topogen_metrics::engine::JobOut`]s.
/// Bit-exact: float rows keep their IEEE-754 patterns (NaNs included),
/// so aggregation over decoded partials equals aggregation over the
/// originals.
pub fn encode_suite_partial(outs: &[topogen_metrics::engine::JobOut]) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_u64(&mut buf, outs.len() as u64);
    for (rows, cum) in outs {
        buf.push(u8::from(rows.is_some()) | (u8::from(cum.is_some()) << 1));
        if let Some(rows) = rows {
            codec::put_u64(&mut buf, rows.len() as u64);
            for (size, vals) in rows {
                codec::put_f64(&mut buf, *size);
                codec::put_u64(&mut buf, vals.len() as u64);
                for v in vals {
                    codec::put_f64(&mut buf, *v);
                }
            }
        }
        if let Some(cum) = cum {
            codec::put_u64(&mut buf, cum.len() as u64);
            for &c in cum {
                codec::put_u64(&mut buf, c as u64);
            }
        }
    }
    let mut w = ContainerWriter::new();
    w.section(SEC_SUITE_PARTIAL, &buf);
    w.finish()
}

/// Decode a checkpointed batch; `None` (caller recomputes the batch) on
/// any malformed payload.
pub fn decode_suite_partial(bytes: &[u8]) -> Option<Vec<topogen_metrics::engine::JobOut>> {
    let sections = codec::read_sections(bytes).ok()?;
    let payload = codec::find_section(&sections, SEC_SUITE_PARTIAL)?;
    let mut r = codec::Reader::new(payload);
    let jobs = r.count(1).ok()?;
    let mut outs = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let flags = *r.take(1).ok()?.first()?;
        let rows = if flags & 1 != 0 {
            let n = r.count(16).ok()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let size = r.f64().ok()?;
                let k = r.count(8).ok()?;
                let mut vals = Vec::with_capacity(k);
                for _ in 0..k {
                    vals.push(r.f64().ok()?);
                }
                rows.push((size, vals));
            }
            Some(rows)
        } else {
            None
        };
        let cum = if flags & 2 != 0 {
            let n = r.count(8).ok()?;
            let mut cum = Vec::with_capacity(n);
            for _ in 0..n {
                cum.push(r.u64().ok()? as usize);
            }
            Some(cum)
        } else {
            None
        };
        outs.push((rows, cum));
    }
    (r.remaining() == 0).then_some(outs)
}

/// Serialize the three metric curves plus optional bootstrap CIs. With
/// `cis: None` the payload is byte-identical to [`encode_curves`] —
/// which is what keeps every small/paper cache entry (and everything
/// fingerprinted from it) unchanged; only sampled tiers carry the extra
/// section.
pub fn encode_curves_ci(
    expansion: &[f64],
    resilience: &[CurvePoint],
    distortion: &[CurvePoint],
    cis: Option<&crate::suite::SuiteCis>,
) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.section(codec::SEC_EXPANSION, &f64_payload(expansion));
    w.section(codec::SEC_RESILIENCE, &curve_payload(resilience));
    w.section(codec::SEC_DISTORTION, &curve_payload(distortion));
    if let Some(ci) = cis {
        let mut buf = Vec::with_capacity(48);
        for &(lo, hi) in [&ci.expansion_rate, &ci.resilience_peak, &ci.distortion_last] {
            codec::put_f64(&mut buf, lo);
            codec::put_f64(&mut buf, hi);
        }
        w.section(SEC_SUITE_CI, &buf);
    }
    w.finish()
}

/// Decode the optional CI section of a cached suite-curves container;
/// `None` for pre-CI entries (every archived small/paper payload).
pub fn decode_curve_cis(bytes: &[u8]) -> Option<crate::suite::SuiteCis> {
    let sections = codec::read_sections(bytes).ok()?;
    let payload = codec::find_section(&sections, SEC_SUITE_CI)?;
    let mut r = codec::Reader::new(payload);
    let mut pairs = [(0.0, 0.0); 3];
    for p in &mut pairs {
        *p = (r.f64().ok()?, r.f64().ok()?);
    }
    (r.remaining() == 0).then_some(crate::suite::SuiteCis {
        expansion_rate: pairs[0],
        resilience_peak: pairs[1],
        distortion_last: pairs[2],
    })
}

// ---------------------------------------------------------------------------
// Link-value payloads
// ---------------------------------------------------------------------------

/// Serialize a link-value vector (edge order, pre-sort).
pub fn encode_link_values(values: &[f64]) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.section(codec::SEC_LINK_VALUES, &f64_payload(values));
    w.finish()
}

/// Decode a cached link-value vector; `None` unless it holds exactly
/// `expected_len` values (the work graph's edge count).
pub fn decode_link_values(bytes: &[u8], expected_len: usize) -> Option<Vec<f64>> {
    let sections = codec::read_sections(bytes).ok()?;
    let v =
        codec::f64_from_payload(codec::find_section(&sections, codec::SEC_LINK_VALUES)?).ok()?;
    (v.len() == expected_len).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RunCtx;
    use crate::zoo::build_in;

    #[test]
    fn graph_hash_sensitive_to_structure() {
        let a = Graph::from_edges(4, vec![(0, 1), (1, 2)]);
        let b = Graph::from_edges(4, vec![(0, 1), (1, 3)]);
        let c = Graph::from_edges(5, vec![(0, 1), (1, 2)]);
        assert_ne!(graph_hash(&a), graph_hash(&b));
        assert_ne!(graph_hash(&a), graph_hash(&c));
        assert_eq!(graph_hash(&a), graph_hash(&a.clone()));
    }

    #[test]
    fn spec_canonical_distinguishes_params() {
        use topogen_generators::waxman::WaxmanParams;
        let a = TopologySpec::Waxman(WaxmanParams {
            n: 1200,
            alpha: 0.02,
            beta: 0.3,
        });
        let b = TopologySpec::Waxman(WaxmanParams {
            n: 1200,
            alpha: 0.02,
            beta: 0.31,
        });
        assert_ne!(spec_canonical(&a), spec_canonical(&b));
        assert_ne!(
            topology_key(&a, Scale::Small, 42),
            topology_key(&a, Scale::Small, 43)
        );
        assert_ne!(
            topology_key(&a, Scale::Small, 42),
            topology_key(&a, Scale::Paper, 42)
        );
        // The Modified variants key on the full inner spec.
        let m = TopologySpec::PlrgRewired(Box::new(a.clone()));
        assert!(spec_canonical(&m).contains("plrg-rewired(waxman("));
    }

    #[test]
    fn plain_topology_roundtrip() {
        let spec = TopologySpec::Mesh { side: 8 };
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 1);
        let back = decode_topology(&encode_topology(&t), &spec).unwrap();
        assert_eq!(back.graph.edges(), t.graph.edges());
        assert_eq!(back.name, t.name);
        assert!(back.annotations.is_none());
        assert!(back.router_as.is_none());
        assert!(back.as_overlay.is_none());
    }

    #[test]
    fn annotated_topology_roundtrip() {
        let spec = TopologySpec::MeasuredAs;
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 7);
        let back = decode_topology(&encode_topology(&t), &spec).unwrap();
        assert_eq!(back.graph.edges(), t.graph.edges());
        let (a, b) = (
            back.annotations.as_ref().unwrap(),
            t.annotations.as_ref().unwrap(),
        );
        for i in 0..t.graph.edge_count() {
            assert_eq!(a.by_index(i), b.by_index(i));
        }
        assert_eq!(
            annotations_hash(a, back.graph.edge_count()),
            annotations_hash(b, t.graph.edge_count())
        );
    }

    #[test]
    fn rl_topology_roundtrip_with_overlay() {
        let spec = TopologySpec::MeasuredRl;
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 7);
        let back = decode_topology(&encode_topology(&t), &spec).unwrap();
        assert_eq!(back.graph.edges(), t.graph.edges());
        assert_eq!(back.router_as, t.router_as);
        let (a, b) = (
            back.as_overlay.as_ref().unwrap(),
            t.as_overlay.as_ref().unwrap(),
        );
        assert_eq!(a.as_graph.edges(), b.as_graph.edges());
        assert_eq!(
            annotations_hash(&a.annotations, a.as_graph.edge_count()),
            annotations_hash(&b.annotations, b.as_graph.edge_count())
        );
    }

    #[test]
    fn curves_roundtrip_bit_exact() {
        let expansion = vec![1.0, 2.5, 1e-17, f64::INFINITY];
        let resilience = vec![CurvePoint {
            radius: 3,
            avg_size: 120.25,
            value: 0.125,
        }];
        let distortion = vec![
            CurvePoint {
                radius: 0,
                avg_size: 1.0,
                value: 1.0,
            },
            CurvePoint {
                radius: 9,
                avg_size: 55.5,
                value: 2.75,
            },
        ];
        let bytes = encode_curves(&expansion, &resilience, &distortion);
        let (e, r, d) = decode_curves(&bytes).unwrap();
        assert_eq!(e.len(), expansion.len());
        for (x, y) in e.iter().zip(&expansion) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].radius, 3);
        assert_eq!(r[0].avg_size.to_bits(), 120.25f64.to_bits());
        assert_eq!(d.len(), 2);
        assert_eq!(d[1].value.to_bits(), 2.75f64.to_bits());
    }

    /// End-to-end: with a store on the run context, a second build +
    /// suite run replays from disk with results identical to the cold
    /// run — the acceptance invariant behind `repro --cache`.
    #[test]
    fn warm_run_matches_cold_run_exactly() {
        use crate::suite::{run_suite_in, SuiteParams};
        let spec = TopologySpec::Mesh { side: 10 };
        let params = SuiteParams::quick();
        // Cold, uncached reference.
        let cold_t = build_in(&RunCtx::new(), &spec, Scale::Small, 5);
        let cold = run_suite_in(&RunCtx::new(), &cold_t, &params);

        let dir = std::env::temp_dir().join(format!("topogen-core-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(topogen_store::Store::open(&dir).unwrap());
        let cached = RunCtx::new().with_store(store.clone());
        // First cached run computes and persists; second replays.
        let t1 = build_in(&cached, &spec, Scale::Small, 5);
        let warm1 = run_suite_in(&cached, &t1, &params);
        let t2 = build_in(&cached, &spec, Scale::Small, 5);
        let before = store.counters().snapshot();
        let warm2 = run_suite_in(&cached, &t2, &params);
        let warm2_hits = before.delta_to(&store.counters().snapshot()).hits;

        assert_eq!(t2.graph.edges(), cold_t.graph.edges());
        assert!(warm2_hits >= 1, "second run must hit");
        assert_eq!(
            warm2.timings,
            crate::report::TimingReport::default(),
            "second run must not recompute"
        );
        for (w, c) in [(&warm1, &cold), (&warm2, &cold)] {
            assert_eq!(w.expansion.len(), c.expansion.len());
            for (a, b) in w.expansion.iter().zip(&c.expansion) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(w.resilience.len(), c.resilience.len());
            for (a, b) in w.resilience.iter().zip(&c.resilience) {
                assert_eq!(a.radius, b.radius);
                assert_eq!(a.avg_size.to_bits(), b.avg_size.to_bits());
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            assert_eq!(w.signature.to_string(), c.signature.to_string());
        }
        let counters = store.counters().snapshot();
        assert!(counters.hits >= 2, "topology + curves hit: {counters:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn link_values_roundtrip_checks_length() {
        let v = vec![0.5, 0.25, 1.0 / 3.0];
        let bytes = encode_link_values(&v);
        let back = decode_link_values(&bytes, 3).unwrap();
        for (x, y) in back.iter().zip(&v) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Length mismatch → recompute.
        assert!(decode_link_values(&bytes, 4).is_none());
    }
}
