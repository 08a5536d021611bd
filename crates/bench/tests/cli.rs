//! End-to-end tests for `repro`'s ways into the metrics from outside:
//! `gen` writes a request's topology as an edge list, `load-measured`
//! reads it back and measures it exactly as `measure` measures the
//! request itself. A flag with a missing or unreadable value is a usage
//! error.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use serde::Content;
use topogen_bench::serve::MeasureRequest;
use topogen_core::ctx::RunCtx;
use topogen_core::zoo::build_in;

/// A small inline request whose build takes a giant component, so node
/// ids are relabelled on the way to the analysis graph.
const REQUEST: &str = r#"{"schema_version":1,"topology":{"kind":"random","n":150,"p":0.03},"seed":5,"scale":"small","metrics":["hierarchy","signature"]}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topogen-cli-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut pipe = child.stdin.take().unwrap();
    pipe.write_all(stdin.unwrap_or("").as_bytes()).unwrap();
    drop(pipe);
    child.wait_with_output().unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `repro gen -` on [`REQUEST`], written to `dir/graph.edges`.
fn gen_edge_list(dir: &Path) -> (PathBuf, String) {
    let out = repro(&["gen", "-"], Some(REQUEST));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    let path = dir.join("graph.edges");
    std::fs::write(&path, &text).unwrap();
    (path, text)
}

/// The `Value` cell of the first `load-measured` row for `quantity`.
fn table_value<'a>(table: &'a Content, quantity: &str) -> &'a str {
    let Some(Content::Seq(rows)) = table.get("rows") else {
        panic!("table has no rows: {table:?}");
    };
    rows.iter()
        .find_map(|row| match row {
            Content::Seq(cells) if cells[1] == Content::Str(quantity.into()) => match &cells[2] {
                Content::Str(v) => Some(v.as_str()),
                other => panic!("non-string cell {other:?}"),
            },
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {quantity:?} row in {table:?}"))
}

#[test]
fn gen_prints_the_edges_the_request_builds() {
    let dir = temp_dir("gen");
    let (_, text) = gen_edge_list(&dir);
    let req = MeasureRequest::from_json(REQUEST).unwrap();
    let built = build_in(&RunCtx::new(), &req.spec, req.scale, req.seed);
    let parsed = topogen_graph::io::parse_edge_list(&text).unwrap();
    assert_eq!(parsed.node_count(), built.graph.node_count());
    assert_eq!(parsed.edges(), built.graph.edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn load_measured_agrees_with_measure_on_the_generated_file() {
    let dir = temp_dir("agree");
    let (path, _) = gen_edge_list(&dir);
    let json_dir = dir.join("json");
    let loaded = repro(
        &[
            "load-measured",
            path.to_str().unwrap(),
            "--seed",
            "5",
            "--json",
            json_dir.to_str().unwrap(),
        ],
        None,
    );
    assert!(loaded.status.success(), "{}", stderr(&loaded));
    let table: Content = serde_json::from_str(
        &std::fs::read_to_string(json_dir.join("load-measured.json")).unwrap(),
    )
    .unwrap();

    let measured = repro(&["measure", "-"], Some(REQUEST));
    assert!(measured.status.success(), "{}", stderr(&measured));
    let body: Content = serde_json::from_str(&String::from_utf8(measured.stdout).unwrap()).unwrap();

    assert_eq!(
        body.get("signature"),
        Some(&Content::Str(table_value(&table, "signature").into()))
    );
    assert_eq!(
        body.get("hierarchy").and_then(|h| h.get("class")),
        Some(&Content::Str(table_value(&table, "hierarchy class").into()))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn load_measured_names_the_file_and_line_of_a_malformed_file() {
    let dir = temp_dir("malformed");
    let path = dir.join("broken.edges");
    std::fs::write(&path, "0 1\n0 banana\n").unwrap();
    let out = repro(&["load-measured", path.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(path.to_str().unwrap()), "{err}");
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gen_rejects_an_unknown_topology_as_a_usage_error() {
    let out = repro(
        &["gen", "-"],
        Some(r#"{"schema_version":1,"topology":"NoSuchThing","seed":1}"#),
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown topology name"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn out_of_range_inline_parameters_are_usage_errors_that_name_the_field() {
    let cases = [
        (r#"{"kind":"plrg","n":200,"alpha":1.0}"#, "`alpha`"),
        (
            r#"{"kind":"plrg","n":200,"alpha":2.2,"max_degree":0}"#,
            "`max_degree`",
        ),
        (r#"{"kind":"random","n":200,"p":1.5}"#, "`p`"),
        (r#"{"kind":"tree","k":1,"depth":3}"#, "`k`"),
    ];
    for (topology, field) in cases {
        let doc = format!(r#"{{"schema_version":1,"topology":{topology},"seed":1}}"#);
        for cmd in ["measure", "gen"] {
            let out = repro(&[cmd, "-"], Some(&doc));
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{cmd} {doc}: {err}");
            assert!(err.contains(field), "{cmd} {doc}: {err}");
        }
    }
}

#[test]
fn plrg_cutoffs_past_the_node_count_are_measured() {
    // The natural cutoff 200^100 saturates, and the explicit one dwarfs
    // the node count: both draw degrees up to n - 1.
    for topology in [
        r#"{"kind":"plrg","n":200,"alpha":1.01}"#,
        r#"{"kind":"plrg","n":200,"alpha":2.2,"max_degree":1000000000000}"#,
    ] {
        let doc = format!(r#"{{"schema_version":1,"topology":{topology},"seed":1}}"#);
        let out = repro(&["measure", "-"], Some(&doc));
        assert_eq!(out.status.code(), Some(0), "{doc}: {}", stderr(&out));
    }
}

#[test]
fn bad_flag_values_are_usage_errors_that_name_the_flag() {
    let cases: [&[&str]; 5] = [
        &["tab1", "--scale", "bogus"],
        &["tab1", "--seed"],
        &["tab1", "--deadline", "-1"],
        &["serve", "--workers", "x"],
        &["serve", "--drain-deadline", "inf"],
    ];
    for args in cases {
        let out = repro(args, None);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
    }
}
