//! One instrument: speed is measured by `benchmark/` (BENCHMARK.json) and
//! nowhere else. The workspace is the root package, four member crates and
//! the one offline shim, `rand` (path dependencies under the workspace root
//! are members too), and declares no bench target, so a bench main cannot
//! quietly come back beside the benchmark. The engine depends on nothing,
//! and nothing in the build is a proc-macro.

use ssbench::harness::json::{self, Json};

/// The `packages` of `cargo metadata --no-deps`.
fn packages() -> Vec<Json> {
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--no-deps", "--offline", "--format-version", "1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo metadata runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let meta = json::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("metadata parses");
    meta.get("packages").and_then(Json::as_arr).expect("metadata lists packages").to_vec()
}

fn name(of: &Json) -> &str {
    of.get("name").and_then(Json::as_str).expect("a name")
}

fn list<'a>(of: &'a Json, key: &str) -> &'a [Json] {
    of.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{} lists its {key}", name(of)))
}

#[test]
fn workspace_has_four_crates_one_shim_and_no_bench_or_proc_macro_target() {
    let packages = packages();

    let mut names: Vec<&str> = packages.iter().map(name).collect();
    names.sort_unstable();
    let want = [
        // the offline shim
        "rand",
        // root package + member crates
        "ssbench", "ssbench-engine", "ssbench-harness", "ssbench-systems", "ssbench-workload",
    ];
    assert_eq!(names, want);

    for unwanted in ["bench", "proc-macro"] {
        let found: Vec<String> = packages
            .iter()
            .flat_map(|p| list(p, "targets").iter().map(move |t| (p, t)))
            .filter(|(_, t)| list(t, "kind").iter().any(|k| k.as_str() == Some(unwanted)))
            .map(|(p, t)| format!("{}/{}", name(p), name(t)))
            .collect();
        assert!(
            found.is_empty(),
            "{unwanted} targets are back: {found:?} (see benchmark/README.md)"
        );
    }
}

#[test]
fn engine_has_no_normal_dependencies() {
    let packages = packages();
    let engine = packages.iter().find(|p| name(p) == "ssbench-engine").expect("engine listed");
    // `kind` is null for a normal dependency, "dev" / "build" otherwise.
    let normal: Vec<&str> = list(engine, "dependencies")
        .iter()
        .filter(|d| d.get("kind") == Some(&Json::Null))
        .map(name)
        .collect();
    assert!(normal.is_empty(), "the engine builds from std alone; it now depends on {normal:?}");
}
