//! One instrument: speed is measured by `benchmark/` (BENCHMARK.json) and
//! nowhere else. The workspace is the root package, four member crates and
//! the five offline shims (path dependencies under the workspace root are
//! members too), and declares no bench target, so a bench main cannot
//! quietly come back beside the benchmark. The engine depends on nothing.

use serde::Deserialize;

#[derive(Deserialize)]
struct Metadata {
    packages: Vec<Package>,
}

#[derive(Deserialize)]
struct Package {
    name: String,
    targets: Vec<Target>,
    dependencies: Vec<Dependency>,
}

#[derive(Deserialize)]
struct Dependency {
    name: String,
    /// `None` for a normal dependency, `"dev"` / `"build"` otherwise.
    kind: Option<String>,
}

#[derive(Deserialize)]
struct Target {
    name: String,
    kind: Vec<String>,
}

fn metadata() -> Metadata {
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--no-deps", "--offline", "--format-version", "1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo metadata runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("metadata parses")
}

#[test]
fn workspace_has_four_crates_five_shims_and_no_bench_target() {
    let meta = metadata();

    let mut names: Vec<&str> = meta.packages.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    let want = [
        // offline shims
        "proptest", "rand", "serde", "serde_derive", "serde_json",
        // root package + member crates
        "ssbench", "ssbench-engine", "ssbench-harness", "ssbench-systems", "ssbench-workload",
    ];
    assert_eq!(names, want);

    let benches: Vec<String> = meta
        .packages
        .iter()
        .flat_map(|p| p.targets.iter().map(move |t| (p, t)))
        .filter(|(_, t)| t.kind.iter().any(|k| k == "bench"))
        .map(|(p, t)| format!("{}/{}", p.name, t.name))
        .collect();
    assert!(benches.is_empty(), "bench targets are back: {benches:?} (see benchmark/README.md)");
}

#[test]
fn engine_has_no_normal_dependencies() {
    let meta = metadata();
    let engine = meta.packages.iter().find(|p| p.name == "ssbench-engine").expect("engine listed");
    let normal: Vec<&str> = engine
        .dependencies
        .iter()
        .filter(|d| d.kind.is_none())
        .map(|d| d.name.as_str())
        .collect();
    assert!(normal.is_empty(), "the engine builds from std alone; it now depends on {normal:?}");
}
