//! One instrument: speed is measured by `benchmark/` (BENCHMARK.json) and
//! nowhere else. The workspace is the root package, four member crates and
//! the five offline shims (path dependencies under the workspace root are
//! members too), and declares no bench target, so a bench main cannot
//! quietly come back beside the benchmark.

use serde::Deserialize;

#[derive(Deserialize)]
struct Metadata {
    packages: Vec<Package>,
}

#[derive(Deserialize)]
struct Package {
    name: String,
    targets: Vec<Target>,
}

#[derive(Deserialize)]
struct Target {
    name: String,
    kind: Vec<String>,
}

#[test]
fn workspace_has_four_crates_five_shims_and_no_bench_target() {
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--no-deps", "--offline", "--format-version", "1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo metadata runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let meta: Metadata =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("metadata parses");

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
