//! The crate graph as documented is the crate graph as built: every
//! `crates/*/Cargo.toml` `[dependencies]` table names exactly the crates
//! ARCHITECTURE.md's "Concretely:" paragraph gives for it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The `[dependencies]` table of a manifest, `genoc-` prefixes stripped.
fn manifest_dependencies(manifest: &str) -> BTreeSet<String> {
    let mut in_table = false;
    let mut deps = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            let name = line
                .split(['.', '=', ' '])
                .next()
                .expect("split yields a first piece");
            deps.insert(name.strip_prefix("genoc-").unwrap_or(name).to_string());
        }
    }
    deps
}

/// The edges of the "Concretely:" paragraph: one `` `crate → {a, b}` `` span
/// per crate.
fn documented_dependencies(architecture: &str) -> BTreeMap<String, BTreeSet<String>> {
    let start = architecture
        .find("Concretely:")
        .expect("ARCHITECTURE.md has a \"Concretely:\" paragraph");
    let paragraph = &architecture[start..];
    let paragraph = &paragraph[..paragraph.find("\n\n").unwrap_or(paragraph.len())];
    let mut graph = BTreeMap::new();
    for span in paragraph.split('`').skip(1).step_by(2) {
        let Some((name, deps)) = span.split_once(" → ") else {
            continue;
        };
        let deps = deps
            .trim()
            .strip_prefix('{')
            .and_then(|d| d.strip_suffix('}'))
            .unwrap_or_else(|| panic!("`{span}`: dependencies must be a {{…}} set"));
        let deps = deps
            .split(',')
            .map(str::trim)
            .filter(|d| !d.is_empty())
            .map(String::from)
            .collect();
        let previous = graph.insert(name.trim().to_string(), deps);
        assert!(previous.is_none(), "`{name}` is documented twice");
    }
    graph
}

#[test]
fn manifests_match_the_documented_crate_graph() {
    let root = Path::new(ROOT);
    let architecture = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let documented = documented_dependencies(&architecture);
    let mut built = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue; // `shims/` holds crates one level further down
        };
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        built.insert(name, manifest_dependencies(&manifest));
    }
    assert_eq!(
        built.keys().collect::<Vec<_>>(),
        documented.keys().collect::<Vec<_>>(),
        "the documented crates are the workspace's crates"
    );
    for (name, deps) in &built {
        assert_eq!(
            deps, &documented[name],
            "crates/{name}/Cargo.toml [dependencies] vs ARCHITECTURE.md"
        );
    }
}

#[test]
fn the_parsers_read_what_they_are_given() {
    let manifest = "[package]\nname = \"genoc-x\"\n\n[dependencies]\n\
                    genoc-core.workspace = true\nrand = { path = \"r\" }\n\n\
                    [dev-dependencies]\ngenoc-routing.workspace = true\n";
    assert_eq!(
        manifest_dependencies(manifest),
        BTreeSet::from(["core".to_string(), "rand".to_string()])
    );
    let doc = "Concretely: `core → {}`; `sim → {core, rand}`.\n\nLater: `x → {y}`.";
    let graph = documented_dependencies(doc);
    assert_eq!(graph.len(), 2);
    assert!(graph["core"].is_empty());
    assert_eq!(graph["sim"].len(), 2);
}
