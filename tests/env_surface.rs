//! The environment surface is pinned: the set of `T2VEC_*` names that
//! appear as string literals in the program (`crates/`, `src/`,
//! `tests/`, `examples/`) must equal the first column of README.md's
//! "Environment variables" table. A PR that adds a knob without
//! documenting it — or documents one nothing reads — fails here.
//! `benchmark/` is a package of its own and is not scanned.

use std::collections::BTreeSet;
use std::path::Path;

const PREFIX: &str = concat!("T2VEC", "_");

/// Every name `N` such that `"N"` is a whole string literal in `text`
/// and `N` is `PREFIX` followed by `[A-Z0-9_]+`.
fn env_literals(text: &str, into: &mut BTreeSet<String>) {
    let opener = format!("\"{PREFIX}");
    let mut rest = text;
    while let Some(at) = rest.find(&opener) {
        let name = &rest[at + 1..];
        let len = name
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(name.len());
        if len > PREFIX.len() && name[len..].starts_with('"') {
            into.insert(name[..len].to_string());
        }
        rest = &name[len..];
    }
}

fn scan_rust_files(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan_rust_files(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            env_literals(&std::fs::read_to_string(&path).expect("read source"), into);
        }
    }
}

/// The backticked names in the first column of the README table.
fn documented(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .skip_while(|l| l.trim() != "## Environment variables")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn env_names_in_code_equal_the_readme_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples"] {
        scan_rust_files(&root.join(dir), &mut in_code);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let in_readme = documented(&readme);
    assert!(!in_readme.is_empty(), "README has no environment table");
    assert_eq!(
        in_code, in_readme,
        "{PREFIX}* names read by the code (left) differ from README.md's \
         \"Environment variables\" table (right): document the new knob or remove it"
    );
}
