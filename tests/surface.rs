//! The surface pin: four counts of the source tree's surface, each
//! defined beside its pin, that would otherwise only be taken by hand.
//! A change that moves a count edits the pin and says why. And the CI
//! workflow's check of itself: every test it names exists.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, in path order; build directories
/// (`target`, and hidden ones such as the benchmark's `.bench_build`)
/// left out.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of an item's body in `file`: those after the line that is
/// exactly `head`, up to the first line that is exactly `}`.
fn body(file: &str, head: &str) -> Vec<String> {
    let text = read(&root().join(file));
    assert!(text.lines().any(|line| line == head), "{file}: no `{head}`");
    let lines = text.lines().skip_while(|line| *line != head).skip(1);
    lines
        .take_while(|line| *line != "}")
        .map(str::to_owned)
        .collect()
}

/// `StateBackend` methods: the lines of the trait's body that open with
/// `    fn ` — every method, required or with a default.
#[test]
fn state_backend_methods() {
    let trait_body = body(
        "crates/common/src/backend.rs",
        "pub trait StateBackend: Send {",
    );
    let methods = trait_body.iter().filter(|line| line.starts_with("    fn "));
    assert_eq!(methods.count(), 22);
}

/// `RunOptions` `pub` fields: the lines of the struct's body that open
/// with `    pub `.
#[test]
fn run_options_pub_fields() {
    let fields = body("crates/spe/src/run.rs", "pub struct RunOptions {");
    let fields = fields.iter().filter(|line| line.starts_with("    pub "));
    assert_eq!(fields.count(), 25);
}

/// `StoreMetrics` references outside `metrics.rs`: occurrences of the
/// whole word in every `.rs` file of the repository — `perf/` included,
/// build directories not — but `crates/common/src/metrics.rs`, which
/// defines it, and this file, which names it.
#[test]
fn store_metrics_references_outside_metrics_rs() {
    const WORD: &str = "StoreMetrics";
    let defining = root().join("crates/common/src/metrics.rs");
    let this = root().join(file!());
    let part_of_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut references = 0;
    for file in rust_files(&root()) {
        if file == defining || file == this {
            continue;
        }
        let text = read(&file);
        references += text
            .match_indices(WORD)
            .filter(|&(at, _)| {
                let before = text[..at].chars().next_back();
                let after = text[at + WORD.len()..].chars().next();
                !before.is_some_and(part_of_word) && !after.is_some_and(part_of_word)
            })
            .count();
    }
    assert_eq!(references, 126);
}

/// `pub fn` per crate: the lines of each first-party crate's `src/` that
/// open, past their indentation, with `pub fn ` (`pub(crate)` and
/// narrower do not count; the vendored shims are not first-party).
#[test]
fn pub_fns_per_crate() {
    let mut counts = BTreeMap::new();
    for dir in fs::read_dir(root().join("crates")).unwrap() {
        let dir = dir.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if name == "shims" {
            continue;
        }
        let lines: usize = rust_files(&dir.join("src"))
            .iter()
            .map(|file| {
                let text = read(file);
                let pub_fns = text
                    .lines()
                    .filter(|l| l.trim_start().starts_with("pub fn "));
                pub_fns.count()
            })
            .sum();
        counts.insert(name, lines);
    }
    let pinned = [
        ("bench", 15),
        ("common", 237),
        ("core", 109),
        ("hashkv", 48),
        ("lsm", 83),
        ("nexmark", 19),
        ("serve", 29),
        ("spe", 50),
    ];
    let pinned = pinned.map(|(name, n)| (name.to_string(), n));
    assert_eq!(counts, BTreeMap::from(pinned));
}

/// `StdVfs::shared` in library code: occurrences in the lines of every
/// first-party crate's `src/` above the unindented line that opens its
/// `mod tests` (`mod tests {` or `pub(crate) mod tests {`), comment lines
/// (`//`, `///`, `//!`) left out, and binaries under `src/bin/` left out
/// with the shims and `vfs.rs`, which defines it. A store, baseline or
/// factory is built with the `Vfs` it runs on, so only these five pick
/// the real file system:
/// - `spe/src/backends.rs`, `BackendChoice::build`: the default when no
///   `FactoryOptions::vfs` is given;
/// - `spe/src/source.rs`, `TupleLog` and `LogSource`: the job's input
///   log;
/// - `spe/src/operator.rs`, the `OPSTATE` frame's writer and reader.
///
/// The last four are state files that bypass the `Vfs` (DESIGN.md §13).
#[test]
fn std_vfs_in_library_code() {
    const CALL: &str = "StdVfs::shared";
    let mut sites = Vec::new();
    for (file, n, line) in library_lines() {
        let src = file.ancestors().find(|dir| dir.ends_with("src")).unwrap();
        if file.ends_with("vfs.rs") || file.starts_with(src.join("bin")) {
            continue;
        }
        let at = file.strip_prefix(root()).unwrap().display();
        sites.extend(line.matches(CALL).map(|_| format!("{at}:{n}")));
    }
    assert_eq!(sites.len(), 5, "{sites:#?}");
}

/// Library code: every line of every first-party crate's `src/` above
/// the unindented line that opens its `mod tests` (`mod tests {` or
/// `pub(crate) mod tests {`), comment lines (`//`, `///`, `//!`) left
/// out and the shims with them, as `(file, line number, line)`.
fn library_lines() -> Vec<(PathBuf, usize, String)> {
    let mut lines = Vec::new();
    for dir in fs::read_dir(root().join("crates")).unwrap() {
        let dir = dir.unwrap().path();
        if dir.ends_with("shims") {
            continue;
        }
        for file in rust_files(&dir.join("src")) {
            let text = read(&file);
            let tests_mod = |line: &str| line.ends_with("mod tests {") && !line.starts_with(' ');
            let code = text
                .lines()
                .enumerate()
                .take_while(|(_, line)| !tests_mod(line));
            for (n, line) in code.filter(|(_, line)| !line.trim_start().starts_with("//")) {
                lines.push((file.clone(), n + 1, line.to_owned()));
            }
        }
    }
    lines
}

/// The access pattern is decided in one place: in library code only
/// `crates/common/src/backend.rs`, where `OperatorSemantics::pattern`
/// combines the aggregate kind with the window kind's alignment, asks a
/// window kind `.is_aligned()`, and the one enum named `…Pattern` is its
/// `Pattern`. A layer that needs the pattern reads that answer.
#[test]
fn one_access_pattern_classification() {
    let defining = root().join("crates/common/src/backend.rs");
    let (mut aligned, mut enums) = (Vec::new(), Vec::new());
    for (file, n, line) in library_lines() {
        let at = format!("{}:{n}", file.strip_prefix(root()).unwrap().display());
        if line.contains(".is_aligned()") && file != defining {
            aligned.push(at.clone());
        }
        let item = line
            .trim_start()
            .trim_start_matches("pub ")
            .trim_start_matches("pub(crate) ");
        let name = item
            .strip_prefix("enum ")
            .map(|rest| rest.split([' ', '<', '{']).next().unwrap());
        if name.is_some_and(|name| name.ends_with("Pattern")) {
            enums.push(format!("{at} {}", name.unwrap()));
        }
    }
    assert!(
        aligned.is_empty(),
        "alignment asked outside backend.rs: {aligned:#?}"
    );
    assert_eq!(enums.len(), 1, "{enums:#?}");
    assert!(
        enums[0].starts_with("crates/common/src/backend.rs:"),
        "{enums:#?}"
    );
}

/// The names of the tests a test target declares: each `fn` after a
/// `#[test]`, and each row of the `matrix!` table (one test per row).
fn test_names(file: &Path) -> Vec<String> {
    let text = read(file);
    let mut names = Vec::new();
    let (mut after_test, mut in_table) = (false, false);
    for line in text.lines().map(str::trim) {
        in_table = (in_table || line == "matrix! {") && line != "}";
        let ident = |s: &str| s.split(['(', '<', ':']).next().unwrap().to_owned();
        if let Some(row) = line.split_once(':').filter(|_| in_table) {
            names.push(ident(row.0));
        } else if let Some(f) = line.strip_prefix("fn ").filter(|_| after_test) {
            names.push(ident(f));
        }
        after_test = line == "#[test]" || (after_test && line.starts_with("#["));
    }
    names
}

/// The file of integration test `name`: under `tests/` or a crate's
/// `tests/`, or under `crate_dir`'s alone when given.
fn test_file(crate_dir: Option<&Path>, name: &str) -> PathBuf {
    let mut dirs = Vec::new();
    match crate_dir {
        Some(dir) => dirs.push(dir.join("tests")),
        None => {
            dirs.push(root().join("tests"));
            let crates = fs::read_dir(root().join("crates")).unwrap();
            dirs.extend(crates.map(|d| d.unwrap().path().join("tests")));
        }
    }
    let file = dirs
        .iter()
        .map(|d| d.join(format!("{name}.rs")))
        .find(|f| f.exists());
    file.unwrap_or_else(|| panic!("no test file `{name}.rs`"))
}

/// The directory of the workspace crate named `name`.
fn crate_dir(name: &str) -> PathBuf {
    let package = format!("name = \"{name}\"");
    let dirs = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|d| d.unwrap().path());
    let mut dirs = dirs.filter(|d| {
        let manifest = fs::read_to_string(d.join("Cargo.toml")).unwrap_or_default();
        manifest.lines().find(|l| l.starts_with("name = ")) == Some(package.as_str())
    });
    dirs.next().unwrap_or_else(|| panic!("no crate `{name}`"))
}

/// Whether `filter`, handed to a `-p CRATE --lib` test binary whose
/// crate's sources are `src`, selects a test: it names a module of `src`
/// (`x::` is `x.rs` or `x/mod.rs`) that holds a `#[test]`, or selects a
/// `#[test]` fn there.
fn lib_filter_selects(src: &Path, filter: &str) -> bool {
    match filter.strip_suffix("::") {
        Some(module) => {
            let path = src.join(module.replace("::", "/"));
            let file = [path.with_extension("rs"), path.join("mod.rs")];
            let file = file.into_iter().find(|f| f.exists());
            file.is_some_and(|f| read(&f).contains("#[test]"))
        }
        None => rust_files(src)
            .iter()
            .any(|f| test_names(f).iter().any(|n| n.contains(filter))),
    }
}

/// Checks every filter of one `ci/repeat.sh COUNT SELECTOR [FILTER...]...`
/// call: after `--test NAME` or `-p CRATE --test NAME`, a filter
/// selects one of that file's tests; after `-p CRATE --lib`, it passes
/// [`lib_filter_selects`]. Returns how many filters it checked.
fn check_repeat_filters(args: &str) -> usize {
    let words: Vec<&str> = args.split_whitespace().skip(1).collect();
    // The tests a filter may select, or the `src/` of a `--lib` selector.
    let (mut tests, mut lib) = (Vec::new(), None::<PathBuf>);
    let (mut at, mut checked) = (0, 0);
    while at < words.len() {
        match words[at..] {
            ["--test", name, ..] => {
                (tests, lib) = (test_names(&test_file(None, name)), None);
                at += 2;
            }
            ["-p", krate, "--test", name, ..] => {
                let file = test_file(Some(&crate_dir(krate)), name);
                (tests, lib) = (test_names(&file), None);
                at += 4;
            }
            ["-p", krate, "--lib", ..] => {
                lib = Some(crate_dir(krate).join("src"));
                at += 3;
            }
            [filter, ..] => {
                let selects = match &lib {
                    Some(src) => lib_filter_selects(src, filter),
                    None => tests.iter().any(|n| n.contains(filter)),
                };
                assert!(selects, "`{filter}` selects no test: ci/repeat.sh {args}");
                checked += 1;
                at += 1;
            }
            [] => unreachable!(),
        }
    }
    checked
}

/// Every `cargo test --test NAME` in the CI workflow names a test file
/// under `tests/` or `crates/*/tests/`, a filter after it selects at
/// least one of that file's tests, every filter handed to `ci/repeat.sh`
/// selects a test (see [`check_repeat_filters`]), so does every filter
/// of a `cargo test -p CRATE --lib` step, before `--` and after it (see
/// [`lib_filter_selects`]), and no plain `run:`
/// scalar holds an unquoted `: ` or ends in `::` — YAML reads either as
/// something else, and once kept the whole workflow from parsing.
#[test]
fn ci_steps_name_tests_that_exist() {
    // A shell line continued with `\` is one command.
    let ci = read(&root().join(".github/workflows/ci.yml")).replace("\\\n", " ");
    let (mut checked, mut repeated, mut lib_filters) = (0, 0, 0);
    for line in ci.lines() {
        let code = line.trim_start().trim_start_matches("- ");
        let words: Vec<&str> = code.split_whitespace().collect();
        let lib_step = words
            .windows(5)
            .position(|w| matches!(w, ["cargo", "test", "-p", _, "--lib"]))
            .filter(|_| !code.starts_with('#'));
        if let Some(at) = lib_step {
            let src = crate_dir(words[at + 3]).join("src");
            for word in words[at + 5..].iter().filter(|w| !w.starts_with('-')) {
                let filter = word.trim_matches(['\'', '"']);
                let selects = lib_filter_selects(&src, filter);
                assert!(selects, "`{filter}` selects no test: {line}");
                lib_filters += 1;
            }
        }
        if let Some(scalar) = code.strip_prefix("run: ") {
            let plain = !scalar.starts_with(['|', '>', '"', '\'']);
            let misread = scalar.contains(": ") || scalar.ends_with("::");
            assert!(!(plain && misread), "quote this run scalar: {line}");
        }
        let call = code
            .split_once("ci/repeat.sh ")
            .filter(|_| !code.starts_with('#'));
        if let Some((_, args)) = call {
            repeated += check_repeat_filters(args);
        }
        // Cargo's own arguments: a `--test` after `--` is the harness's.
        let words: Vec<&str> = code.split_whitespace().take_while(|w| *w != "--").collect();
        for at in (0..words.len()).filter(|&i| words[i] == "--test") {
            let name = words[at + 1].trim_end_matches(')');
            let file = test_file(None, name);
            let filter = words.get(at + 2).filter(|w| !w.starts_with('-'));
            if let Some(filter) = filter.map(|f| f.trim_matches(['\'', '"'])) {
                let names = test_names(&file);
                assert!(
                    names.iter().any(|n| n.contains(filter)),
                    "`{filter}` selects no test of {name}: {names:?}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 10, "only {checked} `--test` steps found");
    assert!(
        repeated > 5,
        "only {repeated} filters handed to ci/repeat.sh"
    );
    assert!(
        lib_filters >= 6,
        "only {lib_filters} filters of `cargo test --lib` steps"
    );
}
