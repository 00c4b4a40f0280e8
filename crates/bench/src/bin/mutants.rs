//! Source mutants: each entry of a manifest removes or changes one
//! mechanism in a copy of the tree, and the tests named with it must then
//! fail. A test that still passes once its mechanism is gone does not keep
//! that mechanism.
//!
//! ```text
//! cargo run --release -p nt_bench --bin mutants -- crates/bench/mutants.txt
//! ```
//!
//! Run it from inside the repository: the tree is the repository's tracked
//! and untracked, not ignored, files (`git ls-files`). It is copied once
//! into a temporary directory, and every command builds into one target
//! directory inside it. For each entry, in order:
//!
//! 1. The entry's command runs on the unmutated copy and must pass (once
//!    per distinct command: the copy is restored byte for byte after every
//!    entry, so a command that passed on it once passes again).
//! 2. Its edits are applied. Each `find` text must occur exactly once in
//!    its file, or the manifest is stale.
//! 3. The command runs again and must fail, and its output must carry the
//!    libtest failure header (`---- NAME stdout ----`) of every `fails:`
//!    test and every `says:` text.
//! 4. The edited files are restored and must read back byte-identical.
//!
//! The harness reports every entry, and exits non-zero if any entry went
//! wrong, naming it.
//!
//! Manifest format: `#` starts a comment line and blank lines are ignored,
//! outside edit blocks. An entry is
//!
//! ```text
//! [name]
//! run: <shell command, run with `sh -c` from the tree's root>
//! fails: <test, as libtest names it>       (one or more)
//! says: <text the failing output contains> (any number)
//! edit: <path from the tree's root>        (one or more, each followed by)
//! <<<<
//! <lines to find>
//! ====
//! <lines to put in their place (none deletes them)>
//! >>>>
//! ```

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// One textual replacement in one file.
#[derive(Debug)]
struct Edit {
    file: String,
    find: String,
    replace: String,
}

/// One mutant: the edits that make it, the command that must kill it, and
/// what the kill must show.
#[derive(Debug)]
struct Entry {
    name: String,
    run: String,
    fails: Vec<String>,
    says: Vec<String>,
    edits: Vec<Edit>,
}

/// Reads the lines of an edit block up to (not including) `end`.
fn block<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    end: &str,
    opened: usize,
) -> Result<String, String> {
    let mut text = String::new();
    for (_, line) in lines.by_ref() {
        if line == end {
            return Ok(text);
        }
        text.push_str(line);
        text.push('\n');
    }
    Err(format!("line {opened}: edit block never reaches `{end}`"))
}

fn parse(manifest: &str) -> Result<Vec<Entry>, String> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut lines = manifest.lines().enumerate().map(|(i, l)| (i + 1, l));
    while let Some((n, line)) = lines.next() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if entries.iter().any(|e| e.name == name) {
                return Err(format!("line {n}: entry [{name}] appears twice"));
            }
            entries.push(Entry {
                name: name.to_string(),
                run: String::new(),
                fails: vec![],
                says: vec![],
                edits: vec![],
            });
            continue;
        }
        let entry = entries
            .last_mut()
            .ok_or(format!("line {n}: `{line}` before the first [entry]"))?;
        let (key, value) = line
            .split_once(": ")
            .ok_or(format!("line {n}: expected `key: value`, got `{line}`"))?;
        match key {
            "run" => entry.run = value.to_string(),
            "fails" => entry.fails.push(value.to_string()),
            "says" => entry.says.push(value.to_string()),
            "edit" => {
                match lines.next() {
                    Some((_, "<<<<")) => {}
                    _ => return Err(format!("line {n}: `edit:` must be followed by `<<<<`")),
                }
                let find = block(&mut lines, "====", n)?;
                let replace = block(&mut lines, ">>>>", n)?;
                entry.edits.push(Edit {
                    file: value.to_string(),
                    find,
                    replace,
                });
            }
            _ => return Err(format!("line {n}: unknown key `{key}`")),
        }
    }
    for entry in &entries {
        if entry.run.is_empty() || entry.fails.is_empty() || entry.edits.is_empty() {
            return Err(format!(
                "entry [{}] needs a `run:`, at least one `fails:` and one `edit:`",
                entry.name
            ));
        }
    }
    Ok(entries)
}

/// Runs `command` with `sh -c` in `root`, building into `target`; whether
/// it passed, and its stdout and stderr together.
fn run(command: &str, root: &Path, target: &Path) -> Result<(bool, String), String> {
    let out = Command::new("sh")
        .arg("-c")
        .arg(command)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .map_err(|e| format!("cannot start `sh -c {command}`: {e}"))?;
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    Ok((out.status.success(), text))
}

/// The last `n` lines of `output`, for a report.
fn tail(output: &str, n: usize) -> String {
    let lines: Vec<&str> = output.lines().collect();
    lines[lines.len().saturating_sub(n)..].join("\n")
}

/// Applies `entry`'s edits in `root`; returns the original bytes of every
/// file it touched, also when it fails half way (a stale `find`).
fn apply(entry: &Entry, root: &Path) -> (BTreeMap<PathBuf, Vec<u8>>, Result<(), String>) {
    let mut originals = BTreeMap::new();
    for edit in &entry.edits {
        let path = root.join(&edit.file);
        let text = match std::fs::read(&path) {
            Ok(bytes) => {
                originals
                    .entry(path.clone())
                    .or_insert_with(|| bytes.clone());
                String::from_utf8_lossy(&bytes).into_owned()
            }
            Err(e) => return (originals, Err(format!("cannot read {}: {e}", edit.file))),
        };
        let found = text.matches(&edit.find).count();
        if found != 1 {
            let first = edit.find.lines().next().unwrap_or("");
            return (
                originals,
                Err(format!(
                    "stale manifest: the find text starting `{}` occurs {found} times in {}, \
                     not once",
                    first.trim(),
                    edit.file
                )),
            );
        }
        if let Err(e) = std::fs::write(&path, text.replacen(&edit.find, &edit.replace, 1)) {
            return (originals, Err(format!("cannot write {}: {e}", edit.file)));
        }
    }
    (originals, Ok(()))
}

/// Writes every original back and checks it reads back byte-identical.
fn restore(originals: &BTreeMap<PathBuf, Vec<u8>>) -> Result<(), String> {
    for (path, bytes) in originals {
        std::fs::write(path, bytes).map_err(|e| format!("cannot restore {path:?}: {e}"))?;
        if std::fs::read(path).ok().as_ref() != Some(bytes) {
            return Err(format!("{path:?} differs from its original after restore"));
        }
    }
    Ok(())
}

/// Runs one entry in the unmutated tree at `root`; `passed` remembers the
/// commands already seen passing there.
fn check(
    entry: &Entry,
    root: &Path,
    target: &Path,
    passed: &mut HashSet<String>,
) -> Result<(), String> {
    if !passed.contains(&entry.run) {
        let (ok, output) = run(&entry.run, root, target)?;
        if !ok {
            return Err(format!(
                "broken baseline: `{}` fails on the unmutated tree:\n{}",
                entry.run,
                tail(&output, 30)
            ));
        }
        passed.insert(entry.run.clone());
    }
    let (originals, applied) = apply(entry, root);
    let result = applied.and_then(|()| run(&entry.run, root, target));
    restore(&originals)?;
    let (ok, output) = result?;
    if ok {
        return Err(format!(
            "the mutant survived: `{}` passes with the edits applied",
            entry.run
        ));
    }
    let missing: Vec<String> = entry
        .fails
        .iter()
        .map(|test| format!("---- {test} stdout ----"))
        .chain(entry.says.iter().cloned())
        .filter(|text| !output.contains(text.as_str()))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "the mutant was killed, but not as the manifest says: no {missing:?} in\n{}",
            tail(&output, 30)
        ));
    }
    Ok(())
}

/// Runs every entry in order in the tree at `root`, printing progress;
/// returns each entry's name and outcome.
fn check_all(entries: &[Entry], root: &Path, target: &Path) -> Vec<(String, Result<(), String>)> {
    let mut passed = HashSet::new();
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let start = Instant::now();
            let result = check(entry, root, target, &mut passed);
            println!(
                "[{}/{}] {}: {} ({:.0} s)",
                i + 1,
                entries.len(),
                entry.name,
                if result.is_ok() { "killed" } else { "FAILED" },
                start.elapsed().as_secs_f64()
            );
            (entry.name.clone(), result)
        })
        .collect()
}

/// Copies `files` (paths relative to `from`) to the same paths under `to`.
fn copy_tree(from: &Path, files: &[String], to: &Path) -> Result<(), String> {
    for file in files {
        let (src, dst) = (from.join(file), to.join(file));
        if !src.is_file() {
            continue; // deleted in the working tree, or not a plain file
        }
        if let Some(dir) = dst.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::copy(&src, &dst).map_err(|e| format!("cannot copy {file}: {e}"))?;
    }
    Ok(())
}

/// The repository's root and the files of its tree, from `git`.
fn tree() -> Result<(PathBuf, Vec<String>), String> {
    let git = |args: &[&str]| -> Result<String, String> {
        let out = Command::new("git")
            .args(args)
            .output()
            .map_err(|e| format!("cannot run git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {args:?} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let root = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?.trim());
    let root_arg = root.to_string_lossy().into_owned();
    let files = git(&[
        "-C",
        &root_arg,
        "ls-files",
        "-z",
        "--cached",
        "--others",
        "--exclude-standard",
    ])?;
    let files = files
        .split('\0')
        .filter(|f| !f.is_empty())
        .map(str::to_string)
        .collect();
    Ok((root, files))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [manifest] = args.as_slice() else {
        eprintln!("usage: mutants <manifest>");
        std::process::exit(2);
    };
    let fail = |msg: String| -> ! {
        eprintln!("mutants: {msg}");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| fail(format!("cannot read {manifest}: {e}")));
    let entries = parse(&text).unwrap_or_else(|e| fail(format!("{manifest}: {e}")));
    let (root, files) = tree().unwrap_or_else(|e| fail(e));
    let scratch = std::env::temp_dir().join(format!("nt-mutants-{}", std::process::id()));
    let copy = scratch.join("tree");
    let start = Instant::now();
    copy_tree(&root, &files, &copy).unwrap_or_else(|e| fail(e));
    println!(
        "{} entries; {} files copied to {}",
        entries.len(),
        files.len(),
        copy.display()
    );
    let results = check_all(&entries, &copy, &scratch.join("target"));
    // The copy and its target directory are scratch, whatever the outcome.
    let _ = std::fs::remove_dir_all(&scratch);
    let failed: Vec<&(String, Result<(), String>)> =
        results.iter().filter(|(_, r)| r.is_err()).collect();
    for (name, result) in &failed {
        if let Err(e) = result {
            println!("\n[{name}] {e}");
        }
    }
    println!(
        "\n{} of {} mutants killed as the manifest says ({:.0} s)",
        results.len() - failed.len(),
        results.len(),
        start.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        let names: Vec<&str> = failed.iter().map(|(n, _)| n.as_str()).collect();
        fail(format!("entries that went wrong: {}", names.join(", ")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy tree in a fresh directory: `a.txt` holds a guard line once and
    /// a twice-repeated line.
    fn toy(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nt-mutants-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/a.txt"), "keep\nguard\ntwice\ntwice\n").unwrap();
        std::fs::write(dir.join("b.txt"), "other\n").unwrap();
        dir
    }

    /// The toy command: passes while `src/a.txt` still has its guard, and
    /// otherwise fails the way a libtest test named `guard_test` does.
    const GUARDED: &str = "grep -q guard src/a.txt || { echo '---- guard_test stdout ----'; \
                           echo 'tripped [agreement]'; exit 1; }";

    fn entry(run: &str, find: &str, replace: &str) -> Entry {
        Entry {
            name: "toy".into(),
            run: run.into(),
            fails: vec!["guard_test".into()],
            says: vec!["[agreement]".into()],
            edits: vec![Edit {
                file: "src/a.txt".into(),
                find: find.into(),
                replace: replace.into(),
            }],
        }
    }

    /// Runs `entry` on a fresh toy tree, checks every file reads back as it
    /// was, and returns the outcome.
    fn outcome(name: &str, entry: &Entry) -> Result<(), String> {
        let dir = toy(name);
        let before = (
            std::fs::read(dir.join("src/a.txt")).unwrap(),
            std::fs::read(dir.join("b.txt")).unwrap(),
        );
        let result = check(entry, &dir, &dir.join("target"), &mut HashSet::new());
        let after = (
            std::fs::read(dir.join("src/a.txt")).unwrap(),
            std::fs::read(dir.join("b.txt")).unwrap(),
        );
        assert_eq!(
            before, after,
            "a file differs from its original after the entry"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    #[test]
    fn a_killed_mutant_passes() {
        assert_eq!(outcome("killed", &entry(GUARDED, "guard\n", "")), Ok(()));
    }

    #[test]
    fn a_find_text_that_occurs_zero_or_two_times_is_stale() {
        for (case, find) in [("absent", "missing\n"), ("twice", "twice\n")] {
            let err = outcome(case, &entry(GUARDED, find, "")).unwrap_err();
            assert!(err.starts_with("stale manifest"), "{case}: {err}");
        }
    }

    #[test]
    fn a_command_that_fails_unmutated_is_a_broken_baseline() {
        let err = outcome("baseline", &entry("exit 1", "guard\n", "")).unwrap_err();
        assert!(err.starts_with("broken baseline"), "{err}");
    }

    #[test]
    fn a_surviving_mutant_fails_the_run() {
        // The replacement equal to the find text changes nothing.
        let err = outcome("survivor", &entry(GUARDED, "guard\n", "guard\n")).unwrap_err();
        assert!(err.starts_with("the mutant survived"), "{err}");
    }

    #[test]
    fn a_kill_without_the_named_test_or_text_fails_the_run() {
        let mut wrong_test = entry(GUARDED, "guard\n", "");
        wrong_test.fails = vec!["another_test".into()];
        let err = outcome("wrong_test", &wrong_test).unwrap_err();
        assert!(err.contains("---- another_test stdout ----"), "{err}");
        let mut wrong_text = entry(GUARDED, "guard\n", "");
        wrong_text.says = vec!["[fairness]".into()];
        let err = outcome("wrong_text", &wrong_text).unwrap_err();
        assert!(err.contains("[fairness]"), "{err}");
    }

    #[test]
    fn a_stale_second_edit_restores_the_first() {
        let mut e = entry(GUARDED, "guard\n", "");
        e.edits.push(Edit {
            file: "b.txt".into(),
            find: "missing\n".into(),
            replace: String::new(),
        });
        let err = outcome("half", &e).unwrap_err();
        assert!(err.contains("b.txt"), "{err}");
    }

    #[test]
    fn the_manifest_parses_blocks_verbatim() {
        let text = "# comment\n\n[one]\nrun: cargo test -q x\nfails: x\nsays: [agreement]\n\
                    edit: src/a.rs\n<<<<\n    if guard {\n# not a comment\n====\n>>>>\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(
            (e.name.as_str(), e.run.as_str()),
            ("one", "cargo test -q x")
        );
        assert_eq!(e.edits[0].find, "    if guard {\n# not a comment\n");
        assert_eq!(e.edits[0].replace, "");
        assert!(
            parse("[one]\nrun: x\nfails: y\n").is_err(),
            "an entry needs an edit"
        );
        assert!(parse("[one]\nedit: a\n<<<<\nx\n").is_err(), "an open block");
    }

    /// The checked-in manifest parses, and every entry's edits apply to
    /// this tree: the stale check, without building a mutant.
    #[test]
    fn the_checked_in_manifest_is_fresh() {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let entries = parse(&std::fs::read_to_string(bench.join("mutants.txt")).unwrap()).unwrap();
        for entry in &entries {
            let mut files: BTreeMap<&str, String> = BTreeMap::new();
            for edit in &entry.edits {
                let text = files.entry(&edit.file).or_insert_with(|| {
                    std::fs::read_to_string(bench.join("../..").join(&edit.file)).unwrap()
                });
                let found = text.matches(&edit.find).count();
                assert_eq!(
                    found, 1,
                    "[{}]: {} holds its find text {found} times",
                    entry.name, edit.file
                );
                *text = text.replacen(&edit.find, &edit.replace, 1);
            }
        }
    }
}
