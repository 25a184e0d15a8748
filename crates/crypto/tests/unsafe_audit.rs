//! The crate's `unsafe` budget, read from its sources: the crate denies
//! `unsafe_code`, one module (`speck/lanes.rs`) allows it, and that
//! module's only `unsafe` is its two run-time dispatch calls to the wide
//! Speck kernels, each under a `// SAFETY:` comment naming the feature
//! detection it rests on.

use std::path::{Path, PathBuf};

const DISPATCH_MODULE: &str = "speck/lanes.rs";

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read the source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The code of a line: everything before a `//` comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// Whether `code` uses the `unsafe` keyword (not the `unsafe_code` lint).
fn uses_unsafe(code: &str) -> bool {
    code.match_indices("unsafe").any(|(at, word)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        !ident(before) && !ident(after)
    })
}

#[test]
fn unsafe_is_only_the_audited_dispatch_calls() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let lib = std::fs::read_to_string(src.join("lib.rs")).expect("read lib.rs");
    assert!(
        lib.contains("#![deny(unsafe_code)]"),
        "the crate denies unsafe code"
    );

    let mut files = Vec::new();
    sources(&src, &mut files);
    files.sort();
    let mut dispatch_calls = Vec::new();
    for path in &files {
        let name = path
            .strip_prefix(&src)
            .expect("under src")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).expect("read a source file");
        let lines: Vec<&str> = text.lines().collect();
        let allows = text.contains("allow(unsafe_code)");
        assert_eq!(
            allows,
            name == DISPATCH_MODULE,
            "{name}: allow(unsafe_code)"
        );
        for (i, line) in lines.iter().enumerate() {
            if !uses_unsafe(code(line)) {
                continue;
            }
            assert_eq!(
                name,
                DISPATCH_MODULE,
                "unsafe outside the dispatch module: {name}:{}",
                i + 1
            );
            let call = code(line).trim();
            assert!(
                call == "Kernel::Avx512 => unsafe { avx512(keys, blocks) },"
                    || call == "Kernel::Avx2 => unsafe { avx2(keys, blocks) },",
                "{name}:{}: `{call}` is not a dispatch call",
                i + 1
            );
            // The comment block right above the call (past its `cfg`).
            let comment: Vec<&str> = lines[..i]
                .iter()
                .rev()
                .map(|l| l.trim())
                .take_while(|l| l.starts_with("//"))
                .collect();
            let safety = comment
                .iter()
                .rev()
                .map(|l| l.trim_start_matches("//").trim())
                .collect::<Vec<_>>()
                .join(" ");
            assert!(
                safety.starts_with("SAFETY:") && safety.contains("detected"),
                "{name}:{}: the call needs a `// SAFETY:` comment naming the detection, found `{safety}`",
                i + 1
            );
            dispatch_calls.push(call.to_string());
        }
    }
    assert_eq!(
        dispatch_calls.len(),
        2,
        "exactly the two dispatch calls: {dispatch_calls:?}"
    );
}
