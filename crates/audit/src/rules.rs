//! The audit rules: project-specific determinism, panic-safety and
//! concurrency-hygiene lints over the token stream.
//!
//! Every rule is a pure function of one file's [`FileContext`]; rule
//! applicability is decided per crate (see [`rule_applies`]). Findings are
//! matched against inline waivers afterwards by [`audit_tokens`].

use crate::analysis::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::waiver::{parse_waivers, Waiver};

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit unless waived.
    Deny,
    /// Reported for visibility; never fails the audit.
    Warn,
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`unordered-iter`, `wall-clock`, …).
    pub rule: &'static str,
    /// Deny or warn.
    pub severity: Severity,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human explanation.
    pub message: String,
    /// Whether an inline waiver covers this finding.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waive_reason: Option<String>,
}

/// Determinism: these crates' data paths must not observe hash-map
/// iteration order.
const DETERMINISM_CRATES: &[&str] = &[
    "fairnn-space",
    "fairnn-sketch",
    "fairnn-lsh",
    "fairnn-core",
    "fairnn-engine",
    "fairnn-snapshot",
];

/// Wall-clock and ambient entropy are allowed only in benchmarking code,
/// in the parallel substrate (which owns the thread-count knob), and in
/// the observability crate (which owns the audited clock seam).
const WALL_CLOCK_EXEMPT: &[&str] = &["fairnn-bench", "fairnn-parallel", "fairnn-obs"];

/// Only the observability crate's `Clock` seam and benchmark binaries may
/// read the raw OS clocks; everything else routes timing through
/// `fairnn_obs::monotonic_ns`/`wall_unix_ns` so tests can inject a
/// `ManualClock`.
const DIRECT_INSTANT_EXEMPT: &[&str] = &["fairnn-obs", "fairnn-bench"];

/// Only the parallel substrate may create OS threads.
const THREAD_EXEMPT: &[&str] = &["fairnn-parallel"];

/// Hash-container methods that expose arbitrary iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers that read the wall clock or ambient machine state.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "available_parallelism",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "from_os_rng",
];

/// The parallel substrate's fork/join entry points (for nesting detection).
const SUBSTRATE_CALLS: &[&str] = &["map_ranges", "map_slices", "map_indexed", "for_each_mut"];

/// The one module blessed to contain `unsafe` code: the snapshot crate's
/// byte-view layer (aligned buffers, Pod reinterpretation, the SIMD
/// dispatcher and the prefetch shim). `zero-copy-unsafe` waivers are
/// honored only at this path; everywhere else the rule is unconditional,
/// so a waiver comment cannot smuggle `unsafe` into another crate.
pub const ZERO_COPY_BLESSED_PATH: &str = "crates/snapshot/src/bytes.rs";

/// The only files allowed to call the sealed index-mutation entry points
/// (`LshTables::appended`/`LshTables::compacted`): the LSH table module
/// that defines them and the engine shard that wraps them. Every other
/// call site must mutate through `fairnn_engine::EngineWriter`, whose
/// commits are write-ahead-logged and published as immutable generations —
/// tables built by a direct call leave no WAL record to replay.
pub const THAW_BLESSED_PATHS: &[&str] = &["crates/lsh/src/table.rs", "crates/engine/src/shard.rs"];

/// The sealed mutation entry points the `thaw-outside-writer` rule watches.
const THAW_SEALED_CALLS: &[&str] = &["appended", "compacted"];

/// The only place allowed to touch `std::net`: the server crate, the
/// workspace's single network boundary — every socket behind it carries
/// the bounded parser, admission control, and drain lifecycle. A socket
/// opened anywhere else would bypass all of that, so `net-outside-server`
/// flags it. Paths are workspace-relative prefixes.
pub const NET_BLESSED_PATHS: &[&str] = &["crates/server/"];

/// The socket-opening types the `net-outside-server` rule watches (the
/// `std::net` path segment itself is flagged separately, so address-only
/// imports don't slip a listener in through a glob).
const NET_SOCKET_TYPES: &[&str] = &[
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
];

/// Every rule id the tool knows, with its severity and one-line summary
/// (the README and `--help` render this table).
pub const RULES: &[(&str, Severity, &str)] = &[
    (
        "unordered-iter",
        Severity::Deny,
        "no HashMap/HashSet iteration order may reach a data path of the deterministic crates",
    ),
    (
        "wall-clock",
        Severity::Deny,
        "no wall-clock reads or ambient entropy/core-count outside fairnn-bench and fairnn-parallel",
    ),
    (
        "snapshot-panic",
        Severity::Deny,
        "no unwrap/expect/panic! in fairnn-snapshot: decoders return typed SnapshotErrors",
    ),
    (
        "snapshot-index",
        Severity::Deny,
        "no direct slice indexing in fairnn-snapshot: bounds failures must become SnapshotErrors",
    ),
    (
        "raw-thread",
        Severity::Deny,
        "no std::thread::spawn/scope outside fairnn-parallel",
    ),
    (
        "direct-instant",
        Severity::Deny,
        "no Instant::now/SystemTime::now outside fairnn-obs and fairnn-bench: \
         time flows through the fairnn-obs Clock seam",
    ),
    (
        "nested-parallel",
        Severity::Warn,
        "nested fairnn-parallel substrate calls run serially — flag them for restructuring",
    ),
    (
        "zero-copy-unsafe",
        Severity::Deny,
        "no unsafe/transmute/raw-pointer casts outside the blessed fairnn-snapshot \
         byte-view module; every use there carries a written waiver",
    ),
    (
        "thaw-outside-writer",
        Severity::Deny,
        "no direct index mutation (LshTables::appended/compacted) outside the LSH table \
         module and the engine shard: mutate through EngineWriter::commit",
    ),
    (
        "net-outside-server",
        Severity::Deny,
        "no std::net sockets outside fairnn-server and the bench load generator: \
         the network boundary is one crate, behind its parser caps and admission control",
    ),
    (
        "waiver-reason",
        Severity::Deny,
        "every waiver must be well-formed, name known rules, and carry a non-empty reason",
    ),
];

/// Whether `rule` is enforced for `crate_name`.
pub fn rule_applies(rule: &str, crate_name: &str) -> bool {
    match rule {
        "unordered-iter" => DETERMINISM_CRATES.contains(&crate_name),
        "wall-clock" => !WALL_CLOCK_EXEMPT.contains(&crate_name),
        "snapshot-panic" | "snapshot-index" => crate_name == "fairnn-snapshot",
        "raw-thread" => !THREAD_EXEMPT.contains(&crate_name),
        "direct-instant" => !DIRECT_INSTANT_EXEMPT.contains(&crate_name),
        "nested-parallel" => crate_name != "fairnn-parallel",
        "zero-copy-unsafe" => true,
        "thaw-outside-writer" => true,
        "net-outside-server" => true,
        "waiver-reason" => true,
        _ => false,
    }
}

/// Audits one lexed file and resolves waivers. `path` is only used for
/// diagnostics; `crate_name` selects the applicable rules.
pub fn audit_tokens(path: &str, crate_name: &str, tokens: &[Token]) -> Vec<Finding> {
    let fc = FileContext::new(tokens);
    let waivers = parse_waivers(&fc.comments, &fc.code);
    let mut findings = Vec::new();

    if rule_applies("unordered-iter", crate_name) {
        check_unordered_iter(&fc, &mut findings);
    }
    if rule_applies("wall-clock", crate_name) {
        check_wall_clock(&fc, &mut findings);
    }
    if rule_applies("snapshot-panic", crate_name) {
        check_snapshot_panic(&fc, &mut findings);
    }
    if rule_applies("snapshot-index", crate_name) {
        check_snapshot_index(&fc, &mut findings);
    }
    if rule_applies("raw-thread", crate_name) {
        check_raw_thread(&fc, &mut findings);
    }
    if rule_applies("direct-instant", crate_name) {
        check_direct_instant(&fc, &mut findings);
    }
    if rule_applies("nested-parallel", crate_name) {
        check_nested_parallel(&fc, &mut findings);
    }
    if rule_applies("zero-copy-unsafe", crate_name) {
        check_zero_copy_unsafe(&fc, &mut findings);
    }
    if rule_applies("thaw-outside-writer", crate_name)
        && !THAW_BLESSED_PATHS.iter().any(|p| path.ends_with(p))
    {
        check_thaw_outside_writer(&fc, &mut findings);
    }
    if rule_applies("net-outside-server", crate_name)
        && !NET_BLESSED_PATHS.iter().any(|p| path.starts_with(p))
    {
        check_net_outside_server(&fc, &mut findings);
    }
    check_waivers(&waivers, &mut findings);

    let mut out: Vec<Finding> = findings
        .into_iter()
        .map(|raw| resolve(path, raw, &waivers))
        .collect();
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// A finding before path stamping and waiver resolution.
struct Raw {
    rule: &'static str,
    severity: Severity,
    line: u32,
    col: u32,
    message: String,
}

fn raw(rule: &'static str, severity: Severity, t: &Token, message: String) -> Raw {
    Raw {
        rule,
        severity,
        line: t.line,
        col: t.col,
        message,
    }
}

fn resolve(path: &str, f: Raw, waivers: &[Waiver]) -> Finding {
    // Waivers never cover the waiver hygiene rule itself, and waivers for
    // the unsafe rule only count inside the blessed byte-view module.
    let unwaivable = f.rule == "waiver-reason"
        || (f.rule == "zero-copy-unsafe" && !path.ends_with(ZERO_COPY_BLESSED_PATH));
    let waiver = if unwaivable {
        None
    } else {
        waivers.iter().find(|w| w.covers(f.rule, f.line))
    };
    Finding {
        rule: f.rule,
        severity: f.severity,
        path: path.to_string(),
        line: f.line,
        col: f.col,
        message: f.message,
        waived: waiver.is_some(),
        waive_reason: waiver.map(|w| w.reason.clone()),
    }
}

fn check_unordered_iter(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `recv.iter()` where `recv` is a known hash container.
        if ITER_METHODS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            && i >= 2
            && code[i - 1].is_punct(b'.')
            && code[i - 2].kind == TokenKind::Ident
            && fc.hash_names.contains(&code[i - 2].text)
        {
            out.push(raw(
                "unordered-iter",
                Severity::Deny,
                t,
                format!(
                    "`{}.{}()` iterates a hash container in arbitrary order; \
                     sort the keys first or waive with the ordering argument",
                    code[i - 2].text,
                    t.text
                ),
            ));
            continue;
        }
        // Path form: `HashMap::values` passed as a function.
        if (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && code.get(i + 1).is_some_and(|a| a.is_punct(b':'))
            && code.get(i + 2).is_some_and(|b| b.is_punct(b':'))
            && code
                .get(i + 3)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
        {
            out.push(raw(
                "unordered-iter",
                Severity::Deny,
                t,
                format!(
                    "`{}::{}` exposes arbitrary hash iteration order",
                    t.text,
                    code[i + 3].text
                ),
            ));
            continue;
        }
        // `for x in &map { … }` over a known hash container.
        if t.is_ident("for") {
            if let Some(name) = for_loop_hash_receiver(fc, i) {
                out.push(raw(
                    "unordered-iter",
                    Severity::Deny,
                    t,
                    format!("`for … in {name}` iterates a hash container in arbitrary order"),
                ));
            }
        }
    }
}

/// For a `for` at code index `i`, returns the iterated hash container name
/// when the loop ranges directly over one (`&map`, `&mut map`,
/// `&self.map`) — method chains are caught by the receiver check instead.
fn for_loop_hash_receiver(fc: &FileContext<'_>, i: usize) -> Option<String> {
    let code = &fc.code;
    // Skip the pattern: everything up to the `in` at paren/bracket depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < code.len() {
        let t = code[j];
        if t.is_punct(b'(') || t.is_punct(b'[') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            break;
        } else if t.is_punct(b'{') {
            return None; // malformed loop head
        }
        j += 1;
    }
    // The iterated expression, up to the body `{`.
    let mut expr: Vec<&Token> = Vec::new();
    j += 1;
    while j < code.len() && !code[j].is_punct(b'{') {
        expr.push(code[j]);
        j += 1;
    }
    // Strip leading `&` / `mut`.
    let mut k = 0;
    while expr
        .get(k)
        .is_some_and(|t| t.is_punct(b'&') || t.is_ident("mut"))
    {
        k += 1;
    }
    let tail = &expr[k..];
    let name = match tail {
        [one] if one.kind == TokenKind::Ident => one.text.clone(),
        [s, dot, field]
            if s.is_ident("self") && dot.is_punct(b'.') && field.kind == TokenKind::Ident =>
        {
            format!("self.{}", field.text)
        }
        _ => return None,
    };
    let bare = name.rsplit('.').next().unwrap_or(&name);
    fc.hash_names.contains(bare).then_some(name)
}

fn check_wall_clock(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    for i in 0..fc.code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = fc.code[i];
        if t.kind == TokenKind::Ident && WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            out.push(raw(
                "wall-clock",
                Severity::Deny,
                t,
                format!(
                    "`{}` reads wall-clock/ambient machine state; deterministic crates must \
                     take time, seeds and thread counts as explicit inputs",
                    t.text
                ),
            ));
        }
    }
}

fn check_snapshot_panic(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_method_call = code.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            && i >= 1
            && code[i - 1].is_punct(b'.');
        if (t.is_ident("unwrap") || t.is_ident("expect")) && is_method_call {
            out.push(raw(
                "snapshot-panic",
                Severity::Deny,
                t,
                format!(
                    "`.{}()` can panic; snapshot code must return a typed SnapshotError",
                    t.text
                ),
            ));
        }
        if matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && code.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
        {
            out.push(raw(
                "snapshot-panic",
                Severity::Deny,
                t,
                format!(
                    "`{}!` aborts on bad input; return a typed SnapshotError instead",
                    t.text
                ),
            ));
        }
    }
}

fn check_snapshot_index(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    for i in 0..fc.code.len() {
        if fc.in_test[i] {
            continue;
        }
        if fc.is_index_bracket(i) {
            out.push(raw(
                "snapshot-index",
                Severity::Deny,
                fc.code[i],
                "direct slice indexing panics when out of bounds; use `get`/checked helpers \
                 and surface a SnapshotError"
                    .to_string(),
            ));
        }
    }
}

fn check_raw_thread(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        if code[i].is_ident("thread")
            && code.get(i + 1).is_some_and(|a| a.is_punct(b':'))
            && code.get(i + 2).is_some_and(|b| b.is_punct(b':'))
            && code
                .get(i + 3)
                .is_some_and(|m| m.is_ident("spawn") || m.is_ident("scope"))
        {
            out.push(raw(
                "raw-thread",
                Severity::Deny,
                code[i],
                format!(
                    "`thread::{}` creates raw OS threads; route parallelism through \
                     fairnn-parallel so thread counts stay centrally controlled",
                    code[i + 3].text
                ),
            ));
        }
    }
}

fn check_direct_instant(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = code[i];
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && code.get(i + 1).is_some_and(|a| a.is_punct(b':'))
            && code.get(i + 2).is_some_and(|b| b.is_punct(b':'))
            && code.get(i + 3).is_some_and(|m| m.is_ident("now"))
            && code.get(i + 4).is_some_and(|p| p.is_punct(b'('))
        {
            out.push(raw(
                "direct-instant",
                Severity::Deny,
                t,
                format!(
                    "`{}::now()` reads the OS clock directly; use \
                     `fairnn_obs::monotonic_ns`/`wall_unix_ns` so the Clock seam \
                     stays the single audited timing source",
                    t.text
                ),
            ));
        }
    }
}

fn check_nested_parallel(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    let mut paren_depth = 0usize;
    // Depths at which a substrate call's argument list opened.
    let mut open_calls: Vec<usize> = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.is_punct(b'(') {
            paren_depth += 1;
        } else if t.is_punct(b')') {
            paren_depth = paren_depth.saturating_sub(1);
            while open_calls.last().is_some_and(|&d| d > paren_depth) {
                open_calls.pop();
            }
        } else if t.kind == TokenKind::Ident
            && SUBSTRATE_CALLS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            && !fc.in_test[i]
        {
            if !open_calls.is_empty() {
                out.push(raw(
                    "nested-parallel",
                    Severity::Warn,
                    t,
                    format!(
                        "`{}` is called inside another fairnn-parallel substrate call; \
                         nested calls run serially — restructure to one flat fork/join",
                        t.text
                    ),
                ));
            }
            open_calls.push(paren_depth + 1);
        }
    }
}

fn check_zero_copy_unsafe(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    // Memory safety applies to test code too: no `in_test` skip here.
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.is_ident("unsafe") {
            out.push(raw(
                "zero-copy-unsafe",
                Severity::Deny,
                t,
                "`unsafe` lives only in the blessed fairnn-snapshot byte-view module \
                 (crates/snapshot/src/bytes.rs), where each use carries a written waiver"
                    .to_string(),
            ));
        } else if t.is_ident("transmute") {
            out.push(raw(
                "zero-copy-unsafe",
                Severity::Deny,
                t,
                "`transmute` reinterprets memory without layout checks; use the blessed \
                 Pod byte-view helpers in crates/snapshot/src/bytes.rs instead"
                    .to_string(),
            ));
        } else if t.is_ident("as")
            && code.get(i + 1).is_some_and(|s| s.is_punct(b'*'))
            && code
                .get(i + 2)
                .is_some_and(|m| m.is_ident("const") || m.is_ident("mut"))
        {
            out.push(raw(
                "zero-copy-unsafe",
                Severity::Deny,
                t,
                format!(
                    "`as *{}` raw-pointer cast belongs in the blessed fairnn-snapshot \
                     byte-view module, not in safe crates",
                    code[i + 2].text
                ),
            ));
        }
    }
}

fn check_thaw_outside_writer(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident || !THAW_SEALED_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        if !code.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
            continue; // not a call (a definition's generics open with `<`)
        }
        let method_call = i >= 1 && code[i - 1].is_punct(b'.');
        let path_call = i >= 2 && code[i - 1].is_punct(b':') && code[i - 2].is_punct(b':');
        if method_call || path_call {
            out.push(raw(
                "thaw-outside-writer",
                Severity::Deny,
                t,
                format!(
                    "`{}` builds index tables directly, bypassing the write-ahead log; \
                     route the mutation through `fairnn_engine::EngineWriter::commit`",
                    t.text
                ),
            ));
        }
    }
}

/// `net-outside-server`: flags the socket types and the `std::net` path
/// segment anywhere outside the blessed paths (the caller applies the
/// path blessing). Test code is exempt — integration suites drive the
/// server with raw client sockets on purpose.
fn check_net_outside_server(fc: &FileContext<'_>, out: &mut Vec<Raw>) {
    let code = &fc.code;
    for i in 0..code.len() {
        if fc.in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let socket_type = NET_SOCKET_TYPES.contains(&t.text.as_str());
        // The `net` segment of a `std::net` path: idents are separated by
        // two `:` punct tokens.
        let std_net_path = t.text == "net"
            && i >= 3
            && code[i - 1].is_punct(b':')
            && code[i - 2].is_punct(b':')
            && code[i - 3].kind == TokenKind::Ident
            && code[i - 3].text == "std";
        if socket_type || std_net_path {
            out.push(raw(
                "net-outside-server",
                Severity::Deny,
                t,
                format!(
                    "`{}` opens a network path outside the server crate, bypassing the \
                     bounded parser, admission control, and drain lifecycle; serve through \
                     `fairnn-server` (or extend NET_BLESSED_PATHS with a written rationale)",
                    t.text
                ),
            ));
        }
    }
}

fn check_waivers(waivers: &[Waiver], out: &mut Vec<Raw>) {
    for w in waivers {
        let at = Token {
            kind: TokenKind::Comment,
            text: String::new(),
            line: w.line,
            col: 1,
            start: 0,
            end: 0,
        };
        if let Some(what) = &w.malformed {
            out.push(raw(
                "waiver-reason",
                Severity::Deny,
                &at,
                format!("malformed waiver: {what}"),
            ));
            continue;
        }
        if w.reason.is_empty() {
            out.push(raw(
                "waiver-reason",
                Severity::Deny,
                &at,
                "waiver carries no reason; append `— <why this is sound>`".to_string(),
            ));
        }
        for r in &w.rules {
            if !RULES.iter().any(|(id, _, _)| id == r) {
                out.push(raw(
                    "waiver-reason",
                    Severity::Deny,
                    &at,
                    format!("waiver names unknown rule `{r}`"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Lexes `src` and audits it as if it lived at `path`.
    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src.as_bytes());
        audit_tokens(path, &crate::crate_name_of(path), &tokens)
    }

    fn unwaived<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        fs.iter().filter(|f| f.rule == rule && !f.waived).collect()
    }

    const ENGINE: &str = "crates/engine/src/x.rs";
    const BENCH: &str = "crates/bench/src/x.rs";
    const SNAPSHOT: &str = "crates/snapshot/src/x.rs";
    const PARALLEL: &str = "crates/parallel/src/x.rs";
    const OBS: &str = "crates/obs/src/x.rs";

    // ---- unordered-iter -------------------------------------------------

    #[test]
    fn unordered_iter_flags_hash_receivers() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u64, u32>) {\n\
                       for k in m.keys() { use_(k); }\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "unordered-iter").len(), 1, "{fs:?}");
        assert_eq!(unwaived(&fs, "unordered-iter")[0].line, 3);
    }

    #[test]
    fn unordered_iter_flags_for_loops_over_maps() {
        let src = "fn f() {\n\
                       let mut m = std::collections::HashMap::new();\n\
                       m.insert(1u64, 2u32);\n\
                       for (k, v) in &m { use_(k, v); }\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "unordered-iter").len(), 1, "{fs:?}");
    }

    #[test]
    fn unordered_iter_honors_waivers() {
        let src = "fn f(m: &std::collections::HashMap<u64, u32>) {\n\
                       // fairnn-audit: allow(unordered-iter) — collected and sorted below\n\
                       let mut v: Vec<_> = m.keys().collect();\n\
                       v.sort_unstable();\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "unordered-iter").is_empty(), "{fs:?}");
        let waived: Vec<_> = fs.iter().filter(|f| f.waived).collect();
        assert_eq!(waived.len(), 1);
        assert_eq!(
            waived[0].waive_reason.as_deref(),
            Some("collected and sorted below")
        );
    }

    #[test]
    fn unordered_iter_ignores_ordered_containers_lookups_and_tests() {
        // BTreeMap iteration, Vec iteration, pure lookups, and test code
        // must all stay silent.
        let src = "fn f(b: &std::collections::BTreeMap<u64, u32>, v: &Vec<u32>) {\n\
                       for k in b.keys() { use_(k); }\n\
                       for x in v.iter() { use_(x); }\n\
                   }\n\
                   fn g(m: &std::collections::HashMap<u64, u32>) -> Option<&u32> {\n\
                       m.get(&7)\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn h(m: &std::collections::HashMap<u64, u32>) {\n\
                           for k in m.keys() { use_(k); }\n\
                       }\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "unordered-iter").is_empty(), "{fs:?}");
    }

    #[test]
    fn unordered_iter_only_applies_to_determinism_crates() {
        let src = "fn f(m: &std::collections::HashMap<u64, u32>) { for k in m.keys() {} }\n";
        assert!(!unwaived(&findings(ENGINE, src), "unordered-iter").is_empty());
        assert!(unwaived(&findings(BENCH, src), "unordered-iter").is_empty());
    }

    // ---- wall-clock -----------------------------------------------------

    #[test]
    fn wall_clock_flags_time_and_entropy_outside_exempt_crates() {
        let src = "fn f() {\n\
                       let t = std::time::Instant::now();\n\
                       let n = std::thread::available_parallelism();\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "wall-clock").len(), 2, "{fs:?}");
        assert!(unwaived(&findings(BENCH, src), "wall-clock").is_empty());
        assert!(unwaived(&findings(PARALLEL, src), "wall-clock").is_empty());
    }

    #[test]
    fn wall_clock_ignores_lookalike_identifiers() {
        // `instant` (lowercase) and `my_Instant_thing` are different
        // identifiers; comments and strings are opaque.
        let src = "fn f() {\n\
                       let instant = 3;\n\
                       // Instant::now() would be flagged here if comments counted\n\
                       let s = \"Instant::now()\";\n\
                   }\n";
        assert!(unwaived(&findings(ENGINE, src), "wall-clock").is_empty());
    }

    // ---- snapshot-panic / snapshot-index --------------------------------

    #[test]
    fn snapshot_panic_flags_unwrap_expect_and_panics() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                       let a = x.unwrap();\n\
                       let b = x.expect(\"present\");\n\
                       panic!(\"boom\");\n\
                   }\n";
        let fs = findings(SNAPSHOT, src);
        assert_eq!(unwaived(&fs, "snapshot-panic").len(), 3, "{fs:?}");
        // The same code outside the snapshot crate is out of scope.
        assert!(unwaived(&findings(ENGINE, src), "snapshot-panic").is_empty());
    }

    #[test]
    fn snapshot_panic_ignores_unwrap_or_family() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                       x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n\
                   }\n";
        assert!(unwaived(&findings(SNAPSHOT, src), "snapshot-panic").is_empty());
    }

    #[test]
    fn snapshot_index_flags_direct_indexing_but_not_macros_or_attrs() {
        let src = "#[derive(Debug)]\n\
                   struct S;\n\
                   fn f(buf: &[u8], i: usize) -> u8 {\n\
                       let v = vec![0u8];\n\
                       buf[i]\n\
                   }\n";
        let fs = findings(SNAPSHOT, src);
        assert_eq!(unwaived(&fs, "snapshot-index").len(), 1, "{fs:?}");
        assert_eq!(unwaived(&fs, "snapshot-index")[0].line, 5);
    }

    #[test]
    fn snapshot_rules_skip_test_modules() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn f(buf: &[u8]) -> u8 { buf[0] }\n\
                       fn g(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   }\n";
        let fs = findings(SNAPSHOT, src);
        assert!(unwaived(&fs, "snapshot-index").is_empty(), "{fs:?}");
        assert!(unwaived(&fs, "snapshot-panic").is_empty(), "{fs:?}");
    }

    // ---- raw-thread -----------------------------------------------------

    #[test]
    fn raw_thread_flags_spawn_and_scope_outside_the_substrate() {
        let src = "fn f() {\n\
                       std::thread::spawn(|| {});\n\
                       std::thread::scope(|s| {});\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "raw-thread").len(), 2, "{fs:?}");
        assert!(unwaived(&findings(PARALLEL, src), "raw-thread").is_empty());
    }

    #[test]
    fn raw_thread_ignores_comments_and_other_thread_items() {
        let src = "fn f() {\n\
                       // a comment may mention thread::spawn freely\n\
                       let handle = std::thread::current();\n\
                   }\n";
        assert!(unwaived(&findings(ENGINE, src), "raw-thread").is_empty());
    }

    // ---- direct-instant -------------------------------------------------

    #[test]
    fn direct_instant_flags_now_outside_obs_and_bench() {
        let src = "fn f() {\n\
                       let t = std::time::Instant::now();\n\
                       let w = std::time::SystemTime::now();\n\
                   }\n";
        // Parallel is wall-clock-exempt but NOT direct-instant-exempt: it may
        // read core counts, but its timing must go through the Clock seam.
        let fs = findings(PARALLEL, src);
        assert_eq!(unwaived(&fs, "direct-instant").len(), 2, "{fs:?}");
        assert!(unwaived(&findings(OBS, src), "direct-instant").is_empty());
        assert!(unwaived(&findings(BENCH, src), "direct-instant").is_empty());
    }

    #[test]
    fn direct_instant_ignores_other_instant_items_and_tests() {
        // Type positions, durations since an Instant, comments, strings and
        // test modules must all stay silent.
        let src = "fn f(anchor: std::time::Instant) -> u64 {\n\
                       // Instant::now() in a comment is fine\n\
                       let s = \"SystemTime::now()\";\n\
                       anchor.elapsed().as_nanos() as u64\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { let _ = std::time::Instant::now(); }\n\
                   }\n";
        assert!(unwaived(&findings(ENGINE, src), "direct-instant").is_empty());
    }

    #[test]
    fn direct_instant_honors_waivers() {
        let src = "fn f() {\n\
                       // fairnn-audit: allow(direct-instant) — one-shot startup stamp\n\
                       let t = std::time::Instant::now();\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "direct-instant").is_empty(), "{fs:?}");
        assert_eq!(fs.iter().filter(|f| f.waived).count(), 1);
    }

    // ---- nested-parallel ------------------------------------------------

    #[test]
    fn nested_parallel_warns_only_on_nesting() {
        let flat = "fn f() {\n\
                        fairnn_parallel::map_ranges(0, 4, |r| r);\n\
                        fairnn_parallel::map_slices(&[1], |s| s);\n\
                    }\n";
        assert!(unwaived(&findings(ENGINE, flat), "nested-parallel").is_empty());

        let nested = "fn f() {\n\
                          fairnn_parallel::map_ranges(0, 4, |r| {\n\
                              fairnn_parallel::map_indexed(3, |i| i)\n\
                          });\n\
                      }\n";
        let fs = findings(ENGINE, nested);
        let warns = unwaived(&fs, "nested-parallel");
        assert_eq!(warns.len(), 1, "{fs:?}");
        assert_eq!(warns[0].severity, Severity::Warn);
    }

    // ---- zero-copy-unsafe -----------------------------------------------

    #[test]
    fn zero_copy_flags_unsafe_transmute_and_raw_casts_everywhere() {
        let src = "fn f(x: &u64) -> u32 {\n\
                       let p = x as *const u64;\n\
                       let y: u32 = unsafe { std::mem::transmute(3.0f32) };\n\
                       y\n\
                   }\n";
        let fs = findings(ENGINE, src);
        // `as *const`, `unsafe`, `transmute` — three findings, all deny.
        assert_eq!(unwaived(&fs, "zero-copy-unsafe").len(), 3, "{fs:?}");
        // The rule applies in every crate, including bench and parallel.
        assert_eq!(unwaived(&findings(BENCH, src), "zero-copy-unsafe").len(), 3);
        assert_eq!(
            unwaived(&findings(PARALLEL, src), "zero-copy-unsafe").len(),
            3
        );
    }

    #[test]
    fn zero_copy_applies_inside_test_modules_too() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn f() { unsafe { std::hint::unreachable_unchecked() } }\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "zero-copy-unsafe").len(), 1, "{fs:?}");
    }

    #[test]
    fn zero_copy_ignores_lookalikes_comments_and_strings() {
        // `unsafe_code` (the lint name), plain `as` casts, and mentions in
        // comments/strings are all out of scope.
        let src = "#![forbid(unsafe_code)]\n\
                   fn f(x: u64) -> u32 {\n\
                       // unsafe { } in a comment is fine\n\
                       let s = \"unsafe transmute as *const\";\n\
                       let _ = s;\n\
                       x as u32\n\
                   }\n";
        assert!(unwaived(&findings(ENGINE, src), "zero-copy-unsafe").is_empty());
    }

    #[test]
    fn zero_copy_waivers_count_only_in_the_blessed_module() {
        let src = "fn f(b: &[u8]) -> &[u8] {\n\
                       // fairnn-audit: allow(zero-copy-unsafe) — reinterprets its own allocation\n\
                       unsafe { std::slice::from_raw_parts(b.as_ptr(), b.len()) }\n\
                   }\n";
        // In the blessed byte-view module the waiver silences the finding…
        let blessed = findings(ZERO_COPY_BLESSED_PATH, src);
        assert!(
            unwaived(&blessed, "zero-copy-unsafe").is_empty(),
            "{blessed:?}"
        );
        assert_eq!(blessed.iter().filter(|f| f.waived).count(), 1);
        // …anywhere else the identical waiver is ignored.
        let elsewhere = findings(ENGINE, src);
        assert_eq!(
            unwaived(&elsewhere, "zero-copy-unsafe").len(),
            1,
            "{elsewhere:?}"
        );
        // Even elsewhere in the snapshot crate the waiver does not count.
        let snapshot_other = findings(SNAPSHOT, src);
        assert_eq!(unwaived(&snapshot_other, "zero-copy-unsafe").len(), 1);
    }

    #[test]
    fn zero_copy_unwaived_unsafe_in_blessed_module_still_fails() {
        let src = "fn f(b: &[u8]) -> &[u8] {\n\
                       unsafe { std::slice::from_raw_parts(b.as_ptr(), b.len()) }\n\
                   }\n";
        let fs = findings(ZERO_COPY_BLESSED_PATH, src);
        assert_eq!(unwaived(&fs, "zero-copy-unsafe").len(), 1, "{fs:?}");
    }

    // ---- thaw-outside-writer --------------------------------------------

    #[test]
    fn thaw_outside_writer_flags_sealed_calls_in_every_crate() {
        let src = "fn f(tables: &fairnn_lsh::LshTables, keys: &[u64]) {\n\
                       let grown = tables.appended(keys, 1);\n\
                       let _ = LshTables::compacted(&grown, &[0], 1);\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "thaw-outside-writer").len(), 2, "{fs:?}");
        // The rule has no crate exemption — only blessed paths.
        assert_eq!(
            unwaived(&findings(BENCH, src), "thaw-outside-writer").len(),
            2
        );
        assert_eq!(
            unwaived(
                &findings("crates/lsh/src/other.rs", src),
                "thaw-outside-writer"
            )
            .len(),
            2
        );
    }

    #[test]
    fn thaw_outside_writer_blesses_the_table_and_shard_modules() {
        let src = "fn f(tables: &LshTables, keys: &[u64]) {\n\
                       tables.appended(keys, 1);\n\
                   }\n";
        for blessed in THAW_BLESSED_PATHS {
            let fs = findings(blessed, src);
            assert!(
                unwaived(&fs, "thaw-outside-writer").is_empty(),
                "{blessed}: {fs:?}"
            );
        }
    }

    #[test]
    fn thaw_outside_writer_ignores_definitions_tests_and_lookalikes() {
        // Definitions, test modules, comments and strings are out of
        // scope; so is an unrelated `compacted` identifier that is not a
        // call.
        let src = "pub fn appended(&self, keys: &[u64], count: usize) -> Self { todo!() }\n\
                   pub fn compacted(&self, ids: &[u32], n: usize) -> Self { todo!() }\n\
                   fn g() {\n\
                       // tables.appended(keys, 1) in a comment is fine\n\
                       let s = \"tables.compacted(&ids, n)\";\n\
                       let compacted = 3;\n\
                       let _ = (s, compacted);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn h(tables: &LshTables, keys: &[u64]) { tables.appended(keys, 1); }\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "thaw-outside-writer").is_empty(), "{fs:?}");
    }

    #[test]
    fn thaw_outside_writer_honors_waivers() {
        let src = "fn f(tables: &LshTables, keys: &[u64]) {\n\
                       // fairnn-audit: allow(thaw-outside-writer) — migration shim, tracked\n\
                       tables.appended(keys, 1);\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "thaw-outside-writer").is_empty(), "{fs:?}");
        assert_eq!(fs.iter().filter(|f| f.waived).count(), 1);
    }

    // ---- net-outside-server ---------------------------------------------

    #[test]
    fn net_outside_server_flags_sockets_and_std_net_paths() {
        let src = "use std::net::TcpListener;\n\
                   fn f() {\n\
                       let l = TcpListener::bind(\"0.0.0.0:80\").unwrap();\n\
                       let s = std::net::TcpStream::connect(\"127.0.0.1:80\");\n\
                       let _ = (l, s);\n\
                   }\n";
        // The import line trips twice (`net` + the type), each raw socket
        // use once more; the exact count matters less than "not zero, on
        // the right lines".
        for path in [ENGINE, OBS, PARALLEL, "src/main.rs"] {
            let fs = findings(path, src);
            let hits = unwaived(&fs, "net-outside-server");
            assert!(hits.len() >= 3, "{path}: {fs:?}");
            assert!(hits.iter().any(|f| f.line == 1), "{path}: {fs:?}");
            assert!(hits.iter().any(|f| f.line == 3), "{path}: {fs:?}");
            assert!(hits.iter().any(|f| f.line == 4), "{path}: {fs:?}");
        }
    }

    #[test]
    fn net_outside_server_blesses_only_the_server_crate() {
        let src = "use std::net::TcpListener;\n\
                   fn f() { let _ = TcpListener::bind(\"127.0.0.1:0\"); }\n";
        for path in ["crates/server/src/server.rs", "crates/server/src/http.rs"] {
            let fs = findings(path, src);
            assert!(
                unwaived(&fs, "net-outside-server").is_empty(),
                "{path}: {fs:?}"
            );
        }
        // No bench binary is blessed; the served-path benchmark's load
        // client carries written waivers instead.
        for path in [BENCH, "crates/bench/src/bin/fig1_fairness.rs"] {
            assert!(
                !unwaived(&findings(path, src), "net-outside-server").is_empty(),
                "{path} must not be blessed"
            );
        }
    }

    #[test]
    fn net_outside_server_ignores_tests_and_other_net_idents() {
        // `net` not rooted at `std` (a local module) and lookalike idents
        // must not trip the rule.
        let src = "fn f() { let x = crate::net::helper(); let net = 3; use_(x, net); }\n";
        assert!(unwaived(&findings(ENGINE, src), "net-outside-server").is_empty());
        // Test modules drive servers with raw client sockets on purpose.
        let test_src = "#[cfg(test)]\n\
                        mod tests {\n\
                            fn probe() { let _ = std::net::TcpStream::connect(\"x\"); }\n\
                        }\n";
        assert!(unwaived(&findings(ENGINE, test_src), "net-outside-server").is_empty());
    }

    #[test]
    fn net_outside_server_honors_waivers() {
        let src = "fn f() {\n\
                       // fairnn-audit: allow(net-outside-server) — offline probe, tracked\n\
                       let _ = std::net::TcpStream::connect(\"127.0.0.1:1\");\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert!(unwaived(&fs, "net-outside-server").is_empty(), "{fs:?}");
        assert!(fs.iter().any(|f| f.waived), "{fs:?}");
    }

    // ---- waiver-reason --------------------------------------------------

    #[test]
    fn waiver_reason_rejects_reasonless_malformed_and_unknown() {
        let src = "fn f() {\n\
                       // fairnn-audit: allow(unordered-iter)\n\
                       // fairnn-audit: allow()\n\
                       // fairnn-audit: allow(no-such-rule) — reason\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "waiver-reason").len(), 3, "{fs:?}");
    }

    #[test]
    fn waiver_reason_findings_cannot_be_waived() {
        // A waiver naming waiver-reason must not silence the hygiene rule.
        let src = "fn f() {\n\
                       // fairnn-audit: allow(waiver-reason) — trying to waive the waiver rule\n\
                       // fairnn-audit: allow(unordered-iter)\n\
                   }\n";
        let fs = findings(ENGINE, src);
        assert_eq!(unwaived(&fs, "waiver-reason").len(), 1, "{fs:?}");
    }
}
