//! CI perf-regression gate.
//!
//! Compares freshly measured reports (written by the `engine_throughput`
//! and `build_scaling` binaries on this commit) against the committed
//! `BENCH_baseline.json` and **fails the job** when any tracked figure
//! regressed by more than the threshold (default 35 %, sized for the noise
//! of shared CI runners).
//!
//! Tracked figures:
//!
//! * every sampler in the baseline's `baselines_qps` array (a sampler
//!   missing from the fresh run is itself a failure — a silently dropped
//!   measurement must not pass the gate);
//! * every `pipeline_qps` row whose thread count appears in both files,
//!   *skipping* rows either side marked `"hardware_limited": true` (on a
//!   runner with fewer cores than threads the row measures scheduling
//!   noise, not the engine);
//! * the `churn` row (concurrent reader throughput and commit→publish
//!   latency while the generational writer commits): `qps` gates directly
//!   and `publish_ms` gates as a rate (`1e3 / ms`, lower-is-better), both
//!   only when the row is co-measured and neither side is marked
//!   `hardware_limited` (readers + the writer need cores of their own);
//! * the `server` row (written by `server_throughput`: end-to-end HTTP
//!   serving over loopback): `qps` gates directly and each tail latency
//!   (`p50_ns`/`p99_ns`/`p999_ns`) gates as a rate (`1e9 / ns`,
//!   lower-is-better), with the same co-measured + `hardware_limited`
//!   skip — clients, workers, and the accept thread each need a core
//!   before the tails measure the server rather than the scheduler;
//! * every `builds` row (build throughput in points/sec from
//!   `build_scaling`) whose `(structure, scale, threads)` coordinate
//!   appears in both files, with the same `hardware_limited` skip — the
//!   single-thread rows always compare, so a serial build regression fails
//!   the gate even on a 1-core runner;
//! * the `hash_ns_per_point` rows (`batched` and `per_row`): ns/point is
//!   lower-is-better, so the gate converts each to points/sec (`1e9 / ns`)
//!   and applies the same regression math. A baseline row missing from the
//!   fresh report fails the gate (that silent drop is exactly how the
//!   7.9 µs → 11.6 µs drift landed unnoticed), unless the fresh object is
//!   marked `hardware_limited`;
//! * every snapshot `cycles` row (written by `snapshot_cycle`) whose
//!   `(structure, scale, threads)` coordinate appears in both files:
//!   **load time** gates as a rate (`1e9 / load_ns`, same skip rules as
//!   builds — `hardware_limited` rows and loads under 5 ms don't gate) and
//!   **`load_large_allocs`** gates on an absolute budget: the count is
//!   deterministic under the one-buffer image path, so any fresh count more
//!   than 2 above baseline fails regardless of the percentage threshold;
//! * the fresh report's `obs_overhead` row — an **absolute** budget, not a
//!   baseline comparison: the fairnn-obs-instrumented engine pipeline must
//!   stay within 3 % of the uninstrumented one. Runs too short to measure
//!   reliably (`measured_s` below 50 ms) do not gate.
//!
//! Usage: `bench_gate <fresh.json>... <baseline.json>
//!         [--max-regression 0.35]`
//!
//! Several fresh reports may be passed (engine + build + snapshot); their
//! top-level keys are merged, later files winning, and compared against the
//! single baseline (the last path).
//!
//! Exit code 0 = within budget, 1 = regression (or unreadable input). To
//! land a PR with a known, accepted slowdown, apply the `perf-override`
//! label — the workflow skips this gate when the label is present — and say
//! why in the PR description.
//!
//! The JSON parser below is a ~100-line recursive-descent reader for the
//! subset these reports use (objects, arrays, strings, f64 numbers, bools,
//! null); the workspace has no registry access, so no serde.

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

/// A parsed JSON value (the subset the bench reports use).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser over a byte cursor.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                byte as char, self.pos, self.bytes[self.pos] as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found '{}'",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => {
                            return Err(format!("unsupported escape '\\{}'", other as char));
                        }
                    });
                    self.pos += 2;
                }
                byte => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| byte >= 0x80 && (*b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// One tracked figure's comparison.
struct Comparison {
    name: String,
    baseline_qps: f64,
    fresh_qps: Option<f64>,
}

impl Comparison {
    /// Fractional regression (positive = slower than baseline). A missing
    /// fresh measurement counts as a total regression.
    fn regression(&self) -> f64 {
        match self.fresh_qps {
            Some(fresh) if self.baseline_qps > 0.0 => 1.0 - fresh / self.baseline_qps,
            Some(_) => 0.0,
            None => 1.0,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fresh_qps {
            Some(fresh) => write!(
                f,
                "{:<28} baseline {:>12.1} q/s   fresh {:>12.1} q/s   change {:>+7.1}%",
                self.name,
                self.baseline_qps,
                fresh,
                -self.regression() * 100.0
            ),
            None => write!(
                f,
                "{:<28} baseline {:>12.1} q/s   fresh      MISSING",
                self.name, self.baseline_qps
            ),
        }
    }
}

/// Extracts `name → qps` from a `baselines_qps`-style array.
fn sampler_qps(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(rows) = report.get("baselines_qps").and_then(Json::as_array) {
        for row in rows {
            if let (Some(name), Some(qps)) = (
                row.get("sampler").and_then(Json::as_str),
                row.get("qps").and_then(Json::as_f64),
            ) {
                out.insert(name.to_string(), qps);
            }
        }
    }
    out
}

/// Extracts `threads → qps` from `pipeline_qps`, dropping rows marked
/// `hardware_limited` (see the module docs).
fn pipeline_qps(report: &Json) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    if let Some(rows) = report.get("pipeline_qps").and_then(Json::as_array) {
        for row in rows {
            let limited = row
                .get("hardware_limited")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if limited {
                continue;
            }
            if let (Some(threads), Some(qps)) = (
                row.get("threads").and_then(Json::as_f64),
                row.get("qps").and_then(Json::as_f64),
            ) {
                out.insert(threads as u64, qps);
            }
        }
    }
    out
}

/// Extracts the gated figures from a report's `churn` row (concurrent
/// reader q/s under generational commits, and the commit→publish latency
/// converted to commits/sec so the shared higher-is-better regression math
/// applies). A row marked `hardware_limited` contributes nothing: with
/// fewer cores than readers + writer the q/s measures the scheduler.
fn churn_rates(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(row) = report.get("churn") {
        let limited = row
            .get("hardware_limited")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        if limited {
            return out;
        }
        if let Some(qps) = row.get("qps").and_then(Json::as_f64) {
            out.insert("concurrent-qps".to_string(), qps);
        }
        if let Some(ms) = row.get("publish_ms").and_then(Json::as_f64) {
            if ms > 0.0 {
                out.insert("publish-rate".to_string(), 1e3 / ms);
            }
        }
    }
    out
}

/// Extracts the gated figures from a report's `server` row (end-to-end
/// HTTP throughput and tail latencies from `server_throughput`). The
/// tails are lower-is-better nanoseconds, converted to rates (`1e9 / ns`)
/// so the shared regression math applies. A row marked `hardware_limited`
/// contributes nothing: with fewer cores than clients + workers + the
/// accept thread, the tails measure scheduler queueing, not the server.
fn server_rates(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(row) = report.get("server") {
        let limited = row
            .get("hardware_limited")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        if limited {
            return out;
        }
        if let Some(qps) = row.get("qps").and_then(Json::as_f64) {
            out.insert("qps".to_string(), qps);
        }
        for key in ["p50_ns", "p99_ns", "p999_ns"] {
            if let Some(ns) = row.get(key).and_then(Json::as_f64) {
                if ns > 0.0 {
                    let tail = key.trim_end_matches("_ns");
                    out.insert(format!("{tail}-rate"), 1e9 / ns);
                }
            }
        }
    }
    out
}

/// Builds measured below this wall time do not gate: a sub-millisecond
/// smoke build is dominated by scheduler noise on a shared runner, so its
/// points/sec would trip the 35 % threshold without any code change. The
/// larger smoke scales comfortably clear this bar and carry the gate.
const MIN_GATED_BUILD_S: f64 = 0.005;

/// Extracts `(structure, scale, threads) → points/sec` from a `builds`
/// array (written by `build_scaling`), dropping rows marked
/// `hardware_limited` and rows too short to measure reliably.
fn build_throughput(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(rows) = report.get("builds").and_then(Json::as_array) {
        for row in rows {
            let limited = row
                .get("hardware_limited")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if limited {
                continue;
            }
            let too_short = row
                .get("build_s")
                .and_then(Json::as_f64)
                .is_some_and(|s| s < MIN_GATED_BUILD_S);
            if too_short {
                continue;
            }
            if let (Some(structure), Some(scale), Some(threads), Some(pps)) = (
                row.get("structure").and_then(Json::as_str),
                row.get("scale").and_then(Json::as_f64),
                row.get("threads").and_then(Json::as_f64),
                row.get("points_per_s").and_then(Json::as_f64),
            ) {
                out.insert(
                    format!("{structure}/scale-{scale}/{}t", threads as u64),
                    pps,
                );
            }
        }
    }
    out
}

/// Extracts gated hashing figures from the `hash_ns_per_point` object.
/// ns/point is lower-is-better, so each row is converted to points/sec
/// (`1e9 / ns`) to reuse the higher-is-better regression math. An object
/// marked `hardware_limited` contributes nothing (the current measurement
/// is serial and never sets the flag, but the skip convention is uniform).
fn hash_throughput(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(row) = report.get("hash_ns_per_point") {
        if hash_hardware_limited(report) {
            return out;
        }
        for key in ["batched", "per_row"] {
            if let Some(ns) = row.get(key).and_then(Json::as_f64) {
                if ns > 0.0 {
                    out.insert(key.to_string(), 1e9 / ns);
                }
            }
        }
    }
    out
}

/// Whether the report's `hash_ns_per_point` object is flagged
/// `hardware_limited`. When the *fresh* side is limited, its baseline rows
/// are skipped rather than counted as missing.
fn hash_hardware_limited(report: &Json) -> bool {
    report
        .get("hash_ns_per_point")
        .and_then(|row| row.get("hardware_limited"))
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// Snapshot loads measured below this wall time do not gate on throughput:
/// a sub-5-ms image load swings with scheduler noise, not code. The
/// large-allocation count still gates — it is deterministic at any speed.
const MIN_GATED_LOAD_S: f64 = 0.005;

/// Extracts `(structure, scale, threads) → loads-equivalent rate`
/// (`1e9 / load_ns`) from a snapshot `cycles` array, dropping rows marked
/// `hardware_limited` and loads too short to time reliably.
fn snapshot_load_rates(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (key, row) in snapshot_cycle_rows(report) {
        let limited = row
            .get("hardware_limited")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let too_short = row
            .get("load_s")
            .and_then(Json::as_f64)
            .is_some_and(|s| s < MIN_GATED_LOAD_S);
        if limited || too_short {
            continue;
        }
        if let Some(ns) = row.get("load_ns").and_then(Json::as_f64) {
            if ns > 0.0 {
                out.insert(key, 1e9 / ns);
            }
        }
    }
    out
}

/// A fresh load may take at most this many more ≥ 64 KiB allocations than
/// the baseline's. The count is a deterministic property of the load path
/// (one image buffer, O(1) bookkeeping), so the budget is absolute: a
/// return to per-section copies blows through it at any scale, while
/// adding a couple of intentional buffers forces a baseline refresh.
const MAX_EXTRA_LARGE_ALLOCS: f64 = 2.0;

/// Extracts `(structure, scale, threads) → load_large_allocs` from a
/// snapshot `cycles` array. No noise filtering: allocation counts are
/// exact regardless of runner speed or oversubscription.
fn snapshot_large_allocs(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (key, row) in snapshot_cycle_rows(report) {
        if let Some(count) = row.get("load_large_allocs").and_then(Json::as_f64) {
            out.insert(key, count);
        }
    }
    out
}

/// Iterates a report's snapshot `cycles` rows as
/// `("structure/scale-S/Tt", row)` pairs.
fn snapshot_cycle_rows(report: &Json) -> Vec<(String, &Json)> {
    let mut out = Vec::new();
    if let Some(rows) = report.get("cycles").and_then(Json::as_array) {
        for row in rows {
            if let (Some(structure), Some(scale), Some(threads)) = (
                row.get("structure").and_then(Json::as_str),
                row.get("scale").and_then(Json::as_f64),
                row.get("threads").and_then(Json::as_f64),
            ) {
                out.push((
                    format!("{structure}/scale-{scale}/{}t", threads as u64),
                    row,
                ));
            }
        }
    }
    out
}

/// Checks the deterministic large-allocation budget on every co-measured
/// snapshot cycle coordinate; returns the failure descriptions.
fn check_snapshot_allocs(fresh: &Json, baseline: &Json) -> Vec<String> {
    let fresh_allocs = snapshot_large_allocs(fresh);
    let mut failures = Vec::new();
    for (key, base) in snapshot_large_allocs(baseline) {
        if let Some(&count) = fresh_allocs.get(&key) {
            if count > base + MAX_EXTRA_LARGE_ALLOCS {
                failures.push(format!(
                    "snapshot-load/{key}: {count:.0} large allocation(s) vs baseline {base:.0} \
                     (budget +{MAX_EXTRA_LARGE_ALLOCS:.0}) — the O(1) image load regressed \
                     toward per-section copies"
                ));
            }
        }
    }
    failures
}

/// Instrumentation may cost at most this much engine-pipeline throughput
/// (absolute budget from the observability PR's acceptance criteria).
const MAX_OBS_OVERHEAD_PCT: f64 = 3.0;

/// Overhead rows measured over less total wall time than this are
/// scheduler noise on a shared runner and do not gate.
const MIN_OBS_MEASURED_S: f64 = 0.05;

/// Checks the fresh report's `obs_overhead` row against the absolute
/// budget. Returns `Ok(Some(description))` when the row was gated and
/// passed, `Ok(None)` when absent or too short to judge, `Err(message)`
/// when over budget.
fn check_obs_overhead(fresh: &Json) -> Result<Option<String>, String> {
    let Some(row) = fresh.get("obs_overhead") else {
        return Ok(None);
    };
    let Some(pct) = row.get("overhead_pct").and_then(Json::as_f64) else {
        return Err("obs_overhead row lacks a numeric overhead_pct".into());
    };
    let measured_s = row
        .get("measured_s")
        .and_then(Json::as_f64)
        .unwrap_or(f64::INFINITY);
    if measured_s < MIN_OBS_MEASURED_S {
        return Ok(Some(format!(
            "obs-overhead: measured over only {measured_s:.3} s — too noisy to gate, skipped"
        )));
    }
    if pct > MAX_OBS_OVERHEAD_PCT {
        return Err(format!(
            "instrumented engine pipeline is {pct:.2}% slower than uninstrumented \
             (budget {MAX_OBS_OVERHEAD_PCT:.0}%)"
        ));
    }
    Ok(Some(format!(
        "obs-overhead: {pct:+.2}% (budget {MAX_OBS_OVERHEAD_PCT:.0}%)"
    )))
}

/// Builds the full comparison list between two reports.
fn compare_reports(fresh: &Json, baseline: &Json) -> Vec<Comparison> {
    let mut comparisons = Vec::new();

    let fresh_samplers = sampler_qps(fresh);
    for (name, base_qps) in sampler_qps(baseline) {
        comparisons.push(Comparison {
            fresh_qps: fresh_samplers.get(&name).copied(),
            name: format!("sampler/{name}"),
            baseline_qps: base_qps,
        });
    }

    let fresh_pipeline = pipeline_qps(fresh);
    for (threads, base_qps) in pipeline_qps(baseline) {
        // A thread count absent from the fresh report is not a regression:
        // the fresh run may have marked it hardware-limited (runner downsized)
        // or run with a different --threads. Only co-measured rows gate.
        if let Some(&fresh_qps) = fresh_pipeline.get(&threads) {
            comparisons.push(Comparison {
                name: format!("pipeline/{threads}-thread"),
                baseline_qps: base_qps,
                fresh_qps: Some(fresh_qps),
            });
        }
    }

    // Concurrent churn: like the pipeline rows, only co-measured figures
    // gate — a fresh run marked hardware_limited (1-core PR runner) or an
    // older baseline without the row skips rather than fails.
    let fresh_churn = churn_rates(fresh);
    for (key, base_rate) in churn_rates(baseline) {
        if let Some(&fresh_rate) = fresh_churn.get(&key) {
            comparisons.push(Comparison {
                name: format!("churn/{key}"),
                baseline_qps: base_rate,
                fresh_qps: Some(fresh_rate),
            });
        }
    }

    // HTTP serving: same co-measurement policy as churn — a 1-core PR
    // runner marks the row hardware_limited and skips, and a baseline
    // predating the server contributes nothing.
    let fresh_server = server_rates(fresh);
    for (key, base_rate) in server_rates(baseline) {
        if let Some(&fresh_rate) = fresh_server.get(&key) {
            comparisons.push(Comparison {
                name: format!("server/{key}"),
                baseline_qps: base_rate,
                fresh_qps: Some(fresh_rate),
            });
        }
    }

    // Hashing kernel: a baseline row missing from the fresh report IS a
    // failure (the `fresh_qps: None` total-regression path), because a
    // silently dropped hash measurement is exactly how the last drift
    // landed. Only a fresh run flagged hardware_limited skips instead.
    if !hash_hardware_limited(fresh) {
        let fresh_hash = hash_throughput(fresh);
        for (key, base_rate) in hash_throughput(baseline) {
            comparisons.push(Comparison {
                fresh_qps: fresh_hash.get(&key).copied(),
                name: format!("hash/{key}"),
                baseline_qps: base_rate,
            });
        }
    }

    // Snapshot load time, as a rate like every other figure. Co-measured,
    // non-limited, non-trivial coordinates only (same policy as builds).
    let fresh_loads = snapshot_load_rates(fresh);
    for (key, base_rate) in snapshot_load_rates(baseline) {
        if let Some(&fresh_rate) = fresh_loads.get(&key) {
            comparisons.push(Comparison {
                name: format!("snapshot-load/{key}"),
                baseline_qps: base_rate,
                fresh_qps: Some(fresh_rate),
            });
        }
    }

    // Build throughput: points/sec behaves exactly like queries/sec in the
    // regression math (higher is better). Only co-measured, non-limited
    // coordinates gate — CI always measures the 1-thread rows, so the
    // serial build path is always covered.
    let fresh_builds = build_throughput(fresh);
    for (key, base_pps) in build_throughput(baseline) {
        if let Some(&fresh_pps) = fresh_builds.get(&key) {
            comparisons.push(Comparison {
                name: format!("build/{key}"),
                baseline_qps: base_pps,
                fresh_qps: Some(fresh_pps),
            });
        }
    }

    comparisons
}

/// Overlays the top-level keys of `extra` onto `base` (later reports win).
fn merge_reports(base: &mut Json, extra: Json) {
    if let (Json::Object(into), Json::Object(from)) = (base, extra) {
        for (key, value) in from {
            into.insert(key, value);
        }
    }
}

/// Applies the threshold; returns the failing comparisons.
fn gate(comparisons: &[Comparison], max_regression: f64) -> Vec<&Comparison> {
    comparisons
        .iter()
        .filter(|c| c.regression() > max_regression)
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut max_regression = 0.35f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--max-regression" {
            max_regression = iter
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--max-regression needs a numeric value")?;
        } else {
            paths.push(arg);
        }
    }
    let Some((baseline_path, fresh_paths)) = paths.split_last().filter(|(_, f)| !f.is_empty())
    else {
        return Err(
            "usage: bench_gate <fresh.json>... <baseline.json> [--max-regression 0.35]".into(),
        );
    };

    let mut fresh = Json::Object(BTreeMap::new());
    for path in fresh_paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let report = Parser::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        merge_reports(&mut fresh, report);
    }
    let baseline_text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline =
        Parser::parse(&baseline_text).map_err(|e| format!("parse {baseline_path}: {e}"))?;

    let comparisons = compare_reports(&fresh, &baseline);
    if comparisons.is_empty() {
        return Err("no comparable figures between the two reports".into());
    }
    println!(
        "bench gate: {} tracked figure(s), regression budget {:.0}%",
        comparisons.len(),
        max_regression * 100.0
    );
    for c in &comparisons {
        println!("  {c}");
    }

    let obs_failure = match check_obs_overhead(&fresh) {
        Ok(status) => {
            if let Some(line) = status {
                println!("  {line}");
            }
            None
        }
        Err(message) => Some(message),
    };
    let mut absolute_failures: Vec<String> = check_snapshot_allocs(&fresh, &baseline);
    if let Some(message) = obs_failure {
        absolute_failures.push(message);
    }

    let failures = gate(&comparisons, max_regression);
    if failures.is_empty() && absolute_failures.is_empty() {
        println!("bench gate: PASS");
        Ok(true)
    } else if failures.is_empty() {
        println!("\nbench gate: FAIL — absolute budget exceeded:");
        for message in &absolute_failures {
            println!("  {message}");
        }
        println!(
            "\nAbsolute budgets (obs overhead, load allocation counts) don't move with \
             the baseline; make the hot path cheaper rather than raising the budget."
        );
        Ok(false)
    } else {
        println!(
            "\nbench gate: FAIL — regression beyond {:.0}% on:",
            max_regression * 100.0
        );
        for c in &failures {
            println!("  {c}");
        }
        for message in &absolute_failures {
            println!("  {message}");
        }
        println!(
            "\nIf this slowdown is intended, apply the 'perf-override' label to the PR \
             (the workflow skips the gate) and justify it in the description; \
             refresh BENCH_baseline.json in the same PR when the new level is the new normal."
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench gate: error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(naive: f64, nns: f64, one_thread: f64, limited_two: bool) -> Json {
        let text = format!(
            r#"{{
              "baselines_qps": [
                {{"sampler": "naive-fair-lsh", "qps": {naive}}},
                {{"sampler": "fair-nns", "qps": {nns}}}
              ],
              "pipeline_qps": [
                {{"threads": 1, "qps": {one_thread}, "hardware_limited": false}},
                {{"threads": 2, "qps": 11.0, "hardware_limited": {limited_two}}}
              ]
            }}"#
        );
        Parser::parse(&text).expect("valid report")
    }

    #[test]
    fn parser_handles_the_report_shape() {
        let json = report(100.0, 200.0, 50.0, true);
        assert_eq!(sampler_qps(&json).len(), 2);
        // The hardware-limited 2-thread row is dropped.
        assert_eq!(pipeline_qps(&json).len(), 1);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Parser::parse("{").is_err());
        assert!(Parser::parse("[1, 2,,]").is_err());
        assert!(Parser::parse("{\"a\": 1} trailing").is_err());
        assert!(Parser::parse("nul").is_err());
    }

    #[test]
    fn parser_handles_scalars_arrays_strings() {
        assert_eq!(Parser::parse("-3.5e2"), Ok(Json::Number(-350.0)));
        assert_eq!(Parser::parse(r#""a\"b""#), Ok(Json::String("a\"b".into())));
        assert_eq!(
            Parser::parse("[true, null]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        assert_eq!(Parser::parse("[]"), Ok(Json::Array(vec![])));
        assert_eq!(Parser::parse("{}"), Ok(Json::Object(BTreeMap::new())));
    }

    #[test]
    fn within_budget_passes() {
        let baseline = report(100.0, 200.0, 50.0, false);
        let fresh = report(80.0, 190.0, 40.0, false); // worst: -20%
        let comparisons = compare_reports(&fresh, &baseline);
        assert_eq!(comparisons.len(), 4); // 2 samplers + 2 pipeline rows
        assert!(gate(&comparisons, 0.35).is_empty());
    }

    #[test]
    fn deep_regression_fails() {
        let baseline = report(100.0, 200.0, 50.0, false);
        let fresh = report(60.0, 190.0, 48.0, false); // naive: -40%
        let comparisons = compare_reports(&fresh, &baseline);
        let failures = gate(&comparisons, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "sampler/naive-fair-lsh");
        assert!(failures[0].regression() > 0.35);
    }

    #[test]
    fn missing_sampler_fails() {
        let baseline = report(100.0, 200.0, 50.0, false);
        let fresh = Parser::parse(
            r#"{"baselines_qps": [{"sampler": "fair-nns", "qps": 210.0}],
                "pipeline_qps": []}"#,
        )
        .unwrap();
        let comparisons = compare_reports(&fresh, &baseline);
        let failures = gate(&comparisons, 0.35);
        assert!(failures
            .iter()
            .any(|c| c.name == "sampler/naive-fair-lsh" && c.fresh_qps.is_none()));
    }

    #[test]
    fn hardware_limited_rows_do_not_gate() {
        let baseline = report(100.0, 200.0, 50.0, false);
        // Fresh run on a 1-core box: 2-thread row is marked limited and its
        // (terrible) number must not fail the gate.
        let fresh = report(100.0, 200.0, 50.0, true);
        let comparisons = compare_reports(&fresh, &baseline);
        assert!(comparisons.iter().all(|c| c.name != "pipeline/2-thread"));
        assert!(gate(&comparisons, 0.35).is_empty());
    }

    fn build_report(serial_pps: f64, limited_two: bool) -> Json {
        let text = format!(
            r#"{{
              "bench": "build_scaling",
              "builds": [
                {{"structure": "fair-nnis", "scale": 0.05, "threads": 1, "build_s": 0.05, "points_per_s": {serial_pps}, "hardware_limited": false}},
                {{"structure": "fair-nnis", "scale": 0.05, "threads": 2, "build_s": 0.05, "points_per_s": 999.0, "hardware_limited": {limited_two}}},
                {{"structure": "fair-nnis", "scale": 0.01, "threads": 1, "build_s": 0.0004, "points_per_s": 50000.0, "hardware_limited": false}}
              ]
            }}"#
        );
        Parser::parse(&text).expect("valid build report")
    }

    #[test]
    fn sub_millisecond_builds_do_not_gate() {
        // The 0.01-scale row is 0.4 ms — pure scheduler noise on a shared
        // runner — and must be dropped on both sides even when its
        // points/sec swings wildly.
        let baseline = build_report(10_000.0, true);
        let fresh = build_report(10_000.0, true);
        assert!(build_throughput(&baseline)
            .keys()
            .all(|k| !k.contains("scale-0.01")));
        let comparisons = compare_reports(&fresh, &baseline);
        assert!(comparisons.iter().all(|c| !c.name.contains("scale-0.01")));
    }

    #[test]
    fn serial_build_regression_fails_the_gate() {
        let baseline = build_report(10_000.0, true);
        let fresh = build_report(5_000.0, true); // serial build 2x slower
        let comparisons = compare_reports(&fresh, &baseline);
        assert_eq!(comparisons.len(), 1, "only the non-limited 1-thread row");
        let failures = gate(&comparisons, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "build/fair-nnis/scale-0.05/1t");
    }

    #[test]
    fn hardware_limited_build_rows_do_not_gate() {
        // Baseline measured on a multicore box (2-thread row valid), fresh
        // run on a 1-core runner (2-thread row limited): only the serial
        // row compares, and within budget it passes.
        let baseline = build_report(10_000.0, false);
        let fresh = build_report(9_000.0, true);
        let comparisons = compare_reports(&fresh, &baseline);
        assert!(comparisons.iter().all(|c| !c.name.contains("/2t")));
        assert!(gate(&comparisons, 0.35).is_empty());
    }

    #[test]
    fn merged_fresh_reports_cover_engine_and_build_figures() {
        // The CI invocation: engine and build reports as separate fresh
        // files, one combined baseline.
        let mut fresh = report(100.0, 200.0, 50.0, true);
        merge_reports(&mut fresh, build_report(10_000.0, true));
        let mut baseline = report(100.0, 200.0, 50.0, true);
        merge_reports(&mut baseline, build_report(10_000.0, true));
        let comparisons = compare_reports(&fresh, &baseline);
        assert!(comparisons.iter().any(|c| c.name.starts_with("sampler/")));
        assert!(comparisons.iter().any(|c| c.name.starts_with("build/")));
        assert!(gate(&comparisons, 0.35).is_empty());
    }

    fn hash_report(batched_ns: f64, per_row_ns: f64, limited: bool) -> Json {
        let text = format!(
            r#"{{"hash_ns_per_point": {{"batched": {batched_ns}, "per_row": {per_row_ns},
                 "hardware_limited": {limited}}}}}"#
        );
        Parser::parse(&text).expect("valid hash report")
    }

    #[test]
    fn hash_rows_gate_as_rates() {
        let baseline = hash_report(8000.0, 16000.0, false);
        // 20% more ns/point ≈ 17% rate regression: within budget.
        let fresh = hash_report(9600.0, 16000.0, false);
        let comparisons = compare_reports(&fresh, &baseline);
        assert_eq!(comparisons.len(), 2, "{:?}", comparisons.len());
        assert!(gate(&comparisons, 0.35).is_empty());
        // 8000 → 14000 ns is a 43% rate regression: fails.
        let slow = hash_report(14000.0, 16000.0, false);
        let slow_comparisons = compare_reports(&slow, &baseline);
        let failures = gate(&slow_comparisons, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "hash/batched");
    }

    #[test]
    fn missing_hash_row_fails_the_gate() {
        // The drift scenario: the fresh report silently stops emitting the
        // hash figure. That must read as a total regression, not a pass.
        let baseline = hash_report(8000.0, 16000.0, false);
        let fresh = Parser::parse("{}").unwrap();
        let comparisons = compare_reports(&fresh, &baseline);
        assert_eq!(gate(&comparisons, 0.35).len(), 2);
    }

    #[test]
    fn hardware_limited_hash_rows_skip_instead_of_fail() {
        let baseline = hash_report(8000.0, 16000.0, false);
        let fresh = hash_report(99999.0, 99999.0, true);
        assert!(compare_reports(&fresh, &baseline)
            .iter()
            .all(|c| !c.name.starts_with("hash/")));
    }

    fn snapshot_report(load_ns: f64, load_s: f64, allocs: f64, limited: bool) -> Json {
        let text = format!(
            r#"{{
              "bench": "snapshot_cycle",
              "cycles": [
                {{"scale": 0.2, "structure": "checkpoint", "dataset_points": 4000,
                  "threads": 1, "build_s": 0.5, "save_s": 0.01, "load_s": {load_s},
                  "load_ns": {load_ns}, "load_large_allocs": {allocs},
                  "snapshot_bytes": 1000000, "build_over_load": 10.0,
                  "hardware_limited": {limited}}}
              ]
            }}"#
        );
        Parser::parse(&text).expect("valid snapshot report")
    }

    #[test]
    fn snapshot_load_time_gates_as_a_rate() {
        let baseline = snapshot_report(50e6, 0.05, 1.0, false);
        let ok = snapshot_report(60e6, 0.06, 1.0, false); // -17% rate
        let ok_comparisons = compare_reports(&ok, &baseline);
        assert!(gate(&ok_comparisons, 0.35).is_empty());
        let slow = snapshot_report(100e6, 0.1, 1.0, false); // -50% rate
        let slow_comparisons = compare_reports(&slow, &baseline);
        let failures = gate(&slow_comparisons, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "snapshot-load/checkpoint/scale-0.2/1t");
    }

    #[test]
    fn trivial_or_limited_snapshot_loads_do_not_gate_on_time() {
        // Sub-5-ms loads and hardware-limited rows: no time comparison...
        let baseline = snapshot_report(1e6, 0.001, 1.0, false);
        let fresh = snapshot_report(4e6, 0.004, 1.0, false);
        assert!(compare_reports(&fresh, &baseline)
            .iter()
            .all(|c| !c.name.starts_with("snapshot-load/")));
        let baseline = snapshot_report(50e6, 0.05, 1.0, false);
        let limited = snapshot_report(500e6, 0.5, 1.0, true);
        assert!(compare_reports(&limited, &baseline)
            .iter()
            .all(|c| !c.name.starts_with("snapshot-load/")));
        // ...but the allocation budget still applies to both.
        let bloated = snapshot_report(1e6, 0.001, 40.0, true);
        let base_small = snapshot_report(1e6, 0.001, 1.0, false);
        assert_eq!(check_snapshot_allocs(&bloated, &base_small).len(), 1);
    }

    #[test]
    fn large_alloc_budget_is_absolute() {
        let baseline = snapshot_report(50e6, 0.05, 1.0, false);
        // One or two extra buffers: an intentional change, within slack.
        let ok = snapshot_report(50e6, 0.05, 3.0, false);
        assert!(check_snapshot_allocs(&ok, &baseline).is_empty());
        // O(sections) or O(points) allocations: fails however fast it ran.
        let copies = snapshot_report(10e6, 0.01, 12.0, false);
        let failures = check_snapshot_allocs(&copies, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checkpoint/scale-0.2/1t"));
    }

    fn churn_report(qps: f64, publish_ms: f64, limited: bool) -> Json {
        let text = format!(
            r#"{{"churn": {{"reader_threads": 2, "commits": 64, "qps": {qps},
                 "publish_ms": {publish_ms}, "hardware_limited": {limited}}}}}"#
        );
        Parser::parse(&text).expect("valid churn report")
    }

    #[test]
    fn churn_gates_qps_and_publish_latency_as_rates() {
        let baseline = churn_report(20_000.0, 1.0, false);
        // -15% q/s, +20% latency: both within the 35% budget.
        let ok = churn_report(17_000.0, 1.2, false);
        let comparisons = compare_reports(&ok, &baseline);
        assert_eq!(comparisons.len(), 2);
        assert!(gate(&comparisons, 0.35).is_empty());
        // Publish latency doubled: a 50% rate regression fails.
        let slow = churn_report(19_000.0, 2.0, false);
        let failures_owner = compare_reports(&slow, &baseline);
        let failures = gate(&failures_owner, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "churn/publish-rate");
    }

    #[test]
    fn hardware_limited_churn_rows_do_not_gate() {
        let baseline = churn_report(20_000.0, 1.0, false);
        // A 1-core PR runner marks the row limited; its numbers must not
        // gate no matter how bad they look.
        let fresh = churn_report(500.0, 50.0, true);
        assert!(compare_reports(&fresh, &baseline)
            .iter()
            .all(|c| !c.name.starts_with("churn/")));
        // And an old baseline without the row is simply not compared.
        let no_row = Parser::parse("{}").unwrap();
        assert!(compare_reports(&churn_report(1.0, 1.0, false), &no_row)
            .iter()
            .all(|c| !c.name.starts_with("churn/")));
    }

    fn server_report(qps: f64, p99_ns: f64, limited: bool) -> Json {
        let text = format!(
            r#"{{"server": {{"qps": {qps}, "p50_ns": 1000000, "p99_ns": {p99_ns},
                 "p999_ns": 16000000, "requests": 2000, "errors": 0,
                 "measured_s": 1.5, "hardware_limited": {limited}}}}}"#
        );
        Parser::parse(&text).expect("valid server report")
    }

    #[test]
    fn server_gates_qps_and_tail_latencies_as_rates() {
        let baseline = server_report(5_000.0, 4_000_000.0, false);
        // -15% q/s, +25% p99: both within the 35% budget.
        let ok = server_report(4_250.0, 5_000_000.0, false);
        let comparisons = compare_reports(&ok, &baseline);
        assert_eq!(comparisons.len(), 4, "qps + three tails");
        assert!(gate(&comparisons, 0.35).is_empty());
        // p99 doubled: a 50% rate regression fails on exactly that figure.
        let slow = server_report(5_000.0, 8_000_000.0, false);
        let slow_comparisons = compare_reports(&slow, &baseline);
        let failures = gate(&slow_comparisons, 0.35);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "server/p99-rate");
    }

    #[test]
    fn hardware_limited_server_rows_do_not_gate() {
        let baseline = server_report(5_000.0, 4_000_000.0, false);
        // A 1-core PR runner marks the row limited; its numbers never gate.
        let fresh = server_report(100.0, 500_000_000.0, true);
        assert!(compare_reports(&fresh, &baseline)
            .iter()
            .all(|c| !c.name.starts_with("server/")));
        // A baseline predating the server row is simply not compared.
        let no_row = Parser::parse("{}").unwrap();
        assert!(compare_reports(&server_report(1.0, 1.0, false), &no_row)
            .iter()
            .all(|c| !c.name.starts_with("server/")));
    }

    fn obs_report(overhead_pct: f64, measured_s: f64) -> Json {
        let text = format!(
            r#"{{"obs_overhead": {{"uninstrumented_qps": 1000.0, "instrumented_qps": 980.0,
                 "overhead_pct": {overhead_pct}, "measured_s": {measured_s}}}}}"#
        );
        Parser::parse(&text).expect("valid obs report")
    }

    #[test]
    fn obs_overhead_within_budget_passes() {
        assert!(check_obs_overhead(&obs_report(2.0, 1.0)).is_ok());
        // Negative overhead (instrumented measured faster) is fine.
        assert!(check_obs_overhead(&obs_report(-1.5, 1.0)).is_ok());
    }

    #[test]
    fn obs_overhead_over_budget_fails() {
        assert!(check_obs_overhead(&obs_report(3.5, 1.0)).is_err());
    }

    #[test]
    fn obs_overhead_noise_and_absence_do_not_gate() {
        // Too short to measure: skipped, not failed.
        let skipped = check_obs_overhead(&obs_report(50.0, 0.01)).expect("skip");
        assert!(skipped.is_some_and(|s| s.contains("skipped")));
        // Reports without the row (build_scaling, older baselines): silent.
        assert_eq!(check_obs_overhead(&Parser::parse("{}").unwrap()), Ok(None));
    }

    #[test]
    fn obs_overhead_without_a_number_is_an_error() {
        let bad = Parser::parse(r#"{"obs_overhead": {"measured_s": 1.0}}"#).unwrap();
        assert!(check_obs_overhead(&bad).is_err());
    }

    #[test]
    fn faster_is_never_a_failure() {
        let baseline = report(100.0, 200.0, 50.0, false);
        let fresh = report(500.0, 900.0, 200.0, false);
        let comparisons = compare_reports(&fresh, &baseline);
        assert!(gate(&comparisons, 0.0).is_empty());
    }
}
