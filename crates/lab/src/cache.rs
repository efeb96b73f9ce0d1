//! The content-addressed cell cache: the one result store behind
//! `campaign run` and the `--cache DIR` flag of `run` / `sweep` /
//! `compare` / `stats`.
//!
//! The unit of storage is a *cell* — one `(resolved grid point, policy)`
//! pair — keyed by `cell_digest`, an FNV-1a digest of every input that
//! can change its replication outcomes: the point scenario's canonical
//! TOML, the grid coordinates, the policy, the seed and the stopping rule.
//! A fixed-replication run is the stopping rule `r0 = max_reps = reps`,
//! so a CLI cell and a campaign cell with the same inputs share one file.
//! Each cell lives in `<dir>/<digest>.cell.jsonl`: a header line naming
//! the format and the digest, then one line carrying the cell's
//! [`PointStats`] minus probe telemetry: its per-replication columns, and
//! its counters except `failures` and `tasks_shipped`, which a load sums
//! from their columns. Floats are stored as their IEEE-754 bit patterns,
//! so a replayed cell is bit-identical to the one that was stored and its
//! rows render byte for byte the same — including the `--metrics full`
//! counter columns.
//!
//! Durability: every write goes to a temporary file that is then renamed
//! over the cell file, so a crash leaves either the old cell or the new
//! one, never a mix. There is no `fsync`; a cell lost to a power cut is
//! simply recomputed. A torn or truncated file is never accepted: reading
//! it is an error that names the path.
//!
//! Quarantined cells (a panicked or timed-out replication) are never
//! stored, so the next run retries them from scratch.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use churnbal_cluster::{Counters, PointStats};
use churnbal_core::PolicySpec;
use churnbal_stochastic::Fnv1a;

use crate::campaign::StoppingRule;
use crate::sweep::AxisParam;

/// Format marker on the first line of every cell file.
const CELL_KIND: &str = "churnbal-cell";
/// Cell file format version. Version 2 stores the run totals (events,
/// recoveries, transfers, clamped, lost, retries, bounces, transit).
const CELL_VERSION: u64 = 2;

/// The digest that content-addresses a cell: every input that can change
/// its replication outcomes. Campaign and spec *names* are deliberately
/// excluded — renaming a spec (or sharing a cell between two specs)
/// reuses the cache. The tolerance only enters for adaptive rules
/// (`r0 < max_reps`): a fixed rule runs exactly `r0` replications
/// whatever its tolerance, so every fixed rule of one size shares a key.
/// `point_toml` is the point scenario's
/// [`to_toml`](crate::scenario::Scenario::to_toml) text, rendered
/// once per point by callers that key several policies of it.
#[must_use]
pub(crate) fn cell_digest(
    point_toml: &str,
    coords: &[(AxisParam, f64)],
    policy_label: &str,
    policy: &PolicySpec,
    seed: u64,
    rule: &StoppingRule,
) -> u64 {
    let mut h = Fnv1a::new();
    h.update(CELL_KIND.as_bytes());
    h.update_u64(CELL_VERSION);
    h.update(point_toml.as_bytes());
    h.update_u64(coords.len() as u64);
    for (param, value) in coords {
        h.update(param.key().as_bytes());
        h.update_u64(value.to_bits());
    }
    h.update(policy_label.as_bytes());
    h.update(format!("{policy:?}").as_bytes());
    h.update_u64(seed);
    if rule.r0 < rule.max_reps {
        h.update_u64(rule.tolerance.to_bits());
    }
    h.update_u64(rule.r0);
    h.update_u64(rule.max_reps);
    h.update_u64(u64::from(rule.antithetic));
    h.finish()
}

/// The file holding cell `digest` under the cache directory `dir`.
#[must_use]
pub(crate) fn cell_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.cell.jsonl"))
}

/// Reads cell `digest` from `dir`: `Ok(None)` when no file exists or the
/// file's header names a different cell (a stale file under a hash
/// collision is a miss, not an error).
///
/// # Errors
/// An unreadable, torn, truncated or otherwise malformed cell file — the
/// message names its path.
pub(crate) fn load(dir: &Path, digest: u64) -> Result<Option<PointStats>, String> {
    let path = cell_path(dir, digest);
    match fs::read_to_string(&path) {
        Ok(text) => parse(&text, digest, &path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read `{}`: {e}", path.display())),
    }
}

/// Stores cell `digest` in `dir` (which must exist), replacing any older
/// file atomically. Probe reports and quarantine marks are not stored.
///
/// # Errors
/// I/O failures writing or renaming the file.
pub(crate) fn store(dir: &Path, digest: u64, stats: &PointStats) -> Result<(), String> {
    debug_assert!(
        stats.quarantined_reps.is_empty(),
        "quarantined cells are never stored"
    );
    write_atomic(&cell_path(dir, digest), &render(digest, stats))
}

/// Writes a file atomically (temp + rename) so a crash never leaves a
/// torn cell or CSV behind.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("cannot move `{}` into place: {e}", tmp.display()))
}

/// Renders a cell file: the header line plus one state line.
fn render(digest: u64, s: &PointStats) -> String {
    let mut out = String::with_capacity(256 + 24 * 3 * s.completion_times.len());
    let _ = writeln!(
        out,
        "{{\"kind\":\"{CELL_KIND}\",\"version\":{CELL_VERSION},\"cell\":\"{digest:016x}\"}}"
    );
    // `failures` and `tasks_shipped` are stored as their columns only; the
    // destructuring breaks the build when a counter is added unstored.
    let Counters {
        events,
        failures: _,
        recoveries,
        transfers,
        tasks_shipped: _,
        tasks_clamped,
        tasks_lost,
        retries,
        bounces,
    } = s.counters;
    let _ = write!(
        out,
        "{{\"reps\":{},\"incomplete\":{},\"events\":{events},\"recoveries\":{recoveries},\
         \"transfers\":{transfers},\"clamped\":{tasks_clamped},\"lost\":{tasks_lost},\
         \"retries\":{retries},\"bounces\":{bounces},\"transit\":{}",
        s.completion_times.len(),
        s.incomplete,
        s.transit_task_seconds.to_bits(),
    );
    push_u64_array(
        &mut out,
        "times",
        s.completion_times.iter().map(|t| t.to_bits()),
    );
    push_u64_array(&mut out, "failures", s.failures_per_rep.iter().copied());
    push_u64_array(&mut out, "shipped", s.tasks_shipped_per_rep.iter().copied());
    out.push_str("}\n");
    out
}

/// Parses a cell file back; `Ok(None)` when the header names a different
/// cell.
fn parse(text: &str, digest: u64, path: &Path) -> Result<Option<PointStats>, String> {
    let bad = |msg: &str| {
        format!(
            "cell cache `{}`: {msg} (delete the file to recompute)",
            path.display()
        )
    };
    // Both lines end in '\n'; a missing final newline means the file was
    // cut short.
    if !text.ends_with('\n') {
        return Err(bad("truncated file"));
    }
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))?;
    let fields = parse_object(header).map_err(|e| bad(&format!("bad header: {e}")))?;
    match lookup(&fields, "kind") {
        Some(JsonVal::Str(k)) if *k == CELL_KIND => {}
        _ => return Err(bad("not a cell cache file")),
    }
    match lookup(&fields, "version") {
        Some(JsonVal::Num(v)) if *v == CELL_VERSION => {}
        _ => return Err(bad("unsupported version")),
    }
    match lookup(&fields, "cell") {
        Some(JsonVal::Str(d)) if *d == format!("{digest:016x}") => {}
        _ => return Ok(None),
    }
    let line = lines.next().ok_or_else(|| bad("missing state line"))?;
    if lines.next().is_some() {
        return Err(bad("trailing lines after the state line"));
    }
    let mut fields = parse_object(line).map_err(|e| bad(&format!("bad state line: {e}")))?;
    let mut arr = |key: &str| -> Result<Vec<u64>, String> {
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some((_, JsonVal::Arr(v))) => Ok(std::mem::take(v)),
            _ => Err(bad(&format!("missing array `{key}`"))),
        }
    };
    let times = arr("times")?;
    let failures = arr("failures")?;
    let shipped = arr("shipped")?;
    let num = |key: &str| -> Result<u64, String> {
        match lookup(&fields, key) {
            Some(JsonVal::Num(v)) => Ok(*v),
            _ => Err(bad(&format!("missing numeric `{key}`"))),
        }
    };
    if times.len() as u64 != num("reps")?
        || failures.len() != times.len()
        || shipped.len() != times.len()
    {
        return Err(bad("inconsistent replication counts"));
    }
    // The failures and shipped totals are not stored: they are the sums
    // of their per-replication arrays.
    let counters = Counters {
        events: num("events")?,
        failures: failures.iter().sum(),
        recoveries: num("recoveries")?,
        transfers: num("transfers")?,
        tasks_shipped: shipped.iter().sum(),
        tasks_clamped: num("clamped")?,
        tasks_lost: num("lost")?,
        retries: num("retries")?,
        bounces: num("bounces")?,
    };
    Ok(Some(PointStats {
        // Same-layout map: the collect reuses the array's allocation.
        completion_times: times.into_iter().map(f64::from_bits).collect(),
        failures_per_rep: failures,
        tasks_shipped_per_rep: shipped,
        incomplete: num("incomplete")?,
        counters,
        transit_task_seconds: f64::from_bits(num("transit")?),
        probes: Vec::new(),
        quarantined_reps: Vec::new(),
    }))
}

fn push_u64_array(out: &mut String, key: &str, values: impl Iterator<Item = u64>) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Minimal value space of the cell files' JSON subset: unsigned integers,
/// arrays of unsigned integers, and escape-free strings (borrowed from the
/// line).
#[derive(Debug)]
enum JsonVal<'a> {
    Num(u64),
    Arr(Vec<u64>),
    Str(&'a str),
}

fn lookup<'v, 'a>(fields: &'v [(&'a str, JsonVal<'a>)], key: &str) -> Option<&'v JsonVal<'a>> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Parses one flat JSON object in the subset. Anything outside it
/// (escapes, nesting, floats, negative numbers) is an error — the cache
/// never writes it. Arrays after a `reps` field reserve that many slots
/// (at most one per two bytes of the line, the shortest an element can be).
fn parse_object(line: &str) -> Result<Vec<(&str, JsonVal<'_>)>, String> {
    let mut c = Cursor {
        s: line,
        i: 0,
        reserve: 0,
    };
    c.expect(b'{')?;
    let mut fields = Vec::new();
    if c.peek() == Some(b'}') {
        c.i += 1;
    } else {
        loop {
            let key = c.parse_string()?;
            c.expect(b':')?;
            let value = c.parse_value()?;
            if let ("reps", JsonVal::Num(n)) = (key, &value) {
                c.reserve = usize::try_from(*n).map_or(0, |n| n.min(line.len() / 2));
            }
            fields.push((key, value));
            match c.next_byte()? {
                b',' => {}
                b'}' => break,
                b => return Err(format!("unexpected byte {:?} in object", b as char)),
            }
        }
    }
    c.skip_ws();
    if c.i < c.s.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

struct Cursor<'a> {
    s: &'a str,
    i: usize,
    /// Capacity each array reserves up front.
    reserve: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of line")?;
        self.i += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "expected {:?}, found {:?}",
                want as char, got as char
            ))
        }
    }

    fn parse_string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(b) = self.byte() {
            match b {
                // ASCII quotes are char boundaries, so the slice is valid.
                b'"' => {
                    let out = &self.s[start..self.i];
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => return Err("escape sequences are outside the cache's JSON subset".into()),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// Accumulates a run of decimal digits in one pass.
    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.i;
        let mut n = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.byte() {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(digit - b'0')))
                .ok_or("number overflows u64")?;
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        Ok(n)
    }

    fn parse_value(&mut self) -> Result<JsonVal<'a>, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => self.parse_string().map(JsonVal::Str),
            b'[' => {
                self.i += 1;
                let mut arr = Vec::with_capacity(self.reserve);
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(JsonVal::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.parse_u64()?);
                    match self.next_byte()? {
                        b',' => {}
                        b']' => break,
                        b => return Err(format!("unexpected byte {:?} in array", b as char)),
                    }
                }
                Ok(JsonVal::Arr(arr))
            }
            _ => self.parse_u64().map(JsonVal::Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn sample_stats(reps: usize, salt: u64) -> PointStats {
        let failures_per_rep: Vec<u64> = (0..reps as u64 + 2).map(|r| r + salt).collect();
        let tasks_shipped_per_rep: Vec<u64> = (0..reps as u64 + 2).map(|r| 2 * r).collect();
        PointStats {
            completion_times: (0..reps)
                .map(|r| 0.25 + r as f64 + salt as f64)
                .chain([f64::MIN_POSITIVE, 1e300])
                .collect(),
            incomplete: 1,
            counters: Counters {
                events: 1000 + salt,
                failures: failures_per_rep.iter().sum(),
                recoveries: 7,
                transfers: 9,
                tasks_shipped: tasks_shipped_per_rep.iter().sum(),
                tasks_clamped: 2,
                tasks_lost: 4 + salt,
                retries: 5,
                bounces: 1,
            },
            failures_per_rep,
            tasks_shipped_per_rep,
            transit_task_seconds: 3.5 + salt as f64 * 0.125,
            probes: Vec::new(),
            quarantined_reps: Vec::new(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("churnbal-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let stats = sample_stats(4, 3);
        let digest = 0xdead_beef_cafe_f00d;
        store(&dir, digest, &stats).expect("stores");
        let back = load(&dir, digest).expect("parses").expect("digest matches");
        assert_eq!(render(digest, &back), render(digest, &stats));
        for (a, b) in back.completion_times.iter().zip(&stats.completion_times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            back.transit_task_seconds.to_bits(),
            stats.transit_task_seconds.to_bits()
        );
        // Every counter comes back, the two array totals derived on load.
        assert_eq!(back.counters, stats.counters);
        assert_eq!((back.counters.events, back.counters.tasks_lost), (1003, 7));
        // No stray temporary file is left behind.
        assert_eq!(fs::read_dir(&dir).expect("dir").count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_foreign_cells_are_misses() {
        let dir = temp_dir("miss");
        assert!(load(&dir, 7).expect("no file").is_none());
        // A file whose header names another cell (a hand-copied file)
        // is a miss, not an error and not a hit.
        let text = render(1, &sample_stats(2, 0));
        fs::write(cell_path(&dir, 2), text).expect("write");
        assert!(load(&dir, 2).expect("parses").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_is_rejected_naming_its_path() {
        let text = render(9, &sample_stats(3, 0));
        let path = Path::new("cache/0000000000000009.cell.jsonl");
        for cut in [10, text.len() / 2, text.len() - 2, text.len() - 1] {
            let err = parse(&text[..cut], 9, path).unwrap_err();
            assert!(err.contains("0000000000000009.cell.jsonl"), "{err}");
        }
        let mut extra = text.clone();
        extra.push_str("{}\n");
        assert!(parse(&extra, 9, path).is_err());
    }

    #[test]
    fn non_cell_file_is_rejected() {
        let path = Path::new("x.cell.jsonl");
        let err = parse("point,policy\n0,0\n", 5, path).unwrap_err();
        assert!(err.contains("bad header"), "{err}");
        let err = parse(
            "{\"kind\":\"churnbal-cell\",\"version\":1,\"cell\":\"0000000000000005\"}\n{}\n",
            5,
            path,
        )
        .unwrap_err();
        assert!(err.contains("unsupported version"), "{err}");
    }

    #[test]
    fn every_rejection_keeps_its_message() {
        let path = Path::new("x.cell.jsonl");
        let good = render(5, &sample_stats(1, 0));
        let (header, state) = good.trim_end().split_once('\n').expect("two lines");
        let with_state = |state: &str| format!("{header}\n{state}\n");
        let cases: [(String, &str); 16] = [
            (good[..good.len() - 1].to_string(), "truncated file"),
            (
                "point,policy\n0,0\n".into(),
                "bad header: expected '{', found 'p'",
            ),
            (
                "{\"kind\":\"churnbal-cell\n{}\n".into(),
                "bad header: unterminated string",
            ),
            (
                good.replace("churnbal-cell", "other"),
                "not a cell cache file",
            ),
            (
                good.replace("\"version\":2", "\"version\":1"),
                "unsupported version",
            ),
            (
                good.replace("\"version\":2", "\"version\":99999999999999999999"),
                "bad header: number overflows u64",
            ),
            (format!("{header}\n"), "missing state line"),
            (
                format!("{good}{{}}\n"),
                "trailing lines after the state line",
            ),
            (
                with_state(&state.replace("\"reps\"", "\"re\\\"ps\"")),
                "bad state line: escape sequences are outside the cache's JSON subset",
            ),
            (
                with_state(&state.replace("\"reps\":3", "\"reps\":18446744073709551616")),
                "bad state line: number overflows u64",
            ),
            (
                with_state(&state.replace("\"failures\":[0", "\"failures\":[18446744073709551616")),
                "bad state line: number overflows u64",
            ),
            (
                with_state(&state.replace("\"reps\":3", "\"reps\":-3")),
                "bad state line: expected a number",
            ),
            (
                with_state(&state.replace("\"incomplete\":1", "\"incomplete\":1.5")),
                "bad state line: unexpected byte '.' in object",
            ),
            (
                with_state(&state.replace("\"incomplete\"", "\"complete\"")),
                "missing numeric `incomplete`",
            ),
            (
                with_state(&state.replace("\"shipped\"", "\"shipping\"")),
                "missing array `shipped`",
            ),
            (
                with_state(&state.replace("\"reps\":3", "\"reps\":4")),
                "inconsistent replication counts",
            ),
        ];
        for (text, msg) in &cases {
            assert_eq!(
                parse(text, 5, path).unwrap_err(),
                format!("cell cache `x.cell.jsonl`: {msg} (delete the file to recompute)"),
                "{text}"
            );
        }
        // A well-formed file of another cell is a miss, not an error.
        assert!(parse(&good, 6, path).expect("parses").is_none());
        // The largest u64 still parses.
        let max =
            with_state(&state.replace("\"events\":1000", &format!("\"events\":{}", u64::MAX)));
        assert_eq!(
            parse(&max, 5, path)
                .expect("parses")
                .expect("hit")
                .counters
                .events,
            u64::MAX
        );
    }

    #[test]
    fn cell_digests_are_pinned() {
        // Cache keys must never move: a moved key silently turns every
        // cache file on disk into a miss. One fixed and one adaptive rule
        // (only the latter hashes the tolerance), over a grid coordinate.
        let sc = registry::get("paper-fig3").expect("registered");
        let policy = sc.policy.clone();
        let coords = [(AxisParam::Gain, 0.5)];
        let adaptive = StoppingRule {
            tolerance: 0.05,
            r0: 64,
            max_reps: 1024,
            antithetic: true,
        };
        let toml = sc.to_toml();
        assert_eq!(
            cell_digest(&toml, &coords, "lbp1", &policy, 42, &StoppingRule::fixed(8)),
            0x8368_ce5e_459b_a6f2
        );
        assert_eq!(
            cell_digest(&toml, &coords, "lbp1", &policy, 42, &adaptive),
            0xb359_9237_ab95_47b2
        );
    }

    #[test]
    fn fixed_rules_ignore_tolerance() {
        let sc = registry::get("paper-fig5").expect("registered");
        let policy = sc.policy.clone();
        let sc = sc.to_toml();
        // A fixed rule runs exactly r0 replications whatever the
        // tolerance, so a campaign cell with r0 = max_reps = 8 and a
        // fixed 8-replication CLI cell share a key.
        let campaign = StoppingRule {
            tolerance: 0.5,
            r0: 8,
            max_reps: 8,
            antithetic: false,
        };
        assert_eq!(
            cell_digest(&sc, &[], "p", &policy, 42, &campaign),
            cell_digest(&sc, &[], "p", &policy, 42, &StoppingRule::fixed(8))
        );
        assert_ne!(
            cell_digest(&sc, &[], "p", &policy, 42, &StoppingRule::fixed(8)),
            cell_digest(&sc, &[], "p", &policy, 42, &StoppingRule::fixed(9))
        );
    }
}
