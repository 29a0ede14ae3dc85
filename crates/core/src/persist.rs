//! Trained-model persistence.
//!
//! A versioned, dependency-free format: train once (possibly with the
//! expensive DIRECT parameter search), save, and classify later from the
//! saved patterns + SVM. Floats are written with Rust's shortest-roundtrip
//! `Display`, so save/load is bit-exact.
//!
//! ## v2 (current writer)
//!
//! The payload is split into length-prefixed, CRC32-guarded sections so a
//! loader can tell *which* part of a damaged file is corrupt instead of
//! failing with a generic parse error:
//!
//! ```text
//! RPM-MODEL v2
//! section flags <len> <crc32-hex>
//! <len payload bytes>
//! section sax <len> <crc32-hex>
//! section patterns <len> <crc32-hex>
//! section svm <len> <crc32-hex>
//! section profile <len> <crc32-hex>    (optional; drift reference)
//! checksum <crc32-hex>                 (over all payloads, in order)
//! END
//! ```
//!
//! Each section payload is the v1 line syntax for that portion of the
//! model, so the two formats share one line parser. A CRC mismatch loads
//! as [`PersistError::Corrupt`] naming the section; header damage is a
//! [`PersistError::Format`]. Loading never panics, whatever the bytes.
//!
//! The `profile` section holds the training-time drift reference
//! (`profile-class`/`profile-hist` lines rendered by
//! `rpm_obs::ReferenceProfile`). It is optional: files written before it
//! existed load fine and simply leave the model without a profile, so
//! serve-time drift detection reports `unavailable` for them.
//!
//! ## v1 (still read, written by [`RpmClassifier::save_v1`])
//!
//! ```text
//! RPM-MODEL v1
//! flags <rotation_invariant> <early_abandon>
//! sax <class> <window> <paa> <alpha>        (one per class)
//! pattern <class> <freq> <coverage> <window> <paa> <alpha> <len> <v...>
//! svm-classes <labels...>
//! svm-scaler-mean <v...>
//! svm-scaler-invsd <v...>
//! svm-weights <rows>
//! svm-row <v...>                             (one per class)
//! END
//! ```

use crate::candidates::Candidate;
use crate::model::RpmClassifier;
use rpm_ml::{LinearSvm, SvmExport};
use rpm_sax::SaxConfig;
use rpm_ts::Label;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Errors raised while loading a saved model.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not an RPM model or is structurally broken (bad
    /// magic, damaged section header, truncation).
    Format(String),
    /// A v2 section's bytes fail their CRC32 — the file was damaged after
    /// writing, and `section` says where.
    Corrupt {
        /// Which section (`flags`, `sax`, `patterns`, `svm`, `profile`, or
        /// `trailer` for the whole-payload checksum) failed verification.
        section: String,
        /// What mismatched.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Format(m) => write!(f, "model format error: {m}"),
            Self::Corrupt { section, detail } => {
                write!(f, "model corrupt in section {section:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), bitwise — the model files
/// are a few tens of KiB, so a lookup table isn't worth carrying.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What [`RpmClassifier::verify`] learned about a model stream.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Format version (1 or 2).
    pub version: u8,
    /// v2 sections as `(name, payload bytes)`; empty for v1.
    pub sections: Vec<(String, usize)>,
    /// Representative patterns in the model.
    pub patterns: usize,
    /// Classes the SVM separates.
    pub classes: usize,
    /// Whether the model was trained under an exhausted budget.
    pub degraded: bool,
    /// CRC-32 of the entire stream, as 8 hex digits — the model identity
    /// surfaced on `/healthz` ([`model_fingerprint`]).
    pub fingerprint: String,
    /// Training samples in the drift reference profile (0 when the model
    /// carries none).
    pub profile_samples: u64,
}

/// The model fingerprint surfaced by the serving path: CRC-32 of the
/// entire serialized stream, rendered as 8 hex digits.
pub fn model_fingerprint(bytes: &[u8]) -> String {
    format!("{:08x}", crc32(bytes))
}

/// Accumulator shared by the v1 and v2 readers: both formats use the same
/// line syntax, v2 just groups the lines into checksummed sections.
#[derive(Default)]
struct Parts {
    rotation_invariant: bool,
    early_abandon: bool,
    degraded: bool,
    per_class_sax: BTreeMap<Label, SaxConfig>,
    patterns: Vec<Candidate>,
    svm_classes: Option<Vec<usize>>,
    scaler_mean: Option<Vec<f64>>,
    scaler_inv_sd: Option<Vec<f64>>,
    weights: Vec<Vec<f64>>,
    expected_rows: usize,
    /// Raw `profile-*` lines, re-assembled and handed to
    /// `ReferenceProfile::parse` at finish (empty = no profile section).
    profile_lines: String,
}

impl Parts {
    fn new() -> Self {
        Self {
            early_abandon: true,
            ..Self::default()
        }
    }

    /// Applies one body line; returns `true` on the `END` sentinel.
    fn apply_line(&mut self, line: &str) -> Result<bool, PersistError> {
        let mut f = line.split_whitespace();
        let Some(tag) = f.next() else {
            return Ok(false);
        };
        match tag {
            "flags" => {
                self.rotation_invariant = parse::<u8>(f.next(), "flags[0]")? != 0;
                self.early_abandon = parse::<u8>(f.next(), "flags[1]")? != 0;
                // v1 wrote two flags; v2 appends `degraded`.
                if let Some(d) = f.next() {
                    self.degraded = parse::<u8>(Some(d), "flags[2]")? != 0;
                }
            }
            "sax" => {
                let class = parse::<usize>(f.next(), "sax class")?;
                let w = parse::<usize>(f.next(), "sax window")?;
                let p = parse::<usize>(f.next(), "sax paa")?;
                let a = parse::<usize>(f.next(), "sax alphabet")?;
                self.per_class_sax.insert(class, SaxConfig::new(w, p, a));
            }
            "pattern" => {
                let class = parse::<usize>(f.next(), "pattern class")?;
                let frequency = parse::<usize>(f.next(), "pattern freq")?;
                let coverage = parse::<usize>(f.next(), "pattern coverage")?;
                let w = parse::<usize>(f.next(), "pattern window")?;
                let p = parse::<usize>(f.next(), "pattern paa")?;
                let a = parse::<usize>(f.next(), "pattern alphabet")?;
                let len = parse::<usize>(f.next(), "pattern len")?;
                let values: Vec<f64> = f
                    .map(|v| v.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format_err(format!("pattern values: {e}")))?;
                if values.len() != len {
                    return Err(format_err(format!(
                        "pattern declared {len} values, found {}",
                        values.len()
                    )));
                }
                self.patterns.push(Candidate {
                    class,
                    values,
                    frequency,
                    coverage,
                    sax: SaxConfig::new(w, p, a),
                });
            }
            "svm-classes" => {
                self.svm_classes = Some(
                    f.map(|v| v.parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| format_err(format!("svm classes: {e}")))?,
                );
            }
            "svm-scaler-mean" => self.scaler_mean = Some(parse_floats(f)?),
            "svm-scaler-invsd" => self.scaler_inv_sd = Some(parse_floats(f)?),
            "svm-weights" => {
                self.expected_rows = parse::<usize>(f.next(), "svm rows")?;
            }
            "svm-row" => self.weights.push(parse_floats(f)?),
            t if t.starts_with("profile-") => {
                // Profile lines are validated as a unit by
                // `ReferenceProfile::parse` in `finish`.
                self.profile_lines.push_str(line);
                self.profile_lines.push('\n');
            }
            "END" => return Ok(true),
            other => return Err(format_err(format!("unknown tag {other:?}"))),
        }
        Ok(false)
    }

    fn finish(self) -> Result<RpmClassifier, PersistError> {
        let profile = if self.profile_lines.is_empty() {
            None
        } else {
            let p = rpm_obs::ReferenceProfile::parse(&self.profile_lines)
                .map_err(|e| format_err(format!("profile: {e}")))?;
            (!p.is_empty()).then_some(p)
        };
        if self.weights.len() != self.expected_rows {
            return Err(format_err(format!(
                "declared {} weight rows, found {}",
                self.expected_rows,
                self.weights.len()
            )));
        }
        let svm = LinearSvm::import(SvmExport {
            classes: self
                .svm_classes
                .ok_or_else(|| format_err("missing svm-classes"))?,
            weights: self.weights,
            scaler_mean: self
                .scaler_mean
                .ok_or_else(|| format_err("missing svm-scaler-mean"))?,
            scaler_inv_sd: self
                .scaler_inv_sd
                .ok_or_else(|| format_err("missing svm-scaler-invsd"))?,
        });
        let pattern_values: Vec<Vec<f64>> =
            self.patterns.iter().map(|p| p.values.clone()).collect();
        let n_patterns = pattern_values.len();
        // The match kernel is an execution strategy, not part of the
        // model: loaded models always serve with the default (batched)
        // kernel, whatever they were trained with.
        let plans = crate::transform::prepare_patterns(&pattern_values, Default::default());
        let batched = rpm_ts::BatchedMatch::new(&plans);
        Ok(RpmClassifier {
            patterns: self.patterns,
            plans,
            batched,
            svm,
            per_class_sax: self.per_class_sax,
            rotation_invariant: self.rotation_invariant,
            early_abandon: self.early_abandon,
            degraded: self.degraded,
            // Training-run counters are not persisted; a loaded model
            // reports empty stats and starts a fresh usage window.
            cache_stats: crate::cache::CacheStats::default(),
            usage: crate::usage::PatternUsage::new(n_patterns),
            profile,
        })
    }
}

/// A parsed v2 section: name plus its raw payload bytes (CRC-verified).
struct Section<'a> {
    name: &'a str,
    payload: &'a [u8],
}

/// Walks a v2 byte stream (everything after the magic line), verifying
/// each section CRC and the trailer checksum.
fn split_v2_sections(mut rest: &[u8]) -> Result<Vec<Section<'_>>, PersistError> {
    let mut sections = Vec::new();
    let mut all_crc = 0xFFFF_FFFFu32; // incremental CRC over all payloads
    let mut saw_checksum = false;
    let mut saw_end = false;
    while !rest.is_empty() {
        let (line, after) = take_line(rest)?;
        if let Some(fields) = line.strip_prefix("section ") {
            let mut f = fields.split_whitespace();
            let name = f.next().ok_or_else(|| format_err("section without name"))?;
            if !matches!(name, "flags" | "sax" | "patterns" | "svm" | "profile") {
                return Err(format_err(format!("unknown section {name:?}")));
            }
            let len: usize = parse(f.next(), "section length")?;
            let crc = parse_hex(f.next(), "section crc")?;
            let payload = after
                .get(..len)
                .ok_or_else(|| format_err(format!("section {name:?} truncated")))?;
            let found = crc32(payload);
            if found != crc {
                return Err(PersistError::Corrupt {
                    section: name.to_string(),
                    detail: format!("crc32 {found:08x}, header says {crc:08x}"),
                });
            }
            for &b in payload {
                all_crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (all_crc & 1).wrapping_neg();
                    all_crc = (all_crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            sections.push(Section { name, payload });
            rest = &after[len..];
        } else if let Some(fields) = line.strip_prefix("checksum ") {
            let crc = parse_hex(fields.split_whitespace().next(), "trailer crc")?;
            let found = !all_crc;
            if found != crc {
                return Err(PersistError::Corrupt {
                    section: "trailer".to_string(),
                    detail: format!("payload crc32 {found:08x}, trailer says {crc:08x}"),
                });
            }
            saw_checksum = true;
            rest = after;
        } else if line.trim() == "END" {
            saw_end = true;
            break;
        } else if line.trim().is_empty() {
            rest = after;
        } else {
            return Err(format_err(format!("unexpected v2 header line {line:?}")));
        }
    }
    if !saw_checksum {
        return Err(format_err("truncated stream (no checksum trailer)"));
    }
    if !saw_end {
        return Err(format_err("truncated stream (no END)"));
    }
    Ok(sections)
}

/// Splits the next `\n`-terminated line off `bytes`; the line itself must
/// be UTF-8 (section payloads, which may hold arbitrary damage, are never
/// routed through here — they are length-skipped).
fn take_line(bytes: &[u8]) -> Result<(&str, &[u8]), PersistError> {
    let (line, rest) = match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => (&bytes[..i], &bytes[i + 1..]),
        None => (bytes, &bytes[bytes.len()..]),
    };
    let line =
        std::str::from_utf8(line).map_err(|_| format_err("header line is not valid UTF-8"))?;
    Ok((line, rest))
}

/// (parsed sections, format version, per-section name/size listing,
/// whole-stream fingerprint).
type LoadedParts = (Parts, u8, Vec<(String, usize)>, String);

impl RpmClassifier {
    /// The fingerprint this model would carry on disk: CRC-32 of its
    /// serialized v2 stream, as surfaced on `/healthz`. Serializes into
    /// memory — cheap for RPM models (a few KB of patterns), and the
    /// only way an in-memory model's identity matches its file's.
    pub fn current_fingerprint(&self) -> String {
        let mut buf = Vec::new();
        match self.save(&mut buf) {
            Ok(()) => model_fingerprint(&buf),
            // Writing to a Vec cannot fail; an armed persist.save fault
            // can. Identity stays unknown rather than wrong.
            Err(_) => "unknown".to_string(),
        }
    }

    /// Writes the trained model in the current (v2) sectioned format with
    /// per-section CRC32s and a whole-payload trailer checksum.
    pub fn save(&self, mut writer: impl Write) -> std::io::Result<()> {
        rpm_obs::fault::point("persist.save")?;
        let mut sections = vec![
            ("flags", self.render_flags()),
            ("sax", self.render_sax()),
            ("patterns", self.render_patterns()),
            ("svm", self.render_svm()),
        ];
        // The drift reference rides along as an optional trailing section;
        // readers that predate it skip nothing (it is simply absent from
        // older files, and its tag-prefixed lines keep the shared line
        // parser unambiguous).
        if let Some(profile) = self.profile.as_ref().filter(|p| !p.is_empty()) {
            sections.push(("profile", profile.render()));
        }
        let mut out = String::from("RPM-MODEL v2\n");
        let mut all = Vec::new();
        for (name, payload) in &sections {
            let bytes = payload.as_bytes();
            let _ = writeln!(out, "section {name} {} {:08x}", bytes.len(), crc32(bytes));
            out.push_str(payload);
            all.extend_from_slice(bytes);
        }
        let _ = writeln!(out, "checksum {:08x}", crc32(&all));
        out.push_str("END\n");
        writer.write_all(out.as_bytes())
    }

    /// Writes the legacy v1 single-stream format (kept so the v1 → v2
    /// compatibility path stays exercised; prefer [`RpmClassifier::save`]).
    pub fn save_v1(&self, mut writer: impl Write) -> std::io::Result<()> {
        rpm_obs::fault::point("persist.save")?;
        let mut out = String::from("RPM-MODEL v1\n");
        let _ = writeln!(
            out,
            "flags {} {}",
            self.rotation_invariant as u8, self.early_abandon as u8
        );
        out.push_str(&self.render_sax());
        out.push_str(&self.render_patterns());
        out.push_str(&self.render_svm());
        out.push_str("END\n");
        writer.write_all(out.as_bytes())
    }

    fn render_flags(&self) -> String {
        format!(
            "flags {} {} {}\n",
            self.rotation_invariant as u8, self.early_abandon as u8, self.degraded as u8
        )
    }

    fn render_sax(&self) -> String {
        let mut out = String::new();
        for (class, sax) in &self.per_class_sax {
            let _ = writeln!(
                out,
                "sax {class} {} {} {}",
                sax.window, sax.paa_size, sax.alphabet
            );
        }
        out
    }

    fn render_patterns(&self) -> String {
        let mut out = String::new();
        for p in &self.patterns {
            let _ = write!(
                out,
                "pattern {} {} {} {} {} {} {}",
                p.class,
                p.frequency,
                p.coverage,
                p.sax.window,
                p.sax.paa_size,
                p.sax.alphabet,
                p.values.len()
            );
            for v in &p.values {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }

    fn render_svm(&self) -> String {
        let svm = self.svm.export();
        let mut out = String::from("svm-classes");
        for c in &svm.classes {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
        out.push_str("svm-scaler-mean");
        for v in &svm.scaler_mean {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
        out.push_str("svm-scaler-invsd");
        for v in &svm.scaler_inv_sd {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
        let _ = writeln!(out, "svm-weights {}", svm.weights.len());
        for row in &svm.weights {
            out.push_str("svm-row");
            for v in row {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }

    /// Loads a model saved by [`RpmClassifier::save`] (v2) or
    /// [`RpmClassifier::save_v1`]; the version is auto-detected from the
    /// magic line.
    pub fn load(reader: impl Read) -> Result<Self, PersistError> {
        Self::load_parts(reader)?.0.finish()
    }

    /// Verifies a model stream without constructing a classifier-sized
    /// answer: checks every section CRC (v2) and fully parses the body,
    /// reporting what the file holds. A damaged file yields the same
    /// [`PersistError`] that [`RpmClassifier::load`] would — including
    /// [`PersistError::Corrupt`] naming the broken section.
    pub fn verify(reader: impl Read) -> Result<VerifyReport, PersistError> {
        let (parts, version, sections, fingerprint) = Self::load_parts(reader)?;
        let model = parts.finish()?;
        Ok(VerifyReport {
            version,
            sections,
            patterns: model.patterns.len(),
            classes: model.svm.export().classes.len(),
            degraded: model.degraded,
            fingerprint,
            profile_samples: model.profile.as_ref().map_or(0, |p| p.total_samples()),
        })
    }

    fn load_parts(mut reader: impl Read) -> Result<LoadedParts, PersistError> {
        rpm_obs::fault::point("persist.load")?;
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        let fingerprint = model_fingerprint(&buf);
        let (magic, rest) = take_line(&buf).map_err(|_| format_err("bad magic line"))?;
        let mut parts = Parts::new();
        match magic.trim() {
            "RPM-MODEL v1" => {
                let body = std::str::from_utf8(rest)
                    .map_err(|_| format_err("v1 stream is not valid UTF-8"))?;
                let mut saw_end = false;
                for line in body.lines() {
                    if parts.apply_line(line)? {
                        saw_end = true;
                        break;
                    }
                }
                if !saw_end {
                    return Err(format_err("truncated stream (no END)"));
                }
                Ok((parts, 1, Vec::new(), fingerprint))
            }
            "RPM-MODEL v2" => {
                let sections = split_v2_sections(rest)?;
                let mut summary = Vec::with_capacity(sections.len());
                for section in sections {
                    // CRC already passed, so the payload is the exact
                    // bytes the writer produced — valid UTF-8 v1 lines.
                    let text = std::str::from_utf8(section.payload).map_err(|_| {
                        format_err(format!("section {:?} is not valid UTF-8", section.name))
                    })?;
                    for line in text.lines() {
                        if parts.apply_line(line)? {
                            return Err(format_err(format!(
                                "section {:?} holds an END sentinel",
                                section.name
                            )));
                        }
                    }
                    summary.push((section.name.to_string(), section.payload.len()));
                }
                Ok((parts, 2, summary, fingerprint))
            }
            other => Err(format_err(format!("bad magic line {other:?}"))),
        }
    }
}

fn parse<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, PersistError>
where
    T::Err: std::fmt::Display,
{
    field
        .ok_or_else(|| format_err(format!("missing field {what}")))?
        .parse::<T>()
        .map_err(|e| format_err(format!("{what}: {e}")))
}

fn parse_hex(field: Option<&str>, what: &str) -> Result<u32, PersistError> {
    let s = field.ok_or_else(|| format_err(format!("missing field {what}")))?;
    u32::from_str_radix(s, 16).map_err(|e| format_err(format!("{what}: {e}")))
}

fn parse_floats<'a>(f: impl Iterator<Item = &'a str>) -> Result<Vec<f64>, PersistError> {
    f.map(|v| v.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format_err(format!("float list: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpmConfig;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use rpm_ts::Dataset;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new("p", Vec::new(), Vec::new());
        for class in 0..2usize {
            for _ in 0..10 {
                let mut s: Vec<f64> = (0..96).map(|_| 0.2 * (rng.gen::<f64>() - 0.5)).collect();
                let at = rng.gen_range(0usize..96 - 20);
                for i in 0..20 {
                    let t = std::f64::consts::TAU * i as f64 / 20.0;
                    s[at + i] += 3.0 * if class == 0 { t.sin() } else { -t.sin() };
                }
                d.push(s, class);
            }
        }
        d
    }

    fn trained() -> (RpmClassifier, Dataset) {
        let train = dataset(1);
        let config = RpmConfig::fixed(SaxConfig::new(20, 4, 4));
        (RpmClassifier::train(&train, &config).unwrap(), dataset(2))
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_predictions_exactly() {
        let (model, test) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = RpmClassifier::load(buf.as_slice()).unwrap();
        assert_eq!(
            model.predict_batch(&test.series),
            loaded.predict_batch(&test.series)
        );
        // Feature vectors must be bit-exact too (shortest-roundtrip floats).
        assert_eq!(
            model.transform(&test.series[0]),
            loaded.transform(&test.series[0])
        );
    }

    #[test]
    fn roundtrip_preserves_metadata() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = RpmClassifier::load(buf.as_slice()).unwrap();
        assert_eq!(model.patterns().len(), loaded.patterns().len());
        assert_eq!(model.sax_configs(), loaded.sax_configs());
        assert!(model.reference_profile().is_some());
        assert_eq!(model.reference_profile(), loaded.reference_profile());
        assert_eq!(
            model.is_rotation_invariant(),
            loaded.is_rotation_invariant()
        );
        assert_eq!(model.is_degraded(), loaded.is_degraded());
        for (a, b) in model.patterns().iter().zip(loaded.patterns()) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.frequency, b.frequency);
            assert_eq!(a.coverage, b.coverage);
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn v1_models_still_load() {
        let (model, test) = trained();
        let mut v1 = Vec::new();
        model.save_v1(&mut v1).unwrap();
        assert!(v1.starts_with(b"RPM-MODEL v1\n"));
        let loaded = RpmClassifier::load(v1.as_slice()).unwrap();
        assert_eq!(
            model.predict_batch(&test.series),
            loaded.predict_batch(&test.series)
        );
        assert!(
            !loaded.is_degraded(),
            "v1 has no degraded flag; defaults off"
        );
        // And a v1 load re-saved as v2 still answers identically.
        let mut v2 = Vec::new();
        loaded.save(&mut v2).unwrap();
        let reloaded = RpmClassifier::load(v2.as_slice()).unwrap();
        assert_eq!(
            model.predict_batch(&test.series),
            reloaded.predict_batch(&test.series)
        );
    }

    #[test]
    fn verify_reports_sections_and_contents() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let report = RpmClassifier::verify(buf.as_slice()).unwrap();
        assert_eq!(report.version, 2);
        let names: Vec<&str> = report.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["flags", "sax", "patterns", "svm", "profile"]);
        assert_eq!(report.patterns, model.patterns().len());
        assert_eq!(report.classes, 2);
        assert!(!report.degraded);
        assert_eq!(report.fingerprint, model_fingerprint(&buf));
        assert_eq!(report.fingerprint.len(), 8);
        // One profile sample per training series.
        assert_eq!(report.profile_samples, 20);

        let mut v1 = Vec::new();
        model.save_v1(&mut v1).unwrap();
        let report = RpmClassifier::verify(v1.as_slice()).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.sections.is_empty());
        assert_eq!(report.profile_samples, 0, "v1 never carries a profile");
    }

    #[test]
    fn profileless_v2_models_still_load() {
        // A model whose profile was stripped stands in for files written
        // by the pre-profile v2 writer: the section is simply absent.
        let (model, test) = trained();
        let mut bare = model.clone();
        bare.profile = None;
        let mut buf = Vec::new();
        bare.save(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(!text.contains("section profile"));
        let loaded = RpmClassifier::load(buf.as_slice()).unwrap();
        assert!(loaded.reference_profile().is_none());
        assert_eq!(
            model.predict_batch(&test.series),
            loaded.predict_batch(&test.series)
        );
        let report = RpmClassifier::verify(buf.as_slice()).unwrap();
        assert_eq!(report.profile_samples, 0);
    }

    #[test]
    fn corrupt_profile_lines_are_rejected() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save_v1(&mut buf).unwrap();
        // v1 has no checksums, so a bogus profile line reaches the parser.
        let text = String::from_utf8(buf).unwrap();
        let broken = text.replace("END\n", "profile-hist 0 bogus_metric 0:1\nEND\n");
        let err = RpmClassifier::load(broken.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("profile"), "{err}");
    }

    #[test]
    fn single_flipped_byte_names_the_corrupt_section() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        // Flip one byte inside the patterns section payload: find the
        // header, then damage a byte a few positions into the payload.
        let header_at = text.find("section patterns").unwrap();
        let payload_at = text[header_at..].find('\n').unwrap() + header_at + 1;
        let mut bad = buf.clone();
        bad[payload_at + 10] ^= 0x01;
        match RpmClassifier::load(bad.as_slice()) {
            Err(PersistError::Corrupt { section, .. }) => assert_eq!(section, "patterns"),
            other => panic!("expected Corrupt{{patterns}}, got {other:?}"),
        }
        // verify() reports the same place.
        let mut bad2 = buf;
        bad2[payload_at + 10] ^= 0x01;
        match RpmClassifier::verify(bad2.as_slice()) {
            Err(PersistError::Corrupt { section, .. }) => assert_eq!(section, "patterns"),
            other => panic!("expected Corrupt{{patterns}}, got {other:?}"),
        }
    }

    #[test]
    fn flipping_any_byte_errors_and_never_panics() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        // Exhaustive over a stride (files are tens of KiB; every 11th byte
        // still hits every section and every header many times over).
        // XOR with 0x01 so the decoded value always changes (0x20 would
        // only toggle ASCII case, and hex parsing is case-insensitive).
        for at in (0..buf.len()).step_by(11) {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            match RpmClassifier::load(bad.as_slice()) {
                // A flip inside a payload is caught by its section CRC; a
                // flip anywhere in a header line (magic, section name,
                // length, crc, trailer) breaks parsing or the CRC match.
                Err(_) => {}
                Ok(_) => panic!("flipped byte {at} loaded cleanly"),
            }
        }
    }

    #[test]
    fn truncation_at_any_point_errors_and_never_panics() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        // Up to len-2: dropping only the final newline leaves a complete
        // `END` sentinel (take_line accepts an unterminated last line), and
        // every payload is still CRC-verified — that is a complete model,
        // not a truncation.
        for len in (0..buf.len().saturating_sub(1)).step_by(13) {
            assert!(
                RpmClassifier::load(&buf[..len]).is_err(),
                "truncation to {len} bytes loaded cleanly"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = RpmClassifier::load("NOT-A-MODEL\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let cut = buf.len() / 2;
        let err = RpmClassifier::load(&buf[..cut]).unwrap_err();
        assert!(
            matches!(err, PersistError::Format(_) | PersistError::Corrupt { .. }),
            "{err}"
        );
    }

    #[test]
    fn corrupted_pattern_count_is_rejected() {
        let (model, _) = trained();
        let mut buf = Vec::new();
        model.save_v1(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Break a declared pattern length (v1 has no checksum, so this
        // exercises the structural validation).
        let broken = text.replacen("pattern 0", "pattern 0 9999", 1);
        assert!(RpmClassifier::load(broken.as_bytes()).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let text = "RPM-MODEL v1\nbogus 1 2 3\nEND\n";
        let err = RpmClassifier::load(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown tag"));
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert!(RpmClassifier::load(&b""[..]).is_err());
    }
}
