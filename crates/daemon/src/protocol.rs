//! The `zolcd` wire protocol: length-prefixed JSON frames and the
//! canonical codecs for job requests and results.
//!
//! # Frame layout
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames longer than [`MAX_FRAME`] bytes are rejected before any
//! allocation, so a corrupt length prefix cannot balloon the server.
//! A connection carries any number of frames back to back; a clean EOF
//! between frames ends the conversation.
//!
//! # Requests and responses
//!
//! A request is a JSON object with an `"op"` field:
//!
//! | op         | payload                                   |
//! |------------|-------------------------------------------|
//! | `ping`     | —                                         |
//! | `stats`    | —                                         |
//! | `retarget` | `binary` (encoded text words), `data` (bytes), `config` (ZOLC configuration) |
//! | `lint`     | `binary` (encoded text words), `data` (bytes), optional `config` (retarget on it first, lint against the image) |
//! | `sweep`    | `config` (sweep configuration)            |
//! | `shutdown` | —                                         |
//!
//! A response is `{"ok":true,...}` on success or
//! `{"ok":false,"error":"..."}` on failure. Job responses carry the
//! result under `"result"` and are **byte-identical** whether the
//! answer was computed or served from cache — there is deliberately no
//! "cached" marker, so cache hits are observable only through `stats`.
//!
//! # Canonicalization
//!
//! Cache keys never hash raw request bytes: requests are decoded, then
//! re-encoded through the canonical constructors here, so two clients
//! that format the same job differently (field order, whitespace,
//! redundant fields on named configuration variants) still share one
//! cache entry.

use std::io::{self, Read, Write};
use std::ops::RangeInclusive;
use std::sync::Arc;
use zolc_bench::json::Json;
use zolc_bench::SweepPoint;
use zolc_cfg::{LintReport, Retargeted};
use zolc_core::{ZolcConfig, ZolcVariant};
use zolc_gen::GenConfig;
use zolc_isa::Program;

/// Hard cap on one frame's payload, request or response (64 MiB —
/// comfortably above any sweep report, far below an allocation bomb).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Most programs one sweep job may ask for: ten times the largest sweep
/// the repository records (10,000 programs, `crates/bench/BENCH_sweep.json`).
/// A sweep allocates per-program result slots up front, and a failed
/// allocation aborts the whole daemon, so larger requests are refused
/// at decode.
pub const MAX_SWEEP_PROGRAMS: usize = 100_000;

/// Largest accepted `max_body` and `max_children` generator knob (the
/// defaults are 5 and 2): bounds the size of every generated program.
pub const MAX_GEN_WIDTH: usize = 256;

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors from the underlying reader; [`io::ErrorKind::InvalidData`]
/// when the length prefix exceeds [`MAX_FRAME`];
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len[n..])?,
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the writer; [`io::ErrorKind::InvalidData`] when the
/// payload exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME} byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// The success response wrapping an already-rendered result document.
///
/// The `result` string is spliced in verbatim — this is what makes a
/// cache hit byte-identical to the cold computation that populated it.
pub fn ok_response(result: &str) -> Vec<u8> {
    let mut out = String::with_capacity(result.len() + 16);
    out.push_str("{\"ok\":true,\"result\":");
    out.push_str(result);
    out.push('}');
    out.into_bytes()
}

/// The failure response for `error`.
pub fn err_response(error: &str) -> Vec<u8> {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(error.to_owned())),
    ])
    .render()
    .into_bytes()
}

// ---- ZolcConfig ---------------------------------------------------------

/// The canonical JSON encoding of a controller configuration.
///
/// Named variants carry only their name; `custom` carries the four
/// capacity knobs. Decoding ignores redundant fields, so this is also
/// the canonical form cache keys are built from.
pub fn zolc_config_json(config: &ZolcConfig) -> Json {
    let name = match config.variant() {
        ZolcVariant::Micro => "micro",
        ZolcVariant::Lite => "lite",
        ZolcVariant::Full => "full",
        ZolcVariant::Custom => {
            return Json::Obj(vec![
                ("variant".into(), Json::Str("custom".into())),
                ("loops".into(), Json::u64(config.loops() as u64)),
                ("tasks".into(), Json::u64(config.tasks() as u64)),
                ("entries".into(), Json::u64(config.entry_slots() as u64)),
                ("exits".into(), Json::u64(config.exit_slots() as u64)),
            ]);
        }
    };
    Json::Obj(vec![("variant".into(), Json::Str(name.into()))])
}

/// Decodes a controller configuration (see [`zolc_config_json`]).
///
/// # Errors
///
/// A message naming the missing or invalid field, or the capacity error
/// from [`ZolcConfig::custom`].
pub fn parse_zolc_config(doc: &Json) -> Result<ZolcConfig, String> {
    let variant = doc
        .get("variant")
        .and_then(Json::as_str)
        .ok_or("config: missing `variant`")?;
    match variant {
        "micro" => Ok(ZolcConfig::micro()),
        "lite" => Ok(ZolcConfig::lite()),
        "full" => Ok(ZolcConfig::full()),
        "custom" => {
            let knob = |key: &str| -> Result<usize, String> {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .map(|v| v as usize)
                    .ok_or(format!("config: custom variant needs integer `{key}`"))
            };
            ZolcConfig::custom(
                knob("loops")?,
                knob("tasks")?,
                knob("entries")?,
                knob("exits")?,
            )
            .map_err(|e| format!("config: {e}"))
        }
        other => Err(format!("config: unknown variant `{other}`")),
    }
}

// ---- GenConfig ----------------------------------------------------------

/// The canonical JSON encoding of the generator knobs.
pub fn gen_config_json(gen: &GenConfig) -> Json {
    Json::Obj(vec![
        ("max_top".into(), Json::u64(gen.max_top as u64)),
        ("max_depth".into(), Json::u64(gen.max_depth as u64)),
        ("max_children".into(), Json::u64(gen.max_children as u64)),
        ("max_body".into(), Json::u64(gen.max_body as u64)),
        ("max_trips".into(), Json::u64(u64::from(gen.max_trips))),
        ("max_loops".into(), Json::u64(gen.max_loops as u64)),
        ("reg_bounds".into(), Json::Bool(gen.reg_bounds)),
        ("dbnz".into(), Json::Bool(gen.dbnz)),
        ("skips".into(), Json::Bool(gen.skips)),
    ])
}

/// Decodes the optional integer field `key` of `doc`: `Ok(None)` when
/// it is absent, an error naming `ctx` and the field when it is not an
/// integer in `range` that fits `T`.
fn int_field<T: TryFrom<u64>>(
    doc: &Json,
    ctx: &str,
    key: &str,
    range: RangeInclusive<u64>,
) -> Result<Option<T>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let v = v
        .as_u64()
        .ok_or(format!("{ctx}: `{key}` is not an integer"))?;
    match T::try_from(v) {
        Ok(t) if range.contains(&v) => Ok(Some(t)),
        _ => Err(format!(
            "{ctx}: `{key}` = {v} is outside {}..={}",
            range.start(),
            range.end()
        )),
    }
}

/// Decodes generator knobs; absent fields keep their defaults, so a
/// client may send only what it overrides.
///
/// # Errors
///
/// A message naming the field with a non-integer / non-boolean value,
/// or with an integer outside its documented range: `max_top`,
/// `max_depth` and `max_trips` are at least 1, `max_trips` fits a
/// `u32`, and `max_body` and `max_children` are at most
/// [`MAX_GEN_WIDTH`].
pub fn parse_gen_config(doc: &Json) -> Result<GenConfig, String> {
    let mut gen = GenConfig::new();
    let width = 0..=MAX_GEN_WIDTH as u64;
    let int = |key: &str, range| int_field(doc, "gen", key, range);
    let flag = |key: &str| -> Result<Option<bool>, String> {
        match doc.get(key) {
            None => Ok(None),
            Some(Json::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("gen: `{key}` is not a boolean")),
        }
    };
    if let Some(v) = int("max_top", 1..=u64::MAX)? {
        gen = gen.with_max_top(v);
    }
    if let Some(v) = int("max_depth", 1..=u64::MAX)? {
        gen = gen.with_max_depth(v);
    }
    if let Some(v) = int("max_children", width.clone())? {
        gen = gen.with_max_children(v);
    }
    if let Some(v) = int("max_body", width)? {
        gen = gen.with_max_body(v);
    }
    if let Some(v) = int_field(doc, "gen", "max_trips", 1..=u64::from(u32::MAX))? {
        gen = gen.with_max_trips(v);
    }
    if let Some(v) = int("max_loops", 0..=u64::MAX)? {
        gen = gen.with_max_loops(v);
    }
    if let Some(v) = flag("reg_bounds")? {
        gen = gen.with_reg_bounds(v);
    }
    if let Some(v) = flag("dbnz")? {
        gen = gen.with_dbnz(v);
    }
    if let Some(v) = flag("skips")? {
        gen = gen.with_skips(v);
    }
    Ok(gen)
}

// ---- SweepConfig --------------------------------------------------------

/// The canonical JSON encoding of a sweep configuration.
pub fn sweep_config_json(cfg: &zolc_bench::SweepConfig) -> Json {
    Json::Obj(vec![
        ("programs".into(), Json::u64(cfg.programs as u64)),
        ("base_seed".into(), Json::u64(cfg.base_seed)),
        ("gen".into(), gen_config_json(&cfg.gen)),
        (
            "points".into(),
            Json::Arr(
                cfg.points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(p.label.clone())),
                            ("config".into(), zolc_config_json(&p.config)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("executor".into(), Json::Str(cfg.executor.to_string())),
    ])
}

/// Decodes a sweep configuration (see [`sweep_config_json`]); absent
/// fields keep the [`zolc_bench::SweepConfig::new`] defaults.
///
/// # Errors
///
/// A message naming the missing or invalid field; `programs` is at most
/// [`MAX_SWEEP_PROGRAMS`], `base_seed + programs` must fit a `u64`, and
/// no seed's program may retire more than the sweep fuel budget
/// ([`zolc_bench::SweepConfig::over_fuel`]).
pub fn parse_sweep_config(doc: &Json) -> Result<zolc_bench::SweepConfig, String> {
    let mut cfg = zolc_bench::SweepConfig::new();
    if let Some(v) = int_field(doc, "sweep", "programs", 0..=MAX_SWEEP_PROGRAMS as u64)? {
        cfg = cfg.with_programs(v);
    }
    if let Some(v) = doc.get("base_seed") {
        cfg = cfg.with_base_seed(v.as_u64().ok_or("sweep: `base_seed` is not an integer")?);
    }
    if let Some(v) = doc.get("gen") {
        cfg = cfg.with_gen(parse_gen_config(v)?);
    }
    if let Some(v) = doc.get("points") {
        let arr = v.as_arr().ok_or("sweep: `points` is not an array")?;
        let mut points = Vec::with_capacity(arr.len());
        for p in arr {
            let label = p
                .get("label")
                .and_then(Json::as_str)
                .ok_or("sweep: point missing `label`")?;
            let config =
                parse_zolc_config(p.get("config").ok_or("sweep: point missing `config`")?)?;
            points.push(SweepPoint::new(label, config));
        }
        cfg = cfg.with_points(points);
    }
    if let Some(v) = doc.get("executor") {
        let name = v.as_str().ok_or("sweep: `executor` is not a string")?;
        cfg = cfg.with_executor(name.parse().map_err(|e| format!("sweep: executor {e}"))?);
    }
    if cfg.seeds().is_none() {
        return Err(format!(
            "sweep: `base_seed` {} + `programs` {} does not fit a u64",
            cfg.base_seed, cfg.programs
        ));
    }
    if let Some((seed, bound)) = cfg.over_fuel() {
        return Err(format!(
            "sweep: seed {seed}'s program may retire {bound} instructions, over the fuel \
             budget of {}",
            zolc_bench::MAX_FUEL
        ));
    }
    Ok(cfg)
}

// ---- retarget jobs ------------------------------------------------------

/// Builds a retarget request: the program travels as its encoded text
/// words plus raw data bytes — exactly what an external toolchain that
/// only has the binary can produce.
pub fn retarget_request(program: &Program, config: &ZolcConfig) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("retarget".into())),
        (
            "binary".into(),
            Json::Arr(
                program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
        ("config".into(), zolc_config_json(config)),
    ])
}

/// Builds a sweep request.
pub fn sweep_request(cfg: &zolc_bench::SweepConfig) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("sweep".into())),
        ("config".into(), sweep_config_json(cfg)),
    ])
}

/// Decodes a request's `binary`/`data` program fields; `op` names the
/// operation in error messages.
fn parse_program_fields(doc: &Json, op: &str) -> Result<Program, String> {
    let words = doc
        .get("binary")
        .and_then(Json::as_arr)
        .ok_or(format!("{op}: missing `binary` word array"))?;
    let mut text = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        let word = w
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(format!("{op}: binary[{i}] is not a 32-bit word"))?;
        text.push(
            zolc_isa::decode(word).map_err(|e| format!("{op}: binary[{i}] ({word:#010x}): {e}"))?,
        );
    }
    let mut data = Vec::new();
    if let Some(bytes) = doc.get("data") {
        let bytes = bytes
            .as_arr()
            .ok_or(format!("{op}: `data` is not an array"))?;
        data.reserve(bytes.len());
        for (i, b) in bytes.iter().enumerate() {
            data.push(
                b.as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .ok_or(format!("{op}: data[{i}] is not a byte"))?,
            );
        }
    }
    Ok(Program::from_parts(text, data))
}

/// Decodes a retarget request's program (see [`retarget_request`]).
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_retarget_program(doc: &Json) -> Result<Program, String> {
    parse_program_fields(doc, "retarget")
}

// ---- lint jobs ----------------------------------------------------------

/// Builds a lint request. Like [`retarget_request`], the program
/// travels as encoded text words plus raw data bytes. With a `config`,
/// the daemon retargets the binary on that configuration first and
/// lints the *excised* program against its synthesized table image (so
/// the hardware back edges are part of the analyzed graph); without
/// one, the binary is linted as-is.
pub fn lint_request(program: &Program, config: Option<&ZolcConfig>) -> Json {
    let mut fields = vec![
        ("op".into(), Json::Str("lint".into())),
        (
            "binary".into(),
            Json::Arr(
                program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
    ];
    if let Some(config) = config {
        fields.push(("config".into(), zolc_config_json(config)));
    }
    Json::Obj(fields)
}

/// Decodes a lint request's program (see [`lint_request`]).
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_lint_program(doc: &Json) -> Result<Program, String> {
    parse_program_fields(doc, "lint")
}

/// The canonical JSON encoding of a lint report: `clean`, the total
/// finding count, and one `{kind, addr, message}` object per finding in
/// report order (sorted by address, then kind).
pub fn lint_report_json(report: &LintReport) -> Json {
    Json::Obj(vec![
        ("clean".into(), Json::Bool(report.is_clean())),
        ("findings".into(), Json::u64(report.lints.len() as u64)),
        (
            "lints".into(),
            Json::Arr(
                report
                    .lints
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("kind".into(), Json::Str(l.kind.label().into())),
                            ("addr".into(), Json::u64(u64::from(l.addr))),
                            ("message".into(), Json::Str(l.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The canonical JSON encoding of a retargeting result: the excised,
/// relocated, self-initializing program (as encoded text words plus
/// data bytes) and the retargeting byproducts a caller needs to reason
/// about it. The synthesized table image itself is not carried — the
/// prepended initialization sequence already writes it.
pub fn retargeted_json(r: &Retargeted) -> Json {
    Json::Obj(vec![
        (
            "text".into(),
            Json::Arr(
                r.program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                r.program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
        ("excised".into(), Json::u64(r.excised as u64)),
        (
            "init_instructions".into(),
            Json::u64(r.init_instructions as u64),
        ),
        ("hw_loops".into(), Json::u64(r.counted.len() as u64)),
        (
            "unhandled".into(),
            Json::Arr(r.unhandled.iter().map(|&id| Json::u64(id as u64)).collect()),
        ),
        (
            "counter_regs".into(),
            Json::Arr(
                r.counter_regs
                    .iter()
                    .map(|rg| Json::u64(rg.index() as u64))
                    .collect(),
            ),
        ),
        ("scratch".into(), Json::u64(r.scratch.index() as u64)),
        (
            "notes".into(),
            Json::Arr(r.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// Reconstructs the runnable program from a decoded retarget *result*
/// (the `"result"` object of a successful response) — what a client
/// does to execute a daemon-retargeted binary locally.
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_retargeted_program(doc: &Json) -> Result<Arc<Program>, String> {
    let words = doc
        .get("text")
        .and_then(Json::as_arr)
        .ok_or("result: missing `text` word array")?;
    let mut text = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        let word = w
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(format!("result: text[{i}] is not a 32-bit word"))?;
        text.push(zolc_isa::decode(word).map_err(|e| format!("result: text[{i}]: {e}"))?);
    }
    let mut data = Vec::new();
    if let Some(bytes) = doc.get("data").and_then(Json::as_arr) {
        for (i, b) in bytes.iter().enumerate() {
            data.push(
                b.as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .ok_or(format!("result: data[{i}] is not a byte"))?,
            );
        }
    }
    Ok(Arc::new(Program::from_parts(text, data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_bench::json;
    use zolc_sim::ExecutorKind;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn zolc_config_roundtrips_every_variant() {
        for config in [
            ZolcConfig::micro(),
            ZolcConfig::lite(),
            ZolcConfig::full(),
            ZolcConfig::custom(2, 8, 1, 0).unwrap(),
        ] {
            let doc = zolc_config_json(&config);
            let back = parse_zolc_config(&doc).unwrap();
            assert_eq!(back, config, "{doc:?}");
        }
        assert!(parse_zolc_config(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn gen_and_sweep_configs_roundtrip_canonically() {
        let cfg = zolc_bench::SweepConfig::new()
            .with_programs(7)
            .with_base_seed(42)
            .with_gen(GenConfig::new().with_max_trips(24).with_dbnz(false))
            .with_points(vec![SweepPoint::new("lite", ZolcConfig::lite())])
            .with_executor(ExecutorKind::Functional);
        let doc = sweep_config_json(&cfg);
        let back = parse_sweep_config(&doc).unwrap();
        // canonical re-encoding is the identity — this is what cache
        // keys rely on
        assert_eq!(sweep_config_json(&back).render(), doc.render());
        assert_eq!(back.programs, 7);
        assert_eq!(back.gen.max_trips, 24);
        assert!(!back.gen.dbnz);
        assert_eq!(back.executor, ExecutorKind::Functional);
    }

    #[test]
    fn out_of_range_knobs_are_refused_naming_the_field() {
        let w = MAX_GEN_WIDTH as u64;
        for (key, v) in [
            ("max_top", 0),
            ("max_depth", 0),
            ("max_trips", 0),
            ("max_trips", 1 << 32),
            ("max_children", w + 1),
            ("max_body", w + 1),
        ] {
            let err = parse_gen_config(&Json::Obj(vec![(key.into(), Json::u64(v))])).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        assert!(parse_gen_config(&Json::Obj(vec![("max_body".into(), Json::u64(w))])).is_ok());
        let programs = |n: usize| Json::Obj(vec![("programs".into(), Json::u64(n as u64))]);
        assert!(parse_sweep_config(&programs(MAX_SWEEP_PROGRAMS)).is_ok());
        let err = parse_sweep_config(&programs(MAX_SWEEP_PROGRAMS + 1)).unwrap_err();
        assert!(err.contains("programs"), "{err}");
        let seeds = |base: u64| {
            Json::Obj(vec![
                ("programs".into(), Json::u64(2)),
                ("base_seed".into(), Json::u64(base)),
            ])
        };
        assert!(parse_sweep_config(&seeds(u64::MAX - 2)).is_ok());
        let err = parse_sweep_config(&seeds(u64::MAX)).unwrap_err();
        assert!(err.contains("base_seed"), "{err}");
        // knobs whose programs could exhaust the fuel budget
        let trips = |max_trips: u64| {
            Json::Obj(vec![
                ("programs".into(), Json::u64(20)),
                (
                    "gen".into(),
                    Json::Obj(vec![("max_trips".into(), Json::u64(max_trips))]),
                ),
            ])
        };
        assert!(parse_sweep_config(&trips(24)).is_ok());
        let err = parse_sweep_config(&trips(1000)).unwrap_err();
        assert!(err.contains("fuel budget"), "{err}");
    }

    #[test]
    fn every_executor_tier_has_a_wire_name_that_roundtrips() {
        for kind in ExecutorKind::ALL {
            let cfg = zolc_bench::SweepConfig::new().with_executor(kind);
            let back = parse_sweep_config(&sweep_config_json(&cfg)).unwrap();
            assert_eq!(back.executor, kind);
        }
        for name in ["superscalar", "compiled"] {
            let doc = Json::Obj(vec![("executor".into(), Json::Str(name.into()))]);
            let err = parse_sweep_config(&doc).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn retarget_program_roundtrips_through_the_wire_form() {
        let program = zolc_isa::assemble(
            "
            .data
            buf: .word 1, 2, 3
            .text
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        let req = retarget_request(&program, &ZolcConfig::lite());
        let doc = json::parse(&req.render()).unwrap();
        let back = parse_retarget_program(&doc).unwrap();
        assert_eq!(back.text(), program.text());
        assert_eq!(back.data(), program.data());
        let config = parse_zolc_config(doc.get("config").unwrap()).unwrap();
        assert_eq!(config, ZolcConfig::lite());
    }

    #[test]
    fn retargeted_results_reconstruct_the_program() {
        let program = zolc_isa::assemble(
            "
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        let r = zolc_cfg::retarget(&program, &ZolcConfig::lite()).unwrap();
        let doc = json::parse(&retargeted_json(&r).render()).unwrap();
        let back = parse_retargeted_program(&doc).unwrap();
        assert_eq!(back.text(), r.program.text());
        assert_eq!(back.data(), r.program.data());
        assert_eq!(doc.get("hw_loops").unwrap().as_u64(), Some(1));
    }
}
