//! The journal's wire format: one line of text per frame, written and
//! read in a single pass with no intermediate tree.
//!
//! ```text
//! frame   = version '|' kind '|' seq '|' len '|' sum '|' payload
//! version = hex            the format version, the first field forever
//! kind    = 'U' | 'M' | 'S' | 'C' | 'F'     upsert, meta, schedule,
//!                                           checkpoint, flight
//! seq     = hex            the frame's position in its store's history,
//!                          strictly increasing along a journal
//! len     = hex            byte length of the payload
//! sum     = 16 hex digits  FNV-1a/64 over everything before `sum`
//!                          (version, kind, seq, len, their separators)
//!                          and then the payload
//! ```
//!
//! Inside a payload an integer is a run of lowercase hex digits closed
//! by `,`; an `f64` is the 16 hex digits of its bit pattern (exact for
//! every value, −0.0 and subnormals included, and cheaper to read than
//! decimal); a string is its byte length and then the bytes, unescaped;
//! a sequence is its element count and then the elements; an enum is one
//! tag character and then the variant's fields; `Option` is `-` or `+`
//! and the value. Fields have no names: a struct's fields go in the
//! order its `wire_struct!` line below lists them, and that order *is*
//! the format.
//!
//! The line is text because the journal is a `Vec<String>`: every byte a
//! writer emits is ASCII except string contents, which are copied
//! verbatim, so a frame is valid UTF-8 by construction and a reader can
//! slice it by byte offsets it has checked.
//!
//! **Version policy.** Any change a version-`N` reader would misread —
//! a field added, removed, reordered or re-typed, a tag re-used, the
//! header or the checksum changed — bumps [`VERSION`]. A reader looks at
//! the version before anything else and reports a frame of another
//! version as [`FrameFault::UnknownVersion`] without interpreting the
//! rest: journals live in process memory only, so there is never an
//! older frame to migrate and a newer one can only be damage.

use crate::flight::{FlightRecord, FlightState, TenantVerdict, TenantVerdictRecord};
use crate::hash::{fnv1a64_extend, FNV_OFFSET};
use crate::stages::{NextDue, WakeSchedule};
use crate::state::{RecoId, RecoState, RecoSubState, RetryPhase, TrackedReco, Transition};
use autoindex::{RecoAction, RecoSource, Recommendation};
use sqlmini::clock::Timestamp;
use sqlmini::query::QueryId;
use sqlmini::schema::{ColumnId, IndexDef, IndexId, IndexOrigin, TableId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The format version this build writes and reads.
pub(super) const VERSION: u32 = 1;

/// One journal record. Appends borrow the state they describe; decoded
/// entries own it.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
#[allow(clippy::large_enum_variant)] // one short-lived value per frame; a Box would cost each an allocation
pub(super) enum JournalEntry<'a> {
    Upsert(Cow<'a, TrackedReco>),
    /// Store metadata: the id-allocation base. Journaled once at store
    /// creation so a recovered shard keeps its fleet-wide disjoint id
    /// block even when the journal holds no (or few) recommendations.
    Meta {
        id_base: u64,
    },
    /// The wake schedule computed at the end of a tick. Journaled only
    /// when it changes, so a recovered store hands the fleet driver the
    /// exact due-time index the crashed process was operating under.
    Schedule {
        database: Cow<'a, str>,
        schedule: WakeSchedule,
    },
    /// A full snapshot of canonical store state, written by compaction.
    /// Recovery restores from the newest intact checkpoint and replays
    /// only the tail after it.
    Checkpoint(Box<CheckpointState>),
    /// A policy-flight state transition (§7): started, per-tenant
    /// verdicts as they land, and the terminal ship/abort decision.
    /// Journaled on every change so a crash mid-flight recovers the
    /// completed verdicts and resumes to the same region decision.
    Flight(Cow<'a, FlightRecord>),
}

/// Everything a checkpoint must carry to make the prefix before it
/// disposable: the tracked recommendations, the wake schedules, the
/// id-allocation state, and the cumulative recovery counters (which
/// must survive full process restarts, not just in-memory crashes).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(super) struct CheckpointState {
    pub(super) recos: Vec<TrackedReco>,
    pub(super) schedules: BTreeMap<String, WakeSchedule>,
    pub(super) flights: BTreeMap<String, FlightRecord>,
    pub(super) id_base: u64,
    pub(super) next_id: u64,
    pub(super) writes_total: u64,
    pub(super) recoveries: u64,
    pub(super) truncated_total: u64,
    pub(super) reparked_total: u64,
}

/// A journal frame recovery read and did not replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Index of the frame in the journal handed to recovery.
    pub frame: usize,
    pub fault: FrameFault,
}

/// Why a frame was not replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// The header does not parse, or the payload is not the length the
    /// header promises: a write that stopped part-way.
    Torn,
    /// Header and length are whole but the checksum disagrees: bit-rot.
    Checksum,
    /// Written in a format this build does not know. Nothing after the
    /// version field was interpreted.
    UnknownVersion(u32),
    /// The checksum holds but the payload is not a record of the
    /// header's kind: byte offset into the payload, and what the reader
    /// needed there.
    Decode { at: usize, expected: String },
    /// An intact frame whose sequence number does not follow the frames
    /// replayed before it: a duplicated or reordered write.
    OutOfOrder { seq: u64, after: u64 },
}

/// Where in a payload decoding stopped, and what it needed there.
struct Expected {
    at: usize,
    what: &'static str,
}

type Decoded<T> = Result<T, Expected>;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append the low `digits` hex digits of `v`, lowercase.
fn put_digits(out: &mut String, v: u64, digits: u32) {
    for shift in (0..digits).rev() {
        out.push(HEX[(v >> (shift * 4) & 15) as usize] as char);
    }
}

/// Append `v` as the shortest run of hex digits.
fn put_hex(out: &mut String, v: u64) {
    put_digits(out, v, (16 - v.leading_zeros() / 4).max(1));
}

/// Append `v` as exactly 16 hex digits.
fn put_hex16(out: &mut String, v: u64) {
    put_digits(out, v, 16);
}

fn hex_value(b: u8) -> Option<u64> {
    match b {
        b'0'..=b'9' => Some((b - b'0') as u64),
        b'a'..=b'f' => Some((b - b'a' + 10) as u64),
        _ => None,
    }
}

/// A cursor over text being decoded. Every access is bounds-checked: no
/// input can make it panic.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, what: &'static str) -> Decoded<T> {
        Err(Expected { at: self.at, what })
    }

    fn byte(&mut self, what: &'static str) -> Decoded<u8> {
        match self.text.as_bytes().get(self.at) {
            Some(&b) => {
                self.at += 1;
                Ok(b)
            }
            None => self.fail(what),
        }
    }

    fn bar(&mut self) -> Decoded<()> {
        match self.byte("'|'")? {
            b'|' => Ok(()),
            _ => self.fail("'|'"),
        }
    }

    /// A run of one to sixteen hex digits closed by `stop`.
    fn hex(&mut self, stop: u8) -> Decoded<u64> {
        let mut v = 0u64;
        for digits in 0..=16 {
            let Some(&b) = self.text.as_bytes().get(self.at) else {
                break;
            };
            if b == stop && digits > 0 {
                self.at += 1;
                return Ok(v);
            }
            match hex_value(b) {
                Some(d) if digits < 16 => v = v << 4 | d,
                _ => break,
            }
            self.at += 1;
        }
        self.fail("a hex integer")
    }

    fn hex16(&mut self) -> Decoded<u64> {
        let mut v = 0u64;
        for _ in 0..16 {
            match self
                .text
                .as_bytes()
                .get(self.at)
                .copied()
                .and_then(hex_value)
            {
                Some(d) => v = v << 4 | d,
                None => return self.fail("16 hex digits"),
            }
            self.at += 1;
        }
        Ok(v)
    }

    /// The next `len` bytes, which must end on a character boundary.
    fn take(&mut self, len: usize) -> Decoded<&'a str> {
        let end = self.at.checked_add(len);
        match end.and_then(|end| self.text.get(self.at..end)) {
            Some(s) => {
                self.at += len;
                Ok(s)
            }
            None => self.fail("that many bytes"),
        }
    }

    /// An element count. Every element takes at least one byte, so a
    /// count above what is left of the input is damage: refused before
    /// anything is allocated for it.
    fn count(&mut self) -> Decoded<usize> {
        let n = self.hex(b',')?;
        match usize::try_from(n) {
            Ok(n) if n <= self.rest().len() => Ok(n),
            _ => self.fail("a count the input can hold"),
        }
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.at..).unwrap_or("")
    }
}

/// A type with a place in the journal format: `get` reads exactly what
/// `put` wrote.
trait Wire: Sized {
    fn put(&self, out: &mut String);
    fn get(r: &mut Reader<'_>) -> Decoded<Self>;
}

impl Wire for u64 {
    fn put(&self, out: &mut String) {
        put_hex(out, *self);
        out.push(',');
    }
    fn get(r: &mut Reader<'_>) -> Decoded<u64> {
        r.hex(b',')
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut String) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Decoded<u32> {
        let v = u64::get(r)?;
        u32::try_from(v).or_else(|_| r.fail("an integer below 2^32"))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut String) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Decoded<usize> {
        let v = u64::get(r)?;
        usize::try_from(v).or_else(|_| r.fail("an integer that fits usize"))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut String) {
        put_hex16(out, self.to_bits());
    }
    fn get(r: &mut Reader<'_>) -> Decoded<f64> {
        r.hex16().map(f64::from_bits)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn get(r: &mut Reader<'_>) -> Decoded<bool> {
        match r.byte("'0' or '1'")? {
            b'0' => Ok(false),
            b'1' => Ok(true),
            _ => r.fail("'0' or '1'"),
        }
    }
}

fn put_str(out: &mut String, s: &str) {
    s.len().put(out);
    out.push_str(s);
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        put_str(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Decoded<String> {
        let len = usize::get(r)?;
        r.take(len).map(str::to_owned)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            None => out.push('-'),
            Some(v) => {
                out.push('+');
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<Option<T>> {
        match r.byte("'-' or '+'")? {
            b'-' => Ok(None),
            b'+' => T::get(r).map(Some),
            _ => r.fail("'-' or '+'"),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<Vec<T>> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut String) {
        self.len().put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<BTreeMap<K, V>> {
        let n = r.count()?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((K::get(r)?, V::get(r)?));
        }
        Ok(pairs.into_iter().collect())
    }
}

/// `Wire` for a one-field tuple struct: the field, nothing else.
macro_rules! wire_newtype {
    ($($name:ident($inner:ty)),+ $(,)?) => {$(
        impl Wire for $name {
            fn put(&self, out: &mut String) {
                self.0.put(out);
            }
            fn get(r: &mut Reader<'_>) -> Decoded<$name> {
                <$inner>::get(r).map($name)
            }
        }
    )+};
}

wire_newtype!(
    TableId(u32),
    ColumnId(u32),
    IndexId(u32),
    QueryId(u64),
    RecoId(u64),
    Timestamp(u64),
);

/// `Wire` for an enum without fields: one tag character a variant.
macro_rules! wire_tags {
    ($name:ident, $what:literal, { $($tag:literal => $variant:path),+ $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut String) {
                out.push(match self {
                    $($variant => $tag as char,)+
                });
            }
            fn get(r: &mut Reader<'_>) -> Decoded<$name> {
                match r.byte($what)? {
                    $($tag => Ok($variant),)+
                    _ => r.fail($what),
                }
            }
        }
    };
}

wire_tags!(RecoState, "a recommendation state tag", {
    b'A' => RecoState::Active,
    b'X' => RecoState::Expired,
    b'I' => RecoState::Implementing,
    b'V' => RecoState::Validating,
    b'S' => RecoState::Success,
    b'R' => RecoState::Reverting,
    b'D' => RecoState::Reverted,
    b'T' => RecoState::Retry,
    b'E' => RecoState::Error,
});

wire_tags!(RetryPhase, "a retry phase tag", {
    b'i' => RetryPhase::Implement,
    b'v' => RetryPhase::Validate,
    b'r' => RetryPhase::Revert,
});

wire_tags!(RecoSource, "a recommendation source tag", {
    b'm' => RecoSource::MissingIndex,
    b'd' => RecoSource::Dta,
    b'x' => RecoSource::DropAnalysis,
});

wire_tags!(IndexOrigin, "an index origin tag", {
    b'u' => IndexOrigin::User,
    b'a' => IndexOrigin::Auto,
    b'c' => IndexOrigin::Constraint,
});

wire_tags!(TenantVerdict, "a tenant verdict tag", {
    b'i' => TenantVerdict::Improved,
    b'r' => TenantVerdict::Regressed,
    b'w' => TenantVerdict::Wash,
    b'd' => TenantVerdict::Discarded,
});

wire_tags!(FlightState, "a flight state tag", {
    b'r' => FlightState::Running,
    b's' => FlightState::Shipped,
    b'a' => FlightState::Aborted,
});

/// `Wire` for a struct: its fields in the order listed, which is their
/// order on the wire — one list, so `put` and `get` cannot disagree.
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl Wire for $name {
            fn put(&self, out: &mut String) {
                $(self.$field.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Decoded<$name> {
                Ok($name {
                    $($field: Wire::get(r)?,)+
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// The journaled types
// ---------------------------------------------------------------------
wire_struct!(Transition { at, from, to, note });
wire_struct!(IndexDef {
    name,
    table,
    key_columns,
    included_columns,
    origin,
    hinted,
});
wire_struct!(Recommendation {
    action,
    source,
    estimated_benefit,
    estimated_improvement,
    estimated_size_bytes,
    impacted_queries,
    generated_at,
});
wire_struct!(TrackedReco {
    id,
    database,
    recommendation,
    state,
    substate,
    history,
    created_at,
    implemented_at,
    implemented_index,
    dropped_def,
});
wire_struct!(WakeSchedule {
    recommend,
    retry,
    implement,
    validate,
    expire,
    health,
});
wire_struct!(TenantVerdictRecord {
    verdict,
    control_cost,
    candidate_cost,
    p_candidate_greater,
    divergence,
    replayed,
    replay_cpu_us,
});
wire_struct!(FlightRecord {
    id,
    seed,
    state,
    cohort,
    verdicts,
});
wire_struct!(CheckpointState {
    recos,
    schedules,
    flights,
    id_base,
    next_id,
    writes_total,
    recoveries,
    truncated_total,
    reparked_total,
});

impl Wire for RecoSubState {
    fn put(&self, out: &mut String) {
        match self {
            RecoSubState::None => out.push('-'),
            RecoSubState::RetryOf { phase, attempts } => {
                out.push('r');
                phase.put(out);
                attempts.put(out);
            }
            RecoSubState::ErrorDetail(detail) => {
                out.push('e');
                detail.put(out);
            }
            RecoSubState::ValidationDetail(detail) => {
                out.push('v');
                detail.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<RecoSubState> {
        match r.byte("a sub-state tag")? {
            b'-' => Ok(RecoSubState::None),
            b'r' => Ok(RecoSubState::RetryOf {
                phase: Wire::get(r)?,
                attempts: Wire::get(r)?,
            }),
            b'e' => Ok(RecoSubState::ErrorDetail(Wire::get(r)?)),
            b'v' => Ok(RecoSubState::ValidationDetail(Wire::get(r)?)),
            _ => r.fail("a sub-state tag"),
        }
    }
}

impl Wire for RecoAction {
    fn put(&self, out: &mut String) {
        match self {
            RecoAction::CreateIndex { def } => {
                out.push('c');
                def.put(out);
            }
            RecoAction::DropIndex { index, name } => {
                out.push('d');
                index.put(out);
                name.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<RecoAction> {
        match r.byte("an action tag")? {
            b'c' => Ok(RecoAction::CreateIndex { def: Wire::get(r)? }),
            b'd' => Ok(RecoAction::DropIndex {
                index: Wire::get(r)?,
                name: Wire::get(r)?,
            }),
            _ => r.fail("an action tag"),
        }
    }
}

impl Wire for NextDue {
    fn put(&self, out: &mut String) {
        match self {
            NextDue::Idle => out.push('i'),
            NextDue::At(t) => {
                out.push('a');
                t.put(out);
            }
            NextDue::NextTick => out.push('n'),
        }
    }
    fn get(r: &mut Reader<'_>) -> Decoded<NextDue> {
        match r.byte("a next-due tag")? {
            b'i' => Ok(NextDue::Idle),
            b'a' => Ok(NextDue::At(Wire::get(r)?)),
            b'n' => Ok(NextDue::NextTick),
            _ => r.fail("a next-due tag"),
        }
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

const CHECKPOINT: u8 = b'C';

impl JournalEntry<'_> {
    fn kind(&self) -> u8 {
        match self {
            JournalEntry::Upsert(_) => b'U',
            JournalEntry::Meta { .. } => b'M',
            JournalEntry::Schedule { .. } => b'S',
            JournalEntry::Checkpoint(_) => CHECKPOINT,
            JournalEntry::Flight(_) => b'F',
        }
    }

    fn put_payload(&self, out: &mut String) {
        match self {
            JournalEntry::Upsert(reco) => reco.put(out),
            JournalEntry::Meta { id_base } => id_base.put(out),
            JournalEntry::Schedule { database, schedule } => {
                put_str(out, database);
                schedule.put(out);
            }
            JournalEntry::Checkpoint(state) => state.put(out),
            JournalEntry::Flight(rec) => rec.put(out),
        }
    }

    fn get_payload(kind: u8, r: &mut Reader<'_>) -> Decoded<JournalEntry<'static>> {
        Ok(match kind {
            b'U' => JournalEntry::Upsert(Cow::Owned(Wire::get(r)?)),
            b'M' => JournalEntry::Meta {
                id_base: Wire::get(r)?,
            },
            b'S' => JournalEntry::Schedule {
                database: Cow::Owned(Wire::get(r)?),
                schedule: Wire::get(r)?,
            },
            CHECKPOINT => JournalEntry::Checkpoint(Box::new(Wire::get(r)?)),
            b'F' => JournalEntry::Flight(Cow::Owned(Wire::get(r)?)),
            _ => return r.fail("a payload of a known kind"),
        })
    }
}

/// The framed line for `entry`, the `seq`-th frame of its store.
pub(super) fn encode_frame(seq: u64, entry: &JournalEntry<'_>) -> String {
    let mut payload = String::with_capacity(256);
    entry.put_payload(&mut payload);
    // Header: two one-digit fields, two integers, the sum, five bars.
    let mut line = String::with_capacity(payload.len() + 48);
    put_hex(&mut line, VERSION as u64);
    line.push('|');
    line.push(entry.kind() as char);
    line.push('|');
    put_hex(&mut line, seq);
    line.push('|');
    put_hex(&mut line, payload.len() as u64);
    line.push('|');
    let sum = fnv1a64_extend(
        fnv1a64_extend(FNV_OFFSET, line.as_bytes()),
        payload.as_bytes(),
    );
    put_hex16(&mut line, sum);
    line.push('|');
    line.push_str(&payload);
    line
}

/// A header that does not parse is a write that stopped part-way.
fn torn(_: Expected) -> FrameFault {
    FrameFault::Torn
}

/// The fields every version-[`VERSION`] frame starts with, and the
/// reader positioned after them (before `len`).
fn frame_head<'a>(line: &'a str) -> Result<(u8, u64, Reader<'a>), FrameFault> {
    let mut r = Reader { text: line, at: 0 };
    let version = r.hex(b'|').map_err(torn)?;
    if version != VERSION as u64 {
        return Err(FrameFault::UnknownVersion(
            u32::try_from(version).unwrap_or(u32::MAX),
        ));
    }
    let kind = r.byte("a kind tag").map_err(torn)?;
    r.bar().map_err(torn)?;
    let seq = r.hex(b'|').map_err(torn)?;
    Ok((kind, seq, r))
}

/// Is this a checkpoint frame? Reads the header's kind tag and nothing
/// else (no checksum work), so the backward recovery scan touches only
/// checkpoint candidates and a damaged frame that *was* a checkpoint is
/// still attributed as one.
pub(super) fn is_checkpoint(line: &str) -> bool {
    matches!(frame_head(line), Ok((CHECKPOINT, _, _)))
}

/// The sequence number in a frame's header, unverified (no checksum
/// work): `None` when the header does not parse.
pub(super) fn peek_seq(line: &str) -> Option<u64> {
    frame_head(line).ok().map(|(_, seq, _)| seq)
}

/// Validate one frame and decode its record: the frame's sequence
/// number and the entry, or why it cannot be replayed.
pub(super) fn decode_frame(line: &str) -> Result<(u64, JournalEntry<'static>), FrameFault> {
    let (kind, seq, mut r) = frame_head(line)?;
    let len = r.hex(b'|').map_err(torn)?;
    let head = line.get(..r.at).unwrap_or("");
    let sum = r.hex16().map_err(torn)?;
    r.bar().map_err(torn)?;
    let payload = r.rest();
    if payload.len() as u64 != len {
        return Err(FrameFault::Torn);
    }
    let actual = fnv1a64_extend(
        fnv1a64_extend(FNV_OFFSET, head.as_bytes()),
        payload.as_bytes(),
    );
    if actual != sum {
        return Err(FrameFault::Checksum);
    }
    let mut body = Reader {
        text: payload,
        at: 0,
    };
    let entry = JournalEntry::get_payload(kind, &mut body).and_then(|entry| {
        if body.at == payload.len() {
            Ok(entry)
        } else {
            body.fail("the end of the payload")
        }
    });
    match entry {
        Ok(entry) => Ok((seq, entry)),
        Err(Expected { at, what }) => Err(FrameFault::Decode {
            at,
            expected: what.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Empty, printable ASCII (the format's own `|`, `,`, `+`, `-` and
    /// digits included), and multi-byte text.
    fn text() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            "[ -~]{1,24}",
            "[a-f0-9|,+é日本語😀]{1,12}",
        ]
    }

    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE),
            Just(f64::MIN_POSITIVE / 8.0), // subnormal
            Just(-5e-324),                 // the smallest subnormal
            Just(f64::MAX),                // what flight divergences clamp to
            Just(f64::MIN),
            Just(f64::EPSILON),
            any::<f64>(),
            0.0..1.0f64,
        ]
    }

    fn small_or_huge() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), 0..4096u64, any::<u64>()]
    }

    fn timestamp() -> impl Strategy<Value = Timestamp> {
        small_or_huge().prop_map(Timestamp)
    }

    fn reco_state() -> impl Strategy<Value = RecoState> {
        const ALL: [RecoState; 9] = [
            RecoState::Active,
            RecoState::Implementing,
            RecoState::Validating,
            RecoState::Retry,
            RecoState::Success,
            RecoState::Reverting,
            RecoState::Reverted,
            RecoState::Expired,
            RecoState::Error,
        ];
        (0..ALL.len()).prop_map(|i| ALL[i])
    }

    fn retry_phase() -> impl Strategy<Value = RetryPhase> {
        prop_oneof![
            Just(RetryPhase::Implement),
            Just(RetryPhase::Validate),
            Just(RetryPhase::Revert),
        ]
    }

    fn substate() -> impl Strategy<Value = RecoSubState> {
        prop_oneof![
            Just(RecoSubState::None),
            (retry_phase(), any::<u32>())
                .prop_map(|(phase, attempts)| RecoSubState::RetryOf { phase, attempts }),
            text().prop_map(RecoSubState::ErrorDetail),
            text().prop_map(RecoSubState::ValidationDetail),
        ]
    }

    fn columns() -> impl Strategy<Value = Vec<ColumnId>> {
        collection::vec(any::<u32>().prop_map(ColumnId), 0..5)
    }

    fn index_def() -> impl Strategy<Value = IndexDef> {
        let origin = prop_oneof![
            Just(IndexOrigin::User),
            Just(IndexOrigin::Auto),
            Just(IndexOrigin::Constraint),
        ];
        (
            text(),
            any::<u32>(),
            columns(),
            columns(),
            origin,
            any::<bool>(),
        )
            .prop_map(
                |(name, table, key_columns, included_columns, origin, hinted)| IndexDef {
                    name,
                    table: TableId(table),
                    key_columns,
                    included_columns,
                    origin,
                    hinted,
                },
            )
    }

    fn recommendation() -> impl Strategy<Value = Recommendation> {
        let action = prop_oneof![
            index_def().prop_map(|def| RecoAction::CreateIndex { def }),
            (any::<u32>(), text()).prop_map(|(index, name)| RecoAction::DropIndex {
                index: IndexId(index),
                name,
            }),
        ];
        let source = prop_oneof![
            Just(RecoSource::MissingIndex),
            Just(RecoSource::Dta),
            Just(RecoSource::DropAnalysis),
        ];
        let queries = collection::vec(small_or_huge().prop_map(QueryId), 0..6);
        (
            action,
            source,
            (float(), float()),
            small_or_huge(),
            queries,
            timestamp(),
        )
            .prop_map(
                |(action, source, (benefit, improvement), size, queries, at)| Recommendation {
                    action,
                    source,
                    estimated_benefit: benefit,
                    estimated_improvement: improvement,
                    estimated_size_bytes: size,
                    impacted_queries: queries,
                    generated_at: at,
                },
            )
    }

    fn tracked() -> impl Strategy<Value = TrackedReco> {
        let transition = (timestamp(), reco_state(), reco_state(), text())
            .prop_map(|(at, from, to, note)| Transition { at, from, to, note });
        let implemented = (
            prop_oneof![Just(None), timestamp().prop_map(Some)],
            prop_oneof![Just(None), any::<u32>().prop_map(|i| Some(IndexId(i)))],
            prop_oneof![Just(None), index_def().prop_map(Some)],
        );
        (
            (small_or_huge(), text(), timestamp()),
            recommendation(),
            reco_state(),
            substate(),
            collection::vec(transition, 0..5),
            implemented,
        )
            .prop_map(
                |((id, database, created_at), recommendation, state, substate, history, opt)| {
                    TrackedReco {
                        id: RecoId(id),
                        database,
                        recommendation,
                        state,
                        substate,
                        history,
                        created_at,
                        implemented_at: opt.0,
                        implemented_index: opt.1,
                        dropped_def: opt.2,
                    }
                },
            )
    }

    fn schedule() -> impl Strategy<Value = WakeSchedule> {
        let due = || {
            prop_oneof![
                Just(NextDue::Idle),
                Just(NextDue::NextTick),
                timestamp().prop_map(NextDue::At),
            ]
        };
        (due(), due(), due(), due(), due(), due()).prop_map(
            |(recommend, retry, implement, validate, expire, health)| WakeSchedule {
                recommend,
                retry,
                implement,
                validate,
                expire,
                health,
            },
        )
    }

    fn flight() -> impl Strategy<Value = FlightRecord> {
        let verdict = prop_oneof![
            Just(TenantVerdict::Improved),
            Just(TenantVerdict::Regressed),
            Just(TenantVerdict::Wash),
            Just(TenantVerdict::Discarded),
        ];
        let record = (
            verdict,
            (float(), float(), float()),
            prop_oneof![Just(None), float().prop_map(Some)],
            small_or_huge(),
            small_or_huge(),
        )
            .prop_map(
                |(verdict, (control, candidate, divergence), p, replayed, cpu)| {
                    TenantVerdictRecord {
                        verdict,
                        control_cost: control,
                        candidate_cost: candidate,
                        p_candidate_greater: p,
                        divergence,
                        replayed,
                        replay_cpu_us: cpu,
                    }
                },
            );
        let state = prop_oneof![
            Just(FlightState::Running),
            Just(FlightState::Shipped),
            Just(FlightState::Aborted),
        ];
        (
            text(),
            any::<u64>(),
            state,
            collection::vec(any::<usize>(), 0..8),
            collection::vec((0..64usize, record), 0..8),
        )
            .prop_map(|(id, seed, state, cohort, verdicts)| FlightRecord {
                id,
                seed,
                state,
                cohort,
                verdicts: verdicts.into_iter().collect(),
            })
    }

    /// Checkpoints from empty to a few hundred recommendations.
    fn checkpoint() -> impl Strategy<Value = CheckpointState> {
        let size = prop_oneof![Just(0usize), 1..6usize, 200..300usize];
        (
            size,
            tracked(),
            collection::vec((text(), schedule()), 0..4),
            collection::vec(flight(), 0..3),
            collection::vec(small_or_huge(), 6),
        )
            .prop_map(|(n, reco, schedules, flights, c)| CheckpointState {
                recos: (0..n as u64)
                    .map(|i| TrackedReco {
                        id: RecoId(i),
                        ..reco.clone()
                    })
                    .collect(),
                schedules: schedules.into_iter().collect(),
                flights: flights.into_iter().map(|f| (f.id.clone(), f)).collect(),
                id_base: c[0],
                next_id: c[1],
                writes_total: c[2],
                recoveries: c[3],
                truncated_total: c[4],
                reparked_total: c[5],
            })
    }

    fn entry() -> impl Strategy<Value = JournalEntry<'static>> {
        prop_oneof![
            tracked().prop_map(|r| JournalEntry::Upsert(Cow::Owned(r))),
            small_or_huge().prop_map(|id_base| JournalEntry::Meta { id_base }),
            (text(), schedule()).prop_map(|(database, schedule)| JournalEntry::Schedule {
                database: Cow::Owned(database),
                schedule,
            }),
            checkpoint().prop_map(|c| JournalEntry::Checkpoint(Box::new(c))),
            flight().prop_map(|f| JournalEntry::Flight(Cow::Owned(f))),
        ]
    }

    /// `decode(encode(e)) == e` for every kind of entry, and encoding
    /// the decoded entry gives the same line (which `==` alone would not
    /// show for −0.0). Seeded from `CHAOS_SEED` so CI's chaos matrix
    /// draws different cases per seed.
    #[test]
    fn every_entry_round_trips() {
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        proptest::run_prop_test(
            &format!("every_entry_round_trips/{seed}"),
            &ProptestConfig::with_cases(512),
            (entry(), small_or_huge()),
            |(entry, seq)| {
                let line = encode_frame(seq, &entry);
                let (seq_back, back) = match decode_frame(&line) {
                    Ok(decoded) => decoded,
                    Err(fault) => return Err(TestCaseError::fail(format!("{fault:?} in {line}"))),
                };
                prop_assert_eq!(seq_back, seq);
                prop_assert_eq!(encode_frame(seq, &back), line);
                prop_assert_eq!(back, entry);
                Ok(())
            },
        );
    }

    #[test]
    fn floats_keep_every_bit() {
        for bits in [
            0u64,
            1 << 63,               // −0.0
            1,                     // smallest subnormal
            0x000F_FFFF_FFFF_FFFF, // largest subnormal
            f64::MAX.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NAN.to_bits() | 0xBEEF, // a NaN with a payload
        ] {
            let mut out = String::new();
            f64::from_bits(bits).put(&mut out);
            assert_eq!(out.len(), 16);
            let mut r = Reader { text: &out, at: 0 };
            assert_eq!(f64::get(&mut r).ok().map(f64::to_bits), Some(bits));
        }
    }

    #[test]
    fn each_way_a_frame_fails_has_its_own_fault() {
        let line = encode_frame(7, &JournalEntry::Meta { id_base: 0x2a });
        assert_eq!(line, format!("1|M|7|3|{}|2a,", &line[8..24]));
        let fault = |l: &str| decode_frame(l).err();

        assert_eq!(fault(&line[..line.len() - 1]), Some(FrameFault::Torn));
        assert_eq!(fault(&line[..5]), Some(FrameFault::Torn));
        assert_eq!(fault(""), Some(FrameFault::Torn));
        assert_eq!(
            fault(&line.replace("2a,", "2b,")),
            Some(FrameFault::Checksum)
        );
        // The header is under the checksum too: kind and sequence.
        assert_eq!(
            fault(&line.replacen("|M|", "|S|", 1)),
            Some(FrameFault::Checksum)
        );
        assert_eq!(
            fault(&line.replacen("|7|", "|8|", 1)),
            Some(FrameFault::Checksum)
        );
        // A newer version is named, whatever follows it.
        assert_eq!(
            fault(&format!("2{}", &line[1..])),
            Some(FrameFault::UnknownVersion(2))
        );
        assert_eq!(
            fault("2|anything at all"),
            Some(FrameFault::UnknownVersion(2))
        );
        assert!(!is_checkpoint(&format!("2|C{}", &line[3..])));

        // A payload that passes the checksum but is not its kind's record.
        let reframe = |kind: char, payload: &str| {
            let head = format!("1|{kind}|7|{:x}|", payload.len());
            let sum = fnv1a64_extend(
                fnv1a64_extend(FNV_OFFSET, head.as_bytes()),
                payload.as_bytes(),
            );
            format!("{head}{sum:016x}|{payload}")
        };
        assert_eq!(
            fault(&reframe('M', "2a,2a,")),
            Some(FrameFault::Decode {
                at: 3,
                expected: "the end of the payload".into()
            })
        );
        assert_eq!(
            fault(&reframe('S', "ffffffff,db")),
            Some(FrameFault::Decode {
                at: 9,
                expected: "that many bytes".into()
            })
        );
        // A count no input could hold is refused before allocating.
        assert!(matches!(
            fault(&reframe('C', "ffffffffffff,")),
            Some(FrameFault::Decode { at: 13, .. })
        ));
        assert!(matches!(
            fault(&reframe('Q', "")),
            Some(FrameFault::Decode { at: 0, .. })
        ));
    }
}
