//! The binary node codec shared by every STBS payload (see
//! [`crate::stream`]), and the error every STBS reader returns.
//!
//! [`enc_node`]/[`dec_node`] encode one compressed trace node —
//! rank sets, canonicalised parameters, op templates and the full timing
//! histograms the text view summarises to count × mean — as flat
//! little-endian bytes. Decoding is defensive: every length is bounded by
//! the bytes that remain, every tag is checked, and piecewise domains must
//! be non-empty and disjoint, so malformed input becomes
//! [`SnapshotError::Corrupt`], never a panic or a giant allocation.

use crate::params::{CommParam, RankFn, RankParam, SrcParam, ValParam};
use crate::rankset::{RankSet, Run};
use crate::timestats::TimeStats;
use crate::trace::{OpTemplate, Prsd, Rsd, TraceNode};
use mpisim::types::{CollKind, TagSel};
use std::fmt;

/// Maximum loop-nesting depth the decoder accepts (a corruption guard, far
/// above anything tail folding produces).
const MAX_DEPTH: usize = 256;

/// Why an STBS file (a whole trace or a capture segment) or a stream
/// directory could not be read, written, or decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// A file or directory could not be read or written.
    Io(std::io::Error),
    /// The bytes are not valid STBS: truncated, checksum mismatch, wrong
    /// magic/version, or structurally malformed.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "STBS I/O error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt STBS data: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

pub(crate) fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

// ------------------------------------------------------------------ codec

#[derive(Default)]
pub(crate) struct Enc(pub(crate) Vec<u8>);

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

pub(crate) struct Dec<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("length overflows usize"))
    }
    /// A length that is about to drive a loop of ≥1-byte items; bounding it
    /// by the remaining bytes turns "absurd length from corruption" into an
    /// immediate error instead of a giant allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(corrupt("length exceeds payload"));
        }
        Ok(n)
    }
}

fn enc_stats(e: &mut Enc, s: &TimeStats) {
    let (count, sum_ns, min_ns, max_ns, bins) = s.raw();
    e.u64(count);
    e.u128(sum_ns);
    e.u64(min_ns);
    e.u64(max_ns);
    for &b in bins {
        e.u64(b);
    }
}

fn dec_stats(d: &mut Dec) -> Result<TimeStats, SnapshotError> {
    let count = d.u64()?;
    let sum_ns = d.u128()?;
    let min_ns = d.u64()?;
    let max_ns = d.u64()?;
    let mut bins = [0u64; 64];
    for b in &mut bins {
        *b = d.u64()?;
    }
    Ok(TimeStats::from_raw(count, sum_ns, min_ns, max_ns, bins))
}

fn enc_ranks(e: &mut Enc, ranks: &RankSet) {
    e.usize(ranks.run_count());
    for run in ranks.runs() {
        e.usize(run.start);
        e.usize(run.stride);
        e.usize(run.count);
    }
}

fn dec_ranks(d: &mut Dec) -> Result<RankSet, SnapshotError> {
    let n = d.len()?;
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push(Run {
            start: d.usize()?,
            stride: d.usize()?,
            count: d.usize()?,
        });
    }
    Ok(RankSet::from_runs(runs))
}

fn enc_rank_param(e: &mut Enc, p: &RankParam) {
    // canonicalize so dense and symbolic representations of the same
    // pointwise map serialize byte-identically
    match &p.canonical() {
        RankParam::Const(r) => {
            e.u8(1);
            e.usize(*r);
        }
        RankParam::Offset(d) => {
            e.u8(2);
            e.i64(*d);
        }
        RankParam::OffsetMod { offset, modulus } => {
            e.u8(3);
            e.i64(*offset);
            e.usize(*modulus);
        }
        RankParam::Xor(mask) => {
            e.u8(4);
            e.usize(*mask);
        }
        RankParam::PerRank(m) => {
            e.u8(5);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.usize(*v);
            }
        }
        RankParam::Piecewise(ps) => {
            e.u8(6);
            e.usize(ps.len());
            for (s, f) in ps {
                enc_ranks(e, s);
                match f {
                    RankFn::Const(c) => {
                        e.u8(1);
                        e.usize(*c);
                    }
                    RankFn::Offset(d) => {
                        e.u8(2);
                        e.i64(*d);
                    }
                    RankFn::OffsetMod { offset, modulus } => {
                        e.u8(3);
                        e.i64(*offset);
                        e.usize(*modulus);
                    }
                    RankFn::Xor(mask) => {
                        e.u8(4);
                        e.usize(*mask);
                    }
                }
            }
        }
    }
}

fn dec_rank_fn(d: &mut Dec) -> Result<RankFn, SnapshotError> {
    Ok(match d.u8()? {
        1 => RankFn::Const(d.usize()?),
        2 => RankFn::Offset(d.i64()?),
        3 => RankFn::OffsetMod {
            offset: d.i64()?,
            modulus: d.usize()?,
        },
        4 => RankFn::Xor(d.usize()?),
        t => return Err(corrupt(format!("bad RankFn tag {t}"))),
    })
}

/// Decode `(RankSet, T)` pieces, enforcing non-empty disjoint domains so a
/// corrupt payload cannot smuggle in an ambiguous parameter.
fn dec_pieces<T>(
    d: &mut Dec,
    mut item: impl FnMut(&mut Dec) -> Result<T, SnapshotError>,
) -> Result<Vec<(RankSet, T)>, SnapshotError> {
    let n = d.len()?;
    if n == 0 {
        return Err(corrupt("piecewise param with no pieces"));
    }
    let mut pieces = Vec::with_capacity(n);
    for _ in 0..n {
        let s = dec_ranks(d)?;
        if s.is_empty() {
            return Err(corrupt("empty piecewise domain"));
        }
        pieces.push((s, item(d)?));
    }
    // disjointness check in one pass: the union of disjoint domains has
    // exactly the summed cardinality
    let total: usize = pieces.iter().map(|(s, _)| s.len()).sum();
    if RankSet::union_many(pieces.iter().map(|(s, _)| s)).len() != total {
        return Err(corrupt("overlapping piecewise domains"));
    }
    Ok(pieces)
}

fn dec_rank_param(d: &mut Dec) -> Result<RankParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => RankParam::Const(d.usize()?),
        2 => RankParam::Offset(d.i64()?),
        3 => RankParam::OffsetMod {
            offset: d.i64()?,
            modulus: d.usize()?,
        },
        4 => RankParam::Xor(d.usize()?),
        5 => {
            let n = d.len()?;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let r = d.usize()?;
                m.insert(r, d.usize()?);
            }
            RankParam::PerRank(m)
        }
        6 => RankParam::Piecewise(dec_pieces(d, dec_rank_fn)?),
        t => return Err(corrupt(format!("bad RankParam tag {t}"))),
    })
}

fn enc_val_param(e: &mut Enc, p: &ValParam) {
    match &p.canonical() {
        ValParam::Const(v) => {
            e.u8(1);
            e.u64(*v);
        }
        ValParam::PerRank(m) => {
            e.u8(2);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.u64(*v);
            }
        }
        ValParam::Linear { base, slope } => {
            e.u8(3);
            e.i64(*base);
            e.i64(*slope);
        }
        ValParam::Piecewise(ps) => {
            e.u8(4);
            e.usize(ps.len());
            for (s, v) in ps {
                enc_ranks(e, s);
                e.u64(*v);
            }
        }
    }
}

fn dec_val_param(d: &mut Dec) -> Result<ValParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => ValParam::Const(d.u64()?),
        2 => {
            let n = d.len()?;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let r = d.usize()?;
                m.insert(r, d.u64()?);
            }
            ValParam::PerRank(m)
        }
        3 => ValParam::Linear {
            base: d.i64()?,
            slope: d.i64()?,
        },
        4 => ValParam::Piecewise(dec_pieces(d, |d| d.u64())?),
        t => return Err(corrupt(format!("bad ValParam tag {t}"))),
    })
}

fn enc_comm_param(e: &mut Enc, p: &CommParam) {
    match &p.canonical() {
        CommParam::Const(c) => {
            e.u8(1);
            e.u32(*c);
        }
        CommParam::PerRank(m) => {
            e.u8(2);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.u32(*v);
            }
        }
        CommParam::Piecewise(ps) => {
            e.u8(3);
            e.usize(ps.len());
            for (s, c) in ps {
                enc_ranks(e, s);
                e.u32(*c);
            }
        }
    }
}

fn dec_comm_param(d: &mut Dec) -> Result<CommParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => CommParam::Const(d.u32()?),
        2 => {
            let n = d.len()?;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let r = d.usize()?;
                m.insert(r, d.u32()?);
            }
            CommParam::PerRank(m)
        }
        3 => CommParam::Piecewise(dec_pieces(d, |d| d.u32())?),
        t => return Err(corrupt(format!("bad CommParam tag {t}"))),
    })
}

fn enc_op(e: &mut Enc, op: &OpTemplate) {
    match op {
        OpTemplate::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            e.u8(0);
            enc_rank_param(e, to);
            e.i64(*tag as i64);
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
            e.bool(*blocking);
        }
        OpTemplate::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            e.u8(1);
            match from {
                SrcParam::Any => e.u8(0),
                SrcParam::Rank(r) => {
                    e.u8(1);
                    enc_rank_param(e, r);
                }
            }
            match tag {
                TagSel::Any => e.u8(0),
                TagSel::Is(t) => {
                    e.u8(1);
                    e.i64(*t as i64);
                }
            }
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
            e.bool(*blocking);
        }
        OpTemplate::Wait { count } => {
            e.u8(2);
            enc_val_param(e, count);
        }
        OpTemplate::Coll {
            kind,
            root,
            bytes,
            comm,
        } => {
            e.u8(3);
            let idx = CollKind::ALL.iter().position(|k| k == kind).unwrap();
            e.u8(idx as u8);
            match root {
                None => e.u8(0),
                Some(r) => {
                    e.u8(1);
                    enc_rank_param(e, r);
                }
            }
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
        }
        OpTemplate::CommSplit { parent, result } => {
            e.u8(4);
            e.u32(*parent);
            e.u32(*result);
        }
    }
}

fn dec_tag(v: i64) -> Result<i32, SnapshotError> {
    i32::try_from(v).map_err(|_| corrupt("tag out of range"))
}

fn dec_op(d: &mut Dec) -> Result<OpTemplate, SnapshotError> {
    Ok(match d.u8()? {
        0 => OpTemplate::Send {
            to: dec_rank_param(d)?,
            tag: dec_tag(d.i64()?)?,
            bytes: dec_val_param(d)?,
            comm: dec_comm_param(d)?,
            blocking: d.bool()?,
        },
        1 => {
            let from = match d.u8()? {
                0 => SrcParam::Any,
                1 => SrcParam::Rank(dec_rank_param(d)?),
                t => return Err(corrupt(format!("bad SrcParam tag {t}"))),
            };
            let tag = match d.u8()? {
                0 => TagSel::Any,
                1 => TagSel::Is(dec_tag(d.i64()?)?),
                t => return Err(corrupt(format!("bad TagSel tag {t}"))),
            };
            OpTemplate::Recv {
                from,
                tag,
                bytes: dec_val_param(d)?,
                comm: dec_comm_param(d)?,
                blocking: d.bool()?,
            }
        }
        2 => OpTemplate::Wait {
            count: dec_val_param(d)?,
        },
        3 => {
            let idx = d.u8()? as usize;
            let kind = *CollKind::ALL
                .get(idx)
                .ok_or_else(|| corrupt(format!("bad CollKind index {idx}")))?;
            let root = match d.u8()? {
                0 => None,
                1 => Some(dec_rank_param(d)?),
                t => return Err(corrupt(format!("bad root tag {t}"))),
            };
            OpTemplate::Coll {
                kind,
                root,
                bytes: dec_val_param(d)?,
                comm: dec_comm_param(d)?,
            }
        }
        4 => OpTemplate::CommSplit {
            parent: d.u32()?,
            result: d.u32()?,
        },
        t => return Err(corrupt(format!("bad OpTemplate tag {t}"))),
    })
}

pub(crate) fn enc_node(e: &mut Enc, node: &TraceNode) {
    match node {
        TraceNode::Event(r) => {
            e.u8(0);
            enc_ranks(e, &r.ranks);
            e.u64(r.sig);
            enc_op(e, &r.op);
            enc_stats(e, &r.compute);
        }
        TraceNode::Loop(p) => {
            e.u8(1);
            e.u64(p.count);
            e.usize(p.body.len());
            for n in &p.body {
                enc_node(e, n);
            }
        }
    }
}

pub(crate) fn dec_node(d: &mut Dec, depth: usize) -> Result<TraceNode, SnapshotError> {
    if depth > MAX_DEPTH {
        return Err(corrupt("loop nesting too deep"));
    }
    Ok(match d.u8()? {
        0 => TraceNode::Event(Rsd {
            ranks: dec_ranks(d)?,
            sig: d.u64()?,
            op: dec_op(d)?,
            compute: dec_stats(d)?,
        }),
        1 => {
            let count = d.u64()?;
            let n = d.len()?;
            let mut body = Vec::with_capacity(n);
            for _ in 0..n {
                body.push(dec_node(d, depth + 1)?);
            }
            TraceNode::Loop(Prsd { count, body })
        }
        t => return Err(corrupt(format!("bad TraceNode tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_format() {
        let mut d = Dec {
            buf: &[1, 2, 3],
            pos: 0,
        };
        let err = d.u64().expect_err("three bytes hold no u64");
        assert_eq!(err.to_string(), "corrupt STBS data: truncated payload");
        let io = SnapshotError::from(std::io::Error::from(std::io::ErrorKind::NotFound));
        assert!(io.to_string().starts_with("STBS I/O error: "), "{io}");
    }
}
