//! In-flight micro-op records.
//!
//! Each hardware context owns a window (`VecDeque<InFlight>`) ordered by
//! per-thread sequence number — the reorder buffer. Sequence numbers are
//! monotone and never reused, so after a squash the window may contain a
//! gap. [`find_seq`] probes the index a seq would have with no gap
//! between it and either end of the window, and only binary-searches
//! when both probes miss.
//!
//! The [`Stage::Executing`] `done_at` deadlines recorded here are known
//! the moment an op issues; the machine files each one in its
//! completion calendar then, so `complete` and the event-horizon
//! fast-forward (`SmtMachine::stall_horizon`) read the next completion
//! cycle from the calendar instead of scanning windows for it.

use smt_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::MicroOp;

/// Pipeline stage of an in-flight op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Fetched; eligible for dispatch at `ready_at` (decode/rename depth).
    FrontEnd { ready_at: u64 },
    /// Waiting in an instruction queue.
    Queued,
    /// Issued to a functional unit; completes at `done_at`.
    Executing { done_at: u64 },
    /// Completed; awaiting in-order commit.
    Done,
}

/// One in-flight dynamic micro-op.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Per-thread sequence number (monotone, never reused).
    pub seq: u64,
    pub uop: MicroOp,
    /// Fetched down the wrong path; will be squashed, never committed.
    pub wrong_path: bool,
    /// Producer sequence numbers for up to two register sources.
    pub deps: [Option<u64>; 2],
    pub stage: Stage,
    /// Branch whose fetch-time prediction disagreed with the architectural
    /// outcome; triggers a squash when it resolves.
    pub mispredicted: bool,
    /// This load missed L1D (for the outstanding-miss gauge).
    pub dmiss: bool,
    /// PHT index used at prediction time (conditional branches only).
    pub pht_index: u32,
    /// Global-history register value before this branch's fetch (branches
    /// only; used to repair the history on squash).
    pub history_at_fetch: u64,
    pub fetched_at: u64,
    /// Head of this producer's wake chain in the machine's wake arena
    /// ([`NO_WAKE`] = no registered waiters). Transient acceleration
    /// state: *not* serialized (the machine rebuilds it after decode), so
    /// snapshot bytes are unchanged from the binary-search era.
    pub wake_head: u32,
}

/// Sentinel for an empty wake chain ([`InFlight::wake_head`]).
pub const NO_WAKE: u32 = u32::MAX;

impl InFlight {
    /// True once execution finished.
    #[inline]
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    /// True while the op sits in an instruction queue.
    #[inline]
    pub fn is_queued(&self) -> bool {
        matches!(self.stage, Stage::Queued)
    }

    /// True while the op is in the front end (pre-dispatch).
    #[inline]
    pub fn in_front_end(&self) -> bool {
        matches!(self.stage, Stage::FrontEnd { .. })
    }

    /// Has the op passed dispatch (and so holds queue/LSQ/register
    /// resources that must be returned on squash)?
    #[inline]
    pub fn past_dispatch(&self) -> bool {
        !self.in_front_end()
    }
}

impl Codec for Stage {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Stage::FrontEnd { ready_at } => {
                w.u8(0);
                w.u64(*ready_at);
            }
            Stage::Queued => w.u8(1),
            Stage::Executing { done_at } => {
                w.u8(2);
                w.u64(*done_at);
            }
            Stage::Done => w.u8(3),
        }
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Stage::FrontEnd { ready_at: r.u64()? },
            1 => Stage::Queued,
            2 => Stage::Executing { done_at: r.u64()? },
            3 => Stage::Done,
            t => {
                return Err(CodecError::BadTag {
                    what: "Stage",
                    tag: t as u64,
                })
            }
        })
    }
}

impl Codec for InFlight {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.seq);
        self.uop.encode(w);
        w.bool(self.wrong_path);
        self.deps.encode(w);
        self.stage.encode(w);
        w.bool(self.mispredicted);
        w.bool(self.dmiss);
        w.u32(self.pht_index);
        w.u64(self.history_at_fetch);
        w.u64(self.fetched_at);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(InFlight {
            seq: r.u64()?,
            uop: MicroOp::decode(r)?,
            wrong_path: r.bool()?,
            deps: <[Option<u64>; 2]>::decode(r)?,
            stage: Stage::decode(r)?,
            mispredicted: r.bool()?,
            dmiss: r.bool()?,
            pht_index: r.u32()?,
            history_at_fetch: r.u64()?,
            fetched_at: r.u64()?,
            wake_head: NO_WAKE,
        })
    }
}

/// Index of the op with sequence number `seq` in `window` (sorted by
/// `seq`), if present.
///
/// Gaps in the seq numbering come only from squashes, which cut the
/// window's tail, so most ops sit at exactly `seq - front` (no gap before
/// them) or `len - 1 - (back - seq)` (no gap after them). Both probes
/// are O(1); a seq strictly between two gaps falls back to the binary
/// search. Seqs are unique, so every path returns the same index.
pub fn find_seq(window: &std::collections::VecDeque<InFlight>, seq: u64) -> Option<usize> {
    let front = window.front()?.seq;
    let back = window.back()?.seq;
    if seq < front || seq > back {
        return None;
    }
    let len = window.len() as u64;
    let from_front = seq - front;
    if from_front < len && window[from_front as usize].seq == seq {
        return Some(from_front as usize);
    }
    let from_back = back - seq;
    if from_back < len {
        let i = (len - 1 - from_back) as usize;
        if window[i].seq == seq {
            return Some(i);
        }
    }
    window.binary_search_by_key(&seq, |op| op.seq).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn op(seq: u64) -> InFlight {
        InFlight {
            seq,
            uop: MicroOp::nop(seq * 4),
            wrong_path: false,
            deps: [None, None],
            stage: Stage::FrontEnd { ready_at: 0 },
            mispredicted: false,
            dmiss: false,
            pht_index: 0,
            history_at_fetch: 0,
            fetched_at: 0,
            wake_head: NO_WAKE,
        }
    }

    #[test]
    fn find_seq_handles_gaps() {
        let mut w: VecDeque<InFlight> = VecDeque::new();
        for s in [1u64, 2, 3, 7, 8] {
            w.push_back(op(s));
        }
        assert_eq!(find_seq(&w, 3), Some(2));
        assert_eq!(find_seq(&w, 7), Some(3));
        assert_eq!(find_seq(&w, 4), None);
        assert_eq!(find_seq(&w, 0), None);
    }

    #[test]
    fn find_seq_across_ring_wrap() {
        // Force the VecDeque to wrap so as_slices returns two parts.
        let mut w: VecDeque<InFlight> = VecDeque::with_capacity(4);
        w.push_back(op(0));
        w.push_back(op(1));
        w.pop_front();
        w.pop_front();
        for s in 2..6 {
            w.push_back(op(s));
        }
        for s in 2..6 {
            assert!(find_seq(&w, s).is_some(), "seq {s} not found");
        }
    }

    #[test]
    fn stage_predicates() {
        let mut o = op(1);
        assert!(o.in_front_end());
        assert!(!o.past_dispatch());
        o.stage = Stage::Queued;
        assert!(o.is_queued() && o.past_dispatch());
        o.stage = Stage::Executing { done_at: 5 };
        assert!(o.past_dispatch() && !o.is_done());
        o.stage = Stage::Done;
        assert!(o.is_done());
    }
}
