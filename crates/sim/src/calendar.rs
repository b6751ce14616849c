//! Completion calendar: a timing wheel of in-flight completion deadlines.
//!
//! An op's completion cycle is known the moment it issues (the load
//! latency is resolved at cache lookup), so the machine files
//! `(tid, seq)` under that cycle then and reads each cycle's completions
//! straight out of the wheel — instead of rescanning every reorder window
//! for `Executing` ops whose deadline has passed.
//!
//! The wheel has a power-of-two number of buckets, strictly more than the
//! longest latency the machine's configuration allows, so every deadline
//! pending at cycle `now` lies in `[now, now + width)` and owns its bucket
//! alone: no overflow list, no cycle tags. Buckets are singly linked
//! lists over one slab (cheap to `Clone`, as checkpoints and batch forks
//! do), and a bitmap of non-empty buckets answers "when is the next
//! completion?" in `width / 64` word probes.
//!
//! Entries are never removed early. A squash or flush leaves its victims'
//! entries behind; the machine recognises them as stale when their bucket
//! drains (the seq is gone from the window, or no longer `Executing`).

use smt_isa::Tid;

/// Null slab link.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    seq: u64,
    tid: Tid,
    next: u32,
}

/// Timing wheel of `(tid, seq)` completion entries keyed by cycle.
#[derive(Clone, Debug)]
pub(crate) struct Calendar {
    /// First slab node of each bucket's list.
    heads: Vec<u32>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: Vec<u64>,
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl Calendar {
    /// A wheel able to hold any deadline up to `max_latency` cycles ahead.
    pub(crate) fn new(max_latency: u64) -> Self {
        let width = (max_latency + 1).next_power_of_two().max(64) as usize;
        Calendar {
            heads: vec![NIL; width],
            occupied: vec![0; width / 64],
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of buckets: deadlines must lie less than this far ahead.
    fn width(&self) -> u64 {
        self.heads.len() as u64
    }

    #[inline]
    fn bucket(&self, cycle: u64) -> usize {
        (cycle & (self.width() - 1)) as usize
    }

    /// File `(tid, seq)` under cycle `due`, seen from cycle `now`.
    ///
    /// # Panics
    /// If `due` is not in `[now, now + width)`: the wheel would alias it
    /// onto an earlier cycle's bucket.
    #[inline]
    pub(crate) fn insert(&mut self, now: u64, due: u64, tid: Tid, seq: u64) {
        assert!(
            due >= now && due - now < self.width(),
            "deadline {due} outside the calendar window at cycle {now}"
        );
        let b = self.bucket(due);
        let node = Node {
            seq,
            tid,
            next: self.heads[b],
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.heads[b] = idx;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Does `cycle`'s bucket hold any entry (live or stale)?
    #[inline]
    pub(crate) fn is_due(&self, cycle: u64) -> bool {
        let b = self.bucket(cycle);
        self.occupied[b / 64] & (1 << (b % 64)) != 0
    }

    /// Empty `cycle`'s bucket, appending its entries to `out` in no
    /// particular order.
    #[inline]
    pub(crate) fn drain(&mut self, cycle: u64, out: &mut Vec<(Tid, u64)>) {
        let b = self.bucket(cycle);
        let mut idx = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        while idx != NIL {
            let n = self.nodes[idx as usize];
            out.push((n.tid, n.seq));
            self.free.push(idx);
            idx = n.next;
        }
    }

    /// The first cycle at or after `from` whose bucket is non-empty, if
    /// any; looks at most one full turn (`width` cycles) ahead.
    pub(crate) fn next_due(&self, from: u64) -> Option<u64> {
        let width = self.heads.len();
        let b = self.bucket(from);
        let words = self.occupied.len();
        let (w0, bit) = (b / 64, b % 64);
        for k in 0..=words {
            let w = (w0 + k) % words;
            let mut word = self.occupied[w];
            if k == 0 {
                word &= !0u64 << bit;
            } else if k == words {
                // Back at the starting word: only the buckets before `b`.
                word &= !(!0u64 << bit);
            }
            if word != 0 {
                let pos = w * 64 + word.trailing_zeros() as usize;
                return Some(from + ((pos + width - b) % width) as u64);
            }
        }
        None
    }

    /// Is `(tid, seq)` filed in `cycle`'s bucket? O(bucket); for
    /// invariant checks.
    pub(crate) fn contains(&self, cycle: u64, tid: Tid, seq: u64) -> bool {
        let mut idx = self.heads[self.bucket(cycle)];
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.tid == tid && n.seq == seq {
                return true;
            }
            idx = n.next;
        }
        false
    }

    /// Drop every entry, keeping the width.
    pub(crate) fn clear(&mut self) {
        self.heads.fill(NIL);
        self.occupied.fill(0);
        self.nodes.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_a_power_of_two_above_the_longest_latency() {
        assert_eq!(Calendar::new(0).width(), 64);
        assert_eq!(Calendar::new(63).width(), 64);
        assert_eq!(Calendar::new(64).width(), 128);
        assert_eq!(Calendar::new(612).width(), 1024);
        assert_eq!(Calendar::new(1023).width(), 1024);
    }

    #[test]
    fn next_due_finds_the_nearest_bucket_across_the_wrap() {
        let mut c = Calendar::new(200); // 256 buckets
        assert_eq!(c.next_due(1000), None);
        c.insert(1000, 1000 + 255, Tid(0), 7); // the farthest slot
        assert_eq!(c.next_due(1000), Some(1255));
        assert_eq!(c.next_due(1255), Some(1255));
        c.insert(1000, 1003, Tid(1), 8);
        assert_eq!(c.next_due(1000), Some(1003));
        let mut out = Vec::new();
        c.drain(1003, &mut out);
        assert_eq!(out, vec![(Tid(1), 8)]);
        assert!(!c.is_due(1003));
        assert_eq!(c.next_due(1004), Some(1255));
        assert!(c.contains(1255, Tid(0), 7));
        c.drain(1255, &mut out);
        assert_eq!(c.next_due(1256), None);
    }

    #[test]
    #[should_panic(expected = "outside the calendar window")]
    fn a_deadline_a_full_turn_ahead_is_refused() {
        Calendar::new(63).insert(10, 10 + 64, Tid(0), 0);
    }
}
