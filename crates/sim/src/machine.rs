//! The cycle-level SMT machine.
//!
//! [`SmtMachine`] owns every structural model — shared caches, shared branch
//! predictor, shared instruction queues, LSQ and rename registers, plus one
//! reorder window per hardware context — and advances them one cycle per
//! [`SmtMachine::step`]. Stages run in reverse pipeline order within a
//! cycle (complete → commit → issue → dispatch → fetch) so that an op never
//! traverses two stages in one cycle:
//!
//! 1. **complete** — finish the ops the completion calendar files under
//!    this cycle, in `(tid, seq)` order; resolve branches, training the
//!    predictor and squashing the thread on a misprediction;
//! 2. **commit** — retire completed ops in order, up to `commit_width`
//!    across threads; syscalls retire the drain;
//! 3. **issue** — pick ready ops oldest-first from the int/fp queues' ready
//!    lists under functional-unit and port constraints; loads access the
//!    D-cache here, and every issued op is filed in the calendar under
//!    the cycle it completes;
//! 4. **dispatch** — move decoded ops into the queues, allocating rename
//!    registers and LSQ entries;
//! 5. **fetch** — ask the [`FetchChooser`] to order fetchable threads, then
//!    fetch up to `fetch_width` ops from the top `max_fetch_threads`
//!    (the ICOUNT2.8-style mechanism of \[20\]), predicting branches and
//!    entering wrong-path mode on a fetch-time mispredict.
//!
//! The machine is `Clone`: the oracle scheduler in `adts-core` checkpoints
//! it and replays a quantum under every candidate policy.

use crate::bpred::BranchPredictor;
use crate::cache::Hierarchy;
use crate::calendar::Calendar;
use crate::chooser::FetchChooser;
use crate::config::SimConfig;
use crate::counters::{CounterSnapshot, PolicyView, ThreadCounters};
use crate::inflight::{find_seq, InFlight, Stage, NO_WAKE};
use crate::iqueue::{IndexedQueue, NIL};
use crate::obs::attr::{CommitCause, FetchCause, IssueCause, SlotAttribution};
use crate::trace::{MissLevel, TraceBuffer, TraceEvent};
use crate::wrongpath::WrongPathGen;
use smt_isa::codec::{self, ByteReader, ByteWriter, Codec, CodecError};
use smt_isa::{BranchKind, OpKind, RegClass, Tid};
use smt_workloads::{SplitMix64, UopStream};
use std::collections::VecDeque;

/// Machine-wide statistics the detector thread (and experiment harness)
/// reads in addition to the per-thread counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlobalCounters {
    /// Cycles simulated.
    pub cycles: u64,
    /// Micro-ops committed across all threads.
    pub committed: u64,
    /// Cycles during which the shared LSQ was full.
    pub lsq_full_cycles: u64,
    /// Fetch slots actually filled (correct + wrong path).
    pub fetch_slots_used: u64,
    /// Total squash (mispredict recovery) events.
    pub squashes: u64,
    /// Cycles spent with a system call draining/executing.
    pub syscall_drain_cycles: u64,
}

/// Reference into a shared queue: which thread's window, which sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QRef {
    tid: Tid,
    seq: u64,
}

/// LSQ payload carried alongside the (tid, seq) key of an entry.
#[derive(Clone, Copy, Debug)]
struct LsqData {
    /// Address quantized to 8 bytes (the generator's access granularity).
    addr8: u64,
    is_store: bool,
}

/// Instruction-queue payload: the facts issue needs every cycle, copied
/// out of the window op at dispatch so a dep-blocked entry is judged
/// without touching the window at all.
#[derive(Clone, Copy, Debug)]
struct IqData {
    kind: OpKind,
    /// Producer sequence numbers (immutable after fetch).
    deps: [Option<u64>; 2],
    /// Outstanding (not yet completed) producers, maintained by the wake
    /// chains: dispatch counts the live producers, each producer's
    /// Done-transition decrements. An entry sits on its queue's ready
    /// list exactly while `pending == 0`. Transient acceleration state,
    /// *not* serialized (rebuilt after decode); `deps_ready` remains as
    /// the search-based reference oracle.
    pending: u8,
    /// Dispatch order stamp (monotone across both queues), which keeps
    /// the ready lists in queue age order. Transient like `pending`.
    age: u64,
}

/// The dispatch head against the in-order front end's hazard cascade
/// ([`SmtMachine::dispatch_head`]), in cascade order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DispatchHead {
    /// The decode FIFO is empty.
    Empty,
    /// Squashed while queued for decode: dispatch pops the bubble.
    Bubble,
    /// Still in the decode pipe until `ready_at`.
    Decoding { ready_at: u64 },
    /// Defensive: a head no longer in the front end stalls dispatch until
    /// a squash removes it.
    Stuck,
    /// A syscall: popped into the window without queue resources.
    Syscall,
    /// Its instruction queue is full.
    IqFull,
    /// A memory op facing a full LSQ: charges thread `ti`'s
    /// `lsq_full_cycles` every cycle it stalls.
    LsqFull { ti: usize },
    /// No free rename register of its destination class.
    NoFreeReg,
    /// Clears every hazard: window entry `i` of thread `ti` dispatches.
    Ready { ti: usize, i: usize },
}

/// Per-context state.
#[derive(Clone, Debug)]
struct ThreadCtx {
    tid: Tid,
    stream: UopStream,
    wp_gen: WrongPathGen,
    window: VecDeque<InFlight>,
    next_seq: u64,
    /// Flat arch-reg → producing seq.
    rename: [Option<u64>; 64],
    /// ADTS thread-control flag: may this thread fetch?
    fetch_enabled: bool,
    icache_stall_until: u64,
    /// Line (addr / line_bytes) guaranteed deliverable after an I-miss
    /// completes, even if meanwhile evicted by another thread — the fill
    /// went to the fetch buffer, so re-probing would be a livelock.
    icache_ready_line: Option<u64>,
    redirect_stall_until: u64,
    /// `Some(branch_seq)` while fetching down the wrong path.
    wrong_path_since: Option<u64>,
    /// Wrong-path fetch pc.
    wp_pc: u64,
    /// Cold-frontend penalty of a cross-core migration: fetch is held
    /// until this cycle (0 = no pending penalty). Set by
    /// [`SmtMachine::migrate_in`], attributed as [`FetchCause::Migration`].
    migration_stall_until: u64,
    counters: ThreadCounters,
}

/// A thread's architectural residue in transit between cores: the stream
/// position and cumulative counters survive a migration; every piece of
/// microarchitectural state (window, rename, queues, stalls) is flushed
/// at the source and rebuilt cold at the destination. Produced by
/// [`SmtMachine::migrate_out`], consumed by [`SmtMachine::migrate_in`].
#[derive(Clone, Debug)]
pub struct MigratedThread {
    stream: UopStream,
    counters: ThreadCounters,
}

impl MigratedThread {
    /// Cumulative committed micro-ops carried by the migrating thread.
    pub fn committed(&self) -> u64 {
        self.counters.committed
    }
}

impl IqData {
    fn encode_into(&self, w: &mut ByteWriter) {
        self.kind.encode(w);
        self.deps.encode(w);
    }

    fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(IqData {
            kind: OpKind::decode(r)?,
            deps: <[Option<u64>; 2]>::decode(r)?,
            // Rebuilt by `rebuild_wake_state` once the whole machine is
            // decoded (the windows aren't available yet here).
            pending: 0,
            age: 0,
        })
    }
}

impl LsqData {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.u64(self.addr8);
        w.bool(self.is_store);
    }

    fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(LsqData {
            addr8: r.u64()?,
            is_store: r.bool()?,
        })
    }
}

/// One registered waiter on a producer's wake chain: when the producer
/// completes, decrement `pending` of the instruction-queue entry at
/// `slot` — *after* revalidating that the slot still holds
/// `(producer's tid, waiter_seq)`, because a waiter can be squashed while
/// its (older) producer survives, and the queue slab may have reused the
/// slot since ([`IndexedQueue::entry_matches`]).
#[derive(Clone, Copy, Debug)]
struct WakeNode {
    /// Waiter sits in the fp queue (else the int queue).
    fp: bool,
    /// Slab index of the waiter's queue entry at registration time.
    slot: u32,
    /// Waiter's sequence number, for slot revalidation.
    waiter_seq: u64,
    /// Next node in this producer's chain ([`NO_WAKE`] terminates).
    next: u32,
}

/// Slab of [`WakeNode`]s with a free list. Chains are singly linked from
/// each window op's `wake_head`; every allocated node sits on exactly one
/// chain (freed when its producer completes, is squashed, or is flushed).
#[derive(Clone, Debug, Default)]
struct WakeArena {
    nodes: Vec<WakeNode>,
    free: Vec<u32>,
}

impl WakeArena {
    fn alloc(&mut self, node: WakeNode) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Free every node of the chain starting at `head`.
    fn free_chain(&mut self, head: u32) {
        let mut idx = head;
        while idx != NO_WAKE {
            let next = self.nodes[idx as usize].next;
            self.free.push(idx);
            idx = next;
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
    }

    /// Allocated (live) nodes.
    fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }
}

impl ThreadCtx {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.u8(self.tid.0);
        self.stream.encode_state(w);
        self.wp_gen.encode_into(w);
        w.usize(self.window.len());
        for op in &self.window {
            op.encode(w);
        }
        w.u64(self.next_seq);
        self.rename.encode(w);
        w.bool(self.fetch_enabled);
        w.u64(self.icache_stall_until);
        self.icache_ready_line.encode(w);
        w.u64(self.redirect_stall_until);
        self.wrong_path_since.encode(w);
        w.u64(self.wp_pc);
        w.u64(self.migration_stall_until);
        codec::encode_json(w, &self.counters);
    }

    fn decode_from(r: &mut ByteReader, cfg: &SimConfig) -> Result<Self, CodecError> {
        let tid = Tid(r.u8()?);
        let stream = UopStream::decode_state(r)?;
        let wp_gen = WrongPathGen::decode_from(r)?;
        let n = r.usize()?;
        if n > cfg.rob_per_thread {
            return Err(CodecError::Invalid(format!(
                "window length {n} exceeds rob_per_thread {}",
                cfg.rob_per_thread
            )));
        }
        // Rebuilt contiguous regardless of the source ring's split point —
        // unobservable, since all window lookups go through `find_seq`'s
        // two-slice binary search.
        let mut window = VecDeque::with_capacity(cfg.rob_per_thread);
        let mut last_seq = None;
        for _ in 0..n {
            let op = InFlight::decode(r)?;
            if last_seq.is_some_and(|s| op.seq <= s) {
                return Err(CodecError::Invalid("window out of seq order".into()));
            }
            last_seq = Some(op.seq);
            window.push_back(op);
        }
        Ok(ThreadCtx {
            tid,
            stream,
            wp_gen,
            window,
            next_seq: r.u64()?,
            rename: <[Option<u64>; 64]>::decode(r)?,
            fetch_enabled: r.bool()?,
            icache_stall_until: r.u64()?,
            icache_ready_line: Option::decode(r)?,
            redirect_stall_until: r.u64()?,
            wrong_path_since: Option::decode(r)?,
            wp_pc: r.u64()?,
            migration_stall_until: r.u64()?,
            counters: codec::decode_json(r)?,
        })
    }

    /// Can this thread accept fetch this cycle (ignoring chooser priority)?
    fn fetchable(&self, cycle: u64, cfg: &SimConfig) -> bool {
        self.fetch_enabled
            && self.migration_stall_until <= cycle
            && self.icache_stall_until <= cycle
            && self.redirect_stall_until <= cycle
            && self.window.len() < cfg.rob_per_thread
            && (self.counters.front_end_occ as usize) < cfg.fetch_buffer_per_thread
    }

    /// Would this thread like to fetch but is structurally blocked?
    fn fetch_blocked(&self, cycle: u64, cfg: &SimConfig) -> bool {
        self.fetch_enabled && !self.fetchable(cycle, cfg)
    }
}

/// The simultaneous-multithreading machine.
#[derive(Clone, Debug)]
pub struct SmtMachine {
    cfg: SimConfig,
    cycle: u64,
    pub mem: Hierarchy,
    pub bpred: BranchPredictor,
    threads: Vec<ThreadCtx>,
    int_iq: IndexedQueue<IqData>,
    fp_iq: IndexedQueue<IqData>,
    lsq: IndexedQueue<LsqData>,
    free_int_regs: usize,
    free_fp_regs: usize,
    int_div_free_at: u64,
    fp_div_free_at: u64,
    /// FIFO of fetched-but-unretired system calls; non-empty = drain mode.
    pending_syscalls: VecDeque<QRef>,
    global: GlobalCounters,
    /// Scratch for chooser views (reused each cycle, and by
    /// [`SmtMachine::views`]).
    view_buf: Vec<PolicyView>,
    /// Scratch for mispredict squashes discovered during complete
    /// (ti, seq, history, outcome); reused each cycle, empty between
    /// cycles.
    squash_buf: Vec<(usize, u64, u64, Option<bool>)>,
    /// Optional pipeline event trace (None = disabled, zero overhead
    /// beyond one branch per event site).
    trace: Option<TraceBuffer>,
    /// Optional slot-loss attribution (None = disabled; boxed so the
    /// untraced machine stays small and `Clone` stays cheap).
    attr: Option<Box<SlotAttribution>>,
    /// This core's position in a multi-core shared-L2 arbitration
    /// rotation (0 standalone). Pure trace context — stamped onto
    /// [`TraceEvent::CacheMiss`] events, never serialized, never read by
    /// the pipeline.
    l2_rot: u8,
    /// The decode/rename pipe: fetched ops in global fetch order. Dispatch
    /// consumes strictly from the head and *stalls* on a structural hazard
    /// (queue/LSQ/register full), so one clogged thread's backlog delays
    /// everyone behind it — the head-of-line interference the paper's
    /// scheduling policies exist to manage. This is also what propagates
    /// fetch priority into the shared queues: a thread that wins fetch
    /// slots owns a proportional share of this FIFO.
    dispatch_fifo: IndexedQueue<()>,
    /// Producer-completion wake chains backing the issue stage's
    /// `pending` readiness counters. Transient acceleration state:
    /// cloned with the machine (slab indices are preserved by `Clone`),
    /// never serialized (rebuilt after decode).
    wake: WakeArena,
    /// Slots of the int / fp queue entries with `pending == 0`, in queue
    /// age order: the only entries issue can pick, so issue walks these
    /// instead of the whole queue. Transient like `wake`.
    int_ready: Vec<u32>,
    fp_ready: Vec<u32>,
    /// Next [`IqData::age`] stamp. Transient like `wake`.
    next_age: u64,
    /// Every `Executing` op filed under the cycle whose `complete` stage
    /// finishes it: its `done_at`, or the next `complete` to run if a
    /// zero latency left `done_at` behind it. `complete` drains one
    /// bucket per cycle. Transient like `wake`: rebuilt from the windows
    /// after decode.
    calendar: Calendar,
    /// Scratch for the entries drained from the calendar; empty between
    /// cycles.
    due_buf: Vec<(Tid, u64)>,
    /// Event-horizon fast-forward switch: when set, [`SmtMachine::run`]
    /// skips pure-stall cycles to the next cycle any architectural state
    /// can change ([`SmtMachine::stall_horizon`]). Host-side acceleration
    /// state like `l2_rot`/`wake`: never serialized, on after construction
    /// and decode, and guaranteed not to change what is simulated —
    /// pinned by the golden suites and `tests/proptest_skip.rs`.
    skip_enabled: bool,
    /// Cycles advanced by [`SmtMachine::skip_cycles`] windows instead of
    /// per-cycle stepping. Pure host observability (how much of the run
    /// was fast-forwarded), exported via
    /// [`CounterSnapshot::skipped_cycles`]; transient like `l2_rot` —
    /// never serialized, reset on decode — so snapshot bytes stay
    /// independent of the skip setting.
    skipped_cycles: u64,
}

impl SmtMachine {
    /// Build a machine running one [`UopStream`] per context. `streams.len()`
    /// must equal `cfg.threads`.
    pub fn new(cfg: SimConfig, streams: Vec<UopStream>) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert_eq!(
            streams.len(),
            cfg.threads,
            "one stream per configured context"
        );
        let threads = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let base = stream.addr_base();
                let ws = stream.profile().data_ws_bytes;
                ThreadCtx {
                    tid: Tid(i as u8),
                    wp_gen: WrongPathGen::new(SplitMix64::derive(0xAD75 ^ i as u64, 7), base, ws),
                    stream,
                    window: VecDeque::with_capacity(cfg.rob_per_thread),
                    next_seq: 0,
                    rename: [None; 64],
                    fetch_enabled: true,
                    icache_stall_until: 0,
                    icache_ready_line: None,
                    redirect_stall_until: 0,
                    wrong_path_since: None,
                    wp_pc: 0,
                    migration_stall_until: 0,
                    counters: ThreadCounters::default(),
                }
            })
            .collect();
        let mut mem = Hierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.mem_latency);
        mem.set_next_line_prefetch(cfg.next_line_prefetch);
        SmtMachine {
            free_int_regs: cfg.extra_phys_int,
            free_fp_regs: cfg.extra_phys_fp,
            mem,
            bpred: BranchPredictor::new(&cfg),
            threads,
            int_iq: IndexedQueue::new(cfg.threads, cfg.int_iq_size),
            fp_iq: IndexedQueue::new(cfg.threads, cfg.fp_iq_size),
            lsq: IndexedQueue::new(cfg.threads, cfg.lsq_size),
            int_div_free_at: 0,
            fp_div_free_at: 0,
            pending_syscalls: VecDeque::new(),
            global: GlobalCounters::default(),
            view_buf: Vec::with_capacity(cfg.threads),
            squash_buf: Vec::new(),
            trace: None,
            attr: None,
            l2_rot: 0,
            dispatch_fifo: IndexedQueue::new(cfg.threads, 64),
            wake: WakeArena::default(),
            int_ready: Vec::with_capacity(cfg.int_iq_size),
            fp_ready: Vec::with_capacity(cfg.fp_iq_size),
            next_age: 0,
            calendar: Calendar::new(cfg.max_latency()),
            due_buf: Vec::new(),
            skip_enabled: true,
            skipped_cycles: 0,
            cycle: 0,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // checkpoint codec
    // ------------------------------------------------------------------

    /// Serialize the complete simulated state (architectural and
    /// microarchitectural) for checkpointing. Instrumentation (`trace`,
    /// `attr`) and the per-cycle scratch buffers are *not* captured: both
    /// are empty/disabled at every quantum boundary, which is the only
    /// place snapshots are taken. A machine decoded from these bytes
    /// simulates bit-identically to this one.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        codec::encode_json(w, &self.cfg);
        w.u64(self.cycle);
        self.mem.encode_into(w);
        self.bpred.encode_into(w);
        w.usize(self.threads.len());
        for t in &self.threads {
            t.encode_into(w);
        }
        self.int_iq.encode_with(w, |w, d| d.encode_into(w));
        self.fp_iq.encode_with(w, |w, d| d.encode_into(w));
        self.lsq.encode_with(w, |w, d| d.encode_into(w));
        w.usize(self.free_int_regs);
        w.usize(self.free_fp_regs);
        w.u64(self.int_div_free_at);
        w.u64(self.fp_div_free_at);
        w.usize(self.pending_syscalls.len());
        for q in &self.pending_syscalls {
            w.u8(q.tid.0);
            w.u64(q.seq);
        }
        w.u64(self.global.cycles);
        w.u64(self.global.committed);
        w.u64(self.global.lsq_full_cycles);
        w.u64(self.global.fetch_slots_used);
        w.u64(self.global.squashes);
        w.u64(self.global.syscall_drain_cycles);
        self.dispatch_fifo.encode_with(w, |_, ()| {});
    }

    /// Rebuild a machine from [`Self::encode_into`] bytes. Never panics on
    /// corrupt input — every structural inconsistency decodes to an error.
    pub(crate) fn decode_from(r: &mut ByteReader) -> Result<Self, CodecError> {
        let cfg: SimConfig = codec::decode_json(r)?;
        cfg.validate()
            .map_err(|e| CodecError::Invalid(format!("bad SimConfig: {e}")))?;
        let cycle = r.u64()?;
        let mem = Hierarchy::decode_from(r)?;
        // Load latencies come from the hierarchy, the calendar is sized
        // from the config: they must agree.
        if mem.l1d.geometry() != cfg.l1d
            || mem.l2.geometry() != cfg.l2
            || mem.mem_latency() != cfg.mem_latency
        {
            return Err(CodecError::Invalid(
                "cache hierarchy disagrees with config".into(),
            ));
        }
        let bpred = BranchPredictor::decode_from(r)?;
        let n_threads = r.usize()?;
        if n_threads != cfg.threads {
            return Err(CodecError::Invalid(format!(
                "thread count {n_threads} disagrees with config {}",
                cfg.threads
            )));
        }
        let mut threads = Vec::with_capacity(n_threads);
        for i in 0..n_threads {
            let t = ThreadCtx::decode_from(r, &cfg)?;
            if t.tid.idx() != i {
                return Err(CodecError::Invalid("thread ids out of order".into()));
            }
            // An op issued before `cycle` completes within the longest
            // latency; a later deadline would not fit the calendar.
            for op in &t.window {
                if let Stage::Executing { done_at } = op.stage {
                    if done_at > cycle.saturating_add(cfg.max_latency()) {
                        return Err(CodecError::Invalid(format!(
                            "op {} completes at {done_at}, beyond the longest latency",
                            op.seq
                        )));
                    }
                }
            }
            threads.push(t);
        }
        let int_iq = IndexedQueue::decode_with(r, IqData::decode_from)?;
        let fp_iq = IndexedQueue::decode_with(r, IqData::decode_from)?;
        let lsq = IndexedQueue::decode_with(r, LsqData::decode_from)?;
        let free_int_regs = r.usize()?;
        let free_fp_regs = r.usize()?;
        let int_div_free_at = r.u64()?;
        let fp_div_free_at = r.u64()?;
        let n_sys = r.usize()?;
        let mut pending_syscalls = VecDeque::with_capacity(n_sys.min(r.remaining()));
        for _ in 0..n_sys {
            let tid = r.u8()?;
            if tid as usize >= n_threads {
                return Err(CodecError::Invalid("syscall tid out of range".into()));
            }
            pending_syscalls.push_back(QRef {
                tid: Tid(tid),
                seq: r.u64()?,
            });
        }
        let global = GlobalCounters {
            cycles: r.u64()?,
            committed: r.u64()?,
            lsq_full_cycles: r.u64()?,
            fetch_slots_used: r.u64()?,
            squashes: r.u64()?,
            syscall_drain_cycles: r.u64()?,
        };
        let dispatch_fifo = IndexedQueue::decode_with(r, |_| Ok(()))?;
        let mut m = SmtMachine {
            view_buf: Vec::with_capacity(cfg.threads),
            squash_buf: Vec::new(),
            trace: None,
            attr: None,
            l2_rot: 0,
            wake: WakeArena::default(),
            int_ready: Vec::with_capacity(cfg.int_iq_size),
            fp_ready: Vec::with_capacity(cfg.fp_iq_size),
            next_age: 0,
            calendar: Calendar::new(cfg.max_latency()),
            due_buf: Vec::new(),
            skip_enabled: true,
            skipped_cycles: 0,
            cfg,
            cycle,
            mem,
            bpred,
            threads,
            int_iq,
            fp_iq,
            lsq,
            free_int_regs,
            free_fp_regs,
            int_div_free_at,
            fp_div_free_at,
            pending_syscalls,
            global,
            dispatch_fifo,
        };
        // The wake chains, `pending` counters, ready lists and calendar
        // are transient (not part of the byte format) and the queue decode
        // does not preserve slab indices, so recompute them from the
        // decoded windows/queues.
        m.rebuild_wake_state();
        Ok(m)
    }

    /// Recompute the transient acceleration state (wake chains,
    /// per-entry `pending` counters and age stamps, ready lists, the
    /// completion calendar) from the architecturally serialized state:
    /// windows, queues and `deps`. Used after decode; `Clone` preserves
    /// the state directly.
    fn rebuild_wake_state(&mut self) {
        self.wake.clear();
        self.calendar.clear();
        for ctx in &mut self.threads {
            for op in ctx.window.iter_mut() {
                op.wake_head = NO_WAKE;
                if let Stage::Executing { done_at } = op.stage {
                    let due = done_at.max(self.cycle);
                    self.calendar.insert(self.cycle, due, ctx.tid, op.seq);
                }
            }
        }
        self.int_ready.clear();
        self.fp_ready.clear();
        self.next_age = 0;
        for is_fp in [false, true] {
            let queue = if is_fp { &self.fp_iq } else { &self.int_iq };
            // Collect first: registration mutates windows and the arena
            // while the cursor walk borrows the queue.
            let mut entries: Vec<(u32, Tid, u64, [Option<u64>; 2])> = Vec::new();
            let mut idx = queue.first();
            while idx != NIL {
                let (tid, seq) = queue.key(idx);
                entries.push((idx, tid, seq, queue.payload(idx).deps));
                idx = queue.next_of(idx);
            }
            for (slot, tid, seq, deps) in entries {
                let ctx = &mut self.threads[tid.idx()];
                let oldest = ctx.window.front().map_or(u64::MAX, |f| f.seq);
                let mut pending = 0u8;
                for dep in deps.iter().copied().flatten() {
                    if dep < oldest {
                        continue; // producer already committed
                    }
                    if let Some(i) = find_seq(&ctx.window, dep) {
                        if !ctx.window[i].is_done() {
                            pending += 1;
                            let head = ctx.window[i].wake_head;
                            ctx.window[i].wake_head = self.wake.alloc(WakeNode {
                                fp: is_fp,
                                slot,
                                waiter_seq: seq,
                                next: head,
                            });
                        }
                    }
                }
                let (q, ready) = if is_fp {
                    (&mut self.fp_iq, &mut self.fp_ready)
                } else {
                    (&mut self.int_iq, &mut self.int_ready)
                };
                let d = q.payload_mut(slot);
                d.pending = pending;
                d.age = self.next_age;
                self.next_age += 1;
                if pending == 0 {
                    ready.push(slot);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // public accessors
    // ------------------------------------------------------------------

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    pub fn global(&self) -> &GlobalCounters {
        &self.global
    }

    pub fn counters(&self, tid: Tid) -> &ThreadCounters {
        &self.threads[tid.idx()].counters
    }

    /// Copy every thread's status indicators at the current cycle, for
    /// telemetry export and per-interval deltas
    /// ([`crate::counters::CounterSnapshot::delta`]).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        self.counter_snapshot_into(&mut out);
        out
    }

    /// Refill an existing snapshot in place — the zero-allocation variant
    /// of [`Self::counter_snapshot`] for per-quantum telemetry loops: after
    /// the first call the thread vector is warm and nothing allocates.
    pub fn counter_snapshot_into(&self, out: &mut CounterSnapshot) {
        out.cycle = self.cycle;
        out.skipped_cycles = self.skipped_cycles;
        out.threads
            .resize(self.threads.len(), ThreadCounters::default());
        for (dst, src) in out.threads.iter_mut().zip(&self.threads) {
            dst.clone_from(&src.counters);
        }
    }

    /// Is event-horizon cycle skipping active on this machine?
    pub fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    /// Turn event-horizon cycle skipping on or off. Skipping is a pure
    /// host-side acceleration: both settings simulate bit-identically
    /// (golden suites, `tests/proptest_skip.rs`); off only forces
    /// [`SmtMachine::run`] back to cycle-by-cycle stepping.
    pub fn set_skip_enabled(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// Cycles this machine advanced through skip windows instead of
    /// stepping (0 with skipping disabled). Host observability only —
    /// not architectural state, not serialized.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Committed instructions across all threads.
    pub fn total_committed(&self) -> u64 {
        self.global.committed
    }

    /// Aggregate IPC since reset.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.global.committed as f64 / self.cycle as f64
        }
    }

    /// Enable pipeline event tracing with a ring of `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(TraceBuffer::new(cap));
    }

    /// Disable tracing, returning the buffer (if any).
    pub fn disable_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Enable slot-loss attribution (per-thread CPI stacks). Runs on the
    /// same instrumented monomorphization as event tracing; simulated
    /// behavior is unchanged (`tests/obs_differential.rs`).
    pub fn enable_attr(&mut self) {
        self.attr = Some(Box::new(SlotAttribution::new(self.threads.len())));
    }

    /// Disable attribution, returning the accumulated stacks (if any).
    pub fn disable_attr(&mut self) -> Option<SlotAttribution> {
        self.attr.take().map(|b| *b)
    }

    /// The attribution state, if enabled.
    pub fn attr(&self) -> Option<&SlotAttribution> {
        self.attr.as_deref()
    }

    /// Set this core's shared-L2 arbitration-rotation position (trace
    /// context only; see the `l2_rot` field). [`crate::MultiCoreMachine`]
    /// stamps each core with its rotation index at assembly.
    pub fn set_l2_rot(&mut self, rot: u8) {
        self.l2_rot = rot;
    }

    /// This core's shared-L2 arbitration-rotation position.
    pub fn l2_rot(&self) -> u8 {
        self.l2_rot
    }

    #[inline]
    fn trace_push(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// ADTS thread-control flag: enable/disable fetching for a context.
    pub fn set_fetch_enabled(&mut self, tid: Tid, enabled: bool) {
        self.threads[tid.idx()].fetch_enabled = enabled;
    }

    pub fn fetch_enabled(&self, tid: Tid) -> bool {
        self.threads[tid.idx()].fetch_enabled
    }

    /// Profile of the application running on `tid`.
    pub fn thread_profile(&self, tid: Tid) -> &smt_isa::AppProfile {
        self.threads[tid.idx()].stream.profile()
    }

    /// Total micro-ops `tid`'s stream has handed to the front end so far.
    /// Trace capture uses this to learn how deep a run consumed each
    /// per-thread stream (wrong-path ops come from a separate generator
    /// and are not counted).
    pub fn stream_generated(&self, tid: Tid) -> u64 {
        self.threads[tid.idx()].stream.generated()
    }

    /// Policy views for all threads (not just fetchable ones). Reuses the
    /// machine's internal scratch buffer, so repeated calls never allocate;
    /// the slice is valid until the next `views()` call or `step`.
    pub fn views(&mut self) -> &[PolicyView] {
        let cycle = self.cycle;
        let threads = &self.threads;
        self.view_buf.clear();
        self.view_buf.extend(
            threads
                .iter()
                .map(|t| PolicyView::of(t.tid, &t.counters, cycle)),
        );
        &self.view_buf
    }

    /// Fill `out` with policy views for all threads — for callers that
    /// hold their own buffer across quanta.
    pub fn views_into(&self, out: &mut Vec<PolicyView>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .map(|t| PolicyView::of(t.tid, &t.counters, self.cycle)),
        );
    }

    /// Total in-flight micro-ops (all windows).
    pub fn total_inflight(&self) -> usize {
        self.threads.iter().map(|t| t.window.len()).sum()
    }

    /// Current occupancy of the shared integer instruction queue.
    pub fn int_iq_len(&self) -> usize {
        self.int_iq.len()
    }

    /// Current occupancy of the shared floating-point instruction queue.
    pub fn fp_iq_len(&self) -> usize {
        self.fp_iq.len()
    }

    /// Current occupancy of the shared load/store queue.
    pub fn lsq_len(&self) -> usize {
        self.lsq.len()
    }

    /// In-flight ops in one thread's reorder window.
    pub fn window_len(&self, tid: Tid) -> usize {
        self.threads[tid.idx()].window.len()
    }

    /// Record a fetch-policy switch in the event trace (no-op unless
    /// tracing is enabled). `from`/`to` index `FetchPolicy::ALL`; the
    /// scheduling layer calls this when it retargets the TSU, since the
    /// machine itself is policy-agnostic.
    pub fn note_policy_switch(&mut self, from: u8, to: u8) {
        let cycle = self.cycle;
        self.trace_push(TraceEvent::PolicySwitch { cycle, from, to });
    }

    // ------------------------------------------------------------------
    // the cycle
    // ------------------------------------------------------------------

    /// Is any instrumentation (event trace or slot attribution) live?
    #[inline]
    fn instrumented(&self) -> bool {
        self.trace.is_some() || self.attr.is_some()
    }

    /// Advance one cycle under the given fetch policy.
    pub fn step<C: FetchChooser>(&mut self, chooser: &mut C) {
        if self.instrumented() {
            self.step_impl::<C, true>(chooser);
        } else {
            self.step_impl::<C, false>(chooser);
        }
    }

    /// Run `cycles` cycles. The instrumentation check is hoisted out of
    /// the loop: with tracing and attribution off (every sweep and bench)
    /// the whole quantum runs in the uninstrumented monomorphization, with
    /// no per-event branches anywhere in the pipeline.
    ///
    /// With [`SmtMachine::skip_enabled`] (the default), pure-stall cycles
    /// — cycles in which no thread can fetch, dispatch, issue, complete
    /// or commit — are fast-forwarded to the next event in one jump
    /// instead of being stepped one by one. The run is bit-identical
    /// either way; skipping never crosses the `cycles` bound, so quantum
    /// boundaries (snapshots, batch fork points, policy switches) land on
    /// exactly the same cycles. With slot attribution enabled every cycle
    /// is stepped, so the CPI stacks come from the stepped stages alone;
    /// event tracing alone keeps skipping (a stall window emits no
    /// events).
    pub fn run<C: FetchChooser>(&mut self, cycles: u64, chooser: &mut C) {
        let end = self.cycle + cycles;
        if self.instrumented() {
            self.run_impl::<C, true>(end, chooser);
        } else {
            self.run_impl::<C, false>(end, chooser);
        }
    }

    fn run_impl<C: FetchChooser, const TRACE: bool>(&mut self, end: u64, chooser: &mut C) {
        while self.cycle < end {
            if self.skip_enabled {
                if let Some(horizon) = self.stall_horizon() {
                    // `stall_horizon` only yields cycles strictly ahead of
                    // `self.cycle`, so the window is never empty.
                    let k = horizon.min(end) - self.cycle;
                    self.skip_cycles(k);
                    continue;
                }
            }
            self.step_impl::<C, TRACE>(chooser);
        }
    }

    /// One cycle, monomorphized on whether any instrumentation (event
    /// trace or slot attribution) is live. `TRACE` must match
    /// [`Self::instrumented`]; `step`/`run` guarantee it. Every trace
    /// emission site still checks `self.trace`, and every attribution hook
    /// checks `self.attr`, so either can be on without the other.
    fn step_impl<C: FetchChooser, const TRACE: bool>(&mut self, chooser: &mut C) {
        debug_assert_eq!(TRACE, self.instrumented());
        if TRACE {
            self.attr_begin_cycle();
        }
        self.complete::<TRACE>();
        self.commit::<TRACE>();
        self.issue::<TRACE>();
        self.dispatch::<TRACE>();
        self.fetch::<C, TRACE>(chooser);
        self.end_cycle();
    }

    // ------------------------------------------------------------------
    // event-horizon fast-forward
    // ------------------------------------------------------------------
    //
    // A *pure-stall cycle* is one in which no stage can act: nothing
    // completes or commits, no queue entry can obtain a unit, the
    // dispatch head is stalled, and no thread is fetchable. Every effect
    // such a cycle has on the machine is a closed-form function of the
    // frozen state (stall accounting, decay, the LSQ-full charges), so a
    // maximal window of them can be applied in one `skip_cycles` call.
    // `stall_horizon` computes the window end: the earliest cycle at
    // which any state the pipeline consults can change — the completion
    // calendar's next occupied bucket, front-end `ready_at`, divider
    // reservations, and the per-thread icache/redirect/migration stall
    // expiries. Every deadline is state the machine already tracks (the
    // load-delay-tracking observation: long-latency events publish their
    // deadlines when they begin), so the check is O(threads + ready
    // entries) and allocation-free, and `run` pays it every cycle: a busy
    // cycle answers at the first probe. Slot attribution is left to
    // stepping: an attributed machine never skips.

    /// If the current cycle is a pure-stall cycle, the earliest future
    /// cycle at which any architectural state can change (`u64::MAX`
    /// when nothing is in flight at all, e.g. every context parked);
    /// `None` if some stage can act this cycle and stepping must proceed,
    /// and always `None` while slot attribution is live.
    pub(crate) fn stall_horizon(&self) -> Option<u64> {
        if self.attr.is_some() {
            return None;
        }
        let now = self.cycle;
        let mut horizon = u64::MAX;

        // Complete / commit: an occupied bucket now means completions to
        // drain (its next occupied one is a horizon candidate, taken last);
        // any Done window head would retire.
        if self.calendar.is_due(now) {
            return None;
        }
        for ctx in &self.threads {
            if let Some(head) = ctx.window.front() {
                if head.is_done() {
                    return None;
                }
            }
        }

        // Drained-syscall execution fires the cycle nothing but the
        // pending syscalls remains in flight; every term is frozen during
        // a stall window, so it either fires now or not within it.
        if let Some(&q) = self.pending_syscalls.front() {
            if self.total_inflight() == self.pending_syscalls.len() {
                let ctx = &self.threads[q.tid.idx()];
                if let Some(i) = find_seq(&ctx.window, q.seq) {
                    if ctx.window[i].in_front_end() {
                        return None;
                    }
                }
            }
        }

        // Issue: per-cycle unit/port budgets reset every cycle, so any
        // dep-ready entry issues now — except divides gated by a busy
        // divider, whose release cycle is a horizon candidate.
        for &idx in &self.int_ready {
            match self.int_iq.payload(idx).kind {
                OpKind::IntDiv => {
                    if self.cfg.int_alus > 0 {
                        if self.int_div_free_at <= now {
                            return None;
                        }
                        horizon = horizon.min(self.int_div_free_at);
                    }
                }
                OpKind::Load | OpKind::Store => {
                    if self.cfg.ldst_ports > 0 {
                        return None;
                    }
                }
                // Handled by the drain path, never issued from here.
                OpKind::Syscall => {}
                _ => {
                    if self.cfg.int_alus > 0 {
                        return None;
                    }
                }
            }
        }
        if self.cfg.fp_units > 0 {
            for &idx in &self.fp_ready {
                if self.fp_iq.payload(idx).kind == OpKind::FpDiv {
                    if self.fp_div_free_at <= now {
                        return None;
                    }
                    horizon = horizon.min(self.fp_div_free_at);
                } else {
                    return None;
                }
            }
        }

        // Dispatch: a head still in the decode pipe publishes its
        // `ready_at` as a deadline. A ready head *blocked* by a hazard
        // pins the front end until an issue or commit frees the resource
        // — event-driven, already covered by the completion deadlines
        // above (the LSQ-full charge it accrues meanwhile is replayed by
        // `skip_cycles`).
        if self.cfg.dispatch_width > 0 {
            match self.dispatch_head() {
                DispatchHead::Bubble | DispatchHead::Syscall | DispatchHead::Ready { .. } => {
                    return None
                }
                DispatchHead::Decoding { ready_at } => horizon = horizon.min(ready_at),
                DispatchHead::Empty
                | DispatchHead::Stuck
                | DispatchHead::IqFull
                | DispatchHead::LsqFull { .. }
                | DispatchHead::NoFreeReg => {}
            }
        }

        // Fetch: a fetchable thread fetches (the machine-wide drain
        // suppresses fetch entirely, so fetchability is moot then). A
        // thread blocked *only* by timed stalls becomes fetchable at
        // their expiry; one also blocked structurally (full window or
        // fetch buffer) unblocks via commit/dispatch events instead.
        if self.pending_syscalls.is_empty() {
            for ctx in &self.threads {
                if !ctx.fetch_enabled {
                    continue;
                }
                if ctx.fetchable(now, &self.cfg) {
                    return None;
                }
                if ctx.window.len() < self.cfg.rob_per_thread
                    && (ctx.counters.front_end_occ as usize) < self.cfg.fetch_buffer_per_thread
                {
                    let expiry = ctx
                        .migration_stall_until
                        .max(ctx.icache_stall_until)
                        .max(ctx.redirect_stall_until);
                    debug_assert!(expiry > now, "unstalled thread classified unfetchable");
                    horizon = horizon.min(expiry);
                }
            }
        }

        // The next completion. Its bucket may hold only stale entries of
        // squashed ops, which can land the machine on a cycle where
        // `complete` (identically) finds nothing to do — never skip past
        // a completion.
        if let Some(due) = self.calendar.next_due(now + 1) {
            horizon = horizon.min(due);
        }

        debug_assert!(horizon > now);
        Some(horizon)
    }

    /// Fast-forward `k` cycles of a pure-stall window (the caller has
    /// established via [`SmtMachine::stall_horizon`] that no stage can
    /// act before `self.cycle + k`), applying exactly the per-cycle
    /// effects cycle-by-cycle stepping would have produced: LSQ-full and
    /// syscall-drain charges, and stall accounting with decay interleaved
    /// at period boundaries.
    pub(crate) fn skip_cycles(&mut self, k: u64) {
        debug_assert!(k >= 1);
        let now = self.cycle;
        let end = now + k;
        let drain = !self.pending_syscalls.is_empty();

        if self.cfg.dispatch_width > 0 {
            if let DispatchHead::LsqFull { ti } = self.dispatch_head() {
                self.threads[ti].counters.lsq_full_cycles += k;
            }
        }
        if self.lsq.len() >= self.cfg.lsq_size {
            self.global.lsq_full_cycles += k;
        }
        if drain {
            self.global.syscall_drain_cycles += k;
        }

        // Per-thread stall accounting, with the periodic decay applied
        // at exactly the cycles `end_cycle` would have: segment the
        // window at decay boundaries (increment-then-halve order within
        // a cycle, decay when the post-increment cycle count is a
        // multiple of the period).
        let period = self.cfg.decay_period;
        let mut c = now;
        while c < end {
            let boundary = (c / period + 1) * period;
            let seg_end = boundary.min(end);
            let seg = seg_end - c;
            for ti in 0..self.threads.len() {
                let accrues = {
                    let ctx = &self.threads[ti];
                    ctx.fetch_enabled && (drain || ctx.fetch_blocked(now, &self.cfg))
                };
                let ctx = &mut self.threads[ti];
                if accrues {
                    ctx.counters.fetch_stall_cycles += seg;
                    ctx.counters.recent_stalls += seg;
                }
                if seg_end == boundary {
                    ctx.counters.decay();
                }
            }
            c = seg_end;
        }

        self.cycle = end;
        self.global.cycles = end;
        self.skipped_cycles += k;
    }

    // ------------------------------------------------------------------
    // stage 1: complete
    // ------------------------------------------------------------------

    fn complete<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        if !self.calendar.is_due(now) {
            return;
        }
        // Completions run in (tid, seq) order, as a window-by-window scan
        // would visit them: predictor training updates saturating
        // counters, and squashes apply in this order too. Mispredict
        // squashes are collected first, then applied. Both buffers are
        // machine fields, kept empty between cycles — no allocation on
        // the hot path.
        let mut due = std::mem::take(&mut self.due_buf);
        self.calendar.drain(now, &mut due);
        due.sort_unstable();
        let mut squashes = std::mem::take(&mut self.squash_buf);
        debug_assert!(squashes.is_empty());
        let mut trace = if TRACE { self.trace.take() } else { None };
        for &(tid, seq) in &due {
            let ti = tid.idx();
            let ctx = &mut self.threads[ti];
            // Stale entries of squashed or flushed ops: the seq is gone
            // (seqs are never reused) or, defensively, not executing.
            let Some(i) = find_seq(&ctx.window, seq) else {
                continue;
            };
            let op = &mut ctx.window[i];
            match op.stage {
                Stage::Executing { done_at } if done_at <= now => {}
                _ => continue,
            }
            op.stage = Stage::Done;
            let wake_head = std::mem::replace(&mut op.wake_head, NO_WAKE);
            // Copy the facts out so counter updates don't fight the
            // window borrow (MicroOp is Copy).
            let uop = op.uop;
            if TRACE {
                if let Some(t) = &mut trace {
                    t.push(TraceEvent::Complete {
                        cycle: now,
                        tid,
                        seq,
                    });
                }
            }
            let (wrong_path, mispredicted, dmiss, pht_index, hist) = (
                op.wrong_path,
                op.mispredicted,
                op.dmiss,
                op.pht_index,
                op.history_at_fetch,
            );
            // Wake this producer's registered waiters: O(waiters)
            // counter decrements instead of every blocked entry
            // re-searching the window each cycle. A stale node (its
            // waiter was squashed after registering) fails the slot
            // revalidation and is simply dropped. A waiter whose last
            // producer this was joins its queue's ready list.
            let mut widx = wake_head;
            while widx != NO_WAKE {
                let node = self.wake.nodes[widx as usize];
                let (queue, ready) = if node.fp {
                    (&mut self.fp_iq, &mut self.fp_ready)
                } else {
                    (&mut self.int_iq, &mut self.int_ready)
                };
                if queue.entry_matches(node.slot, tid, node.waiter_seq) {
                    let p = queue.payload_mut(node.slot);
                    debug_assert!(p.pending > 0, "wake underflow");
                    p.pending = p.pending.saturating_sub(1);
                    if p.pending == 0 {
                        let age = p.age;
                        let pos = ready.partition_point(|&s| queue.payload(s).age < age);
                        ready.insert(pos, node.slot);
                    }
                }
                self.wake.free.push(widx);
                widx = node.next;
            }
            match uop.kind {
                OpKind::Branch => {
                    if uop.is_cond_branch() {
                        ctx.counters.inflight_branches -= 1;
                    }
                    if !wrong_path {
                        if let Some(b) = uop.branch {
                            if b.kind == BranchKind::Conditional {
                                ctx.counters.branches_resolved += 1;
                                self.bpred.train(uop.pc, pht_index, b.taken);
                            }
                            if mispredicted {
                                let outcome =
                                    (b.kind == BranchKind::Conditional).then_some(b.taken);
                                squashes.push((ti, seq, hist, outcome));
                            }
                        }
                    }
                }
                OpKind::Load => {
                    if dmiss {
                        ctx.counters.outstanding_dmiss -= 1;
                    }
                    ctx.counters.inflight_loads -= 1;
                    ctx.counters.inflight_mem -= 1;
                }
                OpKind::Store => {
                    ctx.counters.inflight_mem -= 1;
                }
                _ => {}
            }
        }
        due.clear();
        self.due_buf = due;
        if TRACE {
            self.trace = trace.take();
        }
        for (ti, seq, hist, outcome) in squashes.drain(..) {
            self.bpred.repair_history(Tid(ti as u8), hist, outcome);
            self.squash_after::<TRACE>(ti, seq);
        }
        self.squash_buf = squashes;
    }

    /// Squash every op of thread `ti` younger than `seq` and redirect fetch.
    fn squash_after<const TRACE: bool>(&mut self, ti: usize, seq: u64) {
        let now = self.cycle;
        let cut = {
            let ctx = &self.threads[ti];
            // First index with seq greater than the branch.
            let (a, b) = ctx.window.as_slices();
            let in_a = a.partition_point(|op| op.seq <= seq);
            if in_a < a.len() {
                in_a
            } else {
                a.len() + b.partition_point(|op| op.seq <= seq)
            }
        };
        let ctx = &mut self.threads[ti];
        let n_victims = ctx.window.len() - cut;
        // Return every resource each victim holds, accounting in place —
        // no drained victims Vec, no allocation.
        for i in cut..ctx.window.len() {
            let (stage, kind, is_cond, dmiss, dst, past_dispatch, done) = {
                let op = &ctx.window[i];
                (
                    op.stage,
                    op.uop.kind,
                    op.uop.is_cond_branch(),
                    op.dmiss,
                    op.uop.dst,
                    op.past_dispatch(),
                    op.is_done(),
                )
            };
            // A squashed producer takes its wake chain with it; its
            // waiters are younger ops of the same thread, squashed here
            // too, so no pending counter goes un-decremented. (A squashed
            // *waiter* may leave a stale node on an older surviving
            // producer; the drain's slot revalidation drops it.)
            let wake_head = std::mem::replace(&mut ctx.window[i].wake_head, NO_WAKE);
            self.wake.free_chain(wake_head);
            match stage {
                Stage::FrontEnd { .. } => ctx.counters.front_end_occ -= 1,
                Stage::Queued => ctx.counters.iq_occ -= 1,
                _ => {}
            }
            if !done {
                match kind {
                    OpKind::Branch if is_cond => ctx.counters.inflight_branches -= 1,
                    OpKind::Load => {
                        if dmiss && matches!(stage, Stage::Executing { .. }) {
                            ctx.counters.outstanding_dmiss -= 1;
                        }
                        ctx.counters.inflight_loads -= 1;
                        ctx.counters.inflight_mem -= 1;
                    }
                    OpKind::Store => ctx.counters.inflight_mem -= 1,
                    _ => {}
                }
            }
            if past_dispatch {
                if let Some(d) = dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
            }
        }
        ctx.window.truncate(cut);
        let tid = ctx.tid;
        // Purge shared structures of the squashed refs: O(victims) per
        // queue, touching only this thread's entries. The ready lists go
        // first, while the victims' slots still carry their keys; the
        // victims' calendar entries stay behind as stale.
        let min_gone = seq + 1;
        let victim = |(t, s): (Tid, u64)| t == tid && s >= min_gone;
        self.int_ready.retain(|&i| !victim(self.int_iq.key(i)));
        self.fp_ready.retain(|&i| !victim(self.fp_iq.key(i)));
        self.int_iq.squash_tail(tid, min_gone);
        self.fp_iq.squash_tail(tid, min_gone);
        self.lsq.squash_tail(tid, min_gone);
        self.dispatch_fifo.squash_tail(tid, min_gone);

        let ctx = &mut self.threads[ti];
        ctx.wrong_path_since = None;
        ctx.redirect_stall_until = now + 1;
        ctx.counters.squashes += 1;
        ctx.counters.mispredicts += 1;
        ctx.counters.recent_mispredicts += 1;
        self.global.squashes += 1;
        if TRACE {
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::Squash {
                    cycle: now,
                    tid,
                    after_seq: seq,
                    victims: n_victims,
                });
            }
        }
        // Rebuild the rename map from the surviving window.
        ctx.rename = [None; 64];
        for i in 0..ctx.window.len() {
            if let Some(d) = ctx.window[i].uop.dst {
                let s = ctx.window[i].seq;
                ctx.rename[d.flat()] = Some(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // stage 2: commit
    // ------------------------------------------------------------------

    fn commit<const TRACE: bool>(&mut self) {
        let n = self.threads.len();
        let mut budget = self.cfg.commit_width;
        let start = (self.cycle % n as u64) as usize;
        for k in 0..n {
            let ti = (start + k) % n;
            while budget > 0 {
                let ctx = &mut self.threads[ti];
                let Some(head) = ctx.window.front() else {
                    break;
                };
                if !head.is_done() {
                    break;
                }
                debug_assert!(!head.wrong_path, "wrong-path op reached commit");
                let op = ctx.window.pop_front().expect("head exists");
                budget -= 1;
                ctx.counters.committed += 1;
                self.global.committed += 1;
                if TRACE {
                    if let Some(t) = &mut self.trace {
                        t.push(TraceEvent::Commit {
                            cycle: self.cycle,
                            tid: ctx.tid,
                            seq: op.seq,
                        });
                    }
                }
                if let Some(d) = op.uop.dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
                let tid = ctx.tid;
                if op.uop.kind.is_mem() {
                    // The committing op is the thread's oldest memory op,
                    // so this probes the head of its per-thread list.
                    let removed = self.lsq.find_thread_remove(tid, op.seq);
                    debug_assert!(removed, "committed mem op missing from LSQ");
                }
                if op.uop.kind == OpKind::Syscall {
                    ctx.counters.syscalls += 1;
                    let popped = self.pending_syscalls.pop_front();
                    debug_assert_eq!(
                        popped.map(|q| (q.tid, q.seq)),
                        Some((Tid(ti as u8), op.seq)),
                        "drain FIFO out of sync"
                    );
                }
            }
        }
        if TRACE {
            self.attr_commit(budget);
        }
    }

    // ------------------------------------------------------------------
    // stage 3: issue
    // ------------------------------------------------------------------

    /// Are all producers in `deps` complete? The pre-readiness-tracking
    /// window binary search — retained as the *reference oracle* for the
    /// `pending` counters (cross-checked by the issue stage's debug
    /// asserts, [`Self::check_invariants`], and the readiness microtests
    /// and proptests, via [`Self::deps_ready_search`]).
    fn deps_ready(ctx: &ThreadCtx, deps: &[Option<u64>; 2]) -> bool {
        let oldest = match ctx.window.front() {
            Some(f) => f.seq,
            None => return true,
        };
        for dep in deps.iter().copied().flatten() {
            if dep < oldest {
                continue; // producer already committed
            }
            match find_seq(&ctx.window, dep) {
                Some(i) => {
                    if !ctx.window[i].is_done() {
                        return false;
                    }
                }
                None => {
                    debug_assert!(false, "live op depends on squashed producer");
                }
            }
        }
        true
    }

    /// Public face of the reference oracle: judge `deps` of thread `tid`
    /// by binary-searching the window, exactly as the issue stage did
    /// before readiness tracking. Cold path, for differential tests.
    pub fn deps_ready_search(&self, tid: Tid, deps: &[Option<u64>; 2]) -> bool {
        Self::deps_ready(&self.threads[tid.idx()], deps)
    }

    /// Readiness counter of the queued op `(tid, seq)`: `Some(pending)`
    /// if the op currently sits in an instruction queue, else `None`.
    /// O(thread queue length); for tests and invariant checks only.
    pub fn queued_pending(&self, tid: Tid, seq: u64) -> Option<u8> {
        for queue in [&self.int_iq, &self.fp_iq] {
            let mut idx = queue.first();
            while idx != NIL {
                let (t, s) = queue.key(idx);
                if t == tid && s == seq {
                    return Some(queue.payload(idx).pending);
                }
                idx = queue.next_of(idx);
            }
        }
        None
    }

    fn issue<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        if TRACE {
            self.attr_issue_begin();
        }
        // Drained syscall execution (bypasses the queues entirely).
        if let Some(&q) = self.pending_syscalls.front() {
            // Drained when nothing is in flight except the pending syscalls
            // themselves (several threads may have fetched one in the same
            // cycle; they execute one at a time in FIFO order).
            if self.total_inflight() == self.pending_syscalls.len() {
                let ctx = &mut self.threads[q.tid.idx()];
                if let Some(i) = find_seq(&ctx.window, q.seq) {
                    if ctx.window[i].in_front_end() {
                        let done_at = now + self.cfg.syscall_latency;
                        ctx.window[i].stage = Stage::Executing { done_at };
                        self.calendar
                            .insert(now, done_at.max(now + 1), q.tid, q.seq);
                        ctx.counters.front_end_occ -= 1;
                    }
                }
            }
        }

        let mut budget = self.cfg.issue_width;
        let mut int_units = self.cfg.int_alus;
        let mut fp_units = self.cfg.fp_units;
        let mut ldst_ports = self.cfg.ldst_ports;

        // Issue frees the queue slot; long-latency *dep-blocked* ops are
        // what clog the queues (Tullsen's "IQ clog"), not issued ops.
        // Oldest-first over the ready lists: the dep-blocked entries an
        // age walk of the whole queue would pass over are never visited.
        // Issued entries are unlinked from the queue in O(1) and leave
        // the ready list in the same pass.
        let mut ready = std::mem::take(&mut self.int_ready);
        ready.retain(|&idx| {
            let issued = budget > 0
                && self.try_issue_int::<TRACE>(idx, now, &mut int_units, &mut ldst_ports);
            if issued {
                self.int_iq.remove(idx);
                budget -= 1;
            }
            !issued
        });
        self.int_ready = ready;

        let mut ready = std::mem::take(&mut self.fp_ready);
        ready.retain(|&idx| {
            let issued =
                budget > 0 && fp_units > 0 && self.try_issue_fp::<TRACE>(idx, now, &mut fp_units);
            if issued {
                self.fp_iq.remove(idx);
                budget -= 1;
            }
            !issued
        });
        self.fp_ready = ready;
        if TRACE {
            self.attr_issue_end(budget);
        }
    }

    fn try_issue_int<const TRACE: bool>(
        &mut self,
        idx: u32,
        now: u64,
        int_units: &mut usize,
        ldst_ports: &mut usize,
    ) -> bool {
        let cfg_lat_mul = self.cfg.lat_int_mul;
        let cfg_lat_div = self.cfg.lat_int_div;
        let (tid, seq) = self.int_iq.key(idx);
        let q = QRef { tid, seq };
        let d = *self.int_iq.payload(idx);
        // Only ready-list entries get here: the wake chains keep
        // `pending` current, so readiness needs no window search at all.
        // `deps_ready` is kept as the reference oracle and cross-checked
        // in debug builds.
        debug_assert_eq!(d.pending, 0, "dep-blocked entry on the ready list");
        debug_assert!(
            Self::deps_ready(&self.threads[tid.idx()], &d.deps),
            "pending == 0 but search says blocked"
        );
        let done_at = match d.kind {
            OpKind::IntAlu | OpKind::Nop | OpKind::Branch => {
                if *int_units == 0 {
                    return false;
                }
                *int_units -= 1;
                now + 1
            }
            OpKind::IntMul => {
                if *int_units == 0 {
                    return false;
                }
                *int_units -= 1;
                now + cfg_lat_mul
            }
            OpKind::IntDiv => {
                if *int_units == 0 || self.int_div_free_at > now {
                    return false;
                }
                *int_units -= 1;
                self.int_div_free_at = now + cfg_lat_div;
                now + cfg_lat_div
            }
            OpKind::Load => {
                if *ldst_ports == 0 {
                    return false;
                }
                *ldst_ports -= 1;
                return self.issue_load::<TRACE>(q, now);
            }
            OpKind::Store => {
                if *ldst_ports == 0 {
                    return false;
                }
                *ldst_ports -= 1;
                return self.issue_store::<TRACE>(q, now);
            }
            OpKind::Syscall => return false, // handled by the drain path
            _ => unreachable!("fp op in int queue"),
        };
        let ctx = &mut self.threads[q.tid.idx()];
        let Some(i) = find_seq(&ctx.window, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        debug_assert!(ctx.window[i].is_queued(), "issued op left in queue");
        ctx.window[i].stage = Stage::Executing { done_at };
        self.calendar
            .insert(now, done_at.max(now + 1), q.tid, q.seq);
        ctx.counters.iq_occ -= 1;
        if TRACE {
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at,
            });
        }
        true
    }

    fn issue_load<const TRACE: bool>(&mut self, q: QRef, now: u64) -> bool {
        let ti = q.tid.idx();
        let i = find_seq(&self.threads[ti].window, q.seq).expect("checked");
        let uop = self.threads[ti].window[i].uop;
        let wrong_path = self.threads[ti].window[i].wrong_path;
        let addr = uop.mem.expect("load has mem").addr;
        let addr8 = addr >> 3;
        // Store-to-load forwarding: an older in-flight store to the same
        // 8-byte word supplies the value without a cache access. Only this
        // thread's LSQ entries are walked.
        let forwarded = self
            .lsq
            .iter_thread(q.tid)
            .any(|(seq, e)| e.is_store && seq < q.seq && e.addr8 == addr8);
        let (lat, l1_miss, l2_miss) = if forwarded {
            (2, false, false)
        } else {
            let r = self.mem.data(addr);
            (1 + r.latency, r.l1_miss, r.l2_miss)
        };
        let ctx = &mut self.threads[ti];
        ctx.window[i].stage = Stage::Executing { done_at: now + lat };
        self.calendar.insert(now, now + lat, q.tid, q.seq);
        ctx.window[i].dmiss = l1_miss;
        ctx.counters.iq_occ -= 1;
        if !wrong_path {
            ctx.counters.loads += 1;
        }
        if l1_miss {
            ctx.counters.l1d_misses += 1;
            ctx.counters.recent_l1d_misses += 1;
            ctx.counters.outstanding_dmiss += 1;
        }
        if l2_miss {
            ctx.counters.l2_misses += 1;
        }
        if TRACE {
            let rot = self.l2_rot;
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at: now + lat,
            });
            if l1_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L1D,
                    rot,
                });
            }
            if l2_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L2,
                    rot,
                });
            }
        }
        true
    }

    fn issue_store<const TRACE: bool>(&mut self, q: QRef, now: u64) -> bool {
        let ti = q.tid.idx();
        let i = find_seq(&self.threads[ti].window, q.seq).expect("checked");
        let uop = self.threads[ti].window[i].uop;
        let wrong_path = self.threads[ti].window[i].wrong_path;
        let addr = uop.mem.expect("store has mem").addr;
        // Write-allocate access now; the write buffer hides the miss
        // latency from the store itself.
        let r = self.mem.data(addr);
        let ctx = &mut self.threads[ti];
        ctx.window[i].stage = Stage::Executing { done_at: now + 1 };
        self.calendar.insert(now, now + 1, q.tid, q.seq);
        ctx.counters.iq_occ -= 1;
        if !wrong_path {
            ctx.counters.stores += 1;
        }
        if r.l1_miss {
            ctx.counters.l1d_misses += 1;
            ctx.counters.recent_l1d_misses += 1;
        }
        if r.l2_miss {
            ctx.counters.l2_misses += 1;
        }
        if TRACE {
            let rot = self.l2_rot;
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at: now + 1,
            });
            if r.l1_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L1D,
                    rot,
                });
            }
            if r.l2_miss {
                self.trace_push(TraceEvent::CacheMiss {
                    cycle: now,
                    tid: q.tid,
                    addr,
                    level: MissLevel::L2,
                    rot,
                });
            }
        }
        true
    }

    fn try_issue_fp<const TRACE: bool>(
        &mut self,
        idx: u32,
        now: u64,
        fp_units: &mut usize,
    ) -> bool {
        let (tid, seq) = self.fp_iq.key(idx);
        let q = QRef { tid, seq };
        let d = *self.fp_iq.payload(idx);
        debug_assert_eq!(d.pending, 0, "dep-blocked entry on the ready list");
        debug_assert!(
            Self::deps_ready(&self.threads[tid.idx()], &d.deps),
            "pending == 0 but search says blocked"
        );
        let done_at = match d.kind {
            OpKind::FpAlu => now + self.cfg.lat_fp_alu,
            OpKind::FpMul => now + self.cfg.lat_fp_mul,
            OpKind::FpDiv => {
                if self.fp_div_free_at > now {
                    return false;
                }
                self.fp_div_free_at = now + self.cfg.lat_fp_div;
                now + self.cfg.lat_fp_div
            }
            _ => unreachable!("non-fp op in fp queue"),
        };
        *fp_units -= 1;
        let ctx = &mut self.threads[q.tid.idx()];
        let Some(i) = find_seq(&ctx.window, q.seq) else {
            debug_assert!(false, "queue entry without window op");
            return false;
        };
        debug_assert!(ctx.window[i].is_queued(), "issued op left in queue");
        ctx.window[i].stage = Stage::Executing { done_at };
        self.calendar
            .insert(now, done_at.max(now + 1), q.tid, q.seq);
        ctx.counters.iq_occ -= 1;
        if TRACE {
            self.trace_push(TraceEvent::Issue {
                cycle: now,
                tid: q.tid,
                seq: q.seq,
                done_at,
            });
        }
        true
    }

    // ------------------------------------------------------------------
    // stage 4: dispatch
    // ------------------------------------------------------------------

    /// Classify the dispatch head against the in-order front end's
    /// hazard cascade, without side effects. The one copy of the cascade:
    /// `dispatch` acts on it, `stall_horizon` reads a deadline from it and
    /// `skip_cycles` replays its LSQ-full charge.
    fn dispatch_head(&self) -> DispatchHead {
        let Some((tid, seq, _)) = self.dispatch_fifo.front() else {
            return DispatchHead::Empty;
        };
        let ti = tid.idx();
        let Some(i) = find_seq(&self.threads[ti].window, seq) else {
            return DispatchHead::Bubble;
        };
        let op = &self.threads[ti].window[i];
        match op.stage {
            Stage::FrontEnd { ready_at } if ready_at <= self.cycle => {}
            Stage::FrontEnd { ready_at } => return DispatchHead::Decoding { ready_at },
            _ => return DispatchHead::Stuck,
        }
        let kind = op.uop.kind;
        if kind == OpKind::Syscall {
            return DispatchHead::Syscall;
        }
        let iq_full = if kind.is_fp() {
            self.fp_iq.len() >= self.cfg.fp_iq_size
        } else {
            self.int_iq.len() >= self.cfg.int_iq_size
        };
        if iq_full {
            return DispatchHead::IqFull;
        }
        if kind.is_mem() && self.lsq.len() >= self.cfg.lsq_size {
            return DispatchHead::LsqFull { ti };
        }
        if let Some(d) = op.uop.dst {
            let free = match d.class {
                RegClass::Int => self.free_int_regs,
                RegClass::Fp => self.free_fp_regs,
            };
            if free == 0 {
                return DispatchHead::NoFreeReg;
            }
        }
        DispatchHead::Ready { ti, i }
    }

    fn dispatch<const TRACE: bool>(&mut self) {
        let now = self.cycle;
        let mut budget = self.cfg.dispatch_width;
        while budget > 0 {
            let (ti, i) = match self.dispatch_head() {
                DispatchHead::Ready { ti, i } => (ti, i),
                // Syscalls hold no queue resources; they leave the decode
                // pipe and wait in the window for the machine-wide drain.
                DispatchHead::Bubble | DispatchHead::Syscall => {
                    self.dispatch_fifo.pop_front();
                    continue;
                }
                DispatchHead::LsqFull { ti } => {
                    self.threads[ti].counters.lsq_full_cycles += 1;
                    break;
                }
                // Structural hazards stall the whole in-order front end.
                DispatchHead::Empty
                | DispatchHead::Decoding { .. }
                | DispatchHead::Stuck
                | DispatchHead::IqFull
                | DispatchHead::NoFreeReg => break,
            };
            // Commit the dispatch.
            let tid = self.threads[ti].tid;
            let op = &self.threads[ti].window[i];
            let (seq, kind, deps) = (op.seq, op.uop.kind, op.deps);
            let is_fp = kind.is_fp();
            let addr8 = op.uop.mem.map(|m| m.addr >> 3);
            let is_store = kind == OpKind::Store;
            if let Some(d) = op.uop.dst {
                match d.class {
                    RegClass::Int => self.free_int_regs -= 1,
                    RegClass::Fp => self.free_fp_regs -= 1,
                }
            }
            let ctx = &mut self.threads[ti];
            ctx.window[i].stage = Stage::Queued;
            ctx.counters.front_end_occ -= 1;
            ctx.counters.iq_occ += 1;
            let data = IqData {
                kind,
                deps,
                pending: 0,
                age: self.next_age,
            };
            self.next_age += 1;
            let slot = if is_fp {
                self.fp_iq.push_back(tid, seq, data)
            } else {
                self.int_iq.push_back(tid, seq, data)
            };
            // Register on each live, not-yet-done producer: count it in
            // `pending` and link a wake node onto the producer's chain.
            // `complete` ran earlier this cycle, so a producer finishing
            // *now* already reads as Done — exactly what `deps_ready`
            // would conclude at this op's first issue attempt.
            let oldest = ctx.window.front().map(|f| f.seq).unwrap_or(u64::MAX);
            let mut pending = 0u8;
            for dep in deps.iter().copied().flatten() {
                if dep < oldest {
                    continue; // producer already committed
                }
                match find_seq(&ctx.window, dep) {
                    Some(p) => {
                        if !ctx.window[p].is_done() {
                            pending += 1;
                            let head = ctx.window[p].wake_head;
                            ctx.window[p].wake_head = self.wake.alloc(WakeNode {
                                fp: is_fp,
                                slot,
                                waiter_seq: seq,
                                next: head,
                            });
                        }
                    }
                    None => {
                        debug_assert!(false, "dispatched op depends on squashed producer");
                    }
                }
            }
            // The newest entry: a ready one goes at its list's tail.
            match (pending, is_fp) {
                (0, false) => self.int_ready.push(slot),
                (0, true) => self.fp_ready.push(slot),
                (_, false) => self.int_iq.payload_mut(slot).pending = pending,
                (_, true) => self.fp_iq.payload_mut(slot).pending = pending,
            }
            if let Some(a8) = addr8 {
                self.lsq.push_back(
                    tid,
                    seq,
                    LsqData {
                        addr8: a8,
                        is_store,
                    },
                );
            }
            self.dispatch_fifo.pop_front();
            if TRACE {
                self.trace_push(TraceEvent::Dispatch {
                    cycle: now,
                    tid,
                    seq,
                });
            }
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // stage 5: fetch
    // ------------------------------------------------------------------

    fn fetch<C: FetchChooser, const TRACE: bool>(&mut self, chooser: &mut C) {
        let now = self.cycle;
        // Account stalls for blocked-but-willing threads every cycle.
        for ctx in &mut self.threads {
            if (ctx.fetch_blocked(now, &self.cfg) || !self.pending_syscalls.is_empty())
                && ctx.fetch_enabled
            {
                ctx.counters.fetch_stall_cycles += 1;
                ctx.counters.recent_stalls += 1;
            }
        }
        if !self.pending_syscalls.is_empty() {
            self.global.syscall_drain_cycles += 1;
            if TRACE {
                self.attr_fetch(self.cfg.fetch_width, true);
            }
            return;
        }
        // Fetchable candidates, ordered by the policy.
        let mut views = std::mem::take(&mut self.view_buf);
        views.clear();
        for ctx in &self.threads {
            if ctx.fetchable(now, &self.cfg) {
                views.push(PolicyView::of(ctx.tid, &ctx.counters, now));
            }
        }
        chooser.prioritize(now, &mut views);
        let mut remaining = self.cfg.fetch_width;
        for v in views.iter().take(self.cfg.max_fetch_threads) {
            if remaining == 0 {
                break;
            }
            remaining -= self.fetch_thread::<TRACE>(v.tid, remaining);
        }
        self.view_buf = views;
        if TRACE {
            self.attr_fetch(remaining, false);
        }
    }

    /// Fetch up to `budget` ops from `tid`; returns how many were fetched.
    fn fetch_thread<const TRACE: bool>(&mut self, tid: Tid, budget: usize) -> usize {
        let now = self.cycle;
        let line_bytes = self.cfg.l1i.line_bytes as u64;
        let mut fetched = 0usize;
        let mut line: Option<u64> = None;
        while fetched < budget {
            let ctx = &self.threads[tid.idx()];
            if ctx.window.len() >= self.cfg.rob_per_thread
                || (ctx.counters.front_end_occ as usize) >= self.cfg.fetch_buffer_per_thread
            {
                break;
            }
            let wrong_path = ctx.wrong_path_since.is_some();
            let pc = if wrong_path {
                ctx.wp_pc
            } else {
                ctx.stream.current_pc()
            };
            // One I-cache line per thread per cycle.
            let this_line = pc / line_bytes;
            match line {
                None => line = Some(this_line),
                Some(l) if l != this_line => break,
                _ => {}
            }
            if fetched == 0 {
                // Access the line once per cycle (first op). A line whose
                // miss we already waited out is delivered from the fetch
                // buffer without re-probing (otherwise another thread could
                // evict it during the stall and livelock this one).
                if ctx.icache_ready_line == Some(this_line) {
                    self.threads[tid.idx()].icache_ready_line = None;
                } else {
                    let r = self.mem.fetch(pc);
                    if r.l1_miss {
                        let ctx = &mut self.threads[tid.idx()];
                        ctx.counters.l1i_misses += 1;
                        ctx.counters.recent_l1i_misses += 1;
                        if r.l2_miss {
                            ctx.counters.l2_misses += 1;
                        }
                        ctx.icache_stall_until = now + r.latency;
                        ctx.icache_ready_line = Some(this_line);
                        if TRACE {
                            let rot = self.l2_rot;
                            self.trace_push(TraceEvent::CacheMiss {
                                cycle: now,
                                tid,
                                addr: pc,
                                level: MissLevel::L1I,
                                rot,
                            });
                            if r.l2_miss {
                                self.trace_push(TraceEvent::CacheMiss {
                                    cycle: now,
                                    tid,
                                    addr: pc,
                                    level: MissLevel::L2,
                                    rot,
                                });
                            }
                        }
                        break;
                    }
                }
            }
            // Produce the op.
            let ctx = &mut self.threads[tid.idx()];
            let uop = if wrong_path {
                let op = ctx.wp_gen.next(ctx.wp_pc);
                ctx.wp_pc += 4;
                op
            } else {
                ctx.stream.next_uop()
            };
            let seq = ctx.next_seq;
            ctx.next_seq += 1;
            // Rename: resolve sources, then bind the destination.
            let dep1 = uop.src1.and_then(|r| ctx.rename[r.flat()]);
            let dep2 = uop.src2.and_then(|r| ctx.rename[r.flat()]);
            if let Some(d) = uop.dst {
                ctx.rename[d.flat()] = Some(seq);
            }
            let mut inflight = InFlight {
                seq,
                uop,
                wrong_path,
                deps: [dep1, dep2],
                stage: Stage::FrontEnd {
                    ready_at: now + self.cfg.front_end_latency,
                },
                mispredicted: false,
                dmiss: false,
                pht_index: 0,
                history_at_fetch: 0,
                fetched_at: now,
                wake_head: NO_WAKE,
            };
            // Gauges and cumulative fetch counters.
            ctx.counters.front_end_occ += 1;
            if wrong_path {
                ctx.counters.wrongpath_fetched += 1;
            } else {
                ctx.counters.fetched += 1;
            }
            self.global.fetch_slots_used += 1;
            match uop.kind {
                OpKind::Load => {
                    ctx.counters.inflight_loads += 1;
                    ctx.counters.inflight_mem += 1;
                }
                OpKind::Store => ctx.counters.inflight_mem += 1,
                _ => {}
            }
            let mut stop_after = false;
            if let Some(b) = uop.branch {
                if b.kind == BranchKind::Conditional && !wrong_path {
                    ctx.counters.cond_branches += 1;
                }
                if uop.is_cond_branch() {
                    ctx.counters.inflight_branches += 1;
                }
                let pred = self
                    .bpred
                    .predict(tid, uop.pc, b.kind, b.taken, !wrong_path);
                inflight.pht_index = pred.pht_index;
                inflight.history_at_fetch = pred.history_at_fetch;
                let mispredict = match b.kind {
                    BranchKind::Conditional => pred.taken != b.taken,
                    // Unconditional/call: direction always right; a BTB miss
                    // is a fetch break, not a mispredict.
                    BranchKind::Unconditional | BranchKind::Call => false,
                    // Empty-RAS returns are discovered wrong at resolve.
                    BranchKind::Return => !pred.target_known,
                };
                if !wrong_path && mispredict {
                    inflight.mispredicted = true;
                    let ctx = &mut self.threads[tid.idx()];
                    ctx.wrong_path_since = Some(seq);
                    // The wrong path is whichever direction the predictor
                    // chose: the target if predicted taken, else fall-through.
                    ctx.wp_pc = if pred.taken { b.target } else { uop.pc + 4 };
                }
                // No fetching past a predicted-taken branch in one cycle,
                // nor past a taken branch with an unknown target.
                if pred.taken || !pred.target_known {
                    stop_after = true;
                }
            }
            if uop.kind == OpKind::Syscall {
                // Begin the machine-wide drain once this is fetched.
                self.pending_syscalls.push_back(QRef { tid, seq });
                stop_after = true;
            }
            let kind = inflight.uop.kind;
            self.threads[tid.idx()].window.push_back(inflight);
            self.dispatch_fifo.push_back(tid, seq, ());
            if TRACE {
                self.trace_push(TraceEvent::Fetch {
                    cycle: now,
                    tid,
                    seq,
                    kind,
                    wrong_path,
                });
            }
            fetched += 1;
            if stop_after {
                break;
            }
        }
        fetched
    }

    /// Human-readable one-screen snapshot of the pipeline state: per-thread
    /// window occupancy by stage, shared-queue fill, and the drain state.
    /// Intended for interactive debugging and the examples.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {}  committed {}  IPC {:.3}  intq {}/{}  fpq {}/{}  lsq {}/{}  regs {}i/{}f  drain {}",
            self.cycle,
            self.global.committed,
            self.aggregate_ipc(),
            self.int_iq.len(),
            self.cfg.int_iq_size,
            self.fp_iq.len(),
            self.cfg.fp_iq_size,
            self.lsq.len(),
            self.cfg.lsq_size,
            self.free_int_regs,
            self.free_fp_regs,
            self.pending_syscalls.len(),
        );
        for ctx in &self.threads {
            let (mut fe, mut q, mut ex, mut done) = (0, 0, 0, 0);
            for op in &ctx.window {
                match op.stage {
                    Stage::FrontEnd { .. } => fe += 1,
                    Stage::Queued => q += 1,
                    Stage::Executing { .. } => ex += 1,
                    Stage::Done => done += 1,
                }
            }
            let _ = writeln!(
                out,
                "  {} {:<8} win {:>3} (fe {fe:>2} q {q:>2} ex {ex:>2} done {done:>2})  committed {:>8}  wp {}  {}",
                ctx.tid,
                ctx.stream.profile().name,
                ctx.window.len(),
                ctx.counters.committed,
                ctx.counters.wrongpath_fetched,
                if ctx.wrong_path_since.is_some() { "WRONG-PATH" } else { "" },
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // context switching (job-scheduler support)
    // ------------------------------------------------------------------

    /// Replace the job running on context `tid` with a fresh stream, as a
    /// job scheduler would: every in-flight op of the thread is flushed
    /// (its shared resources returned), the context state is reset, and
    /// fetch is blocked for `penalty` cycles to model state save/restore.
    ///
    /// Per-thread *cumulative* counters reset with the job (they describe
    /// the job, not the context); the machine-wide counters keep counting.
    pub fn replace_thread(&mut self, tid: Tid, stream: UopStream, penalty: u64) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        let base = stream.addr_base();
        let ws = stream.profile().data_ws_bytes;
        ctx.wp_gen = WrongPathGen::new(
            SplitMix64::derive(0xAD75 ^ tid.idx() as u64, stream.generated() ^ 7),
            base,
            ws,
        );
        ctx.stream = stream;
        ctx.counters = ThreadCounters::default();
        ctx.icache_stall_until = self.cycle + penalty;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = self.cycle + penalty;
        ctx.migration_stall_until = 0;
    }

    /// Extract `tid`'s architectural residue for a cross-core migration:
    /// flush every in-flight op (returning its shared resources), then
    /// park the context (fetch disabled, stalls cleared) and hand back
    /// the stream position plus cumulative counters. Microarchitectural
    /// state does not travel — the destination rebuilds it cold.
    pub fn migrate_out(&mut self, tid: Tid) -> MigratedThread {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        debug_assert_eq!(ctx.counters.front_end_occ, 0, "flush left frontend occ");
        debug_assert_eq!(ctx.counters.iq_occ, 0, "flush left IQ occ");
        let stream = ctx.stream.clone();
        let counters = std::mem::take(&mut ctx.counters);
        ctx.fetch_enabled = false;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = 0;
        MigratedThread { stream, counters }
    }

    /// Install a migrated thread into context `tid`: the slot is flushed,
    /// the stream position and cumulative counters are restored, the
    /// wrong-path generator is re-derived from the stream position (as in
    /// [`replace_thread`](Self::replace_thread)), and fetch is held for
    /// `penalty` cycles of cold-frontend stall attributed as
    /// [`crate::obs::FetchCause::Migration`].
    pub fn migrate_in(&mut self, tid: Tid, thread: MigratedThread, penalty: u64) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        let MigratedThread { stream, counters } = thread;
        let base = stream.addr_base();
        let ws = stream.profile().data_ws_bytes;
        ctx.wp_gen = WrongPathGen::new(
            SplitMix64::derive(0xAD75 ^ tid.idx() as u64, stream.generated() ^ 7),
            base,
            ws,
        );
        ctx.stream = stream;
        ctx.counters = counters;
        ctx.fetch_enabled = true;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = self.cycle + penalty;
    }

    /// Park context `tid`: fetch disabled, stalls cleared. Used by the
    /// multi-core constructor for slots above a core's initial occupancy.
    pub fn park_thread(&mut self, tid: Tid) {
        self.flush_thread(tid);
        let ctx = &mut self.threads[tid.idx()];
        ctx.counters = ThreadCounters::default();
        ctx.fetch_enabled = false;
        ctx.icache_stall_until = 0;
        ctx.icache_ready_line = None;
        ctx.redirect_stall_until = 0;
        ctx.migration_stall_until = 0;
    }

    /// Flush every in-flight op of `tid` and return its shared resources
    /// (queue slots, LSQ entries, rename registers, pending syscalls).
    pub fn flush_thread(&mut self, tid: Tid) {
        let ti = tid.idx();
        let ctx = &mut self.threads[ti];
        // Same in-place victim accounting as squash_after, over the whole
        // window.
        for i in 0..ctx.window.len() {
            let (stage, kind, is_cond, dmiss, dst, past_dispatch, done) = {
                let op = &ctx.window[i];
                (
                    op.stage,
                    op.uop.kind,
                    op.uop.is_cond_branch(),
                    op.dmiss,
                    op.uop.dst,
                    op.past_dispatch(),
                    op.is_done(),
                )
            };
            // The whole thread goes: every producer chain dies with it
            // (its waiters are same-thread, flushed here too).
            let wake_head = std::mem::replace(&mut ctx.window[i].wake_head, NO_WAKE);
            self.wake.free_chain(wake_head);
            match stage {
                Stage::FrontEnd { .. } => ctx.counters.front_end_occ -= 1,
                Stage::Queued => ctx.counters.iq_occ -= 1,
                _ => {}
            }
            if !done {
                match kind {
                    OpKind::Branch if is_cond => ctx.counters.inflight_branches -= 1,
                    OpKind::Load => {
                        if dmiss && matches!(stage, Stage::Executing { .. }) {
                            ctx.counters.outstanding_dmiss -= 1;
                        }
                        ctx.counters.inflight_loads -= 1;
                        ctx.counters.inflight_mem -= 1;
                    }
                    OpKind::Store => ctx.counters.inflight_mem -= 1,
                    _ => {}
                }
            }
            if past_dispatch {
                if let Some(d) = dst {
                    match d.class {
                        RegClass::Int => self.free_int_regs += 1,
                        RegClass::Fp => self.free_fp_regs += 1,
                    }
                }
            }
        }
        let victims = ctx.window.len();
        ctx.window.clear();
        ctx.wrong_path_since = None;
        ctx.rename = [None; 64];
        // The thread's calendar entries stay behind as stale.
        self.int_ready.retain(|&i| self.int_iq.key(i).0 != tid);
        self.fp_ready.retain(|&i| self.fp_iq.key(i).0 != tid);
        self.int_iq.remove_thread(tid);
        self.fp_iq.remove_thread(tid);
        self.lsq.remove_thread(tid);
        self.dispatch_fifo.remove_thread(tid);
        self.pending_syscalls.retain(|q| q.tid != tid);
        // Not on the per-cycle hot path (quantum-boundary operation), so a
        // plain runtime branch suffices instead of the TRACE const.
        let cycle = self.cycle;
        self.trace_push(TraceEvent::Flush {
            cycle,
            tid,
            victims,
        });
    }

    // ------------------------------------------------------------------
    // slot-loss attribution hooks (instrumented monomorphization only)
    // ------------------------------------------------------------------
    //
    // "Used" slots per stage are deltas of the counters the machine
    // already maintains (committed / fetched+wrongpath / iq_occ) across
    // the stage's boundaries, so the per-op hot loops stay untouched.
    // Lost slots are the stage budget left over, distributed
    // deterministically and blamed on each thread's own blocking
    // condition. Per cycle and stage the categories sum to the stage
    // width exactly (debug-asserted here, property-tested in
    // `tests/proptest_attr.rs`).

    /// Record the per-thread counter bases this cycle's deltas are taken
    /// against. `complete` only marks ops done (it never retires or
    /// fetches), so cycle start is a valid base for commit and fetch; the
    /// issue base is taken later because squashes during `complete` also
    /// drop `iq_occ`.
    fn attr_begin_cycle(&mut self) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        attr.cycles += 1;
        attr.base_fetch.clear();
        attr.base_commit.clear();
        for ctx in &self.threads {
            attr.base_fetch
                .push(ctx.counters.fetched + ctx.counters.wrongpath_fetched);
            attr.base_commit.push(ctx.counters.committed);
        }
    }

    /// Classify this cycle's commit slots; `lost` is the unspent budget.
    fn attr_commit(&mut self, lost: usize) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = ctx.counters.committed - attr.base_commit[t];
            attr.stacks[t].commit[CommitCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.commit_width);
        // Unfilled slots round-robin from the commit walk's own starting
        // thread; with budget left over, every head is absent or not done.
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            let ctx = &self.threads[ti];
            let cause = match ctx.window.front() {
                None if ctx.redirect_stall_until > now => CommitCause::SquashDrain,
                None => CommitCause::Empty,
                Some(head) => {
                    if head.dmiss && matches!(head.stage, Stage::Executing { .. }) {
                        CommitCause::DataMiss
                    } else {
                        CommitCause::NotReady
                    }
                }
            };
            attr.stacks[ti].commit[cause as usize] += 1;
        }
    }

    /// Take the per-thread `iq_occ` base the issue deltas are read
    /// against. Only issue decrements `iq_occ` between here and
    /// [`Self::attr_issue_end`] (dispatch, which increments it, runs
    /// after), so the decrease is exactly the slots the thread issued.
    fn attr_issue_begin(&mut self) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        attr.base_iq.clear();
        attr.base_iq
            .extend(self.threads.iter().map(|c| c.counters.iq_occ));
    }

    /// Classify this cycle's issue slots; `lost` is the unspent budget.
    fn attr_issue_end(&mut self, mut lost: usize) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = (attr.base_iq[t] - ctx.counters.iq_occ) as u64;
            attr.stacks[t].issue[IssueCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.issue_width);
        // Blame leftover queue entries in age order — the order issue
        // itself considered them. Producers complete only in the next
        // `complete`, so the `pending` counters still read exactly what
        // issue saw.
        for queue in [&self.int_iq, &self.fp_iq] {
            let mut idx = queue.first();
            while idx != NIL && lost > 0 {
                let (tid, _) = queue.key(idx);
                let d = queue.payload(idx);
                let cause = if d.pending != 0 {
                    debug_assert!(!Self::deps_ready(&self.threads[tid.idx()], &d.deps));
                    IssueCause::DepsNotReady
                } else {
                    IssueCause::FuBusy
                };
                attr.stacks[tid.idx()].issue[cause as usize] += 1;
                lost -= 1;
                idx = queue.next_of(idx);
            }
        }
        // Slots with nothing left in either queue to blame.
        let empty = if self.pending_syscalls.is_empty() {
            IssueCause::IqEmpty
        } else {
            IssueCause::Drain
        };
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            attr.stacks[ti].issue[empty as usize] += 1;
        }
    }

    /// Classify this cycle's fetch slots; `lost` is the unspent budget
    /// (the whole width when a syscall `drain` suppressed fetch).
    fn attr_fetch(&mut self, lost: usize, drain: bool) {
        let Some(attr) = self.attr.as_deref_mut() else {
            return;
        };
        let now = self.cycle;
        let n = self.threads.len();
        let mut used_total = 0usize;
        for (t, ctx) in self.threads.iter().enumerate() {
            let used = ctx.counters.fetched + ctx.counters.wrongpath_fetched - attr.base_fetch[t];
            attr.stacks[t].fetch[FetchCause::Used as usize] += used;
            used_total += used as usize;
        }
        debug_assert_eq!(used_total + lost, self.cfg.fetch_width);
        // A stall begun this very cycle (I-miss probed at fetch, redirect
        // from this cycle's squash) already reads as `> now`, so the lost
        // slots land on the condition that actually blocked the thread.
        let start = (now % n as u64) as usize;
        for k in 0..lost {
            let ti = (start + k) % n;
            let ctx = &self.threads[ti];
            let cause = if drain {
                FetchCause::Drain
            } else if !ctx.fetch_enabled {
                FetchCause::PolicyStarved
            } else if ctx.migration_stall_until > now {
                FetchCause::Migration
            } else if ctx.icache_stall_until > now {
                FetchCause::L1iMiss
            } else if ctx.redirect_stall_until > now {
                FetchCause::Redirect
            } else if ctx.window.len() >= self.cfg.rob_per_thread {
                FetchCause::RobFull
            } else if (ctx.counters.front_end_occ as usize) >= self.cfg.fetch_buffer_per_thread {
                FetchCause::FrontEndFull
            } else {
                FetchCause::PolicyStarved
            };
            attr.stacks[ti].fetch[cause as usize] += 1;
        }
    }

    // ------------------------------------------------------------------
    // stage 6: cycle bookkeeping
    // ------------------------------------------------------------------

    fn end_cycle(&mut self) {
        if self.lsq.len() >= self.cfg.lsq_size {
            self.global.lsq_full_cycles += 1;
        }
        self.cycle += 1;
        self.global.cycles = self.cycle;
        if self.cycle.is_multiple_of(self.cfg.decay_period) {
            for ctx in &mut self.threads {
                ctx.counters.decay();
            }
        }
    }

    // ------------------------------------------------------------------
    // invariant checking (tests and debug builds)
    // ------------------------------------------------------------------

    /// Recompute every gauge from scratch and compare with the maintained
    /// values; panics on divergence. O(window); called from tests.
    pub fn check_invariants(&self) {
        let mut int_q = 0usize;
        let mut fp_q = 0usize;
        for ctx in &self.threads {
            let mut fe = 0u32;
            let mut iq = 0u32;
            let mut int_q_t = 0usize;
            let mut fp_q_t = 0usize;
            let mut brs = 0u32;
            let mut lds = 0u32;
            let mut mems = 0u32;
            let mut dmiss = 0u32;
            let mut prev_seq: Option<u64> = None;
            for op in &ctx.window {
                if let Some(p) = prev_seq {
                    assert!(op.seq > p, "window out of order for {}", ctx.tid);
                }
                prev_seq = Some(op.seq);
                match op.stage {
                    Stage::FrontEnd { .. } => fe += 1,
                    Stage::Queued => {
                        iq += 1;
                        if op.uop.kind.is_fp() {
                            fp_q += 1;
                            fp_q_t += 1;
                        } else {
                            int_q += 1;
                            int_q_t += 1;
                        }
                    }
                    Stage::Executing { done_at } => {
                        if op.dmiss {
                            dmiss += 1;
                        }
                        let due = done_at.max(self.cycle);
                        assert!(
                            self.calendar.contains(due, ctx.tid, op.seq),
                            "{} seq {} (done_at {done_at}) missing from calendar bucket {due}",
                            ctx.tid,
                            op.seq
                        );
                    }
                    Stage::Done => {}
                }
                if !op.is_done() {
                    if op.uop.is_cond_branch() {
                        brs += 1;
                    }
                    match op.uop.kind {
                        OpKind::Load => {
                            lds += 1;
                            mems += 1;
                        }
                        OpKind::Store => mems += 1,
                        _ => {}
                    }
                }
            }
            let c = &ctx.counters;
            assert_eq!(
                c.front_end_occ, fe,
                "front_end_occ gauge drift on {}",
                ctx.tid
            );
            assert_eq!(c.iq_occ, iq, "iq_occ gauge drift on {}", ctx.tid);
            assert_eq!(
                c.inflight_branches, brs,
                "branch gauge drift on {}",
                ctx.tid
            );
            assert_eq!(c.inflight_loads, lds, "load gauge drift on {}", ctx.tid);
            assert_eq!(c.inflight_mem, mems, "mem gauge drift on {}", ctx.tid);
            assert_eq!(
                c.outstanding_dmiss, dmiss,
                "dmiss gauge drift on {}",
                ctx.tid
            );
            assert_eq!(
                self.int_iq.thread_len(ctx.tid),
                int_q_t,
                "int IQ per-thread index drift on {}",
                ctx.tid
            );
            assert_eq!(
                self.fp_iq.thread_len(ctx.tid),
                fp_q_t,
                "fp IQ per-thread index drift on {}",
                ctx.tid
            );
        }
        assert_eq!(self.int_iq.len(), int_q, "int IQ ref-count drift");
        assert_eq!(self.fp_iq.len(), fp_q, "fp IQ ref-count drift");
        self.int_iq.validate();
        self.fp_iq.validate();
        self.lsq.validate();
        self.dispatch_fifo.validate();
        assert!(self.int_iq.len() <= self.cfg.int_iq_size, "int IQ overflow");
        assert!(self.fp_iq.len() <= self.cfg.fp_iq_size, "fp IQ overflow");
        assert!(self.lsq.len() <= self.cfg.lsq_size, "LSQ overflow");
        assert!(
            self.free_int_regs <= self.cfg.extra_phys_int,
            "int reg over-free"
        );
        assert!(
            self.free_fp_regs <= self.cfg.extra_phys_fp,
            "fp reg over-free"
        );
        // Readiness tracking vs the search oracle: every queue entry's
        // `pending` counter must equal the number of live, not-yet-done
        // producers the reference binary search would find. The ready
        // list must be exactly the `pending == 0` entries, in queue order,
        // with strictly increasing age stamps.
        for (queue, ready) in [
            (&self.int_iq, &self.int_ready),
            (&self.fp_iq, &self.fp_ready),
        ] {
            let mut expect_ready = Vec::new();
            let mut last_age = None;
            let mut idx = queue.first();
            while idx != NIL {
                let (tid, seq) = queue.key(idx);
                let d = queue.payload(idx);
                let ctx = &self.threads[tid.idx()];
                let mut expect = 0u8;
                if let Some(front) = ctx.window.front() {
                    for dep in d.deps.iter().copied().flatten() {
                        if dep < front.seq {
                            continue;
                        }
                        if let Some(i) = find_seq(&ctx.window, dep) {
                            if !ctx.window[i].is_done() {
                                expect += 1;
                            }
                        }
                    }
                }
                assert_eq!(
                    d.pending, expect,
                    "pending counter drift on {tid} seq {seq}"
                );
                assert_eq!(
                    d.pending == 0,
                    Self::deps_ready(ctx, &d.deps),
                    "pending disagrees with the search oracle on {tid} seq {seq}"
                );
                assert!(
                    last_age.is_none_or(|a| a < d.age),
                    "queue age stamps out of order at {tid} seq {seq}"
                );
                last_age = Some(d.age);
                if d.pending == 0 {
                    expect_ready.push(idx);
                }
                idx = queue.next_of(idx);
            }
            assert_eq!(
                ready, &expect_ready,
                "ready list is not the pending == 0 entries in age order"
            );
        }
        // Every allocated wake node sits on exactly one producer's chain.
        let mut chained = 0usize;
        for ctx in &self.threads {
            for op in &ctx.window {
                let mut widx = op.wake_head;
                let mut steps = 0usize;
                while widx != NO_WAKE {
                    chained += 1;
                    steps += 1;
                    assert!(steps <= self.wake.nodes.len(), "wake chain cycle");
                    widx = self.wake.nodes[widx as usize].next;
                }
            }
        }
        assert_eq!(
            chained,
            self.wake.live(),
            "wake arena leak: chained nodes vs live allocations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::RoundRobin;
    use smt_isa::AppProfile;
    use std::sync::Arc;

    fn stream(seed: u64, tid: usize) -> UopStream {
        UopStream::new(
            Arc::new(AppProfile::builder("t").build()),
            seed,
            smt_workloads::thread_addr_base(tid),
        )
    }

    fn machine(n: usize, seed: u64) -> SmtMachine {
        let cfg = SimConfig::with_threads(n);
        let streams = (0..n).map(|i| stream(seed + i as u64, i)).collect();
        SmtMachine::new(cfg, streams)
    }

    #[test]
    fn makes_forward_progress() {
        let mut m = machine(4, 1);
        m.run(5_000, &mut RoundRobin);
        assert!(
            m.total_committed() > 1_000,
            "committed {}",
            m.total_committed()
        );
        for t in 0..4 {
            assert!(m.counters(Tid(t)).committed > 0, "thread {t} starved");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = machine(4, 2);
        let mut b = machine(4, 2);
        a.run(3_000, &mut RoundRobin);
        b.run(3_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        for t in 0..4 {
            assert_eq!(a.counters(Tid(t)), b.counters(Tid(t)));
        }
    }

    #[test]
    fn clone_resumes_identically() {
        let mut a = machine(2, 3);
        a.run(2_000, &mut RoundRobin);
        let mut b = a.clone();
        a.run(2_000, &mut RoundRobin);
        b.run(2_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
    }

    #[test]
    fn invariants_hold_throughout() {
        let mut m = machine(8, 4);
        for _ in 0..2_000 {
            m.step(&mut RoundRobin);
            m.check_invariants();
        }
    }

    #[test]
    fn mispredicts_and_squashes_happen() {
        let mut m = machine(4, 5);
        m.run(10_000, &mut RoundRobin);
        let total_mispred: u64 = (0..4).map(|t| m.counters(Tid(t)).mispredicts).sum();
        assert!(total_mispred > 10, "no mispredicts in a branchy workload");
        assert_eq!(m.global().squashes, total_mispred);
        let wp: u64 = (0..4).map(|t| m.counters(Tid(t)).wrongpath_fetched).sum();
        assert!(wp > 0, "mispredicts must cause wrong-path fetch");
    }

    #[test]
    fn caches_miss_and_fill() {
        let mut m = machine(2, 6);
        m.run(10_000, &mut RoundRobin);
        let c0 = m.counters(Tid(0));
        assert!(c0.l1d_misses > 0, "no D-cache misses");
        assert!(c0.loads > 0 && c0.stores > 0);
        // The default profile's 64 KiB working set exceeds the shared L1D,
        // so misses are plentiful — but strided reuse must keep the ratio
        // well below a pure-streaming 100%.
        assert!(
            m.mem.l1d.miss_ratio() < 0.85,
            "L1D miss ratio {}",
            m.mem.l1d.miss_ratio()
        );
        assert!(m.mem.l1d.miss_ratio() > 0.0);
    }

    #[test]
    fn disabled_thread_does_not_fetch() {
        let mut m = machine(2, 7);
        m.set_fetch_enabled(Tid(1), false);
        m.run(3_000, &mut RoundRobin);
        assert_eq!(m.counters(Tid(1)).fetched, 0);
        assert!(m.counters(Tid(0)).committed > 0);
        assert!(!m.fetch_enabled(Tid(1)));
    }

    #[test]
    fn syscall_drains_machine() {
        let p = AppProfile::builder("sys").syscall_per_muop(2_000.0).build();
        let streams = vec![
            UopStream::new(Arc::new(p), 8, smt_workloads::thread_addr_base(0)),
            stream(9, 1),
        ];
        let mut m = SmtMachine::new(SimConfig::with_threads(2), streams);
        m.run(30_000, &mut RoundRobin);
        assert!(m.counters(Tid(0)).syscalls > 0, "no syscalls retired");
        assert!(m.global().syscall_drain_cycles > 0);
        // Forward progress resumed after drains.
        assert!(m.counters(Tid(1)).committed > 1_000);
    }

    #[test]
    fn more_threads_more_throughput() {
        let mut one = machine(1, 10);
        let mut four = machine(4, 10);
        one.run(8_000, &mut RoundRobin);
        four.run(8_000, &mut RoundRobin);
        assert!(
            four.aggregate_ipc() > 1.3 * one.aggregate_ipc(),
            "SMT gained nothing: 1T={} 4T={}",
            one.aggregate_ipc(),
            four.aggregate_ipc()
        );
    }

    #[test]
    fn ipc_is_plausible() {
        let mut m = machine(8, 11);
        m.run(20_000, &mut RoundRobin);
        let ipc = m.aggregate_ipc();
        assert!(ipc > 1.0 && ipc <= 8.0, "implausible aggregate IPC {ipc}");
    }

    #[test]
    fn committed_matches_thread_sum() {
        let mut m = machine(4, 12);
        m.run(5_000, &mut RoundRobin);
        let sum: u64 = (0..4).map(|t| m.counters(Tid(t)).committed).sum();
        assert_eq!(sum, m.total_committed());
    }

    #[test]
    fn views_cover_all_threads() {
        let mut m = machine(3, 13);
        let v = m.views();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].tid, Tid(2));
    }
}

#[cfg(test)]
mod characterization {
    //! Characterization tests: these pin down the *shape* of the machine
    //! model (predictor quality, per-app orderings, SMT scaling) rather
    //! than exact numbers, so modeling regressions are caught early.
    use super::*;
    use crate::chooser::{FnChooser, RoundRobin};
    use smt_isa::AppProfile;
    use std::sync::Arc;

    fn app_machine(names: &[&str], seed: u64) -> SmtMachine {
        let cfg = SimConfig::with_threads(names.len());
        let streams = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                UopStream::new(
                    Arc::new(smt_workloads::app(n)),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        SmtMachine::new(cfg, streams)
    }

    fn single_ipc(name: &str) -> f64 {
        let mut m = app_machine(&[name], 11);
        m.run(30_000, &mut RoundRobin);
        let warm = m.total_committed();
        let c0 = m.cycle();
        m.run(60_000, &mut RoundRobin);
        (m.total_committed() - warm) as f64 / (m.cycle() - c0) as f64
    }

    #[test]
    fn predictor_accuracy_on_stream_is_realistic() {
        let mut st = UopStream::new(
            Arc::new(AppProfile::builder("t").build()),
            11,
            smt_workloads::thread_addr_base(0),
        );
        let mut p = BranchPredictor::new(&SimConfig::default());
        let (mut n, mut correct, mut warm) = (0u64, 0u64, 0u64);
        loop {
            let op = st.next_uop();
            if !op.is_cond_branch() {
                continue;
            }
            let b = op.branch.unwrap();
            let pr = p.predict(Tid(0), op.pc, BranchKind::Conditional, b.taken, true);
            p.train(op.pc, pr.pht_index, b.taken);
            warm += 1;
            if warm < 5_000 {
                continue;
            }
            n += 1;
            if pr.taken == b.taken {
                correct += 1;
            }
            if n == 50_000 {
                break;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(
            acc > 0.80,
            "predictor accuracy {acc} below the realistic band"
        );
    }

    #[test]
    fn single_thread_app_ipc_ordering() {
        // The defining order: pointer-chasing mcf is the slowest, streaming
        // swim is memory-bound but better, cache-resident gzip is fastest.
        let mcf = single_ipc("mcf");
        let swim = single_ipc("swim");
        let gzip = single_ipc("gzip");
        assert!(mcf < swim, "mcf {mcf} should trail swim {swim}");
        assert!(swim < gzip, "swim {swim} should trail gzip {gzip}");
        assert!(mcf < 0.6, "mcf must look memory-bound, got {mcf}");
        assert!(gzip > 0.8, "gzip must look cache-resident, got {gzip}");
    }

    #[test]
    fn mispredict_rates_track_app_character() {
        let rate = |name: &str| {
            let mut m = app_machine(&[name], 13);
            m.run(60_000, &mut RoundRobin);
            let c = m.counters(Tid(0));
            c.mispredicts as f64 / c.branches_resolved.max(1) as f64
        };
        let gcc = rate("gcc");
        let swim = rate("swim");
        assert!(
            gcc > 2.0 * swim,
            "control-intensive gcc ({gcc}) must mispredict far more than swim ({swim})"
        );
        assert!(swim < 0.08, "swim mispredict rate {swim} too high");
    }

    #[test]
    fn smt_throughput_scales_with_contexts() {
        let ipc = |n: usize| {
            let cfg = SimConfig::with_threads(n);
            let streams = (0..n)
                .map(|i| {
                    UopStream::new(
                        Arc::new(AppProfile::builder("t").build()),
                        11 + i as u64,
                        smt_workloads::thread_addr_base(i),
                    )
                })
                .collect();
            let mut m = SmtMachine::new(cfg, streams);
            let mut icount = FnChooser(|_c: u64, v: &mut Vec<PolicyView>| {
                v.sort_by_key(|x| x.front_end_occ as u64 + x.iq_occ as u64);
            });
            m.run(30_000, &mut icount);
            m.aggregate_ipc()
        };
        let (i1, i2, i4, i8) = (ipc(1), ipc(2), ipc(4), ipc(8));
        assert!(i2 > 1.5 * i1, "2T {i2} vs 1T {i1}");
        assert!(i4 > i2, "4T {i4} vs 2T {i2}");
        assert!(i8 > i4, "8T {i8} vs 4T {i4}");
        assert!(i8 > 1.5, "8T aggregate IPC {i8} implausibly low");
    }

    #[test]
    fn wrongpath_fetch_is_substantial_for_branchy_apps() {
        let mut m = app_machine(&["gcc"], 17);
        m.run(30_000, &mut RoundRobin);
        let c = m.counters(Tid(0));
        let frac = c.wrongpath_fetched as f64 / (c.fetched + c.wrongpath_fetched) as f64;
        assert!(
            frac > 0.10,
            "gcc should waste a visible fraction of fetch on the wrong path, got {frac}"
        );
    }
}
