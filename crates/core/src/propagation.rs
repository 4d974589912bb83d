//! Error-propagation analysis (paper §III-D): bounded shadow replay of the
//! dynamic trace.
//!
//! When the operation-level analysis decides an error is *not* masked by the
//! operation that first consumes it, the corrupted locations it leaves behind
//! (registers and/or memory words) are propagated forward through the trace:
//! every subsequent record is re-evaluated with the corrupted values
//! substituted, and the set of live corrupted locations is updated.  If the
//! set becomes empty within the propagation window `k`, every error copy was
//! masked at the operation level during propagation and the outcome is
//! bit-identical — masking at the error-propagation level.  If the window is
//! exhausted, control flow would diverge, or a corrupted value reaches an
//! address computation, the question is left unresolved and handed to the
//! deterministic fault injector (§III-E).
//!
//! The paper's empirical bound (1000 random injections over 16 data objects)
//! found k = 50 sufficient: errors not masked within 50 operations virtually
//! never end up masked by further propagation.  `k` is configurable so the
//! `propagation_k` ablation bench can reproduce that observation.
//!
//! ## Engine notes
//!
//! Replay is *the* hot loop of the analytical pipeline (every participation
//! site × every error pattern replays a window), so there is one engine,
//! [`ReplayEngine`], tuned accordingly:
//!
//! * up to 64 replays whose windows overlap share **one** walk over the
//!   decoded records: the shadow state maps each (frame, register) and
//!   memory word to a `u64` *lane mask* plus the per-lane corrupted values,
//!   so a record is decoded (and its shadow entries scanned) once for the
//!   whole batch instead of once per fault;
//! * the trace is walked through [`moard_vm::TraceRead`] *runs* — zero-copy
//!   slices of contiguous decoded records.  For the in-memory backend a run
//!   is simply the trace tail; for the paged backend it is the suffix of one
//!   decoded segment, so replay streams segments without ever needing the
//!   full trace resident;
//! * the shadow tables are small linear vectors, not hash maps: live sets
//!   are almost always a handful of locations, where linear probing beats
//!   hashing by a wide margin.  Keys, lane masks and per-lane values sit
//!   in parallel vectors, so a probe scans only the keys;
//! * an engine owns its state buffers and a warm reader and is reusable
//!   across batches, so an analysis loop performs no per-walk allocation.
//!
//! The walk pays per record, not per active lane.  Three invariants keep
//! it so:
//!
//! * **lanes retire in start order.**  Lanes are sorted by start (checked
//!   on entry), so the lanes whose window is exhausted are always a prefix
//!   of the activated ones: one cursor advances past them, and each
//!   record's exhausted lanes retire as one mask, in one sweep that counts
//!   their live locations and erases their bits;
//! * **one shadow lookup per operand per record.**  Each operand's entry,
//!   and the destination's (found or inserted), is located once; tainted
//!   lanes then read and write value slots by position.  No entry is
//!   removed inside the lane loop, and lanes whose re-evaluation traps
//!   retire after it, so the positions stay valid;
//! * **the masked-out scan is gated on dropped bits.**  A lane can only
//!   mask out by losing bits — a kill, a memory remove, a returning
//!   frame, a clean write — so the union of live bits is computed only
//!   after a step dropped some, and only those lanes are candidates.
//!
//! Lanes retire individually in effect — `AllMasked`, window exhaustion,
//! control or address divergence, trace end — and every verdict is
//! bit-identical to the scalar reference [`replay`], the one-fault-per-walk
//! oracle over `ShadowState` that the parity tests pin the engine to:
//! tainted lanes re-evaluate each operation with exactly the oracle's
//! rules, value by value.

use crate::op_rules::CorruptLoc;
use moard_ir::{eval_binop, eval_cast, eval_cmp, eval_intrinsic, RegId, Value};
use moard_vm::{TraceOp, TraceRead, TraceRecord, TraceStorage, TracedVal, ValueSource};

/// Why the replay could not settle the masking question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnresolvedReason {
    /// The window of `k` operations was exhausted with corruption still live.
    WindowExhausted,
    /// A corrupted value decides a conditional branch or switch differently
    /// from the recorded execution.
    ControlDivergence,
    /// A corrupted value is used as (part of) a load or store address.
    AddressDivergence,
    /// Re-evaluating an operation with corrupted inputs trapped
    /// (e.g. division by a corrupted zero).
    EvalTrap,
    /// The trace ended with corrupted memory still live.
    TraceEnded,
}

/// Result of the propagation replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// Every corrupted copy was masked within the window: the outcome is
    /// bit-identical to the golden run.
    AllMasked {
        /// Number of operations examined before the corruption died out.
        ops_examined: usize,
    },
    /// The replay could not decide; deterministic fault injection required.
    Unresolved {
        reason: UnresolvedReason,
        /// Number of corrupted locations still live when the replay stopped.
        live_locations: usize,
    },
}

impl PropagationResult {
    /// True for [`PropagationResult::AllMasked`].
    pub fn is_masked(&self) -> bool {
        matches!(self, PropagationResult::AllMasked { .. })
    }
}

/// Live corrupted state of the scalar reference [`replay`]: small linear
/// tables keyed by (frame, register) and by memory address.
///
/// Live sets during replay are tiny (an error seeds one or two locations and
/// masking shrinks the set), so linear scans over dense vectors beat hash
/// maps on both lookup latency and allocation count.  Entries are unique by
/// key; removal is `swap_remove` (order is irrelevant to every observable
/// result: lookups, liveness counts, and emptiness).
#[derive(Debug, Default, Clone)]
struct ShadowState {
    regs: Vec<((u64, u32), Value)>,
    mem: Vec<(u64, Value)>,
}

impl ShadowState {
    /// Reset the buffers (keeping their capacity) and seed the initial
    /// corrupted locations.  Later duplicates overwrite earlier ones, the
    /// insert semantics the map-based implementation had.
    fn reset(&mut self, locs: &[CorruptLoc]) {
        self.regs.clear();
        self.mem.clear();
        for loc in locs {
            match loc {
                CorruptLoc::Reg { frame, reg, value } => {
                    self.reg_insert(*frame, *reg, *value);
                }
                CorruptLoc::Mem { addr, value } => {
                    self.mem_insert(*addr, *value);
                }
            }
        }
    }

    fn is_clean(&self) -> bool {
        self.regs.is_empty() && self.mem.is_empty()
    }

    fn live(&self) -> usize {
        self.regs.len() + self.mem.len()
    }

    fn reg(&self, frame: u64, reg: RegId) -> Option<Value> {
        let key = (frame, reg.0);
        self.regs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn reg_insert(&mut self, frame: u64, reg: RegId, value: Value) {
        let key = (frame, reg.0);
        match self.regs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => self.regs.push((key, value)),
        }
    }

    fn kill_reg(&mut self, frame: u64, reg: RegId) {
        let key = (frame, reg.0);
        if let Some(i) = self.regs.iter().position(|(k, _)| *k == key) {
            self.regs.swap_remove(i);
        }
    }

    fn set_reg(&mut self, frame: u64, reg: RegId, corrupted: Value, clean: Value) {
        if corrupted.bits_eq(&clean) {
            self.kill_reg(frame, reg);
        } else {
            self.reg_insert(frame, reg, corrupted);
        }
    }

    /// Remove every register belonging to a frame that has returned.
    fn drop_frame(&mut self, frame: u64) {
        self.regs.retain(|((f, _), _)| *f != frame);
    }

    fn mem_get(&self, addr: u64) -> Option<Value> {
        self.mem.iter().find(|(a, _)| *a == addr).map(|(_, v)| *v)
    }

    fn mem_insert(&mut self, addr: u64, value: Value) {
        match self.mem.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, slot)) => *slot = value,
            None => self.mem.push((addr, value)),
        }
    }

    fn mem_remove(&mut self, addr: u64) {
        if let Some(i) = self.mem.iter().position(|(a, _)| *a == addr) {
            self.mem.swap_remove(i);
        }
    }

    fn mem_is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Corrupted value of an operand, if its source register is corrupted.
    fn operand(&self, frame: u64, v: &TracedVal) -> Option<Value> {
        match v.source {
            ValueSource::Reg(r) => self.reg(frame, r),
            _ => None,
        }
    }
}

/// The scalar reference replay: one walk per fault over a `ShadowState`.
///
/// Replays the trace from `start_index` (a record position, usually
/// `target_record_index + 1`) with the given initial corrupted locations,
/// examining at most `k` records.  A `start_index` at or past the end of the
/// trace examines nothing: the verdict is then decided purely by whether
/// corrupted *memory* is live (registers of finished frames are dead state).
///
/// This is the oracle the parity tests compare [`ReplayEngine`]
/// against, operation rule by operation rule; no analysis path calls it.
pub fn replay(
    trace: &dyn TraceStorage,
    start_index: usize,
    initial: &[CorruptLoc],
    k: usize,
) -> PropagationResult {
    let mut state = ShadowState::default();
    state.reset(initial);
    if state.is_clean() {
        return PropagationResult::AllMasked { ops_examined: 0 };
    }
    let mut reader = trace.new_reader();
    let len = trace.len();
    let mut examined = 0usize;
    let mut pos = start_index as u64;
    while pos < len {
        // One run = the longest contiguous decoded stretch from `pos` (the
        // whole tail in memory, a segment suffix when paged).  An empty run
        // before the end means the backend poisoned itself on a decode
        // error; stop here — the harness surfaces the error.
        let run = reader.run_from(pos);
        if run.is_empty() {
            break;
        }
        for rec in run {
            if examined >= k {
                return PropagationResult::Unresolved {
                    reason: UnresolvedReason::WindowExhausted,
                    live_locations: state.live(),
                };
            }
            examined += 1;
            match step(rec, &mut state) {
                StepResult::Continue => {}
                StepResult::Unresolved(reason) => {
                    return PropagationResult::Unresolved {
                        reason,
                        live_locations: state.live(),
                    }
                }
            }
            if state.is_clean() {
                return PropagationResult::AllMasked {
                    ops_examined: examined,
                };
            }
        }
        pos += run.len() as u64;
    }
    // Trace ended.  Registers of finished frames are dead state; only
    // corrupted memory can still influence the snapshot the outcome is
    // compared on.
    if state.mem_is_empty() {
        PropagationResult::AllMasked {
            ops_examined: examined,
        }
    } else {
        PropagationResult::Unresolved {
            reason: UnresolvedReason::TraceEnded,
            live_locations: state.live(),
        }
    }
}

/// Maximum number of replays one [`ReplayEngine`] walk can carry: one
/// bit of a `u64` lane mask per replay.
pub const MAX_REPLAY_LANES: usize = 64;

/// One scheduled replay in a batch: where the walk starts for this lane and
/// the corrupted locations it seeds.
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// First record position this lane examines (usually `record id + 1`).
    pub start: usize,
    /// Initial corrupted locations; an empty seed is trivially masked.
    pub corrupt: Vec<CorruptLoc>,
}

/// Filler for unoccupied lane slots; never observable (reads are guarded by
/// the lane mask).
const NO_VALUE: Value = Value::I1(false);

/// Iterate the set bit positions of a lane mask, lowest first.
#[inline]
fn iter_lanes(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(lane)
        }
    })
}

/// Per-lane corrupted values of one shadow entry.
type LaneVals = [Value; MAX_REPLAY_LANES];

/// One lane-masked shadow table (registers or memory words): entries are
/// unique by key, and each holds a `u64` of lane occupancy plus the
/// per-lane corrupted values.  The three parts live in parallel vectors so
/// a key scan touches only the keys.  Removal is `swap_remove`: order is
/// irrelevant to every observable result.
struct LaneTable<K> {
    keys: Vec<K>,
    masks: Vec<u64>,
    vals: Vec<LaneVals>,
}

impl<K> Default for LaneTable<K> {
    fn default() -> Self {
        LaneTable {
            keys: Vec::new(),
            masks: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K: Copy + PartialEq> LaneTable<K> {
    fn clear(&mut self) {
        self.keys.clear();
        self.masks.clear();
        self.vals.clear();
    }

    fn find(&self, key: K) -> Option<usize> {
        self.keys.iter().position(|k| *k == key)
    }

    /// Position of `key`'s entry, inserted empty if absent.
    fn at(&mut self, key: K) -> usize {
        self.find(key).unwrap_or_else(|| {
            self.keys.push(key);
            self.masks.push(0);
            self.vals.push([NO_VALUE; MAX_REPLAY_LANES]);
            self.keys.len() - 1
        })
    }

    /// The `active` lanes holding `key` corrupted, and where.
    fn lookup(&self, key: K, active: u64) -> Lookup {
        self.find(key).map_or(Lookup::CLEAN, |at| Lookup {
            at,
            mask: self.masks[at] & active,
        })
    }

    fn set(&mut self, at: usize, lane: usize, value: Value) {
        self.masks[at] |= 1u64 << lane;
        self.vals[at][lane] = value;
    }

    /// Clear the bits of `lanes` at `at`, adding the ones that were set to
    /// `dropped`.
    fn drop_lanes(&mut self, at: usize, lanes: u64, dropped: &mut u64) {
        *dropped |= self.masks[at] & lanes;
        self.masks[at] &= !lanes;
    }

    /// One lane's re-evaluated value: a value bit-equal to the clean one is
    /// no corruption at all, so the lane's bit drops instead.
    fn write(&mut self, at: usize, lane: usize, corrupted: Value, clean: Value, dropped: &mut u64) {
        if corrupted.bits_eq(&clean) {
            self.drop_lanes(at, 1u64 << lane, dropped);
        } else {
            self.set(at, lane, corrupted);
        }
    }

    /// Remove the entry at `at` if no lane holds it any more.
    fn settle(&mut self, at: usize) {
        if self.masks[at] == 0 {
            self.swap_remove(at);
        }
    }

    fn swap_remove(&mut self, at: usize) {
        self.keys.swap_remove(at);
        self.masks.swap_remove(at);
        self.vals.swap_remove(at);
    }

    /// A clean value overwrites `key` on `lanes`.
    fn kill(&mut self, key: K, lanes: u64, dropped: &mut u64) {
        if lanes == 0 {
            return;
        }
        if let Some(at) = self.find(key) {
            self.drop_lanes(at, lanes, dropped);
            self.settle(at);
        }
    }

    /// Keep the entries for which `keep(key, mask)` holds; it may also
    /// narrow the mask, and an entry left with no lane goes too.
    fn retain(&mut self, mut keep: impl FnMut(K, &mut u64) -> bool) {
        let mut at = 0;
        while at < self.keys.len() {
            if keep(self.keys[at], &mut self.masks[at]) && self.masks[at] != 0 {
                at += 1;
            } else {
                self.swap_remove(at);
            }
        }
    }

    /// Union of the lane bits of every entry.
    fn union_mask(&self) -> u64 {
        self.masks.iter().fold(0, |m, e| m | e)
    }
}

/// One operand's shadow lookup for the current record: the position of its
/// entry and the active lanes it taints (`mask == 0` means clean, and `at`
/// is then meaningless).  Positions stay valid until the record's first
/// entry removal, which every step defers until its lane loop is done.
#[derive(Clone, Copy)]
struct Lookup {
    at: usize,
    mask: u64,
}

impl Lookup {
    const CLEAN: Lookup = Lookup { at: 0, mask: 0 };

    /// This lane's value of a register operand: the corrupted one if the
    /// lane taints it, else the recorded `clean` value.
    fn reg_or(&self, state: &BatchShadowState, lane: usize, clean: Value) -> Value {
        if self.mask >> lane & 1 != 0 {
            state.regs.vals[self.at][lane]
        } else {
            clean
        }
    }
}

/// Lane-masked shadow state: the batched counterpart of [`ShadowState`],
/// with one lane-masked table keyed by (frame, register) and one by memory
/// address, so one scan of the tables serves every lane in the batch.
/// Entries with an empty mask never outlive the step that emptied them.
#[derive(Default)]
struct BatchShadowState {
    regs: LaneTable<(u64, u32)>,
    mem: LaneTable<u64>,
    /// Lanes that lost a bit since the walk last reset this: only they can
    /// have masked out.
    dropped: u64,
}

impl BatchShadowState {
    fn clear(&mut self) {
        self.regs.clear();
        self.mem.clear();
        self.dropped = 0;
    }

    fn seed_lane(&mut self, lane: usize, locs: &[CorruptLoc]) {
        for loc in locs {
            match loc {
                CorruptLoc::Reg { frame, reg, value } => {
                    let at = self.regs.at((*frame, reg.0));
                    self.regs.set(at, lane, *value);
                }
                CorruptLoc::Mem { addr, value } => {
                    let at = self.mem.at(*addr);
                    self.mem.set(at, lane, *value);
                }
            }
        }
    }

    fn reg(&self, frame: u64, reg: RegId, active: u64) -> Lookup {
        self.regs.lookup((frame, reg.0), active)
    }

    /// The active lanes whose value of this operand is corrupted.
    fn operand(&self, frame: u64, v: &TracedVal, active: u64) -> Lookup {
        match v.source {
            ValueSource::Reg(r) => self.reg(frame, r, active),
            _ => Lookup::CLEAN,
        }
    }

    /// Write one register for one record: the `kill` lanes drop their bit
    /// (a clean value overwrites it), and each `tainted` lane stores
    /// `eval(self, lane)` unless that equals the `clean` value.  Every read
    /// `eval` makes goes through lookups taken before the write, by
    /// position; the register's entry is found (or inserted) once.  Lanes
    /// whose re-evaluation traps (`eval` returns `None`) are left untouched
    /// and returned, so the caller retires them after the lane loop.
    fn write_reg(
        &mut self,
        frame: u64,
        reg: RegId,
        kill: u64,
        tainted: u64,
        clean: Value,
        mut eval: impl FnMut(&Self, usize) -> Option<Value>,
    ) -> u64 {
        let key = (frame, reg.0);
        if tainted == 0 {
            self.regs.kill(key, kill, &mut self.dropped);
            return 0;
        }
        let at = self.regs.at(key);
        self.regs.drop_lanes(at, kill, &mut self.dropped);
        let mut trapped = 0u64;
        for lane in iter_lanes(tainted) {
            match eval(self, lane) {
                Some(v) => self.regs.write(at, lane, v, clean, &mut self.dropped),
                None => trapped |= 1u64 << lane,
            }
        }
        self.regs.settle(at);
        trapped
    }

    /// A store of `value` (looked up as `v`) to `addr` on every active
    /// lane: untainted lanes' clean value overwrites any corrupted word.
    fn store(&mut self, addr: u64, active: u64, v: Lookup, clean: Value) {
        if v.mask == 0 {
            self.mem.kill(addr, active, &mut self.dropped);
            return;
        }
        let at = self.mem.at(addr);
        self.mem.drop_lanes(at, active & !v.mask, &mut self.dropped);
        for lane in iter_lanes(v.mask) {
            let corrupted = self.regs.vals[v.at][lane];
            self.mem
                .write(at, lane, corrupted, clean, &mut self.dropped);
        }
        self.mem.settle(at);
    }

    /// Drop every register of a returning frame, for all lanes at once.
    fn drop_frame(&mut self, frame: u64) {
        let dropped = &mut self.dropped;
        self.regs.retain(|(f, _), mask| {
            if f == frame {
                *dropped |= *mask;
            }
            f != frame
        });
    }

    /// Union of live lane bits across all register and memory entries; a
    /// lane absent here has fully masked out.
    fn union_mask(&self) -> u64 {
        self.regs.union_mask() | self.mem.union_mask()
    }

    /// Erase the bits of `lanes` everywhere in one sweep, returning each
    /// lane's number of live locations just before.
    fn erase_lanes(&mut self, lanes: u64) -> [u32; MAX_REPLAY_LANES] {
        let mut live = [0u32; MAX_REPLAY_LANES];
        let mut sweep = |mask: &mut u64| {
            for lane in iter_lanes(*mask & lanes) {
                live[lane] += 1;
            }
            *mask &= !lanes;
            true
        };
        self.regs.retain(|_, mask| sweep(mask));
        self.mem.retain(|_, mask| sweep(mask));
        live
    }
}

enum StepResult {
    Continue,
    Unresolved(UnresolvedReason),
}

fn step(rec: &TraceRecord, state: &mut ShadowState) -> StepResult {
    let frame = rec.frame;
    match &rec.op {
        TraceOp::Bin {
            op,
            ty,
            lhs,
            rhs,
            result,
        } => {
            let cl = state.operand(frame, lhs);
            let cr = state.operand(frame, rhs);
            let dst = rec.dst.expect("bin has dst");
            if cl.is_none() && cr.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let a = cl.unwrap_or(lhs.value);
            let b = cr.unwrap_or(rhs.value);
            match eval_binop(*op, *ty, &a, &b) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Cmp {
            pred,
            lhs,
            rhs,
            result,
        } => {
            let cl = state.operand(frame, lhs);
            let cr = state.operand(frame, rhs);
            let dst = rec.dst.expect("cmp has dst");
            if cl.is_none() && cr.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let a = cl.unwrap_or(lhs.value);
            let b = cr.unwrap_or(rhs.value);
            match eval_cmp(*pred, &a, &b) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Cast {
            kind,
            to,
            src,
            result,
        } => {
            let cs = state.operand(frame, src);
            let dst = rec.dst.expect("cast has dst");
            match cs {
                None => {
                    state.kill_reg(frame, dst);
                    StepResult::Continue
                }
                Some(v) => match eval_cast(*kind, *to, &v) {
                    Ok(r) => {
                        state.set_reg(frame, dst, r, *result);
                        StepResult::Continue
                    }
                    Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
                },
            }
        }
        TraceOp::Load {
            addr,
            addr_src,
            result,
            ..
        } => {
            // A corrupted address register means the program would read a
            // different location: undecidable from the trace.
            if let ValueSource::Reg(r) = addr_src {
                if state.reg(frame, *r).is_some() {
                    return StepResult::Unresolved(UnresolvedReason::AddressDivergence);
                }
            }
            let dst = rec.dst.expect("load has dst");
            match state.mem_get(*addr) {
                Some(v) => state.set_reg(frame, dst, v, *result),
                None => state.kill_reg(frame, dst),
            }
            StepResult::Continue
        }
        TraceOp::Store {
            addr,
            addr_src,
            value,
            ..
        } => {
            if let ValueSource::Reg(r) = addr_src {
                if state.reg(frame, *r).is_some() {
                    return StepResult::Unresolved(UnresolvedReason::AddressDivergence);
                }
            }
            match state.operand(frame, value) {
                Some(corrupted) => {
                    if corrupted.bits_eq(&value.value) {
                        state.mem_remove(*addr);
                    } else {
                        state.mem_insert(*addr, corrupted);
                    }
                }
                None => {
                    // Clean value overwrites any corrupted memory.
                    state.mem_remove(*addr);
                }
            }
            StepResult::Continue
        }
        TraceOp::Gep {
            base,
            index,
            elem_size,
            result,
        } => {
            let cb = state.operand(frame, base);
            let ci = state.operand(frame, index);
            let dst = rec.dst.expect("gep has dst");
            if cb.is_none() && ci.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let b = cb.unwrap_or(base.value);
            let i = ci.unwrap_or(index.value);
            let addr = b
                .as_u64()
                .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size));
            state.set_reg(frame, dst, Value::Ptr(addr), *result);
            StepResult::Continue
        }
        TraceOp::Select {
            cond,
            then_v,
            else_v,
            result,
        } => {
            let cc = state.operand(frame, cond);
            let ct = state.operand(frame, then_v);
            let ce = state.operand(frame, else_v);
            let dst = rec.dst.expect("select has dst");
            if cc.is_none() && ct.is_none() && ce.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let c = cc.unwrap_or(cond.value);
            let t = ct.unwrap_or(then_v.value);
            let e = ce.unwrap_or(else_v.value);
            let r = if c.is_truthy() { t } else { e };
            state.set_reg(frame, dst, r, *result);
            StepResult::Continue
        }
        TraceOp::Intrinsic { intr, args, result } => {
            let dst = rec.dst.expect("intrinsic has dst");
            let mut any = false;
            let vals: Vec<Value> = args
                .iter()
                .map(|a| match state.operand(frame, a) {
                    Some(v) => {
                        any = true;
                        v
                    }
                    None => a.value,
                })
                .collect();
            if !any {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            match eval_intrinsic(*intr, &vals) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Mov { src, result } => {
            let dst = rec.dst.expect("mov has dst");
            match state.operand(frame, src) {
                Some(v) => state.set_reg(frame, dst, v, *result),
                None => state.kill_reg(frame, dst),
            }
            StepResult::Continue
        }
        TraceOp::Call {
            args,
            callee_frame,
            param_regs,
            ..
        } => {
            for (arg, param) in args.iter().zip(param_regs.iter()) {
                if let Some(v) = state.operand(frame, arg) {
                    state.set_reg(*callee_frame, *param, v, arg.value);
                }
            }
            StepResult::Continue
        }
        TraceOp::Ret {
            value,
            caller_frame,
            dst_in_caller,
        } => {
            let corrupted_ret = value.as_ref().and_then(|v| state.operand(frame, v));
            // Every register of the returning frame dies.
            state.drop_frame(frame);
            if let (Some(cf), Some(dst)) = (caller_frame, dst_in_caller) {
                match (corrupted_ret, value) {
                    (Some(v), Some(clean)) => state.set_reg(*cf, *dst, v, clean.value),
                    _ => state.kill_reg(*cf, *dst),
                }
            } else if let Some(v) = corrupted_ret {
                // Corrupted final program return value: the outcome differs.
                if value.map(|c| !v.bits_eq(&c.value)).unwrap_or(false) {
                    return StepResult::Unresolved(UnresolvedReason::TraceEnded);
                }
            }
            StepResult::Continue
        }
        TraceOp::CondBr { cond, taken } => {
            if let Some(v) = state.operand(frame, cond) {
                if v.is_truthy() != *taken {
                    return StepResult::Unresolved(UnresolvedReason::ControlDivergence);
                }
            }
            StepResult::Continue
        }
        TraceOp::Switch { value, .. } => {
            if let Some(v) = state.operand(frame, value) {
                if !v.bits_eq(&value.value) {
                    return StepResult::Unresolved(UnresolvedReason::ControlDivergence);
                }
            }
            StepResult::Continue
        }
    }
}

/// In-flight state of one batched walk: the lane-masked shadow tables, the
/// per-lane results, and the set of lanes still advancing.
///
/// The step logic mirrors [`step`] arm for arm.  For every record each
/// operand's shadow entry is looked up once, and its mask splits the lanes
/// into two classes: untainted lanes share one bulk kill/remove on the
/// destination, tainted lanes re-evaluate the operation per lane with
/// exactly the oracle's rules, reading and writing value slots by entry
/// position.  Per-lane writes touch only that lane's mask bit and value
/// slot, the operand masks are snapshotted before any write, and lanes that
/// trap retire only after the lane loop, so lanes cannot observe each other
/// — which is what makes every verdict bit-identical to the scalar
/// [`replay`].
struct BatchWalk<'a> {
    state: &'a mut BatchShadowState,
    results: &'a mut [Option<PropagationResult>],
    active: u64,
    scratch_args: Vec<Lookup>,
    scratch_vals: Vec<Value>,
}

impl BatchWalk<'_> {
    /// Retire a group of active lanes unresolved: one sweep over the tables
    /// counts each lane's live locations and erases its bits.
    fn retire_unresolved(&mut self, lanes: u64, reason: UnresolvedReason) {
        if lanes == 0 {
            return;
        }
        let live = self.state.erase_lanes(lanes);
        for lane in iter_lanes(lanes) {
            self.results[lane] = Some(PropagationResult::Unresolved {
                reason,
                live_locations: live[lane] as usize,
            });
        }
        self.active &= !lanes;
    }

    /// Retire a lane whose corruption fully masked out.  Its bits are
    /// already absent from every entry, so no state cleanup is needed.
    fn retire_masked(&mut self, lane: usize, ops_examined: usize) {
        self.results[lane] = Some(PropagationResult::AllMasked { ops_examined });
        self.active &= !(1u64 << lane);
    }

    /// Write the record's destination on every active lane (see
    /// [`BatchShadowState::write_reg`]) and retire the lanes that trapped.
    fn write_dst(
        &mut self,
        frame: u64,
        dst: RegId,
        tainted: u64,
        clean: Value,
        eval: impl FnMut(&BatchShadowState, usize) -> Option<Value>,
    ) {
        let kill = self.active & !tainted;
        let trapped = self.state.write_reg(frame, dst, kill, tainted, clean, eval);
        self.retire_unresolved(trapped, UnresolvedReason::EvalTrap);
    }

    /// Retire the active lanes that corrupt a load or store address.
    fn retire_address(&mut self, frame: u64, addr_src: &ValueSource) {
        if let ValueSource::Reg(r) = addr_src {
            let m = self.state.reg(frame, *r, self.active).mask;
            self.retire_unresolved(m, UnresolvedReason::AddressDivergence);
        }
    }

    fn step(&mut self, rec: &TraceRecord) {
        let frame = rec.frame;
        let active = self.active;
        match &rec.op {
            TraceOp::Bin {
                op,
                ty,
                lhs,
                rhs,
                result,
            } => {
                let l = self.state.operand(frame, lhs, active);
                let r = self.state.operand(frame, rhs, active);
                let dst = rec.dst.expect("bin has dst");
                self.write_dst(frame, dst, l.mask | r.mask, *result, |s, lane| {
                    let (a, b) = (l.reg_or(s, lane, lhs.value), r.reg_or(s, lane, rhs.value));
                    eval_binop(*op, *ty, &a, &b).ok()
                });
            }
            TraceOp::Cmp {
                pred,
                lhs,
                rhs,
                result,
            } => {
                let l = self.state.operand(frame, lhs, active);
                let r = self.state.operand(frame, rhs, active);
                let dst = rec.dst.expect("cmp has dst");
                self.write_dst(frame, dst, l.mask | r.mask, *result, |s, lane| {
                    let (a, b) = (l.reg_or(s, lane, lhs.value), r.reg_or(s, lane, rhs.value));
                    eval_cmp(*pred, &a, &b).ok()
                });
            }
            TraceOp::Cast {
                kind,
                to,
                src,
                result,
            } => {
                let c = self.state.operand(frame, src, active);
                let dst = rec.dst.expect("cast has dst");
                self.write_dst(frame, dst, c.mask, *result, |s, lane| {
                    eval_cast(*kind, *to, &c.reg_or(s, lane, src.value)).ok()
                });
            }
            TraceOp::Load {
                addr,
                addr_src,
                result,
                ..
            } => {
                self.retire_address(frame, addr_src);
                let m = self.state.mem.lookup(*addr, self.active);
                let dst = rec.dst.expect("load has dst");
                self.write_dst(frame, dst, m.mask, *result, |s, lane| {
                    Some(s.mem.vals[m.at][lane])
                });
            }
            TraceOp::Store {
                addr,
                addr_src,
                value,
                ..
            } => {
                self.retire_address(frame, addr_src);
                let v = self.state.operand(frame, value, self.active);
                self.state.store(*addr, self.active, v, value.value);
            }
            TraceOp::Gep {
                base,
                index,
                elem_size,
                result,
            } => {
                let b = self.state.operand(frame, base, active);
                let i = self.state.operand(frame, index, active);
                let dst = rec.dst.expect("gep has dst");
                self.write_dst(frame, dst, b.mask | i.mask, *result, |s, lane| {
                    let (b, i) = (
                        b.reg_or(s, lane, base.value),
                        i.reg_or(s, lane, index.value),
                    );
                    let a = b
                        .as_u64()
                        .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size));
                    Some(Value::Ptr(a))
                });
            }
            TraceOp::Select {
                cond,
                then_v,
                else_v,
                result,
            } => {
                let c = self.state.operand(frame, cond, active);
                let t = self.state.operand(frame, then_v, active);
                let e = self.state.operand(frame, else_v, active);
                let dst = rec.dst.expect("select has dst");
                self.write_dst(frame, dst, c.mask | t.mask | e.mask, *result, |s, lane| {
                    Some(if c.reg_or(s, lane, cond.value).is_truthy() {
                        t.reg_or(s, lane, then_v.value)
                    } else {
                        e.reg_or(s, lane, else_v.value)
                    })
                });
            }
            TraceOp::Intrinsic { intr, args, result } => {
                let dst = rec.dst.expect("intrinsic has dst");
                self.scratch_args.clear();
                let mut tainted = 0u64;
                for a in args {
                    let l = self.state.operand(frame, a, active);
                    self.scratch_args.push(l);
                    tainted |= l.mask;
                }
                let (lookups, vals) = (&self.scratch_args, &mut self.scratch_vals);
                let kill = active & !tainted;
                let trapped =
                    self.state
                        .write_reg(frame, dst, kill, tainted, *result, |s, lane| {
                            vals.clear();
                            vals.extend(
                                args.iter()
                                    .zip(lookups)
                                    .map(|(a, l)| l.reg_or(s, lane, a.value)),
                            );
                            eval_intrinsic(*intr, vals).ok()
                        });
                self.retire_unresolved(trapped, UnresolvedReason::EvalTrap);
            }
            TraceOp::Mov { src, result } => {
                let m = self.state.operand(frame, src, active);
                let dst = rec.dst.expect("mov has dst");
                self.write_dst(frame, dst, m.mask, *result, |s, lane| {
                    Some(m.reg_or(s, lane, src.value))
                });
            }
            TraceOp::Call {
                args,
                callee_frame,
                param_regs,
                ..
            } => {
                for (arg, param) in args.iter().zip(param_regs.iter()) {
                    let a = self.state.operand(frame, arg, active);
                    self.state
                        .write_reg(*callee_frame, *param, 0, a.mask, arg.value, |s, lane| {
                            Some(a.reg_or(s, lane, arg.value))
                        });
                }
            }
            TraceOp::Ret {
                value,
                caller_frame,
                dst_in_caller,
            } => {
                let rv = match value {
                    Some(v) => self.state.operand(frame, v, active),
                    None => Lookup::CLEAN,
                };
                // Capture per-lane return values before the frame's
                // registers die.
                let mut ret_vals = [NO_VALUE; MAX_REPLAY_LANES];
                for lane in iter_lanes(rv.mask) {
                    ret_vals[lane] = self.state.regs.vals[rv.at][lane];
                }
                self.state.drop_frame(frame);
                if let (Some(cf), Some(dst)) = (caller_frame, dst_in_caller) {
                    let clean = value.map_or(NO_VALUE, |v| v.value);
                    self.write_dst(*cf, *dst, rv.mask, clean, |_, lane| Some(ret_vals[lane]));
                } else if let Some(clean) = value {
                    // Corrupted final program return value: the outcome
                    // differs.
                    let differs = iter_lanes(rv.mask)
                        .filter(|&lane| !ret_vals[lane].bits_eq(&clean.value))
                        .fold(0u64, |m, lane| m | 1u64 << lane);
                    self.retire_unresolved(differs, UnresolvedReason::TraceEnded);
                }
            }
            TraceOp::CondBr { cond, taken } => {
                let c = self.state.operand(frame, cond, active);
                let diverged = iter_lanes(c.mask)
                    .filter(|&lane| self.state.regs.vals[c.at][lane].is_truthy() != *taken)
                    .fold(0u64, |m, lane| m | 1u64 << lane);
                self.retire_unresolved(diverged, UnresolvedReason::ControlDivergence);
            }
            TraceOp::Switch { value, .. } => {
                let v = self.state.operand(frame, value, active);
                let diverged = iter_lanes(v.mask)
                    .filter(|&lane| !self.state.regs.vals[v.at][lane].bits_eq(&value.value))
                    .fold(0u64, |m, lane| m | 1u64 << lane);
                self.retire_unresolved(diverged, UnresolvedReason::ControlDivergence);
            }
        }
    }
}

/// The replay engine: a reusable lane-batched cursor on which up to
/// [`MAX_REPLAY_LANES`] replays share one walk over the decoded records.
///
/// The engine owns its state buffers *and* a [`TraceRead`] reader, so a loop
/// replaying many batches allocates nothing per walk and — on the paged
/// backend — keeps a warm LRU of decoded segments that serves every lane in
/// the batch.  The trace itself is only borrowed: any number of engines in
/// any number of threads can walk the same trace concurrently.
pub struct ReplayEngine<'t> {
    len: u64,
    reader: Box<dyn TraceRead + 't>,
    state: BatchShadowState,
}

impl<'t> ReplayEngine<'t> {
    /// An engine over `trace` with empty state buffers.
    pub fn new(trace: &'t dyn TraceStorage) -> Self {
        ReplayEngine {
            len: trace.len(),
            reader: trace.new_reader(),
            state: BatchShadowState::default(),
        }
    }

    /// Clone one record out of the trace through this engine's warm reader
    /// (on the paged backend a fresh reader would decode a full segment per
    /// lookup; site loops hit the same segments their replays just paged in).
    pub fn fetch(&mut self, id: u64) -> Option<TraceRecord> {
        self.reader.fetch(id)
    }

    /// Replay every lane of `batch` (each at most `k` records from its own
    /// `start`) in one walk, appending one [`PropagationResult`] per lane to
    /// `out` in lane order.
    ///
    /// Lanes must be sorted by ascending `start` (checked: window
    /// retirement relies on it) and there can be at most
    /// [`MAX_REPLAY_LANES`] of them.  Lanes activate when the walk reaches
    /// their start and retire individually; when no lane is live the walk
    /// skips straight to the next start.  Lanes the walk never reaches
    /// (start at/past the trace end, or beyond a poisoned backend's decode
    /// error) meet the end-of-trace rule with nothing examined.
    ///
    /// # Panics
    ///
    /// If the batch holds more than [`MAX_REPLAY_LANES`] lanes or is not
    /// sorted by start.
    pub fn replay_lanes(
        &mut self,
        batch: &[BatchLane],
        k: usize,
        out: &mut Vec<PropagationResult>,
    ) {
        assert!(
            batch.len() <= MAX_REPLAY_LANES,
            "at most {MAX_REPLAY_LANES} lanes per batch"
        );
        assert!(
            batch.windows(2).all(|w| w[0].start <= w[1].start),
            "batch lanes must be sorted by start"
        );
        self.state.clear();
        let n = batch.len();
        let k = k as u64;
        let mut results: Vec<Option<PropagationResult>> = vec![None; n];
        let mut starts = [0u64; MAX_REPLAY_LANES];
        for (i, lane) in batch.iter().enumerate() {
            starts[i] = lane.start as u64;
            if lane.corrupt.is_empty() {
                results[i] = Some(PropagationResult::AllMasked { ops_examined: 0 });
            }
        }
        {
            let mut walk = BatchWalk {
                state: &mut self.state,
                results: &mut results,
                active: 0,
                scratch_args: Vec::new(),
                scratch_vals: Vec::new(),
            };
            let mut next_pending = 0usize;
            while next_pending < n && walk.results[next_pending].is_some() {
                next_pending += 1;
            }
            // Lanes before `oldest` have had their window checked to the
            // end; since starts ascend, windows exhaust in lane order.
            let mut oldest = 0usize;
            let mut pos = if next_pending < n {
                starts[next_pending]
            } else {
                self.len
            };
            'walk: while pos < self.len && (walk.active != 0 || next_pending < n) {
                let run = self.reader.run_from(pos);
                if run.is_empty() {
                    break;
                }
                for rec in run {
                    // Activate lanes whose window starts at this record.
                    while next_pending < n && starts[next_pending] == pos {
                        if walk.results[next_pending].is_none() {
                            walk.state
                                .seed_lane(next_pending, &batch[next_pending].corrupt);
                            walk.active |= 1u64 << next_pending;
                        }
                        next_pending += 1;
                    }
                    if walk.active == 0 {
                        // Nothing live: hop straight to the next start.
                        while next_pending < n && walk.results[next_pending].is_some() {
                            next_pending += 1;
                        }
                        if next_pending >= n {
                            break 'walk;
                        }
                        pos = starts[next_pending];
                        continue 'walk;
                    }
                    // Window exhaustion, checked before the record is
                    // examined (handles k = 0 like the scalar oracle).  The
                    // exhausted lanes are a prefix of the activated ones.
                    let mut exhausted = 0u64;
                    while oldest < next_pending && pos - starts[oldest] >= k {
                        exhausted |= 1u64 << oldest;
                        oldest += 1;
                    }
                    walk.retire_unresolved(
                        exhausted & walk.active,
                        UnresolvedReason::WindowExhausted,
                    );
                    if walk.active != 0 {
                        walk.state.dropped = 0;
                        walk.step(rec);
                        // Only lanes that lost a bit can have fully masked
                        // out, and only then is the union worth computing.
                        let dropped = walk.state.dropped & walk.active;
                        if dropped != 0 {
                            for lane in iter_lanes(dropped & !walk.state.union_mask()) {
                                walk.retire_masked(lane, (pos + 1 - starts[lane]) as usize);
                            }
                        }
                    }
                    pos += 1;
                }
            }
            // Lanes the walk never reached join the end-of-trace verdict
            // below with nothing examined.
            for lane in next_pending..n {
                if walk.results[lane].is_none() {
                    walk.state.seed_lane(lane, &batch[lane].corrupt);
                    walk.active |= 1u64 << lane;
                    starts[lane] = pos;
                }
            }
            // Trace ended (or the backend poisoned itself) with lanes still
            // live: same verdict rule as the scalar oracle — only corrupted
            // *memory* survives the end of the trace.
            let mem_live = walk.state.mem.union_mask();
            for lane in iter_lanes(walk.active & !mem_live) {
                walk.retire_masked(lane, (pos - starts[lane]) as usize);
            }
            walk.retire_unresolved(walk.active, UnresolvedReason::TraceEnded);
        }
        out.extend(results.into_iter().map(|r| r.expect("lane resolved")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_vm::{run_traced, run_traced_with, TraceBackendSpec, TraceData};

    /// x = a[0]; y = x * 2; a[1] = y; a[1] = 7.0; return a[1]
    /// An error in a[0] propagates into a[1] but is overwritten by the later
    /// constant store — the canonical propagation-masking pattern.
    fn overwrite_later_module() -> Module {
        let mut m = Module::new("ovl");
        let a = m.add_global(Global::from_f64("a", &[3.0, 0.0]));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let y = f.fmul(Operand::Reg(x), Operand::const_f64(2.0));
        f.store_elem(Type::F64, a, Operand::const_i64(1), Operand::Reg(y));
        f.store_elem(Type::F64, a, Operand::const_i64(1), Operand::const_f64(7.0));
        let out = f.load_elem(Type::F64, a, Operand::const_i64(1));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    #[test]
    fn corruption_killed_by_later_overwrite_is_masked() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        // Find the fmul record; corrupt its lhs (the loaded a[0]) and its dst.
        let fmul = trace.iter().find(|r| r.mnemonic() == "fmul").unwrap();
        let lhs_reg = match &fmul.op {
            TraceOp::Bin { lhs, .. } => match lhs.source {
                ValueSource::Reg(r) => r,
                _ => panic!(),
            },
            _ => panic!(),
        };
        let initial = vec![
            CorruptLoc::Reg {
                frame: fmul.frame,
                reg: lhs_reg,
                value: Value::F64(-3.0),
            },
            CorruptLoc::Reg {
                frame: fmul.frame,
                reg: fmul.dst.unwrap(),
                value: Value::F64(-6.0),
            },
        ];
        let res = replay(&trace, fmul.id as usize + 1, &initial, 50);
        assert!(res.is_masked(), "later constant store must mask: {res:?}");
    }

    #[test]
    fn corruption_reaching_final_output_is_unresolved() {
        // Same module, but corrupt the *final* store's value: nothing after
        // it re-writes a[1], so memory stays corrupted at trace end.
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let stores: Vec<&moard_vm::TraceRecord> =
            trace.iter().filter(|r| r.mnemonic() == "store").collect();
        let last_store = stores.last().unwrap();
        let addr = match &last_store.op {
            TraceOp::Store { addr, .. } => *addr,
            _ => unreachable!(),
        };
        let initial = vec![CorruptLoc::Mem {
            addr,
            value: Value::F64(-7.0),
        }];
        let res = replay(&trace, last_store.id as usize + 1, &initial, 50);
        match res {
            PropagationResult::Unresolved { .. } => {}
            other => panic!("expected unresolved, got {other:?}"),
        }
    }

    #[test]
    fn window_exhaustion_is_reported() {
        // A long chain of dependent adds keeps the corruption alive past a
        // tiny window.
        let mut m = Module::new("chain");
        let a = m.add_global(Global::from_f64("a", &[1.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::Reg(x));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(100), |f, _i| {
            let s = f.fadd(Operand::Reg(acc), Operand::const_f64(1.0));
            f.mov(acc, Operand::Reg(s));
        });
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(acc));
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);

        let (_, trace) = run_traced(&m).unwrap();
        let mov = trace.iter().find(|r| r.mnemonic() == "mov").unwrap();
        let initial = vec![CorruptLoc::Reg {
            frame: mov.frame,
            reg: mov.dst.unwrap(),
            value: Value::F64(-1.0),
        }];
        let res = replay(&trace, mov.id as usize + 1, &initial, 10);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::WindowExhausted,
                ..
            }
        ));
        // With a window large enough to reach the end the corruption is still
        // live in `out`'s memory.
        let res = replay(&trace, mov.id as usize + 1, &initial, 100_000);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                ..
            }
        ));
    }

    #[test]
    fn control_divergence_is_detected() {
        let mut m = Module::new("branchy");
        let a = m.add_global(Global::from_f64("a", &[5.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let c = f.cmp(CmpPred::FOgt, Operand::Reg(x), Operand::const_f64(0.0));
        f.if_then_else(
            Operand::Reg(c),
            |f| {
                f.store_elem(
                    Type::F64,
                    out,
                    Operand::const_i64(0),
                    Operand::const_f64(1.0),
                )
            },
            |f| {
                f.store_elem(
                    Type::F64,
                    out,
                    Operand::const_i64(0),
                    Operand::const_f64(-1.0),
                )
            },
        );
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        let (_, trace) = run_traced(&m).unwrap();
        let cmp = trace.iter().find(|r| r.mnemonic() == "cmp").unwrap();
        // Corrupt the comparison result itself: the branch flips.
        let initial = vec![CorruptLoc::Reg {
            frame: cmp.frame,
            reg: cmp.dst.unwrap(),
            value: Value::I1(false),
        }];
        let res = replay(&trace, cmp.id as usize + 1, &initial, 50);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::ControlDivergence,
                ..
            }
        ));
    }

    #[test]
    fn corrupted_index_reaching_address_is_unresolved() {
        let mut m = Module::new("addr");
        let idx = m.add_global(Global::from_i64("idx", &[1]));
        let a = m.add_global(Global::from_f64("a", &[1.0, 2.0, 3.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let i = f.load_elem(Type::I64, idx, Operand::const_i64(0));
        let v = f.load_elem(Type::F64, a, Operand::Reg(i));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(v));
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        let (_, trace) = run_traced(&m).unwrap();
        let i_load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { ty: Type::I64, .. }))
            .unwrap();
        let initial = vec![CorruptLoc::Reg {
            frame: i_load.frame,
            reg: i_load.dst.unwrap(),
            value: Value::I64(2),
        }];
        let res = replay(&trace, i_load.id as usize + 1, &initial, 50);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::AddressDivergence,
                ..
            }
        ));
    }

    #[test]
    fn empty_initial_state_is_trivially_masked() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        assert_eq!(
            replay(&trace, 0, &[], 50),
            PropagationResult::AllMasked { ops_examined: 0 }
        );
    }

    /// The engine's verdict for one lane walked alone.
    fn engine(
        trace: &dyn TraceStorage,
        start: usize,
        corrupt: &[CorruptLoc],
        k: usize,
    ) -> PropagationResult {
        let mut out = Vec::new();
        ReplayEngine::new(trace).replay_lanes(
            &[BatchLane {
                start,
                corrupt: corrupt.to_vec(),
            }],
            k,
            &mut out,
        );
        out[0]
    }

    /// A module traced on the in-memory backend and on a paged backend with
    /// 16-record segments.
    fn both_backends(m: &Module) -> [TraceData; 2] {
        [
            TraceBackendSpec::Memory,
            TraceBackendSpec::Paged {
                dir: None,
                segment_records: 16,
            },
        ]
        .map(|spec| run_traced_with(m, &spec).unwrap().1)
    }

    #[test]
    fn window_edge_site_at_trace_tail_matches_naive() {
        let mem_seed = vec![CorruptLoc::Mem {
            addr: 0x1008,
            value: Value::F64(-7.0),
        }];
        let reg_seed = vec![CorruptLoc::Reg {
            frame: 0,
            reg: moard_ir::RegId(0),
            value: Value::F64(-1.0),
        }];
        // A repeated address counts once: the later value overwrites.
        let dup_seed = vec![
            CorruptLoc::Mem {
                addr: 0x1008,
                value: Value::F64(-7.0),
            },
            reg_seed[0].clone(),
            CorruptLoc::Mem {
                addr: 0x1008,
                value: Value::F64(3.0),
            },
        ];
        let trace_ended = |live_locations| PropagationResult::Unresolved {
            reason: UnresolvedReason::TraceEnded,
            live_locations,
        };
        for m in [overwrite_later_module(), parity_module()] {
            for data in both_backends(&m) {
                let len = data.len();
                // Replays starting at the last record, exactly at the end,
                // and past the end: live memory must report TraceEnded, live
                // registers of a finished program must count as masked.
                let mut batch = Vec::new();
                for start in [len - 1, len, len + 10] {
                    for (seed, at_end) in [
                        (&mem_seed, trace_ended(1)),
                        (&reg_seed, PropagationResult::AllMasked { ops_examined: 0 }),
                        (&dup_seed, trace_ended(2)),
                    ] {
                        for k in [0, 50] {
                            let want = replay(&data, start, seed, k);
                            assert_eq!(engine(&data, start, seed, k), want, "start={start}");
                            if start >= len {
                                assert_eq!(want, at_end, "start={start} k={k}");
                            }
                        }
                        batch.push(BatchLane {
                            start,
                            corrupt: seed.clone(),
                        });
                    }
                }
                // The same lanes sharing one walk with live lanes ahead of
                // them.
                let mut out = Vec::new();
                ReplayEngine::new(&data).replay_lanes(&batch, 50, &mut out);
                for (lane, got) in batch.iter().zip(&out) {
                    assert_eq!(
                        *got,
                        replay(&data, lane.start, &lane.corrupt, 50),
                        "start={}",
                        lane.start
                    );
                }
            }
        }
    }

    #[test]
    fn window_edge_k_exceeding_remaining_records_matches_naive() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let fmul = trace.iter().find(|r| r.mnemonic() == "fmul").unwrap();
        let start = fmul.id as usize + 1;
        let seed = [CorruptLoc::Reg {
            frame: fmul.frame,
            reg: fmul.dst.unwrap(),
            value: Value::F64(-123.25),
        }];
        let remaining = trace.len() - start;
        // Windows straddling the tail: exactly the remaining records, one
        // more, and far past the end all agree with the scalar oracle (the
        // clamp cannot double-count or skip the final records).
        for data in both_backends(&m) {
            for k in [remaining, remaining + 1, remaining * 10 + 7] {
                assert_eq!(
                    engine(&data, start, &seed, k),
                    replay(&data, start, &seed, k),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn window_edge_strided_sites_in_last_partial_window_match_naive() {
        // Walk sites of a real object with a stride whose final step lands
        // in the last partial window of the trace, and check engine/oracle
        // parity of every replay — including sites whose window is shorter
        // than k.
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = moard_vm::Vm::with_defaults(&m).unwrap();
        let a = vm.objects().by_name("a").unwrap().id;
        let sites = crate::sites::enumerate_sites(&trace, a);
        assert!(sites.len() >= 3, "fixture object participates enough");
        let k = 4;
        for stride in [1usize, 2, 3] {
            let mut checked_partial_window = false;
            for site in sites.iter().step_by(stride) {
                let start = site.record_id as usize + 1;
                let seed = vec![CorruptLoc::Mem {
                    addr: 0x1000,
                    value: Value::F64(99.5),
                }];
                assert_eq!(
                    engine(&trace, start, &seed, k),
                    replay(&trace, start, &seed, k),
                    "stride={stride} site at record {}",
                    site.record_id
                );
                checked_partial_window |= trace.len() - start < k;
            }
            assert!(
                checked_partial_window,
                "stride {stride} must exercise a window shorter than k"
            );
        }
    }

    /// A fixture with branches, selects-by-control-flow, loops and stores:
    /// enough op variety that a batched walk exercises every retirement kind
    /// (masking, window exhaustion, control divergence, trace end).
    fn parity_module() -> Module {
        let mut m = Module::new("parity");
        let v = m.add_global(Global::from_f64("v", &[1.0, -2.0, 3.0, 4.0]));
        let sum = m.add_global(Global::zeroed("sum", Type::F64, 1));
        let pos = m.add_global(Global::zeroed("pos", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.store_elem(
            Type::F64,
            sum,
            Operand::const_i64(0),
            Operand::const_f64(0.0),
        );
        f.for_loop(Operand::const_i64(0), Operand::const_i64(4), |f, i| {
            let vi = f.load_elem(Type::F64, v, Operand::Reg(i));
            let c = f.cmp(CmpPred::FOgt, Operand::Reg(vi), Operand::const_f64(0.0));
            f.if_then_else(
                Operand::Reg(c),
                |f| {
                    f.store_elem(Type::F64, pos, Operand::const_i64(0), Operand::Reg(vi));
                },
                |f| {
                    f.store_elem(
                        Type::F64,
                        pos,
                        Operand::const_i64(0),
                        Operand::const_f64(0.0),
                    );
                },
            );
            let sq = f.fmul(Operand::Reg(vi), Operand::Reg(vi));
            let s = f.load_elem(Type::F64, sum, Operand::const_i64(0));
            let ns = f.fadd(Operand::Reg(s), Operand::Reg(sq));
            f.store_elem(Type::F64, sum, Operand::const_i64(0), Operand::Reg(ns));
        });
        let out = f.load_elem(Type::F64, sum, Operand::const_i64(0));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    /// The clean destination value a record produced, when it has one.
    fn dst_result(rec: &TraceRecord) -> Option<Value> {
        match &rec.op {
            TraceOp::Bin { result, .. }
            | TraceOp::Cmp { result, .. }
            | TraceOp::Cast { result, .. }
            | TraceOp::Load { result, .. }
            | TraceOp::Gep { result, .. }
            | TraceOp::Select { result, .. }
            | TraceOp::Intrinsic { result, .. }
            | TraceOp::Mov { result, .. } => Some(*result),
            _ => None,
        }
    }

    #[test]
    fn batched_replay_is_bit_identical_to_sequential() {
        let mut max_lanes = 0usize;
        for m in [overwrite_later_module(), parity_module()] {
            let (_, trace) = run_traced(&m).unwrap();
            // Lanes from every record: a type-correct bit flip of each
            // destination register, periodic multi-location memory seeds, a
            // mixed reg+mem seed, plus a trivially-masked empty seed (tail
            // starts at and past the trace end are the window-edge tests').
            let mut lanes: Vec<BatchLane> = Vec::new();
            lanes.push(BatchLane {
                start: 0,
                corrupt: vec![],
            });
            for rec in trace.iter() {
                let start = rec.id as usize + 1;
                if let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) {
                    lanes.push(BatchLane {
                        start,
                        corrupt: vec![CorruptLoc::Reg {
                            frame: rec.frame,
                            reg: dst,
                            value: clean.flip_bit(0),
                        }],
                    });
                }
                if rec.id % 3 == 0 {
                    lanes.push(BatchLane {
                        start,
                        corrupt: vec![
                            CorruptLoc::Mem {
                                addr: 0x1000,
                                value: Value::F64(99.5),
                            },
                            CorruptLoc::Mem {
                                addr: 0x1008,
                                value: Value::F64(-7.0),
                            },
                        ],
                    });
                }
                if rec.id % 4 == 1 {
                    if let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) {
                        lanes.push(BatchLane {
                            start,
                            corrupt: vec![
                                CorruptLoc::Reg {
                                    frame: rec.frame,
                                    reg: dst,
                                    value: clean.flip_bits(&[1, 2]),
                                },
                                CorruptLoc::Mem {
                                    addr: 0x1000,
                                    value: Value::F64(3.25),
                                },
                            ],
                        });
                    }
                }
            }
            lanes.sort_by_key(|l| l.start);
            max_lanes = max_lanes.max(lanes.len());

            let mut engine = ReplayEngine::new(&trace);
            for k in [0usize, 1, 3, 10, 50, 100_000] {
                let sequential: Vec<PropagationResult> = lanes
                    .iter()
                    .map(|l| replay(&trace, l.start, &l.corrupt, k))
                    .collect();
                for width in [1usize, 3, 7, 64] {
                    let mut batched = Vec::new();
                    for chunk in lanes.chunks(width) {
                        engine.replay_lanes(chunk, k, &mut batched);
                    }
                    assert_eq!(batched, sequential, "k={k} width={width}");
                }
            }
        }
        assert!(max_lanes > MAX_REPLAY_LANES, "population fills a batch");
    }

    /// A fixture for the engine's shared-entry paths: a divisor that one bit
    /// flip turns to zero (one lane traps while its siblings write the same
    /// quotient), self-updates `x = x & 0xff` and `s = s + r` whose
    /// destination is also an operand (high-bit lanes go clean and drop
    /// their bit while low-bit lanes still read the entry), a call/return
    /// pair, an intrinsic, a select, a switch, indexed loads and stores, and
    /// a returned value.
    fn lane_edge_module() -> Module {
        let mut m = Module::new("lane_edge");
        let d = m.add_global(Global::from_i64("d", &[1, 1, 3, 1]));
        let x = m.add_global(Global::from_i64("x", &[40, 7, -5, 300]));
        let sel = m.add_global(Global::from_i64("sel", &[2]));
        let acc = m.add_global(Global::zeroed("acc", Type::I64, 1));
        let out = m.add_global(Global::zeroed("out", Type::F64, 2));
        // i64 pick(i64 a, i64 b) { return smax(a, b); }
        let mut pick = FunctionBuilder::new("pick", &[Type::I64, Type::I64], Some(Type::I64));
        let (a, b) = (pick.param(0), pick.param(1));
        let mx = pick.intrinsic(
            Intrinsic::SMax,
            &[Operand::Reg(a), Operand::Reg(b)],
            Type::I64,
        );
        pick.ret(Some(Operand::Reg(mx)));
        let pick = m.add_function(pick.finish());

        let mut f = FunctionBuilder::new("main", &[], Some(Type::I64));
        let s = f.alloc_reg(Type::I64);
        f.mov(s, Operand::const_i64(0));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(4), |f, i| {
            let di = f.load_elem(Type::I64, d, Operand::Reg(i));
            let xi = f.load_elem(Type::I64, x, Operand::Reg(i));
            let q = f.sdiv(Operand::Reg(xi), Operand::Reg(di));
            f.push(Inst::Bin {
                op: BinOp::And,
                ty: Type::I64,
                lhs: Operand::Reg(xi),
                rhs: Operand::const_i64(0xff),
                dst: xi,
            });
            let r = f
                .call(pick, &[Operand::Reg(q), Operand::Reg(xi)], Some(Type::I64))
                .unwrap();
            f.push(Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Operand::Reg(s),
                rhs: Operand::Reg(r),
                dst: s,
            });
            let c = f.cmp(CmpPred::Sgt, Operand::Reg(r), Operand::const_i64(100));
            let v = f.select(Type::I64, Operand::Reg(c), Operand::Reg(r), Operand::Reg(q));
            f.store_elem(Type::I64, acc, Operand::const_i64(0), Operand::Reg(v));
        });
        let v = f.load_elem(Type::I64, sel, Operand::const_i64(0));
        let (b0, b1, join) = (f.new_block("c0"), f.new_block("c2"), f.new_block("join"));
        f.terminate(Terminator::Switch {
            value: Operand::Reg(v),
            cases: vec![(0, b0), (2, b1)],
            default: join,
        });
        for (block, value) in [(b0, 1.0), (b1, 2.0)] {
            f.switch_to(block);
            f.store_elem(
                Type::F64,
                out,
                Operand::const_i64(1),
                Operand::const_f64(value),
            );
            f.terminate(Terminator::Br { target: join });
        }
        f.switch_to(join);
        let sf = f.sitofp(Operand::Reg(s));
        let root = f.sqrt(Operand::Reg(sf));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(root));
        f.ret(Some(Operand::Reg(s)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    #[test]
    fn batched_replay_shares_entries_bit_identically() {
        let m = lane_edge_module();
        let (_, trace) = run_traced(&m).unwrap();
        let words: Vec<u64> = trace
            .iter()
            .filter_map(|r| match &r.op {
                TraceOp::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        // Several lanes per record share a start, one per flipped bit (a
        // high bit first, so a lane that goes clean precedes lanes still
        // reading the entry); memory seeds every fifth record and a seed
        // at start 0 stagger the rest.
        let mut lanes: Vec<BatchLane> = vec![BatchLane {
            start: 0,
            corrupt: vec![CorruptLoc::Mem {
                addr: words[0],
                value: Value::I64(-1),
            }],
        }];
        for rec in trace.iter() {
            let start = rec.id as usize + 1;
            if let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) {
                let width = clean.ty().bit_width();
                for bit in [40u32, 0, 62, 1, 7] {
                    lanes.push(BatchLane {
                        start,
                        corrupt: vec![CorruptLoc::Reg {
                            frame: rec.frame,
                            reg: dst,
                            value: clean.flip_bit(bit % width),
                        }],
                    });
                }
            }
            if rec.id % 5 == 2 {
                let addr = words[rec.id as usize % words.len()];
                lanes.push(BatchLane {
                    start,
                    corrupt: vec![CorruptLoc::Mem {
                        addr,
                        value: Value::I64(rec.id as i64),
                    }],
                });
            }
        }
        lanes.sort_by_key(|l| l.start);

        let mut seen_masked = false;
        let mut seen_reasons: Vec<UnresolvedReason> = Vec::new();
        let mut staggered_exhaustion = false;
        for data in both_backends(&m) {
            let mut engine = ReplayEngine::new(&data);
            for k in [0usize, 1, 3, 10, 50, 100_000] {
                let sequential: Vec<PropagationResult> = lanes
                    .iter()
                    .map(|l| replay(&data, l.start, &l.corrupt, k))
                    .collect();
                for result in &sequential {
                    match result {
                        PropagationResult::AllMasked { .. } => seen_masked = true,
                        PropagationResult::Unresolved { reason, .. } => {
                            if !seen_reasons.contains(reason) {
                                seen_reasons.push(*reason);
                            }
                        }
                    }
                }
                for width in [1usize, 3, 7, 64] {
                    let mut batched = Vec::new();
                    for chunk in lanes.chunks(width) {
                        let from = batched.len();
                        engine.replay_lanes(chunk, k, &mut batched);
                        // Windows of one walk exhausting at two or more
                        // distinct records.
                        let mut exhausted_starts = chunk
                            .iter()
                            .zip(&batched[from..])
                            .filter(|(_, r)| {
                                matches!(
                                    r,
                                    PropagationResult::Unresolved {
                                        reason: UnresolvedReason::WindowExhausted,
                                        ..
                                    }
                                )
                            })
                            .map(|(l, _)| l.start);
                        if let Some(first) = exhausted_starts.next() {
                            staggered_exhaustion |= exhausted_starts.any(|s| s != first);
                        }
                    }
                    assert_eq!(batched, sequential, "k={k} width={width}");
                }
            }
        }
        assert!(seen_masked, "some lane masks out");
        for reason in [
            UnresolvedReason::WindowExhausted,
            UnresolvedReason::ControlDivergence,
            UnresolvedReason::AddressDivergence,
            UnresolvedReason::EvalTrap,
            UnresolvedReason::TraceEnded,
        ] {
            assert!(seen_reasons.contains(&reason), "{reason:?} never occurs");
        }
        assert!(staggered_exhaustion, "windows exhaust in several groups");
    }

    #[test]
    #[should_panic(expected = "sorted by start")]
    fn unsorted_batch_is_rejected() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let lane = |start| BatchLane {
            start,
            corrupt: vec![CorruptLoc::Mem {
                addr: 0x1000,
                value: Value::F64(1.5),
            }],
        };
        ReplayEngine::new(&trace).replay_lanes(&[lane(3), lane(1)], 50, &mut Vec::new());
    }
}
