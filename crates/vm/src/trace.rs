//! Dynamic instruction trace: an indexed, cache-friendly trace engine.
//!
//! One [`TraceRecord`] is emitted per executed IR operation.  Each record
//! carries everything the aDVF analysis needs without re-running the program:
//! the opcode and its semantic class, every consumed operand *value*, the
//! result value, the memory addresses touched, which data-object element (if
//! any) each consumed value corresponds to, and enough register/frame
//! information to replay error propagation forward through the trace.
//!
//! The trace is the aDVF hot path: every participation-site classification
//! replays error propagation through a window of records, and site
//! enumeration visits every operation touching the target object.  Three
//! engine-level decisions keep that fast:
//!
//! * **per-object record-id indexes** ([`TraceIndex`]) are built once, as
//!   records are appended, so [`Trace::records_touching`] and the site
//!   enumeration in `moard-core` are O(records touching the object) instead
//!   of O(trace) scans per object;
//! * **operand access is allocation-free** — [`TraceRecord::operands`]
//!   returns an inline [`Operands`] view (small fixed array or a borrow of
//!   the record's argument slice) instead of materializing a `Vec` per call;
//! * **windowed views are zero-copy** — [`Trace::window`] hands the
//!   propagation replay a borrowed slice cursor, so replays on many threads
//!   share one immutable trace with no cloning.

use crate::objects::ObjectId;
use moard_ir::{BinOp, BlockId, CastKind, CmpPred, FuncId, Intrinsic, RegId, Type, Value};

/// Where a consumed value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSource {
    /// A virtual register of the executing frame.
    Reg(RegId),
    /// An immediate constant.
    Const,
    /// The base address of a global (always a pointer).
    GlobalBase,
}

/// A consumed operand value, annotated with data semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedVal {
    /// The value as consumed (after any injected fault).
    pub value: Value,
    /// Source of the value.
    pub source: ValueSource,
    /// If the value *is* (a direct, untransformed copy of) element `e` of a
    /// registered data object, that element.  This is the "register
    /// tracking" of the paper: it lets the analysis know which operands of an
    /// operation hold values of the target data object.
    pub element: Option<(ObjectId, u64)>,
}

impl TracedVal {
    /// A constant operand (no data semantics).
    pub fn constant(value: Value) -> Self {
        TracedVal {
            value,
            source: ValueSource::Const,
            element: None,
        }
    }
}

/// The semantic payload of a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Binary arithmetic / logic / shift.
    Bin {
        op: BinOp,
        ty: Type,
        lhs: TracedVal,
        rhs: TracedVal,
        result: Value,
    },
    /// Comparison.
    Cmp {
        pred: CmpPred,
        lhs: TracedVal,
        rhs: TracedVal,
        result: Value,
    },
    /// Cast / conversion.
    Cast {
        kind: CastKind,
        to: Type,
        src: TracedVal,
        result: Value,
    },
    /// Memory load.
    Load {
        ty: Type,
        addr: u64,
        /// Where the address value came from (register / constant / global
        /// base); needed by propagation replay to detect corrupted addresses.
        addr_src: ValueSource,
        /// Data-object element the address falls into, if any.
        element: Option<(ObjectId, u64)>,
        result: Value,
    },
    /// Memory store.
    Store {
        ty: Type,
        addr: u64,
        /// Where the address value came from.
        addr_src: ValueSource,
        /// Data-object element the destination falls into, if any.
        element: Option<(ObjectId, u64)>,
        /// The value written.
        value: TracedVal,
        /// The value that was overwritten (the previous memory contents).
        overwritten: Value,
        /// True if the stored value was computed from the destination
        /// element's current value (e.g. `sum[m] = sum[m] + x`): in that case
        /// the store does *not* mask a pre-existing error in the element.
        value_depends_on_dest: bool,
    },
    /// Address computation.
    Gep {
        base: TracedVal,
        index: TracedVal,
        elem_size: u64,
        result: Value,
    },
    /// Conditional select.
    Select {
        cond: TracedVal,
        then_v: TracedVal,
        else_v: TracedVal,
        result: Value,
    },
    /// Math intrinsic.
    Intrinsic {
        intr: Intrinsic,
        args: Vec<TracedVal>,
        result: Value,
    },
    /// Register copy.
    Mov { src: TracedVal, result: Value },
    /// Function call: arguments are copied into the callee's parameter
    /// registers in a new frame.
    Call {
        callee: FuncId,
        args: Vec<TracedVal>,
        /// Frame id assigned to the callee.
        callee_frame: u64,
        /// Parameter registers of the callee (same order as `args`).
        param_regs: Vec<RegId>,
    },
    /// Function return.
    Ret {
        value: Option<TracedVal>,
        /// Frame id of the caller resumed by this return (`None` when the
        /// entry function returns).
        caller_frame: Option<u64>,
        /// Destination register in the caller receiving the return value.
        dst_in_caller: Option<RegId>,
    },
    /// Conditional branch (records the decision for divergence detection).
    CondBr { cond: TracedVal, taken: bool },
    /// Switch (records which successor was taken).
    Switch {
        value: TracedVal,
        taken_index: usize,
    },
}

/// One executed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Dynamic instruction id (0-based, increasing in execution order).
    pub id: u64,
    /// Frame id of the executing function activation (for register scoping).
    pub frame: u64,
    /// Static location: function.
    pub func: FuncId,
    /// Static location: block.
    pub block: BlockId,
    /// Static location: instruction index within the block
    /// (`u32::MAX` for terminators).
    pub inst: u32,
    /// Destination register written by this operation, if any
    /// (in frame `frame`, except for `Ret` where it is in the caller frame).
    pub dst: Option<RegId>,
    /// Semantic payload.
    pub op: TraceOp,
}

/// Marker value used in `inst` for terminator records.
pub const TERMINATOR_INST: u32 = u32::MAX;

/// Maximum number of inline operand references (the widest fixed-arity
/// operation is `Select` with three consumed values).
const INLINE_OPERANDS: usize = 3;

/// Allocation-free view of a record's consumed operands, in the stable order
/// the analysis indexes them by ([`crate::trace::TraceRecord::operands`]).
///
/// Fixed-arity operations borrow up to `INLINE_OPERANDS` inline references;
/// variadic operations (`Intrinsic`, `Call`) borrow the record's own argument
/// slice.  Either way, constructing and iterating the view allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Operands<'a> {
    inline: [Option<&'a TracedVal>; INLINE_OPERANDS],
    inline_len: usize,
    slice: &'a [TracedVal],
}

impl<'a> Operands<'a> {
    fn inline(vals: &[&'a TracedVal]) -> Self {
        debug_assert!(vals.len() <= INLINE_OPERANDS);
        let mut inline = [None; INLINE_OPERANDS];
        for (slot, v) in inline.iter_mut().zip(vals.iter()) {
            *slot = Some(*v);
        }
        Operands {
            inline,
            inline_len: vals.len(),
            slice: &[],
        }
    }

    fn slice(slice: &'a [TracedVal]) -> Self {
        Operands {
            inline: [None; INLINE_OPERANDS],
            inline_len: 0,
            slice,
        }
    }

    /// Number of consumed operands.
    pub fn len(&self) -> usize {
        self.inline_len + self.slice.len()
    }

    /// True if the operation consumes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th consumed operand (the index [`crate::trace::TraceRecord`]
    /// sites are keyed by).
    pub fn get(&self, i: usize) -> Option<&'a TracedVal> {
        if i < self.inline_len {
            self.inline[i]
        } else {
            self.slice.get(i - self.inline_len)
        }
    }

    /// Iterate over the operands in slot order.
    pub fn iter(&self) -> OperandsIter<'a> {
        OperandsIter {
            operands: *self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for Operands<'a> {
    type Item = &'a TracedVal;
    type IntoIter = OperandsIter<'a>;

    fn into_iter(self) -> OperandsIter<'a> {
        OperandsIter {
            operands: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for &Operands<'a> {
    type Item = &'a TracedVal;
    type IntoIter = OperandsIter<'a>;

    fn into_iter(self) -> OperandsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Operands`] view.
#[derive(Debug, Clone)]
pub struct OperandsIter<'a> {
    operands: Operands<'a>,
    next: usize,
}

impl<'a> Iterator for OperandsIter<'a> {
    type Item = &'a TracedVal;

    fn next(&mut self) -> Option<&'a TracedVal> {
        let item = self.operands.get(self.next);
        if item.is_some() {
            self.next += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.operands.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for OperandsIter<'_> {}

impl TraceRecord {
    /// A stable key identifying the *static* instruction that produced this
    /// record.  Used for error-equivalence grouping.
    pub fn static_key(&self) -> (u32, u32, u32) {
        (self.func.0, self.block.0, self.inst)
    }

    /// The record's result value, if the operation produces one.
    pub fn result(&self) -> Option<Value> {
        match &self.op {
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

    /// All consumed operands of this record, in a stable order, as an
    /// allocation-free view.
    pub fn operands(&self) -> Operands<'_> {
        match &self.op {
            TraceOp::Bin { lhs, rhs, .. } => Operands::inline(&[lhs, rhs]),
            TraceOp::Cmp { lhs, rhs, .. } => Operands::inline(&[lhs, rhs]),
            TraceOp::Cast { src, .. } => Operands::inline(&[src]),
            TraceOp::Load { .. } => Operands::inline(&[]),
            TraceOp::Store { value, .. } => Operands::inline(&[value]),
            TraceOp::Gep { base, index, .. } => Operands::inline(&[base, index]),
            TraceOp::Select {
                cond,
                then_v,
                else_v,
                ..
            } => Operands::inline(&[cond, then_v, else_v]),
            TraceOp::Intrinsic { args, .. } => Operands::slice(args),
            TraceOp::Mov { src, .. } => Operands::inline(&[src]),
            TraceOp::Call { args, .. } => Operands::slice(args),
            TraceOp::Ret { value, .. } => match value {
                Some(v) => Operands::inline(&[v]),
                None => Operands::inline(&[]),
            },
            TraceOp::CondBr { cond, .. } => Operands::inline(&[cond]),
            TraceOp::Switch { value, .. } => Operands::inline(&[value]),
        }
    }

    /// Every data object this record touches — consumed operand elements,
    /// plus the element a load reads or a store overwrites.  Visits each
    /// object at most once per record.  (Crate-visible so the paged trace
    /// writer maintains the same per-object index as [`Trace::push`].)
    pub(crate) fn touched_objects(&self, mut visit: impl FnMut(ObjectId)) {
        let mut seen: [Option<ObjectId>; INLINE_OPERANDS + 1] = [None; INLINE_OPERANDS + 1];
        let mut emit = |obj: ObjectId| {
            for slot in seen.iter_mut() {
                match slot {
                    Some(o) if *o == obj => return,
                    Some(_) => continue,
                    None => {
                        *slot = Some(obj);
                        visit(obj);
                        return;
                    }
                }
            }
            // More distinct objects than tracked slots (only possible for
            // wide variadic records): emit conservatively; the index
            // deduplicates on append.
            visit(obj);
        };
        for operand in self.operands() {
            if let Some((obj, _)) = operand.element {
                emit(obj);
            }
        }
        match &self.op {
            TraceOp::Load {
                element: Some((obj, _)),
                ..
            }
            | TraceOp::Store {
                element: Some((obj, _)),
                ..
            } => emit(*obj),
            _ => {}
        }
    }

    /// Short mnemonic for reports.
    pub fn mnemonic(&self) -> &'static str {
        match &self.op {
            TraceOp::Bin { op, .. } => op.mnemonic(),
            TraceOp::Cmp { .. } => "cmp",
            TraceOp::Cast { kind, .. } => kind.mnemonic(),
            TraceOp::Load { .. } => "load",
            TraceOp::Store { .. } => "store",
            TraceOp::Gep { .. } => "gep",
            TraceOp::Select { .. } => "select",
            TraceOp::Intrinsic { intr, .. } => intr.mnemonic(),
            TraceOp::Mov { .. } => "mov",
            TraceOp::Call { .. } => "call",
            TraceOp::Ret { .. } => "ret",
            TraceOp::CondBr { .. } => "condbr",
            TraceOp::Switch { .. } => "switch",
        }
    }
}

/// Per-object record-id indexes, maintained incrementally as records are
/// appended.  `ids(obj)` lists, in execution order, every record that
/// consumes or overwrites an element of `obj` — the linear-scan predicate of
/// the old `records_touching`, precomputed once at trace time.
#[derive(Debug, Clone, Default)]
pub struct TraceIndex {
    /// `per_object[obj.0]` = sorted record ids touching that object.
    per_object: Vec<Vec<u64>>,
}

impl TraceIndex {
    /// Record ids touching `obj`, in execution order.
    pub fn ids(&self, obj: ObjectId) -> &[u64] {
        self.per_object
            .get(obj.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of objects with at least one indexed record.
    pub fn indexed_objects(&self) -> usize {
        self.per_object.iter().filter(|ids| !ids.is_empty()).count()
    }

    /// Total number of (object, record) index entries.
    pub fn entries(&self) -> u64 {
        self.per_object.iter().map(|ids| ids.len() as u64).sum()
    }

    pub(crate) fn note(&mut self, obj: ObjectId, record_id: u64) {
        let slot = obj.0 as usize;
        if slot >= self.per_object.len() {
            self.per_object.resize_with(slot + 1, Vec::new);
        }
        let ids = &mut self.per_object[slot];
        // Records are appended in id order; a record emitting the same
        // object twice (possible only for wide variadic records) dedupes
        // against the tail.
        if ids.last() != Some(&record_id) {
            ids.push(record_id);
        }
    }

    /// Number of object slots (the highest indexed `ObjectId` + 1); used by
    /// the paged backend to persist the index densely.
    pub(crate) fn object_slots(&self) -> usize {
        self.per_object.len()
    }

    /// Install the full id list of one object slot (paged-manifest reload).
    pub(crate) fn set_ids(&mut self, obj: ObjectId, ids: Vec<u64>) {
        let slot = obj.0 as usize;
        if slot >= self.per_object.len() {
            self.per_object.resize_with(slot + 1, Vec::new);
        }
        self.per_object[slot] = ids;
    }
}

/// Summary statistics of a trace and its index (serialized into
/// `BENCH_*.json` by `moard-core`'s report layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of records.
    pub records: u64,
    /// Number of data objects with at least one indexed record.
    pub indexed_objects: usize,
    /// Total (object, record) index entries.
    pub index_entries: u64,
}

/// A complete dynamic trace with its per-object index.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Records in execution order; `records[i].id == i`.
    records: Vec<TraceRecord>,
    /// Per-object record-id index, maintained by [`Trace::push`].
    index: TraceIndex,
}

impl Trace {
    /// Append a record, updating the per-object index.  Records must arrive
    /// in execution order with `record.id == len()`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-order id: the index stores record *ids* and
    /// `records_touching` dereferences them as positions, so accepting a
    /// mismatched record would silently corrupt every downstream analysis.
    pub fn push(&mut self, record: TraceRecord) {
        assert_eq!(
            record.id as usize,
            self.records.len(),
            "records must be appended in dynamic-id order"
        );
        let id = record.id;
        let index = &mut self.index;
        record.touched_objects(|obj| index.note(obj, id));
        self.records.push(record);
    }

    /// Build a trace (and its index) from records already in execution
    /// order.
    pub fn from_records(records: impl IntoIterator<Item = TraceRecord>) -> Self {
        let mut trace = Trace::default();
        for record in records {
            trace.push(record);
        }
        trace
    }

    /// The records in execution order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterate over the records in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// The per-object record-id index.
    pub fn index(&self) -> &TraceIndex {
        &self.index
    }

    /// Summary statistics of the trace and its index.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            records: self.records.len() as u64,
            indexed_objects: self.index.indexed_objects(),
            index_entries: self.index.entries(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record by dynamic id.
    pub fn record(&self, id: u64) -> Option<&TraceRecord> {
        self.records.get(id as usize)
    }

    /// Zero-copy cursor view of the records from `start_index` (clamped to
    /// the trace length) to the end — the windowed view the propagation
    /// replay walks.  Borrowing a slice instead of cloning records lets
    /// replays on many threads share one immutable trace.
    pub fn window(&self, start_index: usize) -> &[TraceRecord] {
        &self.records[start_index.min(self.records.len())..]
    }

    /// Record ids that *consume or overwrite* an element of the given data
    /// object, in execution order, from the precomputed index.
    pub fn touching_ids(&self, obj: ObjectId) -> &[u64] {
        self.index.ids(obj)
    }

    /// Iterate over records that *consume or overwrite* an element of the
    /// given data object — i.e. the operations "with the participation of the
    /// target data object" in the paper's aDVF definition.  Served from the
    /// per-object index: O(records touching `obj`), not O(trace).
    pub fn records_touching(&self, obj: ObjectId) -> impl Iterator<Item = &TraceRecord> {
        self.index
            .ids(obj)
            .iter()
            .map(move |&id| &self.records[id as usize])
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Backend-agnostic read access to a completed dynamic trace.
///
/// Two backends implement this: the in-memory [`Trace`] (everything
/// resident, the default) and the out-of-core [`crate::paged::PagedTrace`]
/// (fixed-size record segments on disk, decoded lazily per replay window).
/// The analysis layers (`moard-core`'s site enumeration, propagation replay,
/// and aDVF analyzer) operate on `&dyn TraceStorage`, so a `&Trace` at an
/// existing call site keeps working via unsized coercion.
///
/// Record access goes through per-thread [`TraceRead`] readers
/// ([`TraceStorage::new_reader`]) because the paged backend needs mutable
/// decode state (a small LRU of decoded segments); the storage itself stays
/// immutable and `Sync`, so analyses on many worker threads share one
/// trace.
pub trait TraceStorage: Send + Sync {
    /// Number of records in the trace.
    fn len(&self) -> u64;

    /// True if the trace holds no records.
    fn is_empty(&self) -> bool {
        TraceStorage::len(self) == 0
    }

    /// The per-object record-id index (always memory-resident).
    fn index(&self) -> &TraceIndex;

    /// Summary statistics of the trace and its index.
    fn stats(&self) -> TraceStats;

    /// Backend name for reports and diagnostics (`"memory"`, `"paged"`).
    fn backend_name(&self) -> &'static str;

    /// A fresh reader over this trace.  Readers are cheap for the memory
    /// backend and carry the decoded-segment LRU for the paged backend;
    /// create one per thread / long-lived cursor, not per record.
    fn new_reader(&self) -> Box<dyn TraceRead + '_>;

    /// The first decode failure observed by any reader of this trace, if
    /// one occurred.  Readers deliberately stay infallible on the replay
    /// hot path (a failed decode yields an empty run); fallible entry
    /// points check this slot after analysis and surface the typed error.
    fn poisoned(&self) -> Option<crate::paged::TraceError> {
        None
    }
}

/// A positioned reader over a [`TraceStorage`] backend.
pub trait TraceRead {
    /// The longest contiguous run of decoded records starting at dynamic id
    /// `id`: the whole tail for the memory backend, the rest of the decoded
    /// segment for the paged backend.  Empty iff `id` is past the end of
    /// the trace — or the backend failed to decode (see
    /// [`TraceStorage::poisoned`]).  Callers advance by the returned length
    /// and call again, so a replay window crossing N segments costs N
    /// virtual calls, not one per record.
    fn run_from(&mut self, id: u64) -> &[TraceRecord];

    /// One record by dynamic id (cloned out of the backend's buffers), or
    /// `None` past the end / on a poisoned decode.
    fn fetch(&mut self, id: u64) -> Option<TraceRecord> {
        self.run_from(id).first().cloned()
    }
}

impl TraceStorage for Trace {
    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    fn index(&self) -> &TraceIndex {
        &self.index
    }

    fn stats(&self) -> TraceStats {
        Trace::stats(self)
    }

    fn backend_name(&self) -> &'static str {
        "memory"
    }

    fn new_reader(&self) -> Box<dyn TraceRead + '_> {
        Box::new(MemoryReader {
            records: &self.records,
        })
    }
}

/// The memory backend's reader: a borrow of the record vector.  `run_from`
/// returns the whole tail, so a full replay costs one virtual call.
struct MemoryReader<'t> {
    records: &'t [TraceRecord],
}

impl TraceRead for MemoryReader<'_> {
    fn run_from(&mut self, id: u64) -> &[TraceRecord] {
        let start = (id as usize).min(self.records.len());
        &self.records[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, op: TraceOp) -> TraceRecord {
        TraceRecord {
            id,
            frame: 0,
            func: FuncId(0),
            block: BlockId(0),
            inst: id as u32,
            dst: None,
            op,
        }
    }

    #[test]
    fn operands_and_result_extraction() {
        let r = record(
            0,
            TraceOp::Bin {
                op: BinOp::FAdd,
                ty: Type::F64,
                lhs: TracedVal::constant(Value::F64(1.0)),
                rhs: TracedVal::constant(Value::F64(2.0)),
                result: Value::F64(3.0),
            },
        );
        assert_eq!(r.operands().len(), 2);
        assert_eq!(r.result(), Some(Value::F64(3.0)));
        assert_eq!(r.mnemonic(), "fadd");

        let s = record(
            1,
            TraceOp::Store {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: Some((ObjectId(0), 0)),
                value: TracedVal::constant(Value::F64(5.0)),
                overwritten: Value::F64(0.0),
                value_depends_on_dest: false,
            },
        );
        assert_eq!(s.operands().len(), 1);
        assert_eq!(s.result(), None);
    }

    #[test]
    fn operands_view_indexing_matches_iteration() {
        let r = record(
            0,
            TraceOp::Select {
                cond: TracedVal::constant(Value::I1(true)),
                then_v: TracedVal::constant(Value::F64(1.0)),
                else_v: TracedVal::constant(Value::F64(2.0)),
                result: Value::F64(1.0),
            },
        );
        let view = r.operands();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        let collected: Vec<&TracedVal> = view.iter().collect();
        assert_eq!(collected.len(), 3);
        for (i, v) in view.iter().enumerate() {
            assert_eq!(view.get(i).unwrap(), v);
        }
        assert!(view.get(3).is_none());
        assert_eq!(view.iter().len(), 3);

        // Variadic records borrow their argument slice.
        let intr = record(
            1,
            TraceOp::Intrinsic {
                intr: Intrinsic::Sqrt,
                args: vec![TracedVal::constant(Value::F64(4.0))],
                result: Value::F64(2.0),
            },
        );
        assert_eq!(intr.operands().len(), 1);
        assert_eq!(intr.operands().get(0).unwrap().value, Value::F64(4.0));

        let load = record(
            2,
            TraceOp::Load {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: None,
                result: Value::F64(0.0),
            },
        );
        assert!(load.operands().is_empty());
        assert_eq!(load.operands().iter().next(), None);
    }

    fn touching_fixture() -> Trace {
        Trace::from_records([
            record(
                0,
                TraceOp::Load {
                    ty: Type::F64,
                    addr: 0x1000,
                    addr_src: ValueSource::Const,
                    element: Some((ObjectId(0), 0)),
                    result: Value::F64(1.0),
                },
            ),
            record(
                1,
                TraceOp::Load {
                    ty: Type::F64,
                    addr: 0x2000,
                    addr_src: ValueSource::Const,
                    element: Some((ObjectId(1), 0)),
                    result: Value::F64(2.0),
                },
            ),
            record(
                2,
                TraceOp::Bin {
                    op: BinOp::FMul,
                    ty: Type::F64,
                    lhs: TracedVal {
                        value: Value::F64(1.0),
                        source: ValueSource::Reg(RegId(0)),
                        element: Some((ObjectId(0), 0)),
                    },
                    rhs: TracedVal::constant(Value::F64(2.0)),
                    result: Value::F64(2.0),
                },
            ),
        ])
    }

    #[test]
    fn records_touching_filters_by_object() {
        let trace = touching_fixture();
        let touching0: Vec<u64> = trace.records_touching(ObjectId(0)).map(|r| r.id).collect();
        assert_eq!(touching0, vec![0, 2]);
        let touching1: Vec<u64> = trace.records_touching(ObjectId(1)).map(|r| r.id).collect();
        assert_eq!(touching1, vec![1]);
        // Unindexed objects are empty, not a panic.
        assert_eq!(trace.records_touching(ObjectId(7)).count(), 0);
    }

    #[test]
    fn index_is_built_incrementally_and_deduplicated() {
        // A record consuming the same object in both operands must be
        // indexed once.
        let trace = Trace::from_records([record(
            0,
            TraceOp::Bin {
                op: BinOp::FMul,
                ty: Type::F64,
                lhs: TracedVal {
                    value: Value::F64(3.0),
                    source: ValueSource::Reg(RegId(0)),
                    element: Some((ObjectId(2), 4)),
                },
                rhs: TracedVal {
                    value: Value::F64(3.0),
                    source: ValueSource::Reg(RegId(1)),
                    element: Some((ObjectId(2), 4)),
                },
                result: Value::F64(9.0),
            },
        )]);
        assert_eq!(trace.touching_ids(ObjectId(2)), &[0]);
        let stats = trace.stats();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.indexed_objects, 1);
        assert_eq!(stats.index_entries, 1);
    }

    #[test]
    fn store_and_load_elements_are_indexed() {
        let trace = Trace::from_records([record(
            0,
            TraceOp::Store {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: Some((ObjectId(3), 0)),
                value: TracedVal {
                    value: Value::F64(5.0),
                    source: ValueSource::Reg(RegId(0)),
                    element: Some((ObjectId(1), 2)),
                },
                overwritten: Value::F64(0.0),
                value_depends_on_dest: false,
            },
        )]);
        assert_eq!(trace.touching_ids(ObjectId(3)), &[0]);
        assert_eq!(trace.touching_ids(ObjectId(1)), &[0]);
        assert_eq!(trace.stats().index_entries, 2);
    }

    #[test]
    #[should_panic(expected = "dynamic-id order")]
    fn out_of_order_record_ids_are_rejected() {
        let _ = Trace::from_records([record(
            3,
            TraceOp::Mov {
                src: TracedVal::constant(Value::I64(1)),
                result: Value::I64(1),
            },
        )]);
    }

    #[test]
    fn window_is_a_zero_copy_cursor() {
        let trace = touching_fixture();
        assert_eq!(trace.window(0).len(), 3);
        assert_eq!(trace.window(2).len(), 1);
        assert_eq!(trace.window(2)[0].id, 2);
        // Past-the-end starts clamp to an empty window instead of panicking.
        assert_eq!(trace.window(3).len(), 0);
        assert_eq!(trace.window(1000).len(), 0);
    }

    #[test]
    fn static_key_is_stable() {
        let r = record(
            5,
            TraceOp::Mov {
                src: TracedVal::constant(Value::I64(1)),
                result: Value::I64(1),
            },
        );
        assert_eq!(r.static_key(), (0, 0, 5));
    }
}
