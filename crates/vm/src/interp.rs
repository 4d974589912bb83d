//! The tracing interpreter ("application trace generator" + "deterministic
//! fault injector" of the MOARD framework).
//!
//! One [`Vm`] instance owns a fresh copy of a module's memory image.  It can:
//!
//! * execute the module natively (the *golden run*),
//! * execute while recording a [`Trace`] — one record per dynamic operation,
//!   annotated with data semantics (which data-object element each consumed
//!   value corresponds to, and whether a stored value depends on the element
//!   it overwrites), and
//! * execute with a single deterministic fault ([`FaultSpec`]) applied at an
//!   exact dynamic instruction, which is how the model resolves
//!   overshadowing, propagation, and algorithm-level masking questions.
//!
//! All three share one interpreter loop, compiled twice through a
//! `const TRACED: bool` parameter.  Traced runs ([`Vm::execute_traced`],
//! [`Vm::execute_traced_with`]) carry the provenance the trace records need:
//! each register's source element and taint set, the taint of every stored
//! memory word, and the element and overwritten value of every access.
//! Golden and injected runs ([`Vm::execute`], [`Vm::execute_with_fault`])
//! use the untraced instantiation, where all of that is compiled out; they
//! keep every bounds check, trap, fault-application rule and the step
//! budget, so their outcomes are bit-identical to a traced run's.

use crate::fault::{FaultSpec, FaultTarget};
use crate::memory::Memory;
use crate::objects::{DataObjectRegistry, ObjectId};
use crate::outcome::{ExecOutcome, ExecStatus};
use crate::paged::{TraceBackendSpec, TraceBuilder, TraceData, TraceError};
use crate::taint::TaintSet;
use crate::trace::{Trace, TraceOp, TraceRecord, TracedVal, ValueSource, TERMINATOR_INST};
use moard_ir::{
    eval_binop, eval_cast, eval_cmp, eval_intrinsic, BlockId, FuncId, GlobalInit, Inst, Module,
    Operand, RegId, Terminator, Value,
};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum number of dynamic instructions before the run is classified as
    /// a timeout.  Protects against runaway loops caused by corrupted loop
    /// bounds or indices.
    pub max_steps: u64,
    /// Memory capacity in bytes available to globals.
    pub memory_capacity: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 20_000_000,
            memory_capacity: 64 << 20,
        }
    }
}

/// Errors occurring while *loading* a module (before execution) or while
/// persisting its trace.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A global did not fit into the configured memory capacity.
    OutOfMemory(String),
    /// The module has no entry function.
    NoEntry(String),
    /// The paged trace backend failed to persist the trace.
    Trace(TraceError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfMemory(g) => write!(f, "global {g} does not fit in VM memory"),
            VmError::NoEntry(e) => write!(f, "entry function `{e}` not found"),
            VmError::Trace(e) => write!(f, "trace backend failed: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<TraceError> for VmError {
    fn from(e: TraceError) -> VmError {
        VmError::Trace(e)
    }
}

/// One function activation.
struct Frame {
    func: FuncId,
    frame_id: u64,
    block: BlockId,
    inst: usize,
    regs: Vec<Value>,
    /// Per-register source element and taint; empty in untraced runs.
    prov: Vec<Option<(ObjectId, u64)>>,
    taint: Vec<TaintSet>,
    /// Register in the *caller* frame that receives this frame's return value.
    ret_dst: Option<RegId>,
}

/// Evaluated operand with data semantics.
#[derive(Clone)]
struct OpVal {
    value: Value,
    source: ValueSource,
    element: Option<(ObjectId, u64)>,
    taint: TaintSet,
}

impl OpVal {
    fn traced(&self) -> TracedVal {
        TracedVal {
            value: self.value,
            source: self.source,
            element: self.element,
        }
    }
}

/// A loaded module image ready to execute.
pub struct Vm<'m> {
    module: &'m Module,
    memory: Memory,
    objects: DataObjectRegistry,
    global_bases: Vec<u64>,
    config: VmConfig,
}

impl<'m> Vm<'m> {
    /// Load `module`: allocate and initialize every global, build the
    /// data-object registry.
    pub fn new(module: &'m Module, config: VmConfig) -> Result<Self, VmError> {
        if module.function_id(&module.entry).is_none() {
            return Err(VmError::NoEntry(module.entry.clone()));
        }
        let mut memory = Memory::new(config.memory_capacity);
        let mut objects = DataObjectRegistry::new();
        let mut global_bases = Vec::with_capacity(module.globals.len());
        for (gi, g) in module.globals.iter().enumerate() {
            let base = memory
                .alloc(g.byte_size(), g.elem_ty.alignment())
                .map_err(|_| VmError::OutOfMemory(g.name.clone()))?;
            global_bases.push(base);
            objects.register(
                g.name.clone(),
                moard_ir::GlobalId(gi as u32),
                base,
                g.elem_ty,
                g.count,
            );
            match &g.init {
                GlobalInit::Zero => {
                    // Memory is zero-initialized by the allocator.
                }
                GlobalInit::Values(vals) => {
                    for (i, v) in vals.iter().enumerate() {
                        let addr = base + i as u64 * g.elem_ty.byte_size();
                        memory
                            .store(g.elem_ty, addr, *v)
                            .map_err(|_| VmError::OutOfMemory(g.name.clone()))?;
                    }
                }
            }
        }
        Ok(Vm {
            module,
            memory,
            objects,
            global_bases,
            config,
        })
    }

    /// Load a module with the default configuration.
    pub fn with_defaults(module: &'m Module) -> Result<Self, VmError> {
        Vm::new(module, VmConfig::default())
    }

    /// The data-object registry for this image (stable across runs of the
    /// same module/config because allocation is deterministic).
    pub fn objects(&self) -> &DataObjectRegistry {
        &self.objects
    }

    /// Execute without tracing or faults (the golden run).
    pub fn execute(mut self) -> ExecOutcome {
        self.run::<false>(None, None)
    }

    /// Execute while recording the full dynamic trace in memory.
    pub fn execute_traced(mut self) -> (ExecOutcome, Trace) {
        let mut builder = TraceBuilder::Memory(Trace::default());
        let outcome = self.run::<true>(None, Some(&mut builder));
        match builder {
            TraceBuilder::Memory(trace) => (outcome, trace),
            TraceBuilder::Paged(_) => unreachable!("memory builder stays memory"),
        }
    }

    /// Execute while recording the full dynamic trace into the backend
    /// selected by `spec` — the memory backend yields the same trace as
    /// [`Vm::execute_traced`]; the paged backend spills segments to disk as
    /// the run progresses.
    pub fn execute_traced_with(
        mut self,
        spec: &TraceBackendSpec,
    ) -> Result<(ExecOutcome, TraceData), VmError> {
        let mut builder = TraceBuilder::for_spec(spec)?;
        let outcome = self.run::<true>(None, Some(&mut builder));
        Ok((outcome, builder.finish()?))
    }

    /// Execute with a deterministic fault applied.
    pub fn execute_with_fault(mut self, fault: &FaultSpec) -> ExecOutcome {
        self.run::<false>(Some(fault), None)
    }

    /// A fresh activation.  Untraced frames get empty `prov` and `taint`
    /// vectors, which do not allocate.
    fn new_frame<const TRACED: bool>(
        &self,
        func: FuncId,
        frame_id: u64,
        ret_dst: Option<RegId>,
    ) -> Frame {
        let f = self.module.function(func);
        let n = if TRACED { f.num_regs() } else { 0 };
        Frame {
            func,
            frame_id,
            block: BlockId(0),
            inst: 0,
            regs: f.reg_types.iter().map(|&t| Value::zero(t)).collect(),
            prov: vec![None; n],
            taint: vec![TaintSet::empty(); n],
            ret_dst,
        }
    }

    fn snapshot_globals(&self) -> BTreeMap<String, Vec<Value>> {
        let mut out = BTreeMap::new();
        for obj in self.objects.iter() {
            let mut vals = Vec::with_capacity(obj.count as usize);
            for i in 0..obj.count {
                let addr = obj.elem_addr(i);
                vals.push(
                    self.memory
                        .load(obj.elem_ty, addr)
                        .unwrap_or(Value::zero(obj.elem_ty)),
                );
            }
            out.insert(obj.name.clone(), vals);
        }
        out
    }

    fn finish(&self, status: ExecStatus, ret: Option<Value>, steps: u64) -> ExecOutcome {
        ExecOutcome {
            status,
            return_value: ret,
            globals: self.snapshot_globals(),
            steps,
        }
    }

    /// Evaluate `op`; only traced runs copy the register's provenance.
    fn eval_operand<const TRACED: bool>(&self, frame: &Frame, op: &Operand) -> OpVal {
        match op {
            Operand::Const(v) => OpVal {
                value: *v,
                source: ValueSource::Const,
                element: None,
                taint: TaintSet::empty(),
            },
            Operand::Reg(r) => {
                let r_idx = r.0 as usize;
                let (element, taint) = if TRACED {
                    (frame.prov[r_idx], frame.taint[r_idx].clone())
                } else {
                    (None, TaintSet::empty())
                };
                OpVal {
                    value: frame.regs[r_idx],
                    source: ValueSource::Reg(*r),
                    element,
                    taint,
                }
            }
            Operand::Global(g) => OpVal {
                value: Value::Ptr(self.global_bases[g.0 as usize]),
                source: ValueSource::GlobalBase,
                element: None,
                taint: TaintSet::empty(),
            },
        }
    }

    /// Write `dst`; only traced runs record its provenance and taint.
    fn set_reg<const TRACED: bool>(
        frame: &mut Frame,
        dst: RegId,
        value: Value,
        prov: Option<(ObjectId, u64)>,
        taint: TaintSet,
    ) {
        frame.regs[dst.0 as usize] = value;
        if TRACED {
            frame.prov[dst.0 as usize] = prov;
            frame.taint[dst.0 as usize] = taint;
        }
    }

    /// The taint of a value computed from `a` and `b`; untraced runs keep
    /// none.
    fn joint_taint<const TRACED: bool>(a: &OpVal, b: &OpVal) -> TaintSet {
        if TRACED {
            TaintSet::union(&a.taint, &b.taint)
        } else {
            TaintSet::empty()
        }
    }

    /// Apply an operand-targeted fault if `fault` matches this dynamic
    /// instruction and slot.  Persists the corruption in the source register
    /// when the operand came from one.
    fn maybe_inject_operand(
        fault: Option<&FaultSpec>,
        dyn_id: u64,
        slot: usize,
        op: &mut OpVal,
        frame: &mut Frame,
    ) {
        if let Some(f) = fault {
            if f.dyn_id == dyn_id && f.target == FaultTarget::Operand(slot) {
                op.value = op.value.flip_mask(f.mask);
                if let ValueSource::Reg(r) = op.source {
                    frame.regs[r.0 as usize] = op.value;
                }
            }
        }
    }

    fn maybe_inject_result(fault: Option<&FaultSpec>, dyn_id: u64, result: Value) -> Value {
        if let Some(f) = fault {
            if f.dyn_id == dyn_id && f.target == FaultTarget::Result {
                return result.flip_mask(f.mask);
            }
        }
        result
    }

    /// The interpreter loop, compiled twice.  `run::<true>` keeps the data
    /// semantics — register provenance, taint sets, memory taint, the
    /// element and overwritten value of every access — and hands one
    /// [`TraceRecord`] per dynamic operation to `sink` (either backend;
    /// pushes are infallible on this hot path — see [`TraceBuilder::push`]).
    /// `run::<false>` executes the same instructions, faults, traps and step
    /// budget with all of that compiled out; its `sink` is ignored.
    fn run<const TRACED: bool>(
        &mut self,
        fault: Option<&FaultSpec>,
        mut sink: Option<&mut TraceBuilder>,
    ) -> ExecOutcome {
        // A copy of the module reference, so instructions borrowed from it
        // do not borrow `self`.
        let module = self.module;
        let entry = module.entry_id();
        let mut frames: Vec<Frame> = vec![self.new_frame::<TRACED>(entry, 0, None)];
        let mut next_frame_id: u64 = 1;
        let mut dyn_id: u64 = 0;
        let mut mem_taint: HashMap<u64, TaintSet> = HashMap::new();

        macro_rules! emit {
            ($frame:expr, $inst_idx:expr, $dst:expr, $op:expr) => {
                if TRACED {
                    if let Some(t) = sink.as_deref_mut() {
                        t.push(TraceRecord {
                            id: dyn_id,
                            frame: $frame.frame_id,
                            func: $frame.func,
                            block: $frame.block,
                            inst: $inst_idx,
                            dst: $dst,
                            op: $op,
                        });
                    }
                }
            };
        }

        loop {
            if dyn_id >= self.config.max_steps {
                return self.finish(ExecStatus::Timeout, None, dyn_id);
            }
            // Split the borrow: everything below works on the top frame.
            let frame_idx = frames.len() - 1;
            let func = frames[frame_idx].func;
            let block = frames[frame_idx].block;
            let inst_idx = frames[frame_idx].inst;
            let blk = module.function(func).block(block);

            if inst_idx < blk.insts.len() {
                frames[frame_idx].inst += 1;
                let frame = &mut frames[frame_idx];
                match blk.insts[inst_idx] {
                    Inst::Bin {
                        op,
                        ty,
                        ref lhs,
                        ref rhs,
                        dst,
                    } => {
                        let mut a = self.eval_operand::<TRACED>(frame, lhs);
                        let mut b = self.eval_operand::<TRACED>(frame, rhs);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut a, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 1, &mut b, frame);
                        let result = match eval_binop(op, ty, &a.value, &b.value) {
                            Ok(v) => v,
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        let result = Self::maybe_inject_result(fault, dyn_id, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Bin {
                                op,
                                ty,
                                lhs: a.traced(),
                                rhs: b.traced(),
                                result,
                            }
                        );
                        let taint = Self::joint_taint::<TRACED>(&a, &b);
                        Self::set_reg::<TRACED>(frame, dst, result, None, taint);
                    }
                    Inst::Cmp {
                        pred,
                        ref lhs,
                        ref rhs,
                        dst,
                    } => {
                        let mut a = self.eval_operand::<TRACED>(frame, lhs);
                        let mut b = self.eval_operand::<TRACED>(frame, rhs);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut a, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 1, &mut b, frame);
                        let result = eval_cmp(pred, &a.value, &b.value).unwrap_or(Value::I1(false));
                        let result = Self::maybe_inject_result(fault, dyn_id, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Cmp {
                                pred,
                                lhs: a.traced(),
                                rhs: b.traced(),
                                result,
                            }
                        );
                        let taint = Self::joint_taint::<TRACED>(&a, &b);
                        Self::set_reg::<TRACED>(frame, dst, result, None, taint);
                    }
                    Inst::Cast {
                        kind,
                        to,
                        ref src,
                        dst,
                    } => {
                        let mut s = self.eval_operand::<TRACED>(frame, src);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut s, frame);
                        let result = match eval_cast(kind, to, &s.value) {
                            Ok(v) => v,
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        let result = Self::maybe_inject_result(fault, dyn_id, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Cast {
                                kind,
                                to,
                                src: s.traced(),
                                result,
                            }
                        );
                        Self::set_reg::<TRACED>(frame, dst, result, None, s.taint);
                    }
                    Inst::Load { ty, ref addr, dst } => {
                        let mut a = self.eval_operand::<TRACED>(frame, addr);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut a, frame);
                        let address = a.value.as_u64();
                        // A fault targeting the loaded value corrupts the
                        // memory element before the load consumes it.
                        if let Some(f) = fault {
                            if f.dyn_id == dyn_id
                                && f.target == FaultTarget::LoadValue
                                && self.memory.flip_mask(ty, address, f.mask).is_err()
                            {
                                return self.finish(
                                    ExecStatus::MemFault(format!(
                                        "fault injection at unmapped 0x{address:x}"
                                    )),
                                    None,
                                    dyn_id,
                                );
                            }
                        }
                        let value = match self.memory.load(ty, address) {
                            Ok(v) => v,
                            Err(e) => {
                                return self.finish(
                                    ExecStatus::MemFault(e.to_string()),
                                    None,
                                    dyn_id,
                                );
                            }
                        };
                        let value = Self::maybe_inject_result(fault, dyn_id, value);
                        let element = if TRACED {
                            self.objects.locate(address)
                        } else {
                            None
                        };
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Load {
                                ty,
                                addr: address,
                                addr_src: a.source,
                                element,
                                result: value,
                            }
                        );
                        let taint = if TRACED {
                            let mut taint = mem_taint.get(&address).cloned().unwrap_or_default();
                            if let Some((o, e)) = element {
                                taint.insert(o, e);
                            }
                            taint
                        } else {
                            TaintSet::empty()
                        };
                        Self::set_reg::<TRACED>(frame, dst, value, element, taint);
                    }
                    Inst::Store {
                        ty,
                        ref value,
                        ref addr,
                    } => {
                        let mut v = self.eval_operand::<TRACED>(frame, value);
                        let mut a = self.eval_operand::<TRACED>(frame, addr);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut v, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 1, &mut a, frame);
                        let address = a.value.as_u64();
                        // A fault targeting the store destination corrupts
                        // the element just before it is overwritten.
                        if let Some(f) = fault {
                            if f.dyn_id == dyn_id
                                && f.target == FaultTarget::StoreDest
                                && self.memory.flip_mask(ty, address, f.mask).is_err()
                            {
                                return self.finish(
                                    ExecStatus::MemFault(format!(
                                        "fault injection at unmapped 0x{address:x}"
                                    )),
                                    None,
                                    dyn_id,
                                );
                            }
                        }
                        // Only traces record the destination element, the
                        // value it held and whether the new value depends on it.
                        let (element, overwritten, depends) = if TRACED {
                            let element = self.objects.locate(address);
                            let overwritten =
                                self.memory.load(ty, address).unwrap_or(Value::zero(ty));
                            let depends = element.is_some_and(|(o, e)| v.taint.may_depend_on(o, e));
                            (element, overwritten, depends)
                        } else {
                            (None, Value::zero(ty), false)
                        };
                        if let Err(e) = self.memory.store(ty, address, v.value) {
                            return self.finish(ExecStatus::MemFault(e.to_string()), None, dyn_id);
                        }
                        emit!(
                            frame,
                            inst_idx as u32,
                            None,
                            TraceOp::Store {
                                ty,
                                addr: address,
                                addr_src: a.source,
                                element,
                                value: v.traced(),
                                overwritten,
                                value_depends_on_dest: depends,
                            }
                        );
                        if TRACED {
                            if v.taint.is_empty() {
                                mem_taint.remove(&address);
                            } else {
                                mem_taint.insert(address, v.taint);
                            }
                        }
                    }
                    Inst::Gep {
                        ref base,
                        ref index,
                        elem_size,
                        dst,
                    } => {
                        let mut b = self.eval_operand::<TRACED>(frame, base);
                        let mut i = self.eval_operand::<TRACED>(frame, index);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut b, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 1, &mut i, frame);
                        let address = b
                            .value
                            .as_u64()
                            .wrapping_add((i.value.as_i64() as u64).wrapping_mul(elem_size));
                        let result = Value::Ptr(address);
                        let result = Self::maybe_inject_result(fault, dyn_id, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Gep {
                                base: b.traced(),
                                index: i.traced(),
                                elem_size,
                                result,
                            }
                        );
                        let taint = Self::joint_taint::<TRACED>(&b, &i);
                        Self::set_reg::<TRACED>(frame, dst, result, None, taint);
                    }
                    Inst::Select {
                        ref cond,
                        ref then_v,
                        ref else_v,
                        dst,
                    } => {
                        let mut c = self.eval_operand::<TRACED>(frame, cond);
                        let mut t = self.eval_operand::<TRACED>(frame, then_v);
                        let mut e = self.eval_operand::<TRACED>(frame, else_v);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut c, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 1, &mut t, frame);
                        Self::maybe_inject_operand(fault, dyn_id, 2, &mut e, frame);
                        let chosen = if c.value.is_truthy() { &t } else { &e };
                        let result = Self::maybe_inject_result(fault, dyn_id, chosen.value);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Select {
                                cond: c.traced(),
                                then_v: t.traced(),
                                else_v: e.traced(),
                                result,
                            }
                        );
                        // The unchosen arm's dependences do not flow into the
                        // result value, but the condition's do.
                        let taint = Self::joint_taint::<TRACED>(&c, chosen);
                        Self::set_reg::<TRACED>(frame, dst, result, chosen.element, taint);
                    }
                    Inst::CallIntrinsic {
                        intr,
                        ref args,
                        dst,
                    } => {
                        let mut vals: Vec<OpVal> = args
                            .iter()
                            .map(|a| self.eval_operand::<TRACED>(frame, a))
                            .collect();
                        for (i, v) in vals.iter_mut().enumerate() {
                            Self::maybe_inject_operand(fault, dyn_id, i, v, frame);
                        }
                        let raw: Vec<Value> = vals.iter().map(|v| v.value).collect();
                        let result = match eval_intrinsic(intr, &raw) {
                            Ok(v) => v,
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        let result = Self::maybe_inject_result(fault, dyn_id, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Intrinsic {
                                intr,
                                args: vals.iter().map(|v| v.traced()).collect(),
                                result,
                            }
                        );
                        let mut taint = TaintSet::empty();
                        if TRACED {
                            for v in &vals {
                                taint.union_with(&v.taint);
                            }
                        }
                        Self::set_reg::<TRACED>(frame, dst, result, None, taint);
                    }
                    Inst::Mov { ref src, dst } => {
                        let mut s = self.eval_operand::<TRACED>(frame, src);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut s, frame);
                        let result = Self::maybe_inject_result(fault, dyn_id, s.value);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(dst),
                            TraceOp::Mov {
                                src: s.traced(),
                                result,
                            }
                        );
                        Self::set_reg::<TRACED>(frame, dst, result, s.element, s.taint);
                    }
                    Inst::Call {
                        func: callee,
                        ref args,
                        dst,
                    } => {
                        let mut vals: Vec<OpVal> = args
                            .iter()
                            .map(|a| self.eval_operand::<TRACED>(frame, a))
                            .collect();
                        for (i, v) in vals.iter_mut().enumerate() {
                            Self::maybe_inject_operand(fault, dyn_id, i, v, frame);
                        }
                        let params = &module.function(callee).params;
                        let callee_frame_id = next_frame_id;
                        next_frame_id += 1;
                        emit!(
                            frame,
                            inst_idx as u32,
                            dst,
                            TraceOp::Call {
                                callee,
                                args: vals.iter().map(|v| v.traced()).collect(),
                                callee_frame: callee_frame_id,
                                param_regs: params.iter().map(|(r, _)| *r).collect(),
                            }
                        );
                        let mut new_frame = self.new_frame::<TRACED>(callee, callee_frame_id, dst);
                        for (v, (r, _)) in vals.into_iter().zip(params) {
                            Self::set_reg::<TRACED>(
                                &mut new_frame,
                                *r,
                                v.value,
                                v.element,
                                v.taint,
                            );
                        }
                        frames.push(new_frame);
                    }
                }
                dyn_id += 1;
            } else {
                // Terminator.
                match blk.term {
                    Terminator::Br { target } => {
                        // Unconditional branches carry no data and are not
                        // counted as operations.
                        let frame = &mut frames[frame_idx];
                        frame.block = target;
                        frame.inst = 0;
                    }
                    Terminator::CondBr {
                        ref cond,
                        then_b,
                        else_b,
                    } => {
                        let frame = &mut frames[frame_idx];
                        let mut c = self.eval_operand::<TRACED>(frame, cond);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut c, frame);
                        let taken = c.value.is_truthy();
                        emit!(
                            frame,
                            TERMINATOR_INST,
                            None,
                            TraceOp::CondBr {
                                cond: c.traced(),
                                taken,
                            }
                        );
                        frame.block = if taken { then_b } else { else_b };
                        frame.inst = 0;
                        dyn_id += 1;
                    }
                    Terminator::Switch {
                        ref value,
                        ref cases,
                        default,
                    } => {
                        let frame = &mut frames[frame_idx];
                        let mut v = self.eval_operand::<TRACED>(frame, value);
                        Self::maybe_inject_operand(fault, dyn_id, 0, &mut v, frame);
                        let key = v.value.as_i64();
                        let mut target = default;
                        let mut taken_index = cases.len();
                        for (i, (case, blk)) in cases.iter().enumerate() {
                            if *case == key {
                                target = *blk;
                                taken_index = i;
                                break;
                            }
                        }
                        emit!(
                            frame,
                            TERMINATOR_INST,
                            None,
                            TraceOp::Switch {
                                value: v.traced(),
                                taken_index,
                            }
                        );
                        frame.block = target;
                        frame.inst = 0;
                        dyn_id += 1;
                    }
                    Terminator::Ret { ref value } => {
                        let frame = &mut frames[frame_idx];
                        let ret_ty = module.function(frame.func).ret_ty;
                        let mut v = value
                            .as_ref()
                            .map(|op| self.eval_operand::<TRACED>(frame, op));
                        if let Some(val) = v.as_mut() {
                            Self::maybe_inject_operand(fault, dyn_id, 0, val, frame);
                        }
                        let ret_val = match (&v, ret_ty) {
                            (Some(val), _) => Some(val.value),
                            (None, Some(t)) => Some(Value::zero(t)),
                            (None, None) => None,
                        };
                        let ret_dst = frame.ret_dst;
                        emit!(
                            frames[frame_idx],
                            TERMINATOR_INST,
                            ret_dst,
                            TraceOp::Ret {
                                value: v.as_ref().map(|x| x.traced()),
                                caller_frame: frame_idx.checked_sub(1).map(|c| frames[c].frame_id),
                                dst_in_caller: ret_dst,
                            }
                        );
                        dyn_id += 1;
                        let (prov, taint) = v
                            .map(|x| (x.element, x.taint))
                            .unwrap_or((None, TaintSet::empty()));
                        frames.pop();
                        match frames.last_mut() {
                            Some(caller) => {
                                if let (Some(dst), Some(val)) = (ret_dst, ret_val) {
                                    Self::set_reg::<TRACED>(caller, dst, val, prov, taint);
                                }
                            }
                            None => {
                                return self.finish(ExecStatus::Completed, ret_val, dyn_id);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: run a module's golden execution with default config.
pub fn run_golden(module: &Module) -> Result<ExecOutcome, VmError> {
    Ok(Vm::with_defaults(module)?.execute())
}

/// Convenience: run a module and record the trace with default config.
pub fn run_traced(module: &Module) -> Result<(ExecOutcome, Trace), VmError> {
    Ok(Vm::with_defaults(module)?.execute_traced())
}

/// Convenience: run a module and record the trace into the given backend
/// with default config.
pub fn run_traced_with(
    module: &Module,
    spec: &TraceBackendSpec,
) -> Result<(ExecOutcome, TraceData), VmError> {
    Vm::with_defaults(module)?.execute_traced_with(spec)
}

/// Convenience: run a module with a fault and default config.
pub fn run_with_fault(module: &Module, fault: &FaultSpec) -> Result<ExecOutcome, VmError> {
    Ok(Vm::with_defaults(module)?.execute_with_fault(fault))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_ir::verify::assert_verified;

    /// data[i] = i for i in 0..8, then sum them and return the sum.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let data = m.add_global(Global::zeroed("data", Type::F64, 8));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(8), |f, i| {
            let fi = f.sitofp(Operand::Reg(i));
            f.store_elem(Type::F64, data, Operand::Reg(i), Operand::Reg(fi));
        });
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::const_f64(0.0));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(8), |f, i| {
            let v = f.load_elem(Type::F64, data, Operand::Reg(i));
            let s = f.fadd(Operand::Reg(acc), Operand::Reg(v));
            f.mov(acc, Operand::Reg(s));
        });
        f.ret(Some(Operand::Reg(acc)));
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn golden_run_computes_expected_sum() {
        let m = sum_module();
        let out = run_golden(&m).unwrap();
        assert!(out.status.is_completed());
        assert_eq!(out.return_f64(), 28.0);
        assert_eq!(
            out.global_f64("data"),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn traced_run_matches_golden_and_has_records() {
        let m = sum_module();
        let (out, trace) = run_traced(&m).unwrap();
        assert_eq!(out.return_f64(), 28.0);
        assert!(!trace.is_empty());
        // Every record's id matches its index.
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id as usize, i);
        }
        // There are exactly 8 stores and 8 loads touching `data`.
        let data_obj = ObjectId(0);
        let stores = trace
            .iter()
            .filter(
                |r| matches!(&r.op, TraceOp::Store { element: Some((o, _)), .. } if *o == data_obj),
            )
            .count();
        let loads = trace
            .iter()
            .filter(
                |r| matches!(&r.op, TraceOp::Load { element: Some((o, _)), .. } if *o == data_obj),
            )
            .count();
        assert_eq!(stores, 8);
        assert_eq!(loads, 8);
    }

    #[test]
    fn store_dependence_flag_distinguishes_overwrite_from_accumulate() {
        // a[0] = 1.0            (pure overwrite, does not depend on a[0])
        // a[0] = a[0] + 1.0     (accumulate, depends on a[0])
        let mut m = Module::new("dep");
        let a = m.add_global(Global::zeroed("a", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        f.store_elem(Type::F64, a, Operand::const_i64(0), Operand::const_f64(1.0));
        let v = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let s = f.fadd(Operand::Reg(v), Operand::const_f64(1.0));
        f.store_elem(Type::F64, a, Operand::const_i64(0), Operand::Reg(s));
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);

        let (_, trace) = run_traced(&m).unwrap();
        let stores: Vec<&TraceRecord> = trace
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 2);
        match (&stores[0].op, &stores[1].op) {
            (
                TraceOp::Store {
                    value_depends_on_dest: d0,
                    ..
                },
                TraceOp::Store {
                    value_depends_on_dest: d1,
                    ..
                },
            ) => {
                assert!(!d0, "plain overwrite must not depend on destination");
                assert!(d1, "accumulation must depend on destination");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn fault_on_overwritten_element_is_masked() {
        // Flipping any bit of data[i] right before the first-phase store
        // (which overwrites it) must leave the outcome identical.
        let m = sum_module();
        let (golden, trace) = run_traced(&m).unwrap();
        // Find the first store to `data`.
        let store = trace
            .iter()
            .find(|r| matches!(r.op, TraceOp::Store { .. }))
            .unwrap();
        let fault = FaultSpec::single_bit(store.id, FaultTarget::StoreDest, 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(out.bits_identical(&golden));
    }

    #[test]
    fn fault_on_loaded_element_changes_sum() {
        let m = sum_module();
        let (golden, trace) = run_traced(&m).unwrap();
        // Find a load of data[3] (value 3.0) and flip its sign bit in memory.
        let load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { result, .. } if result.as_f64() == 3.0))
            .unwrap();
        let fault = FaultSpec::single_bit(load.id, FaultTarget::LoadValue, 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(out.status.is_completed());
        assert_eq!(out.return_f64(), 22.0); // 28 - 2*3
        assert!(!out.bits_identical(&golden));
    }

    /// Load data[idx[0]]: a corrupted index runs out of bounds.
    fn idxfault_module() -> Module {
        let mut m = Module::new("idxfault");
        let data = m.add_global(Global::zeroed("data", Type::F64, 4));
        let idx = m.add_global(Global::from_i64("idx", &[1]));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let i = f.load_elem(Type::I64, idx, Operand::const_i64(0));
        let v = f.load_elem(Type::F64, data, Operand::Reg(i));
        f.ret(Some(Operand::Reg(v)));
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn corrupted_index_can_cause_memory_fault() {
        // Load data[i] where i is corrupted to a huge value -> out of bounds.
        let m = idxfault_module();
        let (_, trace) = run_traced(&m).unwrap();
        let idx_load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { ty: Type::I64, .. }))
            .unwrap();
        // Flip a high bit of the index.
        let fault = FaultSpec::single_bit(idx_load.id, FaultTarget::LoadValue, 40);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(matches!(out.status, ExecStatus::MemFault(_)));
    }

    /// `while (g[0] == 0) {}` -- never terminates since nothing writes g.
    fn spin_module() -> Module {
        let mut m = Module::new("spin");
        let g = m.add_global(Global::zeroed("g", Type::I64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        f.loop_while(
            |f| {
                let v = f.load_elem(Type::I64, g, Operand::const_i64(0));
                Operand::Reg(f.cmp(CmpPred::Eq, Operand::Reg(v), Operand::const_i64(0)))
            },
            |_f| {},
        );
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn timeout_on_runaway_loop() {
        let m = spin_module();
        let vm = Vm::new(
            &m,
            VmConfig {
                max_steps: 10_000,
                ..VmConfig::default()
            },
        )
        .unwrap();
        let out = vm.execute();
        assert_eq!(out.status, ExecStatus::Timeout);
    }

    /// `out[0] = square(3.0)`, returned as well.
    fn call_module() -> Module {
        let mut m = Module::new("call");
        let out_g = m.add_global(Global::zeroed("out", Type::F64, 1));
        // double square(double x) { return x * x; }
        let mut sq = FunctionBuilder::new("square", &[Type::F64], Some(Type::F64));
        let x = sq.param(0);
        let xx = sq.fmul(Operand::Reg(x), Operand::Reg(x));
        sq.ret(Some(Operand::Reg(xx)));
        let sq_id = m.add_function(sq.finish());

        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let r = f
            .call(sq_id, &[Operand::const_f64(3.0)], Some(Type::F64))
            .unwrap();
        f.store_elem(Type::F64, out_g, Operand::const_i64(0), Operand::Reg(r));
        f.ret(Some(Operand::Reg(r)));
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        let m = call_module();
        let out = run_golden(&m).unwrap();
        assert_eq!(out.return_f64(), 9.0);
        assert_eq!(out.global_f64("out"), vec![9.0]);

        // The trace contains call and ret records linked by frame ids.
        let (_, trace) = run_traced(&m).unwrap();
        let call = trace
            .iter()
            .find(|r| matches!(r.op, TraceOp::Call { .. }))
            .unwrap();
        let ret = trace
            .iter()
            .find(|r| {
                matches!(
                    &r.op,
                    TraceOp::Ret {
                        caller_frame: Some(_),
                        ..
                    }
                )
            })
            .unwrap();
        if let (TraceOp::Call { callee_frame, .. }, TraceOp::Ret { caller_frame, .. }) =
            (&call.op, &ret.op)
        {
            assert_eq!(ret.frame, *callee_frame);
            assert_eq!(*caller_frame, Some(call.frame));
        }
    }

    /// `return 1 / 0`.
    fn trap_module() -> Module {
        let mut m = Module::new("trap");
        m.add_global(Global::zeroed("pad", Type::I64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::I64));
        let d = f.sdiv(Operand::const_i64(1), Operand::const_i64(0));
        f.ret(Some(Operand::Reg(d)));
        m.add_function(f.finish());
        m
    }

    #[test]
    fn division_by_zero_traps() {
        let m = trap_module();
        let out = run_golden(&m).unwrap();
        assert!(matches!(out.status, ExecStatus::Trap(_)));
    }

    #[test]
    fn operand_fault_persists_in_register() {
        // acc starts at 10; the corrupted consumption of acc in the fadd must
        // also persist for the final return of acc (register write-back).
        let mut m = Module::new("persist");
        let sink = m.add_global(Global::zeroed("sink", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::const_f64(10.0));
        let s = f.fadd(Operand::Reg(acc), Operand::const_f64(1.0));
        f.store_elem(Type::F64, sink, Operand::const_i64(0), Operand::Reg(s));
        f.ret(Some(Operand::Reg(acc)));
        m.add_function(f.finish());
        let (_, trace) = run_traced(&m).unwrap();
        let fadd = trace
            .iter()
            .find(|r| {
                matches!(
                    &r.op,
                    TraceOp::Bin {
                        op: BinOp::FAdd,
                        ..
                    }
                )
            })
            .unwrap();
        // Flip the sign of acc as consumed by the fadd.
        let fault = FaultSpec::single_bit(fadd.id, FaultTarget::Operand(0), 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert_eq!(out.global_f64("sink"), vec![-9.0]);
        assert_eq!(
            out.return_f64(),
            -10.0,
            "corruption persists in the register"
        );
    }

    /// `switch (sel[0]) { 0 => out = 100, 2 => out = 200, _ => out = 300 }`.
    fn switch_module() -> Module {
        let mut m = Module::new("switch");
        let out_g = m.add_global(Global::zeroed("out", Type::I64, 1));
        let sel = m.add_global(Global::from_i64("sel", &[2]));
        let mut f = FunctionBuilder::new("main", &[], None);
        let v = f.load_elem(Type::I64, sel, Operand::const_i64(0));
        let b0 = f.new_block("case0");
        let b1 = f.new_block("case1");
        let bd = f.new_block("default");
        let join = f.new_block("join");
        f.terminate(Terminator::Switch {
            value: Operand::Reg(v),
            cases: vec![(0, b0), (2, b1)],
            default: bd,
        });
        f.switch_to(b0);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(100),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(b1);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(200),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(bd);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(300),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(join);
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn switch_terminator_dispatches() {
        let m = switch_module();
        let out = run_golden(&m).unwrap();
        assert_eq!(out.globals["out"][0].as_i64(), 200);
    }

    #[test]
    fn paged_backend_records_the_identical_trace() {
        use crate::trace::TraceStorage;
        let m = sum_module();
        let (out_mem, trace) = run_traced(&m).unwrap();
        // Small segments so the sum workload spans several of them.
        let spec = TraceBackendSpec::Paged {
            dir: None,
            segment_records: 16,
        };
        let (out_paged, data) = run_traced_with(&m, &spec).unwrap();
        assert!(out_mem.bits_identical(&out_paged));
        assert_eq!(data.backend_name(), "paged");
        assert_eq!(data.len(), trace.len());
        assert_eq!(data.stats(), trace.stats());
        let mut reader = data.new_reader();
        for rec in trace.iter() {
            assert_eq!(reader.fetch(rec.id).as_ref(), Some(rec));
        }
        assert_eq!(
            data.touching_ids(ObjectId(0)),
            trace.touching_ids(ObjectId(0))
        );
    }

    #[test]
    fn registry_is_stable_across_instances() {
        let m = sum_module();
        let vm1 = Vm::with_defaults(&m).unwrap();
        let vm2 = Vm::with_defaults(&m).unwrap();
        let o1: Vec<(String, u64)> = vm1
            .objects()
            .iter()
            .map(|o| (o.name.clone(), o.base))
            .collect();
        let o2: Vec<(String, u64)> = vm2
            .objects()
            .iter()
            .map(|o| (o.name.clone(), o.base))
            .collect();
        assert_eq!(o1, o2);
    }

    /// `x = g[0]; r = x < 0 ? fabs(x) : sqrt(x); out[0] = r; return r`.
    fn select_module() -> Module {
        let mut m = Module::new("select");
        let g = m.add_global(Global::from_f64("g", &[2.25]));
        let out_g = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let x = f.load_elem(Type::F64, g, Operand::const_i64(0));
        let neg = f.cmp(CmpPred::FOlt, Operand::Reg(x), Operand::const_f64(0.0));
        let abs = f.fabs(Operand::Reg(x));
        let root = f.sqrt(Operand::Reg(x));
        let r = f.select(
            Type::F64,
            Operand::Reg(neg),
            Operand::Reg(abs),
            Operand::Reg(root),
        );
        f.store_elem(Type::F64, out_g, Operand::const_i64(0), Operand::Reg(r));
        f.ret(Some(Operand::Reg(r)));
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn untraced_loop_matches_traced_loop_under_every_fault() {
        // `run::<false>` compiles provenance out of golden and injected
        // runs; it must execute, fault, trap and time out exactly like
        // `run::<true>`.  Every dynamic instruction of every module, every
        // fault target that applies to it, five masks.
        let default = VmConfig::default();
        let small = VmConfig {
            max_steps: 200,
            ..VmConfig::default()
        };
        let corpus = [
            (sum_module(), &default),
            (call_module(), &default),
            (switch_module(), &default),
            (select_module(), &default),
            (idxfault_module(), &default),
            (trap_module(), &default),
            (spin_module(), &small),
        ];
        let masks = [1, 1 << 31, 1 << 52, 1 << 63, 0b11];
        let mut statuses = std::collections::BTreeSet::new();
        let mut run_both = |m: &Module, config: &VmConfig, fault: Option<&FaultSpec>| {
            let fast = Vm::new(m, config.clone())
                .unwrap()
                .run::<false>(fault, None);
            let traced = Vm::new(m, config.clone()).unwrap().run::<true>(fault, None);
            assert!(
                fast.bits_identical(&traced) && fast.steps == traced.steps,
                "{} {fault:?}: untraced {fast:?} vs traced {traced:?}",
                m.name
            );
            statuses.insert(match fast.status {
                ExecStatus::Completed => "completed",
                ExecStatus::MemFault(_) => "mem-fault",
                ExecStatus::Trap(_) => "trap",
                ExecStatus::Timeout => "timeout",
            });
        };
        let mut injected = 0;
        for (m, config) in &corpus {
            run_both(m, config, None);
            let (golden, trace) = Vm::new(m, (*config).clone()).unwrap().execute_traced();
            let mut sites: Vec<(u64, Vec<FaultTarget>)> = trace
                .iter()
                .map(|rec| {
                    let mut targets: Vec<FaultTarget> = (0..rec.operands().len())
                        .map(FaultTarget::Operand)
                        .collect();
                    if rec.result().is_some() {
                        targets.push(FaultTarget::Result);
                    }
                    match rec.op {
                        TraceOp::Load { .. } => targets.push(FaultTarget::LoadValue),
                        TraceOp::Store { .. } => targets.push(FaultTarget::StoreDest),
                        _ => {}
                    }
                    (rec.id, targets)
                })
                .collect();
            if matches!(golden.status, ExecStatus::Trap(_) | ExecStatus::MemFault(_)) {
                // The instruction that stopped the run left no record.
                let targets = vec![
                    FaultTarget::Operand(0),
                    FaultTarget::Operand(1),
                    FaultTarget::Result,
                ];
                sites.push((golden.steps, targets));
            }
            for (dyn_id, targets) in sites {
                for target in targets {
                    for mask in masks {
                        run_both(m, config, Some(&FaultSpec::masked(dyn_id, target, mask)));
                        injected += 1;
                    }
                }
            }
        }
        assert_eq!(
            statuses.into_iter().collect::<Vec<_>>(),
            ["completed", "mem-fault", "timeout", "trap"],
            "the corpus must reach every termination status"
        );
        assert!(injected > 1_000, "{injected} injected runs");
    }
}
