//! The engine against the reference executor (`support/oracle.rs`).
//!
//! Random programs with memory, branches, calls, hypercalls and traps run
//! on a `Node` and on the reference, with one fault injected into a
//! register or into memory at a random execution of a random instruction
//! (mid-block included). Both must agree exactly: exit, CPU state,
//! `icount`, output streams, every mapped byte, every register and memory
//! mask, provenance, and the ordered list of tainted memory accesses.
//! The workload leg does the same on single-rank `lud` and `bfs`.

#[path = "support/oracle.rs"]
mod oracle;

use chaser_isa::{
    abi, Asm, Cond, CpuState, FReg, Instruction, Program, Reg, CODE_BASE, INSN_LEN, PAGE_SIZE,
};
use chaser_taint::{ProvSet, TaintMask};
use chaser_tcg::{translate_block, SliceFetcher, Temp, TranslateHook, MAX_TB_LOCALS};
use chaser_vm::{
    ExitStatus, GuestCtx, InjectAction, InjectSink, Node, NodeTranslateHook, Signal, SliceExit,
    TaintAccessKind, DEFAULT_PHYS_BYTES,
};
use oracle::{Access, Fault, Oracle, Site, Stop};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The provenance id the injected fault carries.
const FAULT_ID: u32 = 0;

/// Instrument's the fault's instruction until the fault has fired.
struct FaultHook {
    pc: u64,
    done: Arc<AtomicBool>,
}

impl NodeTranslateHook for FaultHook {
    fn inject_point(&self, _node: u32, _pid: u64, pc: u64, _insn: &Instruction) -> Option<u64> {
        (pc == self.pc && !self.done.load(Ordering::Relaxed)).then_some(0)
    }
}

/// Fires the fault at its `nth` execution, skipping the ones before it
/// through the engine's countdown, then detaches (flushing the cache) as
/// the campaign injector does.
struct FaultSink {
    fault: Fault,
    execs: u64,
    done: Arc<AtomicBool>,
    fired_at: Option<u64>,
}

impl InjectSink for FaultSink {
    fn on_inject_point(
        &mut self,
        _point: u64,
        _insn: &Instruction,
        ctx: &mut GuestCtx<'_>,
    ) -> InjectAction {
        self.execs += 1;
        if self.execs < self.fault.nth {
            let skip = self.fault.nth - self.execs - 1;
            self.execs += skip;
            return InjectAction {
                skip,
                ..InjectAction::default()
            };
        }
        self.fired_at = Some(ctx.icount);
        self.done.store(true, Ordering::Relaxed);
        let prov = ProvSet::single(FAULT_ID);
        match self.fault.site {
            Site::Reg(r, bit) => {
                ctx.set_reg(r, ctx.reg(r) ^ (1 << bit));
                ctx.taint_reg_with_prov(r, TaintMask::bit(bit), prov);
            }
            Site::FReg(r, bit) => {
                ctx.set_freg_bits(r, ctx.freg_bits(r) ^ (1 << bit));
                ctx.taint_freg_with_prov(r, TaintMask::bit(bit), prov);
            }
            Site::Mem(vaddr, bit) => {
                // A site not mapped yet (the heap page before the
                // prologue maps it) is skipped, as the reference does.
                if let Ok(v) = ctx.read_mem(vaddr) {
                    ctx.write_mem(vaddr, v ^ (1 << bit))
                        .expect("mapped fault sites are writable");
                    ctx.taint_mem_with_prov(vaddr, TaintMask::bit(bit), prov)
                        .expect("mapped fault sites translate");
                }
            }
        }
        InjectAction {
            flush_tb: true,
            skip: 0,
        }
    }
}

/// A node with taint events on and `fault` armed, running `prog`.
fn engine_node(prog: &Program, fault: Option<Fault>) -> (Node, u64, Option<Arc<Mutex<FaultSink>>>) {
    let mut node = Node::new(0);
    node.hooks_mut().taint_events = true;
    let sink = fault.map(|fault| {
        let done = Arc::new(AtomicBool::new(false));
        node.hooks_mut().translate = Some(Arc::new(FaultHook {
            pc: fault.pc,
            done: done.clone(),
        }));
        let sink = Arc::new(Mutex::new(FaultSink {
            fault,
            execs: 0,
            done,
            fired_at: None,
        }));
        node.hooks_mut().inject = Some(sink.clone());
        sink
    });
    let pid = node.spawn(prog).expect("spawn");
    (node, pid, sink)
}

/// Runs the node's process in `quantum`-sized slices until it stops or
/// has retired `budget` instructions.
fn run_engine(node: &mut Node, pid: u64, quantum: u64, budget: u64) -> Stop {
    loop {
        let icount = node.process(pid).expect("proc").icount;
        node.set_insn_budget(budget.saturating_sub(icount));
        match node.run_slice(pid, quantum) {
            SliceExit::QuantumExpired => continue,
            SliceExit::BudgetExhausted => return Stop::Budget,
            SliceExit::MpiCall(req) => return Stop::Mpi(req.num),
            SliceExit::Exited(status) => {
                return match status {
                    ExitStatus::Exited(c) => Stop::Exited(c),
                    ExitStatus::AssertFailed(c) => Stop::AssertFailed(c),
                    ExitStatus::Halted => Stop::Halted,
                    ExitStatus::Signaled(Signal::Segv) => Stop::Segv,
                    ExitStatus::Signaled(Signal::Fpe) => Stop::Fpe,
                    ExitStatus::Signaled(Signal::Ill) => Stop::Ill,
                    other => panic!("a lone process cannot end with {other:?}"),
                }
            }
            SliceExit::Blocked => panic!("a runnable process reported Blocked"),
        }
    }
}

fn prov_flag(p: ProvSet, what: &str) -> bool {
    assert!(
        p.is_empty() || p == ProvSet::single(FAULT_ID),
        "{what}: provenance {p:?} names no injected fault"
    );
    !p.is_empty()
}

/// The engine's tainted-access log in the reference's terms.
fn engine_accesses(node: &mut Node) -> Vec<Access> {
    node.take_taint_events()
        .into_iter()
        .map(|e| Access {
            write: e.kind == TaintAccessKind::Write,
            pc: e.ev.eip,
            vaddr: e.ev.vaddr,
            mask: e.ev.taint.0,
            value: e.ev.value,
            icount: e.ev.icount,
            prov: prov_flag(e.ev.prov, "access"),
        })
        .collect()
}

/// One page as the reference expects the engine to hold it.
struct Page {
    bytes: Vec<u8>,
    masks: Vec<u8>,
    provs: Vec<ProvSet>,
}

impl Page {
    fn zero() -> Page {
        Page {
            bytes: vec![0; PAGE_SIZE as usize],
            masks: vec![0; PAGE_SIZE as usize],
            provs: vec![ProvSet::EMPTY; PAGE_SIZE as usize],
        }
    }
}

/// Fails with the first difference between `$a` (the engine's) and `$b`
/// (the reference's).
macro_rules! same {
    ($a:expr, $b:expr, $($what:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("{}: engine {:?}, reference {:?}", format!($($what)+), a, b));
        }
    }};
}

/// Compares where the engine's process ended with where the reference
/// did. Drains the node's taint-event log.
fn compare(
    node: &mut Node,
    pid: u64,
    stop: Stop,
    reference: &Oracle,
    ref_stop: Stop,
) -> Result<(), String> {
    same!(stop, ref_stop, "exit");
    let proc = node.process(pid).expect("proc");
    same!(proc.icount, reference.icount, "icount");
    let mut cpu: CpuState = proc.cpu.clone();
    if stop.leaves_pc_at_block_entry() {
        cpu.pc = reference.cpu.pc;
    }
    same!(cpu, reference.cpu, "CPU state");
    same!(proc.brk, reference.brk, "heap break");
    same!(proc.files.stdout, reference.stdout, "stdout");
    same!(proc.files.output, reference.output, "output file");

    let taint = node.taint();
    for r in Reg::ALL {
        same!(taint.reg(r).0, reference.reg_mask[r.index()], "{r} mask");
        let p = prov_flag(taint.reg_prov(r), "register");
        same!(p, reference.reg_prov[r.index()], "{r} provenance");
    }
    for f in FReg::ALL {
        same!(taint.freg(f).0, reference.freg_mask[f.index()], "{f} mask");
        let p = prov_flag(taint.temp_prov(Temp::freg(f)), "register");
        same!(p, reference.freg_prov[f.index()], "{f} provenance");
    }
    same!(
        taint.mem().tainted_bytes(),
        reference.tainted_bytes(),
        "tainted memory bytes"
    );

    // Every mapped page, byte by byte: value, mask and provenance. Pages
    // the reference never wrote must read all zero.
    let (mut bytes_at, mut masks_at, mut provs_at) = (Vec::new(), Vec::new(), Vec::new());
    bytes_at.extend(reference.bytes.iter().map(|(&a, &b)| (a, b)));
    masks_at.extend(reference.mem_mask.iter().map(|(&a, &m)| (a, m)));
    provs_at.extend(reference.mem_prov.iter().copied());
    let mut expected: BTreeMap<u64, Page> = BTreeMap::new();
    fn page(e: &mut BTreeMap<u64, Page>, a: u64) -> &mut Page {
        e.entry(a / PAGE_SIZE).or_insert_with(Page::zero)
    }
    for (a, b) in bytes_at {
        page(&mut expected, a).bytes[(a % PAGE_SIZE) as usize] = b;
    }
    for (a, m) in masks_at {
        page(&mut expected, a).masks[(a % PAGE_SIZE) as usize] = m;
    }
    for a in provs_at {
        page(&mut expected, a).provs[(a % PAGE_SIZE) as usize] = ProvSet::single(FAULT_ID);
    }
    let zero = Page::zero();
    for &vpn in reference.pages.keys() {
        let base = vpn * PAGE_SIZE;
        let want = expected.get(&vpn).unwrap_or(&zero);
        let bytes = node.read_guest(pid, base, PAGE_SIZE);
        let masks = node.read_guest_taint(pid, base, PAGE_SIZE);
        let provs = node.read_guest_prov(pid, base, PAGE_SIZE);
        let (Ok(bytes), Ok(masks), Ok(provs)) = (bytes, masks, provs) else {
            return Err(format!("page {base:#x} is mapped in the reference only"));
        };
        if bytes != want.bytes || masks != want.masks || provs != want.provs {
            let i = (0..PAGE_SIZE as usize)
                .find(|&i| {
                    bytes[i] != want.bytes[i]
                        || masks[i] != want.masks[i]
                        || provs[i] != want.provs[i]
                })
                .expect("a differing byte");
            return Err(format!(
                "memory at {:#x}: engine (byte {:#x}, mask {:#x}, provenance {:?}), \
                 reference (byte {:#x}, mask {:#x}, provenance {:?})",
                base + i as u64,
                bytes[i],
                masks[i],
                provs[i],
                want.bytes[i],
                want.masks[i],
                want.provs[i]
            ));
        }
    }
    same!(
        engine_accesses(node),
        reference.accesses,
        "tainted accesses"
    );
    Ok(())
}

/// Runs `prog` with `fault` on both executors and compares them; returns
/// how many tainted memory accesses the run made.
fn check(prog: &Program, fault: Option<Fault>, quantum: u64, budget: u64) -> Result<usize, String> {
    let (mut node, pid, sink) = engine_node(prog, fault);
    let stop = run_engine(&mut node, pid, quantum, budget);
    let mut reference = Oracle::new(prog, DEFAULT_PHYS_BYTES);
    if let Some(fault) = fault {
        reference.inject(fault);
    }
    let ref_stop = reference.run(budget);
    let fired_at = sink.and_then(|s| s.lock().fired_at);
    same!(fired_at, reference.fired_at, "fault fired at");
    compare(&mut node, pid, stop, &reference, ref_stop)?;
    Ok(reference.accesses.len())
}

// ---- random programs ----

/// Registers random code reads and writes; few, so that data flows
/// through them densely. R13 is the trap snippets' scratch, R14 holds the
/// data buffer's base and SP the stack: only faults touch them otherwise.
const REGS: [Reg; 8] = [
    Reg::R0,
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
];
const FREGS: [FReg; 4] = [FReg::F0, FReg::F1, FReg::F2, FReg::F3];
const BASE: Reg = Reg::R14;
/// Words in the data buffer.
const BUF_WORDS: i64 = 8;

fn arb_reg() -> impl Strategy<Value = Reg> {
    proptest::sample::select(&REGS[..])
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    proptest::sample::select(&FREGS[..])
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    proptest::sample::select(&Cond::ALL[..])
}

fn arb_imm() -> impl Strategy<Value = i64> {
    prop_oneof![
        -1000i64..1000,
        any::<i64>(),
        Just(0),
        Just(i64::MIN),
        Just(-1)
    ]
}

/// A byte offset of a u64 access from the buffer's start, aligned or not:
/// inside the buffer, or across its end into the heap page after it.
fn arb_off() -> impl Strategy<Value = i32> {
    (
        0..BUF_WORDS as i32 + 1,
        proptest::sample::select(vec![0, 0, 0, 0, 0, 1, 3, 7]),
    )
        .prop_map(|(word, skew)| word * 8 + skew)
}

/// One straight-line instruction, with no memory access and no trap.
fn arb_alu() -> impl Strategy<Value = Instruction> {
    use Instruction as I;
    prop_oneof![
        Just(I::Nop),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::MovRR { dst, src }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::MovRI { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Add { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Sub { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Mul { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::And { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Or { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Xor { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Shl { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Shr { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Sar { dst, src }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::AddI { dst, imm }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::SubI { dst, imm }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::MulI { dst, imm }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::AndI { dst, imm }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::OrI { dst, imm }),
        (arb_reg(), arb_imm()).prop_map(|(dst, imm)| I::XorI { dst, imm }),
        (arb_reg(), 0i64..70).prop_map(|(dst, imm)| I::ShlI { dst, imm }),
        (arb_reg(), 0i64..70).prop_map(|(dst, imm)| I::ShrI { dst, imm }),
        (arb_reg(), 0i64..70).prop_map(|(dst, imm)| I::SarI { dst, imm }),
        arb_reg().prop_map(|dst| I::Neg { dst }),
        arb_reg().prop_map(|dst| I::Not { dst }),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| I::Cmp { a, b }),
        (arb_reg(), arb_imm()).prop_map(|(a, imm)| I::CmpI { a, imm }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::FMov { dst, src }),
        (arb_freg(), -100i32..100).prop_map(|(dst, v)| I::FMovI {
            dst,
            imm: v as f64 / 4.0
        }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fadd { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fsub { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fmul { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fdiv { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fmin { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fmax { dst, src }),
        arb_freg().prop_map(|dst| I::Fsqrt { dst }),
        arb_freg().prop_map(|dst| I::Fabs { dst }),
        arb_freg().prop_map(|dst| I::Fneg { dst }),
        (arb_freg(), arb_freg()).prop_map(|(a, b)| I::Fcmp { a, b }),
        (arb_freg(), arb_reg()).prop_map(|(dst, src)| I::CvtIF { dst, src }),
        (arb_reg(), arb_freg()).prop_map(|(dst, src)| I::CvtFI { dst, src }),
        (arb_reg(), arb_freg()).prop_map(|(dst, src)| I::MovFR { dst, src }),
        (arb_freg(), arb_reg()).prop_map(|(dst, src)| I::MovRF { dst, src }),
    ]
}

/// A step of random code: a few instructions the generator emits as one.
#[derive(Debug, Clone)]
enum Step {
    Alu(Instruction),
    /// `ld`/`st`/`fld`/`fst` at a buffer offset, or an indexed access with
    /// the index register masked into the buffer first.
    Mem(Instruction),
    Idx(Instruction, Reg),
    /// `push a; pop b`.
    PushPop(Reg, Reg),
    /// An integer division whose divisor may be zero.
    Div(Instruction),
    /// A kernel call with its arguments.
    Sys(u16, [i64; 3]),
    /// `sys_write(fd, buf + off, len)`.
    Write(i64, i64, i64),
    /// A load through an arbitrary register (usually unmapped).
    WildLoad(Reg, i32),
    /// A store into the text.
    TextStore(Reg),
    /// A call into the data buffer (not executable).
    CallData,
    /// A call into the middle of an instruction.
    Misaligned(u64),
    Halt,
}

/// The random draws one step is made from.
struct Draw {
    /// Selects the kind of step, out of 1000.
    w: u32,
    alu: Instruction,
    a: Reg,
    b: Reg,
    f: FReg,
    off: i32,
    v: i64,
    n: u32,
}

/// Picks a step: `w` selects the kind (ALU ops are 44 %, steps that may
/// end the run 1 % each), the other draws fill in its operands.
fn pick_step(d: Draw) -> Step {
    use Instruction as I;
    let Draw {
        w,
        alu,
        a,
        b,
        f,
        off,
        v,
        n,
    } = d;
    let base = BASE;
    let fd = [1i64, 3, 9][n as usize % 3];
    match w {
        0..=439 => Step::Alu(alu),
        440..=519 => Step::Mem(I::Ld { dst: a, base, off }),
        520..=599 => Step::Mem(I::St { src: a, base, off }),
        600..=639 => Step::Mem(I::FLd { dst: f, base, off }),
        640..=679 => Step::Mem(I::FSt { src: f, base, off }),
        680..=719 => Step::Idx(
            I::LdIdx {
                dst: a,
                base,
                idx: b,
            },
            b,
        ),
        720..=759 => Step::Idx(
            I::StIdx {
                src: a,
                base,
                idx: b,
            },
            b,
        ),
        760..=779 => Step::Idx(
            I::FLdIdx {
                dst: f,
                base,
                idx: b,
            },
            b,
        ),
        780..=799 => Step::Idx(
            I::FStIdx {
                src: f,
                base,
                idx: b,
            },
            b,
        ),
        800..=859 => Step::PushPop(a, b),
        860..=899 => Step::Sys(abi::SYS_WRITE_I64, [fd, v, 0]),
        900..=919 => Step::Sys(abi::SYS_WRITE_F64, [fd, v, 0]),
        920..=959 => Step::Sys(abi::SYS_CLOCK, [0; 3]),
        960..=979 => {
            let len = if n.is_multiple_of(16) {
                1 << 20
            } else {
                (n % 64) as i64
            };
            Step::Write(fd, off as i64, len)
        }
        980..=989 => {
            // One in four cannot be mapped: out of frames, or past the
            // end of the address space.
            let amount = [0, 24, 4096, 20_000, 8, 100, 1 << 40, -1][n as usize % 8];
            Step::Sys(abi::SYS_SBRK, [amount, 0, 0])
        }
        990 => Step::Div(I::Divs { dst: a, src: b }),
        991 => Step::Div(I::Divu { dst: a, src: b }),
        992 => Step::Div(I::Rem { dst: a, src: b }),
        993 => Step::Sys(8 + (n % (abi::MPI_BASE as u32 - 8)) as u16, [0; 3]),
        994 => Step::Sys(abi::SYS_ASSERT_FAIL, [v, 0, 0]),
        995 => Step::WildLoad(a, v as i32),
        996 => Step::TextStore(a),
        997 => Step::CallData,
        998 => Step::Misaligned(1 + (n as u64 % (INSN_LEN - 1))),
        _ => Step::Halt,
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u32..1000,
        arb_alu(),
        (arb_reg(), arb_reg()),
        arb_freg(),
        (arb_off(), any::<i64>()),
        0u32..10_000,
    )
        .prop_map(|(w, alu, (a, b), f, (off, v), n)| {
            pick_step(Draw {
                w,
                alu,
                a,
                b,
                f,
                off,
                v,
                n,
            })
        })
}

/// How a block ends; targets are drawn raw and taken modulo the number of
/// blocks (or subroutines).
#[derive(Debug, Clone)]
enum Exit {
    Fall,
    Jmp(usize),
    Jcc(Cond, usize),
    Call(usize),
    CallR(usize),
}

fn arb_exit() -> impl Strategy<Value = Exit> {
    (0u32..10, arb_cond(), 0usize..64).prop_map(|(w, c, t)| match w {
        0..=2 => Exit::Fall,
        3 => Exit::Jmp(t),
        4..=6 => Exit::Jcc(c, t),
        7..=8 => Exit::Call(t),
        _ => Exit::CallR(t),
    })
}

#[derive(Debug, Clone)]
struct Block {
    steps: Vec<Step>,
    exit: Exit,
}

/// A random program: main blocks that may branch anywhere among
/// themselves (budget-bounded loops included) and call straight-line
/// subroutines, then exit with R2.
#[derive(Debug, Clone)]
struct Gen {
    regs: Vec<i64>,
    fregs: Vec<i32>,
    init: Vec<u64>,
    blocks: Vec<Block>,
    subs: Vec<Vec<Step>>,
}

const SUBS: usize = 2;

fn arb_gen() -> impl Strategy<Value = Gen> {
    let block = (proptest::collection::vec(arb_step(), 0..24), arb_exit())
        .prop_map(|(steps, exit)| Block { steps, exit });
    (
        proptest::collection::vec(arb_imm(), REGS.len()),
        proptest::collection::vec(-100i32..100, FREGS.len()),
        proptest::collection::vec(any::<u64>(), BUF_WORDS as usize),
        proptest::collection::vec(block, 1..8),
        proptest::collection::vec(proptest::collection::vec(arb_step(), 0..6), SUBS),
    )
        .prop_map(|(regs, fregs, init, blocks, subs)| Gen {
            regs,
            fregs,
            init,
            blocks,
            subs,
        })
}

fn emit_step(a: &mut Asm, step: &Step) {
    match *step {
        Step::Alu(insn) | Step::Mem(insn) | Step::Div(insn) => {
            a.insn(insn);
        }
        Step::Idx(insn, idx) => {
            a.andi(idx, BUF_WORDS - 1);
            a.insn(insn);
        }
        Step::PushPop(x, y) => {
            a.push(x);
            a.pop(y);
        }
        Step::Sys(num, args) => {
            for (r, v) in [Reg::R1, Reg::R2, Reg::R3].into_iter().zip(args) {
                a.movi(r, v);
            }
            a.hypercall(num);
        }
        Step::Write(fd, off, len) => {
            a.movi(Reg::R1, fd);
            a.mov(Reg::R2, BASE);
            a.addi(Reg::R2, off);
            a.movi(Reg::R3, len);
            a.hypercall(abi::SYS_WRITE);
        }
        Step::WildLoad(r, off) => {
            a.ld(r, r, off);
        }
        Step::TextStore(r) => {
            a.lea(Reg::R13, "main");
            a.st(r, Reg::R13, 0);
        }
        Step::CallData => {
            a.lea(Reg::R13, "buf");
            a.callr(Reg::R13);
        }
        Step::Misaligned(by) => {
            a.lea(Reg::R13, "main");
            a.addi(Reg::R13, by as i64);
            a.callr(Reg::R13);
        }
        Step::Halt => {
            a.halt();
        }
    }
}

fn build(g: &Gen) -> Program {
    let n = g.blocks.len();
    let mut a = Asm::new("prop");
    // The buffer ends its data page, and the prologue maps the first heap
    // page after it: an access past the buffer's end crosses into a frame
    // that is not the next physical one.
    a.bss("pad", PAGE_SIZE - BUF_WORDS as u64 * 8);
    a.data_u64("buf", &g.init);
    a.set_entry("main");
    a.label("main");
    a.lea(BASE, "buf");
    a.movi(Reg::R1, PAGE_SIZE as i64);
    a.hypercall(abi::SYS_SBRK);
    for (r, v) in REGS.iter().zip(&g.regs) {
        a.movi(*r, *v);
    }
    for (f, v) in FREGS.iter().zip(&g.fregs) {
        a.fmovi(*f, *v as f64 / 4.0);
    }
    for (i, b) in g.blocks.iter().enumerate() {
        a.label(format!("b{i}"));
        for s in &b.steps {
            emit_step(&mut a, s);
        }
        match b.exit {
            Exit::Fall => {}
            Exit::Jmp(t) => {
                a.jmp(format!("b{}", t % n));
            }
            Exit::Jcc(c, t) => {
                a.jcc(c, format!("b{}", t % n));
            }
            Exit::Call(s) => {
                a.call(format!("s{}", s % SUBS));
            }
            Exit::CallR(s) => {
                a.lea(Reg::R13, format!("s{}", s % SUBS));
                a.callr(Reg::R13);
            }
        }
    }
    a.exit_with(Reg::R2);
    for (i, steps) in g.subs.iter().enumerate() {
        a.label(format!("s{i}"));
        for s in steps {
            emit_step(&mut a, s);
        }
        a.ret();
    }
    a.assemble().expect("assemble")
}

/// A fault drawn before the program exists. Most land on an instruction
/// the fault-free run retires (`at` picks which, modulo its length); some
/// on any instruction of the text (which may never run, or run fewer than
/// `nth` times); some runs have none. The site is a register, an FP
/// register, a buffer word at any offset, or — for half of the faults
/// that land mid-run — the value the next store writes: that value is
/// stored tainted, and a later load may bring it back.
#[derive(Debug, Clone, Copy)]
struct RawFault {
    mode: u32,
    at: u64,
    nth: u64,
    kind: u32,
    reg: Reg,
    freg: FReg,
    off: i32,
    bit: u32,
}

fn arb_raw_fault() -> impl Strategy<Value = RawFault> {
    (
        (0u32..100, any::<u64>(), 1u64..4),
        0u32..8,
        // The registers random code uses, plus the buffer base and SP.
        proptest::sample::select(
            REGS.iter()
                .copied()
                .chain([BASE, Reg::SP])
                .collect::<Vec<_>>(),
        ),
        proptest::sample::select(&FREGS[..]),
        // A third of the memory sites straddle the buffer's end.
        prop_oneof![
            arb_off(),
            arb_off(),
            BUF_WORDS as i32 * 8 - 7..BUF_WORDS as i32 * 8
        ],
        0u32..64,
    )
        .prop_map(|((mode, at, nth), kind, reg, freg, off, bit)| RawFault {
            mode,
            at,
            nth,
            kind,
            reg,
            freg,
            off,
            bit,
        })
}

impl RawFault {
    fn resolve(self, prog: &Program) -> Option<Fault> {
        let site = match self.kind {
            1 => Site::FReg(self.freg, self.bit),
            2 | 3 => Site::Mem(prog.symbol("buf").expect("buf") + self.off as u64, self.bit),
            _ => Site::Reg(self.reg, self.bit),
        };
        match self.mode {
            0..=69 => {
                let mut golden = Oracle::new(prog, DEFAULT_PHYS_BYTES);
                golden.run(BUDGET);
                if golden.icount == 0 {
                    return None;
                }
                let at = self.at % golden.icount;
                let (at, site) = match self.kind {
                    4.. => next_store(prog, at, self.bit)
                        .or_else(|| next_store(prog, 0, self.bit))
                        .unwrap_or((at, site)),
                    _ => (at, site),
                };
                Some(mid_run_fault(prog, at, site))
            }
            70..=84 => Some(Fault {
                pc: CODE_BASE + self.at % prog.insn_count() as u64 * INSN_LEN,
                nth: self.nth,
                site,
            }),
            _ => None,
        }
    }
}

/// Instructions a random program may retire: loops end at the budget.
const BUDGET: u64 = 3_000;

/// Random programs the reference property runs.
const CASES: usize = 160;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The engine against the reference on `CASES` random programs, each
    /// with its own fault and quantum. At least one case in three must
    /// reach a tainted memory access: there the operand shadow's register
    /// and local slots meet the memory shadow.
    #[test]
    fn engine_matches_reference_semantics(
        cases in proptest::collection::vec(
            (
                arb_gen(),
                arb_raw_fault(),
                proptest::sample::select(vec![1u64, 7, 100, 100_000]),
            ),
            CASES,
        ),
    ) {
        let mut reached = 0;
        for (i, (g, raw, quantum)) in cases.iter().enumerate() {
            let prog = build(g);
            let fault = raw.resolve(&prog);
            match check(&prog, fault, *quantum, BUDGET) {
                Ok(accesses) => reached += usize::from(accesses > 0),
                Err(diff) => prop_assert!(
                    false,
                    "case {i}: {diff}\nfault {fault:?}, quantum {quantum}\n{g:#?}"
                ),
            }
        }
        prop_assert!(
            3 * reached >= CASES,
            "only {reached} of {CASES} cases reached a tainted memory access"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn no_fault_means_no_taint(g in arb_gen()) {
        let prog = build(&g);
        let (mut node, pid, _) = engine_node(&prog, None);
        run_engine(&mut node, pid, 1_000, BUDGET);
        prop_assert!(node.taint().is_fully_clean());
        prop_assert!(node.take_taint_events().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Taint seeded into one register from the host before the first
    /// instruction (no provenance) reaches exactly the masks the
    /// reference computes.
    #[test]
    fn seeded_register_taint_matches_the_reference(
        insns in proptest::collection::vec(arb_alu(), 1..60),
        seed in proptest::sample::select(&REGS[..]),
        seed_bit in 0u32..64,
    ) {
        let mut a = Asm::new("seeded");
        for insn in &insns {
            a.insn(*insn);
        }
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let (mut node, pid, _) = engine_node(&prog, None);
        node.taint_mut().set_reg(seed, TaintMask::bit(seed_bit));
        let stop = run_engine(&mut node, pid, 1_000_000, BUDGET);
        let mut reference = Oracle::new(&prog, DEFAULT_PHYS_BYTES);
        reference.reg_mask[seed.index()] = 1 << seed_bit;
        let ref_stop = reference.run(BUDGET);
        let diff = compare(&mut node, pid, stop, &reference, ref_stop);
        prop_assert!(diff.is_ok(), "{}\n{:?}", diff.unwrap_err(), insns);
    }
}

// ---- workloads ----

/// A fault before the instruction that retires as number `at + 1` in the
/// fault-free run: the reference finds that instruction and how often it
/// ran before.
fn mid_run_fault(prog: &Program, at: u64, site: Site) -> Fault {
    let mut probe = Oracle::new(prog, DEFAULT_PHYS_BYTES);
    assert_eq!(probe.run(at), Stop::Budget, "the fault lands before exit");
    let pc = probe.cpu.pc;
    let mut count = Oracle::new(prog, DEFAULT_PHYS_BYTES);
    count.inject(Fault {
        pc,
        nth: u64::MAX,
        site,
    });
    count.run(at);
    Fault {
        pc,
        nth: count.execs_of_fault_pc() + 1,
        site,
    }
}

/// The first store the fault-free run retires as instruction `at + 1` or
/// later: its position and the register it writes to memory, for a fault
/// on the stored value.
fn next_store(prog: &Program, at: u64, bit: u32) -> Option<(u64, Site)> {
    use Instruction as I;
    let mut probe = Oracle::new(prog, DEFAULT_PHYS_BYTES);
    for at in at..BUDGET {
        if probe.run(at) != Stop::Budget {
            return None;
        }
        let off = (probe.cpu.pc - CODE_BASE) as usize;
        let bytes = prog.code().get(off..off + INSN_LEN as usize)?;
        match chaser_isa::decode(bytes).ok()? {
            I::St { src, .. } | I::StIdx { src, .. } | I::Push { src } => {
                return Some((at, Site::Reg(src, bit)))
            }
            I::FSt { src, .. } | I::FStIdx { src, .. } => return Some((at, Site::FReg(src, bit))),
            _ => {}
        }
    }
    None
}

fn golden_icount(prog: &Program) -> u64 {
    let mut golden = Oracle::new(prog, DEFAULT_PHYS_BYTES);
    assert_eq!(golden.run(u64::MAX), Stop::Exited(0));
    golden.icount
}

fn arb_reg_site() -> impl Strategy<Value = Site> {
    prop_oneof![
        (proptest::sample::select(&Reg::ALL[..]), 0u32..64).prop_map(|(r, b)| Site::Reg(r, b)),
        (proptest::sample::select(&FReg::ALL[..]), 0u32..64).prop_map(|(r, b)| Site::FReg(r, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single-rank lud and bfs with a register fault mid-run, run to exit
    /// (or to a budget of twice the golden run): output bytes, `icount`
    /// and taint reach, like everything else, equal the reference's.
    #[test]
    fn lud_and_bfs_match_the_reference_with_a_mid_run_fault(
        bfs in any::<bool>(),
        at in 0.0f64..1.0,
        site in arb_reg_site(),
        quantum in prop_oneof![Just(97u64), Just(10_000)],
    ) {
        let prog = if bfs {
            chaser_workloads::bfs::program(&chaser_workloads::bfs::BfsConfig::default())
        } else {
            chaser_workloads::lud::program(&chaser_workloads::lud::LudConfig::default())
        };
        let golden = golden_icount(&prog);
        let fault = mid_run_fault(&prog, 1 + (at * (golden - 1) as f64) as u64, site);
        let diff = check(&prog, Some(fault), quantum, 2 * golden);
        prop_assert!(diff.is_ok(), "{}\n{} fault {:?}, quantum {}", diff.unwrap_err(), prog.name(), fault, quantum);
    }
}

// ---- the translator invariant the operand frame rests on ----

/// Instruments every instruction, so that blocks with the injection
/// callback spliced in are checked too.
struct EveryInsn;

impl TranslateHook for EveryInsn {
    fn inject_point(&self, pc: u64, _insn: &Instruction) -> Option<u64> {
        Some(pc)
    }
}

/// Every block the translator makes of `prog` — one starting at each
/// instruction of its text, with and without injection callbacks — writes
/// each local before it reads it, and fits the frame's local slots. The
/// engine relies on both to reuse those slots across blocks without
/// clearing them.
fn check_block_locals(prog: &Program) -> Result<(), String> {
    let fetcher = SliceFetcher::new(CODE_BASE, prog.code());
    for i in 0..prog.insn_count() as u64 {
        let pc = CODE_BASE + i * INSN_LEN;
        for hook in [None, Some(&EveryInsn as &dyn TranslateHook)] {
            let tb = translate_block(&fetcher, pc, hook);
            if usize::from(tb.n_locals()) > MAX_TB_LOCALS || !tb.locals_defined_before_use() {
                return Err(format!(
                    "{}: the block at {pc:#x} ({} locals) reads a local before writing it \
                     or overflows the frame:\n{:#?}",
                    prog.name(),
                    tb.n_locals(),
                    tb.ops()
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn workload_blocks_write_every_local_before_reading_it() {
    use chaser_workloads as w;
    for prog in [
        w::matvec::program(&w::matvec::MatvecConfig::default()),
        w::clamr::program(&w::clamr::ClamrConfig::default()),
        w::bfs::program(&w::bfs::BfsConfig::default()),
        w::kmeans::program(&w::kmeans::KmeansConfig::default()),
        w::lud::program(&w::lud::LudConfig::default()),
    ] {
        if let Err(e) = check_block_locals(&prog) {
            panic!("{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_program_blocks_write_every_local_before_reading_it(g in arb_gen()) {
        let diff = check_block_locals(&build(&g));
        prop_assert!(diff.is_ok(), "{}", diff.unwrap_err());
    }
}
