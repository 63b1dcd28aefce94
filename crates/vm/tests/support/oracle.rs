//! A reference executor for one guest process, independent of the engine.
//!
//! It runs decoded `chaser_isa` instructions one at a time over a flat
//! byte map and a plain register file, and tracks bitwise taint with one
//! mask per register and one per memory byte. It shares nothing with the
//! execution engine but the ISA types: no translator, IR or translation
//! cache, no paging or soft TLB, and no `chaser-taint` state or
//! policy. Its propagation rules are written from the `chaser-taint` crate
//! docs and DESIGN.md §9, per guest instruction:
//!
//! * a copy (`mov`, loads, stores, `fmov`, `movfr`, `movrf`) carries the
//!   mask as it is; an immediate is clean;
//! * `and` / `or` use controlling values: a clean 0 (for `and`) or a clean
//!   1 (for `or`) in one operand forces the result bit and kills its taint;
//! * `xor` and `not` take the union of the operand masks;
//! * add, sub, neg and mul spread the union upward from its lowest tainted
//!   bit (the carry chain);
//! * div, rem, every FP helper and both conversions saturate: any tainted
//!   input bit taints all 64 result bits;
//! * a shift by a clean count shifts the mask (`sar` replicates a tainted
//!   sign bit into the vacated bits); a tainted count saturates;
//! * compares, branches and addresses carry no taint (no implicit flows),
//!   and a kernel call leaves every mask as it is, `R0` included.
//!
//! Provenance is tracked for a single fault: a register or byte either
//! derives from it or not. A result derives from it when its mask is
//! tainted and one of its operands (for a load, one of the 8 bytes read)
//! derives from it.
//!
//! It also records every tainted memory access, in order, as the engine's
//! taint-event log does.

#![allow(dead_code)]

use chaser_isa::{
    abi, decode, CpuState, FReg, Flags, Instruction, Program, Reg, CODE_BASE, DATA_BASE, INSN_LEN,
    NUM_FREGS, NUM_REGS, PAGE_SIZE, STACK_SIZE, STACK_TOP,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Why [`Oracle::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// `SYS_EXIT` with this code.
    Exited(i64),
    /// `SYS_ASSERT_FAIL` with this code.
    AssertFailed(i64),
    /// A `halt` instruction.
    Halted,
    /// SIGSEGV: an unmapped access, a write to a read-only page, a fetch
    /// from a page that is not executable, or a heap that cannot grow.
    Segv,
    /// SIGFPE: an integer division by zero.
    Fpe,
    /// SIGILL: an undecodable instruction or an unknown kernel call.
    Ill,
    /// The instruction budget ran out before the next instruction.
    Budget,
    /// An MPI hypercall: the process is parked until [`Oracle::complete`].
    Mpi(u16),
}

impl Stop {
    /// True for a trap raised inside an instruction's own work (a memory
    /// or divide fault, a bad fetch or decode, `halt`). The engine commits
    /// `pc` only where a block ends, so after such an exit `pc` is the
    /// entry of the block that trapped (DESIGN.md §9).
    pub fn leaves_pc_at_block_entry(self) -> bool {
        matches!(self, Stop::Segv | Stop::Fpe | Stop::Ill | Stop::Halted)
    }
}

/// Where a fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Flip `bit` of a general-purpose register.
    Reg(Reg, u32),
    /// Flip `bit` of an FP register.
    FReg(FReg, u32),
    /// Flip `bit` of the u64 at a virtual address.
    Mem(u64, u32),
}

/// One fault: before the `nth` (1-based) execution of the instruction at
/// `pc`, flip the bit `site` names and mark it tainted with the fault's
/// provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The targeted instruction.
    pub pc: u64,
    /// Which execution of it fires.
    pub nth: u64,
    /// What is flipped.
    pub site: Site,
}

/// One tainted memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// A store (else a load).
    pub write: bool,
    /// The accessing instruction.
    pub pc: u64,
    /// The first byte accessed.
    pub vaddr: u64,
    /// The 8 bytes' masks, little-endian.
    pub mask: u64,
    /// The value loaded or stored.
    pub value: u64,
    /// Retired instructions, the accessing one included.
    pub icount: u64,
    /// The access derives from the fault.
    pub prov: bool,
}

/// A page's permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Stores allowed.
    pub write: bool,
    /// Fetches allowed.
    pub exec: bool,
}

/// The reference state of one process.
pub struct Oracle {
    /// Architectural registers, flags and `pc`.
    pub cpu: CpuState,
    /// Register masks.
    pub reg_mask: [u64; NUM_REGS],
    /// FP register masks.
    pub freg_mask: [u64; NUM_FREGS],
    /// Registers that derive from the fault.
    pub reg_prov: [bool; NUM_REGS],
    /// FP registers that derive from the fault.
    pub freg_prov: [bool; NUM_FREGS],
    /// Mapped pages, by page number.
    pub pages: BTreeMap<u64, Perms>,
    /// Memory bytes; a mapped byte absent here is 0.
    pub bytes: HashMap<u64, u8>,
    /// Memory masks; a byte absent here is clean.
    pub mem_mask: HashMap<u64, u8>,
    /// Memory bytes that derive from the fault.
    pub mem_prov: HashSet<u64>,
    /// Retired instructions.
    pub icount: u64,
    /// The heap break.
    pub brk: u64,
    /// Bytes written to stdout.
    pub stdout: Vec<u8>,
    /// Bytes written to the output file.
    pub output: Vec<u8>,
    /// Tainted memory accesses, in execution order.
    pub accesses: Vec<Access>,
    /// The fault to inject, if any, and how often its instruction ran.
    fault: Option<Fault>,
    fault_execs: u64,
    /// The icount at which the fault fired.
    pub fired_at: Option<u64>,
    /// Physical frames not yet handed out.
    frames_left: u64,
}

fn spread_up(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX << m.trailing_zeros()
    }
}

fn saturate(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX
    }
}

/// The mask of `a << c`, `a >> c` or `a >>s c` for a clean count `c`.
fn shift_mask(kind: Shift, ma: u64, c: u64) -> u64 {
    let c = (c & 63) as u32;
    match kind {
        Shift::Left => ma << c,
        Shift::Right => ma >> c,
        Shift::Arith => {
            let mut m = ma >> c;
            if c > 0 && ma >> 63 == 1 {
                m |= u64::MAX << (64 - c);
            }
            m
        }
    }
}

#[derive(Clone, Copy)]
enum Shift {
    Left,
    Right,
    Arith,
}

/// A value operand: its bits, mask and provenance.
#[derive(Clone, Copy)]
struct Val {
    v: u64,
    m: u64,
    p: bool,
}

impl Val {
    const fn clean(v: u64) -> Val {
        Val { v, m: 0, p: false }
    }
}

/// An integer ALU operation.
#[derive(Clone, Copy)]
enum Alu {
    Add,
    Sub,
    Mul,
    Divs,
    Divu,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
}

/// An FP helper.
#[derive(Clone, Copy)]
enum Fp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Sqrt,
    Abs,
    Neg,
}

impl Oracle {
    /// Loads `program` as the loader does: text read-execute at
    /// `CODE_BASE`, data read-write at `DATA_BASE`, a read-write stack
    /// below `STACK_TOP`, the heap break at the page after the data, with
    /// `phys_bytes` of physical memory to draw frames from.
    pub fn new(program: &Program, phys_bytes: u64) -> Oracle {
        let mut o = Oracle {
            cpu: CpuState::new(program.entry()),
            reg_mask: [0; NUM_REGS],
            freg_mask: [0; NUM_FREGS],
            reg_prov: [false; NUM_REGS],
            freg_prov: [false; NUM_FREGS],
            pages: BTreeMap::new(),
            bytes: HashMap::new(),
            mem_mask: HashMap::new(),
            mem_prov: HashSet::new(),
            icount: 0,
            brk: (DATA_BASE + program.data().len() as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE,
            stdout: Vec::new(),
            output: Vec::new(),
            accesses: Vec::new(),
            fault: None,
            fault_execs: 0,
            fired_at: None,
            frames_left: phys_bytes / PAGE_SIZE,
        };
        let rx = Perms {
            write: false,
            exec: true,
        };
        let rw = Perms {
            write: true,
            exec: false,
        };
        assert!(o.map(CODE_BASE, program.code().len().max(1) as u64, rx));
        o.load(CODE_BASE, program.code());
        if !program.data().is_empty() {
            assert!(o.map(DATA_BASE, program.data().len() as u64, rw));
            o.load(DATA_BASE, program.data());
        }
        assert!(o.map(STACK_TOP - STACK_SIZE, STACK_SIZE, rw));
        o.cpu.set_reg(Reg::SP, STACK_TOP);
        o
    }

    /// Arms one fault.
    pub fn inject(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    /// How often the armed fault's instruction has run, up to its firing.
    pub fn execs_of_fault_pc(&self) -> u64 {
        self.fault_execs
    }

    /// Maps the pages covering `[vaddr, vaddr + len)` that are not mapped
    /// yet, one frame each, in address order; false when frames run out
    /// (the pages mapped before that stay mapped).
    fn map(&mut self, vaddr: u64, len: u64, perms: Perms) -> bool {
        let first = vaddr / PAGE_SIZE;
        for vpn in first..first + len.div_ceil(PAGE_SIZE) {
            if self.pages.contains_key(&vpn) {
                continue;
            }
            if self.frames_left == 0 {
                return false;
            }
            self.frames_left -= 1;
            self.pages.insert(vpn, perms);
        }
        true
    }

    fn load(&mut self, vaddr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.bytes.insert(vaddr + i as u64, *b);
        }
    }

    fn perms(&self, vaddr: u64) -> Option<Perms> {
        self.pages.get(&(vaddr / PAGE_SIZE)).copied()
    }

    /// The byte at a mapped address.
    pub fn byte(&self, vaddr: u64) -> u8 {
        self.bytes.get(&vaddr).copied().unwrap_or(0)
    }

    /// The mask of one memory byte.
    pub fn byte_mask(&self, vaddr: u64) -> u8 {
        self.mem_mask.get(&vaddr).copied().unwrap_or(0)
    }

    fn set_byte_taint(&mut self, vaddr: u64, mask: u8, prov: bool) {
        if mask == 0 {
            self.mem_mask.remove(&vaddr);
        } else {
            self.mem_mask.insert(vaddr, mask);
        }
        if prov && mask != 0 {
            self.mem_prov.insert(vaddr);
        } else {
            self.mem_prov.remove(&vaddr);
        }
    }

    /// Sets the masks of memory bytes from `vaddr` on (no provenance), as
    /// a host-side taint write does.
    pub fn taint_bytes(&mut self, vaddr: u64, masks: &[u8]) {
        for (i, m) in masks.iter().enumerate() {
            let a = vaddr + i as u64;
            let prov = self.mem_prov.contains(&a);
            self.set_byte_taint(a, *m, prov);
        }
    }

    /// Marks memory bytes from `vaddr` on as deriving from the fault (or
    /// not), as a host-side provenance write does. Provenance is kept on
    /// tainted bytes only.
    pub fn prov_bytes(&mut self, vaddr: u64, prov: &[bool]) {
        for (i, p) in prov.iter().enumerate() {
            let a = vaddr + i as u64;
            if *p && self.byte_mask(a) != 0 {
                self.mem_prov.insert(a);
            } else {
                self.mem_prov.remove(&a);
            }
        }
    }

    fn reg(&self, r: Reg) -> Val {
        Val {
            v: self.cpu.reg(r),
            m: self.reg_mask[r.index()],
            p: self.reg_prov[r.index()],
        }
    }

    fn set_reg(&mut self, r: Reg, x: Val) {
        self.cpu.set_reg(r, x.v);
        self.reg_mask[r.index()] = x.m;
        self.reg_prov[r.index()] = x.p && x.m != 0;
    }

    fn freg(&self, r: FReg) -> Val {
        Val {
            v: self.cpu.freg_bits(r),
            m: self.freg_mask[r.index()],
            p: self.freg_prov[r.index()],
        }
    }

    fn set_freg(&mut self, r: FReg, x: Val) {
        self.cpu.set_freg_bits(r, x.v);
        self.freg_mask[r.index()] = x.m;
        self.freg_prov[r.index()] = x.p && x.m != 0;
    }

    /// Loads the u64 at `vaddr`; `None` if any of its bytes is unmapped.
    fn read(&mut self, pc: u64, vaddr: u64) -> Option<Val> {
        let mut v = [0u8; 8];
        let mut m = [0u8; 8];
        let mut p = false;
        for i in 0..8 {
            let a = vaddr.wrapping_add(i as u64);
            self.perms(a)?;
            v[i] = self.byte(a);
            m[i] = self.byte_mask(a);
            p |= self.mem_prov.contains(&a);
        }
        let x = Val {
            v: u64::from_le_bytes(v),
            m: u64::from_le_bytes(m),
            p,
        };
        if x.m != 0 {
            self.accesses.push(Access {
                write: false,
                pc,
                vaddr,
                mask: x.m,
                value: x.v,
                icount: self.icount,
                prov: p,
            });
        }
        Some(Val {
            p: p && x.m != 0,
            ..x
        })
    }

    /// Stores `x` at `vaddr` a byte at a time, in address order; false at
    /// the first byte that is unmapped or read-only (the bytes before it
    /// are written).
    fn write(&mut self, pc: u64, vaddr: u64, x: Val) -> bool {
        for (i, b) in x.v.to_le_bytes().iter().enumerate() {
            let a = vaddr.wrapping_add(i as u64);
            if !self.perms(a).is_some_and(|p| p.write) {
                return false;
            }
            self.bytes.insert(a, *b);
            self.set_byte_taint(a, (x.m >> (8 * i)) as u8, x.p);
        }
        if x.m != 0 {
            self.accesses.push(Access {
                write: true,
                pc,
                vaddr,
                mask: x.m,
                value: x.v,
                icount: self.icount,
                prov: x.p,
            });
        }
        true
    }

    /// Fetches and decodes the instruction at `pc`: `Err(Segv)` unless
    /// every byte is on an executable page, `Err(Ill)` if it does not
    /// decode.
    fn fetch(&self, pc: u64) -> Result<Instruction, Stop> {
        let mut raw = [0u8; INSN_LEN as usize];
        for (i, b) in raw.iter_mut().enumerate() {
            let a = pc.wrapping_add(i as u64);
            match self.perms(a) {
                Some(p) if p.exec => *b = self.byte(a),
                _ => return Err(Stop::Segv),
            }
        }
        decode(&raw).map_err(|_| Stop::Ill)
    }

    /// Lets a parked process resume with `ret` in `R0` (its mask kept).
    pub fn complete(&mut self, ret: u64) {
        self.cpu.set_reg(abi::RET_REG, ret);
    }

    /// Runs until the process exits, parks in an MPI call, or has retired
    /// `budget` instructions in total.
    pub fn run(&mut self, budget: u64) -> Stop {
        loop {
            let pc = self.cpu.pc;
            let insn = match self.fetch(pc) {
                Ok(insn) => insn,
                Err(stop) => return stop,
            };
            if self.icount >= budget {
                return Stop::Budget;
            }
            self.icount += 1;
            self.maybe_fire(pc);
            if let Some(stop) = self.step(pc, insn) {
                return stop;
            }
        }
    }

    fn maybe_fire(&mut self, pc: u64) {
        let Some(fault) = self.fault else { return };
        if fault.pc != pc || self.fired_at.is_some() {
            return;
        }
        self.fault_execs += 1;
        if self.fault_execs != fault.nth {
            return;
        }
        self.fired_at = Some(self.icount);
        match fault.site {
            Site::Reg(r, bit) => {
                let v = self.cpu.reg(r) ^ (1 << bit);
                self.set_reg(
                    r,
                    Val {
                        v,
                        m: 1 << bit,
                        p: true,
                    },
                );
            }
            Site::FReg(r, bit) => {
                let v = self.cpu.freg_bits(r) ^ (1 << bit);
                self.set_freg(
                    r,
                    Val {
                        v,
                        m: 1 << bit,
                        p: true,
                    },
                );
            }
            Site::Mem(vaddr, bit) => {
                let writable =
                    (0..8).all(|i| self.perms(vaddr.wrapping_add(i)).is_some_and(|p| p.write));
                if !writable {
                    return;
                }
                let mut v = 0u64;
                for i in 0..8 {
                    v |= (self.byte(vaddr + i) as u64) << (8 * i);
                }
                v ^= 1 << bit;
                let mask = 1u64 << bit;
                for (i, b) in v.to_le_bytes().iter().enumerate() {
                    let a = vaddr + i as u64;
                    self.bytes.insert(a, *b);
                    self.set_byte_taint(a, (mask >> (8 * i)) as u8, true);
                }
            }
        }
    }

    /// Executes one instruction; `Some` when the process stops.
    fn step(&mut self, pc: u64, insn: Instruction) -> Option<Stop> {
        use Instruction as I;
        let next = pc + INSN_LEN;
        self.cpu.pc = next;
        match insn {
            I::Nop => {}
            I::Halt => return Some(Stop::Halted),
            I::MovRR { dst, src } => {
                let x = self.reg(src);
                self.set_reg(dst, x);
            }
            I::MovRI { dst, imm } => self.set_reg(dst, Val::clean(imm as u64)),
            I::Ld { dst, base, off } => {
                let vaddr = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let Some(x) = self.read(pc, vaddr) else {
                    return Some(Stop::Segv);
                };
                self.set_reg(dst, x);
            }
            I::St { src, base, off } => {
                let vaddr = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let x = self.reg(src);
                if !self.write(pc, vaddr, x) {
                    return Some(Stop::Segv);
                }
            }
            I::LdIdx { dst, base, idx } => {
                let vaddr = self.idx_addr(base, idx);
                let Some(x) = self.read(pc, vaddr) else {
                    return Some(Stop::Segv);
                };
                self.set_reg(dst, x);
            }
            I::StIdx { src, base, idx } => {
                let vaddr = self.idx_addr(base, idx);
                let x = self.reg(src);
                if !self.write(pc, vaddr, x) {
                    return Some(Stop::Segv);
                }
            }
            I::Push { src } => {
                let sp = self.alu(Alu::Sub, self.reg(Reg::SP), Val::clean(8));
                self.set_reg(Reg::SP, sp);
                let x = self.reg(src);
                if !self.write(pc, sp.v, x) {
                    return Some(Stop::Segv);
                }
            }
            I::Pop { dst } => {
                let Some(x) = self.read(pc, self.cpu.reg(Reg::SP)) else {
                    return Some(Stop::Segv);
                };
                let sp = self.alu(Alu::Add, self.reg(Reg::SP), Val::clean(8));
                self.set_reg(Reg::SP, sp);
                self.set_reg(dst, x);
            }
            I::Add { dst, src } => return self.alu_rr(Alu::Add, dst, src),
            I::Sub { dst, src } => return self.alu_rr(Alu::Sub, dst, src),
            I::Mul { dst, src } => return self.alu_rr(Alu::Mul, dst, src),
            I::Divs { dst, src } => return self.alu_rr(Alu::Divs, dst, src),
            I::Divu { dst, src } => return self.alu_rr(Alu::Divu, dst, src),
            I::Rem { dst, src } => return self.alu_rr(Alu::Rem, dst, src),
            I::And { dst, src } => return self.alu_rr(Alu::And, dst, src),
            I::Or { dst, src } => return self.alu_rr(Alu::Or, dst, src),
            I::Xor { dst, src } => return self.alu_rr(Alu::Xor, dst, src),
            I::Shl { dst, src } => return self.alu_rr(Alu::Shl, dst, src),
            I::Shr { dst, src } => return self.alu_rr(Alu::Shr, dst, src),
            I::Sar { dst, src } => return self.alu_rr(Alu::Sar, dst, src),
            I::AddI { dst, imm } => self.alu_ri(Alu::Add, dst, imm as u64),
            I::SubI { dst, imm } => self.alu_ri(Alu::Sub, dst, imm as u64),
            I::MulI { dst, imm } => self.alu_ri(Alu::Mul, dst, imm as u64),
            I::AndI { dst, imm } => self.alu_ri(Alu::And, dst, imm as u64),
            I::OrI { dst, imm } => self.alu_ri(Alu::Or, dst, imm as u64),
            I::XorI { dst, imm } => self.alu_ri(Alu::Xor, dst, imm as u64),
            I::ShlI { dst, imm } => self.alu_ri(Alu::Shl, dst, imm as u64),
            I::ShrI { dst, imm } => self.alu_ri(Alu::Shr, dst, imm as u64),
            I::SarI { dst, imm } => self.alu_ri(Alu::Sar, dst, imm as u64),
            I::Neg { dst } => {
                let a = self.reg(dst);
                self.set_reg(
                    dst,
                    Val {
                        v: (a.v as i64).wrapping_neg() as u64,
                        m: spread_up(a.m),
                        p: a.p,
                    },
                );
            }
            I::Not { dst } => {
                let a = self.reg(dst);
                self.set_reg(dst, Val { v: !a.v, ..a });
            }
            I::Cmp { a, b } => {
                self.cpu.flags = Flags::from_int_cmp(self.cpu.reg(a), self.cpu.reg(b))
            }
            I::CmpI { a, imm } => self.cpu.flags = Flags::from_int_cmp(self.cpu.reg(a), imm as u64),
            I::Jmp { target } => self.cpu.pc = target,
            I::Jcc { cond, target } => {
                if self.cpu.flags.holds(cond) {
                    self.cpu.pc = target;
                }
            }
            I::Call { target } => {
                if !self.push_return(pc, next) {
                    return Some(Stop::Segv);
                }
                self.cpu.pc = target;
            }
            I::CallR { target } => {
                if !self.push_return(pc, next) {
                    return Some(Stop::Segv);
                }
                self.cpu.pc = self.cpu.reg(target);
            }
            I::Ret => {
                let Some(ra) = self.read(pc, self.cpu.reg(Reg::SP)) else {
                    return Some(Stop::Segv);
                };
                let sp = self.alu(Alu::Add, self.reg(Reg::SP), Val::clean(8));
                self.set_reg(Reg::SP, sp);
                self.cpu.pc = ra.v;
            }
            I::FMov { dst, src } => {
                let x = self.freg(src);
                self.set_freg(dst, x);
            }
            I::FMovI { dst, imm } => self.set_freg(dst, Val::clean(imm.to_bits())),
            I::FLd { dst, base, off } => {
                let vaddr = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let Some(x) = self.read(pc, vaddr) else {
                    return Some(Stop::Segv);
                };
                self.set_freg(dst, x);
            }
            I::FSt { src, base, off } => {
                let vaddr = self.cpu.reg(base).wrapping_add(off as i64 as u64);
                let x = self.freg(src);
                if !self.write(pc, vaddr, x) {
                    return Some(Stop::Segv);
                }
            }
            I::FLdIdx { dst, base, idx } => {
                let vaddr = self.idx_addr(base, idx);
                let Some(x) = self.read(pc, vaddr) else {
                    return Some(Stop::Segv);
                };
                self.set_freg(dst, x);
            }
            I::FStIdx { src, base, idx } => {
                let vaddr = self.idx_addr(base, idx);
                let x = self.freg(src);
                if !self.write(pc, vaddr, x) {
                    return Some(Stop::Segv);
                }
            }
            I::Fadd { dst, src } => self.fp(Fp::Add, dst, Some(src)),
            I::Fsub { dst, src } => self.fp(Fp::Sub, dst, Some(src)),
            I::Fmul { dst, src } => self.fp(Fp::Mul, dst, Some(src)),
            I::Fdiv { dst, src } => self.fp(Fp::Div, dst, Some(src)),
            I::Fmin { dst, src } => self.fp(Fp::Min, dst, Some(src)),
            I::Fmax { dst, src } => self.fp(Fp::Max, dst, Some(src)),
            I::Fsqrt { dst } => self.fp(Fp::Sqrt, dst, None),
            I::Fabs { dst } => self.fp(Fp::Abs, dst, None),
            I::Fneg { dst } => self.fp(Fp::Neg, dst, None),
            I::Fcmp { a, b } => {
                self.cpu.flags = Flags::from_fp_cmp(self.cpu.freg(a), self.cpu.freg(b))
            }
            I::CvtIF { dst, src } => {
                let a = self.reg(src);
                let v = ((a.v as i64) as f64).to_bits();
                self.set_freg(
                    dst,
                    Val {
                        v,
                        m: saturate(a.m),
                        p: a.p,
                    },
                );
            }
            I::CvtFI { dst, src } => {
                let a = self.freg(src);
                let f = f64::from_bits(a.v);
                // Truncating and saturating; NaN becomes 0.
                let v = if f.is_nan() { 0 } else { f as i64 as u64 };
                self.set_reg(
                    dst,
                    Val {
                        v,
                        m: saturate(a.m),
                        p: a.p,
                    },
                );
            }
            I::MovFR { dst, src } => {
                let x = self.freg(src);
                self.set_reg(dst, x);
            }
            I::MovRF { dst, src } => {
                let x = self.reg(src);
                self.set_freg(dst, x);
            }
            I::Hypercall { num } => return self.hypercall(num),
        }
        None
    }

    fn idx_addr(&self, base: Reg, idx: Reg) -> u64 {
        self.cpu
            .reg(base)
            .wrapping_add(self.cpu.reg(idx).wrapping_mul(8))
    }

    /// `sp -= 8; mem64[sp] = ret` with a clean return address.
    fn push_return(&mut self, pc: u64, ret: u64) -> bool {
        let sp = self.alu(Alu::Sub, self.reg(Reg::SP), Val::clean(8));
        self.set_reg(Reg::SP, sp);
        self.write(pc, sp.v, Val::clean(ret))
    }

    fn alu_rr(&mut self, op: Alu, dst: Reg, src: Reg) -> Option<Stop> {
        let (a, b) = (self.reg(dst), self.reg(src));
        if matches!(op, Alu::Divs | Alu::Divu | Alu::Rem) && b.v == 0 {
            return Some(Stop::Fpe);
        }
        let x = self.alu(op, a, b);
        self.set_reg(dst, x);
        None
    }

    fn alu_ri(&mut self, op: Alu, dst: Reg, imm: u64) {
        let x = self.alu(op, self.reg(dst), Val::clean(imm));
        self.set_reg(dst, x);
    }

    /// `a op b` with its mask and provenance (divisors are non-zero).
    fn alu(&self, op: Alu, a: Val, b: Val) -> Val {
        let union = a.m | b.m;
        let (v, m) = match op {
            Alu::Add => (a.v.wrapping_add(b.v), spread_up(union)),
            Alu::Sub => (a.v.wrapping_sub(b.v), spread_up(union)),
            Alu::Mul => (a.v.wrapping_mul(b.v), spread_up(union)),
            Alu::Divs => (
                (a.v as i64).wrapping_div(b.v as i64) as u64,
                saturate(union),
            ),
            Alu::Divu => (a.v / b.v, saturate(union)),
            Alu::Rem => (a.v % b.v, saturate(union)),
            Alu::And => (a.v & b.v, (a.m & b.m) | (a.m & b.v) | (b.m & a.v)),
            Alu::Or => (a.v | b.v, (a.m & b.m) | (a.m & !b.v) | (b.m & !a.v)),
            Alu::Xor => (a.v ^ b.v, union),
            Alu::Shl | Alu::Shr | Alu::Sar => {
                let c = b.v & 63;
                let (v, kind) = match op {
                    Alu::Shl => (a.v << c, Shift::Left),
                    Alu::Shr => (a.v >> c, Shift::Right),
                    _ => (((a.v as i64) >> c) as u64, Shift::Arith),
                };
                let m = if b.m == 0 {
                    shift_mask(kind, a.m, c)
                } else {
                    saturate(union)
                };
                (v, m)
            }
        };
        Val {
            v,
            m,
            p: a.p || b.p,
        }
    }

    fn fp(&mut self, op: Fp, dst: FReg, src: Option<FReg>) {
        let a = self.freg(dst);
        let b = src.map_or(Val::clean(0), |s| self.freg(s));
        let (x, y) = (f64::from_bits(a.v), f64::from_bits(b.v));
        let r = match op {
            Fp::Add => x + y,
            Fp::Sub => x - y,
            Fp::Mul => x * y,
            Fp::Div => x / y,
            Fp::Min => x.min(y),
            Fp::Max => x.max(y),
            Fp::Sqrt => x.sqrt(),
            Fp::Abs => x.abs(),
            Fp::Neg => -x,
        };
        self.set_freg(
            dst,
            Val {
                v: r.to_bits(),
                m: saturate(a.m | b.m),
                p: a.p || b.p,
            },
        );
    }

    /// A hypercall: MPI services park, kernel services run here. `pc` is
    /// already the next instruction.
    fn hypercall(&mut self, num: u16) -> Option<Stop> {
        if num >= abi::MPI_BASE {
            return Some(Stop::Mpi(num));
        }
        let a1 = self.cpu.reg(Reg::R1);
        let a2 = self.cpu.reg(Reg::R2);
        let a3 = self.cpu.reg(Reg::R3);
        match num {
            abi::SYS_EXIT => return Some(Stop::Exited(a1 as i64)),
            abi::SYS_ASSERT_FAIL => return Some(Stop::AssertFailed(a1 as i64)),
            abi::SYS_WRITE => {
                let Some(bytes) = self.read_buf(a2, a3) else {
                    return Some(Stop::Segv);
                };
                self.append(a1, &bytes);
                self.cpu.set_reg(Reg::R0, a3);
            }
            abi::SYS_WRITE_I64 => {
                let text = format!("{}\n", a2 as i64);
                self.append(a1, text.as_bytes());
                self.cpu.set_reg(Reg::R0, 0);
            }
            abi::SYS_WRITE_F64 => {
                self.append(a1, &a2.to_le_bytes());
                self.cpu.set_reg(Reg::R0, 0);
            }
            abi::SYS_SBRK => {
                let old = self.brk;
                let new = old.saturating_add(a1);
                // A break whose page end does not fit the address space
                // cannot be mapped.
                let Some(end) = new.checked_next_multiple_of(PAGE_SIZE) else {
                    return Some(Stop::Segv);
                };
                if end > old.next_multiple_of(PAGE_SIZE) {
                    let from = old / PAGE_SIZE * PAGE_SIZE;
                    let rw = Perms {
                        write: true,
                        exec: false,
                    };
                    if !self.map(from, end - from, rw) {
                        return Some(Stop::Segv);
                    }
                }
                self.brk = new;
                self.cpu.set_reg(Reg::R0, old);
            }
            abi::SYS_CLOCK => self.cpu.set_reg(Reg::R0, self.icount),
            _ => return Some(Stop::Ill),
        }
        None
    }

    /// The `len` bytes at `vaddr`; `None` if one is unmapped.
    fn read_buf(&self, vaddr: u64, len: u64) -> Option<Vec<u8>> {
        vaddr.checked_add(len)?;
        let mut out = Vec::new();
        let mut a = vaddr;
        while a < vaddr + len {
            self.perms(a)?;
            let page_end = (a / PAGE_SIZE + 1) * PAGE_SIZE;
            let end = page_end.min(vaddr + len);
            out.extend((a..end).map(|b| self.byte(b)));
            a = end;
        }
        Some(out)
    }

    fn append(&mut self, fd: u64, bytes: &[u8]) {
        match fd {
            abi::FD_STDOUT => self.stdout.extend_from_slice(bytes),
            abi::FD_OUTPUT => self.output.extend_from_slice(bytes),
            _ => {}
        }
    }

    /// Memory bytes with a tainted mask.
    pub fn tainted_bytes(&self) -> usize {
        self.mem_mask.len()
    }
}
