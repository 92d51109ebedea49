//! Functional (architectural) emulator.
//!
//! Executes a [`Program`] with exact ISA semantics — no timing — and
//! records the dynamic instruction trace that the timing simulator and
//! the feature extractor consume.

use crate::dynrec::{DynInst, Trace};
use crate::inst::Inst;
use crate::mem::Memory;
use crate::op::Op;
use crate::program::Program;
use crate::reg::{Reg, RegClass};
use crate::{CODE_BASE, INST_BYTES, STACK_BASE};

/// Errors that indicate a broken program (not normal termination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the code segment.
    PcOutOfRange {
        /// Offending instruction index.
        idx: u64,
    },
    /// An indirect jump targeted a non-code or misaligned address.
    BadJumpTarget {
        /// The bad target address.
        addr: u64,
    },
    /// `Li` into a vector register (unsupported).
    UnsupportedOperand,
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::PcOutOfRange { idx } => write!(f, "pc out of range (index {idx})"),
            EmuError::BadJumpTarget { addr } => write!(f, "bad indirect jump target {addr:#x}"),
            EmuError::UnsupportedOperand => write!(f, "unsupported operand combination"),
        }
    }
}

impl std::error::Error for EmuError {}

/// The functional emulator.
pub struct Emulator<'p> {
    program: &'p Program,
    x: [i64; 32],
    f: [f64; 32],
    v: [[f32; 4]; 16],
    mem: Memory,
    pc_idx: u64,
    executed: u64,
    halted: bool,
}

impl<'p> Emulator<'p> {
    /// Set up an emulator: zeroed registers (stack pointer at
    /// [`STACK_BASE`]), memory initialized from the program's data
    /// segments, pc at the entry point.
    pub fn new(program: &'p Program) -> Emulator<'p> {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.write_slice(seg.addr, &seg.bytes);
        }
        let mut x = [0i64; 32];
        x[Reg::SP.index() as usize] = STACK_BASE as i64;
        Emulator {
            program,
            x,
            f: [0.0; 32],
            v: [[0.0; 4]; 16],
            mem,
            pc_idx: program.entry as u64,
            executed: 0,
            halted: false,
        }
    }

    /// Read an integer register (`x0` reads zero).
    #[inline]
    pub fn read_x(&self, r: Reg) -> i64 {
        debug_assert_eq!(r.class(), RegClass::Int);
        if r.is_zero() {
            0
        } else {
            self.x[r.index() as usize]
        }
    }

    #[inline]
    fn write_x(&mut self, r: Reg, val: i64) {
        debug_assert_eq!(r.class(), RegClass::Int);
        if !r.is_zero() {
            self.x[r.index() as usize] = val;
        }
    }

    /// Read an FP register.
    #[inline]
    pub fn read_f(&self, r: Reg) -> f64 {
        debug_assert_eq!(r.class(), RegClass::Fp);
        self.f[r.index() as usize]
    }

    #[inline]
    fn write_f(&mut self, r: Reg, val: f64) {
        self.f[r.index() as usize] = val;
    }

    /// Read a SIMD register.
    #[inline]
    pub fn read_v(&self, r: Reg) -> [f32; 4] {
        debug_assert_eq!(r.class(), RegClass::Vec);
        self.v[r.index() as usize]
    }

    /// Architectural memory (for inspecting results after a run).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    #[inline]
    fn effective_addr(&self, inst: &Inst) -> u64 {
        let m = inst.mem.expect("memory op without mem operand");
        let mut addr = self.read_x(m.base) as u64;
        if let Some(idx) = m.index {
            addr = addr.wrapping_add((self.read_x(idx) as u64).wrapping_mul(m.scale as u64));
        }
        addr.wrapping_add(m.offset as u64)
    }

    #[inline]
    fn src1_or_imm(&self, inst: &Inst) -> i64 {
        if inst.uses_imm {
            inst.imm
        } else {
            self.read_x(inst.srcs()[1])
        }
    }

    /// Run until `halt`, the instruction budget `max_instrs` is
    /// exhausted, or an error; returns the dynamic trace.
    ///
    /// Budget exhaustion is a normal outcome (workloads are deliberately
    /// truncated, as the paper truncates SPEC runs at 100 M instructions);
    /// check [`Trace::halted`] to distinguish.
    pub fn run(&mut self, max_instrs: u64) -> Result<Trace, EmuError> {
        let mut records = Vec::with_capacity(max_instrs.min(1 << 20) as usize);
        while !self.halted && (self.executed as usize) < max_instrs as usize {
            let rec = self.step()?;
            records.push(rec);
        }
        Ok(Trace {
            program: self.program.clone(),
            records,
            halted: self.halted,
        })
    }

    /// Execute one instruction, returning its dynamic record.
    pub fn step(&mut self) -> Result<DynInst, EmuError> {
        let idx = self.pc_idx;
        if idx as usize >= self.program.insts.len() {
            return Err(EmuError::PcOutOfRange { idx });
        }
        let inst = self.program.insts[idx as usize];
        let mut next = idx + 1;
        let mut taken = false;
        let mut fault = false;
        let mut addr = 0u64;

        match inst.op {
            // ---- integer ALU ----
            Op::Add => {
                let v = self
                    .read_x(inst.srcs()[0])
                    .wrapping_add(self.src1_or_imm(&inst));
                self.write_x(inst.dsts()[0], v);
            }
            Op::Sub => {
                let v = self
                    .read_x(inst.srcs()[0])
                    .wrapping_sub(self.src1_or_imm(&inst));
                self.write_x(inst.dsts()[0], v);
            }
            Op::And => {
                let v = self.read_x(inst.srcs()[0]) & self.src1_or_imm(&inst);
                self.write_x(inst.dsts()[0], v);
            }
            Op::Or => {
                let v = self.read_x(inst.srcs()[0]) | self.src1_or_imm(&inst);
                self.write_x(inst.dsts()[0], v);
            }
            Op::Xor => {
                let v = self.read_x(inst.srcs()[0]) ^ self.src1_or_imm(&inst);
                self.write_x(inst.dsts()[0], v);
            }
            Op::Shl => {
                let v = (self.read_x(inst.srcs()[0]) as u64)
                    .wrapping_shl(self.src1_or_imm(&inst) as u32 & 63);
                self.write_x(inst.dsts()[0], v as i64);
            }
            Op::Shr => {
                let v = (self.read_x(inst.srcs()[0]) as u64)
                    .wrapping_shr(self.src1_or_imm(&inst) as u32 & 63);
                self.write_x(inst.dsts()[0], v as i64);
            }
            Op::Sra => {
                let v = self
                    .read_x(inst.srcs()[0])
                    .wrapping_shr(self.src1_or_imm(&inst) as u32 & 63);
                self.write_x(inst.dsts()[0], v);
            }
            Op::Slt => {
                let v = (self.read_x(inst.srcs()[0]) < self.src1_or_imm(&inst)) as i64;
                self.write_x(inst.dsts()[0], v);
            }
            Op::Sltu => {
                let v = ((self.read_x(inst.srcs()[0]) as u64) < (self.src1_or_imm(&inst) as u64))
                    as i64;
                self.write_x(inst.dsts()[0], v);
            }
            Op::Li => {
                let d = inst.dsts()[0];
                match d.class() {
                    RegClass::Int => self.write_x(d, inst.imm),
                    RegClass::Fp => self.write_f(d, f64::from_bits(inst.imm as u64)),
                    RegClass::Vec => return Err(EmuError::UnsupportedOperand),
                }
            }
            Op::Mov => {
                let v = self.read_x(inst.srcs()[0]);
                self.write_x(inst.dsts()[0], v);
            }
            Op::Mul => {
                let v = self
                    .read_x(inst.srcs()[0])
                    .wrapping_mul(self.src1_or_imm(&inst));
                self.write_x(inst.dsts()[0], v);
            }
            Op::Div => {
                let a = self.read_x(inst.srcs()[0]);
                let b = self.src1_or_imm(&inst);
                let v = if b == 0 {
                    fault = true;
                    0
                } else {
                    a.wrapping_div(b)
                };
                self.write_x(inst.dsts()[0], v);
            }
            Op::Rem => {
                let a = self.read_x(inst.srcs()[0]);
                let b = self.src1_or_imm(&inst);
                let v = if b == 0 {
                    fault = true;
                    0
                } else {
                    a.wrapping_rem(b)
                };
                self.write_x(inst.dsts()[0], v);
            }
            // ---- scalar FP ----
            Op::Fadd => {
                let v = self.read_f(inst.srcs()[0]) + self.read_f(inst.srcs()[1]);
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fsub => {
                let v = self.read_f(inst.srcs()[0]) - self.read_f(inst.srcs()[1]);
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fmul => {
                let v = self.read_f(inst.srcs()[0]) * self.read_f(inst.srcs()[1]);
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fdiv => {
                let a = self.read_f(inst.srcs()[0]);
                let b = self.read_f(inst.srcs()[1]);
                let v = if b == 0.0 {
                    fault = true;
                    0.0
                } else {
                    a / b
                };
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fsqrt => {
                let a = self.read_f(inst.srcs()[0]);
                let v = if a < 0.0 {
                    fault = true;
                    0.0
                } else {
                    a.sqrt()
                };
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fmadd => {
                let v = self.read_f(inst.srcs()[0]) * self.read_f(inst.srcs()[1])
                    + self.read_f(inst.srcs()[2]);
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fmin => {
                let v = self.read_f(inst.srcs()[0]).min(self.read_f(inst.srcs()[1]));
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fmax => {
                let v = self.read_f(inst.srcs()[0]).max(self.read_f(inst.srcs()[1]));
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fneg => {
                let v = -self.read_f(inst.srcs()[0]);
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fclt => {
                let v = (self.read_f(inst.srcs()[0]) < self.read_f(inst.srcs()[1])) as i64;
                self.write_x(inst.dsts()[0], v);
            }
            Op::Icvtf => {
                let v = self.read_x(inst.srcs()[0]) as f64;
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fcvti => {
                let v = self.read_f(inst.srcs()[0]) as i64;
                self.write_x(inst.dsts()[0], v);
            }
            Op::Fmov => {
                let v = self.read_f(inst.srcs()[0]);
                self.write_f(inst.dsts()[0], v);
            }
            // ---- SIMD ----
            Op::Vadd => {
                let (a, b) = (self.read_v(inst.srcs()[0]), self.read_v(inst.srcs()[1]));
                let mut out = [0f32; 4];
                for i in 0..4 {
                    out[i] = a[i] + b[i];
                }
                self.v[inst.dsts()[0].index() as usize] = out;
            }
            Op::Vmul => {
                let (a, b) = (self.read_v(inst.srcs()[0]), self.read_v(inst.srcs()[1]));
                let mut out = [0f32; 4];
                for i in 0..4 {
                    out[i] = a[i] * b[i];
                }
                self.v[inst.dsts()[0].index() as usize] = out;
            }
            Op::Vfma => {
                let a = self.read_v(inst.srcs()[0]);
                let b = self.read_v(inst.srcs()[1]);
                let c = self.read_v(inst.srcs()[2]);
                let mut out = [0f32; 4];
                for i in 0..4 {
                    out[i] = a[i] * b[i] + c[i];
                }
                self.v[inst.dsts()[0].index() as usize] = out;
            }
            Op::Vsplat => {
                let s = self.read_f(inst.srcs()[0]) as f32;
                self.v[inst.dsts()[0].index() as usize] = [s; 4];
            }
            Op::Vredsum => {
                let a = self.read_v(inst.srcs()[0]);
                let v = a.iter().map(|&x| x as f64).sum();
                self.write_f(inst.dsts()[0], v);
            }
            // ---- memory ----
            Op::Ld => {
                addr = self.effective_addr(&inst);
                let size = inst.mem.unwrap().size;
                let v = self.mem.read_uint(addr, size) as i64;
                self.write_x(inst.dsts()[0], v);
            }
            Op::St => {
                addr = self.effective_addr(&inst);
                let size = inst.mem.unwrap().size;
                let v = self.read_x(inst.srcs()[0]) as u64;
                self.mem.write_uint(addr, v, size);
            }
            Op::Fld => {
                addr = self.effective_addr(&inst);
                let v = if inst.mem.unwrap().size == 4 {
                    f32::from_bits(self.mem.read_uint(addr, 4) as u32) as f64
                } else {
                    self.mem.read_f64(addr)
                };
                self.write_f(inst.dsts()[0], v);
            }
            Op::Fst => {
                addr = self.effective_addr(&inst);
                let v = self.read_f(inst.srcs()[0]);
                if inst.mem.unwrap().size == 4 {
                    self.mem.write_uint(addr, (v as f32).to_bits() as u64, 4);
                } else {
                    self.mem.write_f64(addr, v);
                }
            }
            Op::Vld => {
                addr = self.effective_addr(&inst);
                let v = self.mem.read_v128(addr);
                self.v[inst.dsts()[0].index() as usize] = v;
            }
            Op::Vst => {
                addr = self.effective_addr(&inst);
                let v = self.read_v(inst.srcs()[0]);
                self.mem.write_v128(addr, v);
            }
            // ---- control flow ----
            Op::Beq | Op::Bne | Op::Blt | Op::Bge => {
                let a = self.read_x(inst.srcs()[0]);
                let b = self.src1_or_imm(&inst);
                taken = match inst.op {
                    Op::Beq => a == b,
                    Op::Bne => a != b,
                    Op::Blt => a < b,
                    Op::Bge => a >= b,
                    _ => unreachable!(),
                };
                if taken {
                    next = inst.target.expect("cond branch without target") as u64;
                }
            }
            Op::J => {
                taken = true;
                next = inst.target.expect("jump without target") as u64;
            }
            Op::Jal => {
                taken = true;
                let ret_pc = CODE_BASE + (idx + 1) * INST_BYTES;
                self.write_x(inst.dsts()[0], ret_pc as i64);
                next = inst.target.expect("call without target") as u64;
            }
            Op::Jr => {
                taken = true;
                let target = self.read_x(inst.srcs()[0]) as u64;
                if target < CODE_BASE
                    || !(target - CODE_BASE).is_multiple_of(INST_BYTES)
                    || ((target - CODE_BASE) / INST_BYTES) as usize >= self.program.insts.len()
                {
                    return Err(EmuError::BadJumpTarget { addr: target });
                }
                next = (target - CODE_BASE) / INST_BYTES;
            }
            // ---- misc ----
            Op::Fence | Op::Nop => {}
            Op::Halt => {
                self.halted = true;
                next = idx; // no successor
            }
        }

        self.pc_idx = next;
        self.executed += 1;
        Ok(DynInst {
            sidx: idx as u32,
            next_sidx: next as u32,
            addr,
            taken,
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn run_prog(b: ProgramBuilder) -> (Program, Trace) {
        let p = b.build();
        let mut e = Emulator::new(&p);
        let t = e.run(1_000_000).unwrap();
        (p, t)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let mut b = ProgramBuilder::new();
        let (acc, i) = (Reg::x(1), Reg::x(2));
        b.li(acc, 0);
        b.li(i, 0);
        let top = b.label();
        b.add(acc, acc, i);
        b.addi(i, i, 1);
        b.blt_imm(i, 100, top);
        b.halt();
        let p = b.build();
        let mut e = Emulator::new(&p);
        let t = e.run(10_000).unwrap();
        assert!(t.halted);
        assert_eq!(e.read_x(acc), 4950);
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::ZERO, 42);
        b.addi(Reg::x(1), Reg::ZERO, 7);
        b.halt();
        let p = b.build();
        let mut e = Emulator::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.read_x(Reg::ZERO), 0);
        assert_eq!(e.read_x(Reg::x(1)), 7);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_memory() {
        let mut b = ProgramBuilder::new();
        let arr = b.alloc_u64_slice(&[10, 20, 30]);
        let (base, v, i) = (Reg::x(1), Reg::x(2), Reg::x(3));
        b.li(base, arr as i64);
        b.li(i, 1);
        b.ld_idx(v, base, i, 8, 0, 8); // v = arr[1]
        b.addi(v, v, 5);
        b.st_idx(v, base, i, 8, 8, 8); // arr[2] = v
        b.halt();
        let p = b.build();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.memory().read_uint(arr + 16, 8), 25);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        let func = b.fwd_label();
        b.li(Reg::x(1), 3);
        b.call(func);
        b.halt();
        b.bind(func);
        b.muli(Reg::x(1), Reg::x(1), 7);
        b.ret();
        let p = b.build();
        let mut e = Emulator::new(&p);
        let t = e.run(100).unwrap();
        assert!(t.halted);
        assert_eq!(e.read_x(Reg::x(1)), 21);
        // the call and the return are both recorded as taken branches
        let takens: Vec<_> = t.records.iter().filter(|r| r.taken).collect();
        assert_eq!(takens.len(), 2);
    }

    #[test]
    fn divide_by_zero_faults_without_trapping() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::x(1), 10);
        b.li(Reg::x(2), 0);
        b.div(Reg::x(3), Reg::x(1), Reg::x(2));
        b.halt();
        let (_, t) = run_prog(b);
        assert!(t.records[2].fault);
        assert!(t.halted);
    }

    #[test]
    fn fsqrt_negative_faults() {
        let mut b = ProgramBuilder::new();
        b.fli(Reg::f(0), -4.0);
        b.fsqrt(Reg::f(1), Reg::f(0));
        b.halt();
        let (_, t) = run_prog(b);
        assert!(t.records[1].fault);
    }

    #[test]
    fn fp_and_simd_math() {
        let mut b = ProgramBuilder::new();
        let arr = b.alloc_f32_slice(&[1.0, 2.0, 3.0, 4.0]);
        b.li(Reg::x(1), arr as i64);
        b.vld(Reg::v(0), Reg::x(1), 0);
        b.vmul(Reg::v(1), Reg::v(0), Reg::v(0));
        b.vredsum(Reg::f(0), Reg::v(1)); // 1+4+9+16 = 30
        b.fsqrt(Reg::f(1), Reg::f(0));
        b.halt();
        let p = b.build();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.read_f(Reg::f(0)), 30.0);
        assert!((e.read_f(Reg::f(1)) - 30f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_precision_load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        let arr = b.alloc_f32_slice(&[1.5, -2.25]);
        b.li(Reg::x(1), arr as i64);
        b.flw(Reg::f(0), Reg::x(1), 4); // -2.25
        b.fadd(Reg::f(1), Reg::f(0), Reg::f(0));
        b.fsw(Reg::f(1), Reg::x(1), 0);
        b.halt();
        let p = b.build();
        let mut e = Emulator::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.read_f(Reg::f(0)), -2.25);
        let raw = e.memory().read_uint(arr, 4) as u32;
        assert_eq!(f32::from_bits(raw), -4.5);
    }

    #[test]
    fn fuel_exhaustion_is_normal_termination() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.addi(Reg::x(1), Reg::x(1), 1);
        b.j(top);
        let p = b.build();
        let mut e = Emulator::new(&p);
        let t = e.run(50).unwrap();
        assert!(!t.halted);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn branch_records_expose_taken_and_next() {
        let mut b = ProgramBuilder::new();
        let skip = b.fwd_label();
        b.li(Reg::x(1), 1);
        b.beq_imm(Reg::x(1), 0, skip); // not taken
        b.bne_imm(Reg::x(1), 0, skip); // taken
        b.li(Reg::x(2), 99); // skipped
        b.bind(skip);
        b.halt();
        let (_, t) = run_prog(b);
        assert!(!t.records[1].taken);
        assert_eq!(t.records[1].next_sidx, 2);
        assert!(t.records[2].taken);
        assert_eq!(t.records[2].next_sidx, 4);
    }

    #[test]
    fn indirect_jump_to_bad_target_errors() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::x(1), 3); // not a code address
        b.jr(Reg::x(1));
        let p = b.build();
        let mut e = Emulator::new(&p);
        assert!(matches!(e.run(100), Err(EmuError::BadJumpTarget { .. })));
    }

    #[test]
    fn trace_is_microarchitecture_independent_by_construction() {
        // Running the same program twice yields identical traces.
        let mk = || {
            let mut b = ProgramBuilder::new();
            let (acc, i) = (Reg::x(1), Reg::x(2));
            b.li(acc, 1);
            b.li(i, 0);
            let top = b.label();
            b.muli(acc, acc, 3);
            b.remi(acc, acc, 1000);
            b.addi(i, i, 1);
            b.blt_imm(i, 40, top);
            b.halt();
            b.build()
        };
        let (p1, p2) = (mk(), mk());
        let t1 = Emulator::new(&p1).run(10_000).unwrap();
        let t2 = Emulator::new(&p2).run(10_000).unwrap();
        assert_eq!(t1.records, t2.records);
    }
}
