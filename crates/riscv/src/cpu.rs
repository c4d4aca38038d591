//! Architectural state and functional execution.

use crate::asm::Program;
use crate::isa::{decode, AluOp, BranchCond, FpCmp, FpOp, Inst, MemWidth};
use crate::{Result, RiscvError};

/// Default memory image size (16 MiB — enough for kernels + data tables).
pub const MEM_SIZE: usize = 16 * 1024 * 1024;

/// Functional RV64IMFD hart with a flat little-endian memory.
///
/// [`Cpu::load_program`] decodes the text segment once; execution reads
/// the decoded instructions, and only a pc outside the text segment (or
/// not word-aligned) decodes from memory. Program stores into the text
/// segment fault, so the decoded text stays valid; [`Cpu::write_mem`]
/// re-decodes the words it overwrites.
pub struct Cpu {
    x: [u64; 32],
    f: [u64; 32],
    pc: u64,
    mem: Vec<u8>,
    /// Address of the text segment.
    text_base: u64,
    /// The text segment decoded: entry `i` is the instruction at
    /// `text_base + 4 i`, `None` where the word does not decode.
    text: Vec<Option<Inst>>,
    /// Retired instruction count.
    pub instret: u64,
    /// Set once `ecall` retires.
    pub halted: bool,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &self.pc)
            .field("instret", &self.instret)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Fresh hart with zeroed state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            x: [0; 32],
            f: [0; 32],
            pc: 0,
            mem: vec![0; MEM_SIZE],
            text_base: 0,
            text: Vec::new(),
            instret: 0,
            halted: false,
        }
    }

    /// Integer register read (x0 reads 0).
    #[must_use]
    pub fn x(&self, r: usize) -> u64 {
        if r == 0 {
            0
        } else {
            self.x[r]
        }
    }

    /// Integer register write (x0 ignored).
    pub fn set_x(&mut self, r: usize, v: u64) {
        if r != 0 {
            self.x[r] = v;
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Load a program image, decode its text segment and point the PC at
    /// its entry.
    pub fn load_program(&mut self, program: &Program) {
        for (i, word) in program.text.iter().enumerate() {
            let addr = program.text_base as usize + 4 * i;
            self.mem[addr..addr + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.text_base = program.text_base;
        self.text = program.text.iter().map(|&word| decode(word)).collect();
        let d = program.data_base as usize;
        self.mem[d..d + program.data.len()].copy_from_slice(&program.data);
        self.pc = program.text_base;
        self.halted = false;
        self.instret = 0;
        // Stack at the top of memory.
        self.x[2] = (MEM_SIZE - 64) as u64;
    }

    /// Raw memory read (for result inspection).
    ///
    /// # Errors
    ///
    /// [`RiscvError::MemoryFault`] when out of range.
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<&[u8]> {
        mem_range(addr, len)
            .and_then(|r| self.mem.get(r))
            .ok_or(RiscvError::MemoryFault {
                addr,
                what: "oob read",
            })
    }

    /// Raw memory write (for preparing inputs). Words of the text segment
    /// it overlaps are decoded again.
    ///
    /// # Errors
    ///
    /// [`RiscvError::MemoryFault`] when out of range.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let dst = mem_range(addr, bytes.len())
            .and_then(|r| self.mem.get_mut(r))
            .ok_or(RiscvError::MemoryFault {
                addr,
                what: "oob write",
            })?;
        dst.copy_from_slice(bytes);
        let end = addr + bytes.len() as u64;
        let first = addr.saturating_sub(self.text_base) / 4;
        let last = end.saturating_sub(self.text_base).div_ceil(4);
        for i in first..last.min(self.text.len() as u64) {
            let word = u32::from_le_bytes(self.load(self.text_base + 4 * i)?);
            self.text[i as usize] = decode(word);
        }
        Ok(())
    }

    /// The `N` bytes at `addr`.
    fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N]> {
        mem_range(addr, N)
            .and_then(|r| self.mem.get(r))
            .and_then(|s| s.try_into().ok())
            .ok_or(RiscvError::MemoryFault { addr, what: "load" })
    }

    /// A program store of `bytes` at `addr`. Stores that reach into the
    /// text segment fault: kernels never modify their own code.
    fn store(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let text_end = self.text_base + 4 * self.text.len() as u64;
        if addr < text_end && addr.saturating_add(bytes.len() as u64) > self.text_base {
            return Err(RiscvError::MemoryFault {
                addr,
                what: "store into text",
            });
        }
        mem_range(addr, bytes.len())
            .and_then(|r| self.mem.get_mut(r))
            .ok_or(RiscvError::MemoryFault {
                addr,
                what: "store",
            })?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// The instruction at the pc: from the decoded text segment, or decoded
    /// from memory when the pc lies outside it or is not word-aligned.
    ///
    /// # Errors
    ///
    /// Illegal-instruction and memory faults.
    pub(crate) fn fetch(&self) -> Result<Inst> {
        let pc = self.pc;
        if let Some(&Some(inst)) = self.text.get(text_index(pc, self.text_base)) {
            return Ok(inst);
        }
        let word = u32::from_le_bytes(self.load(pc)?);
        decode(word).ok_or(RiscvError::IllegalInstruction { pc, word })
    }

    /// The text segment's address and its decoded words.
    pub(crate) fn text(&self) -> (u64, &[Option<Inst>]) {
        (self.text_base, &self.text)
    }

    /// Fetch, decode, and execute one instruction. Returns the decoded
    /// instruction and, for memory operations, the effective address.
    ///
    /// # Errors
    ///
    /// Illegal-instruction and memory faults.
    pub fn step(&mut self) -> Result<(Inst, Option<u64>)> {
        let inst = self.fetch()?;
        Ok((inst, self.execute(inst)?))
    }

    /// Execute `inst` as the instruction at the pc. Returns the effective
    /// address of a memory operation.
    ///
    /// # Errors
    ///
    /// Memory faults.
    pub(crate) fn execute(&mut self, inst: Inst) -> Result<Option<u64>> {
        let mut next_pc = self.pc.wrapping_add(4);
        let mut mem_addr = None;
        match inst {
            Inst::Lui { rd, imm } => self.set_x(rd as usize, imm as u64),
            Inst::Auipc { rd, imm } => self.set_x(rd as usize, self.pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                self.set_x(rd as usize, next_pc);
                next_pc = self.pc.wrapping_add(offset as u64);
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.x(rs1 as usize).wrapping_add(offset as u64) & !1;
                self.set_x(rd as usize, next_pc);
                next_pc = target;
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.x(rs1 as usize);
                let b = self.x(rs2 as usize);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i64) < (b as i64),
                    BranchCond::Ge => (a as i64) >= (b as i64),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = self.pc.wrapping_add(offset as u64);
                }
            }
            Inst::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.x(rs1 as usize).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let v = match width {
                    MemWidth::B => i64::from(i8::from_le_bytes(self.load(addr)?)) as u64,
                    MemWidth::H => i64::from(i16::from_le_bytes(self.load(addr)?)) as u64,
                    MemWidth::W => i64::from(i32::from_le_bytes(self.load(addr)?)) as u64,
                    MemWidth::D => u64::from_le_bytes(self.load(addr)?),
                    MemWidth::Bu => u64::from(u8::from_le_bytes(self.load(addr)?)),
                    MemWidth::Hu => u64::from(u16::from_le_bytes(self.load(addr)?)),
                    MemWidth::Wu => u64::from(u32::from_le_bytes(self.load(addr)?)),
                };
                self.set_x(rd as usize, v);
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.x(rs1 as usize).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                let bytes = self.x(rs2 as usize).to_le_bytes();
                self.store(addr, &bytes[..width.bytes() as usize])?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let a = self.x(rs1 as usize);
                let v = alu64(op, a, imm as u64);
                self.set_x(rd as usize, v);
            }
            Inst::OpImmW { op, rd, rs1, imm } => {
                let a = self.x(rs1 as usize);
                let v = alu32(op, a, imm as u64);
                self.set_x(rd as usize, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = alu64(op, self.x(rs1 as usize), self.x(rs2 as usize));
                self.set_x(rd as usize, v);
            }
            Inst::OpW { op, rd, rs1, rs2 } => {
                let v = alu32(op, self.x(rs1 as usize), self.x(rs2 as usize));
                self.set_x(rd as usize, v);
            }
            Inst::Cpop { rd, rs1 } => {
                self.set_x(rd as usize, u64::from(self.x(rs1 as usize).count_ones()));
            }
            Inst::Ecall => {
                self.halted = true;
            }
            Inst::Fence => {}
            Inst::FLoad {
                width: _,
                frd,
                rs1,
                offset,
            } => {
                let addr = self.x(rs1 as usize).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.f[frd as usize] = u64::from_le_bytes(self.load(addr)?);
            }
            Inst::FStore {
                width: _,
                frs2,
                rs1,
                offset,
            } => {
                let addr = self.x(rs1 as usize).wrapping_add(offset as u64);
                mem_addr = Some(addr);
                self.store(addr, &self.f[frs2 as usize].to_le_bytes())?;
            }
            Inst::FpArith {
                op,
                width: _,
                frd,
                frs1,
                frs2,
            } => {
                let a = f64::from_bits(self.f[frs1 as usize]);
                let b = f64::from_bits(self.f[frs2 as usize]);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                };
                self.f[frd as usize] = v.to_bits();
            }
            Inst::FpCompare {
                cmp,
                width: _,
                rd,
                frs1,
                frs2,
            } => {
                let a = f64::from_bits(self.f[frs1 as usize]);
                let b = f64::from_bits(self.f[frs2 as usize]);
                let v = match cmp {
                    FpCmp::Eq => a == b,
                    FpCmp::Lt => a < b,
                    FpCmp::Le => a <= b,
                };
                self.set_x(rd as usize, u64::from(v));
            }
            Inst::FSgnj {
                variant,
                width: _,
                frd,
                frs1,
                frs2,
            } => {
                let a = self.f[frs1 as usize];
                let b = self.f[frs2 as usize];
                let sign = 1u64 << 63;
                let v = match variant {
                    0 => (a & !sign) | (b & sign),
                    1 => (a & !sign) | (!b & sign),
                    _ => a ^ (b & sign),
                };
                self.f[frd as usize] = v;
            }
            Inst::FcvtWD { rd, frs1 } => {
                let a = f64::from_bits(self.f[frs1 as usize]);
                self.set_x(rd as usize, i64::from(a as i32) as u64);
            }
            Inst::FcvtLD { rd, frs1 } => {
                let a = f64::from_bits(self.f[frs1 as usize]);
                self.set_x(rd as usize, (a as i64) as u64);
            }
            Inst::FcvtDW { frd, rs1 } => {
                let v = self.x(rs1 as usize) as u32 as i32;
                self.f[frd as usize] = f64::from(v).to_bits();
            }
            Inst::FcvtDL { frd, rs1 } => {
                let v = self.x(rs1 as usize) as i64;
                self.f[frd as usize] = (v as f64).to_bits();
            }
            Inst::FmvXD { rd, frs1 } => self.set_x(rd as usize, self.f[frs1 as usize]),
            Inst::FmvDX { frd, rs1 } => self.f[frd as usize] = self.x(rs1 as usize),
        }
        self.pc = next_pc;
        self.instret += 1;
        Ok(mem_addr)
    }

    /// Run until `ecall` or the instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`RiscvError::Timeout`] plus any execution fault.
    pub fn run(&mut self, max_insts: u64) -> Result<u64> {
        let start = self.instret;
        while !self.halted {
            if self.instret - start >= max_insts {
                return Err(RiscvError::Timeout {
                    executed: self.instret - start,
                });
            }
            self.step()?;
        }
        Ok(self.instret - start)
    }
}

/// The byte range of an `len`-byte access at `addr`, if it does not wrap.
fn mem_range(addr: u64, len: usize) -> Option<std::ops::Range<usize>> {
    let start = usize::try_from(addr).ok()?;
    Some(start..start.checked_add(len)?)
}

/// Index of `pc` in a text segment at `base`. Rotating the offset's two low
/// bits to the top sends a pc below `base` or not word-aligned far past any
/// text segment, so one bounds check covers all three cases.
pub(crate) fn text_index(pc: u64, base: u64) -> usize {
    usize::try_from(pc.wrapping_sub(base).rotate_right(2)).unwrap_or(usize::MAX)
}

fn alu64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 63),
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        AluOp::Mulhu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

fn alu32(op: AluOp, a: u64, b: u64) -> u64 {
    let a32 = a as u32;
    let b32 = b as u32;
    let v = match op {
        AluOp::Add => a32.wrapping_add(b32),
        AluOp::Sub => a32.wrapping_sub(b32),
        AluOp::Sll => a32 << (b32 & 31),
        AluOp::Srl => a32 >> (b32 & 31),
        AluOp::Sra => ((a32 as i32) >> (b32 & 31)) as u32,
        AluOp::Mul => a32.wrapping_mul(b32),
        AluOp::Div => {
            if b32 == 0 {
                u32::MAX
            } else {
                ((a32 as i32).wrapping_div(b32 as i32)) as u32
            }
        }
        AluOp::Rem => {
            if b32 == 0 {
                a32
            } else {
                ((a32 as i32).wrapping_rem(b32 as i32)) as u32
            }
        }
        _ => unreachable!("not a W op"),
    };
    i64::from(v as i32) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Cpu {
        let p = assemble(src).unwrap();
        let mut cpu = Cpu::new();
        cpu.load_program(&p);
        cpu.run(100_000).unwrap();
        cpu
    }

    #[test]
    fn arithmetic_basics() {
        let cpu = run("li a0, 20\nli a1, 22\nadd a2, a0, a1\nsub a3, a0, a1\necall");
        assert_eq!(cpu.x(12), 42);
        assert_eq!(cpu.x(13) as i64, -2);
    }

    #[test]
    fn loops_and_branches() {
        // Sum 1..=10 = 55.
        let cpu = run("li a0, 0
             li a1, 10
            loop:
             add a0, a0, a1
             addi a1, a1, -1
             bnez a1, loop
             ecall");
        assert_eq!(cpu.x(10), 55);
    }

    #[test]
    fn memory_round_trip() {
        let cpu = run(".text
             la a0, buf
             li a1, 0x1234
             sd a1, 0(a0)
             ld a2, 0(a0)
             lw a3, 0(a0)
             lb a4, 1(a0)
             ecall
             .data
             buf: .zero 16");
        assert_eq!(cpu.x(12), 0x1234);
        assert_eq!(cpu.x(13), 0x1234);
        assert_eq!(cpu.x(14), 0x12);
    }

    #[test]
    fn mul_div_rem() {
        let cpu = run("li a0, 7\nli a1, -3\nmul a2, a0, a1\ndiv a3, a2, a0\nrem a4, a0, a1\necall");
        assert_eq!(cpu.x(12) as i64, -21);
        assert_eq!(cpu.x(13) as i64, -3);
        assert_eq!(cpu.x(14) as i64, 1);
    }

    #[test]
    fn shifts_sign_correctly() {
        let cpu = run("li a0, -16\nsrai a1, a0, 2\nsrli a2, a0, 60\nslli a3, a0, 1\necall");
        assert_eq!(cpu.x(11) as i64, -4);
        assert_eq!(cpu.x(12), 15);
        assert_eq!(cpu.x(13) as i64, -32);
    }

    #[test]
    fn floating_point_distance_kernel() {
        // d = (x1-x2)^2 + (y1-y2)^2 with (3,4) vs (0,0) -> 25.0
        let cpu = run(".text
             la a0, pts
             fld fa0, 0(a0)
             fld fa1, 8(a0)
             fld fa2, 16(a0)
             fld fa3, 24(a0)
             fsub.d fa4, fa0, fa2
             fsub.d fa5, fa1, fa3
             fmul.d fa4, fa4, fa4
             fmul.d fa5, fa5, fa5
             fadd.d fa6, fa4, fa5
             fsd fa6, 32(a0)
             ld a1, 32(a0)
             ecall
             .data
             pts: .dword 0x4008000000000000, 0x4010000000000000, 0, 0, 0");
        assert_eq!(f64::from_bits(cpu.x(11)), 25.0);
    }

    #[test]
    fn fp_compare_sets_flags() {
        let cpu = run(
            ".text
             la a0, vals
             fld fa0, 0(a0)
             fld fa1, 8(a0)
             flt.d t0, fa0, fa1
             flt.d t1, fa1, fa0
             fle.d t2, fa0, fa0
             ecall
             .data
             vals: .dword 0x3ff0000000000000, 0x4000000000000000", // 1.0, 2.0
        );
        assert_eq!(cpu.x(5), 1);
        assert_eq!(cpu.x(6), 0);
        assert_eq!(cpu.x(7), 1);
    }

    #[test]
    fn fcvt_round_trips() {
        let cpu = run("li a0, -37
             fcvt.d.l fa0, a0
             fcvt.l.d a1, fa0
             ecall");
        assert_eq!(cpu.x(11) as i64, -37);
    }

    #[test]
    fn cpop_counts_bits() {
        let cpu = run("li a0, 0xFF\nslli a0, a0, 8\nori a0, a0, 0xF\ncpop a1, a0\necall");
        assert_eq!(cpu.x(11), 12);
    }

    #[test]
    fn x0_is_hardwired() {
        let cpu = run("li t0, 5\nadd zero, t0, t0\nmv a0, zero\necall");
        assert_eq!(cpu.x(10), 0);
    }

    #[test]
    fn timeout_detected() {
        let p = assemble("loop: j loop").unwrap();
        let mut cpu = Cpu::new();
        cpu.load_program(&p);
        assert!(matches!(cpu.run(100), Err(RiscvError::Timeout { .. })));
    }

    #[test]
    fn w_ops_sign_extend_results() {
        let cpu = run("li a0, 0x7fffffff
             addiw a1, a0, 1      # overflows 32-bit -> negative
             li a2, 1
             slliw a3, a2, 31     # 1 << 31 -> i32 min, sign-extended
             srliw a4, a3, 31     # logical shift back -> 1
             ecall");
        assert_eq!(cpu.x(11) as i64, -2147483648);
        assert_eq!(cpu.x(13) as i64, -2147483648);
        assert_eq!(cpu.x(14), 1);
    }

    #[test]
    fn unsigned_loads_zero_extend() {
        let cpu = run(".text
             la a0, buf
             lbu a1, 0(a0)
             lhu a2, 0(a0)
             lwu a3, 0(a0)
             lb a4, 0(a0)
             ecall
             .data
             buf: .dword 0xfffffffffffffffe");
        assert_eq!(cpu.x(11), 0xfe);
        assert_eq!(cpu.x(12), 0xfffe);
        assert_eq!(cpu.x(13), 0xffff_fffe);
        assert_eq!(cpu.x(14) as i64, -2);
    }

    #[test]
    fn division_by_zero_follows_riscv_semantics() {
        // RISC-V: div by zero returns all-ones (quotient) and the dividend
        // (remainder); no trap.
        let cpu = run("li a0, 42
             li a1, 0
             div a2, a0, a1
             divu a3, a0, a1
             rem a4, a0, a1
             remu a5, a0, a1
             ecall");
        assert_eq!(cpu.x(12), u64::MAX);
        assert_eq!(cpu.x(13), u64::MAX);
        assert_eq!(cpu.x(14), 42);
        assert_eq!(cpu.x(15), 42);
    }

    #[test]
    fn mulh_variants() {
        let cpu = run("li a0, -1
             li a1, 2
             mulh a2, a0, a1      # (-1 * 2) >> 64 = -1
             mulhu a3, a0, a1     # (2^64-1)*2 >> 64 = 1
             ecall");
        assert_eq!(cpu.x(12), u64::MAX);
        assert_eq!(cpu.x(13), 1);
    }

    #[test]
    fn slt_and_sltu_disagree_on_negative() {
        let cpu = run("li a0, -1
             li a1, 1
             slt a2, a0, a1
             sltu a3, a0, a1
             ecall");
        assert_eq!(cpu.x(12), 1, "-1 < 1 signed");
        assert_eq!(cpu.x(13), 0, "u64::MAX > 1 unsigned");
    }

    #[test]
    fn auipc_is_pc_relative() {
        let cpu = run("auipc a0, 1
ecall"); // pc 0x1000 + 0x1000
        assert_eq!(cpu.x(10), 0x2000);
    }

    #[test]
    fn program_store_into_text_faults() {
        for store in ["sw zero, 0(a0)", "sd zero, -4(a0)", "sb zero, 11(a0)"] {
            let p = assemble(&format!("start:\nla a0, start\n{store}\necall")).unwrap();
            let mut cpu = Cpu::new();
            cpu.load_program(&p);
            let err = cpu.run(100).unwrap_err();
            assert!(
                matches!(
                    err,
                    RiscvError::MemoryFault {
                        what: "store into text",
                        ..
                    }
                ),
                "{store}: {err}"
            );
        }
        // The word just past the text segment is data, not code.
        let cpu = run("la a0, end\nsw zero, 0(a0)\necall\nend:");
        assert!(cpu.halted);
    }

    #[test]
    fn addresses_that_wrap_fault() {
        let p = assemble("li a0, -8\nld a1, 0(a0)\necall").unwrap();
        let mut cpu = Cpu::new();
        cpu.load_program(&p);
        assert!(matches!(
            cpu.run(10),
            Err(RiscvError::MemoryFault { what: "load", .. })
        ));
        assert!(cpu.read_mem(u64::MAX - 3, 8).is_err());
        assert!(cpu.write_mem(u64::MAX - 3, &[0; 8]).is_err());
    }

    #[test]
    fn write_mem_redecodes_the_text_it_overwrites() {
        let p = assemble("nop\necall").unwrap();
        let mut cpu = Cpu::new();
        cpu.load_program(&p);
        cpu.write_mem(0x1000, &0xffff_ffffu32.to_le_bytes())
            .unwrap();
        assert!(matches!(
            cpu.run(10),
            Err(RiscvError::IllegalInstruction { pc: 0x1000, .. })
        ));
        // A valid instruction over the illegal one, in two halves that each
        // cover part of the word.
        let addi = crate::isa::encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: 10,
            rs1: 0,
            imm: 7,
        })
        .to_le_bytes();
        cpu.write_mem(0x0ffe, &[0, 0, addi[0]]).unwrap();
        cpu.write_mem(0x1001, &addi[1..]).unwrap();
        cpu.run(10).unwrap();
        assert_eq!(cpu.x(10), 7);
    }

    #[test]
    fn code_outside_the_text_segment_executes() {
        let word = |inst: Inst| crate::isa::encode(&inst);
        let addi = word(Inst::OpImm {
            op: AluOp::Add,
            rd: 10,
            rs1: 0,
            imm: 42,
        });
        let ret = word(Inst::Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        });
        let cpu = run(&format!(
            ".text
             la t0, stub
             jalr ra, 0(t0)
             addi a0, a0, 1
             ecall
             .data
             stub: .word {addi}, {ret}"
        ));
        assert_eq!(cpu.x(10), 43);
    }

    #[test]
    fn jal_and_ret() {
        let cpu = run("main:
                li a0, 1
                call fn1
                addi a0, a0, 100
                ecall
             fn1:
                addi a0, a0, 10
                ret");
        assert_eq!(cpu.x(10), 111);
    }
}
