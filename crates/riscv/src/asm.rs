//! A small RISC-V assembler.
//!
//! Supports the subset the classification kernels need: labels, `.text` /
//! `.data` sections, `.dword`/`.word`/`.byte`/`.zero`/`.align` data
//! directives, ABI register names, and the common pseudo-instructions
//! (`li`, `la`, `mv`, `not`, `neg`, `j`, `ret`, `nop`, `fmv.d`). `li` takes
//! a literal that fits in 32 bits; load wider constants from data with
//! `ld` and addresses with `la`.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::cpu::MEM_SIZE;
use crate::isa::{self, AluOp, BranchCond, FpCmp, FpOp, FpWidth, Inst, MemWidth};
use crate::{Result, RiscvError};

/// Default text base address.
pub const TEXT_BASE: u64 = 0x1000;

/// An assembled program image.
#[derive(Debug, Clone)]
pub struct Program {
    /// Encoded instruction words.
    pub text: Vec<u32>,
    /// Initialized data image.
    pub data: Vec<u8>,
    /// Address of the first instruction.
    pub text_base: u64,
    /// Address of the data image.
    pub data_base: u64,
    /// Resolved label addresses.
    pub labels: HashMap<String, u64>,
}

impl Program {
    /// Address of a label.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Total instruction count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

fn reg(name: &str, line: usize) -> Result<u8> {
    let name = name.trim().trim_end_matches(',');
    let abi = [
        ("zero", 0),
        ("ra", 1),
        ("sp", 2),
        ("gp", 3),
        ("tp", 4),
        ("t0", 5),
        ("t1", 6),
        ("t2", 7),
        ("s0", 8),
        ("fp", 8),
        ("s1", 9),
        ("a0", 10),
        ("a1", 11),
        ("a2", 12),
        ("a3", 13),
        ("a4", 14),
        ("a5", 15),
        ("a6", 16),
        ("a7", 17),
        ("s2", 18),
        ("s3", 19),
        ("s4", 20),
        ("s5", 21),
        ("s6", 22),
        ("s7", 23),
        ("s8", 24),
        ("s9", 25),
        ("s10", 26),
        ("s11", 27),
        ("t3", 28),
        ("t4", 29),
        ("t5", 30),
        ("t6", 31),
    ];
    for (n, v) in abi {
        if n == name {
            return Ok(v);
        }
    }
    if let Some(num) = name.strip_prefix('x').and_then(|s| s.parse::<u8>().ok()) {
        if num < 32 {
            return Ok(num);
        }
    }
    if let Some(num) = name.strip_prefix('f').and_then(|s| s.parse::<u8>().ok()) {
        // FP registers f0..f31 (also accept fa0.. style below).
        if num < 32 {
            return Ok(num);
        }
    }
    let fabi = [
        ("ft0", 0),
        ("ft1", 1),
        ("ft2", 2),
        ("ft3", 3),
        ("ft4", 4),
        ("ft5", 5),
        ("ft6", 6),
        ("ft7", 7),
        ("fs0", 8),
        ("fs1", 9),
        ("fa0", 10),
        ("fa1", 11),
        ("fa2", 12),
        ("fa3", 13),
        ("fa4", 14),
        ("fa5", 15),
        ("fa6", 16),
        ("fa7", 17),
    ];
    for (n, v) in fabi {
        if n == name {
            return Ok(v);
        }
    }
    Err(RiscvError::Asm {
        line,
        reason: format!("unknown register {name}"),
    })
}

/// Split an optional leading `-` off an immediate operand.
fn sign(tok: &str) -> (bool, &str) {
    let tok = tok.trim().trim_end_matches(',');
    match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    }
}

/// A hex (`0x…`) or decimal literal without its sign, as its magnitude.
/// Hex may use all 64 bits; decimal stops at `i64::MAX`.
fn unsigned_literal(body: &str) -> Option<u64> {
    if let Some(hex) = body.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else if body.bytes().all(|c| c.is_ascii_digit()) && !body.is_empty() {
        body.parse::<i64>().ok().map(i64::unsigned_abs)
    } else {
        None
    }
}

/// Apply a sign to a magnitude. A positive magnitude keeps its 64-bit
/// pattern (`0xffffffffffffffff` reads as −1); a negative one above 2⁶³,
/// the magnitude of `i64::MIN`, has no reading.
fn signed(neg: bool, magnitude: u64) -> Option<i64> {
    if neg {
        0i64.checked_sub_unsigned(magnitude)
    } else {
        Some(magnitude as i64)
    }
}

/// A signed literal, or `None` for anything else (a label, say, or a
/// negative literal below `i64::MIN`).
fn literal(tok: &str) -> Option<i64> {
    let (neg, body) = sign(tok);
    signed(neg, unsigned_literal(body)?)
}

fn parse_imm(tok: &str, labels: &HashMap<String, u64>, line: usize) -> Result<i64> {
    let (neg, body) = sign(tok);
    let tok = tok.trim().trim_end_matches(',');
    let magnitude = unsigned_literal(body).or_else(|| labels.get(body).copied());
    let magnitude = magnitude.ok_or_else(|| RiscvError::Asm {
        line,
        reason: format!("bad immediate or unknown label: {tok}"),
    })?;
    signed(neg, magnitude).ok_or_else(|| RiscvError::Asm {
        line,
        reason: format!("immediate {tok} is below i64::MIN"),
    })
}

/// `8(a0)` → (offset, base register).
fn parse_mem(tok: &str, labels: &HashMap<String, u64>, line: usize) -> Result<(i64, u8)> {
    let tok = tok.trim();
    let open = tok.find('(').ok_or_else(|| RiscvError::Asm {
        line,
        reason: format!("expected offset(reg), got {tok}"),
    })?;
    let close = tok.rfind(')').ok_or_else(|| RiscvError::Asm {
        line,
        reason: "missing closing paren".to_string(),
    })?;
    let off_str = &tok[..open];
    let offset = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str, labels, line)?
    };
    let base = reg(&tok[open + 1..close], line)?;
    Ok((offset, base))
}

/// One item of a source line, borrowed from the source text.
enum Line<'a> {
    Inst {
        mnemonic: Cow<'a, str>,
        args: Operands<'a>,
    },
    Label(&'a str),
    Directive {
        name: &'a str,
        args: Operands<'a>,
    },
}

/// Comma-separated operands, trimmed, with empty ones skipped.
struct Operands<'a>(std::str::Split<'a, char>);

impl<'a> Iterator for Operands<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.by_ref().map(str::trim).find(|s| !s.is_empty())
    }
}

/// The items of one source line: its leading labels, then its statement.
struct Items<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Items<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        if self.rest.is_empty() {
            return None;
        }
        if let Some(colon) = self.rest.find(':') {
            let (head, tail) = self.rest.split_at(colon);
            if !head.contains(char::is_whitespace) {
                self.rest = tail[1..].trim();
                return Some(Line::Label(head));
            }
        }
        let code = std::mem::take(&mut self.rest);
        let (head, args) = code.split_once(char::is_whitespace).unwrap_or((code, ""));
        let args = Operands(args.split(','));
        Some(match head.strip_prefix('.') {
            Some(name) => Line::Directive { name, args },
            None if head.contains(char::is_uppercase) => Line::Inst {
                mnemonic: Cow::Owned(head.to_lowercase()),
                args,
            },
            None => Line::Inst {
                mnemonic: Cow::Borrowed(head),
                args,
            },
        })
    }
}

fn tokenize_line(raw: &str) -> Items<'_> {
    // A comment starts at the first `#` or `;`. Cutting at a byte index is
    // safe: an ASCII byte never occurs inside a multi-byte UTF-8 character.
    let code = raw
        .bytes()
        .position(|b| b == b'#' || b == b';')
        .map_or(raw, |cut| &raw[..cut]);
    Items { rest: code.trim() }
}

/// The count operand of `.zero` (bytes) or `.align` (a power of two): a
/// decimal or `0x` hex literal, the literals `.dword` takes. A missing,
/// negative or non-literal count is an error, not a silent zero.
fn count_operand(name: &str, mut args: Operands<'_>, line: usize) -> Result<u64> {
    args.next()
        .and_then(unsigned_literal)
        .ok_or_else(|| RiscvError::Asm {
            line,
            reason: format!(".{name} needs a count: a decimal or 0x hex literal"),
        })
}

/// A `.byte` or `.word` operand that fits `bits` bits in its signed or its
/// unsigned reading (−2^(bits−1) ..= 2^bits − 1). A wider value is an
/// error, never a silent truncation.
fn sized_operand(
    name: &str,
    tok: &str,
    bits: u32,
    labels: &HashMap<String, u64>,
    line: usize,
) -> Result<i64> {
    let v = parse_imm(tok, labels, line)?;
    // A hex literal above i64::MAX reads back with the wrong sign.
    let wrapped = v != 0 && (v < 0) != sign(tok).0;
    if !wrapped && (-(1i64 << (bits - 1))..1i64 << bits).contains(&v) {
        Ok(v)
    } else {
        Err(RiscvError::Asm {
            line,
            reason: format!(".{name} value {v} does not fit in {bits} bits"),
        })
    }
}

/// Number of instruction words a (possibly pseudo) mnemonic expands to.
/// `li` takes only a literal that fits in 32 bits (anything else fails when
/// [`lower`] emits it, so its size here does not matter).
fn expansion_len(mnemonic: &str, mut args: Operands<'_>) -> usize {
    match mnemonic {
        "li" => match args.nth(1).and_then(literal) {
            Some(imm) if (-2048..2048).contains(&imm) => 1,
            _ => 2,
        },
        "la" => 2,
        _ => 1,
    }
}

/// Assemble source text into a [`Program`].
///
/// The source is streamed three times, each line split into items that
/// borrow from it: once to count text words (which places the data
/// segment), once to place the labels, and once to emit.
///
/// # Errors
///
/// [`RiscvError::Asm`] with the offending line and reason.
pub fn assemble(source: &str) -> Result<Program> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        Text,
        Data,
    }

    // Pass 1: the text size, which places the data segment (after text,
    // 64-byte aligned).
    let text_words: usize = source
        .lines()
        .flat_map(tokenize_line)
        .map(|item| match item {
            Line::Inst { mnemonic, args } => expansion_len(&mnemonic, args),
            _ => 0,
        })
        .sum();
    let data_base = (TEXT_BASE + 4 * text_words as u64 + 63) & !63;

    // Pass 2: label addresses. Data directives are sized with checked
    // arithmetic, and the data segment must end inside the ISS memory, so
    // the emit pass pads and fills no further than that.
    let mut labels: HashMap<String, u64> = HashMap::new();
    {
        let mut section = Section::Text;
        let mut tpc = TEXT_BASE;
        let mut dpc = data_base;
        for (lineno, raw) in source.lines().enumerate() {
            for item in tokenize_line(raw) {
                match item {
                    Line::Label(name) => {
                        let addr = if section == Section::Text { tpc } else { dpc };
                        labels.insert(name.to_string(), addr);
                    }
                    Line::Directive { name, args } => match name {
                        "text" => section = Section::Text,
                        "data" => section = Section::Data,
                        "dword" | "word" | "byte" | "zero" | "align" => {
                            let end = match name {
                                "dword" => dpc.checked_add(8 * args.count() as u64),
                                "word" => dpc.checked_add(4 * args.count() as u64),
                                "byte" => dpc.checked_add(args.count() as u64),
                                "zero" => dpc.checked_add(count_operand(name, args, lineno + 1)?),
                                _ => {
                                    let a = count_operand(name, args, lineno + 1)?;
                                    // `.align` pads only the data section.
                                    if section == Section::Text {
                                        Some(dpc)
                                    } else {
                                        u32::try_from(a)
                                            .ok()
                                            .and_then(|a| 1u64.checked_shl(a))
                                            .and_then(|m| dpc.checked_next_multiple_of(m))
                                    }
                                }
                            };
                            dpc = end.filter(|&end| end <= MEM_SIZE as u64).ok_or_else(|| {
                                RiscvError::Asm {
                                    line: lineno + 1,
                                    reason: format!(
                                        ".{name} places data past the {} MiB memory",
                                        MEM_SIZE >> 20
                                    ),
                                }
                            })?;
                        }
                        _ => {}
                    },
                    Line::Inst { mnemonic, args } => {
                        tpc += 4 * expansion_len(&mnemonic, args) as u64;
                    }
                }
            }
        }
    }

    // Pass 3: emit.
    let mut text: Vec<u32> = Vec::with_capacity(text_words);
    let mut data: Vec<u8> = Vec::new();
    let mut section = Section::Text;
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        for item in tokenize_line(raw) {
            match item {
                Line::Label(_) => {}
                Line::Directive { name, args } => match name {
                    "text" => section = Section::Text,
                    "data" => section = Section::Data,
                    "dword" => {
                        for a in args {
                            let v = parse_imm(a, &labels, line)?;
                            data.extend_from_slice(&(v as u64).to_le_bytes());
                        }
                    }
                    "word" => {
                        for a in args {
                            let v = sized_operand(name, a, 32, &labels, line)?;
                            data.extend_from_slice(&(v as u32).to_le_bytes());
                        }
                    }
                    "byte" => {
                        for a in args {
                            let v = sized_operand(name, a, 8, &labels, line)?;
                            data.push(v as u8);
                        }
                    }
                    "zero" => {
                        let n = count_operand(name, args, line)? as usize;
                        data.extend(std::iter::repeat_n(0u8, n));
                    }
                    "align" => {
                        let a = count_operand(name, args, line)?;
                        if section == Section::Data {
                            // The label pass checked that the shift fits.
                            let m = 1usize << a;
                            while !(data_base as usize + data.len()).is_multiple_of(m) {
                                data.push(0);
                            }
                        }
                    }
                    "global" | "globl" | "section" => {}
                    other => {
                        return Err(RiscvError::Asm {
                            line,
                            reason: format!("unknown directive .{other}"),
                        })
                    }
                },
                Line::Inst { mnemonic, args } => {
                    let pc_here = TEXT_BASE + 4 * text.len() as u64;
                    let (first, second) = lower(&mnemonic, args, pc_here, &labels, line)?;
                    text.push(isa::encode(&first));
                    if let Some(second) = second {
                        text.push(isa::encode(&second));
                    }
                }
            }
        }
    }

    Ok(Program {
        text,
        data,
        text_base: TEXT_BASE,
        data_base,
        labels,
    })
}

/// The one or two instructions a mnemonic lowers to: only `li` and `la`
/// may need a `lui` first.
type Lowered = (Inst, Option<Inst>);

fn single(inst: Inst) -> Result<Lowered> {
    Ok((inst, None))
}

/// Lower one (possibly pseudo) mnemonic into concrete instructions.
fn lower(
    mnemonic: &str,
    operands: Operands<'_>,
    pc: u64,
    labels: &HashMap<String, u64>,
    line: usize,
) -> Result<Lowered> {
    // No mnemonic takes more than three operands; `argc` counts them all.
    let mut args = [""; 3];
    let mut argc = 0;
    for op in operands {
        if let Some(slot) = args.get_mut(argc) {
            *slot = op;
        }
        argc += 1;
    }
    let err = |reason: String| RiscvError::Asm { line, reason };
    let need = |n: usize| -> Result<()> {
        if argc == n {
            Ok(())
        } else {
            Err(RiscvError::Asm {
                line,
                reason: format!("{mnemonic} expects {n} operands, got {argc}"),
            })
        }
    };
    let branch_target = |tok: &str| -> Result<i64> {
        let addr = parse_imm(tok, labels, line)?;
        Ok(addr - pc as i64)
    };

    let alu_imm = |op: AluOp| -> Result<Lowered> {
        need(3)?;
        single(Inst::OpImm {
            op,
            rd: reg(args[0], line)?,
            rs1: reg(args[1], line)?,
            imm: parse_imm(args[2], labels, line)?,
        })
    };
    let alu_reg = |op: AluOp| -> Result<Lowered> {
        need(3)?;
        single(Inst::Op {
            op,
            rd: reg(args[0], line)?,
            rs1: reg(args[1], line)?,
            rs2: reg(args[2], line)?,
        })
    };
    let branch = |cond: BranchCond| -> Result<Lowered> {
        need(3)?;
        single(Inst::Branch {
            cond,
            rs1: reg(args[0], line)?,
            rs2: reg(args[1], line)?,
            offset: branch_target(args[2])?,
        })
    };
    let load = |width: MemWidth| -> Result<Lowered> {
        need(2)?;
        let (offset, rs1) = parse_mem(args[1], labels, line)?;
        single(Inst::Load {
            width,
            rd: reg(args[0], line)?,
            rs1,
            offset,
        })
    };
    let store = |width: MemWidth| -> Result<Lowered> {
        need(2)?;
        let (offset, rs1) = parse_mem(args[1], labels, line)?;
        single(Inst::Store {
            width,
            rs2: reg(args[0], line)?,
            rs1,
            offset,
        })
    };
    let fp_arith = |op: FpOp, width: FpWidth| -> Result<Lowered> {
        need(3)?;
        single(Inst::FpArith {
            op,
            width,
            frd: reg(args[0], line)?,
            frs1: reg(args[1], line)?,
            frs2: reg(args[2], line)?,
        })
    };
    let fp_cmp = |cmp: FpCmp, width: FpWidth| -> Result<Lowered> {
        need(3)?;
        single(Inst::FpCompare {
            cmp,
            width,
            rd: reg(args[0], line)?,
            frs1: reg(args[1], line)?,
            frs2: reg(args[2], line)?,
        })
    };

    match mnemonic {
        "lui" => {
            need(2)?;
            single(Inst::Lui {
                rd: reg(args[0], line)?,
                imm: parse_imm(args[1], labels, line)? << 12,
            })
        }
        "auipc" => {
            need(2)?;
            single(Inst::Auipc {
                rd: reg(args[0], line)?,
                imm: parse_imm(args[1], labels, line)? << 12,
            })
        }
        "jal" => {
            if argc == 1 {
                single(Inst::Jal {
                    rd: 1,
                    offset: branch_target(args[0])?,
                })
            } else {
                need(2)?;
                single(Inst::Jal {
                    rd: reg(args[0], line)?,
                    offset: branch_target(args[1])?,
                })
            }
        }
        "jalr" => {
            need(2)?;
            let (offset, rs1) = parse_mem(args[1], labels, line)?;
            single(Inst::Jalr {
                rd: reg(args[0], line)?,
                rs1,
                offset,
            })
        }
        "j" => {
            need(1)?;
            single(Inst::Jal {
                rd: 0,
                offset: branch_target(args[0])?,
            })
        }
        "call" => {
            need(1)?;
            single(Inst::Jal {
                rd: 1,
                offset: branch_target(args[0])?,
            })
        }
        "ret" => single(Inst::Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }),
        "nop" => single(Inst::OpImm {
            op: AluOp::Add,
            rd: 0,
            rs1: 0,
            imm: 0,
        }),
        "beq" => branch(BranchCond::Eq),
        "bne" => branch(BranchCond::Ne),
        "blt" => branch(BranchCond::Lt),
        "bge" => branch(BranchCond::Ge),
        "bltu" => branch(BranchCond::Ltu),
        "bgeu" => branch(BranchCond::Geu),
        "beqz" => {
            need(2)?;
            single(Inst::Branch {
                cond: BranchCond::Eq,
                rs1: reg(args[0], line)?,
                rs2: 0,
                offset: branch_target(args[1])?,
            })
        }
        "bnez" => {
            need(2)?;
            single(Inst::Branch {
                cond: BranchCond::Ne,
                rs1: reg(args[0], line)?,
                rs2: 0,
                offset: branch_target(args[1])?,
            })
        }
        "lb" => load(MemWidth::B),
        "lh" => load(MemWidth::H),
        "lw" => load(MemWidth::W),
        "ld" => load(MemWidth::D),
        "lbu" => load(MemWidth::Bu),
        "lhu" => load(MemWidth::Hu),
        "lwu" => load(MemWidth::Wu),
        "sb" => store(MemWidth::B),
        "sh" => store(MemWidth::H),
        "sw" => store(MemWidth::W),
        "sd" => store(MemWidth::D),
        "addi" => alu_imm(AluOp::Add),
        "slti" => alu_imm(AluOp::Slt),
        "sltiu" => alu_imm(AluOp::Sltu),
        "xori" => alu_imm(AluOp::Xor),
        "ori" => alu_imm(AluOp::Or),
        "andi" => alu_imm(AluOp::And),
        "slli" => alu_imm(AluOp::Sll),
        "srli" => alu_imm(AluOp::Srl),
        "srai" => alu_imm(AluOp::Sra),
        "addiw" => {
            need(3)?;
            single(Inst::OpImmW {
                op: AluOp::Add,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: parse_imm(args[2], labels, line)?,
            })
        }
        "slliw" => {
            need(3)?;
            single(Inst::OpImmW {
                op: AluOp::Sll,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: parse_imm(args[2], labels, line)?,
            })
        }
        "srliw" => {
            need(3)?;
            single(Inst::OpImmW {
                op: AluOp::Srl,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: parse_imm(args[2], labels, line)?,
            })
        }
        "add" => alu_reg(AluOp::Add),
        "sub" => alu_reg(AluOp::Sub),
        "sll" => alu_reg(AluOp::Sll),
        "slt" => alu_reg(AluOp::Slt),
        "sltu" => alu_reg(AluOp::Sltu),
        "xor" => alu_reg(AluOp::Xor),
        "srl" => alu_reg(AluOp::Srl),
        "sra" => alu_reg(AluOp::Sra),
        "or" => alu_reg(AluOp::Or),
        "and" => alu_reg(AluOp::And),
        "mul" => alu_reg(AluOp::Mul),
        "mulh" => alu_reg(AluOp::Mulh),
        "mulhu" => alu_reg(AluOp::Mulhu),
        "div" => alu_reg(AluOp::Div),
        "divu" => alu_reg(AluOp::Divu),
        "rem" => alu_reg(AluOp::Rem),
        "remu" => alu_reg(AluOp::Remu),
        "cpop" => {
            need(2)?;
            single(Inst::Cpop {
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
            })
        }
        "mv" => {
            need(2)?;
            single(Inst::OpImm {
                op: AluOp::Add,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: 0,
            })
        }
        "not" => {
            need(2)?;
            single(Inst::OpImm {
                op: AluOp::Xor,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: -1,
            })
        }
        "neg" => {
            need(2)?;
            single(Inst::Op {
                op: AluOp::Sub,
                rd: reg(args[0], line)?,
                rs1: 0,
                rs2: reg(args[1], line)?,
            })
        }
        "seqz" => {
            need(2)?;
            single(Inst::OpImm {
                op: AluOp::Sltu,
                rd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
                imm: 1,
            })
        }
        "snez" => {
            need(2)?;
            single(Inst::Op {
                op: AluOp::Sltu,
                rd: reg(args[0], line)?,
                rs1: 0,
                rs2: reg(args[1], line)?,
            })
        }
        "li" => {
            need(2)?;
            let rd = reg(args[0], line)?;
            // `lui` + `addiw` reach exactly the values that fit in 32 bits.
            let imm = literal(args[1])
                .filter(|&v| i32::try_from(v).is_ok())
                .ok_or_else(|| {
                    err(format!(
                        "li takes a literal that fits in 32 bits, got {}",
                        args[1]
                    ))
                })?;
            if (-2048..2048).contains(&imm) {
                single(Inst::OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1: 0,
                    imm,
                })
            } else {
                let hi = (imm + 0x800) >> 12;
                let lo = imm - (hi << 12);
                let addiw = Inst::OpImmW {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                };
                Ok((Inst::Lui { rd, imm: hi << 12 }, Some(addiw)))
            }
        }
        "la" => {
            need(2)?;
            let rd = reg(args[0], line)?;
            let addr = parse_imm(args[1], labels, line)?;
            let hi = (addr + 0x800) >> 12;
            let lo = addr - (hi << 12);
            let addi = Inst::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm: lo,
            };
            Ok((Inst::Lui { rd, imm: hi << 12 }, Some(addi)))
        }
        "ecall" => single(Inst::Ecall),
        "fence" => single(Inst::Fence),
        "fld" => {
            need(2)?;
            let (offset, rs1) = parse_mem(args[1], labels, line)?;
            single(Inst::FLoad {
                width: FpWidth::D,
                frd: reg(args[0], line)?,
                rs1,
                offset,
            })
        }
        "flw" => {
            need(2)?;
            let (offset, rs1) = parse_mem(args[1], labels, line)?;
            single(Inst::FLoad {
                width: FpWidth::S,
                frd: reg(args[0], line)?,
                rs1,
                offset,
            })
        }
        "fsd" => {
            need(2)?;
            let (offset, rs1) = parse_mem(args[1], labels, line)?;
            single(Inst::FStore {
                width: FpWidth::D,
                frs2: reg(args[0], line)?,
                rs1,
                offset,
            })
        }
        "fadd.d" => fp_arith(FpOp::Add, FpWidth::D),
        "fsub.d" => fp_arith(FpOp::Sub, FpWidth::D),
        "fmul.d" => fp_arith(FpOp::Mul, FpWidth::D),
        "fdiv.d" => fp_arith(FpOp::Div, FpWidth::D),
        "fadd.s" => fp_arith(FpOp::Add, FpWidth::S),
        "fsub.s" => fp_arith(FpOp::Sub, FpWidth::S),
        "fmul.s" => fp_arith(FpOp::Mul, FpWidth::S),
        "feq.d" => fp_cmp(FpCmp::Eq, FpWidth::D),
        "flt.d" => fp_cmp(FpCmp::Lt, FpWidth::D),
        "fle.d" => fp_cmp(FpCmp::Le, FpWidth::D),
        "fmv.d" => {
            need(2)?;
            let frd = reg(args[0], line)?;
            let frs = reg(args[1], line)?;
            single(Inst::FSgnj {
                variant: 0,
                width: FpWidth::D,
                frd,
                frs1: frs,
                frs2: frs,
            })
        }
        "fcvt.w.d" => {
            need(2)?;
            single(Inst::FcvtWD {
                rd: reg(args[0], line)?,
                frs1: reg(args[1], line)?,
            })
        }
        "fcvt.l.d" => {
            need(2)?;
            single(Inst::FcvtLD {
                rd: reg(args[0], line)?,
                frs1: reg(args[1], line)?,
            })
        }
        "fcvt.d.w" => {
            need(2)?;
            single(Inst::FcvtDW {
                frd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
            })
        }
        "fcvt.d.l" => {
            need(2)?;
            single(Inst::FcvtDL {
                frd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
            })
        }
        "fmv.x.d" => {
            need(2)?;
            single(Inst::FmvXD {
                rd: reg(args[0], line)?,
                frs1: reg(args[1], line)?,
            })
        }
        "fmv.d.x" => {
            need(2)?;
            single(Inst::FmvDX {
                frd: reg(args[0], line)?,
                rs1: reg(args[1], line)?,
            })
        }
        other => Err(err(format!("unknown mnemonic {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_arithmetic() {
        let p = assemble("addi a0, zero, 5\nadd a1, a0, a0\necall").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn li_expands_based_on_magnitude() {
        let small = assemble("li a0, 100\necall").unwrap();
        assert_eq!(small.len(), 2);
        let big = assemble("li a0, 0x12345\necall").unwrap();
        assert_eq!(big.len(), 3);
    }

    fn asm_error_line(src: &str) -> usize {
        match assemble(src) {
            Err(RiscvError::Asm { line, .. }) => line,
            other => panic!("{src:?} must fail to assemble, got {other:?}"),
        }
    }

    #[test]
    fn align_of_64_bits_is_an_error() {
        assert_eq!(asm_error_line(".data\n.align 64\nx: .byte 1"), 2);
    }

    #[test]
    fn byte_and_word_reject_values_wider_than_their_width() {
        assert_eq!(asm_error_line(".data\nx: .byte 1\ny: .byte 300"), 3);
        assert_eq!(asm_error_line(".data\nx: .byte -129"), 2);
        assert_eq!(asm_error_line(".data\nx: .word 0x123456789"), 2);
        assert_eq!(asm_error_line(".data\n\nx: .word -2147483649"), 3);
        assert_eq!(asm_error_line(".data\nx: .byte 0xffffffffffffffff"), 2);
        assert_eq!(asm_error_line(".data\nx: .word -0xffffffffffffffff"), 2);
    }

    #[test]
    fn byte_and_word_take_the_signed_or_unsigned_reading() {
        let p = assemble(".data\nx: .byte -1, 255\ny: .word -1, 0xffffffff").unwrap();
        assert_eq!(p.data, vec![0xff; 10]);
        let p = assemble(".data\nx: .byte -128, 0\ny: .word -2147483648").unwrap();
        assert_eq!(p.data, vec![0x80, 0, 0, 0, 0, 0x80]);
    }

    #[test]
    fn negative_literals_stop_at_i64_min() {
        let p = assemble(".data\nx: .dword -0x8000000000000000, -9223372036854775807").unwrap();
        assert_eq!(&p.data[..8], &i64::MIN.to_le_bytes());
        assert_eq!(&p.data[8..], &(i64::MIN + 1).to_le_bytes());
        assert_eq!(asm_error_line(".data\n\nx: .dword -0x8000000000000001"), 3);
        assert_eq!(
            asm_error_line("addi a0, zero, 1\nli t0, -0x8000000000000000"),
            2
        );
        assert_eq!(asm_error_line("li t0, -0x8000000000000001"), 1);
        // Positive literals keep their 64-bit pattern.
        let p = assemble(".data\nx: .dword 0xffffffffffffffff, 0x8000000000000000").unwrap();
        assert_eq!(&p.data[..8], &(-1i64).to_le_bytes());
        assert_eq!(&p.data[8..], &i64::MIN.to_le_bytes());
    }

    #[test]
    fn zero_of_u64_max_is_an_error() {
        let src = ".data\nx: .zero 18446744073709551615\ny: .byte 1";
        assert_eq!(asm_error_line(src), 2);
    }

    #[test]
    fn data_may_end_at_the_top_of_memory_not_past_it() {
        let base = assemble(".data\nx: .byte 1").unwrap().data_base;
        let room = MEM_SIZE as u64 - base;
        let full = assemble(&format!(".data\nx: .zero {room}")).unwrap();
        assert_eq!(full.data.len() as u64, room);
        let past = assemble(&format!(".data\nx: .zero {}", room + 1));
        assert!(
            matches!(past, Err(RiscvError::Asm { line: 2, .. })),
            "{:?}",
            past.map(|p| p.data.len())
        );
    }

    #[test]
    fn zero_takes_a_hex_count() {
        let p = assemble(".data\nx: .zero 0x10\ny: .byte 1").unwrap();
        assert_eq!(p.label("y"), Some(p.data_base + 16));
        assert_eq!(p.data.len(), 17);
    }

    #[test]
    fn malformed_zero_and_align_counts_are_errors() {
        for bad in [".zero sixteen", ".zero -4", ".zero", ".align x", ".align"] {
            let src = format!(".data\nx: .byte 1\n{bad}\ny: .byte 2");
            assert_eq!(asm_error_line(&src), 3, "{bad}");
        }
        // In the text section too, where `.align` pads nothing.
        assert_eq!(asm_error_line("nop\n.align x\necall"), 2);
    }

    #[test]
    fn align_pads_data_to_its_boundary() {
        let p = assemble(".data\nx: .byte 1\n.align 3\ny: .byte 2").unwrap();
        assert_eq!(p.data, [1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(p.label("y"), Some(p.data_base + 8));
    }

    #[test]
    fn li_is_sized_like_it_is_emitted() {
        // `li` of -0x1000 takes lui+addi; the label after it must not land
        // one word early.
        let p = assemble("li a0, -0x1000\nla a1, after\necall\nafter: nop").unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.label("after"), Some(TEXT_BASE + 4 * 5));
    }

    #[test]
    fn li_rejects_labels_and_values_outside_i32() {
        assert_eq!(asm_error_line("nop\nli a0, after\nafter: ecall"), 2);
        assert_eq!(asm_error_line("li a0, 0x80000000"), 1);
        assert_eq!(asm_error_line("nop\nnop\nli a0, 0x123456789"), 3);
        assert_eq!(asm_error_line("li a0, -0x80000001"), 1);
    }

    #[test]
    fn li_loads_every_i32_edge_exactly() {
        for v in [
            0i64,
            2047,
            -2048,
            2048,
            -2049,
            -0x1000,
            0x7fff_f7ff,
            0x7fff_f800,
            0x7fff_ffff,
            -0x7fff_f800,
            -0x8000_0000,
        ] {
            let p = assemble(&format!("li a0, {v}\necall")).unwrap();
            let mut cpu = crate::cpu::Cpu::new();
            cpu.load_program(&p);
            cpu.run(10).unwrap();
            assert_eq!(cpu.x(10) as i64, v, "li a0, {v}");
        }
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(
            "start:
                addi a0, zero, 3
             loop:
                addi a0, a0, -1
                bnez a0, loop
                j done
                nop
             done:
                ecall",
        )
        .unwrap();
        assert!(p.label("loop").is_some());
        assert!(p.label("done").unwrap() > p.label("loop").unwrap());
    }

    #[test]
    fn data_section_layout() {
        let p = assemble(
            ".text
                la a0, table
                ld a1, 0(a0)
                ecall
             .data
             table:
                .dword 0x1122334455667788, 2
                .word 7
                .byte 1, 2, 3",
        )
        .unwrap();
        assert_eq!(p.data.len(), 8 + 8 + 4 + 3);
        let t = p.label("table").unwrap();
        assert_eq!(t, p.data_base);
        assert_eq!(&p.data[..8], &0x1122334455667788u64.to_le_bytes());
    }

    #[test]
    fn mem_operands_parse() {
        let p = assemble("ld a0, 16(sp)\nsd a0, -8(s0)\necall").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn unknown_mnemonic_errors_with_line() {
        let err = assemble("addi a0, zero, 1\nfrobnicate a0").unwrap_err();
        match err {
            RiscvError::Asm { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("frobnicate"));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn unknown_register_errors() {
        assert!(assemble("addi q7, zero, 1").is_err());
    }

    #[test]
    fn fp_mnemonics_assemble() {
        let p = assemble(
            "fld fa0, 0(a0)
             fld fa1, 8(a0)
             fsub.d fa2, fa0, fa1
             fmul.d fa2, fa2, fa2
             flt.d t0, fa2, fa1
             fcvt.w.d t1, fa2
             ecall",
        )
        .unwrap();
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn comments_are_ignored() {
        let p = assemble("# header\naddi a0, zero, 1 # trailing\n; alt comment\necall").unwrap();
        assert_eq!(p.len(), 2);
    }
}
