//! The paper's classification workloads as RISC-V assembly generators.
//!
//! Two classifiers (Sec. V-B), written the way a C compiler would lower
//! them for RV64IMFD:
//!
//! - **kNN** ([`knn_source`]): per measurement, squared Euclidean distances
//!   to the qubit's two calibration centers, compared without the square
//!   root (the paper's radicand optimization).
//! - **HDC** ([`hdc_source`]): thermometer quantization into item
//!   hypervectors (128 bit), XOR binding, and Hamming distances to the two
//!   class hypervectors via the **software** SWAR popcount — base RISC-V
//!   has no popcount instruction, which the paper identifies as the HDC
//!   bottleneck. With `use_cpop` the `Zbb cpop` instruction replaces the
//!   SWAR sequence (the paper's "hardware support" what-if).
//! - **Dhrystone-like** ([`dhrystone_source`]): the integer mix used as the
//!   "general average" workload for the power analysis.
//!
//! Results land in the `out` byte array (label `out`), one label per
//! measurement.

use std::fmt::Write as _;

/// Number of quantization levels per I/Q axis (32 item hypervectors total,
/// as in the paper).
pub const HDC_LEVELS: usize = 16;

/// Bytes of one `.dword` data row of two and of four words, as [`row2`]
/// and [`row4`] write them.
const ROW2: usize = "    .dword 0x0123456789abcdef, 0x0123456789abcdef\n".len();
const ROW4: usize = ROW2 + ", 0x0123456789abcdef, 0x0123456789abcdef".len();
/// Room for the data labels and the `.zero` line after the rows.
const LABELS: usize = 128;

/// Append one `.dword` row of two words.
fn row2(s: &mut String, a: u64, b: u64) {
    let _ = writeln!(s, "    .dword 0x{a:016x}, 0x{b:016x}");
}

/// Append one `.dword` row of four words.
fn row4(s: &mut String, [a, b, c, d]: [u64; 4]) {
    let _ = writeln!(
        s,
        "    .dword 0x{a:016x}, 0x{b:016x}, 0x{c:016x}, 0x{d:016x}"
    );
}

/// Append the `meas` table (each point's I and Q bits) and the `out`
/// array of one label byte per measurement.
fn meas_and_out(s: &mut String, meas: &[(f64, f64)]) {
    s.push_str("meas:\n");
    for (x, y) in meas {
        row2(s, x.to_bits(), y.to_bits());
    }
    let _ = writeln!(s, "out:\n    .zero {}", meas.len());
}

/// Generate the kNN classification program.
///
/// `centers[i] = [xc0, yc0, xc1, yc1]` per qubit; `meas[i] = (xm, ym)` is
/// the measurement to classify against qubit `i`'s centers.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn knn_source(centers: &[[f64; 4]], meas: &[(f64, f64)]) -> String {
    knn_source_rounds(centers, meas, 1)
}

/// [`knn_source`] with an outer repetition loop: the classification pass
/// runs `rounds` times, so steady-state (warm-cache) cycles per
/// classification can be measured as the marginal cost of extra rounds —
/// matching the paper's "average clock cycles" methodology.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty, or `rounds == 0`.
#[must_use]
pub fn knn_source_rounds(centers: &[[f64; 4]], meas: &[(f64, f64)], rounds: u64) -> String {
    assert_eq!(centers.len(), meas.len(), "one measurement per qubit");
    assert!(!centers.is_empty(), "need at least one qubit");
    assert!(rounds > 0, "at least one round");
    let n = centers.len();
    let mut s = format!(
        ".text
    li s0, {rounds}
knn_round:
    la a0, cal
    la a1, meas
    la a2, out
    li a3, {n}
knn_loop:
    fld fa0, 0(a1)        # xm
    fld fa1, 8(a1)        # ym
    fld fa2, 0(a0)        # xc0
    fld fa3, 8(a0)        # yc0
    fld fa4, 16(a0)       # xc1
    fld fa5, 24(a0)       # yc1
    fsub.d fa6, fa0, fa2
    fsub.d fa7, fa1, fa3
    fmul.d fa6, fa6, fa6
    fmul.d fa7, fa7, fa7
    fadd.d fa6, fa6, fa7  # d0 (radicand; sqrt elided)
    fsub.d ft0, fa0, fa4
    fsub.d ft1, fa1, fa5
    fmul.d ft0, ft0, ft0
    fmul.d ft1, ft1, ft1
    fadd.d ft0, ft0, ft1  # d1
    flt.d t0, ft0, fa6    # label = (d1 < d0)
    sb t0, 0(a2)
    addi a0, a0, 32
    addi a1, a1, 16
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, knn_loop
    addi s0, s0, -1
    bnez s0, knn_round
    ecall
.data
cal:
"
    );
    s.reserve(n * (ROW4 + ROW2) + LABELS);
    for c in centers {
        row4(&mut s, c.map(f64::to_bits));
    }
    meas_and_out(&mut s, meas);
    s
}

/// The SWAR software popcount of register `a4` into `a4`, clobbering `t5`.
/// Mask registers `s2..s5` must be preloaded.
fn swar_popcount() -> &'static str {
    "    srli t5, a4, 1
    and t5, t5, s2
    sub a4, a4, t5
    and t5, a4, s3
    srli a4, a4, 2
    and a4, a4, s3
    add a4, t5, a4
    srli t5, a4, 4
    add a4, a4, t5
    and a4, a4, s4
    mul a4, a4, s5
    srli a4, a4, 56
"
}

/// Generate the HDC classification program.
///
/// - `items_x`/`items_y`: `HDC_LEVELS` 128-bit item hypervectors each, as
///   `[lo, hi]` word pairs.
/// - `centers[i] = [c0_lo, c0_hi, c1_lo, c1_hi]` per qubit.
/// - `meas[i]` is classified against qubit `i`.
/// - `qmin`/`qscale` quantize a coordinate: `level = (v - qmin) * qscale`,
///   clamped to `0..HDC_LEVELS`.
/// - `use_cpop` replaces the software popcount with the `Zbb` instruction.
///
/// # Panics
///
/// Panics on inconsistent table sizes.
#[must_use]
pub fn hdc_source(
    items_x: &[[u64; 2]],
    items_y: &[[u64; 2]],
    centers: &[[u64; 4]],
    meas: &[(f64, f64)],
    qmin: f64,
    qscale: f64,
    use_cpop: bool,
) -> String {
    hdc_source_rounds(items_x, items_y, centers, meas, qmin, qscale, use_cpop, 1)
}

/// [`hdc_source`] with an outer repetition loop (see
/// [`knn_source_rounds`]).
///
/// # Panics
///
/// Panics on inconsistent table sizes or `rounds == 0`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn hdc_source_rounds(
    items_x: &[[u64; 2]],
    items_y: &[[u64; 2]],
    centers: &[[u64; 4]],
    meas: &[(f64, f64)],
    qmin: f64,
    qscale: f64,
    use_cpop: bool,
    rounds: u64,
) -> String {
    assert!(rounds > 0, "at least one round");
    assert_eq!(items_x.len(), HDC_LEVELS);
    assert_eq!(items_y.len(), HDC_LEVELS);
    assert_eq!(centers.len(), meas.len());
    assert!(!centers.is_empty());
    let n = centers.len();
    let max_level = HDC_LEVELS as i64 - 1;
    let popcount = if use_cpop {
        "    cpop a4, a4\n"
    } else {
        // Without Zbb, compilers lower popcount to a `__popcountdi2`
        // library call — the call overhead is part of the paper's HDC
        // cost.
        "    call popcount64\n"
    };
    let mut s = format!(
        ".text
    li s0, {rounds}
    la t6, qparams
    fld fs0, 0(t6)        # qmin
    fld fs1, 8(t6)        # qscale
    la t6, masks
    ld s2, 0(t6)
    ld s3, 8(t6)
    ld s4, 16(t6)
    ld s5, 24(t6)
    la s6, items_x
    la s7, items_y
hdc_round:
    la a0, hdc_centers
    la a1, meas
    la a2, out
    li a3, {n}
hdc_loop:
    # --- quantize x ---
    fld fa0, 0(a1)
    fsub.d fa0, fa0, fs0
    fmul.d fa0, fa0, fs1
    fcvt.w.d t0, fa0
    bge t0, zero, qx_lo
    li t0, 0
qx_lo:
    li t5, {max_level}
    blt t0, t5, qx_hi
    mv t0, t5
qx_hi:
    # --- quantize y ---
    fld fa1, 8(a1)
    fsub.d fa1, fa1, fs0
    fmul.d fa1, fa1, fs1
    fcvt.w.d t1, fa1
    bge t1, zero, qy_lo
    li t1, 0
qy_lo:
    li t5, {max_level}
    blt t1, t5, qy_hi
    mv t1, t5
qy_hi:
    # --- bind measurement: m = items_x[qx] ^ items_y[qy] ---
    slli t0, t0, 4
    add t0, t0, s6
    slli t1, t1, 4
    add t1, t1, s7
    ld t2, 0(t0)          # x lo
    ld t3, 8(t0)          # x hi
    ld t4, 0(t1)          # y lo
    xor t2, t2, t4
    ld t4, 8(t1)          # y hi
    xor t3, t3, t4
    # --- Hamming to class 0 ---
    ld a4, 0(a0)
    xor a4, a4, t2
"
    );
    s.push_str(popcount);
    s.push_str(
        "    mv a5, a4
    ld a4, 8(a0)
    xor a4, a4, t3
",
    );
    s.push_str(popcount);
    s.push_str(
        "    add a5, a5, a4       # d0
    # --- Hamming to class 1 ---
    ld a4, 16(a0)
    xor a4, a4, t2
",
    );
    s.push_str(popcount);
    s.push_str(
        "    mv a6, a4
    ld a4, 24(a0)
    xor a4, a4, t3
",
    );
    s.push_str(popcount);
    s.push_str(
        "    add a6, a6, a4       # d1
    slt t0, a6, a5        # label = (d1 < d0)
    sb t0, 0(a2)
    addi a0, a0, 32
    addi a1, a1, 16
    addi a2, a2, 1
    addi a3, a3, -1
    bnez a3, hdc_loop
    addi s0, s0, -1
    bnez s0, hdc_round
    ecall
",
    );
    if !use_cpop {
        s.push_str("popcount64:\n");
        s.push_str(swar_popcount());
        s.push_str("    ret\n");
    }
    s.push_str(
        ".data
masks:
    .dword 0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f, 0x0101010101010101
qparams:
",
    );
    s.reserve((2 * HDC_LEVELS + 1 + n) * ROW2 + n * ROW4 + LABELS);
    row2(&mut s, qmin.to_bits(), qscale.to_bits());
    s.push_str("items_x:\n");
    for hv in items_x {
        row2(&mut s, hv[0], hv[1]);
    }
    s.push_str("items_y:\n");
    for hv in items_y {
        row2(&mut s, hv[0], hv[1]);
    }
    s.push_str("hdc_centers:\n");
    for &c in centers {
        row4(&mut s, c);
    }
    meas_and_out(&mut s, meas);
    s
}

/// A Dhrystone-flavoured synthetic integer workload: record copies, string
/// comparison loops, arithmetic, and branching, `iters` times around.
#[must_use]
pub fn dhrystone_source(iters: u64) -> String {
    format!(
        ".text
    li s0, {iters}
dhry_outer:
    # record assignment: copy 8 dwords
    la a0, rec_a
    la a1, rec_b
    li t0, 8
copy_loop:
    ld t1, 0(a0)
    sd t1, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi t0, t0, -1
    bnez t0, copy_loop
    # arithmetic block
    li t0, 2
    li t1, 3
    mul t2, t0, t1
    addi t2, t2, 7
    div t3, t2, t0
    sub t3, t3, t1
    # string compare: 16 bytes
    la a0, str_a
    la a1, str_b
    li t0, 16
str_loop:
    lbu t1, 0(a0)
    lbu t2, 0(a1)
    bne t1, t2, str_diff
    addi a0, a0, 1
    addi a1, a1, 1
    addi t0, t0, -1
    bnez t0, str_loop
str_diff:
    # array indexing with a data-dependent branch
    la a0, arr
    andi t1, s0, 7
    slli t1, t1, 3
    add a0, a0, t1
    ld t2, 0(a0)
    addi t2, t2, 1
    sd t2, 0(a0)
    andi t3, t2, 1
    beqz t3, dhry_even
    addi s1, s1, 1
dhry_even:
    addi s0, s0, -1
    bnez s0, dhry_outer
    ecall
.data
rec_a: .dword 1, 2, 3, 4, 5, 6, 7, 8
rec_b: .zero 64
str_a: .byte 68, 72, 82, 89, 83, 84, 79, 78, 69, 32, 80, 82, 79, 71, 0, 0
str_b: .byte 68, 72, 82, 89, 83, 84, 79, 78, 69, 32, 80, 82, 79, 71, 0, 1
arr:   .dword 0, 0, 0, 0, 0, 0, 0, 0
out:   .zero 8
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::Cpu;
    use crate::pipeline::{PipelineConfig, PipelineModel};

    fn run_to_out(src: &str, n: usize) -> Vec<u8> {
        let p = assemble(src).unwrap();
        let out = p.label("out").expect("out label");
        let mut cpu = Cpu::new();
        cpu.load_program(&p);
        cpu.run(50_000_000).unwrap();
        cpu.read_mem(out, n).unwrap().to_vec()
    }

    #[test]
    fn knn_classifies_obvious_points() {
        // Qubit 0: centers at (0,0) and (10,10); measurement near (10,10).
        // Qubit 1: same centers; measurement near (0,0).
        let centers = vec![[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]];
        let meas = vec![(9.0, 9.5), (0.5, -0.5)];
        let labels = run_to_out(&knn_source(&centers, &meas), 2);
        assert_eq!(labels, vec![1, 0]);
    }

    #[test]
    fn knn_ties_break_toward_zero() {
        let centers = vec![[-1.0, 0.0, 1.0, 0.0]];
        let meas = vec![(0.0, 0.0)];
        let labels = run_to_out(&knn_source(&centers, &meas), 1);
        assert_eq!(labels, vec![0], "equidistant -> not strictly closer to 1");
    }

    #[test]
    fn hdc_classifies_with_item_tables() {
        // Deterministic pseudo-random item hypervectors.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rnd = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let items_x: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|_| [rnd(), rnd()]).collect();
        let items_y: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|_| [rnd(), rnd()]).collect();
        // Centers: encode level (2,2) as class 0 and (13,13) as class 1.
        let enc = |ix: usize, iy: usize| -> [u64; 2] {
            [
                items_x[ix][0] ^ items_y[iy][0],
                items_x[ix][1] ^ items_y[iy][1],
            ]
        };
        let c0 = enc(2, 2);
        let c1 = enc(13, 13);
        let centers = vec![[c0[0], c0[1], c1[0], c1[1]]; 2];
        // qmin 0, qscale 1: coordinates are levels directly.
        let meas = vec![(2.0, 2.0), (13.0, 13.0)];
        let src = hdc_source(&items_x, &items_y, &centers, &meas, 0.0, 1.0, false);
        let labels = run_to_out(&src, 2);
        assert_eq!(labels, vec![0, 1]);
    }

    #[test]
    fn hdc_cpop_variant_matches_swar() {
        let items_x: Vec<[u64; 2]> = (0..HDC_LEVELS)
            .map(|i| [i as u64 * 7, !(i as u64)])
            .collect();
        let items_y: Vec<[u64; 2]> = (0..HDC_LEVELS)
            .map(|i| [i as u64 ^ 0xAA, i as u64 * 3])
            .collect();
        let centers = vec![[0xDEAD, 0xBEEF, 0xCAFE, 0xF00D]; 3];
        let meas = vec![(1.0, 2.0), (7.0, 3.0), (15.0, 0.0)];
        let soft = hdc_source(&items_x, &items_y, &centers, &meas, 0.0, 1.0, false);
        let hard = hdc_source(&items_x, &items_y, &centers, &meas, 0.0, 1.0, true);
        let l_soft = run_to_out(&soft, 3);
        // cpop needs the extension enabled; run through the pipeline model.
        let p = assemble(&hard).unwrap();
        let out = p.label("out").unwrap();
        let mut m = PipelineModel::new(PipelineConfig {
            enable_cpop: true,
            ..PipelineConfig::default()
        });
        m.cpu.load_program(&p);
        m.run(10_000_000).unwrap();
        let l_hard = m.cpu.read_mem(out, 3).unwrap().to_vec();
        assert_eq!(l_soft, l_hard);
    }

    #[test]
    fn quantizer_clamps_out_of_range() {
        let items_x: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|i| [1 << i, 0]).collect();
        let items_y: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|i| [0, 1 << i]).collect();
        let enc = |ix: usize, iy: usize| -> [u64; 2] {
            [
                items_x[ix][0] ^ items_y[iy][0],
                items_x[ix][1] ^ items_y[iy][1],
            ]
        };
        let c0 = enc(0, 0);
        let c1 = enc(15, 15);
        let centers = vec![[c0[0], c0[1], c1[0], c1[1]]; 2];
        // Way out of range on both sides: clamps to level 0 and 15.
        let meas = vec![(-100.0, -100.0), (100.0, 100.0)];
        let src = hdc_source(&items_x, &items_y, &centers, &meas, 0.0, 1.0, false);
        let labels = run_to_out(&src, 2);
        assert_eq!(labels, vec![0, 1]);
    }

    #[test]
    fn hdc_is_slower_than_knn_without_popcount_hardware() {
        // The paper's Table 2 headline: HDC ≈ 3.3× slower than kNN.
        let n = 20;
        let centers_f: Vec<[f64; 4]> = (0..n).map(|_| [0.0, 0.0, 1.0, 1.0]).collect();
        let meas: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 * 0.05, 0.3)).collect();
        let knn = knn_source(&centers_f, &meas);
        let items: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|i| [i as u64, !(i as u64)]).collect();
        let centers_h = vec![[1, 2, 3, 4]; n];
        let hdc = hdc_source(&items, &items, &centers_h, &meas, 0.0, 10.0, false);
        let time = |src: &str| -> f64 {
            let p = assemble(src).unwrap();
            let mut m = PipelineModel::new(PipelineConfig::default());
            m.cpu.load_program(&p);
            let s = m.run(10_000_000).unwrap();
            s.cycles as f64 / n as f64
        };
        let knn_cpc = time(&knn);
        let hdc_cpc = time(&hdc);
        let ratio = hdc_cpc / knn_cpc;
        assert!(
            ratio > 2.0,
            "HDC should be much slower: {hdc_cpc:.1} vs {knn_cpc:.1} cycles/classification"
        );
    }

    #[test]
    fn dhrystone_runs_to_completion() {
        let p = assemble(&dhrystone_source(50)).unwrap();
        let mut m = PipelineModel::new(PipelineConfig::default());
        m.cpu.load_program(&p);
        let s = m.run(10_000_000).unwrap();
        assert!(s.instructions > 2000);
        assert!(s.taken_branches > 100);
    }
}
