//! Ad-hoc cost breakdown of the characterization hot path: device-model
//! evaluation vs dense LU vs full transient. Run with
//! `cargo run --release -p cryo-spice --example profile_kernel`.

use cryo_device::{FinFet, ModelCard, Polarity};
use cryo_spice::solver::Matrix;
use cryo_spice::{transient, Circuit, Source, TranConfig, GROUND};
use std::time::Instant;

fn inverter(temp: f64) -> Circuit {
    let vdd = 0.7;
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    let mut c = Circuit::new();
    let vdd_n = c.node("vdd");
    let inn = c.node("in");
    let out = c.node("out");
    c.vsource("VDD", vdd_n, GROUND, Source::dc(vdd));
    c.vsource("VIN", inn, GROUND, Source::ramp(0.0, vdd, 20e-12, 10e-12));
    c.finfet("MN", out, inn, GROUND, FinFet::new(&nc, temp, 2));
    c.finfet("MP", out, inn, vdd_n, FinFet::new(&pc, temp, 3));
    c.capacitor("CL", out, GROUND, 2e-15);
    c
}

/// A chain of inverters: bigger MNA system, more devices.
fn chain(temp: f64, stages: usize) -> Circuit {
    let vdd = 0.7;
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    let mut c = Circuit::new();
    let vdd_n = c.node("vdd");
    let inn = c.node("in");
    c.vsource("VDD", vdd_n, GROUND, Source::dc(vdd));
    c.vsource("VIN", inn, GROUND, Source::ramp(0.0, vdd, 20e-12, 10e-12));
    let mut prev = inn;
    for i in 0..stages {
        let out = c.node(&format!("n{i}"));
        c.finfet(
            &format!("MN{i}"),
            out,
            prev,
            GROUND,
            FinFet::new(&nc, temp, 2),
        );
        c.finfet(
            &format!("MP{i}"),
            out,
            prev,
            vdd_n,
            FinFet::new(&pc, temp, 3),
        );
        c.capacitor(&format!("CW{i}"), out, GROUND, 0.2e-15);
        prev = out;
    }
    c
}

fn main() {
    let nc = ModelCard::nominal(Polarity::N);
    let dev = FinFet::new(&nc, 300.0, 2);

    // 1. Device eval cost: the current alone, and the Newton stamp's
    //    current plus exact Jacobian (one dual-number pass).
    let n_eval = 200_000usize;
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..n_eval {
        let vgs = 0.1 + (i % 97) as f64 * 0.005;
        let vds = 0.05 + (i % 89) as f64 * 0.006;
        acc += dev.ids(vgs, vds);
    }
    let per_ids = t.elapsed().as_secs_f64() / n_eval as f64;
    println!(
        "ids eval:            {:8.1} ns  (acc {acc:.3e})",
        per_ids * 1e9
    );
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..n_eval {
        let vgs = 0.1 + (i % 97) as f64 * 0.005;
        let vds = 0.05 + (i % 89) as f64 * 0.006;
        let (ids, gm, gds) = dev.ids_gm_gds(vgs, vds);
        acc += ids + gm + gds;
    }
    let per_stamp = t.elapsed().as_secs_f64() / n_eval as f64;
    println!(
        "ids_gm_gds (stamp):  {:8.1} ns  (acc {acc:.3e})",
        per_stamp * 1e9
    );

    // 2. Dense LU cost at characteristic sizes.
    for n in [5usize, 10, 20, 30, 45] {
        let mut seed = 0x1234_5678_u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut proto = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                // MNA-like: strong diagonal, ~4 off-diagonal nnz per row.
                let v = rnd();
                if r == c {
                    proto.set(r, c, 4.0 + v.abs());
                } else if (r as i64 - c as i64).abs() <= 2 {
                    proto.set(r, c, v);
                }
            }
        }
        let reps = 20_000;
        let t = Instant::now();
        let mut sum = 0.0;
        for _ in 0..reps {
            let mut m = proto.clone();
            let perm = m.lu_factor().unwrap();
            let mut b = vec![1.0; n];
            m.lu_solve(&perm, &mut b);
            sum += b[0];
        }
        let per = t.elapsed().as_secs_f64() / reps as f64;
        println!(
            "LU n={n:2}: clone+factor+solve {:9.1} ns  (sum {sum:.3e})",
            per * 1e9
        );
    }

    // 3. Whole transients (the real unit of characterization work).
    for (name, ckt, steps) in [
        ("inverter (n=5)", inverter(300.0), 220usize),
        ("chain10  (n~13)", chain(300.0, 10), 220),
        ("chain30  (n~33)", chain(300.0, 30), 220),
    ] {
        let nfets = ckt
            .elements()
            .iter()
            .filter(|e| matches!(e.kind, cryo_spice::ElementKind::Fet { .. }))
            .count();
        let cfg = TranConfig::with_steps(600e-12, steps);
        let reps = 20;
        let t = Instant::now();
        for _ in 0..reps {
            let r = transient(&ckt, &cfg).unwrap();
            std::hint::black_box(r.final_state()[0]);
        }
        let per = t.elapsed().as_secs_f64() / reps as f64;
        let unknowns = ckt.unknowns();
        println!(
            "transient {name}: {:8.3} ms  ({unknowns} unknowns, {nfets} fets, {steps} steps)",
            per * 1e3
        );
        // Estimated device-eval floor: steps * 1 iteration * nfets * stamp.
        println!(
            "    device-eval floor (1 iter/step): {:8.3} ms",
            (steps as f64 * nfets as f64 * per_stamp) * 1e3
        );
    }
}
