//! Extension study: microarchitecture what-ifs on the classification
//! kernels — branch prediction (BTB) and hardware popcount (Zbb `cpop`),
//! the "dedicated hardware support" direction the paper's Sec. VII points
//! at without giving up the general-purpose core.
use cryo_riscv::asm::assemble;
use cryo_riscv::kernels::{hdc_source_rounds, knn_source_rounds, HDC_LEVELS};
use cryo_riscv::{PipelineConfig, PipelineModel};

fn steady(src1: &str, src4: &str, items: usize, cfg: &PipelineConfig) -> f64 {
    let run = |src: &str| -> u64 {
        let p = assemble(src).unwrap();
        let mut m = PipelineModel::new(cfg.clone());
        m.cpu.load_program(&p);
        m.run(500_000_000).unwrap().cycles
    };
    (run(src4) - run(src1)) as f64 / (3.0 * items as f64)
}

fn main() {
    let n = 100usize;
    let centers: Vec<[f64; 4]> = (0..n)
        .map(|i| {
            let t = i as f64 * 0.41;
            [t.sin(), t.cos(), t.sin() + 1.0, t.cos() - 1.0]
        })
        .collect();
    let meas: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64 * 0.13).sin(), 0.2)).collect();
    let mut seed = 5u64;
    let mut rnd = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let items: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|_| [rnd(), rnd()]).collect();
    let items_y: Vec<[u64; 2]> = (0..HDC_LEVELS).map(|_| [rnd(), rnd()]).collect();
    let centers_h: Vec<[u64; 4]> = (0..n).map(|_| [rnd(), rnd(), rnd(), rnd()]).collect();

    println!("=== Microarchitecture ablation: cycles/classification at {n} qubits ===\n");
    println!("{:<34} {:>10} {:>10}", "configuration", "kNN", "HDC");
    let configs: Vec<(&str, PipelineConfig)> = vec![
        ("baseline (static NT, no cpop)", PipelineConfig::default()),
        (
            "+ 64-entry BTB",
            PipelineConfig {
                btb_entries: 64,
                ..PipelineConfig::default()
            },
        ),
        (
            "+ Zbb cpop",
            PipelineConfig {
                enable_cpop: true,
                ..PipelineConfig::default()
            },
        ),
        (
            "+ BTB + cpop",
            PipelineConfig {
                btb_entries: 64,
                enable_cpop: true,
                ..PipelineConfig::default()
            },
        ),
    ];
    for (name, cfg) in &configs {
        let knn = steady(
            &knn_source_rounds(&centers, &meas, 1),
            &knn_source_rounds(&centers, &meas, 4),
            n,
            cfg,
        );
        let hdc = steady(
            &hdc_source_rounds(
                &items,
                &items_y,
                &centers_h,
                &meas,
                -1.0,
                8.0,
                cfg.enable_cpop,
                1,
            ),
            &hdc_source_rounds(
                &items,
                &items_y,
                &centers_h,
                &meas,
                -1.0,
                8.0,
                cfg.enable_cpop,
                4,
            ),
            n,
            cfg,
        );
        println!("{name:<34} {knn:>10.1} {hdc:>10.1}");
    }
    println!("\n(A BTB shaves the loop-branch penalty from both kernels; cpop removes");
    println!(" the popcount libcall that dominates HDC — together they more than halve");
    println!(" the HDC cost while leaving the ISA general-purpose.)");
}
