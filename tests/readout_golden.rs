//! Golden snapshot of the readout host path: every calibrated bit, every
//! generated shot and every kernel byte the `iss_readout` sweep feeds the
//! simulator.
//!
//! `iss.json` pins the cycle model on inputs from a fixed xorshift stream,
//! and the kernels' labels are checked against host classifiers built from
//! the same calibration, so neither notices a changed calibration center.
//! This test pins, as FNV-1a digests:
//!
//! - `Calibration::train` centers (`f64` bits) at 1, 128 and 300 shots;
//! - `readout` and `readout_windowed` shot streams of a few qubits;
//! - two `measurement_round`s;
//! - the kNN and HDC (with and without `cpop`) kernel sources at 64 and
//!   4096 qubits, built from a calibrated device, and each source
//!   assembled: text words, data image, and labels sorted by name.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! CRYO_BLESS=1 cargo test --test readout_golden
//! ```

use std::path::PathBuf;

use cryo_soc::hdc::IqEncoder;
use cryo_soc::qubit::{Calibration, HdcClassifier, IqPoint, QuantumDevice, Shot};
use cryo_soc::riscv::assemble;
use cryo_soc::riscv::kernels::{hdc_source_rounds, knn_source_rounds, HDC_LEVELS};

/// `(qubits, seed)` of the calibrated devices.
const DEVICES: [(usize, u64); 5] = [(1, 0), (27, 7), (64, 1), (1000, 42), (4096, 9)];
const SHOTS: [usize; 3] = [1, 128, 300];
const WINDOWS: [f64; 3] = [0.05, 1.0, 25.0];
const KERNEL_QUBITS: [usize; 2] = [64, 4096];

/// Incremental FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn point(&mut self, p: IqPoint) {
        self.u64(p.i.to_bits());
        self.u64(p.q.to_bits());
    }

    fn hex(&self) -> String {
        format!("\"{:016x}\"", self.0)
    }
}

fn shots_digest(shots: &[Shot]) -> String {
    let mut h = Fnv::new();
    for s in shots {
        h.u64(s.qubit as u64);
        h.bytes(&[s.prepared]);
        h.point(s.point);
    }
    h.hex()
}

fn calibration_digest(cal: &Calibration) -> String {
    let mut h = Fnv::new();
    for q in 0..cal.len() {
        let (c0, c1) = cal.centers(q).expect("calibrated qubit");
        h.point(c0);
        h.point(c1);
    }
    h.hex()
}

/// The source's digest, then its assembled text, data and labels.
fn kernel_case(name: &str, src: &str) -> String {
    let mut text = Fnv::new();
    text.bytes(src.as_bytes());
    let program = assemble(src).expect("kernel assembles");
    let mut words = Fnv::new();
    for w in &program.text {
        words.bytes(&w.to_le_bytes());
    }
    let mut data = Fnv::new();
    data.bytes(&program.data);
    let mut labels: Vec<(&String, &u64)> = program.labels.iter().collect();
    labels.sort();
    let mut lab = Fnv::new();
    for (label, addr) in labels {
        lab.bytes(label.as_bytes());
        lab.u64(*addr);
    }
    format!(
        "  \"{name}\": {{\"source\": {}, \"source_len\": {}, \"text\": {}, \"data\": {}, \
         \"labels\": {}}}",
        text.hex(),
        src.len(),
        words.hex(),
        data.hex(),
        lab.hex()
    )
}

fn snapshot() -> String {
    let mut cases = Vec::new();
    for (n, seed) in DEVICES {
        let device = QuantumDevice::new(n, seed);
        for shots in SHOTS {
            let cal = Calibration::train(&device, shots).expect("calibration");
            cases.push(format!(
                "  \"calibrate_{n}q_seed{seed}_{shots}shots\": {}",
                calibration_digest(&cal)
            ));
        }
    }

    let device = QuantumDevice::new(5, 3);
    for qubit in [0, 4] {
        for state in [0u8, 1] {
            let shots = device.readout(qubit, state, 200).expect("readout");
            cases.push(format!(
                "  \"readout_q{qubit}_s{state}\": {}",
                shots_digest(&shots)
            ));
            for window in WINDOWS {
                let shots = device
                    .readout_windowed(qubit, state, 200, window)
                    .expect("windowed readout");
                cases.push(format!(
                    "  \"readout_windowed_q{qubit}_s{state}_w{window}\": {}",
                    shots_digest(&shots)
                ));
            }
        }
    }

    for (n, seed, round) in [(27, 7, 1), (1000, 42, 5)] {
        let shots = QuantumDevice::new(n, seed).measurement_round(round);
        cases.push(format!(
            "  \"measurement_round_{n}q_seed{seed}_r{round}\": {}",
            shots_digest(&shots)
        ));
    }

    for n in KERNEL_QUBITS {
        let device = QuantumDevice::new(n, 11);
        let cal = Calibration::train(&device, 128).expect("calibration");
        let meas: Vec<(f64, f64)> = device
            .measurement_round(3)
            .iter()
            .map(|s| (s.point.i, s.point.q))
            .collect();
        let rounds = (16_384 / n) as u64;
        cases.push(kernel_case(
            &format!("knn_{n}"),
            &knn_source_rounds(&cal.knn_table(), &meas, rounds),
        ));
        let encoder = IqEncoder::new(HDC_LEVELS, -3.0, 3.0, 5);
        let (qmin, qscale) = (encoder.qmin, encoder.qscale);
        let hdc = HdcClassifier::new(&cal, encoder).expect("self-consistent calibration");
        let (ix, iy) = hdc.encoder().tables();
        let centers = hdc.center_table();
        for (tag, cpop) in [("hdc", false), ("hdc_cpop", true)] {
            cases.push(kernel_case(
                &format!("{tag}_{n}"),
                &hdc_source_rounds(&ix, &iy, &centers, &meas, qmin, qscale, cpop, rounds),
            ));
        }
    }
    format!("{{\n{}\n}}\n", cases.join(",\n"))
}

#[test]
fn readout_host_path_matches_its_golden() {
    let got = snapshot();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/readout.json");
    if std::env::var_os("CRYO_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden {} unreadable ({e}); run with CRYO_BLESS=1 to create it",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(got.lines())
        .filter(|(g, r)| g != r)
        .map(|(g, r)| format!("expected {g}\n     got {r}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == got.lines().count(),
        "the readout host path drifted from tests/golden/readout.json (CRYO_BLESS=1 \
         regenerates after an intentional change):\n{}",
        drifted.join("\n")
    );
}
