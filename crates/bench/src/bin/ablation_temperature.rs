//! Extension study: the full temperature trajectory between the paper's two
//! corners. Characterizes a representative cell subset at intermediate
//! cryogenic temperatures (the regime of the paper's refs. \[18\]–\[23\]:
//! 77 K / 40 K studies) and reports how delay and leakage evolve.
use cryo_cells::{topology, CharConfig, Characterizer};
use cryo_device::{FinFet, IvCurve, ModelCard, Polarity};

fn main() {
    let nfet = ModelCard::nominal(Polarity::N);
    let pfet = ModelCard::nominal(Polarity::P);
    let cells = vec![
        topology::inverter(1),
        topology::inverter(4),
        topology::nand(2, 2),
        topology::nor(2, 2),
        topology::xor2(2),
        topology::full_adder(1),
    ];
    println!("=== Temperature trajectory: 300 K -> 10 K ===");
    println!(
        "{:>7} {:>12} {:>12} {:>16} {:>12} {:>12}",
        "T (K)", "mean delay", "vs 300 K", "cell leakage", "Vth (n)", "SS (n)"
    );
    let mut base = None;
    for temp in [300.0, 200.0, 150.0, 100.0, 77.0, 40.0, 10.0] {
        let engine = Characterizer::new(&nfet, &pfet, CharConfig::fast(temp));
        let lib = engine
            .characterize_library(&format!("sweep_{temp}"), &cells)
            .expect("characterization");
        let stats = lib.stats();
        let b = *base.get_or_insert(stats.mean_delay);
        let dev = FinFet::new(&nfet, temp, 1);
        let curve = IvCurve::sweep(&dev, 0.05, 0.75, 200);
        let vth = curve.vgs_at_current(1e-6).unwrap_or(f64::NAN);
        let ss = curve.subthreshold_swing(5e-11, 2e-7).unwrap_or(f64::NAN);
        println!(
            "{temp:>7.0} {:>9.2} ps {:>11.3}x {:>13.3e} W {:>9.3} V {:>7.1} mV/dec",
            stats.mean_delay * 1e12,
            stats.mean_delay / b,
            stats.total_avg_leakage,
            vth,
            ss
        );
    }
    println!("\n(Leakage falls monotonically and collapses below ~100 K. Delay follows a");
    println!(" bathtub: the Vth rise dominates first — worst near 150 K — before the");
    println!(" mobility gain claws most of it back by 10 K, consistent with the 77 K /");
    println!(" 40 K literature the paper cites.)");
}
