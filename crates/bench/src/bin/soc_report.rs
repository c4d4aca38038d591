//! Prints a synthesis-style summary of the SoC netlist: instance counts per
//! region, cell-type mix, area, and memory macros — the "design statistics"
//! page a physical-design report would carry.
use std::collections::BTreeMap;

fn main() {
    let flow = cryo_bench::flow_from_args();
    let design = flow.soc();
    println!("=== SoC netlist report: rv64_soc ===");
    println!("standard cells: {}", design.cell_count());
    println!("nets:           {}", design.net_count());
    println!(
        "SRAM macros:    {} ({} KB total)",
        design.macros().len(),
        design.macros().iter().map(|m| m.spec.kbytes).sum::<f64>()
    );
    let mut regions: Vec<_> = design.region_histogram().into_iter().collect();
    regions.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    println!("\nper-region instance counts:");
    for (region, count) in &regions {
        println!("  {region:<10} {count:>8}");
    }
    let mut cells: BTreeMap<&str, usize> = BTreeMap::new();
    for inst in design.instances().iter() {
        *cells.entry(inst.cell.as_str()).or_insert(0) += 1;
    }
    let mut cells: Vec<_> = cells.into_iter().collect();
    cells.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    println!("\ntop cell types:");
    for (cell, count) in cells.iter().take(15) {
        println!("  {cell:<10} {count:>8}");
    }
    println!("\ndistinct cell types used: {}", cells.len());
}
