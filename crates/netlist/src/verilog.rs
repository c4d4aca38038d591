//! Structural Verilog export of a gate-level [`Design`].
//!
//! Emits the flat post-synthesis netlist a place-and-route flow exchanges:
//! one module, wire declarations, standard-cell instances with named port
//! connections, and SRAM macros as blackbox instances.

use std::fmt::Write as _;

use crate::design::Design;

/// Sanitize a net/instance name into a Verilog identifier (buses like
/// `a[3]` become escaped identifiers).
fn ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && !name.is_empty()
    {
        name.to_string()
    } else {
        format!("\\{name} ")
    }
}

/// Render `design` as structural Verilog.
#[must_use]
pub fn write_verilog(design: &Design) -> String {
    let mut out = String::new();
    let mut ports: Vec<String> = Vec::new();
    for &pi in &design.primary_inputs {
        ports.push(ident(design.net_name(pi)));
    }
    if let Some(clk) = design.clock {
        ports.push(ident(design.net_name(clk)));
    }
    for &po in &design.primary_outputs {
        ports.push(ident(design.net_name(po)));
    }
    let _ = writeln!(
        out,
        "// Generated by cryo-netlist: {} cells, {} nets",
        design.cell_count(),
        design.net_count()
    );
    let _ = writeln!(out, "module {} (", ident(&design.name));
    let _ = writeln!(out, "  {}", ports.join(",\n  "));
    let _ = writeln!(out, ");");
    for &pi in &design.primary_inputs {
        let _ = writeln!(out, "  input {};", ident(design.net_name(pi)));
    }
    if let Some(clk) = design.clock {
        let _ = writeln!(out, "  input {};", ident(design.net_name(clk)));
    }
    for &po in &design.primary_outputs {
        let _ = writeln!(out, "  output {};", ident(design.net_name(po)));
    }
    // Wire declarations for everything that is not a port.
    let mut is_port = vec![false; design.net_count()];
    for &n in design
        .primary_inputs
        .iter()
        .chain(design.primary_outputs.iter())
        .chain(design.clock.iter())
    {
        is_port[n] = true;
    }
    for (net, port) in is_port.iter().enumerate() {
        if !port {
            let _ = writeln!(out, "  wire {};", ident(design.net_name(net)));
        }
    }
    // Cell instances.
    for inst in design.instances().iter() {
        let mut conns: Vec<String> = Vec::new();
        for (pin, net) in inst.inputs() {
            conns.push(format!(".{pin}({})", ident(design.net_name(net))));
        }
        if let Some(clk) = inst.clock {
            conns.push(format!(".CLK({})", ident(design.net_name(clk))));
        }
        for (pin, net) in inst.outputs() {
            conns.push(format!(".{pin}({})", ident(design.net_name(net))));
        }
        let _ = writeln!(
            out,
            "  {} {} ({});",
            inst.cell,
            ident(inst.name),
            conns.join(", ")
        );
    }
    // Macro blackboxes.
    for m in design.macros() {
        let mut conns: Vec<String> = vec![format!(".CLK({})", ident(design.net_name(m.clock)))];
        for (i, net) in m.inputs.iter().enumerate() {
            conns.push(format!(".A{i}({})", ident(design.net_name(*net))));
        }
        for (i, net) in m.outputs.iter().enumerate() {
            conns.push(format!(".Q{i}({})", ident(design.net_name(*net))));
        }
        let _ = writeln!(
            out,
            "  SRAM_{}KB {} ({});",
            m.spec.kbytes as u64,
            ident(&m.name),
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::soc::{build_soc, SocConfig};

    #[test]
    fn small_design_renders() {
        let mut b = DesignBuilder::new("adder1");
        let clk = b.clock_input("clk");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.nand2(a, c, 1);
        let q = b.dff(y, clk, 1);
        b.mark_output(q);
        let v = write_verilog(&b.finish());
        assert!(v.contains("module adder1 ("));
        assert!(v.contains("input a;"));
        assert!(v.contains("input clk;"));
        assert!(v.contains("NAND2x1"));
        assert!(v.contains("DFFx1"));
        assert!(v.contains(".CLK(clk)"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn bus_names_are_escaped() {
        let mut b = DesignBuilder::new("bus");
        let word = b.input_bus("data", 2);
        let y = b.and2(word[0], word[1], 1);
        b.mark_output(y);
        let v = write_verilog(&b.finish());
        assert!(v.contains("\\data[0] "), "escaped identifier:\n{v}");
    }

    #[test]
    fn soc_export_includes_macros() {
        let v = write_verilog(&build_soc(&SocConfig::tiny()));
        assert!(v.contains("SRAM_16KB"));
        assert!(v.contains("SRAM_128KB"));
        assert!(v.contains("module rv64_soc ("));
        // Every instance line is well-formed (cheap sanity proxy: counts).
        let instances = v.matches(");").count();
        assert!(instances > 500);
    }

    #[test]
    fn instance_count_matches_design() {
        let design = build_soc(&SocConfig::tiny());
        let v = write_verilog(&design);
        let dff_lines = v
            .lines()
            .filter(|l| l.trim_start().starts_with("DFFx"))
            .count();
        let dff_insts = design
            .instances()
            .iter()
            .filter(|i| i.cell.starts_with("DFFx"))
            .count();
        assert_eq!(dff_lines, dff_insts);
    }
}
