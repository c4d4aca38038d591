//! Circuit description: nodes and elements.

use cryo_device::FinFet;

use crate::source::Source;

/// Identifier of a circuit node. Node 0 is always ground.
pub type NodeId = usize;

/// The ground node, shared by every circuit.
pub const GROUND: NodeId = 0;

/// One circuit element.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // FinFET instances dominate real circuits; boxing would only add indirection
pub enum ElementKind {
    /// Linear resistor between two nodes, ohms.
    Resistor {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Resistance in ohms; must be positive.
        ohms: f64,
    },
    /// Linear capacitor between two nodes, farads.
    Capacitor {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Capacitance in farads; must be non-negative.
        farads: f64,
    },
    /// Independent voltage source with a waveform.
    VSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform.
        source: Source,
        /// Index into the branch-current unknowns (assigned by the circuit).
        branch: usize,
    },
    /// A FinFET with drain/gate/source terminals (bulk tied to source).
    Fet {
        /// Drain node.
        d: NodeId,
        /// Gate node.
        g: NodeId,
        /// Source node.
        s: NodeId,
        /// Evaluated device (model card bound to temperature and fin count).
        dev: FinFet,
    },
}

/// A named element.
#[derive(Debug, Clone)]
pub struct Element {
    /// Instance name, e.g. `"MN1"`.
    pub name: String,
    /// The element body.
    pub kind: ElementKind,
}

/// A flat transistor-level circuit.
///
/// Build with the `node`/`resistor`/`capacitor`/`vsource`/`finfet` methods,
/// then hand to [`crate::dc_operating_point`] or [`crate::transient`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
    n_branches: usize,
}

impl Circuit {
    /// Create an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            n_branches: 0,
        }
    }

    /// Register (or look up) a named node and return its id.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return GROUND;
        }
        if let Some(idx) = self.node_names.iter().position(|n| n == name) {
            return idx;
        }
        self.node_names.push(name.to_string());
        self.node_names.len() - 1
    }

    /// Name of a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Look up a node id by name without creating it.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(GROUND);
        }
        self.node_names.iter().position(|n| n == name)
    }

    /// Number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage-source branch unknowns.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.n_branches
    }

    /// The element list in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Add a resistor.
    ///
    /// # Panics
    ///
    /// Panics on non-positive resistance.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) {
        assert!(ohms > 0.0, "resistor {name} must have positive resistance");
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Resistor { a, b, ohms },
        });
    }

    /// Add a capacitor.
    ///
    /// # Panics
    ///
    /// Panics on negative capacitance.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) {
        assert!(farads >= 0.0, "capacitor {name} must be non-negative");
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Capacitor { a, b, farads },
        });
    }

    /// Add an independent voltage source and return its branch index
    /// (usable with [`crate::TranResult::source_current`]).
    pub fn vsource(&mut self, name: &str, pos: NodeId, neg: NodeId, source: Source) -> usize {
        let branch = self.n_branches;
        self.n_branches += 1;
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::VSource {
                pos,
                neg,
                source,
                branch,
            },
        });
        branch
    }

    /// Add a FinFET. The device's lumped terminal capacitances (`Cgs`,
    /// `Cgd`, `Cdb`) are added automatically as linear capacitors.
    pub fn finfet(&mut self, name: &str, d: NodeId, g: NodeId, s: NodeId, dev: FinFet) {
        let cgs = dev.cgs();
        let cgd = dev.cgd();
        let cdb = dev.cdb();
        self.capacitor(&format!("{name}.cgs"), g, s, cgs);
        self.capacitor(&format!("{name}.cgd"), g, d, cgd);
        self.capacitor(&format!("{name}.cdb"), d, GROUND, cdb);
        self.elements.push(Element {
            name: name.to_string(),
            kind: ElementKind::Fet { d, g, s, dev },
        });
    }

    /// Find the branch index of a named voltage source.
    #[must_use]
    pub fn source_branch(&self, name: &str) -> Option<usize> {
        self.elements.iter().find_map(|e| match &e.kind {
            ElementKind::VSource { branch, .. } if e.name == name => Some(*branch),
            _ => None,
        })
    }

    /// Total unknown count: non-ground nodes plus source branches.
    #[must_use]
    pub fn unknowns(&self) -> usize {
        (self.node_count() - 1) + self.n_branches
    }

    /// Human-readable name of MNA unknown `idx`: the node name for voltage
    /// unknowns, `I(<source>)` for branch-current unknowns. Used to label
    /// singular-matrix failures with the offending circuit quantity.
    #[must_use]
    pub fn unknown_name(&self, idx: usize) -> String {
        let nn = self.node_count() - 1;
        if idx < nn {
            return self.node_names[idx + 1].clone();
        }
        let branch = idx - nn;
        for e in &self.elements {
            if let ElementKind::VSource { branch: b, .. } = &e.kind {
                if *b == branch {
                    return format!("I({})", e.name);
                }
            }
        }
        format!("branch{branch}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.node("gnd"), GROUND);
        assert_eq!(c.node("0"), GROUND);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    fn unknown_count_includes_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, GROUND, Source::dc(1.0));
        c.resistor("R1", a, GROUND, 100.0);
        assert_eq!(c.unknowns(), 2); // node a + branch current
        assert_eq!(c.source_branch("V1"), Some(0));
        assert_eq!(c.source_branch("V2"), None);
    }

    #[test]
    #[should_panic(expected = "positive resistance")]
    fn zero_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, GROUND, 0.0);
    }

    #[test]
    fn finfet_adds_parasitic_caps() {
        use cryo_device::{ModelCard, Polarity};
        let mut c = Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        let dev = FinFet::new(&ModelCard::nominal(Polarity::N), 300.0, 2);
        c.finfet("MN1", d, g, s, dev);
        let caps = c
            .elements()
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::Capacitor { .. }))
            .count();
        assert_eq!(caps, 3);
    }
}
