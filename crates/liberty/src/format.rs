//! Liberty-flavoured text writer and parser.
//!
//! The on-disk dialect follows Liberty conventions closely enough to be
//! read by eye next to a real `.lib` file: `library`/`cell`/`pin`/`timing`
//! groups, `index_1`/`index_2`/`values` tables, `ff` groups for sequential
//! cells, and per-state `leakage_power` groups. Units in the file are
//! engineering-friendly (ps, fF, fJ, nW); the in-memory model stays SI.
//!
//! The parser round-trips everything the writer emits (property-tested in
//! the crate's test suite); it is not a general Liberty reader.

use crate::cell::{
    ArcKind, ArcSigma, Cell, FfSpec, Pin, PinDirection, PowerArc, TimingArc, TimingSense,
};
use crate::function::LogicFunction;
use crate::library::Library;
use crate::table::Lut2;
use crate::{LibertyError, Result};
use cryo_spice::fault;

const TIME_SCALE: f64 = 1e12; // seconds -> ps
const CAP_SCALE: f64 = 1e15; // farads -> fF
const ENERGY_SCALE: f64 = 1e15; // joules -> fJ
const POWER_SCALE: f64 = 1e9; // watts -> nW

/// Serialize a library to the Liberty-style text format.
#[must_use]
pub fn write_library(lib: &Library) -> String {
    let mut out = String::new();
    let w = &mut out;
    push(w, 0, &format!("library ({}) {{", lib.name));
    push(w, 1, "delay_model : table_lookup;");
    push(w, 1, &format!("nom_temperature : {};", lib.temperature));
    push(w, 1, &format!("nom_voltage : {};", lib.vdd));
    push(w, 1, "time_unit : \"1ps\";");
    push(w, 1, "capacitive_load_unit (1, ff);");
    push(w, 1, "leakage_power_unit : \"1nW\";");
    for cell in lib.cells() {
        write_cell(w, cell);
    }
    push(w, 0, "}");
    out
}

fn push(out: &mut String, indent: usize, line: &str) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str(line);
    out.push('\n');
}

fn fmt_axis(values: &[f64], scale: f64) -> String {
    values
        .iter()
        .map(|v| format!("{:.6}", v * scale))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_table(out: &mut String, indent: usize, name: &str, lut: &Lut2, value_scale: f64) {
    push(out, indent, &format!("{name} () {{"));
    push(
        out,
        indent + 1,
        &format!("index_1 (\"{}\");", fmt_axis(lut.index1(), TIME_SCALE)),
    );
    push(
        out,
        indent + 1,
        &format!("index_2 (\"{}\");", fmt_axis(lut.index2(), CAP_SCALE)),
    );
    let n2 = lut.index2().len();
    let rows: Vec<String> = lut
        .values()
        .chunks(n2)
        .map(|row| format!("\"{}\"", fmt_axis(row, value_scale)))
        .collect();
    push(
        out,
        indent + 1,
        &format!("values ({});", rows.join(", \\\n        ")),
    );
    push(out, indent, "}");
}

fn sense_str(sense: TimingSense) -> &'static str {
    match sense {
        TimingSense::PositiveUnate => "positive_unate",
        TimingSense::NegativeUnate => "negative_unate",
        TimingSense::NonUnate => "non_unate",
    }
}

fn timing_type_str(kind: ArcKind) -> Option<&'static str> {
    match kind {
        ArcKind::Combinational => None,
        ArcKind::ClockToQ => Some("rising_edge"),
        ArcKind::Setup => Some("setup_rising"),
        ArcKind::Hold => Some("hold_rising"),
    }
}

fn write_cell(out: &mut String, cell: &Cell) {
    push(out, 1, &format!("cell ({}) {{", cell.name));
    push(out, 2, &format!("area : {:.4};", cell.area));
    push(
        out,
        2,
        &format!(
            "cell_leakage_power : {:.6};",
            cell.average_leakage() * POWER_SCALE
        ),
    );
    for (state, watts) in &cell.leakage_states {
        push(out, 2, "leakage_power () {");
        push(out, 3, &format!("when : \"{state}\";"));
        push(out, 3, &format!("value : {:.6};", watts * POWER_SCALE));
        push(out, 2, "}");
    }
    if let Some(ff) = &cell.ff {
        push(out, 2, "ff (IQ, IQN) {");
        push(out, 3, &format!("clocked_on : \"{}\";", ff.clocked_on));
        push(out, 3, &format!("next_state : \"{}\";", ff.next_state));
        if let Some(clear) = &ff.clear {
            push(out, 3, &format!("clear : \"!{clear}\";"));
        }
        push(out, 2, "}");
    }
    for pin in &cell.pins {
        push(out, 2, &format!("pin ({}) {{", pin.name));
        let dir = match pin.direction {
            PinDirection::Input => "input",
            PinDirection::Output => "output",
        };
        push(out, 3, &format!("direction : {dir};"));
        if pin.is_clock {
            push(out, 3, "clock : true;");
        }
        if pin.direction == PinDirection::Input {
            push(
                out,
                3,
                &format!("capacitance : {:.6};", pin.capacitance * CAP_SCALE),
            );
        }
        if let Some(f) = &pin.function {
            push(out, 3, &format!("function : \"{}\";", f.to_expression()));
        }
        for arc in cell.arcs.iter().filter(|a| a.pin == pin.name) {
            push(out, 3, "timing () {");
            push(out, 4, &format!("related_pin : \"{}\";", arc.related_pin));
            if let Some(tt) = timing_type_str(arc.kind) {
                push(out, 4, &format!("timing_type : {tt};"));
            }
            push(out, 4, &format!("timing_sense : {};", sense_str(arc.sense)));
            // Each LVF sigma table sits directly after its nominal
            // sibling, Liberty-variation style (`ocv_sigma_cell_rise`).
            let sig = arc.sigma.as_ref();
            write_table(out, 4, "cell_rise", &arc.cell_rise, TIME_SCALE);
            if let Some(s) = sig {
                write_table(out, 4, "ocv_sigma_cell_rise", &s.cell_rise, TIME_SCALE);
            }
            write_table(out, 4, "rise_transition", &arc.rise_transition, TIME_SCALE);
            if let Some(s) = sig {
                write_table(
                    out,
                    4,
                    "ocv_sigma_rise_transition",
                    &s.rise_transition,
                    TIME_SCALE,
                );
            }
            write_table(out, 4, "cell_fall", &arc.cell_fall, TIME_SCALE);
            if let Some(s) = sig {
                write_table(out, 4, "ocv_sigma_cell_fall", &s.cell_fall, TIME_SCALE);
            }
            write_table(out, 4, "fall_transition", &arc.fall_transition, TIME_SCALE);
            if let Some(s) = sig {
                write_table(
                    out,
                    4,
                    "ocv_sigma_fall_transition",
                    &s.fall_transition,
                    TIME_SCALE,
                );
            }
            push(out, 3, "}");
        }
        for pa in cell.power_arcs.iter().filter(|p| p.pin == pin.name) {
            push(out, 3, "internal_power () {");
            push(out, 4, &format!("related_pin : \"{}\";", pa.related_pin));
            write_table(out, 4, "rise_power", &pa.rise_energy, ENERGY_SCALE);
            write_table(out, 4, "fall_power", &pa.fall_energy, ENERGY_SCALE);
            push(out, 3, "}");
        }
        push(out, 2, "}");
    }
    push(out, 1, "}");
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

/// A parsed Liberty group: `name (args) { attributes; subgroups }`.
#[derive(Debug, Clone, Default)]
struct Group {
    name: String,
    args: String,
    attrs: Vec<(String, String)>,
    subs: Vec<Group>,
}

impl Group {
    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn subs_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Group> {
        self.subs.iter().filter(move |g| g.name == name)
    }
}

/// Parse Liberty-style text produced by [`write_library`].
///
/// # Errors
///
/// [`LibertyError::Parse`] on structural problems,
/// [`LibertyError::MalformedTable`] if a table has inconsistent axes.
pub fn parse_library(text: &str) -> Result<Library> {
    let root = parse_groups(text)?;
    let lib_group = root
        .subs_named("library")
        .next()
        .ok_or_else(|| LibertyError::Parse {
            line: 1,
            reason: "no library group".to_string(),
        })?;
    let temperature = lib_group
        .attr("nom_temperature")
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    let vdd = lib_group
        .attr("nom_voltage")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.7);
    let mut lib = Library::new(&lib_group.args, temperature, vdd);
    for cg in lib_group.subs_named("cell") {
        lib.add_cell(parse_cell(cg)?);
    }
    Ok(lib)
}

/// Tokenize into a nested group tree. The root group collects top-level
/// groups as subgroups.
fn parse_groups(text: &str) -> Result<Group> {
    // Join continued lines (trailing backslash).
    let joined = text.replace("\\\n", " ");
    let mut lines = joined
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with("/*") && !l.starts_with("//"));
    let mut root = Group::default();
    let total = joined.lines().count();
    parse_body(&mut lines, &mut root, 0, total)?;
    Ok(root)
}

/// Parse statements into `group` until its closing brace (or EOF at depth 0).
fn parse_body<'a, I>(lines: &mut I, group: &mut Group, depth: usize, total: usize) -> Result<()>
where
    I: Iterator<Item = (usize, &'a str)>,
{
    while let Some((lineno, line)) = lines.next() {
        if line == "}" {
            if depth == 0 {
                return Err(LibertyError::Parse {
                    line: lineno,
                    reason: "unbalanced closing brace".to_string(),
                });
            }
            return Ok(());
        }
        if let Some(head) = line.strip_suffix('{') {
            let head = head.trim();
            let (name, args) = split_head(head).ok_or(LibertyError::Parse {
                line: lineno,
                reason: format!("bad group header: {head}"),
            })?;
            let mut sub = Group {
                name,
                args,
                ..Group::default()
            };
            parse_body(lines, &mut sub, depth + 1, total)?;
            group.subs.push(sub);
            continue;
        }
        if let Some(body) = line.strip_suffix(';') {
            if let Some((key, value)) = body.split_once(':') {
                group.attrs.push((
                    key.trim().to_string(),
                    value.trim().trim_matches('"').to_string(),
                ));
            } else if let Some((name, args)) = split_head(body) {
                // Attribute-with-parens, e.g. `index_1 ("...")`.
                group.attrs.push((name, args));
            } else {
                return Err(LibertyError::Parse {
                    line: lineno,
                    reason: format!("unparsable statement: {body}"),
                });
            }
            continue;
        }
        return Err(LibertyError::Parse {
            line: lineno,
            reason: format!("unexpected line: {line}"),
        });
    }
    if depth != 0 {
        return Err(LibertyError::Parse {
            line: total,
            reason: "unterminated group".to_string(),
        });
    }
    Ok(())
}

fn split_head(head: &str) -> Option<(String, String)> {
    let open = head.find('(')?;
    let close = head.rfind(')')?;
    if close < open {
        return None;
    }
    let name = head[..open].trim().to_string();
    let args = head[open + 1..close].trim().trim_matches('"').to_string();
    Some((name, args))
}

/// Parse one comma-separated numeric axis/values list. Unparsable tokens
/// are a structured [`LibertyError::MalformedTable`] naming the attribute
/// and the offending token — silently dropping them (the old behavior)
/// turns a damaged file into a smaller-but-plausible table and moves the
/// failure downstream to an interpolation that quietly extrapolates.
fn parse_axis(s: &str, scale: f64, what: &str) -> Result<Vec<f64>> {
    s.trim_matches('"')
        .split(',')
        .map(|v| v.trim().trim_matches('"'))
        .filter(|v| !v.is_empty())
        .map(|v| {
            v.parse::<f64>()
                .map(|x| x / scale)
                .map_err(|_| LibertyError::MalformedTable {
                    reason: format!("{what}: unparsable number `{v}`"),
                })
        })
        .collect()
}

fn parse_table(g: &Group, value_scale: f64) -> Result<Lut2> {
    let i1 = parse_axis(g.attr("index_1").unwrap_or("0"), TIME_SCALE, "index_1")?;
    let i2 = parse_axis(g.attr("index_2").unwrap_or("0"), CAP_SCALE, "index_2")?;
    let mut vals = parse_axis(g.attr("values").unwrap_or(""), value_scale, "values")?;
    // Deterministic fault-injection site: a hit simulates a table
    // truncated on disk (crash mid-write, bad sector). The truncated
    // values fail `Lut2::new`'s size check, so the caller sees the same
    // structured `MalformedTable` diagnostic a genuinely damaged file
    // would produce.
    if fault::should_corrupt_liberty_ingest() {
        vals.truncate(vals.len() / 2);
    }
    Lut2::new(i1, i2, vals)
}

fn parse_cell(g: &Group) -> Result<Cell> {
    let name = g.args.clone();
    let area = g.attr("area").and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let mut leakage_states = Vec::new();
    for lg in g.subs_named("leakage_power") {
        let state: u16 = lg.attr("when").and_then(|s| s.parse().ok()).unwrap_or(0);
        let value: f64 = lg.attr("value").and_then(|s| s.parse().ok()).unwrap_or(0.0);
        leakage_states.push((state, value / POWER_SCALE));
    }
    let ff = g.subs_named("ff").next().map(|fg| FfSpec {
        clocked_on: fg.attr("clocked_on").unwrap_or("CLK").to_string(),
        next_state: fg.attr("next_state").unwrap_or("D").to_string(),
        clear: fg
            .attr("clear")
            .map(|s| s.trim_start_matches('!').to_string()),
    });

    // First pass: pins and input names (needed to parse output functions).
    let mut pins = Vec::new();
    let mut input_names: Vec<String> = Vec::new();
    for pg in g.subs_named("pin") {
        let dir = match pg.attr("direction") {
            Some("output") => PinDirection::Output,
            _ => PinDirection::Input,
        };
        if dir == PinDirection::Input {
            input_names.push(pg.args.clone());
        }
    }
    let input_refs: Vec<&str> = input_names.iter().map(String::as_str).collect();

    let mut arcs = Vec::new();
    let mut power_arcs = Vec::new();
    for pg in g.subs_named("pin") {
        let pin_name = pg.args.clone();
        let dir = match pg.attr("direction") {
            Some("output") => PinDirection::Output,
            _ => PinDirection::Input,
        };
        let capacitance = pg
            .attr("capacitance")
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
            / CAP_SCALE;
        let function = pg
            .attr("function")
            .and_then(|expr| LogicFunction::parse(expr, &input_refs));
        let is_clock = pg.attr("clock") == Some("true");
        pins.push(Pin {
            name: pin_name.clone(),
            direction: dir,
            capacitance,
            function,
            is_clock,
        });
        for tg in pg.subs_named("timing") {
            let kind = match tg.attr("timing_type") {
                Some("rising_edge") => ArcKind::ClockToQ,
                Some("setup_rising") => ArcKind::Setup,
                Some("hold_rising") => ArcKind::Hold,
                _ => ArcKind::Combinational,
            };
            let sense = match tg.attr("timing_sense") {
                Some("positive_unate") => TimingSense::PositiveUnate,
                Some("non_unate") => TimingSense::NonUnate,
                _ => TimingSense::NegativeUnate,
            };
            let table_of = |name: &str| -> Result<Lut2> {
                tg.subs_named(name)
                    .next()
                    .map(|g| parse_table(g, TIME_SCALE))
                    .unwrap_or_else(|| Ok(Lut2::constant(0.0)))
            };
            // Sigma tables are optional sidecars: absence means "no LVF
            // data", which is not the same thing as a zero sigma.
            let table_opt = |name: &str| -> Result<Option<Lut2>> {
                tg.subs_named(name)
                    .next()
                    .map(|g| parse_table(g, TIME_SCALE))
                    .transpose()
            };
            let sigma = match (
                table_opt("ocv_sigma_cell_rise")?,
                table_opt("ocv_sigma_cell_fall")?,
                table_opt("ocv_sigma_rise_transition")?,
                table_opt("ocv_sigma_fall_transition")?,
            ) {
                (None, None, None, None) => None,
                (cr, cf, rt, ft) => Some(ArcSigma {
                    cell_rise: cr.unwrap_or_else(|| Lut2::constant(0.0)),
                    cell_fall: cf.unwrap_or_else(|| Lut2::constant(0.0)),
                    rise_transition: rt.unwrap_or_else(|| Lut2::constant(0.0)),
                    fall_transition: ft.unwrap_or_else(|| Lut2::constant(0.0)),
                }),
            };
            arcs.push(TimingArc {
                related_pin: tg.attr("related_pin").unwrap_or("").to_string(),
                pin: pin_name.clone(),
                kind,
                sense,
                cell_rise: table_of("cell_rise")?,
                cell_fall: table_of("cell_fall")?,
                rise_transition: table_of("rise_transition")?,
                fall_transition: table_of("fall_transition")?,
                sigma,
            });
        }
        for ig in pg.subs_named("internal_power") {
            let table_of = |name: &str| -> Result<Lut2> {
                ig.subs_named(name)
                    .next()
                    .map(|g| parse_table(g, ENERGY_SCALE))
                    .unwrap_or_else(|| Ok(Lut2::constant(0.0)))
            };
            power_arcs.push(PowerArc {
                related_pin: ig.attr("related_pin").unwrap_or("").to_string(),
                pin: pin_name.clone(),
                rise_energy: table_of("rise_power")?,
                fall_energy: table_of("fall_power")?,
            });
        }
    }
    let drive = name
        .rsplit('x')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    Ok(Cell {
        name,
        area,
        pins,
        arcs,
        power_arcs,
        leakage_states,
        ff,
        drive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_library() -> Library {
        let mut lib = Library::new("unit_lib", 10.0, 0.7);
        let inv = LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
        let grid = Lut2::new(
            vec![1e-12, 4e-12],
            vec![1e-15, 4e-15],
            vec![2e-12, 3e-12, 4e-12, 6e-12],
        )
        .unwrap();
        lib.add_cell(Cell {
            name: "INVx2".to_string(),
            area: 0.054,
            pins: vec![Pin::input("A", 0.35e-15), Pin::output("Y", inv)],
            arcs: vec![TimingArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                kind: ArcKind::Combinational,
                sense: TimingSense::NegativeUnate,
                cell_rise: grid.clone(),
                cell_fall: grid.scaled(0.9),
                rise_transition: grid.scaled(0.5),
                fall_transition: grid.scaled(0.45),
                sigma: None,
            }],
            power_arcs: vec![PowerArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                rise_energy: Lut2::constant(1.5e-18),
                fall_energy: Lut2::constant(1.2e-18),
            }],
            leakage_states: vec![(0, 0.8e-9), (1, 2.1e-9)],
            ff: None,
            drive: 2,
        });
        let dff_d = LogicFunction::from_eval(&["D"], |b| b & 1 != 0);
        lib.add_cell(Cell {
            name: "DFFx1".to_string(),
            area: 0.21,
            pins: vec![
                {
                    let mut p = Pin::input("CLK", 0.3e-15);
                    p.is_clock = true;
                    p
                },
                Pin::input("D", 0.25e-15),
                Pin::output("Q", dff_d),
            ],
            arcs: vec![
                TimingArc {
                    related_pin: "CLK".into(),
                    pin: "Q".into(),
                    kind: ArcKind::ClockToQ,
                    sense: TimingSense::NonUnate,
                    cell_rise: Lut2::constant(8e-12),
                    cell_fall: Lut2::constant(8.5e-12),
                    rise_transition: Lut2::constant(3e-12),
                    fall_transition: Lut2::constant(3e-12),
                    sigma: None,
                },
                TimingArc {
                    related_pin: "CLK".into(),
                    pin: "D".into(),
                    kind: ArcKind::Setup,
                    sense: TimingSense::NonUnate,
                    cell_rise: Lut2::constant(5e-12),
                    cell_fall: Lut2::constant(5e-12),
                    rise_transition: Lut2::constant(0.0),
                    fall_transition: Lut2::constant(0.0),
                    sigma: None,
                },
            ],
            power_arcs: vec![],
            leakage_states: vec![(0, 3e-9)],
            ff: Some(FfSpec {
                clocked_on: "CLK".into(),
                next_state: "D".into(),
                clear: None,
            }),
            drive: 1,
        });
        lib
    }

    #[test]
    fn writer_emits_liberty_markers() {
        let text = write_library(&sample_library());
        for marker in [
            "library (unit_lib) {",
            "cell (INVx2) {",
            "pin (Y) {",
            "timing () {",
            "related_pin : \"A\";",
            "index_1 (",
            "ff (IQ, IQN) {",
            "timing_type : setup_rising;",
        ] {
            assert!(text.contains(marker), "missing {marker:?}\n{text}");
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let lib = sample_library();
        let text = write_library(&lib);
        let back = parse_library(&text).expect("parse back");
        assert_eq!(back.name, lib.name);
        assert_eq!(back.temperature, lib.temperature);
        assert_eq!(back.len(), lib.len());
        let inv = back.cell("INVx2").unwrap();
        assert_eq!(inv.arcs.len(), 1);
        assert_eq!(inv.pins.len(), 2);
        assert_eq!(inv.leakage_states.len(), 2);
        let dff = back.cell("DFFx1").unwrap();
        assert!(dff.is_sequential());
        assert_eq!(dff.constraint_arcs().count(), 1);
        assert!(dff.pin("CLK").unwrap().is_clock);
    }

    #[test]
    fn round_trip_preserves_table_values() {
        let lib = sample_library();
        let back = parse_library(&write_library(&lib)).unwrap();
        let orig = &lib.cell("INVx2").unwrap().arcs[0];
        let rt = &back.cell("INVx2").unwrap().arcs[0];
        for (slew, load) in [(1e-12, 1e-15), (2.5e-12, 3e-15), (4e-12, 4e-15)] {
            let a = orig.cell_rise.lookup(slew, load);
            let b = rt.cell_rise.lookup(slew, load);
            assert!(
                (a - b).abs() < 1e-6 * a.abs().max(1e-15),
                "({slew:e},{load:e}): {a:e} vs {b:e}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_functions() {
        let lib = sample_library();
        let back = parse_library(&write_library(&lib)).unwrap();
        let f = back
            .cell("INVx2")
            .unwrap()
            .pin("Y")
            .unwrap()
            .function
            .clone()
            .expect("function survives");
        assert!(f.eval(0));
        assert!(!f.eval(1));
    }

    #[test]
    fn lvf_sigma_tables_round_trip_through_text() {
        let mut lib = sample_library();
        let grid = Lut2::new(
            vec![1e-12, 4e-12],
            vec![1e-15, 4e-15],
            vec![0.2e-12, 0.3e-12, 0.4e-12, 0.6e-12],
        )
        .unwrap();
        let mut inv = lib.cell("INVx2").unwrap().clone();
        inv.arcs[0].sigma = Some(ArcSigma {
            cell_rise: grid.clone(),
            cell_fall: grid.scaled(0.9),
            rise_transition: grid.scaled(0.5),
            fall_transition: grid.scaled(0.45),
        });
        lib.add_cell(inv);
        let text = write_library(&lib);
        assert!(text.contains("ocv_sigma_cell_rise () {"), "{text}");
        assert!(text.contains("ocv_sigma_fall_transition () {"));
        let back = parse_library(&text).unwrap();
        let rt = &back.cell("INVx2").unwrap().arcs[0];
        let sig = rt.sigma.as_ref().expect("sigma survives the round trip");
        for (slew, load) in [(1e-12, 1e-15), (2.5e-12, 3e-15), (4e-12, 4e-15)] {
            let a = grid.lookup(slew, load);
            let b = sig.cell_rise.lookup(slew, load);
            assert!(
                (a - b).abs() < 1e-6 * a.abs().max(1e-15),
                "({slew:e},{load:e}): {a:e} vs {b:e}"
            );
        }
        // The DFF was written without sigma and must come back without it.
        assert!(back.cell("DFFx1").unwrap().arcs[0].sigma.is_none());
    }

    #[test]
    fn parser_rejects_unbalanced_braces() {
        let err = parse_library("library (x) {\n  cell (a) {\n").unwrap_err();
        assert!(matches!(err, LibertyError::Parse { .. }));
        let err2 = parse_library("}\n").unwrap_err();
        assert!(matches!(err2, LibertyError::Parse { .. }));
    }

    #[test]
    fn parser_rejects_garbage_line() {
        let err = parse_library("library (x) {\n  what is this\n}\n").unwrap_err();
        assert!(matches!(err, LibertyError::Parse { .. }));
    }

    #[test]
    fn corrupt_table_token_is_a_structured_diagnostic_not_a_silent_drop() {
        let text = write_library(&sample_library());
        // Damage one table value the way a bad sector would: replace a
        // number with junk. The parser must refuse, naming the attribute.
        let damaged = text.replacen("2.000000", "2.0#!000", 1);
        assert_ne!(text, damaged, "damage site must exist");
        let err = parse_library(&damaged).unwrap_err();
        match err {
            LibertyError::MalformedTable { reason } => {
                assert!(reason.contains("unparsable number"), "{reason}");
            }
            other => panic!("expected MalformedTable, got {other:?}"),
        }
    }

    #[test]
    fn injected_ingest_fault_surfaces_as_malformed_table() {
        let text = write_library(&sample_library());
        let plan = fault::FaultPlan {
            liberty_ingest: 1.0,
            max_injections: Some(1),
            ..fault::FaultPlan::new(11)
        };
        let _g = fault::install_guard(plan);
        let err = parse_library(&text).unwrap_err();
        assert!(
            matches!(err, LibertyError::MalformedTable { .. }),
            "truncated ingest must be a structured table error, got {err:?}"
        );
        assert_eq!(fault::injection_count(), 1);
        drop(_g);
        assert!(parse_library(&text).is_ok(), "clean parse once disarmed");
    }
}
