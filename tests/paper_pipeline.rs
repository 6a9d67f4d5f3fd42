//! Every builtin component implementation through the full generation path
//! (expand → synthesize → size → estimate) with behavioral verification by
//! simulation — the paper's correctness check (§4.3) applied across the
//! whole generic component library.

use icdb::sim::{Logic, Simulator};
use icdb::{ComponentRequest, Icdb};

fn generate(icdb: &mut Icdb, imp: &str, attrs: &[(&str, &str)]) -> String {
    let mut req = ComponentRequest::by_implementation(imp);
    for (k, v) in attrs {
        req = req.attribute(*k, *v);
    }
    icdb.request_component(&req)
        .unwrap_or_else(|e| panic!("{imp} failed to generate: {e}"))
}

#[test]
fn every_builtin_generates_with_default_attributes() {
    let mut icdb = Icdb::new();
    let names: Vec<String> = icdb.library.iter().map(|c| c.name.clone()).collect();
    for imp in names {
        let name = generate(&mut icdb, &imp, &[]);
        let inst = icdb.instance(&name).unwrap();
        assert!(!inst.netlist.gates.is_empty(), "{imp} produced no gates");
        assert!(!inst.shape.alternatives.is_empty(), "{imp} has no shapes");
        assert!(inst.shape.is_staircase(), "{imp} shape not a staircase");
    }
}

#[test]
fn whole_library_generates_well_under_five_minutes() {
    // §4.4: "ICDB can generate the gate-level netlist for most
    // microarchitecture components under five minutes."
    let start = std::time::Instant::now();
    let mut icdb = Icdb::new();
    let names: Vec<String> = icdb.library.iter().map(|c| c.name.clone()).collect();
    let count = names.len();
    for imp in names {
        generate(&mut icdb, &imp, &[]);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 300,
        "library generation took {elapsed:?} for {count} components"
    );
}

#[test]
fn adder_adds_sixteen_bits() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "ADDER", &[("size", "16")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    let mut rng: u64 = 0xDEADBEEFCAFE;
    for _ in 0..25 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (rng >> 10) & 0xFFFF;
        let b = (rng >> 30) & 0xFFFF;
        let cin = rng >> 63;
        sim.set_bus("I0", 16, a).unwrap();
        sim.set_bus("I1", 16, b).unwrap();
        sim.set_by_name("Cin", Logic::from_bool(cin == 1)).unwrap();
        sim.propagate();
        let sum = sim.bus("O", 16).unwrap();
        let cout = sim.get_by_name("Cout").unwrap().to_bool().unwrap() as u64;
        assert_eq!((cout << 16) | sum, a + b + cin);
    }
}

#[test]
fn incrementer_increments() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "INCREMENTER", &[("size", "6")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for v in [0u64, 1, 31, 62, 63] {
        sim.set_bus("I", 6, v).unwrap();
        sim.set_by_name("EN", Logic::One).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 6).unwrap(), (v + 1) & 0x3F, "inc {v}");
        sim.set_by_name("EN", Logic::Zero).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 6).unwrap(), v, "pass-through {v}");
    }
}

#[test]
fn comparator_computes_all_relations() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "COMPARATOR", &[("size", "4")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for (a, b) in [(3u64, 3u64), (5, 2), (2, 5), (15, 0), (0, 0), (7, 8)] {
        sim.set_bus("A", 4, a).unwrap();
        sim.set_bus("B", 4, b).unwrap();
        sim.propagate();
        let read = |s: &Simulator, n: &str| s.get_by_name(n).unwrap().to_bool().unwrap();
        assert_eq!(read(&sim, "OEQ"), a == b, "{a} EQ {b}");
        assert_eq!(read(&sim, "ONEQ"), a != b, "{a} NEQ {b}");
        assert_eq!(read(&sim, "OGT"), a > b, "{a} GT {b}");
        assert_eq!(read(&sim, "OGEQ"), a >= b, "{a} GE {b}");
        assert_eq!(read(&sim, "OLT"), a < b, "{a} LT {b}");
        assert_eq!(read(&sim, "OLEQ"), a <= b, "{a} LE {b}");
    }
}

#[test]
fn mux_selects() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "MUX", &[("size", "8")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_bus("I0", 8, 0xA5).unwrap();
    sim.set_bus("I1", 8, 0x3C).unwrap();
    sim.set_by_name("S", Logic::Zero).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), 0xA5);
    sim.set_by_name("S", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), 0x3C);
}

#[test]
fn decoder_is_one_hot_and_encoder_inverts_it() {
    let mut icdb = Icdb::new();
    let dec = generate(&mut icdb, "DECODER", &[("n", "3")]);
    let inst = icdb.instance(&dec).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for v in 0..8u64 {
        sim.set_bus("I", 3, v).unwrap();
        sim.set_by_name("EN", Logic::One).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 8).unwrap(), 1 << v, "decode {v}");
    }
    sim.set_by_name("EN", Logic::Zero).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), 0, "disabled decoder");

    let enc = generate(&mut icdb, "ENCODER", &[("n", "3")]);
    let inst = icdb.instance(&enc).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for v in 0..8u64 {
        sim.set_bus("I", 8, 1 << v).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 3).unwrap(), v, "encode one-hot {v}");
    }
}

#[test]
fn logic_unit_implements_its_connection_table() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "LOGIC_UNIT", &[("size", "4")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    let (a, b) = (0b1100u64, 0b1010u64);
    sim.set_bus("A", 4, a).unwrap();
    sim.set_bus("B", 4, b).unwrap();
    // (C1, C0) → function, as published in the connection table.
    let cases = [
        ((0u64, 0u64), a & b),
        ((0, 1), a | b),
        ((1, 0), a ^ b),
        ((1, 1), !a & 0xF),
    ];
    for ((c1, c0), expect) in cases {
        sim.set_by_name("C1", Logic::from_bool(c1 == 1)).unwrap();
        sim.set_by_name("C0", Logic::from_bool(c0 == 1)).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 4).unwrap(), expect, "C1={c1} C0={c0}");
    }
}

#[test]
fn alu_arithmetic_and_logic_modes() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "ALU", &[("size", "8")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    let (a, b) = (0x5Du64, 0x2Fu64);
    sim.set_bus("A", 8, a).unwrap();
    sim.set_bus("B", 8, b).unwrap();
    sim.set_by_name("C0", Logic::Zero).unwrap();
    sim.set_by_name("C1", Logic::Zero).unwrap();

    sim.set_by_name("MODE", Logic::Zero).unwrap();
    sim.set_by_name("ASCTL", Logic::Zero).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), (a + b) & 0xFF, "ADD");

    sim.set_by_name("ASCTL", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), a.wrapping_sub(b) & 0xFF, "SUB");

    sim.set_by_name("MODE", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), a & b, "AND");

    sim.set_by_name("C0", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), a | b, "OR");

    sim.set_by_name("C0", Logic::Zero).unwrap();
    sim.set_by_name("C1", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 8).unwrap(), a ^ b, "XOR");
}

#[test]
fn register_loads_and_holds() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "REGISTER", &[("size", "8")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_by_name("CLK", Logic::Zero).unwrap();
    sim.set_bus("D", 8, 0x77).unwrap();
    sim.set_by_name("LOAD", Logic::One).unwrap();
    sim.pulse("CLK").unwrap();
    assert_eq!(sim.bus("Q", 8).unwrap(), 0x77, "loaded");
    sim.set_bus("D", 8, 0x11).unwrap();
    sim.set_by_name("LOAD", Logic::Zero).unwrap();
    sim.pulse("CLK").unwrap();
    assert_eq!(sim.bus("Q", 8).unwrap(), 0x77, "held");
}

#[test]
fn shift_register_shifts_serially() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "SHIFT_REGISTER", &[("size", "4")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_by_name("CLK", Logic::Zero).unwrap();
    sim.set_bus("D", 4, 0b0001).unwrap();
    sim.set_by_name("LOAD", Logic::One).unwrap();
    sim.set_by_name("SIN", Logic::Zero).unwrap();
    sim.pulse("CLK").unwrap();
    assert_eq!(sim.bus("Q", 4).unwrap(), 0b0001);
    sim.set_by_name("LOAD", Logic::Zero).unwrap();
    for expect in [0b0010u64, 0b0100, 0b1000] {
        sim.pulse("CLK").unwrap();
        assert_eq!(sim.bus("Q", 4).unwrap(), expect, "shifting");
    }
    assert_eq!(
        sim.get_by_name("SOUT").unwrap(),
        Logic::One,
        "MSB reaches serial out"
    );
}

#[test]
fn shifter_shifts_by_fixed_distance() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "SHL0", &[("size", "8"), ("shift_distance", "3")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for v in [0b1u64, 0b1011, 0xFF] {
        sim.set_bus("I", 8, v).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("O", 8).unwrap(), (v << 3) & 0xFF, "shl3 {v:#x}");
    }
}

#[test]
fn tristate_driver_floats_when_disabled() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "TRISTATE_DRIVER", &[("size", "2")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_bus("D", 2, 0b11).unwrap();
    sim.set_by_name("EN", Logic::One).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("O", 2).unwrap(), 0b11);
    sim.set_by_name("EN", Logic::Zero).unwrap();
    sim.propagate();
    assert_eq!(sim.get_by_name("O[0]").unwrap(), Logic::Z, "floats");
    assert_eq!(sim.get_by_name("O[1]").unwrap(), Logic::Z, "floats");
}

#[test]
fn parity_and_wide_gates() {
    let mut icdb = Icdb::new();
    let par = generate(&mut icdb, "PARITY", &[("size", "9")]);
    let inst = icdb.instance(&par).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    for v in [0u64, 1, 0b101010101, 0x1FF] {
        sim.set_bus("I", 9, v).unwrap();
        sim.propagate();
        let expect = (v.count_ones() % 2) == 1;
        assert_eq!(
            sim.get_by_name("O").unwrap(),
            Logic::from_bool(expect),
            "parity of {v:#b}"
        );
    }

    let and = generate(&mut icdb, "AND_GATE", &[("size", "7")]);
    let inst = icdb.instance(&and).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_bus("I0", 7, 0x7F).unwrap();
    sim.propagate();
    assert_eq!(sim.get_by_name("O").unwrap(), Logic::One);
    sim.set_bus("I0", 7, 0x7E).unwrap();
    sim.propagate();
    assert_eq!(sim.get_by_name("O").unwrap(), Logic::Zero);
}

#[test]
fn vhdl_views_emit_and_reparse() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "ADDER", &[("size", "4")]);
    let netlist_text = icdb.vhdl_netlist(&name).unwrap();
    let head = icdb.vhdl_head(&name).unwrap();
    assert!(head.contains("entity adder is"));
    let parsed = icdb::vhdl::parse_netlist(&netlist_text).unwrap();
    assert_eq!(
        parsed.instances.len(),
        icdb.instance(&name).unwrap().netlist.gates.len()
    );
}

#[test]
fn cluster_request_from_vhdl_netlist() {
    // The partitioner's flow (Appendix B §6.3): wrap two generated
    // instances in a VHDL netlist, request the cluster, get estimates.
    let mut icdb = Icdb::new();
    let a = generate(&mut icdb, "REGISTER", &[("size", "2")]);
    let b = generate(&mut icdb, "INCREMENTER", &[("size", "2")]);
    let cluster = format!(
        "entity cluster_1 is
           port ( clk : in bit; load : in bit; en : in bit;
                  d0, d1 : in bit; o0, o1 : out bit; co : out bit );
         end cluster_1;
         architecture structural of cluster_1 is
           signal q0, q1 : bit;
         begin
           u_reg : {a} port map (CLK => clk, LOAD => load,
                                 D_0x => d0, D_1x => d1,
                                 Q_0x => q0, Q_1x => q1);
           u_inc : {b} port map (EN => en, I_0x => q0, I_1x => q1,
                                 O_0x => o0, O_1x => o1, Cout => co);
         end structural;"
    );
    let name = icdb
        .request_component(&icdb::ComponentRequest::from_vhdl(cluster))
        .unwrap();
    let inst = icdb.instance(&name).unwrap();
    let expected = icdb.instance(&a).unwrap().netlist.gates.len()
        + icdb.instance(&b).unwrap().netlist.gates.len();
    assert_eq!(
        inst.netlist.gates.len(),
        expected,
        "cluster merges both netlists"
    );
    assert!(
        inst.report.clock_width > 0.0,
        "cluster has sequential timing"
    );
    assert!(!inst.shape.alternatives.is_empty());
}

#[test]
fn control_logic_from_inline_iif() {
    // The control-logic generation path (§3.2.2, specification type 3).
    let mut icdb = Icdb::new();
    let src = "
NAME: CTRL;
INORDER: CLK, RST, OPA, OPB;
OUTORDER: RD, WR;
PIIFVARIABLE: S;
{
  S = (OPA (+) S) @(~r CLK) ~a(0/RST);
  RD = S * OPB;
  WR = !S * OPB;
}";
    let name = icdb
        .request_component(&icdb::ComponentRequest::from_iif(src))
        .unwrap();
    let inst = icdb.instance(&name).unwrap();
    assert_eq!(inst.implementation, "iif");
    assert!(inst.report.clock_width > 0.0);
    assert!(icdb.delay_string(&name).unwrap().contains("SD OPA"));
}

#[test]
fn carry_select_adder_adds_and_is_faster_than_ripple() {
    let mut icdb = Icdb::new();
    let csel = generate(&mut icdb, "CSEL_ADDER", &[("size", "16"), ("block", "4")]);
    let ripple = generate(&mut icdb, "ADDER", &[("size", "16")]);
    // Behavioral check.
    let inst = icdb.instance(&csel).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    let mut rng: u64 = 0x1234_5678_9ABC;
    for _ in 0..20 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (rng >> 5) & 0xFFFF;
        let b = (rng >> 25) & 0xFFFF;
        let cin = rng >> 63;
        sim.set_bus("I0", 16, a).unwrap();
        sim.set_bus("I1", 16, b).unwrap();
        sim.set_by_name("Cin", Logic::from_bool(cin == 1)).unwrap();
        sim.propagate();
        let sum = sim.bus("O", 16).unwrap();
        let cout = sim.get_by_name("Cout").unwrap().to_bool().unwrap() as u64;
        assert_eq!((cout << 16) | sum, a + b + cin, "{a}+{b}+{cin}");
    }
    // The architectural point of carry select: shorter critical path,
    // larger area than the plain ripple adder.
    let c = icdb.instance(&csel).unwrap();
    let r = icdb.instance(&ripple).unwrap();
    let c_delay = c.report.output_delay("Cout").unwrap();
    let r_delay = r.report.output_delay("Cout").unwrap();
    assert!(
        c_delay < r_delay,
        "carry-select Cout {c_delay:.1} ns must beat ripple {r_delay:.1} ns"
    );
    assert!(c.area() > r.area(), "speed is bought with area");
}

#[test]
fn barrel_rotator_rotates() {
    let mut icdb = Icdb::new();
    let name = generate(
        &mut icdb,
        "BARREL_ROTATOR",
        &[("size", "8"), ("stages", "3")],
    );
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    let value = 0b1000_0110u64;
    for amount in 0..8u64 {
        sim.set_bus("I", 8, value).unwrap();
        sim.set_bus("S", 3, amount).unwrap();
        sim.propagate();
        let got = sim.bus("O", 8).unwrap();
        let expect = ((value << amount) | (value >> (8 - amount).min(63))) & 0xFF;
        let expect = if amount == 0 { value } else { expect };
        assert_eq!(got, expect, "rotl {value:#010b} by {amount}");
    }
}

#[test]
fn register_file_writes_and_reads_all_words() {
    let mut icdb = Icdb::new();
    let name = generate(&mut icdb, "REGISTER_FILE", &[("size", "4"), ("abits", "2")]);
    let inst = icdb.instance(&name).unwrap().clone();
    let mut sim = Simulator::new(&inst.netlist, &icdb.cells).unwrap();
    sim.set_by_name("CLK", Logic::Zero).unwrap();
    // Write distinct values to the four words.
    for w in 0..4u64 {
        sim.set_bus("WA", 2, w).unwrap();
        sim.set_bus("D", 4, 0x9 ^ (w * 3)).unwrap();
        sim.set_by_name("WE", Logic::One).unwrap();
        sim.pulse("CLK").unwrap();
    }
    sim.set_by_name("WE", Logic::Zero).unwrap();
    // Read them back through the combinational read port.
    for w in 0..4u64 {
        sim.set_bus("RA", 2, w).unwrap();
        sim.propagate();
        assert_eq!(sim.bus("Q", 4).unwrap(), (0x9 ^ (w * 3)) & 0xF, "word {w}");
    }
    // A write with WE low must not disturb the stored words.
    sim.set_bus("WA", 2, 1).unwrap();
    sim.set_bus("D", 4, 0xF).unwrap();
    sim.pulse("CLK").unwrap();
    sim.set_bus("RA", 2, 1).unwrap();
    sim.propagate();
    assert_eq!(sim.bus("Q", 4).unwrap(), (0x9 ^ 3) & 0xF, "WE low holds");
}

/// A shape estimate depends only on the netlist: 64 fresh servers
/// generating the same comparator must all answer the same shape
/// function, or crash recovery could re-derive a different shape than the
/// one first answered.
#[test]
fn shape_estimates_are_identical_across_fresh_servers() {
    let shapes: std::collections::BTreeSet<String> = (0..64)
        .map(|_| {
            let mut icdb = Icdb::new();
            let name = generate(&mut icdb, "COMPARATOR", &[("size", "3")]);
            icdb.shape_string(&name).unwrap()
        })
        .collect();
    assert_eq!(shapes.len(), 1, "distinct shape functions: {shapes:#?}");
}
