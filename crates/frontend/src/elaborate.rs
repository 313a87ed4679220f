//! Elaboration ("quick synthesis") of the parsed AST into a word-level netlist.
//!
//! Mirroring the paper's front end, no logic optimisation is performed: the
//! AST is mapped 1:1 onto word-level primitives — expressions become
//! arithmetic units, comparators and Boolean gates, `?:` and `if`/`else`
//! become multiplexor trees, and every `reg` assigned under
//! `always @(posedge clk)` becomes a D flip-flop whose next-state value is
//! the mux tree described by the block.

use crate::ast::*;
use crate::error::FrontendError;
use crate::MAX_WIDTH;
use std::collections::{BTreeMap, HashMap};
use wlac_bv::Bv;
use wlac_netlist::{GateId, GateKind, NetId, Netlist};

#[derive(Debug, Clone, Copy)]
struct Signal {
    net: NetId,
    width: usize,
    is_reg: bool,
}

/// Parses and elaborates Verilog source into a word-level netlist.
///
/// # Errors
///
/// Returns a [`FrontendError`] for syntax errors, references to undeclared
/// signals, width-zero declarations, registers assigned outside
/// always-blocks, and similar elaboration problems, and for source past the
/// front end's bounds: expressions nested deeper than
/// [`MAX_EXPR_DEPTH`](crate::MAX_EXPR_DEPTH) levels, and ranges, sized
/// literals or concatenations wider than [`MAX_WIDTH`] bits.
///
/// # Examples
///
/// ```
/// let source = r#"
///     module sat_sub(input [7:0] a, input [7:0] b, output [7:0] y);
///       assign y = (a > b) ? (a - b) : 8'd0;
///     endmodule
/// "#;
/// let netlist = wlac_frontend::compile(source)?;
/// assert_eq!(netlist.name(), "sat_sub");
/// assert_eq!(netlist.inputs().len(), 2);
/// # Ok::<(), wlac_frontend::FrontendError>(())
/// ```
pub fn compile(source: &str) -> Result<Netlist, FrontendError> {
    let module = crate::parser::parse_module(source)?;
    let mut netlist = elaborate(&module)?;
    netlist.set_source_lines(source.lines().filter(|l| !l.trim().is_empty()).count());
    Ok(netlist)
}

/// Elaborates a parsed [`Module`] into a word-level netlist.
///
/// # Errors
///
/// See [`compile`].
pub fn elaborate(module: &Module) -> Result<Netlist, FrontendError> {
    Elaborator::new(module).run()
}

struct Elaborator<'a> {
    module: &'a Module,
    netlist: Netlist,
    signals: HashMap<String, Signal>,
    registers: HashMap<String, GateId>,
}

impl<'a> Elaborator<'a> {
    fn new(module: &'a Module) -> Self {
        Elaborator {
            module,
            netlist: Netlist::new(module.name.clone()),
            signals: HashMap::new(),
            registers: HashMap::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> FrontendError {
        FrontendError::new(message, 0)
    }

    fn run(mut self) -> Result<Netlist, FrontendError> {
        self.declare_signals()?;
        for assign in &self.module.assigns {
            self.elaborate_assign(assign)?;
        }
        for block in &self.module.always_blocks {
            self.elaborate_always(block)?;
        }
        // Mark the output ports.
        for port in &self.module.ports {
            if port.direction == Direction::Output {
                let signal = self.signals[&port.name];
                self.netlist.mark_output(port.name.clone(), signal.net);
            }
        }
        Ok(self.netlist)
    }

    fn declare_signals(&mut self) -> Result<(), FrontendError> {
        // Clock names never carry data; they are still declared as inputs.
        for port in &self.module.ports {
            if port.width == 0 {
                return Err(self.error(format!("port `{}` has zero width", port.name)));
            }
            let signal = match port.direction {
                Direction::Input => Signal {
                    net: self.netlist.input(port.name.clone(), port.width),
                    width: port.width,
                    is_reg: false,
                },
                Direction::Output => self.declare_internal(&port.name, port.width, port.is_reg),
            };
            if self.signals.insert(port.name.clone(), signal).is_some() {
                return Err(self.error(format!("duplicate declaration of `{}`", port.name)));
            }
        }
        for decl in &self.module.declarations {
            if decl.width == 0 {
                return Err(self.error(format!("signal `{}` has zero width", decl.name)));
            }
            if self.signals.contains_key(&decl.name) {
                return Err(self.error(format!("duplicate declaration of `{}`", decl.name)));
            }
            let signal = self.declare_internal(&decl.name, decl.width, decl.is_reg);
            self.signals.insert(decl.name.clone(), signal);
        }
        Ok(())
    }

    fn declare_internal(&mut self, name: &str, width: usize, is_reg: bool) -> Signal {
        if is_reg {
            let (q, ff) = self.netlist.dff_deferred(width, Some(Bv::zero(width)));
            self.registers.insert(name.to_string(), ff);
            Signal {
                net: q,
                width,
                is_reg: true,
            }
        } else {
            let net = self.netlist.add_named_net(width, Some(name.to_string()));
            Signal {
                net,
                width,
                is_reg: false,
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<Signal, FrontendError> {
        self.signals
            .get(name)
            .copied()
            .ok_or_else(|| self.error(format!("reference to undeclared signal `{name}`")))
    }

    fn elaborate_assign(&mut self, assign: &Assign) -> Result<(), FrontendError> {
        let target = self.lookup(&assign.target)?;
        if target.is_reg {
            return Err(self.error(format!(
                "`{}` is a reg and must be assigned in an always block",
                assign.target
            )));
        }
        let value = self.expr(&assign.expr)?;
        let value = self.coerce(value, target.width);
        self.netlist
            .add_gate(GateKind::Buf, vec![value], target.net)
            .map_err(|e| self.error(format!("cannot drive `{}`: {e}", assign.target)))?;
        Ok(())
    }

    fn elaborate_always(&mut self, block: &AlwaysBlock) -> Result<(), FrontendError> {
        // The clock must at least be a declared signal.
        self.lookup(&block.clock)?;
        // Start from "hold": every register keeps its value.
        let mut current: BTreeMap<String, NetId> = self
            .signals
            .iter()
            .filter(|(_, s)| s.is_reg)
            .map(|(name, s)| (name.clone(), s.net))
            .collect();
        self.apply_statements(&block.body, &mut current)?;
        for (name, next) in current {
            let signal = self.signals[&name];
            if next != signal.net {
                let ff = self.registers[&name];
                self.netlist.connect_dff_data(ff, next);
            }
        }
        Ok(())
    }

    fn apply_statements(
        &mut self,
        statements: &[Statement],
        current: &mut BTreeMap<String, NetId>,
    ) -> Result<(), FrontendError> {
        for statement in statements {
            match statement {
                Statement::NonBlocking { target, expr } => {
                    let signal = self.lookup(target)?;
                    if !signal.is_reg {
                        return Err(
                            self.error(format!("non-blocking assignment to non-reg `{target}`"))
                        );
                    }
                    let value = self.expr(expr)?;
                    let value = self.coerce(value, signal.width);
                    current.insert(target.clone(), value);
                }
                Statement::If {
                    condition,
                    then_body,
                    else_body,
                } => {
                    let cond = self.expr(condition)?;
                    let cond = self.bool_net(cond);
                    let mut then_map = current.clone();
                    let mut else_map = current.clone();
                    self.apply_statements(then_body, &mut then_map)?;
                    self.apply_statements(else_body, &mut else_map)?;
                    for (name, base) in current.iter_mut() {
                        let t = then_map[name];
                        let e = else_map[name];
                        if t != e {
                            *base = self.netlist.mux(cond, t, e);
                        } else {
                            *base = t;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn coerce(&mut self, net: NetId, width: usize) -> NetId {
        let have = self.netlist.net_width(net);
        if have == width {
            net
        } else if have < width {
            self.netlist.zext(net, width)
        } else {
            self.netlist.slice(net, 0, width)
        }
    }

    fn bool_net(&mut self, net: NetId) -> NetId {
        if self.netlist.net_width(net) == 1 {
            net
        } else {
            self.netlist.reduce_or(net)
        }
    }

    fn expr(&mut self, expr: &Expr) -> Result<NetId, FrontendError> {
        match expr {
            Expr::Identifier(name) => Ok(self.lookup(name)?.net),
            Expr::Literal { width, value } => Ok(self
                .netlist
                .constant(&Bv::from_u64((*width).max(1), *value))),
            Expr::Select { name, high, low } => {
                let signal = self.lookup(name)?;
                if *high < *low || *high >= signal.width {
                    return Err(self.error(format!(
                        "bit select `{name}[{high}:{low}]` out of range for width {}",
                        signal.width
                    )));
                }
                Ok(self.netlist.slice(signal.net, *low, high - low + 1))
            }
            Expr::Concat(parts) => {
                let mut nets = Vec::with_capacity(parts.len());
                let mut width = 0;
                for part in parts {
                    let net = self.expr(part)?;
                    width += self.netlist.net_width(net);
                    if width > MAX_WIDTH {
                        return Err(self.error(format!(
                            "concatenation wider than the limit of {MAX_WIDTH} bits"
                        )));
                    }
                    nets.push(net);
                }
                let mut iter = nets.into_iter();
                let mut acc = iter
                    .next()
                    .ok_or_else(|| self.error("empty concatenation"))?;
                for low in iter {
                    acc = self.netlist.concat(acc, low);
                }
                Ok(acc)
            }
            Expr::Unary { op, operand } => {
                let value = self.expr(operand)?;
                Ok(match op {
                    UnaryOp::Not => self.netlist.not(value),
                    UnaryOp::LogicalNot => {
                        let b = self.bool_net(value);
                        self.netlist.not(b)
                    }
                    UnaryOp::ReduceAnd => self.netlist.reduce_and(value),
                    UnaryOp::ReduceOr => self.netlist.reduce_or(value),
                    UnaryOp::ReduceXor => self.netlist.reduce_xor(value),
                })
            }
            Expr::Binary { op, left, right } => {
                let l = self.expr(left)?;
                let r = self.expr(right)?;
                self.binary(*op, l, r)
            }
            Expr::Conditional {
                condition,
                then_value,
                else_value,
            } => {
                let cond = self.expr(condition)?;
                let cond = self.bool_net(cond);
                let t = self.expr(then_value)?;
                let e = self.expr(else_value)?;
                let width = self.netlist.net_width(t).max(self.netlist.net_width(e));
                let t = self.coerce(t, width);
                let e = self.coerce(e, width);
                Ok(self.netlist.mux(cond, t, e))
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, l: NetId, r: NetId) -> Result<NetId, FrontendError> {
        let width = self.netlist.net_width(l).max(self.netlist.net_width(r));
        let balanced = |this: &mut Self| {
            let lw = this.coerce(l, width);
            let rw = this.coerce(r, width);
            (lw, rw)
        };
        Ok(match op {
            BinaryOp::Add => {
                let (l, r) = balanced(self);
                self.netlist.add(l, r)
            }
            BinaryOp::Sub => {
                let (l, r) = balanced(self);
                self.netlist.sub(l, r)
            }
            BinaryOp::Mul => {
                let (l, r) = balanced(self);
                self.netlist.mul(l, r)
            }
            BinaryOp::And => {
                let (l, r) = balanced(self);
                self.netlist.and2(l, r)
            }
            BinaryOp::Or => {
                let (l, r) = balanced(self);
                self.netlist.or2(l, r)
            }
            BinaryOp::Xor => {
                let (l, r) = balanced(self);
                self.netlist.xor2(l, r)
            }
            BinaryOp::Eq => {
                let (l, r) = balanced(self);
                self.netlist.eq(l, r)
            }
            BinaryOp::Ne => {
                let (l, r) = balanced(self);
                self.netlist.ne(l, r)
            }
            BinaryOp::Lt => {
                let (l, r) = balanced(self);
                self.netlist.lt(l, r)
            }
            BinaryOp::Le => {
                let (l, r) = balanced(self);
                self.netlist.le(l, r)
            }
            BinaryOp::Gt => {
                let (l, r) = balanced(self);
                self.netlist.gt(l, r)
            }
            BinaryOp::Ge => {
                let (l, r) = balanced(self);
                self.netlist.ge(l, r)
            }
            BinaryOp::Shl => self.netlist.shl(l, r),
            BinaryOp::Shr => self.netlist.shr(l, r),
            BinaryOp::LogicalAnd => {
                let lb = self.bool_net(l);
                let rb = self.bool_net(r);
                self.netlist.and2(lb, rb)
            }
            BinaryOp::LogicalOr => {
                let lb = self.bool_net(l);
                let rb = self.bool_net(r);
                self.netlist.or2(lb, rb)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;
    use wlac_bv::Bv;
    use wlac_sim::{simulate, Simulator};

    #[test]
    fn combinational_module_simulates_correctly() {
        let nl = compile(
            r#"
            module sat_sub(input [7:0] a, input [7:0] b, output [7:0] y);
              assign y = (a > b) ? (a - b) : 8'd0;
            endmodule
            "#,
        )
        .unwrap();
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let y = nl.find_net("y").unwrap();
        for (av, bv, expect) in [(9u64, 3u64, 6u64), (3, 9, 0), (200, 200, 0)] {
            let inputs: Map<_, _> = [(a, Bv::from_u64(8, av)), (b, Bv::from_u64(8, bv))]
                .into_iter()
                .collect();
            let run = simulate(&nl, &[], &[inputs]).unwrap();
            assert_eq!(run.value(0, y).to_u64(), Some(expect), "{av} - {bv}");
        }
    }

    #[test]
    fn sequential_counter_elaborates_to_flip_flops() {
        let nl = compile(
            r#"
            module counter(input clk, input rst, input en, output reg [3:0] q);
              always @(posedge clk) begin
                if (rst)
                  q <= 4'd0;
                else if (en)
                  q <= q + 4'd1;
              end
            endmodule
            "#,
        )
        .unwrap();
        assert_eq!(nl.stats().flip_flop_bits, 4);
        let rst = nl.find_net("rst").unwrap();
        let en = nl.find_net("en").unwrap();
        let q = nl.find_net("q").unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let one = Bv::from_u64(1, 1);
        let zero = Bv::from_u64(1, 0);
        sim.step(&[(rst, zero.clone()), (en, one.clone())]).unwrap();
        sim.step(&[(rst, zero.clone()), (en, one.clone())]).unwrap();
        sim.step(&[(rst, zero.clone()), (en, zero.clone())])
            .unwrap();
        assert_eq!(sim.net_value(q).to_u64(), Some(2));
        sim.step(&[(rst, one), (en, zero)]).unwrap();
        assert_eq!(sim.net_value(q).to_u64(), Some(0));
    }

    #[test]
    fn selects_concats_and_shifts() {
        let nl = compile(
            r#"
            module mix(input [7:0] a, input [2:0] s, output [7:0] y, output msb);
              wire [7:0] rotated;
              assign rotated = (a << s) | (a >> 3'd4);
              assign y = {rotated[3:0], a[7:4]};
              assign msb = a[7];
            endmodule
            "#,
        )
        .unwrap();
        let a = nl.find_net("a").unwrap();
        let s = nl.find_net("s").unwrap();
        let y = nl.find_net("y").unwrap();
        let msb = nl.find_net("msb").unwrap();
        let inputs: Map<_, _> = [(a, Bv::from_u64(8, 0xa5)), (s, Bv::from_u64(3, 1))]
            .into_iter()
            .collect();
        let run = simulate(&nl, &[], &[inputs]).unwrap();
        let rotated = ((0xa5u64 << 1) | (0xa5 >> 4)) & 0xff;
        let expect = ((rotated & 0xf) << 4) | (0xa5 >> 4);
        assert_eq!(run.value(0, y).to_u64(), Some(expect));
        assert_eq!(run.value(0, msb).to_u64(), Some(1));
    }

    #[test]
    fn undeclared_signal_is_an_error() {
        let err = compile("module bad(input a, output y); assign y = a & missing; endmodule")
            .unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn assign_to_reg_is_an_error() {
        let err =
            compile("module bad(input clk, output reg q); assign q = 1'd1; endmodule").unwrap_err();
        assert!(err.to_string().contains("always block"));
    }

    #[test]
    fn checked_end_to_end_with_the_atpg_engine() {
        // The elaborated design feeds straight into the assertion checker.
        let nl = compile(
            r#"
            module modulo5(input clk, input tick, output reg [2:0] cnt);
              always @(posedge clk) begin
                if (tick)
                  if (cnt == 3'd4)
                    cnt <= 3'd0;
                  else
                    cnt <= cnt + 3'd1;
              end
            endmodule
            "#,
        )
        .unwrap();
        let cnt = nl.find_net("cnt").unwrap();
        let mut design = nl.clone();
        let five = design.constant(&Bv::from_u64(3, 5));
        let ok = design.lt(cnt, five);
        let property = wlac_atpg::Property::always(&design, "cnt_below_5", ok);
        let verification = wlac_atpg::Verification::new(design, property);
        let options = wlac_atpg::CheckerOptions {
            max_frames: 5,
            ..wlac_atpg::CheckerOptions::default()
        };
        let report = wlac_atpg::AssertionChecker::new(options).check(&verification);
        assert!(report.result.is_pass(), "got {:?}", report.result);
    }

    #[test]
    fn elaboration_is_deterministic_across_compiles() {
        // Multi-register always blocks exercise the register-map merge; the
        // same source must elaborate to the identical netlist every time
        // (hash-keyed consumers — the verification service's design
        // registry, on-disk snapshots — depend on it).
        let source = r#"
            module two_regs(input clk, input go, output ok);
              reg [7:0] acc;
              reg [1:0] stage;
              always @(posedge clk) begin
                if (stage == 0) begin
                  if (go) begin
                    acc <= acc + 8'd1;
                    stage <= 1;
                  end
                end else
                  stage <= 0;
              end
              assign ok = stage != 3;
            endmodule
            "#;
        let first = compile(source).unwrap();
        for _ in 0..10 {
            let again = compile(source).unwrap();
            assert_eq!(again.net_count(), first.net_count());
            assert_eq!(again.gate_count(), first.gate_count());
            for ((_, a), (_, b)) in again.gates().zip(first.gates()) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.output, b.output);
                assert_eq!(a.inputs.to_vec(), b.inputs.to_vec());
            }
            assert_eq!(again.inputs(), first.inputs());
            assert_eq!(again.outputs(), first.outputs());
        }
    }
}
