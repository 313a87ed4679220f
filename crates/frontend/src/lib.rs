//! # wlac-frontend — a Verilog-subset front end
//!
//! The paper's prototype uses a commercial HDL parser and a "quick
//! synthesis" step to turn RTL Verilog/VHDL into a netlist of word-level
//! primitives. This crate is the open substitution: a parser and elaborator
//! for a synthesizable Verilog subset (module ports, `wire`/`reg`
//! declarations, continuous assignments, `always @(posedge clk)` blocks with
//! `if`/`else` and non-blocking assignments, and the usual expression
//! operators) that produces the same [`wlac_netlist::Netlist`] consumed by
//! the checker. No logic optimisation is performed, preserving the design's
//! word-level structure exactly as the paper requires.
//!
//! # Examples
//!
//! ```
//! let netlist = wlac_frontend::compile(r#"
//!     module majority(input a, input b, input c, output y);
//!       assign y = (a & b) | (a & c) | (b & c);
//!     endmodule
//! "#)?;
//! assert_eq!(netlist.name(), "majority");
//! assert_eq!(netlist.outputs().len(), 1);
//! # Ok::<(), wlac_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod elaborate;
mod error;
mod parser;

pub use elaborate::{compile, elaborate};
pub use error::FrontendError;
pub use parser::parse_module;

/// Deepest expression the front end accepts. Every level that parsing or
/// elaboration recurses through counts: a parenthesis, a concatenation, a
/// unary operator, a conditional, each operator of a binary chain, and each
/// enclosing `if`. Deeper source is hostile, not a design: it is rejected
/// before it can exhaust a thread's stack.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Widest signal or sized literal the front end accepts, in bits. Every
/// value a check builds grows with the widths it declares, so a wider one
/// is rejected before any width arithmetic or allocation.
pub const MAX_WIDTH: usize = 1 << 16;
