//! Word-level primitive gates.

use crate::inputs::GateInputs;
use crate::NetId;
use std::fmt;
use wlac_bv::Bv;

/// The kind of a word-level primitive.
///
/// Following the paper's "RTL netlist" model, the primitive set consists of
/// (1) Boolean gates, (2) arithmetic units, (3) comparators (data-to-control),
/// (4) multiplexors (control-to-data), and (5) memory elements (flip-flops),
/// plus structural helpers (constants, slices, concatenation, extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateKind {
    /// Constant driver of the attached value.
    Const(Bv),
    /// Bitwise NOT of one input.
    Not,
    /// Bitwise AND of two or more inputs.
    And,
    /// Bitwise OR of two or more inputs.
    Or,
    /// Bitwise XOR of two or more inputs.
    Xor,
    /// Identity buffer (used by the time-frame expansion to connect frames).
    Buf,
    /// Reduction AND: all bits of the single input, producing one bit.
    ReduceAnd,
    /// Reduction OR of the single input, producing one bit.
    ReduceOr,
    /// Reduction XOR (parity) of the single input, producing one bit.
    ReduceXor,
    /// Modular addition of two inputs.
    Add,
    /// Modular subtraction `in0 - in1`.
    Sub,
    /// Modular multiplication of two inputs.
    Mul,
    /// Logical shift left: `in0 << in1`.
    Shl,
    /// Logical shift right: `in0 >> in1`.
    Shr,
    /// Equality comparator, 1-bit output.
    Eq,
    /// Disequality comparator, 1-bit output.
    Ne,
    /// Unsigned less-than comparator, 1-bit output.
    Lt,
    /// Unsigned less-or-equal comparator, 1-bit output.
    Le,
    /// Unsigned greater-than comparator, 1-bit output.
    Gt,
    /// Unsigned greater-or-equal comparator, 1-bit output.
    Ge,
    /// Two-way multiplexor: inputs `[sel, then_value, else_value]`, output is
    /// `then_value` when `sel == 1`.
    Mux,
    /// Concatenation: `in0` becomes the high part, `in1` the low part.
    Concat,
    /// Bit-slice `[lo, lo + output_width)` of the single input.
    Slice {
        /// Least significant bit of the slice within the input.
        lo: usize,
    },
    /// Zero extension of the single input to the output width.
    ZeroExt,
    /// D flip-flop with optional initial value; input `[d]`, output `q`.
    ///
    /// Asynchronous set/reset are modelled structurally (a mux in front of
    /// the data input) by the front end, as the paper's "quick synthesis"
    /// does; the word-level register implication rules then fall out of the
    /// mux implication rules.
    Dff {
        /// Reset/power-up value of the register; `None` leaves the initial
        /// state unconstrained (it becomes a pseudo-input of frame 0).
        init: Option<Bv>,
    },
}

impl GateKind {
    /// `true` for the comparator primitives (the data-to-control interface).
    pub fn is_comparator(&self) -> bool {
        matches!(
            self,
            GateKind::Eq | GateKind::Ne | GateKind::Lt | GateKind::Le | GateKind::Gt | GateKind::Ge
        )
    }

    /// `true` for arithmetic units (adders, subtractors, multipliers, shifters).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            GateKind::Add | GateKind::Sub | GateKind::Mul | GateKind::Shl | GateKind::Shr
        )
    }

    /// `true` for bitwise Boolean gates.
    pub fn is_boolean(&self) -> bool {
        matches!(
            self,
            GateKind::Not
                | GateKind::And
                | GateKind::Or
                | GateKind::Xor
                | GateKind::Buf
                | GateKind::ReduceAnd
                | GateKind::ReduceOr
                | GateKind::ReduceXor
        )
    }

    /// `true` for memory elements.
    pub fn is_flip_flop(&self) -> bool {
        matches!(self, GateKind::Dff { .. })
    }

    /// Tag of [`GateKind::Const`] (see [`GateKind::tag`]).
    pub const CONST_TAG: u8 = 0;
    /// Tag of [`GateKind::Slice`] (see [`GateKind::tag`]).
    pub const SLICE_TAG: u8 = 22;
    /// Tag of [`GateKind::Dff`] (see [`GateKind::tag`]).
    pub const DFF_TAG: u8 = 24;

    /// Stable one-byte tag of the kind, without its payload. This is the one
    /// numbering of gate kinds: the service's design hash and the on-disk
    /// snapshot and journal formats all use it, so a change here changes
    /// every design hash and every file.
    pub fn tag(&self) -> u8 {
        match self {
            GateKind::Const(_) => Self::CONST_TAG,
            GateKind::Not => 1,
            GateKind::And => 2,
            GateKind::Or => 3,
            GateKind::Xor => 4,
            GateKind::Buf => 5,
            GateKind::ReduceAnd => 6,
            GateKind::ReduceOr => 7,
            GateKind::ReduceXor => 8,
            GateKind::Add => 9,
            GateKind::Sub => 10,
            GateKind::Mul => 11,
            GateKind::Shl => 12,
            GateKind::Shr => 13,
            GateKind::Eq => 14,
            GateKind::Ne => 15,
            GateKind::Lt => 16,
            GateKind::Le => 17,
            GateKind::Gt => 18,
            GateKind::Ge => 19,
            GateKind::Mux => 20,
            GateKind::Concat => 21,
            GateKind::Slice { .. } => Self::SLICE_TAG,
            GateKind::ZeroExt => 23,
            GateKind::Dff { .. } => Self::DFF_TAG,
        }
    }

    /// The kind [`GateKind::tag`] maps to `tag`, when that kind carries no
    /// payload. `None` for an unknown tag and for the tags of `Const`,
    /// `Slice` and `Dff`, whose payloads a decoder reads itself.
    pub fn payload_free_from_tag(tag: u8) -> Option<GateKind> {
        use GateKind::*;
        [
            Not, And, Or, Xor, Buf, ReduceAnd, ReduceOr, ReduceXor, Add, Sub, Mul, Shl, Shr, Eq,
            Ne, Lt, Le, Gt, Ge, Mux, Concat, ZeroExt,
        ]
        .into_iter()
        .find(|kind| kind.tag() == tag)
    }

    /// Short lowercase mnemonic used in debug dumps and the netlist text format.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            GateKind::Const(_) => "const",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Xor => "xor",
            GateKind::Buf => "buf",
            GateKind::ReduceAnd => "rand",
            GateKind::ReduceOr => "ror",
            GateKind::ReduceXor => "rxor",
            GateKind::Add => "add",
            GateKind::Sub => "sub",
            GateKind::Mul => "mul",
            GateKind::Shl => "shl",
            GateKind::Shr => "shr",
            GateKind::Eq => "eq",
            GateKind::Ne => "ne",
            GateKind::Lt => "lt",
            GateKind::Le => "le",
            GateKind::Gt => "gt",
            GateKind::Ge => "ge",
            GateKind::Mux => "mux",
            GateKind::Concat => "concat",
            GateKind::Slice { .. } => "slice",
            GateKind::ZeroExt => "zext",
            GateKind::Dff { .. } => "dff",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// A gate instance: a primitive kind, its input nets and its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The primitive implemented by this gate.
    pub kind: GateKind,
    /// Input nets, in positional order (see [`GateKind`] for conventions).
    /// Stored inline for up to [`GateInputs::INLINE`] pins; dereferences to
    /// `[NetId]`.
    pub inputs: GateInputs,
    /// The single output net driven by this gate.
    pub output: NetId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(GateKind::Gt.is_comparator());
        assert!(!GateKind::Add.is_comparator());
        assert!(GateKind::Add.is_arithmetic());
        assert!(GateKind::Shl.is_arithmetic());
        assert!(GateKind::And.is_boolean());
        assert!(GateKind::Dff { init: None }.is_flip_flop());
        assert!(!GateKind::Mux.is_boolean());
    }

    #[test]
    fn every_kind_keeps_its_tag() {
        // The numbering is on disk and in every design hash: pin it.
        let kinds = [
            GateKind::Const(Bv::from_u64(4, 3)),
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Buf,
            GateKind::ReduceAnd,
            GateKind::ReduceOr,
            GateKind::ReduceXor,
            GateKind::Add,
            GateKind::Sub,
            GateKind::Mul,
            GateKind::Shl,
            GateKind::Shr,
            GateKind::Eq,
            GateKind::Ne,
            GateKind::Lt,
            GateKind::Le,
            GateKind::Gt,
            GateKind::Ge,
            GateKind::Mux,
            GateKind::Concat,
            GateKind::Slice { lo: 3 },
            GateKind::ZeroExt,
            GateKind::Dff { init: None },
        ];
        for (tag, kind) in kinds.iter().enumerate() {
            assert_eq!(usize::from(kind.tag()), tag, "{kind}");
            let payload = matches!(
                kind,
                GateKind::Const(_) | GateKind::Slice { .. } | GateKind::Dff { .. }
            );
            assert_eq!(
                GateKind::payload_free_from_tag(tag as u8),
                (!payload).then(|| kind.clone()),
                "{kind}"
            );
        }
        assert_eq!(GateKind::Const(Bv::zero(9)).tag(), GateKind::CONST_TAG);
        assert_eq!(
            GateKind::Dff {
                init: Some(Bv::zero(2))
            }
            .tag(),
            GateKind::DFF_TAG
        );
        assert_eq!(GateKind::payload_free_from_tag(25), None);
        assert_eq!(GateKind::payload_free_from_tag(u8::MAX), None);
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(GateKind::Mux.to_string(), "mux");
        assert_eq!(GateKind::Slice { lo: 3 }.to_string(), "slice");
        assert_eq!(GateKind::Const(Bv::from_u64(4, 3)).to_string(), "const");
    }
}
