//! Lexer and recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::FrontendError;
use crate::{MAX_EXPR_DEPTH, MAX_WIDTH};

/// Tokens of the subset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Number(u64),
    SizedLiteral { width: usize, value: u64 },
    Symbol(&'static str),
    Keyword(&'static str),
}

const KEYWORDS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "reg",
    "assign",
    "always",
    "posedge",
    "begin",
    "end",
    "if",
    "else",
];

const SYMBOLS: &[&str] = &[
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "@", "(", ")", "[", "]", "{", "}", ":", ";",
    ",", "=", "+", "-", "*", "&", "|", "^", "~", "!", "<", ">", "?",
];

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> FrontendError {
        FrontendError::new(message, self.line)
    }

    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn skip_trivia(&mut self) {
        loop {
            let rest = self.rest();
            if rest.starts_with("//") {
                let end = rest
                    .find('\n')
                    .map(|i| self.pos + i)
                    .unwrap_or(self.src.len());
                self.pos = end;
            } else if rest.starts_with("/*") {
                if let Some(end) = rest.find("*/") {
                    self.line += rest[..end].matches('\n').count();
                    self.pos += end + 2;
                } else {
                    self.pos = self.src.len();
                }
            } else if let Some(c) = rest.chars().next() {
                if c.is_whitespace() {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += c.len_utf8();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
    }

    fn tokenize(mut self) -> Result<Vec<(Token, usize)>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            if self.pos >= self.src.len() {
                break;
            }
            let line = self.line;
            let rest = self.rest();
            let c = rest.chars().next().expect("non-empty");
            if c.is_ascii_alphabetic() || c == '_' {
                let end = rest
                    .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                let word = rest[..end].to_string();
                self.pos += end;
                if let Some(kw) = KEYWORDS.iter().find(|k| **k == word) {
                    out.push((Token::Keyword(kw), line));
                } else {
                    out.push((Token::Ident(word), line));
                }
            } else if c.is_ascii_digit() {
                let end = rest
                    .find(|ch: char| !(ch.is_ascii_digit() || ch == '_'))
                    .unwrap_or(rest.len());
                let digits: String = rest[..end].chars().filter(|c| *c != '_').collect();
                let value: u64 = digits
                    .parse()
                    .map_err(|_| self.error(format!("invalid number `{digits}`")))?;
                self.pos += end;
                // A sized literal like 4'b1010 / 8'hff / 6'd42?
                if self.rest().starts_with('\'') {
                    self.pos += 1;
                    let base = self
                        .rest()
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("missing literal base"))?
                        .to_ascii_lowercase();
                    self.pos += 1;
                    let rest2 = self.rest();
                    let end2 = rest2
                        .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                        .unwrap_or(rest2.len());
                    let digits2: String = rest2[..end2].chars().filter(|c| *c != '_').collect();
                    self.pos += end2;
                    if value > MAX_WIDTH as u64 {
                        return Err(self.error(format!(
                            "literal width {value} exceeds the limit of {MAX_WIDTH} bits"
                        )));
                    }
                    let radix = match base {
                        'b' => 2,
                        'h' => 16,
                        'd' => 10,
                        other => return Err(self.error(format!("unsupported base `{other}`"))),
                    };
                    let lit_value = u64::from_str_radix(&digits2, radix)
                        .map_err(|_| self.error(format!("invalid literal digits `{digits2}`")))?;
                    out.push((
                        Token::SizedLiteral {
                            width: value as usize,
                            value: lit_value,
                        },
                        line,
                    ));
                } else {
                    out.push((Token::Number(value), line));
                }
            } else {
                let sym = SYMBOLS
                    .iter()
                    .find(|s| rest.starts_with(**s))
                    .ok_or_else(|| self.error(format!("unexpected character `{c}`")))?;
                self.pos += sym.len();
                out.push((Token::Symbol(sym), line));
            }
        }
        Ok(out)
    }
}

/// Parses a single Verilog module from source text.
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first syntax error.
pub fn parse_module(source: &str) -> Result<Module, FrontendError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.module()
}

/// An expression and its height: the levels it nests, itself included.
type Parsed = (Expr, usize);

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    /// Levels enclosing the current parse position: parentheses,
    /// concatenations, unary operators, conditional branches and `if`s.
    depth: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn error(&self, message: impl Into<String>) -> FrontendError {
        FrontendError::new(message, self.line())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), FrontendError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{sym}`, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if *k == kw) && {
            self.pos += 1;
            true
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FrontendError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, FrontendError> {
        match self.next() {
            Some(Token::Ident(name)) => Ok(name),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<u64, FrontendError> {
        match self.next() {
            Some(Token::Number(v)) => Ok(v),
            other => Err(self.error(format!("expected number, found {other:?}"))),
        }
    }

    fn module(&mut self) -> Result<Module, FrontendError> {
        self.expect_keyword("module")?;
        let name = self.expect_ident()?;
        let mut ports = Vec::new();
        self.expect_symbol("(")?;
        if !self.eat_symbol(")") {
            loop {
                ports.push(self.port()?);
                if self.eat_symbol(")") {
                    break;
                }
                self.expect_symbol(",")?;
            }
        }
        self.expect_symbol(";")?;
        let mut declarations = Vec::new();
        let mut assigns = Vec::new();
        let mut always_blocks = Vec::new();
        loop {
            if self.eat_keyword("endmodule") {
                break;
            }
            match self.peek() {
                Some(Token::Keyword("wire")) | Some(Token::Keyword("reg")) => {
                    declarations.extend(self.declaration()?);
                }
                Some(Token::Keyword("assign")) => assigns.push(self.assign()?),
                Some(Token::Keyword("always")) => always_blocks.push(self.always_block()?),
                other => {
                    return Err(self.error(format!("unexpected token {other:?} in module body")))
                }
            }
        }
        Ok(Module {
            name,
            ports,
            declarations,
            assigns,
            always_blocks,
        })
    }

    fn range(&mut self) -> Result<usize, FrontendError> {
        // Optional `[hi:lo]`; returns the width (assumes lo == 0).
        if self.eat_symbol("[") {
            let high = self.expect_number()?;
            self.expect_symbol(":")?;
            let low = self.expect_number()?;
            self.expect_symbol("]")?;
            if low != 0 {
                return Err(self.error("only [N:0] ranges are supported"));
            }
            if high >= MAX_WIDTH as u64 {
                return Err(self.error(format!(
                    "range [{high}:0] exceeds the limit of {MAX_WIDTH} bits"
                )));
            }
            Ok(high as usize + 1)
        } else {
            Ok(1)
        }
    }

    /// Runs `parse` one level deeper, rejecting nesting past
    /// [`MAX_EXPR_DEPTH`] before it recurses.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// [`Parser::nested`] for an expression: one more level of height.
    fn nested_expr(
        &mut self,
        parse: fn(&mut Self) -> Result<Parsed, FrontendError>,
    ) -> Result<Parsed, FrontendError> {
        self.nested(parse).map(|(expr, height)| (expr, height + 1))
    }

    /// Rejects an expression whose height, with the levels enclosing it,
    /// passes [`MAX_EXPR_DEPTH`].
    fn check_height(&self, parsed: Parsed) -> Result<Parsed, FrontendError> {
        if self.depth + parsed.1 > MAX_EXPR_DEPTH {
            Err(self.too_deep())
        } else {
            Ok(parsed)
        }
    }

    fn too_deep(&self) -> FrontendError {
        self.error(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    fn port(&mut self) -> Result<Port, FrontendError> {
        let direction = if self.eat_keyword("input") {
            Direction::Input
        } else if self.eat_keyword("output") {
            Direction::Output
        } else {
            return Err(self.error("expected `input` or `output`"));
        };
        let is_reg = self.eat_keyword("reg");
        let width = self.range()?;
        let name = self.expect_ident()?;
        Ok(Port {
            direction,
            name,
            width,
            is_reg,
        })
    }

    fn declaration(&mut self) -> Result<Vec<Declaration>, FrontendError> {
        let is_reg = if self.eat_keyword("reg") {
            true
        } else {
            self.expect_keyword("wire")?;
            false
        };
        let width = self.range()?;
        let mut out = Vec::new();
        loop {
            let name = self.expect_ident()?;
            out.push(Declaration {
                name,
                width,
                is_reg,
            });
            if self.eat_symbol(";") {
                break;
            }
            self.expect_symbol(",")?;
        }
        Ok(out)
    }

    fn assign(&mut self) -> Result<Assign, FrontendError> {
        self.expect_keyword("assign")?;
        let target = self.expect_ident()?;
        self.expect_symbol("=")?;
        let expr = self.expression()?;
        self.expect_symbol(";")?;
        Ok(Assign { target, expr })
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, FrontendError> {
        self.expect_keyword("always")?;
        self.expect_symbol("@")?;
        self.expect_symbol("(")?;
        self.expect_keyword("posedge")?;
        let clock = self.expect_ident()?;
        self.expect_symbol(")")?;
        let body = self.statement_block()?;
        Ok(AlwaysBlock { clock, body })
    }

    fn statement_block(&mut self) -> Result<Vec<Statement>, FrontendError> {
        if self.eat_keyword("begin") {
            let mut out = Vec::new();
            while !self.eat_keyword("end") {
                out.push(self.statement()?);
            }
            Ok(out)
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn statement(&mut self) -> Result<Statement, FrontendError> {
        if self.eat_keyword("if") {
            return self.nested(|this| {
                this.expect_symbol("(")?;
                let condition = this.expression()?;
                this.expect_symbol(")")?;
                let then_body = this.statement_block()?;
                let else_body = if this.eat_keyword("else") {
                    this.statement_block()?
                } else {
                    Vec::new()
                };
                Ok(Statement::If {
                    condition,
                    then_body,
                    else_body,
                })
            });
        }
        let target = self.expect_ident()?;
        self.expect_symbol("<=")?;
        let expr = self.expression()?;
        self.expect_symbol(";")?;
        Ok(Statement::NonBlocking { target, expr })
    }

    fn expression(&mut self) -> Result<Expr, FrontendError> {
        Ok(self.conditional()?.0)
    }

    fn conditional(&mut self) -> Result<Parsed, FrontendError> {
        let (condition, height) = self.logical_or()?;
        if self.eat_symbol("?") {
            let (then_value, then_height) = self.nested_expr(Self::conditional)?;
            self.expect_symbol(":")?;
            let (else_value, else_height) = self.nested_expr(Self::conditional)?;
            let expr = Expr::Conditional {
                condition: Box::new(condition),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            };
            self.check_height((expr, (height + 1).max(then_height).max(else_height)))
        } else {
            Ok((condition, height))
        }
    }

    /// A left-associative chain of `ops` over `next`. The chain does not
    /// recurse here, but it grows one level per operator, and elaboration
    /// recurses down it, so each operator counts against the depth limit.
    fn binary_level(
        &mut self,
        ops: &[(&str, BinaryOp)],
        next: fn(&mut Self) -> Result<Parsed, FrontendError>,
    ) -> Result<Parsed, FrontendError> {
        let (mut left, mut height) = next(self)?;
        'outer: loop {
            for (sym, op) in ops {
                if matches!(self.peek(), Some(Token::Symbol(s)) if s == sym) {
                    self.pos += 1;
                    let (right, right_height) = next(self)?;
                    height = height.max(right_height) + 1;
                    left = Expr::Binary {
                        op: *op,
                        left: Box::new(left),
                        right: Box::new(right),
                    };
                    (left, height) = self.check_height((left, height))?;
                    continue 'outer;
                }
            }
            break;
        }
        Ok((left, height))
    }

    fn logical_or(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("||", BinaryOp::LogicalOr)], Self::logical_and)
    }

    fn logical_and(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("&&", BinaryOp::LogicalAnd)], Self::bit_or)
    }

    fn bit_or(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("|", BinaryOp::Or)], Self::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("^", BinaryOp::Xor)], Self::bit_and)
    }

    fn bit_and(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("&", BinaryOp::And)], Self::equality)
    }

    fn equality(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(
            &[("==", BinaryOp::Eq), ("!=", BinaryOp::Ne)],
            Self::relational,
        )
    }

    fn relational(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(
            &[
                ("<=", BinaryOp::Le),
                (">=", BinaryOp::Ge),
                ("<", BinaryOp::Lt),
                (">", BinaryOp::Gt),
            ],
            Self::shift,
        )
    }

    fn shift(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(
            &[("<<", BinaryOp::Shl), (">>", BinaryOp::Shr)],
            Self::additive,
        )
    }

    fn additive(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(
            &[("+", BinaryOp::Add), ("-", BinaryOp::Sub)],
            Self::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Parsed, FrontendError> {
        self.binary_level(&[("*", BinaryOp::Mul)], Self::unary)
    }

    fn unary(&mut self) -> Result<Parsed, FrontendError> {
        let op = match self.peek() {
            Some(Token::Symbol("~")) => Some(UnaryOp::Not),
            Some(Token::Symbol("!")) => Some(UnaryOp::LogicalNot),
            Some(Token::Symbol("&")) => Some(UnaryOp::ReduceAnd),
            Some(Token::Symbol("|")) => Some(UnaryOp::ReduceOr),
            Some(Token::Symbol("^")) => Some(UnaryOp::ReduceXor),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let (operand, height) = self.nested_expr(Self::unary)?;
            let expr = Expr::Unary {
                op,
                operand: Box::new(operand),
            };
            return Ok((expr, height));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Parsed, FrontendError> {
        match self.next() {
            Some(Token::SizedLiteral { width, value }) => Ok((Expr::Literal { width, value }, 1)),
            Some(Token::Number(value)) => {
                // Unsized decimal: use the minimal width (at least 1 bit), as
                // a pragmatic approximation of Verilog's 32-bit default.
                let width = (64 - value.leading_zeros() as usize).max(1);
                Ok((Expr::Literal { width, value }, 1))
            }
            Some(Token::Ident(name)) => {
                if self.eat_symbol("[") {
                    let high = self.expect_number()? as usize;
                    let low = if self.eat_symbol(":") {
                        self.expect_number()? as usize
                    } else {
                        high
                    };
                    self.expect_symbol("]")?;
                    Ok((Expr::Select { name, high, low }, 1))
                } else {
                    Ok((Expr::Identifier(name), 1))
                }
            }
            Some(Token::Symbol("(")) => {
                let inner = self.nested_expr(Self::conditional)?;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            Some(Token::Symbol("{")) => {
                let (first, mut height) = self.nested_expr(Self::conditional)?;
                let mut parts = vec![first];
                while self.eat_symbol(",") {
                    let (part, part_height) = self.nested_expr(Self::conditional)?;
                    height = height.max(part_height);
                    parts.push(part);
                }
                self.expect_symbol("}")?;
                Ok((Expr::Concat(parts), height))
            }
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ports_declarations_and_assigns() {
        let src = r#"
            // saturating subtractor
            module sat_sub(input [7:0] a, input [7:0] b, output [7:0] y);
              wire [7:0] diff;
              wire gt;
              assign gt = a > b;
              assign diff = a - b;
              assign y = gt ? diff : 8'd0;
            endmodule
        "#;
        let module = parse_module(src).unwrap();
        assert_eq!(module.name, "sat_sub");
        assert_eq!(module.ports.len(), 3);
        assert_eq!(module.ports[0].width, 8);
        assert_eq!(module.declarations.len(), 2);
        assert_eq!(module.assigns.len(), 3);
        assert!(matches!(module.assigns[2].expr, Expr::Conditional { .. }));
    }

    #[test]
    fn parses_always_blocks_with_if_else() {
        let src = r#"
            module counter(input clk, input rst, input en, output reg [3:0] q);
              always @(posedge clk) begin
                if (rst)
                  q <= 4'd0;
                else if (en)
                  q <= q + 4'd1;
              end
            endmodule
        "#;
        let module = parse_module(src).unwrap();
        assert_eq!(module.always_blocks.len(), 1);
        assert_eq!(module.always_blocks[0].clock, "clk");
        match &module.always_blocks[0].body[0] {
            Statement::If { else_body, .. } => {
                assert!(matches!(else_body[0], Statement::If { .. }));
            }
            other => panic!("unexpected statement {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
            module p(input [3:0] a, input [3:0] b, output y);
              assign y = a + b * 4'd2 == 4'd6;
            endmodule
        "#;
        let module = parse_module(src).unwrap();
        // == binds weaker than + and *.
        match &module.assigns[0].expr {
            Expr::Binary {
                op: BinaryOp::Eq,
                left,
                ..
            } => match left.as_ref() {
                Expr::Binary {
                    op: BinaryOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(
                        right.as_ref(),
                        Expr::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_selects_concats_and_reductions() {
        let src = r#"
            module s(input [7:0] a, output [3:0] y, output any);
              assign y = {a[7:6], a[1:0]};
              assign any = |a;
            endmodule
        "#;
        let module = parse_module(src).unwrap();
        assert!(matches!(module.assigns[0].expr, Expr::Concat(_)));
        assert!(matches!(
            module.assigns[1].expr,
            Expr::Unary {
                op: UnaryOp::ReduceOr,
                ..
            }
        ));
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let src = "module m(input a);\n  assign = 1;\nendmodule";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(parse_module("module m(input a; endmodule").is_err());
        assert!(parse_module("garbage").is_err());
    }
}
