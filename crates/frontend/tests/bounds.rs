//! Hostile sources are rejected with a `FrontendError`, never a crash. Each
//! source compiles on a freshly spawned thread, whose default stack is the
//! stack a server connection thread gets.

use wlac_frontend::{MAX_EXPR_DEPTH, MAX_WIDTH};

/// Compiles `source` on a spawned thread; `Err` carries the error message.
fn compile_on_thread(source: String) -> Result<(), String> {
    std::thread::spawn(move || {
        wlac_frontend::compile(&source)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
    .join()
    .expect("the front end must not panic")
}

/// A one-output module whose output is `expr`.
fn module(expr: &str) -> String {
    format!("module m(input [7:0] a, output [7:0] y);\n  assign y = {expr};\nendmodule\n")
}

fn parens(levels: usize) -> String {
    format!("{}a{}", "(".repeat(levels), ")".repeat(levels))
}

fn chain(terms: usize) -> String {
    vec!["a"; terms].join(" ^ ")
}

#[test]
fn nesting_past_the_depth_limit_is_an_error() {
    let too_deep = [
        parens(1_000),
        format!("{}a", "~".repeat(100_000)),
        format!("{}a", "a ? a : ".repeat(10_000)),
        format!("{}a{}", "{".repeat(1_000), "}".repeat(1_000)),
    ];
    for expr in too_deep {
        let err = compile_on_thread(module(&expr)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }
    let ifs = format!(
        "module m(input clk, input a, output reg q);\n  always @(posedge clk)\n    {}q <= a;\nendmodule\n",
        "if (a) ".repeat(10_000)
    );
    let err = compile_on_thread(ifs).unwrap_err();
    assert!(err.contains("nested deeper"), "{err}");
}

#[test]
fn long_operator_chains_are_an_error() {
    let err = compile_on_thread(module(&chain(100_000))).unwrap_err();
    assert!(err.contains("nested deeper"), "{err}");
}

#[test]
fn widths_past_the_limit_are_an_error() {
    for literal in ["1099511627776'd0", "2147483648'd0"] {
        let err = compile_on_thread(module(literal)).unwrap_err();
        assert!(err.contains("literal width"), "{err}");
    }
    for range in ["[1073741823:0]", "[18446744073709551615:0]"] {
        let port = format!("module m(input {range} a, output y);\n  assign y = a[0];\nendmodule\n");
        let err = compile_on_thread(port).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        let wire = format!(
            "module m(input a, output y);\n  wire {range} w;\n  assign y = a;\nendmodule\n"
        );
        let err = compile_on_thread(wire).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
    }
    let parts = ["w"; 3].join(", ");
    let top = MAX_WIDTH / 2 - 1;
    let concat = format!(
        "module m(input [{top}:0] w, output y);\n  wire [7:0] c;\n  assign c = {{{parts}}};\n  assign y = c[0];\nendmodule\n"
    );
    let err = compile_on_thread(concat).unwrap_err();
    assert!(err.contains("concatenation wider"), "{err}");
}

#[test]
fn sources_within_the_limits_compile() {
    let depth = MAX_EXPR_DEPTH - 1;
    compile_on_thread(module(&parens(depth))).unwrap();
    compile_on_thread(module(&chain(depth))).unwrap();
    let top = MAX_WIDTH - 1;
    let wide = format!(
        "module m(input [{top}:0] a, output y);\n  assign y = a == {MAX_WIDTH}'d5;\nendmodule\n"
    );
    compile_on_thread(wide).unwrap();
}
