//! Property-based round-trip tests for the DSL: any program the printer
//! can emit, the parser must read back identically — the guarantee that
//! generated benchmarks stay *editable* artifacts.

use conceptual::ast::*;
use conceptual::{parse, print};
use proptest::prelude::*;

fn arb_var() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("t".to_string()),
        Just("i".to_string()),
        Just("xyz".to_string())
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..10_000).prop_map(Expr::Num),
        arb_var().prop_map(Expr::Var),
        Just(Expr::NumTasks),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::div(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::modulo(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::xor(a, b)),
        ]
    })
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    let cmp = (
        arb_expr(),
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ],
        arb_expr(),
    )
        .prop_map(|(a, op, b)| Cond::Cmp(a, op, b));
    let leaf = prop_oneof![
        cmp,
        (arb_expr(), arb_expr()).prop_map(|(a, b)| Cond::Divides(a, b)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cond::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cond::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Cond::Not(Box::new(a))),
        ]
    })
}

fn arb_runs() -> impl Strategy<Value = Vec<TaskRun>> {
    proptest::collection::vec(
        (0usize..16, 1usize..4, 1usize..6).prop_map(|(start, stride, count)| TaskRun {
            start,
            // a single-element run prints as a bare number, so its stride is
            // canonically 1
            stride: if count == 1 { 1 } else { stride },
            count,
        }),
        1..3,
    )
}

fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    prop_oneof![
        Just(TaskSet::all()),
        Just(TaskSet::all_bound("t")),
        arb_expr().prop_map(TaskSet::single),
        arb_runs().prop_map(|runs| TaskSet::runs(runs, Some("t"))),
        Just(TaskSet::group("g0")),
    ]
}

fn arb_unit() -> impl Strategy<Value = TimeUnit> {
    prop_oneof![
        Just(TimeUnit::Nanoseconds),
        Just(TimeUnit::Microseconds),
        Just(TimeUnit::Milliseconds),
        Just(TimeUnit::Seconds),
    ]
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (arb_taskset(), arb_expr(), arb_unit()).prop_map(|(tasks, amount, unit)| Stmt::Compute {
            tasks,
            amount,
            unit
        }),
        (
            arb_taskset(),
            arb_expr(),
            arb_expr(),
            0i32..8,
            any::<bool>()
        )
            .prop_map(|(src, dst, bytes, tag, is_async)| Stmt::Send {
                src,
                dst,
                bytes,
                tag,
                is_async,
            }),
        (
            arb_taskset(),
            proptest::option::of(arb_expr()),
            arb_expr(),
            0i32..8,
            any::<bool>()
        )
            .prop_map(|(dst, src, bytes, tag, is_async)| Stmt::Receive {
                dst,
                src,
                bytes,
                tag,
                is_async,
            }),
        arb_taskset().prop_map(|tasks| Stmt::Await { tasks }),
        arb_taskset().prop_map(|tasks| Stmt::Sync { tasks }),
        (proptest::option::of(arb_expr()), arb_taskset(), arb_expr())
            .prop_map(|(root, tasks, bytes)| Stmt::Multicast { root, tasks, bytes }),
        (
            arb_taskset(),
            prop_oneof![Just(ReduceTo::All), arb_expr().prop_map(ReduceTo::Task)],
            arb_expr()
        )
            .prop_map(|(tasks, to, bytes)| Stmt::Reduce { tasks, to, bytes }),
        Just(Stmt::ResetCounters),
        Just(Stmt::Log {
            label: "metric".to_string()
        }),
        Just(Stmt::Comment("a note".to_string())),
        (Just("grp".to_string()), arb_taskset())
            .prop_map(|(name, tasks)| Stmt::DeclareGroup { name, tasks }),
        arb_runs().prop_map(|runs| Stmt::Partition {
            parent: None,
            groups: vec![("g0".to_string(), runs)],
        }),
    ];
    leaf.prop_recursive(2, 24, 4, |inner| {
        prop_oneof![
            (arb_expr(), proptest::collection::vec(inner.clone(), 0..4))
                .prop_map(|(count, body)| Stmt::For { count, body }),
            (
                arb_var(),
                arb_expr(),
                arb_expr(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(var, from, to, body)| Stmt::ForEach {
                    var,
                    from,
                    to,
                    body
                }),
            (
                arb_cond(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner, 0..3)
            )
                .prop_map(|(cond, then_, else_)| Stmt::If { cond, then_, else_ }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse is the identity on programs.
    #[test]
    fn print_parse_round_trip(
        stmts in proptest::collection::vec(arb_stmt(), 0..12),
        header in proptest::collection::vec("[a-z ]{0,20}", 0..3),
    ) {
        // header lines must be trimmed non-empty strings for exact round trip
        let header: Vec<String> = header
            .into_iter()
            .map(|h| h.trim().to_string())
            .filter(|h| !h.is_empty())
            .collect();
        let program = Program { header, stmts };
        let text = print(&program);
        let parsed = parse(&text)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{text}"));
        // Canonicalisation: the leading comment block of a program IS its
        // header (the text form cannot distinguish them), so fold leading
        // Comment statements into the header before comparing.
        let mut expect = program;
        let mut i = 0;
        while i < expect.stmts.len() {
            if let Stmt::Comment(c) = &expect.stmts[i] {
                expect.header.push(c.clone());
                i += 1;
            } else {
                break;
            }
        }
        expect.stmts.drain(..i);
        prop_assert_eq!(parsed, expect, "text was:\n{}", text);
    }

    /// Run membership by arithmetic (what the interpreter tests on every
    /// statement) agrees with expanding the runs, for any start, stride
    /// (0 included) and count (0 included).
    #[test]
    fn run_membership_matches_expansion(
        runs in proptest::collection::vec(
            (0usize..24, 0usize..5, 0usize..7).prop_map(|(start, stride, count)| TaskRun {
                start,
                stride,
                count,
            }),
            0..4,
        ),
        task in 0usize..48,
    ) {
        let expanded = conceptual::analyze::expand_runs(&runs);
        prop_assert_eq!(runs.iter().any(|r| r.contains(task)), expanded.contains(&task));
    }

    /// The printer never emits unparseable text, even for programs that
    /// would fail validation (parsing and validation are separate stages).
    #[test]
    fn printer_output_always_parses(stmts in proptest::collection::vec(arb_stmt(), 0..20)) {
        let program = Program::new(stmts);
        let text = print(&program);
        prop_assert!(parse(&text).is_ok(), "unparseable:\n{}", text);
    }
}
