//! Correctness tests for the TSP application: both variants must find the
//! exact optimum (verified against a Held–Karp oracle) on every cluster
//! size, and the hybrid must use substantially fewer messages.

use carlos_apps::tsp::{run_tsp, Cities, TspConfig, TspVariant};
use carlos_check::Checker;
use carlos_trace::Tracer;

#[test]
fn oracle_agrees_with_greedy_bound_ordering() {
    let c = Cities::generate(10, 42);
    let opt = c.held_karp();
    let greedy = c.greedy_bound();
    assert!(opt <= greedy, "optimum cannot exceed the greedy tour");
    assert!(opt > 0);
}

#[test]
fn lock_variant_finds_optimum_single_node() {
    let cfg = TspConfig::test(1, TspVariant::Lock);
    let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
    let r = run_tsp(&cfg);
    assert_eq!(r.best_len, opt);
    assert!(r.expansions > 0);
}

#[test]
fn lock_variant_finds_optimum_four_nodes() {
    let cfg = TspConfig::test(4, TspVariant::Lock);
    let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
    let r = run_tsp(&cfg);
    assert_eq!(r.best_len, opt, "parallel lock version missed the optimum");
}

#[test]
fn hybrid_variant_finds_optimum_four_nodes() {
    let cfg = TspConfig::test(4, TspVariant::Hybrid);
    let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
    let r = run_tsp(&cfg);
    assert_eq!(r.best_len, opt, "hybrid version missed the optimum");
}

#[test]
fn hybrid_variant_finds_optimum_two_and_three_nodes() {
    for n in [2, 3] {
        let cfg = TspConfig::test(n, TspVariant::Hybrid);
        let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
        let r = run_tsp(&cfg);
        assert_eq!(r.best_len, opt, "hybrid on {n} nodes missed the optimum");
    }
}

#[test]
fn hybrid_uses_fewer_messages_than_lock() {
    let lock = run_tsp(&TspConfig::test(3, TspVariant::Lock));
    let hybrid = run_tsp(&TspConfig::test(3, TspVariant::Hybrid));
    assert!(
        hybrid.app.messages < lock.app.messages,
        "hybrid sent {} messages, lock {}",
        hybrid.app.messages,
        lock.app.messages
    );
    // And average message size grows, as in Table 1.
    assert!(hybrid.app.avg_msg_bytes > lock.app.avg_msg_bytes);
}

#[test]
fn all_release_variant_still_correct() {
    let mut cfg = TspConfig::test(3, TspVariant::Hybrid);
    cfg.all_release = true;
    let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
    let r = run_tsp(&cfg);
    assert_eq!(r.best_len, opt);
}

#[test]
fn variable_granularity_finds_optimum() {
    // Granularity hints plus the coalesced/aggregated wire modes must not
    // change the computed result, only the traffic.
    for variant in [TspVariant::Lock, TspVariant::Hybrid] {
        let mut cfg = TspConfig::test(4, variant);
        cfg.granularity_hints = true;
        cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
        let opt = Cities::generate(cfg.n_cities, cfg.seed).held_karp();
        let r = run_tsp(&cfg);
        assert_eq!(r.best_len, opt, "{variant:?} with hints missed the optimum");
    }
}

#[test]
fn variable_granularity_is_deterministic() {
    let mut cfg = TspConfig::test(3, TspVariant::Lock);
    cfg.granularity_hints = true;
    cfg.core = cfg.core.with_coalesced_fetches().with_aggregated_notices();
    let a = run_tsp(&cfg);
    let b = run_tsp(&cfg);
    assert_eq!(a.best_len, b.best_len);
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.app.messages, b.app.messages);
}

#[test]
fn runs_are_deterministic() {
    let cfg = TspConfig::test(3, TspVariant::Hybrid);
    let a = run_tsp(&cfg);
    let b = run_tsp(&cfg);
    assert_eq!(a.best_len, b.best_len);
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.app.messages, b.app.messages);
    assert_eq!(a.expansions, b.expansions);
}

/// A config that sets both the checker and the tracer gives each the view
/// it gets alone: the checker sees the same deliveries and violations (none)
/// as a checker-only run, and the tracer's metrics are byte-identical to a
/// tracer-only run.
#[test]
fn checker_and_tracer_watch_one_run() {
    let run = |check: bool, trace: bool| {
        let (c, t) = (Checker::new(3), Tracer::new(3));
        let mut cfg = TspConfig::test(3, TspVariant::Lock);
        cfg.check = check.then(|| c.clone());
        cfg.trace = trace.then(|| t.clone());
        let _ = run_tsp(&cfg);
        (c, t)
    };
    let (check_alone, _) = run(true, false);
    let (_, trace_alone) = run(false, true);
    let (check, trace) = run(true, true);
    check.assert_clean();
    assert_eq!(check.violations(), check_alone.violations());
    assert!(
        !check.deliveries().is_empty(),
        "checker saw no wire traffic"
    );
    assert_eq!(check.deliveries(), check_alone.deliveries());
    assert_eq!(trace.metrics().to_json(), trace_alone.metrics().to_json());
}
