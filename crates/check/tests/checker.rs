//! Oracle and happens-before tracker unit tests, driven by raw LRC engines
//! (no simulator) and by direct engine events for the protocol-bug cases a
//! correct engine cannot produce.

use std::sync::Arc;

use carlos_check::{Checker, ViolationKind};
use carlos_lrc::{Demand, EngineEvent, IntervalRecord, LrcConfig, LrcEngine, Vc};
use carlos_sim::Observer;
use carlos_trace::Tracer;

fn engines(n: usize, check: &Checker) -> Vec<LrcEngine> {
    (0..n as u32)
        .map(|i| {
            let mut e = LrcEngine::new(i, LrcConfig::small_test(n));
            e.observe(Arc::new(check.clone()));
            e
        })
        .collect()
}

fn mem_read(check: &Checker, node: u32, addr: usize, data: &[u8], vt: &Vc) {
    check.observe(&EngineEvent::MemRead {
        node,
        addr,
        data,
        vt,
    });
}

fn mem_write(check: &Checker, node: u32, addr: usize, data: &[u8], vt: &Vc) {
    check.observe(&EngineEvent::MemWrite {
        node,
        addr,
        data,
        vt,
    });
}

fn interval_closed(check: &Checker, node: u32, rec: &IntervalRecord) {
    check.observe(&EngineEvent::IntervalClosed { node, rec });
}

fn record_applied(check: &Checker, node: u32, rec: &IntervalRecord) {
    check.observe(&EngineEvent::RecordApplied { node, rec });
}

fn satisfy(engines: &mut [LrcEngine], node: usize, demands: Vec<Demand>) {
    for d in demands {
        match d {
            Demand::Diffs {
                to,
                page,
                after,
                through,
            } => {
                let recs = engines[to as usize].serve_diffs(page, after, through);
                engines[node].apply_diff_records(page, recs);
            }
            Demand::Page { to, page } => {
                let (data, applied) = engines[to as usize].serve_page(page);
                engines[node].install_page(page, data, applied);
            }
        }
    }
}

fn resolve_write(engines: &mut [LrcEngine], node: usize, addr: usize, data: &[u8]) {
    loop {
        match engines[node].write(addr, data) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn resolve_read(engines: &mut [LrcEngine], node: usize, addr: usize, buf: &mut [u8]) {
    loop {
        match engines[node].read(addr, buf) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn sync_release(engines: &mut [LrcEngine], from: usize, to: usize) {
    engines[from].close_interval();
    let have = engines[to].vt().clone();
    let records = engines[from].records_newer_than(&have);
    engines[to].close_interval();
    engines[to].apply_records(&records);
}

#[test]
fn drf_release_chain_is_clean() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 0, &7u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 7);
    check.assert_clean();
}

#[test]
fn partial_writes_are_tracked_without_false_positives() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 2, &[0xAB]); // sub-word write
    sync_release(&mut e, 0, 1);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf[2], 0xAB);
    check.assert_clean();
}

/// Also run with a tracer installed after the checker: observers fan out,
/// so the second one must not displace the first.
#[test]
fn unsynchronized_writes_report_ww_race() {
    for traced in [false, true] {
        let check = Checker::new(2);
        let mut e = engines(2, &check);
        if traced {
            let tracer = Tracer::new(2);
            for eng in &mut e {
                eng.observe(Arc::new(tracer.clone()));
            }
        }
        resolve_write(&mut e, 0, 0, &1u32.to_le_bytes());
        resolve_write(&mut e, 1, 0, &2u32.to_le_bytes());
        let vs = check.violations();
        assert!(
            vs.iter().any(|v| v.kind == ViolationKind::WriteWriteRace
                && v.node == 1
                && v.interval == 1
                && v.addr == 0
                && v.detail.contains("node 0")
                && v.detail.contains("interval 1")),
            "traced={traced}: missing attributed write/write race, got: {vs:?}"
        );
    }
}

#[test]
fn unsynchronized_read_reports_rw_race() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    e[0].close_interval();
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    let vs = check.violations();
    assert!(
        vs.iter().any(|v| v.kind == ViolationKind::ReadWriteRace
            && v.node == 1
            && v.addr == 8
            && v.detail.contains("node 0 interval 1")),
        "missing attributed read/write race, got: {vs:?}"
    );
}

#[test]
fn allow_racy_suppresses_read_side_checks() {
    let check = Checker::new(2);
    check.allow_racy(8, 4);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    check.assert_clean();
}

#[test]
fn duplicate_races_are_reported_once() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    resolve_read(&mut e, 1, 8, &mut buf);
    resolve_read(&mut e, 1, 8, &mut buf);
    assert_eq!(check.violations().len(), 1, "dedup failed");
}

/// A correct engine cannot return a stale value, so the stale-read path is
/// exercised by feeding the checker engine events directly: the "engine" claims a
/// timestamp covering the write yet returns a different value.
#[test]
fn stale_read_past_established_acquire_is_flagged() {
    let check = Checker::new(2);
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let mut vt1 = Vc::new(2);
    vt1.set(0, 1); // node 1 covers node 0's interval 1...
    mem_read(&check, 1, 0, &9u32.to_le_bytes(), &vt1); // ...but reads 9, not 7
    let vs = check.violations();
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::StaleRead);
    assert_eq!((vs[0].node, vs[0].interval, vs[0].addr), (1, 1, 0));
    assert!(vs[0].detail.contains("node 0"), "{}", vs[0].detail);
}

/// The legal value after a release chain is the causally newest write, not
/// the first one: reading the older value is stale.
#[test]
fn stale_read_of_causally_older_write_is_flagged() {
    let check = Checker::new(2);
    // Node 0 writes 7 in interval 1; node 1, having covered it, overwrites
    // with 8 in its own interval 1.
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let mut vt1 = Vc::new(2);
    vt1.set(0, 1);
    mem_write(&check, 1, 0, &8u32.to_le_bytes(), &vt1);
    // Node 0 covers both writes but reads its own old 7: stale.
    let mut vt0 = Vc::new(2);
    vt0.set(0, 1);
    vt0.set(1, 1);
    mem_read(&check, 0, 0, &7u32.to_le_bytes(), &vt0);
    let vs = check.violations();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::StaleRead);
    assert!(vs[0].detail.contains("node 1"), "{}", vs[0].detail);
}

#[test]
fn nonzero_value_from_unwritten_word_is_flagged() {
    let check = Checker::new(2);
    mem_read(&check, 0, 4, &1u32.to_le_bytes(), &Vc::new(2));
    let vs = check.violations();
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnknownValue);
    assert_eq!(vs[0].addr, 4);
}

#[test]
fn zero_read_from_unwritten_word_is_clean() {
    let check = Checker::new(2);
    mem_read(&check, 0, 4, &0u32.to_le_bytes(), &Vc::new(2));
    check.assert_clean();
}

#[test]
fn out_of_order_apply_is_flagged() {
    let check = Checker::new(2);
    let mut vc = Vc::new(2);
    vc.set(0, 2);
    let rec = IntervalRecord {
        node: 0,
        index: 2, // node 1 never applied interval 1: a gap
        vc,
        pages: vec![],
    };
    record_applied(&check, 1, &rec);
    let vs = check.violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == ViolationKind::HbOrder && v.detail.contains("out of order")),
        "{vs:?}"
    );
}

#[test]
fn forged_record_timestamp_is_flagged() {
    let check = Checker::new(2);
    // Creator closes interval (0, 1) with its true timestamp...
    let mut vc = Vc::new(2);
    vc.set(0, 1);
    let rec = IntervalRecord {
        node: 0,
        index: 1,
        vc,
        pages: vec![],
    };
    interval_closed(&check, 0, &rec);
    // ...but node 1 applies a copy whose timestamp was tampered with.
    let mut forged_vc = Vc::new(2);
    forged_vc.set(0, 1);
    forged_vc.set(1, 3);
    let forged = IntervalRecord {
        node: 0,
        index: 1,
        vc: forged_vc,
        pages: vec![],
    };
    record_applied(&check, 1, &forged);
    let vs = check.violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == ViolationKind::HbOrder && v.detail.contains("creator made")),
        "{vs:?}"
    );
}

#[test]
fn fail_fast_aborts_the_offending_node() {
    let check = Checker::new(2).fail_fast();
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let c2 = check.clone();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        // Unsynchronized read from node 1: escalates via carlos_sim::abort.
        mem_read(&c2, 1, 0, &7u32.to_le_bytes(), &Vc::new(2));
    }))
    .expect_err("fail-fast checker must abort");
    let info = payload
        .downcast::<carlos_sim::AbortInfo>()
        .expect("abort payload");
    assert_eq!(info.node, 1);
    assert!(info.context.contains("ReadWriteRace"), "{}", info.context);
    // The violation is still recorded for post-mortem inspection.
    assert_eq!(check.violations().len(), 1);
}

/// Three engines, a causal chain 0 -> 1 -> 2: node 2 must legally read
/// node 0's write through the transitive release, and the checker must
/// stay silent.
#[test]
fn transitive_chain_is_clean_and_converges() {
    let check = Checker::new(3);
    let mut e = engines(3, &check);
    resolve_write(&mut e, 0, 0, &11u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    resolve_write(&mut e, 1, 4, &22u32.to_le_bytes());
    sync_release(&mut e, 1, 2);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 2, 0, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 11);
    resolve_read(&mut e, 2, 4, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 22);
    check.assert_clean();
}
