//! End-to-end injection tests: arm the injector on a real workload, watch
//! the fault land at exactly the right dynamic instruction, and observe
//! its taint footprint through the tracer.

use chaser::{
    profile_app, run_app, AppSpec, Corruption, InjectionSpec, OperandSel, RunOptions, Trigger,
};
use chaser_isa::InsnClass;
use chaser_workloads::{kmeans, lud, matvec};

#[test]
fn deterministic_trigger_fires_exactly_once_at_n() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec::deterministic("lud", InsnClass::Fmul, 50, vec![3]);
    let report = run_app(&app, &RunOptions::inject(spec));
    assert_eq!(report.injections.len(), 1, "exactly one fault placed");
    let rec = &report.injections[0];
    assert_eq!(rec.exec_count, 50, "fired on the 50th fmul");
    assert_eq!(rec.old_bits ^ rec.new_bits, 1 << 3, "exactly bit 3 flipped");
    assert!(
        rec.insn.starts_with("fmul"),
        "targeted a fmul: {}",
        rec.insn
    );
}

#[test]
fn identity_injection_is_behaviour_preserving_but_tainted() {
    // The paper's Fig. 10 methodology: write the original value back, so
    // the run's outputs are identical, but the taint engine lights up.
    let cfg = kmeans::KmeansConfig::default();
    let app = AppSpec::single(kmeans::program(&cfg));
    let spec = InjectionSpec {
        target_program: "kmeans".into(),
        target_rank: 0,
        class: InsnClass::Fadd,
        trigger: Trigger::AfterN(100),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    };
    let report = run_app(&app, &RunOptions::inject_traced(spec));
    assert!(report.injected());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(
        report.outputs[0],
        kmeans::reference_output(&cfg),
        "identity injection must not change the output"
    );
    let trace = report.trace.expect("traced");
    assert!(
        trace.taint_reads + trace.taint_writes > 0,
        "the identity fault must still propagate taint"
    );
}

/// Detaching the injector flushes the target's translations (the paper's
/// `fi_clean_cb`), so every block the target runs again after the fault is
/// translated again, clean. An identity fault keeps the golden path: its
/// run translates the golden run's blocks plus exactly those.
#[test]
fn detaching_the_injector_retranslates_the_blocks_run_after_the_fault() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let golden = run_app(&app, &RunOptions::golden());
    let spec = InjectionSpec {
        target_program: "lud".into(),
        target_rank: 0,
        class: InsnClass::Fmul,
        trigger: Trigger::AfterN(50),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    };
    let report = run_app(&app, &RunOptions::inject(spec));
    assert!(report.injected());
    assert_eq!(report.outputs, golden.outputs);
    assert!(
        report.cache_stats.misses > golden.cache_stats.misses,
        "no block was retranslated after the detach flush: {} vs golden {}",
        report.cache_stats.misses,
        golden.cache_stats.misses
    );
}

#[test]
fn tracer_logs_carry_the_paper_fields() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec {
        corruption: Corruption::Identity,
        ..InjectionSpec::deterministic("lud", InsnClass::Fdiv, 5, vec![0])
    };
    let report = run_app(
        &app,
        &RunOptions {
            spec: Some(spec),
            tracing: true,
            tracer: chaser::TracerConfig {
                // lud is a short program; sample densely so the Fig. 7
                // series is populated.
                sample_interval: 500,
                ..chaser::TracerConfig::default()
            },
            ..RunOptions::default()
        },
    );
    let trace = report.trace.expect("traced");
    assert!(!trace.events.is_empty(), "fdiv result is stored to memory");
    for ev in &trace.events {
        // eip must be a code address, vaddr/paddr data addresses, and the
        // taint mask non-empty — the fields the paper logs per access.
        assert!(ev.eip >= chaser_isa::CODE_BASE);
        assert!(ev.vaddr >= chaser_isa::DATA_BASE);
        assert_ne!(ev.taint, 0);
        assert!(ev.icount > 0);
    }
    // The tainted-bytes series was sampled and ends at a plateau >= 0.
    assert!(!trace.tainted_byte_samples.is_empty());
}

#[test]
fn flipping_a_pointer_register_crashes_the_target() {
    // Corrupting the high bits of mov source operands (address bases among
    // them) reliably leaves the mapped address space -> SIGSEGV, the
    // dominant Table III outcome. A single flip can be masked when the mov
    // overwrites its own destination, so place a small group of flips.
    let cfg = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let spec = InjectionSpec {
        target_program: "matvec".into(),
        target_rank: 0,
        class: InsnClass::Mov,
        trigger: Trigger::Always,
        corruption: Corruption::FlipBits(vec![62]),
        operand: OperandSel::Src,
        max_injections: 50,
        seed: 1,
    };
    let golden = run_app(&app, &RunOptions::golden());
    let report = run_app(&app, &RunOptions::inject(spec));
    assert!(report.injected());
    let outcome = report.classify_against(&golden);
    assert!(
        outcome.is_detected(),
        "a 2^40 pointer corruption should terminate the run, got {outcome}"
    );
}

#[test]
fn injection_requires_a_matching_program_name() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec::deterministic("not_this_app", InsnClass::Fmul, 1, vec![0]);
    let report = run_app(&app, &RunOptions::inject(spec));
    assert!(!report.injected(), "VMI must screen by program name");
    assert_eq!(report.outputs[0], lud::reference_output(&cfg));
}

#[test]
fn profiling_counts_dynamic_executions() {
    let cfg = lud::LudConfig::default();
    let n = cfg.n as u64;
    let app = AppSpec::single(lud::program(&cfg));
    let (report, counts) = profile_app(&app, &[InsnClass::Fdiv, InsnClass::Fmul]);
    assert!(report.cluster.all_success());
    // LU performs n(n-1)/2 divisions and n(n-1)(2n-1)/6 multiplications.
    let fdiv = counts[&(0, 0)];
    let fmul = counts[&(0, 1)];
    assert_eq!(fdiv, n * (n - 1) / 2, "fdiv count");
    assert_eq!(fmul, n * (n - 1) * (2 * n - 1) / 6, "fmul count");
}

#[test]
fn group_injection_places_multiple_faults() {
    let cfg = kmeans::KmeansConfig::default();
    let app = AppSpec::single(kmeans::program(&cfg));
    let spec = InjectionSpec {
        target_program: "kmeans".into(),
        target_rank: 0,
        class: InsnClass::FpArith,
        trigger: Trigger::WithProbability(0.01),
        corruption: Corruption::Identity,
        operand: OperandSel::Random,
        max_injections: 5,
        seed: 42,
    };
    let report = run_app(&app, &RunOptions::inject(spec));
    assert_eq!(
        report.injections.len(),
        5,
        "the group injector keeps firing until max_injections"
    );
}

#[test]
fn mpi_symbol_hooks_observe_send_arguments() {
    let cfg = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let report = run_app(
        &app,
        &RunOptions {
            hook_mpi_symbols: true,
            ..RunOptions::default()
        },
    );
    assert!(report.cluster.all_success());
    // Hook id 0 = mpi_send: the master's row shipments and the workers'
    // row results all pass through it. The recorded args are
    // (buf, count, dtype, dest, tag, _).
    let sends: Vec<_> = report.fn_hook_hits.iter().filter(|h| h.0 == 0).collect();
    assert!(!sends.is_empty(), "mpi_send must be hooked");
    let mut row_sends = 0;
    let mut index_sends = 0;
    let mut result_sends = 0;
    for (_, _, args) in &sends {
        assert!(args[3] < cfg.ranks as u64, "dest rank in range");
        let tag = args[4] as i64;
        if tag >= chaser_workloads::matvec::TAG_RESULT {
            result_sends += 1;
            assert_eq!(args[2], 2, "results are F64");
            assert_eq!(args[3], 0, "row results go to the master");
        } else if tag >= chaser_workloads::matvec::TAG_INDEX {
            index_sends += 1;
            assert_eq!(args[2], 1, "index headers are I64");
            assert_ne!(args[3], 0, "headers go to workers");
        } else {
            assert!(tag >= chaser_workloads::matvec::TAG_BASE);
            row_sends += 1;
            assert_eq!(args[2], 2, "rows are F64");
            assert_ne!(args[3], 0, "rows go to workers");
        }
    }
    assert_eq!(row_sends, cfg.n, "one row shipment per row");
    assert_eq!(index_sends, cfg.n, "one index header per row");
    assert_eq!(result_sends, cfg.n, "one result per row");
}

#[test]
fn memory_operand_corruption_hits_the_accessed_word() {
    // OperandSel::Memory is the paper's CORRUPT_MEMORY path: the fault
    // lands in the word the targeted instruction is about to access.
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec {
        target_program: "lud".into(),
        target_rank: 0,
        class: InsnClass::FMov, // fld/fst carry memory operands
        trigger: Trigger::AfterN(20),
        corruption: Corruption::FlipBits(vec![51]),
        operand: OperandSel::Memory,
        max_injections: 1,
        seed: 0,
    };
    let golden = run_app(&app, &RunOptions::golden());
    let report = run_app(&app, &RunOptions::inject(spec));
    assert_eq!(report.injections.len(), 1);
    let rec = &report.injections[0];
    assert!(
        rec.operand.starts_with("mem["),
        "fault must land in memory, landed in {}",
        rec.operand
    );
    assert_eq!(rec.old_bits ^ rec.new_bits, 1 << 51);
    // Corrupting matrix data mid-factorization is not benign.
    assert_ne!(report.classify_against(&golden), chaser::Outcome::Benign);
}

#[test]
fn memory_operand_selection_falls_back_to_registers() {
    // Targeting `fsub` (no memory operand) with OperandSel::Memory must
    // fall back to a register operand rather than skipping the fault.
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec {
        operand: OperandSel::Memory,
        ..InjectionSpec::deterministic("lud", InsnClass::Fsub, 10, vec![5])
    };
    assert_eq!(spec.class, InsnClass::Fsub);
    let report = run_app(&app, &RunOptions::inject(spec));
    assert_eq!(report.injections.len(), 1);
    assert!(
        !report.injections[0].operand.starts_with("mem["),
        "fsub has no memory operand; fault lands in a register"
    );
}

#[test]
fn corrupted_regions_locate_the_victim_rows() {
    // A fault in worker rank 1's arithmetic corrupts exactly the rows it
    // owns (1, 5, 9, 13 of 16 under 3 workers... rank 1 owns i % 3 == 0).
    let cfg = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let golden = run_app(&app, &RunOptions::golden());
    let spec = InjectionSpec {
        target_program: "matvec".into(),
        target_rank: 1,
        class: InsnClass::Fmul,
        trigger: Trigger::AfterN(3),
        corruption: Corruption::FlipBits(vec![51]),
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    };
    let report = run_app(&app, &RunOptions::inject(spec));
    assert!(report.injected());
    if report.classify_against(&golden) == chaser::Outcome::Sdc {
        let regions = report.corrupted_regions(&golden);
        assert!(!regions.is_empty());
        for r in &regions {
            assert_eq!(r.rank, 0, "only the master writes output");
            assert_eq!(r.offset % 8, 0, "corruption is element aligned");
            // Worker 1 computes rows with i % (ranks-1) == 0.
            let row = r.offset / 8;
            assert_eq!(row % 3, 0, "corrupted row {row} must belong to worker 1");
        }
    }
}

#[test]
fn trace_event_csv_round_trips_real_runs() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let spec = InjectionSpec {
        corruption: Corruption::Identity,
        ..InjectionSpec::deterministic("lud", InsnClass::Fdiv, 5, vec![0])
    };
    let report = run_app(&app, &RunOptions::inject_traced(spec));
    let trace = report.trace.expect("traced");
    let csv = trace.events_to_csv();
    assert_eq!(
        csv.lines().count(),
        trace.events.len() + 1,
        "header plus one row per event"
    );
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), 10, "all paper fields present");
    }
}
