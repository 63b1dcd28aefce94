//! Hostile-guest property for the MPI surface. A campaign flips bits in
//! MPI arguments, so the runtime must turn any value a corrupted rank
//! hands it into a classified outcome, never a host panic.
//!
//! Each case launches 2–4 ranks. Every rank calls `MPI_Init` and then 1–6
//! calls drawn from every `abi::MPI_*` number plus one the runtime does not
//! know, with each argument drawn from one of these pools: valid for its
//! role; boundary (0, `n−1`, `n`, `MAX_MSG_BYTES / size` and one more);
//! random `u64`; unmapped; or page-straddling. Half the cases give every
//! rank the same calls, so collectives and point-to-point pairs meet.
//!
//! Every case runs twice with taint `Precise` (one rank's buffer tainted)
//! and twice with taint `Disabled`. The checks:
//! - `Cluster::run` returns without a panic, under a `RunBudget` that
//!   never has to fire;
//! - every rank has an exit status, or the hang report names it as live;
//! - the two runs of a policy agree on the result and the `state_digest`,
//!   and the two policies agree on everything taint cannot change;
//! - the first MPI error is the one [`predicted`], this file's own table
//!   of the runtime's argument checks, gives for the failing rank's call,
//!   or one of the errors a call with valid arguments can meet at run
//!   time ([`runtime_kinds`]);
//! - no call the table rejects was passed: a rank that got past a call
//!   had arguments the table accepts, and a rank stopped at a call the
//!   table rejects stopped because the job was aborted.
//!
//! Each rank writes the index of its next call to `MARK` before making
//! it, so the final register state says which call every rank stopped at.

use chaser_isa::{abi, Asm, Program, Reg, DATA_BASE, PAGE_SIZE};
use chaser_mpi::{Cluster, ClusterConfig, ClusterRun, MpiErrorKind, RunBudget, MAX_MSG_BYTES};
use chaser_taint::{ProvSet, TaintPolicy};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every MPI call number, then one the runtime does not know.
const CALLS: [u16; 17] = [
    abi::MPI_INIT,
    abi::MPI_COMM_RANK,
    abi::MPI_COMM_SIZE,
    abi::MPI_SEND,
    abi::MPI_RECV,
    abi::MPI_BARRIER,
    abi::MPI_BCAST,
    abi::MPI_REDUCE,
    abi::MPI_ALLREDUCE,
    abi::MPI_SCATTER,
    abi::MPI_GATHER,
    abi::MPI_FINALIZE,
    abi::MPI_ISEND,
    abi::MPI_IRECV,
    abi::MPI_WAIT,
    abi::MPI_WTIME,
    abi::MPI_BASE + 99,
];

/// The buffer every valid pointer names: three pages of bss at the start
/// of the data section, room for any valid count from every rank.
const BUF: u64 = DATA_BASE;
const BUF_BYTES: u64 = 3 * PAGE_SIZE;
/// A pointer 8 bytes short of a page boundary inside `BUF`.
const STRADDLE: u64 = BUF + PAGE_SIZE - 8;
/// A pointer into no mapping.
const UNMAPPED: u64 = 0x6000_0000;
/// Holds `1 +` the index of the call a rank is making (0 during
/// `MPI_Init`, `calls + 1` once past them all). MPI calls return in `R0`
/// only.
const MARK: Reg = Reg::R12;

/// What an argument means to its call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Buf,
    Count,
    Dtype,
    Rank,
    Tag,
    Op,
    Handle,
    Unused,
}

/// The roles of a call's six arguments (`abi.rs` documents the layouts).
fn roles(num: u16) -> [Role; 6] {
    use Role::*;
    match num {
        abi::MPI_SEND | abi::MPI_ISEND | abi::MPI_RECV | abi::MPI_IRECV => {
            [Buf, Count, Dtype, Rank, Tag, Unused]
        }
        abi::MPI_BCAST => [Buf, Count, Dtype, Rank, Unused, Unused],
        abi::MPI_REDUCE => [Buf, Buf, Count, Dtype, Op, Rank],
        abi::MPI_ALLREDUCE => [Buf, Buf, Count, Dtype, Op, Unused],
        abi::MPI_SCATTER | abi::MPI_GATHER => [Buf, Buf, Count, Dtype, Rank, Unused],
        abi::MPI_WAIT => [Handle, Unused, Unused, Unused, Unused, Unused],
        _ => [Unused; 6],
    }
}

/// An argument value: one of the hostile pools one time in ten (so a
/// third to a half of the calls carry one), otherwise a valid one for its
/// role.
fn value(role: Role, (sel, raw): (u8, u64), n: u64) -> u64 {
    if sel < 230 {
        return match role {
            Role::Buf => BUF,
            Role::Count => 1 + raw % 4,
            Role::Dtype => 1 + raw % 3,
            Role::Rank => raw % n,
            Role::Tag => raw % 2,
            Role::Op => 1 + raw % 4,
            Role::Handle => raw % 3,
            Role::Unused => raw,
        };
    }
    let pool = [
        0,
        n - 1,
        n,
        MAX_MSG_BYTES / 8,
        MAX_MSG_BYTES / 8 + 1,
        MAX_MSG_BYTES,
        MAX_MSG_BYTES + 1,
        1 << 32,
        abi::MPI_ANY,
        UNMAPPED,
        STRADDLE,
        raw,
    ];
    pool[usize::from(sel - 230) % pool.len()]
}

type Call = (u16, [u64; 6]);

/// The rank's program: `MPI_Init`, the calls, `exit(0)`.
fn program(calls: &[Call]) -> Program {
    let mut a = Asm::new("hostile");
    a.bss("buf", BUF_BYTES);
    a.hypercall(abi::MPI_INIT);
    for (i, (num, args)) in calls.iter().enumerate() {
        a.movi(MARK, i as i64 + 1);
        for (&reg, &v) in abi::ARG_REGS.iter().zip(args) {
            a.movi(reg, v as i64);
        }
        a.hypercall(*num);
    }
    a.movi(MARK, calls.len() as i64 + 1);
    a.exit(0);
    let prog = a.assemble().expect("assemble");
    assert_eq!(prog.symbol("buf"), Some(BUF));
    prog
}

/// This file's table of the runtime's argument checks, in the order the
/// runtime makes them (DESIGN §6): the error call `num` with arguments `a`
/// raises before it does anything else, or `None` when they pass. The
/// rank has called `MPI_Init`; `finalized` says whether it has called
/// `MPI_Finalize` too, and `requests` counts its earlier
/// `MPI_Isend`/`MPI_Irecv` calls.
fn predicted((num, a): Call, n: u64, finalized: bool, requests: u64) -> Option<MpiErrorKind> {
    use MpiErrorKind::*;
    let size = |code: u64| match code {
        1 | 2 => Ok(8),
        3 => Ok(1),
        _ => Err(InvalidDatatype),
    };
    let count = |count: u64, size: u64| match count.checked_mul(size) {
        Some(bytes) if bytes <= MAX_MSG_BYTES => Ok(()),
        _ => Err(InvalidCount),
    };
    let rank = |r: u64| if r < n { Ok(()) } else { Err(InvalidRank) };
    let state = if finalized {
        Err(NotInitialized)
    } else {
        Ok(())
    };
    let check = || -> Result<(), MpiErrorKind> {
        match num {
            abi::MPI_INIT
            | abi::MPI_COMM_RANK
            | abi::MPI_COMM_SIZE
            | abi::MPI_WTIME
            | abi::MPI_FINALIZE => Ok(()),
            abi::MPI_SEND | abi::MPI_ISEND | abi::MPI_RECV | abi::MPI_IRECV => {
                state?;
                count(a[1], size(a[2])?)?;
                let wildcard =
                    matches!(num, abi::MPI_RECV | abi::MPI_IRECV) && a[3] == abi::MPI_ANY;
                if wildcard {
                    Ok(())
                } else {
                    rank(a[3])
                }
            }
            abi::MPI_WAIT if a[0] < requests => Ok(()),
            abi::MPI_WAIT => Err(InvalidOp),
            abi::MPI_BARRIER => state,
            // A collective root is truncated to 32 bits first.
            abi::MPI_BCAST => {
                let size = size(a[2])?;
                state?;
                rank(u64::from(a[3] as u32))?;
                count(a[1], size)
            }
            abi::MPI_REDUCE | abi::MPI_ALLREDUCE => {
                let size = size(a[3])?;
                if !(1..=4).contains(&a[4]) {
                    return Err(InvalidOp);
                }
                if a[3] == 3 {
                    return Err(InvalidDatatype);
                }
                state?;
                if num == abi::MPI_REDUCE {
                    rank(u64::from(a[5] as u32))?;
                }
                count(a[2], size)
            }
            abi::MPI_SCATTER | abi::MPI_GATHER => {
                let size = size(a[3])?;
                state?;
                rank(u64::from(a[4] as u32))?;
                count(a[2], size)
            }
            _ => Err(InvalidOp),
        }
    };
    check().err()
}

/// The errors a call whose arguments pass can still meet: a dead peer, or
/// a matched message of the wrong type or size (a blocked rank also
/// completes its pending `MPI_Irecv`s).
fn runtime_kinds(num: u16) -> &'static [MpiErrorKind] {
    use MpiErrorKind::*;
    match num {
        abi::MPI_SEND | abi::MPI_ISEND => &[RankDied],
        abi::MPI_IRECV => &[TypeMismatch, Truncation],
        abi::MPI_RECV
        | abi::MPI_WAIT
        | abi::MPI_BARRIER
        | abi::MPI_BCAST
        | abi::MPI_REDUCE
        | abi::MPI_ALLREDUCE
        | abi::MPI_SCATTER
        | abi::MPI_GATHER => &[TypeMismatch, Truncation, RankDied],
        _ => &[],
    }
}

/// The table's verdict on call `j` of `calls`, given the calls before it.
fn predicted_at(calls: &[Call], j: usize, n: u64) -> Option<MpiErrorKind> {
    let before = &calls[..j];
    let finalized = before.iter().any(|c| c.0 == abi::MPI_FINALIZE);
    let requests = before
        .iter()
        .filter(|c| matches!(c.0, abi::MPI_ISEND | abi::MPI_IRECV))
        .count() as u64;
    predicted(calls[j], n, finalized, requests)
}

/// Runs the ranks' programs to the end; with `Precise` taint, `tainted`'s
/// whole buffer carries taint and provenance. Returns the result, the
/// state digest and every rank's `MARK`.
fn run(programs: &[Program], policy: TaintPolicy, tainted: u32) -> (ClusterRun, u64, Vec<u64>) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        quantum: 64,
        phys_bytes: 8 << 20,
        hang_rounds: 8,
        taint_policy: policy,
        run_budget: RunBudget {
            max_insns: 1 << 24,
            max_rounds: 1 << 12,
        },
        ..ClusterConfig::default()
    });
    let refs: Vec<&Program> = programs.iter().collect();
    cluster.launch(&refs).expect("launch");
    if policy != TaintPolicy::Disabled {
        let (ni, pid) = cluster.rank_location(tainted);
        let node = cluster.node_mut(ni);
        let len = BUF_BYTES as usize;
        node.write_guest_taint(pid, BUF, &vec![0xff; len])
            .expect("taint");
        node.write_guest_prov(pid, BUF, &vec![ProvSet::single(1); len])
            .expect("provenance");
    }
    let result = cluster.run();
    let marks = (0..cluster.nranks())
        .map(|r| {
            let (ni, pid) = cluster.rank_location(r);
            cluster.node(ni).process(pid).expect("rank").cpu.reg(MARK)
        })
        .collect();
    (result, cluster.state_digest(), marks)
}

/// Checks one case; `Err` describes the first broken rule.
fn check_case(calls: &[Vec<Call>], tainted: u32) -> Result<(), String> {
    let n = calls.len() as u64;
    let programs: Vec<Program> = calls.iter().map(|c| program(c)).collect();
    let runs = [TaintPolicy::Precise, TaintPolicy::Disabled].map(|policy| {
        let first = run(&programs, policy, tainted);
        let again = run(&programs, policy, tainted);
        if format!("{:?}", (&first.0, first.1)) != format!("{:?}", (&again.0, again.1)) {
            return Err(format!("{policy:?} runs differ:\n{first:?}\n{again:?}"));
        }
        Ok(first)
    });
    let [precise, disabled] = runs;
    let (run, _, marks) = precise?;
    let (plain, _, plain_marks) = disabled?;
    let taint_blind = |r: &ClusterRun| {
        let mut r = r.clone();
        r.cross_rank_tainted_deliveries = 0;
        r
    };
    if taint_blind(&run) != taint_blind(&plain) || marks != plain_marks {
        return Err(format!("taint changed the run:\n{run:?}\n{plain:?}"));
    }
    if run.budget_exhausted.is_some() {
        return Err(format!("loop-free programs exhausted the budget: {run:?}"));
    }
    for (r, exit) in run.rank_exits.iter().enumerate() {
        if exit.is_none() && !run.live_at_stop.iter().any(|h| h.rank == r as u32) {
            return Err(format!(
                "rank {r} has no exit status and is not live: {run:?}"
            ));
        }
    }
    if !run.hang && run.rank_exits.iter().any(Option::is_none) {
        return Err(format!(
            "a finished run left a rank without exit status: {run:?}"
        ));
    }
    // Every call a rank got past passed the table; a rank stopped at a
    // call the table rejects was stopped by an abort.
    for (r, (calls, &mark)) in calls.iter().zip(&marks).enumerate() {
        let at = mark as usize;
        for j in 0..at.saturating_sub(1).min(calls.len()) {
            if let Some(kind) = predicted_at(calls, j, n) {
                return Err(format!(
                    "rank {r} got past call {j} ({kind:?} predicted): {run:?}"
                ));
            }
        }
        if (1..=calls.len()).contains(&at) {
            if let Some(kind) = predicted_at(calls, at - 1, n) {
                if run.mpi_error.is_none() {
                    return Err(format!(
                        "rank {r} call {} should raise {kind:?}: {run:?}",
                        at - 1
                    ));
                }
            }
        }
    }
    if let Some(err) = run.mpi_error {
        let (calls, at) = (&calls[err.rank as usize], marks[err.rank as usize] as usize);
        if !(1..=calls.len()).contains(&at) {
            return Err(format!("{err} raised outside a call (mark {at}): {run:?}"));
        }
        let call = calls[at - 1];
        let ok = match predicted_at(calls, at - 1, n) {
            Some(kind) => err.kind == kind,
            None => runtime_kinds(call.0).contains(&err.kind),
        };
        if !ok {
            return Err(format!(
                "{err} at call {} {call:?}, table says {:?}: {run:?}",
                at - 1,
                predicted_at(calls, at - 1, n)
            ));
        }
    }
    Ok(())
}

/// One call: its number and six (pool selector, raw value) pairs.
fn call() -> impl Strategy<Value = (usize, Vec<(u8, u64)>)> {
    (
        0..CALLS.len(),
        proptest::collection::vec((0u8..=255, any::<u64>()), 6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hostile_mpi_arguments_end_as_classified_runs(
        nranks in 2u64..5,
        shared in any::<bool>(),
        drawn in proptest::collection::vec(proptest::collection::vec(call(), 1..7), 4),
        tainted in 0u32..4,
    ) {
        let drawn = if shared { vec![drawn[0].clone(); 4] } else { drawn };
        let calls: Vec<Vec<Call>> = drawn[..nranks as usize]
            .iter()
            .map(|rank| {
                rank.iter()
                    .map(|(i, args)| {
                        let num = CALLS[*i];
                        let roles = roles(num);
                        let mut a = [0; 6];
                        for (k, v) in a.iter_mut().enumerate() {
                            *v = value(roles[k], args[k], nranks);
                        }
                        (num, a)
                    })
                    .collect()
            })
            .collect();
        let tainted = tainted % nranks as u32;
        let outcome = catch_unwind(AssertUnwindSafe(|| check_case(&calls, tainted)))
            .unwrap_or_else(|_| Err("the host panicked".to_string()));
        prop_assert!(outcome.is_ok(), "{}\ncalls: {calls:?}", outcome.unwrap_err());
    }
}
