//! Distributed-execution fault-injection acceptance tests (ISSUE 9):
//!
//! * a worker SIGKILLed mid-batch: the coordinator notices, reassigns the dead worker's
//!   unfinished cells to a fresh process, emits `worker_died` / `cell_reassigned`
//!   events, and the final table is byte-identical to a serial run;
//! * a worker whose result frame is truncated mid-write: indistinguishable from death at
//!   the wire level, same recovery, same bytes;
//! * a worker that sends a corrupted frame (checksum mismatch): the coordinator fails
//!   loudly and merges nothing from it — a lying record is never retried around;
//! * a worker that panics on one cell: the panic travels back as that cell's error,
//!   exactly like an in-process panic, with no retry (the cell is deterministic — a
//!   second attempt would panic again);
//! * a pool reused across batches spawns its workers once, on its first batch, keeps
//!   the bytes of an in-process run, replaces a worker SIGKILLed in a later batch or
//!   while idle between batches, and leaves no worker process alive once it drops.
//!
//! The faults are injected by the worker itself, armed through `ATHENA_DIST_FAULT_*`
//! environment variables on the spawned processes; a shared marker file makes each fault
//! fire exactly once per test even across respawns.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use athena_repro::engine::{DistPool, Engine, Job, WorkerCommand};
use athena_repro::harness::experiments::run_experiment;
use athena_repro::prelude::*;

mod common;

use common::{harness_bin, temp_dir};

fn opts() -> RunOptions {
    RunOptions {
        instructions: 8_000,
        workload_limit: Some(4),
        jobs: 2,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
    }
}

/// A 2-worker pool running the real `figures --worker` binary with one fault armed.
fn faulty_pool(fault_var: &str, marker: &Path) -> DistPool {
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"])
        .with_env(fault_var, marker.to_str().unwrap());
    DistPool::new(command, 2)
}

fn fig7_csv(opts: &RunOptions) -> String {
    run_experiment("fig7", opts).expect("fig7 exists").to_csv()
}

/// Runs fig7 distributed with `fault_var` armed and asserts the table matches the serial
/// run byte-for-byte; returns the probe event log.
fn recovery_case(tag: &str, fault_var: &str) -> String {
    let dir = temp_dir(tag);
    let marker = dir.join("fault.marker");
    let events = dir.join("events.jsonl");

    let serial = fig7_csv(&opts());

    let mut distributed = opts();
    distributed.dist = Some(faulty_pool(fault_var, &marker));
    distributed.probe = Some(ProbeSink::create(&events).expect("event sink"));
    let table = fig7_csv(&distributed);
    drop(distributed); // close the sink before reading the log

    assert!(
        marker.exists(),
        "the {fault_var} fault must actually have fired"
    );
    assert_eq!(
        table, serial,
        "the recovered table must match the serial run byte-for-byte"
    );
    let log = fs::read_to_string(&events).expect("event log");
    fs::remove_dir_all(&dir).unwrap();
    log
}

#[test]
fn a_sigkilled_worker_is_reassigned_and_the_table_bytes_survive() {
    let log = recovery_case("kill", "ATHENA_DIST_FAULT_DIE");
    assert!(
        log.contains("\"kind\":\"worker_died\""),
        "the death must be observable: {log}"
    );
    assert!(
        log.contains("\"kind\":\"cell_reassigned\""),
        "the orphaned cells must be reassigned: {log}"
    );
}

#[test]
fn a_truncated_result_frame_reads_as_death_and_recovers_identically() {
    let log = recovery_case("truncate", "ATHENA_DIST_FAULT_TRUNCATE");
    assert!(
        log.contains("\"kind\":\"worker_died\""),
        "a cut frame is a dead worker: {log}"
    );
    assert!(log.contains("\"kind\":\"cell_reassigned\""), "{log}");
}

#[test]
fn a_corrupted_result_frame_fails_the_run_loudly() {
    let dir = temp_dir("corrupt");
    let marker = dir.join("fault.marker");

    let mut distributed = opts();
    distributed.dist = Some(faulty_pool("ATHENA_DIST_FAULT_CORRUPT", &marker));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment("fig7", &distributed)
    }));
    let message = match outcome {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
        Ok(_) => panic!("a checksum-failing frame must fail the run, not merge"),
    };
    assert!(
        message.contains("corrupt"),
        "the failure must say the frame was corrupt: {message}"
    );
    assert!(marker.exists(), "the corruption fault must have fired");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_worker_panicking_on_one_cell_fails_only_that_cell() {
    let dir = temp_dir("panic");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let jobs: Vec<Job> = all_workloads()
        .into_iter()
        .take(3)
        .map(|spec| {
            Job::single(
                "dist-panic",
                spec,
                config.clone(),
                CoordinatorKind::Athena,
                6_000,
            )
        })
        .collect();
    let poisoned = jobs[1].label();
    let serial: Vec<_> = Engine::new(1).run(jobs.clone());

    let events = dir.join("events.jsonl");
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"])
        .with_env("ATHENA_DIST_FAULT_PANIC", &poisoned);
    let pool = DistPool::new(command, 2);
    let sink = ProbeSink::create(&events).expect("event sink");
    let results = Engine::new(2)
        .with_dist(Some(pool))
        .with_probe(Some(sink))
        .run(jobs);

    assert_eq!(results.len(), serial.len());
    for (got, want) in results.iter().zip(&serial) {
        if got.label == poisoned {
            let error = got.output.as_ref().expect_err("the poisoned cell fails");
            assert!(
                error.contains("injected worker fault"),
                "the panic message travels back verbatim: {error}"
            );
        } else {
            assert_eq!(
                got.output, want.output,
                "unrelated cells are untouched by a sibling's panic"
            );
        }
    }

    // A deterministic panic is not a worker failure: nothing is retried or reassigned.
    let log = fs::read_to_string(&events).expect("event log");
    assert!(
        !log.contains("\"kind\":\"worker_died\"") && !log.contains("\"kind\":\"cell_reassigned\""),
        "a per-cell panic must not look like a dead worker: {log}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Three batches of four cells, one coordination policy each.
fn batches() -> Vec<Vec<Job>> {
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    [
        CoordinatorKind::Baseline,
        CoordinatorKind::Naive,
        CoordinatorKind::Athena,
    ]
    .into_iter()
    .map(|kind| {
        all_workloads()
            .into_iter()
            .take(4)
            .map(|spec| Job::single("dist-reuse", spec, config.clone(), kind.clone(), 6_000))
            .collect()
    })
    .collect()
}

/// Runs every batch on `engine`, calling `between` before each batch after the first,
/// and asserts each batch's outputs equal an in-process run's.
fn run_batches_like_in_process(engine: &Engine, mut between: impl FnMut(usize)) {
    for (b, batch) in batches().into_iter().enumerate() {
        if b > 0 {
            between(b);
        }
        let want = Engine::new(1).run(batch.clone());
        let got = engine.run(batch);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.label, w.label, "batch {b}: cell order changed");
            assert_eq!(g.output, w.output, "batch {b}: {} changed", g.label);
        }
    }
}

/// Lines of `kind` in an event log.
fn events_of<'a>(lines: &'a [String], kind: &str) -> Vec<&'a String> {
    let tag = format!("\"kind\":\"{kind}\"");
    lines.iter().filter(|l| l.contains(&tag)).collect()
}

/// The OS pids of every worker the log saw join.
fn joined_pids(lines: &[String]) -> Vec<u64> {
    events_of(lines, "worker_joined")
        .iter()
        .map(|line| {
            let doc = athena_repro::engine::json::Json::parse(line).expect("event line parses");
            doc.get("pid")
                .and_then(|p| p.as_f64())
                .expect("worker_joined carries a pid") as u64
        })
        .collect()
}

fn alive(pid: u64) -> bool {
    Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn sigkill(pid: u64) {
    let status = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "worker {pid} could be killed");
}

fn figures_pool(envs: &[(&str, &str)]) -> DistPool {
    let command = envs.iter().fold(
        WorkerCommand::new(harness_bin("figures"), &["--worker"]),
        |cmd, (k, v)| cmd.with_env(k, v),
    );
    DistPool::new(command, 2)
}

#[test]
fn a_reused_pool_spawns_its_workers_once_and_reaps_them_on_drop() {
    let sink = ProbeSink::buffered();
    let engine = Engine::new(2)
        .with_dist(Some(figures_pool(&[])))
        .with_probe(Some(sink.clone()));
    engine.run(Vec::new());
    assert!(
        events_of(&sink.take_lines(), "worker_joined").is_empty(),
        "building the pool and an empty batch spawn nothing"
    );
    let mut lines = Vec::new();
    run_batches_like_in_process(&engine, |_| lines.extend(sink.take_lines()));
    lines.extend(sink.take_lines());
    assert_eq!(
        events_of(&lines, "worker_joined").len(),
        2,
        "three batches on one 2-worker pool spawn 2 workers"
    );
    assert!(events_of(&lines, "worker_died").is_empty());
    let pids = joined_pids(&lines);
    assert!(
        pids.iter().all(|&pid| alive(pid)),
        "workers idle between batches"
    );
    drop(engine);
    for pid in pids {
        assert!(!alive(pid), "worker {pid} outlived its pool");
    }
}

#[test]
fn a_worker_sigkilled_in_a_later_batch_is_replaced_with_the_bytes_unchanged() {
    let dir = temp_dir("reuse-kill");
    // The marker's directory does not exist yet, so the fault cannot fire in batch 1.
    let armed = dir.join("armed");
    let marker = armed.join("fault.marker");
    let sink = ProbeSink::buffered();
    let engine = Engine::new(2)
        .with_dist(Some(figures_pool(&[(
            "ATHENA_DIST_FAULT_DIE",
            marker.to_str().unwrap(),
        )])))
        .with_probe(Some(sink.clone()));
    run_batches_like_in_process(&engine, |b| {
        if b == 1 {
            fs::create_dir_all(&armed).unwrap();
        }
    });
    assert!(marker.exists(), "the death fault fired in batch 2");
    let lines = sink.take_lines();
    assert_eq!(events_of(&lines, "worker_died").len(), 1, "{lines:?}");
    assert_eq!(
        events_of(&lines, "worker_joined").len(),
        3,
        "two workers, plus one replacement: {lines:?}"
    );
    let pids = joined_pids(&lines);
    drop(engine);
    for pid in pids {
        assert!(!alive(pid), "worker {pid} outlived its pool");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_worker_sigkilled_while_idle_is_replaced_with_the_bytes_unchanged() {
    let sink = ProbeSink::buffered();
    let engine = Engine::new(2)
        .with_dist(Some(figures_pool(&[])))
        .with_probe(Some(sink.clone()));
    let mut killed = Vec::new();
    run_batches_like_in_process(&engine, |b| {
        if b == 1 {
            let pid = joined_pids(&sink.take_lines())[0];
            sigkill(pid);
            killed.push(pid);
            // Give the coordinator's reader the EOF before the next batch starts; the
            // bytes must survive either way.
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let lines = sink.take_lines();
    assert_eq!(killed.len(), 1);
    assert_eq!(events_of(&lines, "worker_died").len(), 1, "{lines:?}");
    assert_eq!(
        events_of(&lines, "worker_joined").len(),
        1,
        "one replacement after the first batch: {lines:?}"
    );
    let pids = joined_pids(&lines);
    drop(engine);
    for pid in pids.into_iter().chain(killed) {
        assert!(!alive(pid), "worker {pid} outlived its pool");
    }
}
