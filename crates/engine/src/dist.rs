//! Distributed experiment execution: the coordinator's worker pool and the worker serve
//! loop.
//!
//! The in-process pool ([`crate::pool`]) caps a sweep at one process. This module adds
//! the process boundary: a coordinator ([`DistPool`]) runs batches of [`Job`]s on worker
//! processes (any binary that calls [`serve`] — the `figures`/`tune` CLIs do so under
//! `--worker`), streams per-cell result records back over the workers' stdio, and merges
//! them **in submission order**, so every table and leaderboard is byte-identical at any
//! worker count — exactly the contract the in-process pool honours.
//!
//! # Worker lifetime and dispatch
//!
//! A pool spawns its workers lazily, on the first batch that needs them, and keeps them
//! for every later batch: the workers live until the last clone of the pool drops. That
//! drop closes each worker's stdin and waits for it, so a worker's CPU time is reaped
//! (and counted) by the time the pool is gone. Cells go out on demand: each worker holds
//! at most [`MAX_IN_FLIGHT`] cells (only one once the queue runs short), and every result
//! it returns pulls the next queued cell, so a batch's slow cells never leave one worker
//! with a static tail.
//!
//! # Wire protocol
//!
//! Both directions speak length-delimited, checksummed frames over pipes:
//!
//! ```text
//! [kind: u8] [len: u32 LE] [fnv64(payload): u64 LE] [payload: len bytes]
//! ```
//!
//! The checksum is the same FNV-1a 64 the result store uses ([`athena_store::fnv64`]).
//! The worker opens with `HELLO` (an `athena-dist-hello-v3` document carrying its pid).
//! The coordinator then sends one `SHARD` per cell (an indexed job list serialised by
//! [`crate::wire::job_json`], plus the coordinator's profiling switch), and the worker
//! answers each cell with one `RESULT`:
//!
//! ```text
//! [header_len: u32 LE] [header: athena-dist-result-v2 JSON] [record bytes]
//! ```
//!
//! The header holds the cell index, its wall-clock in nanoseconds, its phase profile when
//! profiling, and the error of a panicked cell. The record bytes are the
//! `athena-result-record-v1` envelope [`StoreHandle::encode`] wrote on the worker, carried
//! verbatim (empty for a panicked cell); the coordinator parses them once. Closing a
//! worker's stdin ends its serve loop. Workers run each cell through the same bracket as
//! the in-process executor and write no event lines: the coordinator's merge renders
//! every simulated cell's events from its result, attributed to the worker id and the
//! pid the worker announced in its `HELLO`. A dead worker therefore leaves nothing in the
//! log — a cell's events exist only once its `RESULT` has merged.
//!
//! # Failure discipline
//!
//! The two failure classes are deliberately treated differently:
//!
//! * **Death** — EOF or a truncated frame on a worker's stdout (crash, SIGKILL, broken
//!   pipe), in a batch or while the pool sat idle. The coordinator reassigns the dead
//!   worker's cells in flight to a freshly spawned worker, at most [`MAX_ATTEMPTS`]
//!   attempts per cell, then fails loudly. Because a cell's result is a pure function of
//!   the job, a retried cell is the *same* cell.
//! * **Corruption** — a complete frame whose checksum or schema does not match, a result
//!   missing a field it must carry, or a result record whose `(identity, variant)` key
//!   disagrees with the job it claims to answer. The coordinator panics immediately: a
//!   lying record is never merged, and never silently recomputed over.
//!
//! A batch that fails either way kills the pool's workers; the next batch spawns fresh
//! ones. Worker-side *cell* panics are neither: they are caught per cell (by the same
//! bracket the in-process executor uses) and travel back as `error` results, merging as
//! that cell's `Err` outcome with no retry.
//!
//! Every lifecycle step emits a structured event ([`athena_probe::Event`]:
//! `worker_joined`, `shard_dispatched`, `worker_died`, `cell_reassigned`) so a
//! distributed run is observable after the fact.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use athena_probe::{metrics, CellOrigin, Event, ProbeSink};
use athena_store::fnv64;

use crate::exec::{run_cell, CellRun};
use crate::job::Job;
use crate::json::Json;
use crate::report::{
    phase_profile_from_json, phase_profile_json, u64_json, u64_value, DIST_HELLO_SCHEMA,
    DIST_RESULT_SCHEMA, DIST_SHARD_SCHEMA, RESULT_RECORD_SCHEMA,
};
use crate::store::{record_key, StoreHandle};
use crate::wire::{job_from_json, job_json};

/// Maximum attempts per cell before a repeatedly dying assignment fails the batch.
pub const MAX_ATTEMPTS: u32 = 3;

/// Cells one worker holds at most: the one it runs and the one it reads next, so it
/// never waits on the coordinator between cells.
pub const MAX_IN_FLIGHT: usize = 2;

/// How long the coordinator waits for *any* worker message before declaring the batch
/// stalled. Generous on purpose: it only exists to turn a hung worker into a loud
/// failure instead of an eternal one.
const RECV_TIMEOUT: Duration = Duration::from_secs(600);

/// Frames larger than this are rejected as corrupt (a length field this big is garbage,
/// not a real shard or record).
const MAX_FRAME_LEN: u32 = 1 << 30;

const KIND_HELLO: u8 = 1;
const KIND_SHARD: u8 = 2;
const KIND_RESULT: u8 = 3;

/// Bytes of a frame's fixed header (`kind` + `len` + checksum), counted by the
/// frame-byte metrics alongside the payload.
const FRAME_HEADER_BYTES: u64 = 1 + 4 + 8;

// ---------------------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------------------

fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
    frame.push(kind);
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(fnv64(payload).to_le_bytes());
    frame.extend(payload);
    w.write_all(&frame)?;
    w.flush()?;
    metrics().frames_sent.incr();
    metrics().frame_bytes_sent.add(frame.len() as u64);
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary; an EOF *inside* a
/// frame surfaces as `ErrorKind::UnexpectedEof` (truncation — the sender died
/// mid-write); a complete frame that fails its checksum, carries an unknown kind, or an
/// absurd length surfaces as `ErrorKind::InvalidData` (corruption).
fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut kind = [0u8; 1];
    if r.read(&mut kind)? == 0 {
        return Ok(None);
    }
    if !(KIND_HELLO..=KIND_RESULT).contains(&kind[0]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {}", kind[0]),
        ));
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"),
        ));
    }
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    let checksum = u64::from_le_bytes(checksum);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let actual = fnv64(&payload);
    if actual != checksum {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: header says {checksum:#018x}, payload hashes to {actual:#018x}"),
        ));
    }
    metrics().frames_received.incr();
    metrics()
        .frame_bytes_received
        .add(FRAME_HEADER_BYTES + len as u64);
    Ok(Some((kind[0], payload)))
}

// ---------------------------------------------------------------------------------------
// Worker command and pool configuration.
// ---------------------------------------------------------------------------------------

/// How the coordinator launches one worker process: a program, its arguments, and extra
/// environment variables. The launched process must enter [`serve`] (the harness CLIs do
/// so under their `--worker` flag; the default command is the coordinator's own binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments passed to the program (e.g. `["--worker"]`).
    pub args: Vec<String>,
    /// Extra environment variables set on the worker (the rest of the environment is
    /// inherited). Tests use this to inject faults per pool without touching the
    /// process-global environment.
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command launching `program` with the given arguments and no extra environment.
    pub fn new(program: impl Into<PathBuf>, args: &[&str]) -> Self {
        Self {
            program: program.into(),
            args: args.iter().map(|a| a.to_string()).collect(),
            envs: Vec::new(),
        }
    }

    /// The coordinator's own binary run with `--worker` — the standard self-spawning
    /// setup of the `figures` and `tune` CLIs.
    pub fn self_worker() -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve the current executable: {e}"))?;
        Ok(Self::new(exe, &["--worker"]))
    }

    /// Returns a copy with one extra environment variable set on spawned workers.
    pub fn with_env(mut self, key: &str, value: &str) -> Self {
        self.envs.push((key.to_string(), value.to_string()));
        self
    }
}

/// A distributed executor: runs job batches on up to `workers` worker processes instead
/// of in-process threads, with in-order merge and bounded retry (see the module docs).
/// Plug one into an engine with [`crate::Engine::with_dist`].
///
/// Clones share one set of worker processes, spawned on the first batch; they exit when
/// the last clone drops. Pools compare equal by configuration.
#[derive(Clone)]
pub struct DistPool {
    command: WorkerCommand,
    workers: usize,
    crew: Arc<Mutex<Crew>>,
}

impl fmt::Debug for DistPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistPool")
            .field("command", &self.command)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl PartialEq for DistPool {
    fn eq(&self, other: &Self) -> bool {
        self.command == other.command && self.workers == other.workers
    }
}

impl Eq for DistPool {}

impl DistPool {
    /// A pool of up to `workers` processes launched via `command`. Spawns nothing yet.
    pub fn new(command: WorkerCommand, workers: usize) -> Self {
        Self {
            command,
            workers: workers.max(1),
            crew: Arc::new(Mutex::new(Crew::new())),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured worker launch command.
    pub fn command(&self) -> &WorkerCommand {
        &self.command
    }

    /// Runs every job on the worker processes and returns one [`CellRun`] per job, in
    /// submission order: the cell's outcome (`Err(message)` for a cell that panicked on a
    /// worker), its worker-measured wall-clock and phase profile, and the worker it ran
    /// on. With `progress`, a live per-worker status line is kept on stderr. Batches on
    /// clones of one pool run one at a time.
    ///
    /// # Panics
    ///
    /// Panics on corruption (a frame or record that lies — see the module docs), when a
    /// cell's assignment has died [`MAX_ATTEMPTS`] times, when a worker cannot be
    /// spawned, or when no worker produces any message for a very long time.
    pub fn run_jobs(
        &self,
        probe: Option<&ProbeSink>,
        progress: bool,
        jobs: &[Job],
    ) -> Vec<CellRun> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // A batch that panicked killed its workers before unwinding, so a poisoned crew
        // is an empty one.
        let mut crew = self.crew.lock().unwrap_or_else(PoisonError::into_inner);
        let mut batch = Batch {
            pool: self,
            crew: &mut crew,
            probe,
            progress,
            jobs,
            runs: vec![None; jobs.len()],
            filled: 0,
            attempts: vec![0u32; jobs.len()],
            queue: (0..jobs.len()).collect(),
            completed: BTreeMap::new(),
            reassigned: 0,
            started: Instant::now(),
        };
        batch.run();
        batch
            .runs
            .drain(..)
            .map(|run| run.expect("every cell resolved"))
            .collect()
    }
}

// ---------------------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------------------

/// What a worker's reader thread forwards to the coordinator loop.
enum MsgBody {
    /// A complete, checksum-verified frame.
    Frame(u8, Vec<u8>),
    /// Clean EOF on the worker's stdout.
    Eof,
    /// The stream died mid-frame (truncation, crash).
    Died(String),
    /// A complete frame failed its checksum / carried garbage.
    Corrupt(String),
}

struct Msg {
    worker: usize,
    body: MsgBody,
}

struct Worker {
    id: usize,
    child: Child,
    /// Open for the worker's whole life; closing it ends the worker's serve loop.
    stdin: ChildStdin,
    /// The OS pid the worker announced in its `HELLO` frame.
    pid: Option<u64>,
    /// Cells of the current batch sent to this worker and not yet answered, in dispatch
    /// order. Empty between batches.
    in_flight: Vec<usize>,
}

/// A pool's live worker processes and the channel their reader threads feed.
struct Crew {
    workers: Vec<Worker>,
    /// Id of the next worker to spawn: ids are never reused within a pool.
    next_id: usize,
    tx: mpsc::Sender<Msg>,
    rx: mpsc::Receiver<Msg>,
}

impl Crew {
    fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            workers: Vec::new(),
            next_id: 0,
            tx,
            rx,
        }
    }

    /// Kills and reaps every worker and starts a fresh channel, so nothing a killed
    /// worker said can reach a later batch.
    fn kill_all(&mut self) {
        for mut w in self.workers.drain(..) {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        (self.tx, self.rx) = mpsc::channel();
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        // Close every stdin first so the workers exit in parallel, then reap each one.
        let children: Vec<Child> = self.workers.drain(..).map(|w| w.child).collect();
        for mut child in children {
            let _ = child.wait();
        }
    }
}

struct Batch<'a> {
    pool: &'a DistPool,
    crew: &'a mut Crew,
    probe: Option<&'a ProbeSink>,
    progress: bool,
    jobs: &'a [Job],
    runs: Vec<Option<CellRun>>,
    filled: usize,
    attempts: Vec<u32>,
    /// Cells not yet sent to any worker, in dispatch order.
    queue: VecDeque<usize>,
    /// Cells completed per worker id, for the `--progress` breakdown.
    completed: BTreeMap<usize, usize>,
    /// Cells re-dispatched after worker deaths.
    reassigned: usize,
    started: Instant,
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        // A batch that stopped early (corruption, a cell out of attempts, a stall) left
        // its workers mid-protocol: leave no orphans, and no half-told story for the next
        // batch.
        if self.filled < self.jobs.len() {
            self.crew.kill_all();
        }
    }
}

impl Batch<'_> {
    fn emit(&self, event: &Event) {
        if let Some(sink) = self.probe {
            sink.emit(event);
        }
    }

    fn run(&mut self) {
        // Deaths that arrived while the pool sat idle between batches.
        while let Ok(msg) = self.crew.rx.try_recv() {
            self.handle(msg);
        }
        while self.crew.workers.len() < self.pool.workers.min(self.jobs.len()) {
            self.spawn_worker();
        }
        // Deal the first cells round-robin, so a small batch still spreads out.
        for _ in 0..MAX_IN_FLIGHT {
            for slot in 0..self.crew.workers.len() {
                self.dispatch_next(slot);
            }
        }
        while self.filled < self.jobs.len() {
            let msg = match self.crew.rx.recv_timeout(RECV_TIMEOUT) {
                Ok(msg) => msg,
                Err(_) => panic!(
                    "distributed batch stalled: no worker message for {}s with {} of {} \
                     cells unresolved",
                    RECV_TIMEOUT.as_secs(),
                    self.jobs.len() - self.filled,
                    self.jobs.len()
                ),
            };
            self.handle(msg);
        }
    }

    fn handle(&mut self, msg: Msg) {
        let slot = self
            .crew
            .workers
            .iter()
            .position(|w| w.id == msg.worker)
            .expect("message from a live worker");
        match msg.body {
            MsgBody::Frame(KIND_HELLO, payload) => self.check_hello(slot, &payload),
            MsgBody::Frame(KIND_RESULT, payload) => {
                self.merge_result(slot, &payload);
                self.dispatch_next(slot);
            }
            MsgBody::Frame(kind, _) => panic!(
                "distributed worker #{}: protocol violation: unexpected frame kind {kind}",
                msg.worker
            ),
            MsgBody::Eof => self.bury(slot, "stream ended".to_string()),
            MsgBody::Died(detail) => self.bury(slot, detail),
            MsgBody::Corrupt(detail) => panic!(
                "distributed worker #{} sent a corrupt frame ({detail}); refusing to \
                 merge anything it said — rerun, and if this repeats check the host",
                msg.worker
            ),
        }
    }

    /// Retires a dead worker. Its cells in flight go back to the front of the queue and
    /// to a replacement worker spawned at once; a worker that died idle is replaced
    /// when a batch next needs it.
    fn bury(&mut self, slot: usize, detail: String) {
        let mut dead = self.crew.workers.remove(slot);
        let _ = dead.child.kill();
        let _ = dead.child.wait();
        let orphans = dead.in_flight;
        self.emit(&Event::WorkerDied {
            worker: dead.id,
            outstanding: orphans.len(),
            error: detail.clone(),
        });
        if orphans.is_empty() {
            return;
        }
        self.reassigned += orphans.len();
        metrics().cell_retries.add(orphans.len() as u64);
        for &i in &orphans {
            self.attempts[i] += 1;
            assert!(
                self.attempts[i] < MAX_ATTEMPTS,
                "cell '{}' lost its worker {MAX_ATTEMPTS} times (last: {detail}); \
                 giving up on the batch",
                self.jobs[i].label()
            );
            self.emit(&Event::CellReassigned {
                experiment: self.jobs[i].experiment.clone(),
                label: self.jobs[i].label(),
                from_worker: dead.id,
                to_worker: self.crew.next_id,
            });
        }
        for &i in orphans.iter().rev() {
            self.queue.push_front(i);
        }
        let slot = self.spawn_worker();
        for _ in 0..MAX_IN_FLIGHT {
            self.dispatch_next(slot);
        }
    }

    /// Spawns one worker and starts its reader thread; returns its slot.
    fn spawn_worker(&mut self) -> usize {
        let cmd = &self.pool.command;
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .envs(cmd.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| {
                panic!(
                    "cannot spawn distributed worker '{}': {e}",
                    cmd.program.display()
                )
            });
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let id = self.crew.next_id;
        self.crew.next_id += 1;
        self.emit(&Event::WorkerJoined {
            worker: id,
            pid: child.id() as u64,
        });
        let reader_tx = self.crew.tx.clone();
        std::thread::spawn(move || {
            let mut stdout = io::BufReader::new(stdout);
            loop {
                let body = match read_frame(&mut stdout) {
                    Ok(Some((kind, payload))) => MsgBody::Frame(kind, payload),
                    Ok(None) => MsgBody::Eof,
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        MsgBody::Corrupt(e.to_string())
                    }
                    Err(e) => MsgBody::Died(e.to_string()),
                };
                let last = !matches!(body, MsgBody::Frame(..));
                if reader_tx.send(Msg { worker: id, body }).is_err() || last {
                    return;
                }
            }
        });
        self.crew.workers.push(Worker {
            id,
            child,
            stdin,
            pid: None,
            in_flight: Vec::new(),
        });
        self.crew.workers.len() - 1
    }

    /// Sends the next queued cell to the worker in `slot`, if it has room for one. An
    /// idle worker always has room. A second cell only hides the round trip between
    /// cells, so a busy worker gets one only while the queue holds a cell for every
    /// worker: near a batch's end it would strand a cell behind a running one while
    /// another worker idles. A shard that cannot be written needs no handling here: the
    /// worker is dead, and its reader thread reports the death, which reassigns the cell.
    fn dispatch_next(&mut self, slot: usize) {
        let held = self.crew.workers[slot].in_flight.len();
        if held >= MAX_IN_FLIGHT || (held > 0 && self.queue.len() < self.crew.workers.len()) {
            return;
        }
        let Some(index) = self.queue.pop_front() else {
            return;
        };
        let payload = shard_payload(index, &self.jobs[index]);
        let worker = &mut self.crew.workers[slot];
        worker.in_flight.push(index);
        let _ = write_frame(&mut worker.stdin, KIND_SHARD, &payload);
        let id = worker.id;
        self.emit(&Event::ShardDispatched {
            worker: id,
            cells: 1,
            bytes: payload.len(),
        });
    }

    fn check_hello(&mut self, slot: usize, payload: &[u8]) {
        let worker = self.crew.workers[slot].id;
        let doc = parse_payload(worker, payload);
        if !DIST_HELLO_SCHEMA.matches(&doc) {
            panic!(
                "distributed worker #{worker} did not speak the '{}' handshake — wrong \
                 program or version behind the worker command?",
                DIST_HELLO_SCHEMA.id()
            );
        }
        let pid = doc.get("pid").and_then(u64_value);
        self.crew.workers[slot].pid =
            Some(pid.unwrap_or_else(|| panic!("distributed worker #{worker}: HELLO has no pid")));
    }

    /// Repaints the `--progress` status line with the distributed breakdown: overall
    /// completion, live workers, cells completed per worker, and reassignment count.
    fn print_progress(&self) {
        if !self.progress || self.filled == 0 {
            return;
        }
        let total = self.jobs.len();
        let done = self.filled;
        let live = self.crew.workers.len();
        let per: Vec<String> = self
            .completed
            .iter()
            .map(|(w, c)| format!("w{w}:{c}"))
            .collect();
        let eta = self.started.elapsed().as_secs_f64() / done as f64 * (total - done) as f64;
        eprint!(
            "\r[{done}/{total} cells on {live} workers ({per}), {reassigned} reassigned, \
             ~{eta:.0}s left]  ",
            per = per.join(" "),
            reassigned = self.reassigned,
        );
    }

    /// Verifies and merges one `RESULT` frame. Every mismatch in here is corruption — a
    /// checksum-valid frame whose *content* lies — and panics rather than merging.
    fn merge_result(&mut self, slot: usize, payload: &[u8]) {
        let worker = self.crew.workers[slot].id;
        let (index, mut run) = decode_result(worker, payload, self.jobs);
        let in_flight = &mut self.crew.workers[slot].in_flight;
        let owned = in_flight
            .iter()
            .position(|&i| i == index)
            .unwrap_or_else(|| {
                panic!("distributed worker #{worker} answered cell {index}, which it does not own")
            });
        in_flight.remove(owned);
        let pid = self.crew.workers[slot].pid.unwrap_or_else(|| {
            panic!("distributed worker #{worker}: protocol violation: RESULT before HELLO")
        });
        assert!(
            self.runs[index].is_none(),
            "cell {index} resolved twice — workers overlapped"
        );
        run.origin = Some(CellOrigin { worker, pid });
        self.runs[index] = Some(run);
        self.filled += 1;
        *self.completed.entry(worker).or_insert(0) += 1;
        self.print_progress();
    }
}

fn parse_payload(worker: usize, payload: &[u8]) -> Json {
    let text = std::str::from_utf8(payload).unwrap_or_else(|e| {
        panic!("distributed worker #{worker}: frame payload is not UTF-8: {e}")
    });
    Json::parse(text)
        .unwrap_or_else(|e| panic!("distributed worker #{worker}: frame payload is not JSON: {e}"))
}

/// A `SHARD` payload holding the one cell `index`.
fn shard_payload(index: usize, job: &Job) -> Vec<u8> {
    let cell = Json::obj(vec![
        ("index", u64_json(index as u64)),
        ("job", job_json(job)),
    ]);
    DIST_SHARD_SCHEMA
        .document(vec![
            ("cells", Json::arr(vec![cell])),
            // The coordinator's profiling switch rides along so workers accrue phase
            // profiles exactly when an in-process run would.
            ("profile", Json::Bool(athena_probe::profiling_enabled())),
        ])
        .to_string()
        .into_bytes()
}

/// A `RESULT` payload: the length-prefixed header document, then the cell's store record
/// bytes verbatim (nothing for a panicked cell).
fn result_payload(index: u64, job: &Job, run: &CellRun) -> Vec<u8> {
    let mut fields = vec![
        ("index", u64_json(index)),
        ("wall_nanos", u64_json(run.wall.as_nanos() as u64)),
    ];
    if let Some(profile) = &run.profile {
        fields.push(("profile", phase_profile_json(profile)));
    }
    let record = match &run.outcome {
        Ok(output) => StoreHandle::encode(job, output),
        Err(message) => {
            fields.push(("error", Json::str(message)));
            Vec::new()
        }
    };
    let header = DIST_RESULT_SCHEMA.document(fields).to_string();
    let mut payload = Vec::with_capacity(4 + header.len() + record.len());
    payload.extend((header.len() as u32).to_le_bytes());
    payload.extend(header.as_bytes());
    payload.extend(record);
    payload
}

/// Decodes a `RESULT` payload from `worker` into its cell index and run (with no
/// origin), parsing the record once and checking it against the job at that index.
///
/// # Panics
///
/// Panics on corruption: a malformed header, a missing `index` or `wall_nanos`, an index
/// outside `jobs`, record bytes beside an error, or a record that does not decode or
/// whose `(identity, variant)` key is not its job's.
fn decode_result(worker: usize, payload: &[u8], jobs: &[Job]) -> (usize, CellRun) {
    let corrupt = |what: &str| -> ! { panic!("distributed worker #{worker}: {what}") };
    let header_len = payload
        .get(..4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("four bytes")) as usize)
        .unwrap_or_else(|| corrupt("result frame too short for its header length"));
    let Some((header, record)) = payload[4..].split_at_checked(header_len) else {
        corrupt("result header runs past the end of its frame")
    };
    let doc = parse_payload(worker, header);
    assert!(
        DIST_RESULT_SCHEMA.matches(&doc),
        "distributed worker #{worker}: result frame does not declare schema '{}'",
        DIST_RESULT_SCHEMA.id()
    );
    let index = doc
        .get("index")
        .and_then(u64_value)
        .unwrap_or_else(|| corrupt("result has no cell index")) as usize;
    let job = jobs
        .get(index)
        .unwrap_or_else(|| corrupt(&format!("result for cell {index}, past the batch's end")));
    let wall = doc
        .get("wall_nanos")
        .and_then(u64_value)
        .map(Duration::from_nanos)
        .unwrap_or_else(|| corrupt(&format!("result for cell {index} has no wall_nanos")));
    let profile = doc.get("profile").map(|p| {
        phase_profile_from_json(p)
            .unwrap_or_else(|e| corrupt(&format!("cell {index} sent an undecodable profile: {e}")))
    });
    let outcome = if let Some(error) = doc.get("error") {
        let message = error
            .as_str()
            .unwrap_or_else(|| corrupt(&format!("non-string error for cell {index}")));
        assert!(
            record.is_empty(),
            "distributed worker #{worker}: cell {index} sent a record beside its error"
        );
        Err(message.to_string())
    } else {
        if record.is_empty() {
            corrupt(&format!("result for cell {index} has no record"));
        }
        let record = parse_payload(worker, record);
        assert!(
            RESULT_RECORD_SCHEMA.matches(&record),
            "distributed worker #{worker}: cell {index} record does not declare \
             schema '{}'",
            RESULT_RECORD_SCHEMA.id()
        );
        let key = record_key(job);
        let sent_identity = record.get("identity").and_then(Json::as_hex_u64);
        let sent_variant = record.get("variant").and_then(Json::as_hex_u64);
        if sent_identity != Some(key.identity) || sent_variant != Some(key.variant) {
            panic!(
                "distributed worker #{worker} sent a lying record for cell '{}': \
                 claims key {}.{}, the job's key is {:016x}.{:016x} — refusing to merge",
                job.label(),
                sent_identity.map_or("?".into(), |v| format!("{v:016x}")),
                sent_variant.map_or("?".into(), |v| format!("{v:016x}")),
                key.identity,
                key.variant
            );
        }
        let output = record
            .get("output")
            .ok_or("record has no 'output' field".to_string())
            .and_then(crate::report::job_output_from_json)
            .unwrap_or_else(|e| {
                corrupt(&format!(
                    "record for cell '{}' does not decode: {e}",
                    job.label()
                ))
            });
        Ok(output)
    };
    let run = CellRun {
        outcome,
        wall,
        profile,
        origin: None,
    };
    (index, run)
}

// ---------------------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------------------

/// Optional fault injection, for the cross-process test harness. Workers read these
/// environment variables once at startup; each marker-file fault fires exactly once
/// across a whole test run (respawned workers find the marker claimed and behave).
struct Faults {
    /// `ATHENA_DIST_FAULT_DIE`: SIGKILL this worker after it runs a cell and before it
    /// answers, so the death always leaves a cell in flight (mid-batch death).
    die: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_TRUNCATE`: write half of a result frame, then exit.
    truncate: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_CORRUPT`: flip one payload bit of a result frame *after*
    /// computing its checksum.
    corrupt: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_PANIC`: panic inside any cell whose label contains this
    /// substring (exercising per-cell panic isolation across the process boundary).
    panic_label: Option<String>,
}

impl Faults {
    fn from_env() -> Self {
        let path = |key: &str| std::env::var_os(key).map(PathBuf::from);
        Self {
            die: path("ATHENA_DIST_FAULT_DIE"),
            truncate: path("ATHENA_DIST_FAULT_TRUNCATE"),
            corrupt: path("ATHENA_DIST_FAULT_CORRUPT"),
            panic_label: std::env::var("ATHENA_DIST_FAULT_PANIC").ok(),
        }
    }

    /// Atomically claims a marker file; only one worker ever wins one, so a fault fires
    /// once even when several workers race for it or a replacement worker respawns.
    fn claim(marker: &Option<PathBuf>) -> bool {
        let Some(path) = marker else { return false };
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .is_ok()
    }
}

/// Kills the current process with SIGKILL (the hardest death a worker can die — no
/// destructors, no flushing), falling back to `abort` if no `kill` binary exists.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL delivery can race the return from `status`; abort covers the gap (and
    // non-unix hosts).
    std::process::abort();
}

/// Decodes a `SHARD` payload into the coordinator's profiling switch and the indexed
/// jobs to run.
///
/// # Panics
///
/// Panics on a payload that is not a shard document, lacks its `profile` switch, or
/// holds a cell without an index or a decodable job.
fn decode_shard(payload: &[u8]) -> (bool, Vec<(u64, Job)>) {
    let doc =
        Json::parse(std::str::from_utf8(payload).expect("worker: shard payload is not UTF-8"))
            .unwrap_or_else(|e| panic!("worker: shard payload is not JSON: {e}"));
    assert!(
        DIST_SHARD_SCHEMA.matches(&doc),
        "worker: shard does not declare schema '{}'",
        DIST_SHARD_SCHEMA.id()
    );
    let profile = doc
        .get("profile")
        .and_then(Json::as_bool)
        .expect("worker: shard has no 'profile' switch");
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .expect("worker: shard has no 'cells' array")
        .iter()
        .map(|cell| {
            let index = cell
                .get("index")
                .and_then(u64_value)
                .expect("worker: shard cell has no index");
            let job = job_from_json(cell.get("job").expect("worker: shard cell has no job"))
                .unwrap_or_else(|e| panic!("worker: cannot reconstruct cell {index}: {e}"));
            (index, job)
        })
        .collect();
    (profile, cells)
}

/// Runs the worker serve loop over this process's stdin/stdout until the coordinator
/// closes the pipe: handshake, then shard after shard — run every cell through the
/// engine's per-cell bracket (panics caught per cell, exactly like the in-process
/// executor) and answer each with one `RESULT` frame.
///
/// The harness CLIs call this under their `--worker` flag; any binary that does the same
/// can serve a [`DistPool`].
///
/// # Panics
///
/// Panics if the coordinator side of the pipe breaks mid-protocol or sends garbage — a
/// worker with a broken coordinator has nothing useful left to do, and the coordinator
/// treats the resulting death as exactly that.
pub fn serve() {
    let faults = Faults::from_env();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut output = io::BufWriter::new(stdout.lock());
    let hello = DIST_HELLO_SCHEMA.document(vec![("pid", u64_json(std::process::id() as u64))]);
    write_frame(&mut output, KIND_HELLO, hello.to_string().as_bytes())
        .expect("worker cannot write its handshake");
    loop {
        let frame = read_frame(&mut input).unwrap_or_else(|e| {
            panic!("worker: cannot read from the coordinator: {e}");
        });
        let Some((kind, payload)) = frame else {
            return; // Coordinator closed our stdin: shutdown.
        };
        assert_eq!(
            kind, KIND_SHARD,
            "worker: expected a SHARD frame, got {kind}"
        );
        let (profile, cells) = decode_shard(&payload);
        athena_probe::set_profiling(profile);
        for (index, job) in cells {
            let faulty = faults
                .panic_label
                .as_deref()
                .is_some_and(|needle| job.label().contains(needle));
            let run = run_cell(&job, |job| {
                if faulty {
                    panic!("injected worker fault: cell panics");
                }
                job.run()
            });
            if Faults::claim(&faults.die) {
                die_hard();
            }
            let result = result_payload(index, &job, &run);
            if Faults::claim(&faults.corrupt) {
                send_corrupted(&mut output, &result);
            } else if Faults::claim(&faults.truncate) {
                send_truncated(&mut output, &result);
            } else {
                write_frame(&mut output, KIND_RESULT, &result)
                    .expect("worker: cannot write a result frame");
            }
        }
    }
}

/// Fault injection: a frame whose checksum was computed over the honest payload but
/// whose payload has one bit flipped — byte-level corruption the coordinator must catch.
fn send_corrupted(w: &mut impl Write, payload: &[u8]) {
    let mut lying = payload.to_vec();
    let mid = lying.len() / 2;
    lying[mid] ^= 0x01;
    let mut frame = vec![KIND_RESULT];
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(fnv64(payload).to_le_bytes());
    frame.extend(&lying);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .expect("worker: cannot write");
}

/// Fault injection: the first half of an honest frame, then a silent exit — truncation,
/// which the coordinator must treat as a death, not as corruption to merge around.
fn send_truncated(w: &mut impl Write, payload: &[u8]) -> ! {
    let mut frame = vec![KIND_RESULT];
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(fnv64(payload).to_le_bytes());
    frame.extend(payload);
    frame.truncate(frame.len() / 2);
    let _ = w.write_all(&frame);
    let _ = w.flush();
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};

    fn tiny_job() -> Job {
        Job::single(
            "dist-unit",
            athena_workloads::all_workloads().swap_remove(0),
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
            CoordinatorKind::Baseline,
            2_000,
        )
    }

    /// Asserts that no prefix of `frame` and no single-bit flip of it reads back as a
    /// `RESULT` frame.
    fn assert_never_merged(frame: &[u8]) {
        for cut in 1..frame.len() {
            let err = read_frame(&mut io::Cursor::new(&frame[..cut])).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "prefix of {cut} bytes"
            );
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip may lengthen the frame past its end (EOF), break the checksum or the
            // kind (invalid data), or turn the kind into another valid one — but it never
            // yields a RESULT the coordinator would merge.
            if let Ok(Some((kind, _))) = read_frame(&mut io::Cursor::new(flipped)) {
                assert_ne!(
                    kind, KIND_RESULT,
                    "bit {bit} flipped into a mergeable RESULT"
                );
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_SHARD, b"hello world").unwrap();
        write_frame(&mut buf, KIND_HELLO, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_SHARD, b"hello world".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_HELLO, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn a_flipped_bit_is_invalid_data_and_a_cut_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_RESULT, b"payload bytes").unwrap();
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = read_frame(&mut io::Cursor::new(flipped)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        let cut = &buf[..buf.len() / 2];
        let err = read_frame(&mut io::Cursor::new(cut.to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_kinds_and_absurd_lengths_are_invalid_data() {
        // 4 was the retired end-of-shard frame and 5 the retired per-cell event frame: a
        // worker still sending either is garbage.
        for kind in [0u8, 4, 5, 99] {
            let err = read_frame(&mut io::Cursor::new(vec![kind, 0, 0, 0, 0])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "kind {kind}");
        }
        let mut huge = vec![KIND_SHARD];
        huge.extend(u32::MAX.to_le_bytes());
        huge.extend(0u64.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn no_cut_or_flipped_result_frame_is_ever_merged() {
        let job = tiny_job();
        let failed = CellRun {
            outcome: Err("boom".into()),
            wall: Duration::from_nanos(1_234_567),
            profile: None,
            origin: None,
        };
        let finished = run_cell(&job, Job::run);
        for run in [&failed, &finished] {
            let payload = result_payload(3, &job, run);
            let mut frame = Vec::new();
            write_frame(&mut frame, KIND_RESULT, &payload).unwrap();
            assert_never_merged(&frame);
        }
    }

    #[test]
    fn a_result_frame_carries_the_record_verbatim_and_decodes_once() {
        let jobs = [tiny_job(), tiny_job().with_derived_seed()];
        let run = run_cell(&jobs[1], Job::run);
        let output = run.outcome.clone().expect("the cell runs");
        let payload = result_payload(1, &jobs[1], &run);
        let record = StoreHandle::encode(&jobs[1], &output);
        assert!(
            payload.ends_with(&record),
            "the store record rides unchanged after the header"
        );
        assert_eq!(decode_result(0, &payload, &jobs), (1, run.clone()));

        let failed = CellRun {
            outcome: Err("boom".into()),
            ..run
        };
        let payload = result_payload(0, &jobs[0], &failed);
        assert_eq!(decode_result(0, &payload, &jobs), (0, failed));
    }

    #[test]
    #[should_panic(expected = "the job's key")]
    fn a_record_answering_another_job_is_refused() {
        let jobs = [tiny_job(), tiny_job().with_derived_seed()];
        let run = run_cell(&jobs[0], Job::run);
        // Cell 1's slot, cell 0's record: same identity, different variant.
        decode_result(0, &result_payload(1, &jobs[0], &run), &jobs);
    }

    #[test]
    #[should_panic(expected = "has no wall_nanos")]
    fn a_result_without_its_wall_clock_is_corruption() {
        let header = DIST_RESULT_SCHEMA
            .document(vec![("index", u64_json(0)), ("error", Json::str("boom"))])
            .to_string();
        let mut payload = (header.len() as u32).to_le_bytes().to_vec();
        payload.extend(header.as_bytes());
        decode_result(0, &payload, &[tiny_job()]);
    }

    #[test]
    #[should_panic(expected = "no 'profile' switch")]
    fn a_shard_without_the_profiling_switch_is_corruption() {
        let doc = DIST_SHARD_SCHEMA.document(vec![("cells", Json::arr(Vec::new()))]);
        decode_shard(doc.to_string().as_bytes());
    }

    #[test]
    fn shards_round_trip_with_the_profiling_switch() {
        let jobs = [tiny_job(), tiny_job().with_derived_seed()];
        let (profile, cells) = decode_shard(&shard_payload(1, &jobs[1]));
        assert_eq!(profile, athena_probe::profiling_enabled());
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, 1);
        assert_eq!(record_key(&cells[0].1), record_key(&jobs[1]));
    }

    #[test]
    fn pools_compare_by_configuration() {
        let cmd = WorkerCommand::new("/bin/true", &["--worker"]);
        assert_eq!(DistPool::new(cmd.clone(), 4), DistPool::new(cmd.clone(), 4));
        assert_ne!(DistPool::new(cmd.clone(), 4), DistPool::new(cmd.clone(), 2));
        let other = cmd.clone().with_env("K", "V");
        assert_ne!(DistPool::new(cmd, 4), DistPool::new(other, 4));
    }
}
