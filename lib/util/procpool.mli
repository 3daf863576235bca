(** Coordinator/worker process pool for supervised sweeps ([--workers N],
    [--hosts HOST:PORT,...]).

    The in-process {!Pool} cannot survive a SIGKILL — a dead domain takes
    the whole runtime with it.  This pool runs sweep cells in separate OS
    processes so the coordinator can lose a worker (a crash, an OOM kill,
    injected [--fault kill@i]) and recover: respawn the worker, salvage
    completed cells from its crash-safe journal, and retry exactly the cell
    whose attempt was lost.

    {b Execution model.}  The coordinator spawns [N] local workers —
    normally by re-executing its own binary with a hidden [__worker] argv
    marker ({!reexec_spawner}) — and connects to any number of standing
    remote workers ([pv_cli __worker --listen HOST:PORT]) over TCP.  Both
    kinds are greeted with the same [HELLO] line carrying slot id, sweep
    ordinal, journal path and the argv to rebuild the identical sweep from,
    and speak the same newline-framed protocol over a {!Transport.link}
    ([RUN <index> <attempt> <hex key>] down, [RDY]/[OK]/[ERR] up).  Cell
    {e results never travel inside the control protocol}: the worker
    appends each result to its own checksummed {!Journal} (and the shared
    {!Rescache}) before replying, and the coordinator reads values back
    from worker journals after the run — from the shared filesystem when
    there is one, or by pulling the journal's raw checksummed bytes over
    the same connection ([PULL] → [JNL <nbytes>] + payload) when there is
    not.  A worker killed between journal append and reply therefore loses
    nothing — the coordinator finds the record when it reaps the corpse.

    {b Recovery.}  Local worker death is detected by [waitpid] (not pipe
    EOF, which fork-spawned siblings can hold open); remote death is an
    EOF/reset on the socket or a handshake that never produces [RDY]
    within the deadline.  Either way the coordinator drains raced replies,
    consults the worker's journal for the inflight cell (present →
    completed; absent → a lost, transient attempt that re-queues under the
    retry budget), and revives the slot — a fresh local process respawned
    into the same journal (the fresh worker's [open_writer] quarantines
    and truncates the torn record the kill left behind), or a fresh
    connection to the same standing remote worker.  Local respawns share
    one pool-wide budget ([respawns]); each host has its own budget of
    [host_respawns + 1] connection attempts, and a host that exhausts it
    is abandoned and named in the dead-host report while the sweep
    continues on the remaining workers.  A pool that exhausts both workers
    and budgets fails its remaining cells instead of hanging.

    {b Determinism.}  Cell identity is the key (stable across processes
    and machines); fault indices are positions in the coordinator's
    runnable list, carried in each [RUN] command, so [Fault.decide] sees
    identical inputs in every process and the injected pattern is
    reproducible for any mix of local and remote workers. *)

exception Worker_failure of string
(** A cell failed inside a worker process.  The payload is the worker-side
    [Printexc.to_string] of the real exception, and the registered printer
    returns it verbatim — so failure reports render byte-identically to the
    single-process path. *)

(** {1 Worker side} *)

type ctx = {
  wid : int;  (** worker slot id (stable across respawns) *)
  journal : string;  (** this worker's crash-safe journal path *)
  sweep : int;  (** ordinal of the {!Supervise.run} call to serve *)
  replay : string option;
      (** combined journal holding earlier sweeps' results, so dependent
          sweeps (calibration → points) replay instead of recomputing *)
  cmd_in : in_channel;  (** coordinator commands *)
  reply_out : out_channel;
      (** protocol replies (a private dup of stdout or of the socket) *)
}

val worker_arg : string
(** ["__worker"]: the argv marker the CLI checks to enter worker mode. *)

type hello = {
  h_wid : int;
  h_sweep : int;
  h_journal : string;
  h_replay : string option;
  h_argv : string list;
}
(** The coordinator's greeting, the first protocol line on every worker
    connection — a local worker's stdin pipe or a standing worker's socket
    alike: slot id, sweep ordinal, journal path, replay journal and the
    argv to rebuild the sweep from ([HELLO <ver> <wid> <sweep> <hex
    journal> <hex replay|-> <hex argv>...] — paths and argv are hex-coded
    so they can never smuggle a space or newline into the framing). *)

val hello_line : hello -> string

val bootstrap :
  ?timeout:float -> cmd:Unix.file_descr -> reply:Unix.file_descr -> unit ->
  (ctx * string list, string) result
(** The one worker bootstrap.  Read one [HELLO] line from [cmd] within
    [timeout] (default 30 s; unbuffered, so the commands behind it stay in
    [cmd]), parse it, create the journal's directory, dup [reply] as the
    private reply channel, then point stdout (and stderr, unless
    [PV_PROCPOOL_DEBUG] is set) at [/dev/null] — the worker re-runs the
    whole CLI code path and none of its human-facing output may pollute the
    protocol or the terminal.  Records the context for {!worker_ctx} and
    returns it with the [HELLO]'s argv.  Silence, EOF, a malformed line or
    an uncreatable directory is an [Error] with a one-line diagnostic; stdout,
    stderr and the recorded context are then left untouched. *)

val worker_main : string list -> run:(argv:string list -> int) -> 'a
(** [pv_cli __worker ARGS]: {!bootstrap}, then exit with [run] on the
    [HELLO]'s argv — re-evaluating the CLI so the sweep code path finds
    {!worker_ctx} and serves cells.  Without [--listen] the worker is a
    local child reading the [HELLO] on stdin and replying on stdout.  With
    [--listen HOST:PORT] it is a standing TCP worker: bind the address (port
    [0] lets the kernel pick), print ["procpool: worker listening on
    HOST:PORT"] to stderr, and serve coordinators forever through
    {!standing_accept}, each forked child bootstrapping on its connection.
    Exits 70 when no valid [HELLO] arrives within the deadline, or on a bad
    listen spec. *)

val worker_ctx : unit -> ctx option
(** The context recorded by {!bootstrap}, if this process is a worker — how
    library code (Supervise, the CLI) detects worker mode. *)

val in_worker : unit -> bool

type verdict = Done | Fail of { transient : bool; reason : string }
(** What a worker reports for one cell.  [Done] implies the result has
    already been journaled (and cached).  Transient failures re-queue under
    the coordinator's retry budget; permanent ones fail the cell. *)

val serve : ctx -> handle:(index:int -> attempt:int -> key:string -> verdict) -> unit
(** Worker main loop: announce readiness, then execute [RUN] commands via
    [handle] until [FIN] or EOF.  [handle] owns everything domain-specific
    (finding the cell for [key], fault realization, journaling).  [PULL]
    replies with the journal's current raw bytes ([JNL <nbytes>] +
    payload) so a coordinator without filesystem access can collect
    results. *)

val standing_accept : Unix.file_descr -> serve:(conn:Unix.file_descr -> unit) -> unit
(** Accept loop for a standing worker: accept each connection, fork, and
    run [serve] in the child (which must not return to the accept loop — it
    is [_exit]ed); the child reads the [HELLO], so a silent client never
    blocks the loop.  The parent reaps finished children and keeps
    listening.  Never returns.  Exposed so tests can serve with their own
    cells instead of re-running a CLI. *)

(** {1 Spawning local workers} *)

type spawner = wid:int -> journal:string -> Transport.link

val fork_spawner : (ctx -> unit) -> spawner
(** Spawn workers by [fork]: the child runs the callback on a fresh context
    and [_exit]s.  For tests — no re-exec and no [HELLO], so the callback
    closes over the test's cells directly.  [sweep]/[replay] are
    [0]/[None]. *)

val set_reexec_argv : string list -> unit
(** Record the CLI's original argv (without the program name) so
    {!reexec_spawner} and {!tcp_connector} can put it in the [HELLO].
    Called once at CLI startup. *)

val reexec_available : unit -> bool

val reexec_spawner : sweep:int -> replay:string option -> spawner
(** Spawn workers by re-executing [Sys.executable_name __worker] with the
    inherited environment, then writing the slot's [HELLO] into its stdin
    pipe.  Raises [Invalid_argument] if {!set_reexec_argv} was never
    called. *)

(** {1 Connecting to standing workers} *)

type connector =
  wid:int -> journal:string -> host:string -> port:int -> timeout:float ->
  (Transport.link, string) result
(** Open one connection to a standing worker and send its [HELLO]
    (coordinator side). *)

val tcp_connector : sweep:int -> replay:string option -> connector
(** The production connector: {!Transport.connect}, then the same [HELLO]
    {!reexec_spawner} sends.  Raises [Invalid_argument] if
    {!set_reexec_argv} was never called. *)

(** {1 Coordinator side} *)

type outcome =
  | Completed of { attempts : int }
      (** the cell's value is in some worker journal *)
  | Failed of { attempts : int; transient : bool; reason : string }

type dead_host = { dh_host : string; dh_port : int; dh_reason : string }
(** A remote worker abandoned mid-sweep: its connection budget is spent.
    Cells it was running were re-arbitrated before abandonment; the sweep
    result is complete (or failed per-cell) regardless, but the caller
    should surface the loss. *)

val run_jobs :
  ?hosts:(string * int) list ->
  ?host_respawns:int ->
  ?drain_timeout:float ->
  ?handshake_timeout:float ->
  ?connect:connector ->
  workers:int ->
  respawns:int ->
  retries:int ->
  scratch:string ->
  spawn:spawner ->
  keys:string array ->
  unit ->
  outcome array * string list * dead_host list
(** Run one cell per entry of [keys] (cell [i]'s fault index is [i]) on a
    pool of [workers] local processes plus one remote worker per [hosts]
    entry (slot ids continue past the local ones), respawning dead local
    workers up to [respawns] times total, reconnecting to each host up to
    [host_respawns] (default [respawns]) times beyond its first attempt,
    and retrying transiently failed or killed attempts up to [retries]
    extra times per cell.  [workers] may be [0] when [hosts] is non-empty;
    [connect] is required with [hosts] (see {!tcp_connector}).  Worker
    journals are created under [scratch] ([worker-<wid>.journal]); remote
    journal segments are pulled over the connection after the sweep when
    no shared filesystem made them appear locally.  [drain_timeout]
    bounds the post-[FIN] exit grace period (and the journal pull);
    default [PV_PROCPOOL_DRAIN_S] or 10 s, and a straggler that outlives
    it is killed with a one-line warning naming the worker.
    [handshake_timeout] bounds connect + [RDY]; default
    [PV_PROCPOOL_HANDSHAKE_S] or 10 s.  Returns per-cell outcomes (index
    order), the worker journal paths that exist, and the hosts abandoned
    mid-sweep.  SIGPIPE is ignored for the duration. *)
