(** The [BENCH_<date>.json] speed-trajectory format.

    Every run of [bench --only cycles] emits one trajectory entry at the
    repository root: a set of pinned (workload x scheme) cells with their
    simulated-cycle counts, wall-clock seconds and derived simulated-cycles
    per wall-second, plus whole-run aggregates.  Successive PRs extend the
    trajectory (one file per date), so a speed regression is a diff against
    the previous committed entry — {!latest_in} finds it, {!delta_pct}
    quantifies it, and the CI guard fails the build past a threshold.

    The format is deliberately self-contained: {!parse} is a minimal JSON
    reader with no external dependency, and {!validate} is the schema check
    CI runs against freshly emitted files. *)

type cell = {
  workload : string;
  scheme : string;  (** defense-scheme label, e.g. "UNSAFE", "PERSPECTIVE" *)
  sim_cycles : int;  (** simulated cycles consumed by the cell's run *)
  committed : int;  (** committed (architectural) instructions *)
  wall_s : float;  (** wall-clock seconds for the cell *)
  cps : float;  (** [sim_cycles /. wall_s]: simulated cycles per second *)
}

type t = {
  schema_version : int;
  date : string;  (** YYYY-MM-DD *)
  label : string;  (** emitting harness, e.g. "cycles" *)
  scale : float;  (** pinned workload scale the cells ran at *)
  jobs : int;
  cells : cell list;
  total_sim_cycles : int;
  total_wall_s : float;
  agg_cps : float;  (** [total_sim_cycles /. total_wall_s] *)
}

val make :
  date:string -> label:string -> scale:float -> jobs:int -> cell list -> t
(** Build an entry; totals and aggregate cps are computed from the cells. *)

val cell :
  workload:string -> scheme:string -> sim_cycles:int -> committed:int ->
  wall_s:float -> cell
(** One measured cell; [cps] is derived (0 when [wall_s] is 0). *)

val write : path:string -> t -> unit
(** Atomic temp-file + rename write of the deterministic rendering (fields
    in fixed order, [%.6f] walls). *)

val parse : string -> (t, string) result
(** Parse JSON text; [Error] carries a human-readable reason.  Unknown
    fields are rejected — the schema is closed. *)

val load : path:string -> (t, string) result

val validate : t -> (unit, string) result
(** Schema check: supported version, non-empty date/cells, non-negative
    measurements, totals consistent with the cells (1e-6 relative
    tolerance on aggregates). *)

val filename : date:string -> string
(** ["BENCH_<date>.json"] — the primary ("cycles") trajectory. *)

val filename_for : label:string -> date:string -> string
(** {!filename} for label ["cycles"]; ["BENCH_<label>_<date>.json"] for any
    other label, so secondary trajectories (e.g. "pool") never collide with
    the primary one on a date. *)

val latest_in : dir:string -> ?excluding:string -> ?label:string -> unit -> string option
(** Path of the newest trajectory entry in [dir] (dates sort
    lexicographically within a label family), skipping the basename
    [excluding] — pass the file being emitted to find the {e previous}
    entry.  [label] restricts the search to entries whose parsed [label]
    field matches (unparsable files are skipped); without it every
    trajectory file competes, which is only safe while one label exists.
    [None] when the trajectory is empty. *)

val delta_pct : prev:t -> cur:t -> float
(** Aggregate cycles/sec change in percent, positive = faster than [prev]. *)
