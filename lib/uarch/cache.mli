(** Set-associative cache with true-LRU replacement.

    Caches hold only presence (tags), never data — data lives in {!Pv_isa.Mem}.
    Crucially for transient-execution modelling, a fill performed by a
    speculatively executed load persists after a squash; that persistence is
    the covert channel every attack in this repository uses. *)

type t

val create :
  name:string -> size_bytes:int -> line_bytes:int -> ways:int -> latency:int -> t
(** Raises [Invalid_argument] unless sizes are positive and divide evenly. *)

val name : t -> string
val latency : t -> int
val sets : t -> int
val ways : t -> int

val access : t -> int -> bool
(** [access t addr] looks up the line containing [addr]: on hit, updates LRU
    and returns [true]; on miss, fills (evicting LRU) and returns [false]. *)

val touch : t -> int -> unit
(** Promote a resident line to most-recently-used (the deferred LRU update);
    no effect if absent. *)

val probe : t -> int -> bool
(** Presence check with no side effects. *)

val flush_line : t -> int -> unit
val flush_all : t -> unit

val state_signature : t -> string
(** Canonical rendering of the cache's architectural state: every resident
    line as [set.way:tag@rank;] where [rank] is the line's LRU ordinal within
    its set (0 = least recent).  Two caches holding the same lines with the
    same relative recency produce identical signatures regardless of how many
    accesses built that state — the contract checker diffs these across runs
    with different secrets. *)

val hits : t -> int
val misses : t -> int
val hit_rate : t -> float
val reset_stats : t -> unit
