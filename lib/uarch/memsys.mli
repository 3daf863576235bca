(** The memory hierarchy of one simulated core: L1I + L1D, a shared L2 and a
    flat DRAM latency, in front of the sparse backing store.

    All addresses passed here are physical keys ({!Pv_isa.Layout.phys_key}). *)

type config = {
  l1i_bytes : int;
  l1i_ways : int;
  l1i_latency : int;
  l1d_bytes : int;
  l1d_ways : int;
  l1d_latency : int;
  l2_bytes : int;
  l2_ways : int;
  l2_latency : int;
  line_bytes : int;
  dram_latency : int;
}

val default_config : config
(** Table 7.1: 32 KiB 4-way L1I, 32 KiB 8-way L1D (2-cycle), 2 MiB 16-way L2
    (8-cycle), 64 B lines, 100-cycle DRAM (50 ns at 2 GHz). *)

type t

val create : ?config:config -> Pv_isa.Mem.t -> t

val mem : t -> Pv_isa.Mem.t
val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t
val dram_latency : t -> int

val data_read : t -> int -> int * bool
(** [data_read t key] performs a load access: returns (round-trip latency,
    L1D hit?) and updates all levels (fills on miss).  The architectural value
    is read separately via {!Pv_isa.Mem}. *)

val data_read_lat : t -> int -> int
(** {!data_read} without the hit flag (and without allocating the result
    pair) — the load path the pipeline's cycle loop uses. *)

val data_write : t -> int -> unit
(** Write-allocate access performed at store commit (timing ignored). *)

val inst_read : t -> int -> int
(** Instruction-fetch access latency for the line containing [key]. *)

val would_hit_l1d : t -> int -> bool
(** Non-mutating L1D presence check (used by the DOM guard). *)

val reload_latency : t -> int -> int
(** Latency an attacker's reload of [key] would observe; performs a real
    access (fills caches), exactly like the reload half of flush+reload. *)

val flush_line : t -> int -> unit
(** clflush: evict the line from every level. *)
