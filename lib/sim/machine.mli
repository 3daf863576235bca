(** The full-system machine: one OOO core ({!Pv_uarch.Pipeline}), the
    synthetic kernel ({!Pv_kernel.Kernel} + {!Pv_kernel.Kimage}), and an
    installed defense ({!Perspective.Defense}).

    Lifecycle:
    + {!create} with the set of system calls to realize in the kernel image;
    + {!add_process} for each workload (user ISA code is supplied as a
      function of the allocated base fid);
    + {!freeze} to build the program, memory system and pipeline;
    + optionally {!profile} workloads functionally (feeds dynamic ISVs);
    + {!install_defense};
    + {!run} user entry points on the pipeline.

    Microarchitectural state persists across runs; {!run} returns the
    per-run counter delta alongside the pipeline result. *)

type t

type handle
(** A spawned process together with its user code. *)

val create :
  ?kernel_config:Pv_kernel.Kernel.config ->
  ?pipe_config:Pv_uarch.Pipeline.config ->
  ?mem_config:Pv_uarch.Memsys.config ->
  seed:int ->
  syscalls:int list ->
  unit ->
  t

val kernel : t -> Pv_kernel.Kernel.t
val kimage : t -> Pv_kernel.Kimage.t

val add_process :
  t ->
  name:string ->
  user_funcs:(base_fid:int -> Pv_isa.Program.func list) ->
  entry:int ->
  handle
(** [entry] is the index (within the returned list) of the run entry
    function.  Must be called before {!freeze}. *)

val process : handle -> Pv_kernel.Process.t
val entry_fid : handle -> int

val freeze : t -> unit
(** Build the program and pipeline; seeds per-process dispatch tables and
    working-set memory.  Raises if called twice or before any process. *)

val program : t -> Pv_isa.Program.t
val pipeline : t -> Pv_uarch.Pipeline.t
val memsys : t -> Pv_uarch.Memsys.t
val mem : t -> Pv_isa.Mem.t

val profile :
  t -> handle -> workload:(int * int array) list -> repetitions:int -> unit
(** Functional-only workload execution feeding the tracing subsystem
    (dynamic ISV profiles), including dispatch-target accounting. *)

val install_defense :
  t ->
  ?gadget_nodes:int list ->
  ?block_unknown:bool ->
  ?isv_cache_entries:int ->
  ?dsv_cache_entries:int ->
  Perspective.Defense.scheme ->
  unit
(** Build views for every process from its traced (or realized) syscall set
    and install the scheme's guard on the pipeline.  [gadget_nodes] feeds
    ISV++ hardening. *)

val defense : t -> Perspective.Defense.t option
val view_manager : t -> Perspective.View_manager.t

val run :
  ?fuel:int ->
  ?regs:int array ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  t ->
  handle ->
  Pv_uarch.Pipeline.result * Pv_uarch.Pipeline.counters
(** Execute the process's user entry until [Halt]; returns the result and
    this run's counter delta.  [fuel] defaults to twice the pipeline
    config's [max_cycles] watchdog (a full run spans many syscalls), i.e.
    40M cycles with the stock config.  [on_commit] observes every committed
    [(fid, idx, insn)] in architectural order — the equivalence suite uses
    it to digest the commit stream of a full machine run. *)

exception Run_timeout of { name : string; cycles : int; committed : int }
(** A run hit its cycle-fuel watchdog: the structured form of a livelocked
    simulation.  Registered with a human-readable [Printexc] printer. *)

exception Run_fault of { name : string; msg : string }
(** A run committed a fault. *)

val check_result : name:string -> Pv_uarch.Pipeline.result -> unit
(** [check_result ~name r] is the supervision bridge: it turns a non-[Halted]
    pipeline outcome into {!Run_timeout} / {!Run_fault} so the experiment
    layer's supervisor can classify and report it per cell. *)

(** {1 Self-contained jobs}

    A {!job} captures every input of one measurement run as plain data, so
    the experiment layer can fan runs out across {!Pv_util.Pool} domains:
    {!run_job} executes the whole lifecycle (create, add_process, freeze,
    profile, install_defense, run) on a {e private} machine, sharing no
    mutable state — kernel, memory, pipeline, RNG, view caches — with any
    concurrent job.  Equal jobs yield bit-identical results on any domain. *)

type job = {
  job_seed : int;
  job_syscalls : int list;
  job_pipe_config : Pv_uarch.Pipeline.config;
  job_name : string;
  job_user_funcs : base_fid:int -> Pv_isa.Program.func list;
  job_entry : int;
  job_profile : (int * int array) list;  (** functional profiling workload *)
  job_profile_reps : int;  (** 0 disables profiling *)
  job_scheme : Perspective.Defense.scheme;
  job_plant_gadgets : bool;
      (** plant the Kasper gadget corpus and feed its nodes to ISV++ *)
  job_block_unknown : bool;
  job_isv_cache_entries : int;
  job_dsv_cache_entries : int;
}

val job :
  ?pipe_config:Pv_uarch.Pipeline.config ->
  ?profile:(int * int array) list ->
  ?profile_reps:int ->
  ?plant_gadgets:bool ->
  ?block_unknown:bool ->
  ?isv_cache_entries:int ->
  ?dsv_cache_entries:int ->
  seed:int ->
  syscalls:int list ->
  name:string ->
  user_funcs:(base_fid:int -> Pv_isa.Program.func list) ->
  entry:int ->
  Perspective.Defense.scheme ->
  job

val run_job :
  ?fuel:int ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  job ->
  t * handle * Pv_uarch.Pipeline.result * Pv_uarch.Pipeline.counters
(** Build a fresh machine from the job spec and execute it; the returned
    machine and handle let callers extract post-run statistics (slab, view
    caches, ISV metadata). *)

val table_va : t -> handle -> int -> int option
(** VA of the process's dispatch table for a realized syscall (r13). *)
