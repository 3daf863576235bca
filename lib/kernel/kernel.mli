(** The synthetic operating system: processes, cgroups, allocators, the
    callgraph, tracing, and functional system-call handlers.

    The kernel has two faces.  The {e functional} face (this module) performs
    the architectural effects of system calls — allocating and freeing frames
    through the buddy allocator, kmalloc/kfree through the (secure) slab
    allocator, mapping pages, recording traces.  The {e timing} face is the
    ISA code of {!Kimage}, executed on the pipeline by the machine in
    [Pv_sim]; {!exec_syscall} returns the parameters the machine loads into
    the kernel-mode registers before redirecting fetch to the entry. *)

type config = {
  frames : int;  (** physical frames (4 KiB each) *)
  slab_mode : Slab.mode;
  graph_config : Callgraph.config;
  data_frames_per_proc : int;  (** kernel-side working-set frames per process *)
  resident_objects : int;  (** long-lived kmalloc objects per process *)
}

val default_config : config

type t

val create : ?config:config -> seed:int -> unit -> t
(** A fresh kernel: physical memory, slab, cgroups, trace and processes are
    its own.  Its callgraph is shared: kernels created with the same
    [config.graph_config] and [seed] in one process get the same (physically
    equal) immutable graph. *)

val phys : t -> Physmem.t
val slab : t -> Slab.t
val graph : t -> Callgraph.t
val trace : t -> Trace.t
val cgroups : t -> Cgroup.t
val processes : t -> Process.t list

val shared_base : t -> int
(** Direct-map VA of kernel-shared data (outside every process DSV). *)

val unknown_base : t -> int
(** VA of untracked memory (paper §6.1 "unknown allocations"). *)

val spawn : t -> name:string -> Process.t
(** Create a cgroup + process with its kernel stack, working-set frames and
    resident slab objects. *)

val owner_of_va : t -> int -> Physmem.owner option
(** Ownership of the page behind a kernel VA: direct-map pages resolve
    through the buddy allocator; other kernel VAs are [Unknown]; user VAs are
    [None] (resolved per process through page tables). *)

type sys_effects = {
  ret : int;
  data_va : int;  (** value for r8: base of the data this call works on *)
  trips : int;  (** value for r11 *)
  variant : int;  (** value for r12 *)
  new_frames : int list;  (** frames allocated by this call (cold pages) *)
  freed_frames : int list;  (** frames released by this call *)
}

val exec_syscall : t -> Process.t -> nr:int -> args:int array -> sys_effects
(** Run the functional handler: performs allocations/frees, updates traces,
    and returns the register parameters for the timing run.  [args] meaning:
    read/write/send/recv: bytes; select/poll/epoll_wait: nfds;
    mmap/munmap/fork: pages. *)
