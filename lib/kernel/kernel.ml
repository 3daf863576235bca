module Layout = Pv_isa.Layout
module Rng = Pv_util.Rng

type config = {
  frames : int;
  slab_mode : Slab.mode;
  graph_config : Callgraph.config;
  data_frames_per_proc : int;
  resident_objects : int;
}

let default_config =
  {
    frames = 65_536;
    slab_mode = Slab.Secure;
    graph_config = Callgraph.default_config;
    data_frames_per_proc = 8;
    resident_objects = 192;
  }

type proc_state = {
  mutable rotor : int; (* round-robin index into working-set frames *)
  mutable counters : int array; (* per-syscall invocation counts *)
  mutable mmap_stack : (int * int list) list; (* (va, frames) *)
  mutable fork_frames : int list; (* freed on the next fork (child exited) *)
  mutable skbs : int list; (* transient network objects *)
}

type t = {
  cfg : config;
  phys : Physmem.t;
  slab : Slab.t;
  cgroups : Cgroup.t;
  graph : Callgraph.t;
  trace : Trace.t;
  rng : Rng.t;
  mutable procs : Process.t list;
  mutable next_pid : int;
  mutable next_asid : int;
  shared_va : int;
  states : (int, proc_state) Hashtbl.t; (* pid -> state *)
}

(* The callgraph is the immutable part of a kernel: [Callgraph.synthesize]
   is pure and nothing mutates a [Callgraph.t] afterwards, so every kernel
   built from the same (graph_config, seed) in this process shares one
   graph, read-only, across domains.  One entry suffices: a sweep's cells
   share the simulation seed.  Two domains missing at once both synthesize
   equal graphs and the later store wins; either is correct. *)
let graph_memo : (Callgraph.config * int * Callgraph.t) option Atomic.t =
  Atomic.make None

let shared_graph config seed =
  match Atomic.get graph_memo with
  | Some (c, s, g) when s = seed && c = config -> g
  | _ ->
    let g = Callgraph.synthesize ~config seed in
    Atomic.set graph_memo (Some (config, seed, g));
    g

let create ?(config = default_config) ~seed () =
  let phys = Physmem.create ~frames:config.frames in
  let shared_frame =
    match Physmem.alloc_pages phys ~order:2 Physmem.Kernel with
    | Some f -> f
    | None -> invalid_arg "Kernel.create: not enough frames"
  in
  let graph = shared_graph config.graph_config seed in
  {
    cfg = config;
    phys;
    slab = Slab.create ~mode:config.slab_mode phys;
    cgroups = Cgroup.create ();
    graph;
    trace = Trace.create graph;
    rng = Rng.create (seed lxor 0x4B65726E);
    procs = [];
    next_pid = 1;
    next_asid = 1;
    shared_va = Physmem.frame_va shared_frame;
    states = Hashtbl.create 8;
  }

let phys t = t.phys
let slab t = t.slab
let graph t = t.graph
let trace t = t.trace
let cgroups t = t.cgroups
let processes t = t.procs
let shared_base t = t.shared_va
let unknown_base _ = Layout.kernel_global_base

let state t p =
  match Hashtbl.find_opt t.states (Process.pid p) with
  | Some s -> s
  | None ->
    let s =
      {
        rotor = 0;
        counters = Array.make Sysno.count 0;
        mmap_stack = [];
        fork_frames = [];
        skbs = [];
      }
    in
    Hashtbl.replace t.states (Process.pid p) s;
    s

let alloc_frame_exn t owner =
  match Physmem.alloc_pages t.phys ~order:0 owner with
  | Some f -> f
  | None -> failwith "Kernel: out of physical memory"

let spawn t ~name =
  let cg = Cgroup.add t.cgroups name in
  let p = Process.create ~pid:t.next_pid ~asid:t.next_asid ~cgroup:cg in
  t.next_pid <- t.next_pid + 1;
  t.next_asid <- t.next_asid + 1;
  t.procs <- p :: t.procs;
  let owner = Physmem.Cgroup cg in
  (* Kernel stack (vmalloc-style, tracked into the DSV; paper §6.1). *)
  Process.set_kstack p (alloc_frame_exn t owner);
  (* Kernel-side working set. *)
  for _ = 1 to t.cfg.data_frames_per_proc do
    Process.note_data_frame p (alloc_frame_exn t owner)
  done;
  (* Resident slab objects (file table, task bookkeeping, ...). *)
  for i = 1 to t.cfg.resident_objects do
    let size = Slab.size_classes.(i mod Array.length Slab.size_classes) in
    ignore (Slab.kmalloc t.slab ~owner ~size)
  done;
  ignore (state t p);
  p

let owner_of_va t va =
  match Physmem.frame_of_va va with
  | Some frame -> Physmem.owner_of t.phys frame
  | None ->
    if va >= Layout.kernel_global_base then Some Physmem.Unknown
    else if Layout.space_of_va va = Layout.Kernel then Some Physmem.Unknown
    else None

type sys_effects = {
  ret : int;
  data_va : int;
  trips : int;
  variant : int;
  new_frames : int list;
  freed_frames : int list;
}

let installed_ops t p site =
  Callgraph.default_installed t.graph ~app_seed:(Process.cgroup p) site

let rotate_data t p =
  let s = state t p in
  let frames = Process.data_frames p in
  if Array.length frames = 0 then shared_base t
  else begin
    s.rotor <- s.rotor + 1;
    Physmem.frame_va frames.(s.rotor mod Array.length frames)
  end

(* Network-path object churn (skbs, sds strings): allocate a few transient
   objects per call and retire the oldest once the in-flight pool exceeds
   its cap.  Keeping a pool of live objects is what makes page returns to
   the buddy allocator rare (paper 9.2 "Domain Reassignment"). *)
let churn_pool_cap = 96

let kmalloc_churn t ~owner s ~count ~size_seed ~large =
  for i = 0 to count - 1 do
    let size =
      (* transient sizes follow the skb/sds mix: 64..256 bytes, so a slab
         page holds 16-64 of them and rarely drains completely.  Large
         payloads (redis values) add an occasional 1 KiB object whose
         4-object pages do drain - the source of redis's higher domain
         reassignment rate (paper 9.2). *)
      if large && (size_seed + i) mod 8 = 0 then 1024
      else Slab.size_classes.(3 + ((size_seed + i) mod 3))
    in
    match Slab.kmalloc t.slab ~owner ~size with
    | Some va -> s.skbs <- va :: s.skbs
    | None -> ()
  done;
  let rec retire l n =
    if n <= churn_pool_cap then l
    else
      match List.rev l with
      | [] -> l
      | oldest :: _ ->
        Slab.kfree t.slab oldest;
        retire (List.filter (( <> ) oldest) l) (n - 1)
  in
  s.skbs <- retire s.skbs (List.length s.skbs)

let exec_syscall t p ~nr ~args =
  let s = state t p in
  let owner = Physmem.Cgroup (Process.cgroup p) in
  let arg i = if i < Array.length args then args.(i) else 0 in
  s.counters.(nr) <- s.counters.(nr) + 1;
  let variant = s.counters.(nr) in
  Trace.record_syscall t.trace ~ctx:(Process.cgroup p) nr;
  Trace.record_nodes t.trace ~ctx:(Process.cgroup p)
    (Callgraph.sample_trace t.graph t.rng ~syscall:nr ~installed:(installed_ops t p));
  let default_effects ?(ret = 0) ?(trips = 16) ?new_frames () =
    {
      ret;
      data_va = rotate_data t p;
      trips;
      variant;
      new_frames = (match new_frames with Some f -> f | None -> []);
      freed_frames = [];
    }
  in
  if nr = Sysno.sys_getpid then default_effects ~ret:(Process.pid p) ~trips:4 ()
  else if nr = Sysno.sys_clock_gettime then default_effects ~trips:4 ()
  else if
    nr = Sysno.sys_read || nr = Sysno.sys_write || nr = Sysno.sys_writev
    || nr = Sysno.sys_fstat
  then
    let bytes = max 64 (arg 0) in
    default_effects ~ret:bytes ~trips:(bytes / 64) ()
  else if nr = Sysno.sys_send || nr = Sysno.sys_recv then begin
    let bytes = max 64 (arg 0) in
    kmalloc_churn t ~owner s ~count:(1 + (variant mod 3)) ~size_seed:variant
      ~large:(bytes >= 1024);
    (* arg 1 = value-churn hint: the app reallocates whole value buffers on
       this path (redis sds growth), which takes and returns page-order
       allocations - the paper's main source of domain reassignments. *)
    if arg 1 = 1 && variant mod 160 = 0 then (
      match Slab.kmalloc t.slab ~owner ~size:4096 with
      | Some va -> Slab.kfree t.slab va
      | None -> ());
    default_effects ~ret:bytes ~trips:(bytes / 64) ()
  end
  else if
    nr = Sysno.sys_select || nr = Sysno.sys_poll || nr = Sysno.sys_epoll_wait
  then begin
    let nfds = max 8 (arg 0) in
    (* Implicit allocation for fd metadata (paper Fig. 5.2), freed on exit. *)
    let md = Slab.kmalloc t.slab ~owner ~size:(min 2048 (nfds * 16)) in
    (match md with Some va -> Slab.kfree t.slab va | None -> ());
    default_effects ~ret:(nfds / 4) ~trips:nfds ()
  end
  else if nr = Sysno.sys_mmap || nr = Sysno.sys_brk || nr = Sysno.sys_mprotect
  then begin
    let pages = max 1 (arg 0) in
    let frames = List.init (min pages 64) (fun _ -> alloc_frame_exn t owner) in
    let va = Process.fresh_heap_va p ~pages in
    List.iteri
      (fun i f -> Process.map_page p ~va:(va + (i * Layout.page_bytes)) ~frame:f)
      frames;
    s.mmap_stack <- (va, frames) :: s.mmap_stack;
    let data_va = Physmem.frame_va (List.hd frames) in
    {
      ret = va;
      data_va;
      trips = 64 * min pages 4;
      variant;
      new_frames = frames;
      freed_frames = [];
    }
  end
  else if nr = Sysno.sys_munmap then begin
    let freed = ref [] in
    (match s.mmap_stack with
    | (va, frames) :: rest ->
      s.mmap_stack <- rest;
      List.iteri
        (fun i f ->
          ignore (Process.unmap_page p ~va:(va + (i * Layout.page_bytes)));
          Physmem.free_pages t.phys ~frame:f ~order:0;
          freed := f :: !freed)
        frames
    | [] -> ());
    { (default_effects ~trips:16 ()) with freed_frames = !freed }
  end
  else if nr = Sysno.sys_page_fault then begin
    let frame = alloc_frame_exn t owner in
    let va = Process.fresh_heap_va p ~pages:1 in
    Process.map_page p ~va ~frame;
    {
      ret = va;
      data_va = Physmem.frame_va frame;
      trips = 64;
      variant;
      new_frames = [ frame ];
      freed_frames = [];
    }
  end
  else if nr = Sysno.sys_fork || nr = Sysno.sys_thread_create then begin
    (* The previous child has exited: release its memory. *)
    let freed = s.fork_frames in
    List.iter (fun f -> Physmem.free_pages t.phys ~frame:f ~order:0) freed;
    let pages = max 2 (arg 0) in
    let frames = List.init (min pages 128) (fun _ -> alloc_frame_exn t owner) in
    s.fork_frames <- frames;
    {
      ret = t.next_pid;
      data_va = Physmem.frame_va (List.hd frames);
      trips = 32 * min pages 8;
      variant;
      new_frames = frames;
      freed_frames = freed;
    }
  end
  else if nr = Sysno.sys_context_switch then default_effects ~trips:8 ()
  else default_effects ~trips:8 ()
