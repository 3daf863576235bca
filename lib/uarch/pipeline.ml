module Insn = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Mem = Pv_isa.Mem
module Iss = Pv_isa.Iss

type config = {
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  rob_entries : int;
  lq_entries : int;
  sq_entries : int;
  btb_entries : int;
  ras_entries : int;
  branch_latency : int;
  mispredict_penalty : int;
  retpoline : bool;
  kernel_entry_cycles : int;
  kernel_exit_cycles : int;
  max_cycles : int;
  trace_events : bool;
  trace_capacity : int;
}

let default_config =
  {
    fetch_width = 8;
    issue_width = 8;
    commit_width = 8;
    rob_entries = 192;
    lq_entries = 62;
    sq_entries = 32;
    btb_entries = 4096;
    ras_entries = 16;
    branch_latency = 6;
    mispredict_penalty = 8;
    retpoline = false;
    kernel_entry_cycles = 120;
    kernel_exit_cycles = 90;
    max_cycles = 20_000_000;
    trace_events = false;
    trace_capacity = 4096;
  }

type counters = {
  mutable cycles : int;
  mutable kernel_cycles : int;
  mutable committed : int;
  mutable committed_kernel : int;
  mutable committed_loads : int;
  mutable committed_kernel_loads : int;
  mutable syscalls : int;
  mutable squashes : int;
  mutable branch_mispredicts : int;
  mutable spec_loads : int;
  mutable fences_isv : int;
  mutable fences_dsv : int;
  mutable fences_baseline : int;
  (* Stall attribution: every zero-commit cycle of a live run is charged to
     exactly one class, so the eight classes sum to [stall_total]. *)
  mutable stall_total : int;
  mutable stall_fetch : int;
  mutable stall_rob_full : int;
  mutable stall_lsq : int;
  mutable stall_fence_isv : int;
  mutable stall_fence_dsv : int;
  mutable stall_fence_baseline : int;
  mutable stall_dram : int;
  mutable stall_exec : int;
}

let zero_counters () =
  {
    cycles = 0;
    kernel_cycles = 0;
    committed = 0;
    committed_kernel = 0;
    committed_loads = 0;
    committed_kernel_loads = 0;
    syscalls = 0;
    squashes = 0;
    branch_mispredicts = 0;
    spec_loads = 0;
    fences_isv = 0;
    fences_dsv = 0;
    fences_baseline = 0;
    stall_total = 0;
    stall_fetch = 0;
    stall_rob_full = 0;
    stall_lsq = 0;
    stall_fence_isv = 0;
    stall_fence_dsv = 0;
    stall_fence_baseline = 0;
    stall_dram = 0;
    stall_exec = 0;
  }

let add_counters a c =
  a.cycles <- a.cycles + c.cycles;
  a.kernel_cycles <- a.kernel_cycles + c.kernel_cycles;
  a.committed <- a.committed + c.committed;
  a.committed_kernel <- a.committed_kernel + c.committed_kernel;
  a.committed_loads <- a.committed_loads + c.committed_loads;
  a.committed_kernel_loads <- a.committed_kernel_loads + c.committed_kernel_loads;
  a.syscalls <- a.syscalls + c.syscalls;
  a.squashes <- a.squashes + c.squashes;
  a.branch_mispredicts <- a.branch_mispredicts + c.branch_mispredicts;
  a.spec_loads <- a.spec_loads + c.spec_loads;
  a.fences_isv <- a.fences_isv + c.fences_isv;
  a.fences_dsv <- a.fences_dsv + c.fences_dsv;
  a.fences_baseline <- a.fences_baseline + c.fences_baseline;
  a.stall_total <- a.stall_total + c.stall_total;
  a.stall_fetch <- a.stall_fetch + c.stall_fetch;
  a.stall_rob_full <- a.stall_rob_full + c.stall_rob_full;
  a.stall_lsq <- a.stall_lsq + c.stall_lsq;
  a.stall_fence_isv <- a.stall_fence_isv + c.stall_fence_isv;
  a.stall_fence_dsv <- a.stall_fence_dsv + c.stall_fence_dsv;
  a.stall_fence_baseline <- a.stall_fence_baseline + c.stall_fence_baseline;
  a.stall_dram <- a.stall_dram + c.stall_dram;
  a.stall_exec <- a.stall_exec + c.stall_exec

let copy_counters c =
  {
    cycles = c.cycles;
    kernel_cycles = c.kernel_cycles;
    committed = c.committed;
    committed_kernel = c.committed_kernel;
    committed_loads = c.committed_loads;
    committed_kernel_loads = c.committed_kernel_loads;
    syscalls = c.syscalls;
    squashes = c.squashes;
    branch_mispredicts = c.branch_mispredicts;
    spec_loads = c.spec_loads;
    fences_isv = c.fences_isv;
    fences_dsv = c.fences_dsv;
    fences_baseline = c.fences_baseline;
    stall_total = c.stall_total;
    stall_fetch = c.stall_fetch;
    stall_rob_full = c.stall_rob_full;
    stall_lsq = c.stall_lsq;
    stall_fence_isv = c.stall_fence_isv;
    stall_fence_dsv = c.stall_fence_dsv;
    stall_fence_baseline = c.stall_fence_baseline;
    stall_dram = c.stall_dram;
    stall_exec = c.stall_exec;
  }

let diff_counters a b =
  {
    cycles = a.cycles - b.cycles;
    kernel_cycles = a.kernel_cycles - b.kernel_cycles;
    committed = a.committed - b.committed;
    committed_kernel = a.committed_kernel - b.committed_kernel;
    committed_loads = a.committed_loads - b.committed_loads;
    committed_kernel_loads = a.committed_kernel_loads - b.committed_kernel_loads;
    syscalls = a.syscalls - b.syscalls;
    squashes = a.squashes - b.squashes;
    branch_mispredicts = a.branch_mispredicts - b.branch_mispredicts;
    spec_loads = a.spec_loads - b.spec_loads;
    fences_isv = a.fences_isv - b.fences_isv;
    fences_dsv = a.fences_dsv - b.fences_dsv;
    fences_baseline = a.fences_baseline - b.fences_baseline;
    stall_total = a.stall_total - b.stall_total;
    stall_fetch = a.stall_fetch - b.stall_fetch;
    stall_rob_full = a.stall_rob_full - b.stall_rob_full;
    stall_lsq = a.stall_lsq - b.stall_lsq;
    stall_fence_isv = a.stall_fence_isv - b.stall_fence_isv;
    stall_fence_dsv = a.stall_fence_dsv - b.stall_fence_dsv;
    stall_fence_baseline = a.stall_fence_baseline - b.stall_fence_baseline;
    stall_dram = a.stall_dram - b.stall_dram;
    stall_exec = a.stall_exec - b.stall_exec;
  }

let total_fences c = c.fences_isv + c.fences_dsv + c.fences_baseline

(* The stall classes by attributed cycles, in rendering order.  Their sum
   equals [stall_total] by construction (see [classify_stall]). *)
let stall_classes c =
  [
    ("fetch", c.stall_fetch);
    ("rob_full", c.stall_rob_full);
    ("lsq", c.stall_lsq);
    ("fence_isv", c.stall_fence_isv);
    ("fence_dsv", c.stall_fence_dsv);
    ("fence_baseline", c.stall_fence_baseline);
    ("dram", c.stall_dram);
    ("exec", c.stall_exec);
  ]

let observe_metrics reg c =
  let set = Pv_util.Metrics.set_int reg in
  set "pipeline.cycles" c.cycles;
  set "pipeline.kernel_cycles" c.kernel_cycles;
  set "pipeline.committed" c.committed;
  set "pipeline.committed_kernel" c.committed_kernel;
  set "pipeline.committed_loads" c.committed_loads;
  set "pipeline.committed_kernel_loads" c.committed_kernel_loads;
  set "pipeline.syscalls" c.syscalls;
  set "pipeline.squashes" c.squashes;
  set "pipeline.branch_mispredicts" c.branch_mispredicts;
  set "pipeline.spec_loads" c.spec_loads;
  set "pipeline.fences.isv" c.fences_isv;
  set "pipeline.fences.dsv" c.fences_dsv;
  set "pipeline.fences.baseline" c.fences_baseline;
  set "pipeline.fences.total" (total_fences c);
  set "pipeline.stall.total" c.stall_total;
  List.iter (fun (name, v) -> set ("pipeline.stall." ^ name) v) (stall_classes c)

(* ------------------------------------------------------------------ *)
(* Packed entry flags                                                   *)
(* ------------------------------------------------------------------ *)

(* Every boolean and small-enum field of a ROB entry lives in one immediate
   int, so the cycle loop tests and updates them with mask arithmetic on a
   single word instead of loading a spread of record fields.  Layout:

     bits 0-1   state         (0 waiting, 1 issued, 2 completed)
     bit  2     is_ctrl
     bit  3     pred_taken
     bit  4     actual_taken
     bit  5     resolved
     bit  6     spec_at_issue
     bit  7     vp_done
     bit  8     addr_known
     bit  9     kernel
     bits 10-11 blocked_src   (0 none, 1 isv, 2 dsv, 3 baseline)
     bit  12    is_load       (instruction class, fixed at dispatch: the
     bit  13    is_store       per-entry scans test these instead of
     bit  14    is_fence       matching on the instruction variant)

   The encoding is exposed in the mli so property tests can prove that any
   combination of fields round-trips and that fields never alias. *)
module Pack = struct
  type t = int

  let bits = 15
  let empty = 0

  let state_waiting = 0
  let state_issued = 1
  let state_completed = 2

  let blocked_none = 0
  let blocked_isv = 1
  let blocked_dsv = 2
  let blocked_baseline = 3

  let state f = f land 0x3
  let with_state f s = f land lnot 0x3 lor s

  let is_ctrl f = f land 0x4 <> 0
  let with_is_ctrl f b = if b then f lor 0x4 else f land lnot 0x4

  let pred_taken f = f land 0x8 <> 0
  let with_pred_taken f b = if b then f lor 0x8 else f land lnot 0x8

  let actual_taken f = f land 0x10 <> 0
  let with_actual_taken f b = if b then f lor 0x10 else f land lnot 0x10

  let resolved f = f land 0x20 <> 0
  let with_resolved f b = if b then f lor 0x20 else f land lnot 0x20

  let spec_at_issue f = f land 0x40 <> 0
  let with_spec_at_issue f b = if b then f lor 0x40 else f land lnot 0x40

  let vp_done f = f land 0x80 <> 0
  let with_vp_done f b = if b then f lor 0x80 else f land lnot 0x80

  let addr_known f = f land 0x100 <> 0
  let with_addr_known f b = if b then f lor 0x100 else f land lnot 0x100

  let kernel f = f land 0x200 <> 0
  let with_kernel f b = if b then f lor 0x200 else f land lnot 0x200

  let blocked_src f = (f lsr 10) land 0x3
  let with_blocked_src f s = f land lnot 0xC00 lor (s lsl 10)

  let is_load f = f land 0x1000 <> 0
  let with_is_load f b = if b then f lor 0x1000 else f land lnot 0x1000

  let is_store f = f land 0x2000 <> 0
  let with_is_store f b = if b then f lor 0x2000 else f land lnot 0x2000

  let is_fence f = f land 0x4000 <> 0
  let with_is_fence f b = if b then f lor 0x4000 else f land lnot 0x4000
end

let blocked_code_of_source = function
  | Guard.Isv -> Pack.blocked_isv
  | Guard.Dsv -> Pack.blocked_dsv
  | Guard.Baseline -> Pack.blocked_baseline

(* ROB entries are preallocated once per pipeline and reused in place: the
   cycle loop never allocates one.  All scalar fields are mutable ints (the
   packed [flags] word holds the booleans); the predictor metadata record
   and the waiter array are allocated on first need and reused with the
   entry, and only the [stack_snap] squash snapshot and the rare [fault] are
   replaced. *)
type entry = {
  mutable seq : int;
  mutable e_fid : int;
  mutable e_idx : int;
  mutable va : int;
  mutable insn : Insn.t;
  mutable dest : int;
  (* flattened operands: seq of in-flight producer (-1 when the value is
     captured) and the captured value, for each of the two source slots *)
  mutable src_seq0 : int;
  mutable src_seq1 : int;
  mutable src_val0 : int;
  mutable src_val1 : int;
  mutable flags : Pack.t;
  (* Once Issued: the cycle whose completion step completes this entry. *)
  mutable done_at : int;
  mutable value : int;
  mutable eff_addr : int;
  mutable store_val : int;
  mutable pred_target_va : int; (* -1 when fetch stalled on this entry *)
  mutable actual_target_va : int;
  (* This slot's own predictor record, allocated when the slot first holds
     a branch ([no_meta] until then) and valid while it holds one. *)
  mutable tage_meta : Tage.meta;
  mutable ghr_snap : int;
  mutable stack_snap : int list;
  mutable depth_snap : int;
  mutable ret_target : int;
  mutable ret_depth : int;
  mutable taint_root : int;
  (* Seq of the entry this one sleeps on (-1 = awake): the producer of an
     operand, or for a load the store whose unknown address holds it back.
     A sleeping entry is off the actionable list and on that entry's
     [waiters]. *)
  mutable sleep_on : int;
  (* Seqs of the entries sleeping on this one; stale seqs (squashed or
     reused sleepers) are filtered when the list is drained. *)
  mutable waiters : int array;
  mutable n_waiters : int;
  mutable fault : string option;
}

type fetch_state =
  | Fetching of int * int
  | Stalled_ctrl of int (* seq *)
  | Stalled_serial
  | Stopped

type hooks = {
  on_syscall : int array -> Iss.trap_action;
  on_sysret : int array -> Iss.trap_action;
  on_commit : (int -> int -> Insn.t -> unit) option;
}

let null_hooks =
  { on_syscall = (fun _ -> Iss.Skip); on_sysret = (fun _ -> Iss.Skip); on_commit = None }

type outcome = Halted | Out_of_fuel | Fault of string

type result = { outcome : outcome; cycles : int; committed : int; regs : int array }

(* Bounded event trace: cycle-stamped pipeline events kept in a ring of
   [trace_capacity] entries when [config.trace_events] is on.  A fence event
   (Ev_fence Isv/Dsv) is exactly a view miss — the guard blocked the load
   because the ISV/DSV lookup said "out of view". *)
type event_kind =
  | Ev_squash
  | Ev_fence of Guard.source
  | Ev_vp_release
  | Ev_dload of int  (* physical line key; recorded at the Visibility Point *)

type event = { ev_cycle : int; ev_kind : event_kind; ev_va : int; ev_seq : int }

let dummy_event = { ev_cycle = 0; ev_kind = Ev_squash; ev_va = 0; ev_seq = -1 }

(* A sorted set of in-flight seqs, bounded by the ROB size. *)
module Seqset = struct
  type t = { a : int array; mutable len : int }

  let create n = { a = Array.make (max 1 n) 0; len = 0 }
  let min s = if s.len > 0 then Array.unsafe_get s.a 0 else max_int

  let add s x =
    let i = ref s.len in
    while !i > 0 && s.a.(!i - 1) > x do
      s.a.(!i) <- s.a.(!i - 1);
      decr i
    done;
    s.a.(!i) <- x;
    s.len <- s.len + 1

  (* The largest element below [x], or -1. *)
  let pred s x =
    let i = ref (s.len - 1) in
    while !i >= 0 && s.a.(!i) >= x do decr i done;
    if !i >= 0 then s.a.(!i) else -1

  let drop_prefix s n =
    if n > 0 then begin
      Array.blit s.a n s.a 0 (s.len - n);
      s.len <- s.len - n
    end

  let remove s x =
    let i = ref 0 in
    while !i < s.len && s.a.(!i) <> x do incr i done;
    if !i < s.len then begin
      Array.blit s.a (!i + 1) s.a !i (s.len - !i - 1);
      s.len <- s.len - 1
    end

  (* Drop every seq >= [x]: a squash removes a suffix of the seq space. *)
  let truncate s x = while s.len > 0 && s.a.(s.len - 1) >= x do s.len <- s.len - 1 done
end

(* One function's pre-decoded fetch table, built on its first fetch. *)
type fdec = { body : Insn.t array; words : int array; base_va : int }

let no_fdec = { body = [||]; words = [||]; base_va = 0 }

type t = {
  cfg : config;
  memsys : Memsys.t;
  prog : Program.t;
  tage : Tage.t;
  btb : Btb.t;
  ras : Ras.t;
  ctrs : counters;
  mutable guard : Guard.t;
  dec : fdec array; (* by fid; [no_fdec] until first fetched *)
  (* run state *)
  rob : entry array; (* preallocated pool; seq s lives in slot s mod capacity *)
  retired_seq : int array;
  retired_val : int array;
  arf : int array;
  rat : int array;
  (* store-to-load forwarding scratch, rebuilt by each issue pass: word
     addresses and values of older address-known stores, oldest first (so a
     backward scan finds the youngest match).  Bounded by [sq_entries]. *)
  fwd_word : int array;
  fwd_val : int array;
  mutable fwd_len : int;
  mutable head : int;
  mutable count : int;
  mutable next_seq : int;
  mutable ghr : int;
  mutable fetch : fetch_state;
  mutable fetch_ready_at : int;
  mutable last_fetch_line : int;
  mutable dispatch_stack : int list;
  mutable dispatch_depth : int;
  mutable commit_stack : int list;
  mutable commit_depth : int;
  mutable lq_used : int;
  mutable sq_used : int;
  (* Completion wheel: bucket [c land wheel_mask] holds the seqs of entries
     completing at cycle c, for c within the wheel's horizon of [now];
     later completions wait in the [far_*] overflow until their cycle.
     Buckets are allocated on first use and may hold stale seqs (squashed or
     reused entries), which the drain skips. *)
  wheel : int array array;
  wheel_len : int array;
  wheel_mask : int;
  mutable far_seq : int array;
  mutable far_at : int array;
  mutable far_len : int;
  mutable far_min : int;
  (* Actionable list: seqs (strictly increasing) of the entries the issue
     walk still needs to visit — awake Waiting entries, in-flight stores
     (they feed store-to-load forwarding until retirement) and incomplete
     fences.  Entries are appended at dispatch unless they go straight to
     sleep, leave when they issue or go to sleep, rejoin through [woken]
     and are otherwise dropped lazily, so the walk never visits the whole
     ROB.  Each pass writes the surviving list into [act_spare] and swaps
     the two. *)
  mutable act : int array;
  mutable act_spare : int array;
  mutable act_len : int;
  (* Woken seqs not yet back on the actionable list: the walk merges them
     in seq order, including those a store issue wakes mid-pass. *)
  woken : Seqset.t;
  (* The walk's prefix conditions as sorted sets, exact for every entry
     whether listed or asleep: unresolved controls (dispatch to
     completion) make younger entries speculative, stores of unknown
     address (dispatch to issue) hold younger loads back. *)
  ctrls : Seqset.t;
  ustores : Seqset.t;
  (* Issued loads short of their visibility point, reached by the walk in
     seq order once no older control is unresolved; loads issued by the
     current pass wait in [vp_new] and join at its end. *)
  vp_loads : Seqset.t;
  mutable vp_next : int;
  vp_new : int array;
  mutable vp_new_len : int;
  (* False once a pass changed nothing; set again by a completion, commit,
     dispatch or squash, the only events that can change a pass's outcome. *)
  mutable issue_dirty : bool;
  mutable now : int;
  mutable asid : int;
  mutable kernel_mode : bool;
  mutable run_outcome : outcome option;
  mutable saved_user_regs : int array option;
  mutable hooks : hooks;
  (* [| |] when tracing is off, so the disabled path costs one length test *)
  trace_buf : event array;
  mutable trace_count : int;
}

let no_meta = Tage.meta_create ()

let fresh_entry () =
  {
    seq = -1;
    e_fid = 0;
    e_idx = 0;
    va = 0;
    insn = Insn.Nop;
    dest = -1;
    src_seq0 = -1;
    src_seq1 = -1;
    src_val0 = 0;
    src_val1 = 0;
    flags = Pack.empty;
    done_at = 0;
    value = 0;
    eff_addr = 0;
    store_val = 0;
    pred_target_va = -1;
    actual_target_va = -1;
    tage_meta = no_meta;
    ghr_snap = 0;
    stack_snap = [];
    depth_snap = 0;
    ret_target = -1;
    ret_depth = 0;
    taint_root = -1;
    sleep_on = -1;
    waiters = [||];
    n_waiters = 0;
    fault = None;
  }

(* The wheel spans the longest latency the memory system and the branch
   unit can produce (a DRAM round trip on the default config), capped at
   256 buckets; a longer completion (a guard's [spec_read] latency, or a
   slower configured DRAM) takes the overflow path. *)
let wheel_size memsys cfg =
  let horizon =
    max cfg.branch_latency
      (Cache.latency (Memsys.l1d memsys)
      + Cache.latency (Memsys.l2 memsys)
      + Memsys.dram_latency memsys)
  in
  let rec go n = if n > horizon || n >= 256 then n else go (2 * n) in
  go 2

let create ?(config = default_config) memsys prog =
  let cap = config.rob_entries in
  let wheel = wheel_size memsys config in
  {
    cfg = config;
    memsys;
    prog;
    tage = Tage.create ();
    btb = Btb.create ~entries:config.btb_entries ();
    ras = Ras.create ~entries:config.ras_entries ();
    ctrs = zero_counters ();
    guard = Guard.allow_all;
    dec = Array.make (Program.length prog) no_fdec;
    rob = Array.init cap (fun _ -> fresh_entry ());
    retired_seq = Array.make cap (-1);
    retired_val = Array.make cap 0;
    arf = Array.make Insn.num_regs 0;
    rat = Array.make Insn.num_regs (-1);
    fwd_word = Array.make (max 1 config.sq_entries) 0;
    fwd_val = Array.make (max 1 config.sq_entries) 0;
    fwd_len = 0;
    head = 0;
    count = 0;
    next_seq = 0;
    ghr = 0;
    fetch = Stopped;
    fetch_ready_at = 0;
    last_fetch_line = -1;
    dispatch_stack = [];
    dispatch_depth = 0;
    commit_stack = [];
    commit_depth = 0;
    lq_used = 0;
    sq_used = 0;
    wheel = Array.make wheel [||];
    wheel_len = Array.make wheel 0;
    wheel_mask = wheel - 1;
    far_seq = [||];
    far_at = [||];
    far_len = 0;
    far_min = max_int;
    act = Array.make (3 * cap) 0;
    act_spare = Array.make (3 * cap) 0;
    act_len = 0;
    woken = Seqset.create cap;
    ctrls = Seqset.create cap;
    ustores = Seqset.create cap;
    vp_loads = Seqset.create cap;
    vp_next = 0;
    vp_new = Array.make (max 1 config.issue_width) 0;
    vp_new_len = 0;
    issue_dirty = true;
    now = 0;
    asid = 0;
    kernel_mode = false;
    run_outcome = None;
    saved_user_regs = None;
    hooks = null_hooks;
    trace_buf =
      (if config.trace_events && config.trace_capacity > 0 then
         Array.make config.trace_capacity dummy_event
       else [||]);
    trace_count = 0;
  }

let config t = t.cfg
let memsys t = t.memsys
let btb t = t.btb
let ras t = t.ras
let counters t = t.ctrs
let set_guard t g = t.guard <- g
let guard t = t.guard

let record_event t kind ~va ~seq =
  let n = Array.length t.trace_buf in
  if n > 0 then begin
    t.trace_buf.(t.trace_count mod n) <-
      { ev_cycle = t.now; ev_kind = kind; ev_va = va; ev_seq = seq };
    t.trace_count <- t.trace_count + 1
  end

let events t =
  let n = Array.length t.trace_buf in
  if n = 0 then []
  else begin
    let len = min t.trace_count n in
    let start = t.trace_count - len in
    List.init len (fun i -> t.trace_buf.((start + i) mod n))
  end

let source_name = function
  | Guard.Isv -> "isv"
  | Guard.Dsv -> "dsv"
  | Guard.Baseline -> "baseline"

let event_to_json ev =
  match ev.ev_kind with
  | Ev_squash ->
    Printf.sprintf {|{"cycle":%d,"kind":"squash","va":%d,"seq":%d}|} ev.ev_cycle
      ev.ev_va ev.ev_seq
  | Ev_fence src ->
    Printf.sprintf {|{"cycle":%d,"kind":"fence","source":"%s","va":%d,"seq":%d}|}
      ev.ev_cycle (source_name src) ev.ev_va ev.ev_seq
  | Ev_vp_release ->
    Printf.sprintf {|{"cycle":%d,"kind":"vp_release","va":%d,"seq":%d}|} ev.ev_cycle
      ev.ev_va ev.ev_seq
  | Ev_dload line ->
    Printf.sprintf {|{"cycle":%d,"kind":"dload","line":%d,"va":%d,"seq":%d}|}
      ev.ev_cycle line ev.ev_va ev.ev_seq

let ret_stack_base = 0x5F00_0000_0000

let ret_stack_va ~asid ~depth = ret_stack_base + (asid lsl 24) + (depth * 8)

let cap t = Array.length t.rob

let head_seq t = t.next_seq - t.count

let pos_of_seq t s = s - head_seq t

(* [pos] is always within the live window, and head + pos < 2*capacity, so
   the ring wrap is a compare-and-subtract rather than a division. *)
let entry_at t pos =
  let c = Array.length t.rob in
  let i = t.head + pos in
  Array.unsafe_get t.rob (if i >= c then i - c else i)

let func_space t fid = (Program.func t.prog fid).Program.space

let is_kernel_fid t fid = func_space t fid = Layout.Kernel

let insn_va_of t fid idx = Layout.insn_va (func_space t fid) fid idx

(* A taint root is an in-flight speculative load that has not yet reached its
   Visibility Point. *)
let root_active t root =
  if root < 0 then false
  else
    let pos = pos_of_seq t root in
    if pos < 0 || pos >= t.count then false
    else
      let e = entry_at t pos in
      e.seq = root && not (Pack.vp_done e.flags)

(* Whether an entry still needs issue-walk visits.  False is final: an
   issued entry other than a store or an incomplete fence never matters to
   a later pass (loads reach their visibility point through [vp_loads]). *)
let act_keep fl =
  Pack.state fl = Pack.state_waiting
  || Pack.is_store fl
  || (Pack.is_fence fl && Pack.state fl <> Pack.state_completed)

(* Squeeze retired and drop-safe seqs out of the actionable list; called when
   an append finds it at twice the ROB size (the live subset always fits,
   with room for every woken entry). *)
let compact_act t =
  let out = ref 0 in
  for k = 0 to t.act_len - 1 do
    let seq = t.act.(k) in
    let pos = pos_of_seq t seq in
    if pos >= 0 && pos < t.count && act_keep (entry_at t pos).flags then begin
      t.act.(!out) <- seq;
      incr out
    end
  done;
  t.act_len <- !out

(* A copy of the first [n] elements of a full array, with room to grow. *)
let grown a n =
  let a' = Array.make (max 8 (2 * n)) 0 in
  Array.blit a 0 a' 0 n;
  a'

(* Insertion sort of [a.(0 .. n-1)]: buckets and wake lists are short and
   nearly sorted. *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Put [e] to sleep on the in-flight entry [p]: off the actionable list and
   onto [p]'s waiters until [p] completes (an operand producer) or issues (a
   store of unknown address).  The attempt that failed had no side effects
   and can succeed only after that event: a producer retires only after
   completing, a store's address is known only once it issues, and a
   squashed [p] takes its younger sleepers with it.  The woken entry simply
   re-attempts, so a second pending condition puts it back to sleep. *)
let sleep_on t e p =
  let pr = entry_at t (pos_of_seq t p) in
  e.sleep_on <- p;
  if pr.n_waiters = Array.length pr.waiters then
    pr.waiters <- grown pr.waiters pr.n_waiters;
  pr.waiters.(pr.n_waiters) <- e.seq;
  pr.n_waiters <- pr.n_waiters + 1

(* Sleep on the producer a failed operand capture stopped at. *)
let sleep t e = sleep_on t e (if e.src_seq0 >= 0 then e.src_seq0 else e.src_seq1)

(* ------------------------------------------------------------------ *)
(* Pre-decoded fetch                                                    *)
(* ------------------------------------------------------------------ *)

let src_info insn =
  (* (dest, src0, src1) register indices, -1 when absent. *)
  match insn with
  | Insn.Nop | Insn.Fence | Insn.Syscall | Insn.Sysret | Insn.Halt | Insn.Ret
  | Insn.Jump _ | Insn.Call _ ->
    (-1, -1, -1)
  | Insn.Limm (rd, _) -> (rd, -1, -1)
  | Insn.Alu (_, rd, r1, r2) -> (rd, r1, r2)
  | Insn.Alui (_, rd, r1, _) -> (rd, r1, -1)
  | Insn.Load (rd, ra, _) -> (rd, ra, -1)
  | Insn.Store (ra, rv, _) -> (-1, ra, rv)
  | Insn.Branch (_, r1, r2, _) -> (-1, r1, r2)
  | Insn.Icall r -> (-1, r, -1)
  | Insn.Flush (ra, _) -> (-1, ra, -1)

(* One instruction's fetch word: its static Pack flags (kernel and the
   instruction class) in the low [Pack.bits] bits, then dest, src0 and src1
   register + 1 (0 = none) in 5-bit fields. *)
let predecode ~kernel insn =
  let dest, s0, s1 = src_info insn in
  let f = Pack.with_kernel Pack.empty kernel in
  let f =
    match insn with
    | Insn.Branch _ | Insn.Icall _ | Insn.Ret -> Pack.with_is_ctrl f true
    | Insn.Load _ -> Pack.with_is_load f true
    | Insn.Store _ -> Pack.with_is_store f true
    | Insn.Fence -> Pack.with_is_fence f true
    | _ -> f
  in
  f
  lor ((dest + 1) lsl Pack.bits)
  lor ((s0 + 1) lsl (Pack.bits + 5))
  lor ((s1 + 1) lsl (Pack.bits + 10))

let word_flags w = w land ((1 lsl Pack.bits) - 1)
let word_reg w k = ((w lsr (Pack.bits + (5 * k))) land 31) - 1

let fdec t fid =
  let d = t.dec.(fid) in
  if d != no_fdec then d
  else begin
    let f = Program.func t.prog fid in
    let kernel = f.Program.space = Layout.Kernel in
    let d =
      {
        body = f.Program.body;
        words = Array.map (predecode ~kernel) f.Program.body;
        base_va = Layout.insn_va f.Program.space fid 0;
      }
    in
    t.dec.(fid) <- d;
    d
  end

(* Reinitialize the pool entry at the ROB tail from a fetch word — the
   allocation-free equivalent of the seed model's fresh record per fetched
   instruction. *)
let make_entry t fid idx ~va insn w =
  let e = entry_at t t.count in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  e.seq <- seq;
  e.e_fid <- fid;
  e.e_idx <- idx;
  e.va <- va;
  (* Boxed fields are written only when they change: each write is a
     write barrier. *)
  if e.insn != insn then e.insn <- insn;
  let dest = word_reg w 0 in
  e.dest <- dest;
  (let s0 = word_reg w 1 in
   let p = if s0 >= 0 then t.rat.(s0) else -1 in
   e.src_seq0 <- p;
   e.src_val0 <- (if s0 >= 0 && p < 0 then t.arf.(s0) else 0));
  (let s1 = word_reg w 2 in
   let p = if s1 >= 0 then t.rat.(s1) else -1 in
   e.src_seq1 <- p;
   e.src_val1 <- (if s1 >= 0 && p < 0 then t.arf.(s1) else 0));
  e.flags <- word_flags w;
  e.done_at <- 0;
  e.value <- 0;
  e.eff_addr <- 0;
  e.store_val <- 0;
  e.pred_target_va <- -1;
  e.actual_target_va <- -1;
  e.ghr_snap <- 0;
  if e.stack_snap <> [] then e.stack_snap <- [];
  e.depth_snap <- 0;
  e.ret_target <- -1;
  e.ret_depth <- 0;
  e.taint_root <- -1;
  e.sleep_on <- -1;
  e.n_waiters <- 0;
  if Option.is_some e.fault then e.fault <- None;
  if dest >= 0 then t.rat.(dest) <- seq;
  t.count <- t.count + 1;
  (let p = e.src_seq0 in
   if p >= 0 && Pack.state (entry_at t (pos_of_seq t p)).flags <> Pack.state_completed
   then
     (* Its first dispatch attempt would fail on this operand and put it to
        sleep on [p]: do that now instead. *)
     sleep_on t e p
   else begin
     if t.act_len >= 2 * cap t then compact_act t;
     t.act.(t.act_len) <- seq;
     t.act_len <- t.act_len + 1
   end);
  if Pack.is_ctrl w then Seqset.add t.ctrls seq
  else if Pack.is_load w then t.lq_used <- t.lq_used + 1
  else if Pack.is_store w then begin
    t.sq_used <- t.sq_used + 1;
    Seqset.add t.ustores seq
  end;
  t.issue_dirty <- true;
  e

let rebuild_rat t =
  Array.fill t.rat 0 (Array.length t.rat) (-1);
  for i = 0 to t.count - 1 do
    let e = entry_at t i in
    if e.dest >= 0 then t.rat.(e.dest) <- e.seq
  done

(* Remove all entries younger than position [pos] (exclusive). *)
let truncate_rob t pos =
  for i = pos + 1 to t.count - 1 do
    let fl = (entry_at t i).flags in
    if Pack.is_load fl then t.lq_used <- t.lq_used - 1
    else if Pack.is_store fl then t.sq_used <- t.sq_used - 1
  done;
  let removed = t.count - pos - 1 in
  t.count <- pos + 1;
  t.next_seq <- t.next_seq - removed;
  (* Squashed seqs are a suffix of the (sorted) actionable list and seq
     sets; stale wheel and waiter entries are filtered where read. *)
  while t.act_len > 0 && t.act.(t.act_len - 1) >= t.next_seq do
    t.act_len <- t.act_len - 1
  done;
  Seqset.truncate t.woken t.next_seq;
  Seqset.truncate t.ctrls t.next_seq;
  Seqset.truncate t.ustores t.next_seq;
  Seqset.truncate t.vp_loads t.next_seq;
  t.issue_dirty <- true;
  rebuild_rat t

let redirect_fetch t va delay =
  (match Layout.decode_code_va va with
  | Some (_, fid, idx) -> t.fetch <- Fetching (fid, idx)
  | None -> t.fetch <- Stopped);
  t.fetch_ready_at <- t.now + delay;
  t.last_fetch_line <- -1

(* Resolution of a completed control-flow instruction at ROB position [pos];
   a misprediction squashes every younger entry. *)
let resolve_ctrl t pos e =
  e.flags <- Pack.with_resolved e.flags true;
  Seqset.remove t.ctrls e.seq;
  let squash target_va restore_stack restore_depth restore_ghr =
    t.ctrs.squashes <- t.ctrs.squashes + 1;
    record_event t Ev_squash ~va:e.va ~seq:e.seq;
    (match t.guard.Guard.notify_squash with
    | Some f -> f ~asid:t.asid
    | None -> ());
    truncate_rob t pos;
    t.dispatch_stack <- restore_stack;
    t.dispatch_depth <- restore_depth;
    t.ghr <- restore_ghr;
    if target_va >= 0 then redirect_fetch t target_va t.cfg.mispredict_penalty
    else t.fetch <- Stopped
  in
  match e.insn with
  | Insn.Branch _ ->
    Tage.update t.tage ~pc:e.va ~hist:e.ghr_snap e.tage_meta
      ~taken:(Pack.actual_taken e.flags);
    if Pack.actual_taken e.flags <> Pack.pred_taken e.flags then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      let ghr' =
        (e.ghr_snap lsl 1) lor (if Pack.actual_taken e.flags then 1 else 0)
      in
      squash e.actual_target_va e.stack_snap e.depth_snap ghr'
    end
  | Insn.Icall _ ->
    (* Shadow-BTB schemes defer BTB training to commit: a squashed (transient)
       indirect call must leave no predictor state behind. *)
    if e.actual_target_va >= 0 && not t.guard.Guard.shadow_btb then
      Btb.update t.btb e.va e.actual_target_va;
    let stack' = (e.va + Layout.insn_bytes) :: e.stack_snap in
    let depth' = e.depth_snap + 1 in
    if e.pred_target_va = -1 then begin
      (* Fetch was stalled on this instruction: resume, no squash. *)
      match t.fetch with
      | Stalled_ctrl s when s = e.seq ->
        if e.fault <> None then t.fetch <- Stopped
        else begin
          Ras.push t.ras (e.va + Layout.insn_bytes);
          (* A retpolined indirect call pays for the capture sequence. *)
          redirect_fetch t e.actual_target_va (if t.cfg.retpoline then 24 else 1)
        end
      | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ()
    end
    else if e.fault <> None then squash (-1) stack' depth' t.ghr
    else if e.actual_target_va <> e.pred_target_va then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      squash e.actual_target_va stack' depth' t.ghr
    end
  | Insn.Ret ->
    let stack' = match e.stack_snap with [] -> [] | _ :: rest -> rest in
    let depth' = max 0 (e.depth_snap - 1) in
    if e.pred_target_va = -1 then begin
      match t.fetch with
      | Stalled_ctrl s when s = e.seq ->
        if e.fault <> None then t.fetch <- Stopped
        else redirect_fetch t e.actual_target_va 1
      | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ()
    end
    else if e.fault <> None then squash (-1) stack' depth' t.ghr
    else if e.actual_target_va <> e.pred_target_va then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      squash e.actual_target_va stack' depth' t.ghr
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Completion: the wheel bucket of the current cycle, oldest first.    *)
(* ------------------------------------------------------------------ *)

let push_bucket t b seq =
  let n = Array.unsafe_get t.wheel_len b in
  let a = Array.unsafe_get t.wheel b in
  let a =
    if n < Array.length a then a
    else begin
      let a' = grown a n in
      t.wheel.(b) <- a';
      a'
    end
  in
  Array.unsafe_set a n seq;
  t.wheel_len.(b) <- n + 1

let push_far t seq at =
  if t.far_len = Array.length t.far_seq then begin
    t.far_seq <- grown t.far_seq t.far_len;
    t.far_at <- grown t.far_at t.far_len
  end;
  t.far_seq.(t.far_len) <- seq;
  t.far_at.(t.far_len) <- at;
  t.far_len <- t.far_len + 1;
  if at < t.far_min then t.far_min <- at

(* Schedule an entry just marked Issued to complete at cycle [at].  The seed
   model's completion scan runs before issue, so an entry issued at cycle c
   completes at c + 1 at the earliest, whatever its latency. *)
let schedule t e at =
  let at = if at > t.now then at else t.now + 1 in
  e.done_at <- at;
  if at - t.now <= t.wheel_mask then push_bucket t (at land t.wheel_mask) e.seq
  else push_far t e.seq at

(* Move the overflow entries due now into the current bucket [b]. *)
let pull_far t b =
  let k = ref 0 in
  let m = ref max_int in
  for i = 0 to t.far_len - 1 do
    let at = t.far_at.(i) in
    if at = t.now then push_bucket t b t.far_seq.(i)
    else if at > t.now then begin
      t.far_seq.(!k) <- t.far_seq.(i);
      t.far_at.(!k) <- at;
      incr k;
      if at < !m then m := at
    end
  done;
  t.far_len <- !k;
  t.far_min <- !m

(* Wake the live entries sleeping on [p] onto the wake list, which the walk
   merges into the actionable list. *)
let wake_waiters t p =
  for i = 0 to p.n_waiters - 1 do
    let s = p.waiters.(i) in
    let pos = pos_of_seq t s in
    if pos >= 0 && pos < t.count then begin
      let w = entry_at t pos in
      if w.sleep_on = p.seq then begin
        w.sleep_on <- -1;
        Seqset.add t.woken s
      end
    end
  done;
  p.n_waiters <- 0

(* Every entry completes in exactly the cycle the seed model's full-ROB scan
   completes it: its bucket is drained in that cycle, in seq order, and a
   squash by an older control leaves the younger seqs outside the live
   window, so they are skipped as the scan's early stop skipped them. *)
let completion_step t =
  let b = t.now land t.wheel_mask in
  if t.far_min <= t.now then pull_far t b;
  let n = Array.unsafe_get t.wheel_len b in
  if n > 0 then begin
    let a = Array.unsafe_get t.wheel b in
    t.wheel_len.(b) <- 0;
    sort_prefix a n;
    for i = 0 to n - 1 do
      let s = Array.unsafe_get a i in
      let pos = pos_of_seq t s in
      if pos >= 0 && pos < t.count then begin
      let e = entry_at t pos in
      if Pack.state e.flags = Pack.state_issued && e.done_at = t.now then begin
        e.flags <- Pack.with_state e.flags Pack.state_completed;
        t.issue_dirty <- true;
        if e.n_waiters > 0 then wake_waiters t e;
        if Pack.is_ctrl e.flags then resolve_ctrl t pos e
      end
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                               *)
(* ------------------------------------------------------------------ *)

let retire_bookkeeping t e =
  (* The head's ROB slot is its seq modulo the capacity. *)
  t.retired_seq.(t.head) <- e.seq;
  t.retired_val.(t.head) <- e.value;
  if e.dest >= 0 then begin
    t.arf.(e.dest) <- e.value;
    if t.rat.(e.dest) = e.seq then t.rat.(e.dest) <- -1
  end;
  if Pack.is_load e.flags then begin
    t.lq_used <- t.lq_used - 1;
    (* A load can retire without ever reaching its visibility point (it
       completed and committed in the same cycle, before the issue walk). *)
    if not (Pack.vp_done e.flags) then Seqset.remove t.vp_loads e.seq
  end
  else if Pack.is_store e.flags then t.sq_used <- t.sq_used - 1;
  let h = t.head + 1 in
  t.head <- (if h >= cap t then 0 else h);
  t.count <- t.count - 1;
  t.issue_dirty <- true

let commit_step t =
  let budget = ref t.cfg.commit_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 && t.count > 0 && t.run_outcome = None do
    let e = entry_at t 0 in
    if Pack.state e.flags <> Pack.state_completed then stop := true
    else begin
      decr budget;
      (match e.fault with
      | Some msg -> t.run_outcome <- Some (Fault msg)
      | None -> ());
      if t.run_outcome = None then begin
        t.ctrs.committed <- t.ctrs.committed + 1;
        if Pack.kernel e.flags then
          t.ctrs.committed_kernel <- t.ctrs.committed_kernel + 1;
        (match t.hooks.on_commit with
        | Some f -> f e.e_fid e.e_idx e.insn
        | None -> ());
        (match e.insn with
        | Insn.Load _ ->
          t.ctrs.committed_loads <- t.ctrs.committed_loads + 1;
          if Pack.kernel e.flags then
            t.ctrs.committed_kernel_loads <- t.ctrs.committed_kernel_loads + 1
        | Insn.Store _ ->
          let key = Layout.phys_key ~asid:t.asid e.eff_addr in
          Mem.store (Memsys.mem t.memsys) key e.store_val;
          Memsys.data_write t.memsys key
        | Insn.Flush _ ->
          Memsys.flush_line t.memsys (Layout.phys_key ~asid:t.asid e.eff_addr)
        | Insn.Call _ ->
          t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
          t.commit_depth <- t.commit_depth + 1
        | Insn.Icall _ ->
          (* Shadow-BTB commit: the predictor learns the indirect target only
             once the call is architecturally real. *)
          if t.guard.Guard.shadow_btb && e.actual_target_va >= 0 then
            Btb.update t.btb e.va e.actual_target_va;
          t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
          t.commit_depth <- t.commit_depth + 1
        | Insn.Ret -> (
          match t.commit_stack with
          | [] -> t.run_outcome <- Some (Fault "ret with empty stack")
          | _ :: rest ->
            t.commit_stack <- rest;
            t.commit_depth <- t.commit_depth - 1)
        | Insn.Syscall -> (
          t.ctrs.syscalls <- t.ctrs.syscalls + 1;
          match t.hooks.on_syscall t.arf with
          | Iss.Stop -> t.run_outcome <- Some Halted
          | Iss.Skip ->
            t.fetch <- Fetching (e.e_fid, e.e_idx + 1);
            t.fetch_ready_at <- t.now + 1;
            t.last_fetch_line <- -1
          | Iss.Redirect (f, assigns) ->
            t.saved_user_regs <- Some (Array.copy t.arf);
            List.iter (fun (r, v) -> t.arf.(r) <- v) assigns;
            t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
            t.commit_depth <- t.commit_depth + 1;
            t.dispatch_stack <- t.commit_stack;
            t.dispatch_depth <- t.commit_depth;
            t.kernel_mode <- true;
            t.fetch <- Fetching (f, 0);
            t.fetch_ready_at <- t.now + t.cfg.kernel_entry_cycles;
            t.last_fetch_line <- -1)
        | Insn.Sysret -> (
          (match t.saved_user_regs with
          | Some saved ->
            Array.blit saved 0 t.arf 0 (Array.length saved);
            t.saved_user_regs <- None
          | None -> ());
          match t.hooks.on_sysret t.arf with
          | Iss.Stop -> t.run_outcome <- Some Halted
          | Iss.Skip | Iss.Redirect _ -> (
            match t.commit_stack with
            | [] -> t.run_outcome <- Some (Fault "sysret with empty stack")
            | rva :: rest ->
              t.commit_stack <- rest;
              t.commit_depth <- t.commit_depth - 1;
              t.dispatch_stack <- t.commit_stack;
              t.dispatch_depth <- t.commit_depth;
              (match Layout.decode_code_va rva with
              | Some (space, _, _) -> t.kernel_mode <- space = Layout.Kernel
              | None -> ());
              redirect_fetch t rva t.cfg.kernel_exit_cycles))
        | Insn.Halt -> t.run_outcome <- Some Halted
        | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Branch _
        | Insn.Jump _ | Insn.Fence ->
          ());
        retire_bookkeeping t e
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue                                                                *)
(* ------------------------------------------------------------------ *)

(* Operand capture, one specialized copy per source slot so the common case
   (value already captured) is a single int compare. *)
let capture_operand0 t e =
  let s = e.src_seq0 in
  if s < 0 then true
  else
    let pos = pos_of_seq t s in
    if pos < 0 then begin
      let slot = s mod cap t in
      if t.retired_seq.(slot) = s then begin
        e.src_val0 <- t.retired_val.(slot);
        e.src_seq0 <- -1;
        true
      end
      else false
    end
    else
      let p = entry_at t pos in
      if Pack.state p.flags = Pack.state_completed then begin
        e.src_val0 <- p.value;
        e.src_seq0 <- -1;
        if root_active t p.taint_root then
          e.taint_root <- max e.taint_root p.taint_root;
        true
      end
      else false

let capture_operand1 t e =
  let s = e.src_seq1 in
  if s < 0 then true
  else
    let pos = pos_of_seq t s in
    if pos < 0 then begin
      let slot = s mod cap t in
      if t.retired_seq.(slot) = s then begin
        e.src_val1 <- t.retired_val.(slot);
        e.src_seq1 <- -1;
        true
      end
      else false
    end
    else
      let p = entry_at t pos in
      if Pack.state p.flags = Pack.state_completed then begin
        e.src_val1 <- p.value;
        e.src_seq1 <- -1;
        if root_active t p.taint_root then
          e.taint_root <- max e.taint_root p.taint_root;
        true
      end
      else false

let operands_ready t e = capture_operand0 t e && capture_operand1 t e

let count_fence t src =
  match src with
  | Guard.Isv -> t.ctrs.fences_isv <- t.ctrs.fences_isv + 1
  | Guard.Dsv -> t.ctrs.fences_dsv <- t.ctrs.fences_dsv + 1
  | Guard.Baseline -> t.ctrs.fences_baseline <- t.ctrs.fences_baseline + 1

(* A load just marked Issued joins [vp_loads] when the pass ends: its
   visibility point is reached by a later pass, never the issuing one. *)
let load_issued t e ~speculative at =
  e.flags <-
    Pack.with_spec_at_issue (Pack.with_state e.flags Pack.state_issued) speculative;
  schedule t e at;
  t.vp_new.(t.vp_new_len) <- e.seq;
  t.vp_new_len <- t.vp_new_len + 1

let issue_load_to_memory t e ~speculative =
  let key = Layout.phys_key ~asid:t.asid e.eff_addr in
  let lat =
    match t.guard.Guard.spec_read with
    | Some f when speculative -> f ~key ~asid:t.asid
    | _ -> Memsys.data_read_lat t.memsys key
  in
  e.value <- Mem.load (Memsys.mem t.memsys) key;
  load_issued t e ~speculative (t.now + lat);
  if speculative then begin
    t.ctrs.spec_loads <- t.ctrs.spec_loads + 1;
    e.taint_root <- max e.taint_root e.seq
  end

(* Youngest older store to [word], or -1: the scratch arrays are filled in
   walk order (oldest first), so the backward scan matches the head-first
   lookup of an assoc list consed youngest-first. *)
let fwd_find t word =
  let rec go j =
    if j < 0 then -1
    else if Array.unsafe_get t.fwd_word j = word then j
    else go (j - 1)
  in
  go (t.fwd_len - 1)

let fwd_push t word v =
  t.fwd_word.(t.fwd_len) <- word;
  t.fwd_val.(t.fwd_len) <- v;
  t.fwd_len <- t.fwd_len + 1

(* Reach the visibility point of every load in [vp_loads] from [vp_next] on
   whose seq is below [bound]: no older instruction can squash it any more.
   The walk calls this before each listed entry with [bound] = min(that
   entry's seq, oldest unresolved control), so visibility points interleave
   with dispatch attempts (and their guard calls) in seq order. *)
let reach_vps t bound =
  let s = t.vp_loads in
  while t.vp_next < s.Seqset.len && Array.unsafe_get s.Seqset.a t.vp_next < bound do
    let e = entry_at t (pos_of_seq t (Array.unsafe_get s.Seqset.a t.vp_next)) in
    t.vp_next <- t.vp_next + 1;
    t.issue_dirty <- true;
    let fl = e.flags in
    e.flags <- Pack.with_vp_done fl true;
    (* Only architecturally-surviving loads reach here, so the dload trace
       is the sequential projection of the D-cache access stream. *)
    if Array.length t.trace_buf > 0 && Pack.addr_known fl then
      record_event t
        (Ev_dload (Layout.phys_key ~asid:t.asid e.eff_addr / Layout.line_bytes))
        ~va:e.va ~seq:e.seq;
    match t.guard.Guard.notify_vp with
    | Some f when Pack.addr_known fl ->
      f ~insn_va:e.va ~addr:e.eff_addr ~asid:t.asid ~kernel_mode:(Pack.kernel fl)
    | Some _ | None -> ()
  done

(* Exact serialization check for a fence at position [pos]: every strictly
   older entry is completed.  Evaluated directly against the ROB prefix; a
   failed check changes nothing, so the clean-pass rule retries it only
   after an event. *)
let older_all_completed t pos =
  let rec go k =
    k >= pos
    || (Pack.state (entry_at t k).flags = Pack.state_completed && go (k + 1))
  in
  go 0

let issue_step t =
  (* A pass runs only if something that can change its outcome happened
     since the last pass that changed nothing (see [issue_dirty]).  A pass
     that queried the guard counts as a change, so a guard-blocked load the
     walk reaches is re-queried every cycle exactly as in the seed model:
     those queries move view-cache statistics. *)
  if t.issue_dirty then begin
  t.issue_dirty <- false;
  let width = t.cfg.issue_width in
  let budget = ref width in
  let older_fence_incomplete = ref false in
  (* Controls resolve only at completion, so this is fixed for the pass:
     an entry is speculative iff its seq is above it. *)
  let ctrl_min = Seqset.min t.ctrls in
  t.fwd_len <- 0;
  t.vp_next <- 0;
  let src = t.act in
  let n = t.act_len in
  let dst = t.act_spare in
  let woken = t.woken in
  let k = ref 0 in
  let wi = ref 0 in
  let out = ref 0 in
  let walking = ref true in
  (* Walk the actionable list merged with the wake list (ascending seq =
     ROB order), writing the survivors to [dst].  Once the issue budget is
     spent and the next entry is speculative, the rest of the walk is
     provably a no-op: both issue branches are budget-gated and visibility
     points are disabled while speculative — so stop walking. *)
  while !walking do
    let a = if !k < n then Array.unsafe_get src !k else max_int in
    let b = if !wi < woken.Seqset.len then Array.unsafe_get woken.Seqset.a !wi else max_int in
    let seq = if a < b then a else b in
    if seq = max_int || (!budget = 0 && seq > ctrl_min) then walking := false
    else begin
    if a < b then incr k else incr wi;
    reach_vps t (if seq < ctrl_min then seq else ctrl_min);
    let pos = pos_of_seq t seq in
    (* A negative position is a retired store still on the list: drop it. *)
    if pos >= 0 then begin
    let e = entry_at t pos in
    let speculative = seq > ctrl_min in
    if Pack.state e.flags = Pack.state_waiting && !budget > 0 then begin
      if not !older_fence_incomplete then begin
      match e.insn with
      | Insn.Nop | Insn.Jump _ | Insn.Call _ | Insn.Syscall | Insn.Sysret
      | Insn.Halt ->
        decr budget;
        e.flags <- Pack.with_state e.flags Pack.state_issued;
        schedule t e (t.now + 1)
      | Insn.Fence ->
        if older_all_completed t pos then begin
          decr budget;
          e.flags <- Pack.with_state e.flags Pack.state_issued;
          schedule t e (t.now + 1)
        end
      | Insn.Limm (_, v) ->
        decr budget;
        e.value <- v;
        e.flags <- Pack.with_state e.flags Pack.state_issued;
        schedule t e (t.now + 1)
      | Insn.Alu (op, _, _, _) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val0 e.src_val1;
          e.flags <- Pack.with_state e.flags Pack.state_issued;
          schedule t e (t.now + 1)
        end
        else sleep t e
      | Insn.Alui (op, _, _, v) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val0 v;
          e.flags <- Pack.with_state e.flags Pack.state_issued;
          schedule t e (t.now + 1)
        end
        else sleep t e
      | Insn.Branch (c, _, _, tgt) ->
        if operands_ready t e then begin
          decr budget;
          let taken = Insn.eval_cond c e.src_val0 e.src_val1 in
          e.flags <- Pack.with_actual_taken e.flags taken;
          let next_idx = if taken then tgt else e.e_idx + 1 in
          e.actual_target_va <- insn_va_of t e.e_fid next_idx;
          e.flags <- Pack.with_state e.flags Pack.state_issued;
          schedule t e (t.now + t.cfg.branch_latency)
        end
        else sleep t e
      | Insn.Icall _ ->
        if operands_ready t e then begin
          decr budget;
          let target = e.src_val0 in
          (match Layout.decode_code_va target with
          | Some (space, f, _)
            when f < Program.length t.prog && func_space t f = space ->
            e.actual_target_va <- target
          | Some _ | None ->
            e.fault <- Some (Printf.sprintf "icall to invalid VA %#x" target));
          e.flags <- Pack.with_state e.flags Pack.state_issued;
          schedule t e (t.now + t.cfg.branch_latency)
        end
        else sleep t e
      | Insn.Ret ->
        decr budget;
        (if e.ret_target < 0 then e.fault <- Some "ret with empty stack"
         else e.actual_target_va <- e.ret_target);
        (* Returning reads the architectural stack: a flushed stack line
           delays resolution, widening the transient window (Spectre-RSB). *)
        let key = ret_stack_va ~asid:t.asid ~depth:e.ret_depth in
        let lat = Memsys.data_read_lat t.memsys key in
        e.flags <- Pack.with_state e.flags Pack.state_issued;
        schedule t e (t.now + lat)
      | Insn.Flush (_, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val0 + off;
          e.flags <-
            Pack.with_state (Pack.with_addr_known e.flags true) Pack.state_issued;
          schedule t e (t.now + 1)
        end
        else sleep t e
      | Insn.Store (_, _, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val0 + off;
          e.store_val <- e.src_val1;
          e.flags <-
            Pack.with_state (Pack.with_addr_known e.flags true) Pack.state_issued;
          schedule t e (t.now + 1);
          (* The address is known now: younger loads held back by it
             re-attempt later in this same walk. *)
          Seqset.remove t.ustores seq;
          if e.n_waiters > 0 then wake_waiters t e
        end
        else sleep t e
      | Insn.Load (_, _, off) ->
        if operands_ready t e then begin
          let store = Seqset.pred t.ustores seq in
          if store >= 0 then sleep_on t e store
          else begin
          e.eff_addr <- e.src_val0 + off;
          e.flags <- Pack.with_addr_known e.flags true;
          let word = e.eff_addr lsr 3 in
          let j = fwd_find t word in
          if j >= 0 then begin
            (* Store-to-load forwarding: no cache access. *)
            decr budget;
            e.value <- Array.unsafe_get t.fwd_val j;
            load_issued t e ~speculative (t.now + 1)
          end
          else begin
            let query =
              {
                Guard.insn_va = e.va;
                fid = e.e_fid;
                addr = e.eff_addr;
                asid = t.asid;
                kernel_mode = t.kernel_mode;
                speculative;
                l1_hit =
                  Memsys.would_hit_l1d t.memsys
                    (Layout.phys_key ~asid:t.asid e.eff_addr);
                tainted = root_active t e.taint_root;
              }
            in
            t.issue_dirty <- true;
            match t.guard.Guard.check query with
            | Guard.Allow ->
              decr budget;
              issue_load_to_memory t e ~speculative
            | Guard.Block src ->
              if Pack.blocked_src e.flags = Pack.blocked_none then begin
                e.flags <-
                  Pack.with_blocked_src e.flags (blocked_code_of_source src);
                count_fence t src;
                record_event t (Ev_fence src) ~va:e.va ~seq:e.seq
              end
          end
          end
        end
        else sleep t e
      end
      else if Pack.blocked_src e.flags <> Pack.blocked_none && not speculative
      then begin
        (* A fenced load at its visibility point issues non-speculatively. *)
        decr budget;
        record_event t Ev_vp_release ~va:e.va ~seq:e.seq;
        issue_load_to_memory t e ~speculative:false
      end
    end;
    (* Update the running state with this entry included. *)
    let fl = e.flags in
    if Pack.is_fence fl then begin
      if Pack.state fl <> Pack.state_completed then older_fence_incomplete := true
    end
    else if Pack.is_store fl && Pack.addr_known fl then
      fwd_push t (e.eff_addr lsr 3) e.store_val;
    if e.sleep_on < 0 && act_keep fl then begin
      Array.unsafe_set dst !out seq;
      incr out
    end
    end
    end
  done;
  reach_vps t ctrl_min;
  (* On an early exit the unvisited entries are kept verbatim. *)
  while !k < n || !wi < woken.Seqset.len do
    let a = if !k < n then Array.unsafe_get src !k else max_int in
    let b = if !wi < woken.Seqset.len then Array.unsafe_get woken.Seqset.a !wi else max_int in
    if a < b then begin
      Array.unsafe_set dst !out a;
      incr k
    end
    else begin
      Array.unsafe_set dst !out b;
      incr wi
    end;
    incr out
  done;
  t.act <- dst;
  t.act_spare <- src;
  t.act_len <- !out;
  woken.Seqset.len <- 0;
  Seqset.drop_prefix t.vp_loads t.vp_next;
  for i = 0 to t.vp_new_len - 1 do
    Seqset.add t.vp_loads t.vp_new.(i)
  done;
  t.vp_new_len <- 0;
  (* Entries that went to sleep or failed a fence check changed nothing a
     re-run could see; an issue, a visibility point or a guard query did. *)
  if !budget < width then t.issue_dirty <- true
  end

(* ------------------------------------------------------------------ *)
(* Fetch / dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let fetch_step t =
  match t.fetch with
  | Fetching (fid0, idx0) when t.fetch_ready_at <= t.now ->
    (* The fetch position lives in locals while the loop advances it, and
       is written back once unless the loop left the [Fetching] state. *)
    let fid = ref fid0 in
    let idx = ref idx0 in
    let d = ref no_fdec in
    let d_fid = ref (-1) in
    let budget = ref t.cfg.fetch_width in
    let continue_fetch = ref true in
    while !continue_fetch && !budget > 0 && t.count < cap t do
      let fid_ = !fid in
      let idx_ = !idx in
      if !d_fid <> fid_ then begin
        d := fdec t fid_;
        d_fid := fid_
      end;
      let d = !d in
      let va = d.base_va + (idx_ * Layout.insn_bytes) in
      if idx_ < 0 || idx_ >= Array.length d.body then begin
        (* Fell off the end of a function body: architectural fault if it
           commits; on a wrong path the squash will discard it. *)
        let e =
          make_entry t fid_ idx_ ~va Insn.Halt
            (predecode ~kernel:(is_kernel_fid t fid_) Insn.Halt)
        in
        e.fault <- Some (Printf.sprintf "fell off function f%d at %d" fid_ idx_);
        e.flags <- Pack.with_state e.flags Pack.state_issued;
        schedule t e (t.now + 1);
        t.fetch <- Stopped;
        continue_fetch := false
      end
      else begin
        let insn = Array.unsafe_get d.body idx_ in
        let w = Array.unsafe_get d.words idx_ in
        let key = Layout.phys_key ~asid:t.asid va in
        let line = Layout.line_of key in
        if line <> t.last_fetch_line then begin
          let lat = Memsys.inst_read t.memsys key in
          t.last_fetch_line <- line;
          if lat > Cache.latency (Memsys.l1i t.memsys) then begin
            t.fetch_ready_at <- t.now + lat;
            continue_fetch := false
          end
        end;
        if !continue_fetch then begin
          let lq_full = Pack.is_load w && t.lq_used >= t.cfg.lq_entries in
          let sq_full = Pack.is_store w && t.sq_used >= t.cfg.sq_entries in
          if lq_full || sq_full then continue_fetch := false
          else begin
            decr budget;
            let e = make_entry t fid_ idx_ ~va insn w in
            match insn with
            | Insn.Branch (_, _, _, tgt) ->
              if e.tage_meta == no_meta then e.tage_meta <- Tage.meta_create ();
              let pred = Tage.predict_into t.tage ~pc:va ~hist:t.ghr e.tage_meta in
              e.flags <- Pack.with_pred_taken e.flags pred;
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              e.pred_target_va <- 0;
              t.ghr <- ((t.ghr lsl 1) lor if pred then 1 else 0) land max_int;
              idx := if pred then tgt else idx_ + 1
            | Insn.Jump tgt -> idx := tgt
            | Insn.Call callee ->
              Ras.push t.ras (va + Layout.insn_bytes);
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              fid := callee;
              idx := 0
            | Insn.Icall _ -> (
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              match (if t.cfg.retpoline then None else Btb.lookup t.btb va) with
              | Some target -> (
                match Layout.decode_code_va target with
                | Some (_, tf, ti) ->
                  e.pred_target_va <- target;
                  Ras.push t.ras (va + Layout.insn_bytes);
                  fid := tf;
                  idx := ti
                | None ->
                  t.fetch <- Stalled_ctrl e.seq;
                  continue_fetch := false)
              | None ->
                t.fetch <- Stalled_ctrl e.seq;
                continue_fetch := false)
            | Insn.Ret -> (
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              e.ret_depth <- t.dispatch_depth;
              (match t.dispatch_stack with
              | [] -> e.ret_target <- -1
              | target :: rest ->
                e.ret_target <- target;
                t.dispatch_stack <- rest;
                t.dispatch_depth <- t.dispatch_depth - 1);
              match Ras.pop t.ras with
              | Some pred_va -> (
                match Layout.decode_code_va pred_va with
                | Some (_, pf, pi) ->
                  e.pred_target_va <- pred_va;
                  fid := pf;
                  idx := pi
                | None ->
                  t.fetch <- Stalled_ctrl e.seq;
                  continue_fetch := false)
              | None ->
                t.fetch <- Stalled_ctrl e.seq;
                continue_fetch := false)
            | Insn.Syscall | Insn.Sysret | Insn.Halt ->
              t.fetch <- Stalled_serial;
              continue_fetch := false
            | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Load _
            | Insn.Store _ | Insn.Fence | Insn.Flush _ ->
              idx := idx_ + 1
          end
        end
      end
    done;
    (match t.fetch with
    | Fetching _ when !fid <> fid0 || !idx <> idx0 -> t.fetch <- Fetching (!fid, !idx)
    | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ())
  | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ()

(* ------------------------------------------------------------------ *)
(* Top-level run loop                                                   *)
(* ------------------------------------------------------------------ *)

let reset_run_state t ~asid ~start regs =
  (* Pool entries need no clearing: [make_entry] reinitializes every field
     and nothing reads outside the head/count window. *)
  Array.fill t.retired_seq 0 (cap t) (-1);
  Array.blit regs 0 t.arf 0 Insn.num_regs;
  Array.fill t.rat 0 Insn.num_regs (-1);
  t.fwd_len <- 0;
  t.head <- 0;
  t.count <- 0;
  t.next_seq <- 0;
  t.ghr <- 0;
  t.fetch <- Fetching (start, 0);
  t.fetch_ready_at <- 0;
  t.last_fetch_line <- -1;
  t.dispatch_stack <- [];
  t.dispatch_depth <- 0;
  t.commit_stack <- [];
  t.commit_depth <- 0;
  t.lq_used <- 0;
  t.sq_used <- 0;
  Array.fill t.wheel_len 0 (Array.length t.wheel_len) 0;
  t.far_len <- 0;
  t.far_min <- max_int;
  t.act_len <- 0;
  t.woken.Seqset.len <- 0;
  t.ctrls.Seqset.len <- 0;
  t.ustores.Seqset.len <- 0;
  t.vp_loads.Seqset.len <- 0;
  t.issue_dirty <- true;
  t.asid <- asid;
  t.kernel_mode <- is_kernel_fid t start;
  t.run_outcome <- None

(* Charge a zero-commit cycle to one stall class by inspecting the ROB head,
   root cause first: an empty ROB is a fetch stall; a head load parked by the
   guard is a fence stall of that source; a head still executing is memory
   (loads/returns) or execution latency; otherwise back-pressure (ROB/LSQ
   full) and finally the residual [exec] class (e.g. operands in flight), so
   the classes always sum to [stall_total]. *)
let classify_stall t =
  let c = t.ctrs in
  c.stall_total <- c.stall_total + 1;
  if t.count = 0 then c.stall_fetch <- c.stall_fetch + 1
  else begin
    let e = entry_at t 0 in
    let fl = e.flags in
    let b = Pack.blocked_src fl in
    if b <> Pack.blocked_none && Pack.state fl <> Pack.state_completed then begin
      (* Still blocked at the guard (Waiting), or released at the
         visibility point and now waiting out memory latency the fence
         exposed by delaying the issue (Issued): either way the fence is
         what keeps the head from committing, so it gets the cycle. *)
      if b = Pack.blocked_isv then c.stall_fence_isv <- c.stall_fence_isv + 1
      else if b = Pack.blocked_dsv then c.stall_fence_dsv <- c.stall_fence_dsv + 1
      else c.stall_fence_baseline <- c.stall_fence_baseline + 1
    end
    else if Pack.state fl = Pack.state_issued then (
      match e.insn with
      | Insn.Load _ | Insn.Ret -> c.stall_dram <- c.stall_dram + 1
      | _ -> c.stall_exec <- c.stall_exec + 1)
    else if t.count = cap t then c.stall_rob_full <- c.stall_rob_full + 1
    else if t.lq_used >= t.cfg.lq_entries || t.sq_used >= t.cfg.sq_entries then
      c.stall_lsq <- c.stall_lsq + 1
    else c.stall_exec <- c.stall_exec + 1
  end

let run ?fuel ?regs ?(hooks = null_hooks) t ~asid ~start =
  let fuel = match fuel with Some f -> f | None -> t.cfg.max_cycles in
  let regs =
    match regs with Some r -> Array.copy r | None -> Array.make Insn.num_regs 0
  in
  reset_run_state t ~asid ~start regs;
  t.hooks <- hooks;
  let start_cycles = t.ctrs.cycles in
  let start_committed = t.ctrs.committed in
  let elapsed () = t.ctrs.cycles - start_cycles in
  while t.run_outcome = None && elapsed () < fuel do
    t.now <- t.now + 1;
    t.ctrs.cycles <- t.ctrs.cycles + 1;
    if t.kernel_mode then t.ctrs.kernel_cycles <- t.ctrs.kernel_cycles + 1;
    completion_step t;
    let committed_before = t.ctrs.committed in
    commit_step t;
    if t.run_outcome = None then begin
      if t.ctrs.committed = committed_before then classify_stall t;
      issue_step t;
      fetch_step t
    end
  done;
  let outcome = match t.run_outcome with Some o -> o | None -> Out_of_fuel in
  {
    outcome;
    cycles = elapsed ();
    committed = t.ctrs.committed - start_committed;
    regs = Array.copy t.arf;
  }
