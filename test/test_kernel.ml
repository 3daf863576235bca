(* Tests for the synthetic kernel: buddy allocator, secure slab, cgroups,
   processes, syscall table, callgraph synthesis, tracing, code generation
   and the executable kernel image. *)

module Physmem = Pv_kernel.Physmem
module Slab = Pv_kernel.Slab
module Cgroup = Pv_kernel.Cgroup
module Process = Pv_kernel.Process
module Sysno = Pv_kernel.Sysno
module Callgraph = Pv_kernel.Callgraph
module Trace = Pv_kernel.Trace
module Kernel = Pv_kernel.Kernel
module Kimage = Pv_kernel.Kimage
module Codegen = Pv_kernel.Codegen
module Layout = Pv_isa.Layout
module Bitset = Pv_util.Bitset
module Rng = Pv_util.Rng

let check = Alcotest.check

(* --- buddy allocator --- *)

let test_buddy_basic () =
  let pm = Physmem.create ~frames:64 in
  check Alcotest.int "all free" 64 (Physmem.free_frames pm);
  let f = Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel) in
  check Alcotest.int "one allocated" 63 (Physmem.free_frames pm);
  Alcotest.(check bool) "owner" true
    (Physmem.owner_of pm f = Some Physmem.Kernel);
  Physmem.free_pages pm ~frame:f ~order:0;
  check Alcotest.int "freed" 64 (Physmem.free_frames pm);
  Alcotest.(check bool) "no owner" true (Physmem.owner_of pm f = None)

let test_buddy_alignment () =
  let pm = Physmem.create ~frames:64 in
  for order = 0 to 5 do
    match Physmem.alloc_pages pm ~order (Physmem.Cgroup 1) with
    | Some f ->
      check Alcotest.int (Printf.sprintf "order %d aligned" order) 0 (f mod (1 lsl order))
    | None -> Alcotest.fail "allocation failed"
  done

let test_buddy_exhaustion () =
  let pm = Physmem.create ~frames:4 in
  let a = Physmem.alloc_pages pm ~order:2 Physmem.Kernel in
  Alcotest.(check bool) "got block" true (a <> None);
  Alcotest.(check bool) "exhausted" true (Physmem.alloc_pages pm ~order:0 Physmem.Kernel = None)

let test_buddy_coalescing () =
  let pm = Physmem.create ~frames:8 in
  let fs = List.init 8 (fun _ -> Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel)) in
  Alcotest.(check bool) "full" true (Physmem.alloc_pages pm ~order:0 Physmem.Kernel = None);
  List.iter (fun f -> Physmem.free_pages pm ~frame:f ~order:0) fs;
  (* After freeing everything, a maximal block must be allocatable again. *)
  Alcotest.(check bool) "coalesced to order 3" true
    (Physmem.alloc_pages pm ~order:3 Physmem.Kernel <> None)

let test_buddy_double_free () =
  let pm = Physmem.create ~frames:8 in
  let f = Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel) in
  Physmem.free_pages pm ~frame:f ~order:0;
  Alcotest.(check bool) "double free rejected" true
    (try Physmem.free_pages pm ~frame:f ~order:0; false with Invalid_argument _ -> true)

let test_buddy_owner_per_block () =
  let pm = Physmem.create ~frames:16 in
  let f = Option.get (Physmem.alloc_pages pm ~order:2 (Physmem.Cgroup 7)) in
  for i = f to f + 3 do
    Alcotest.(check bool) "block frames owned" true
      (Physmem.owner_of pm i = Some (Physmem.Cgroup 7))
  done

let test_buddy_reassignment () =
  let pm = Physmem.create ~frames:8 in
  let f = Option.get (Physmem.alloc_pages pm ~order:0 (Physmem.Cgroup 1)) in
  Physmem.set_owner pm ~frame:f ~order:0 (Physmem.Cgroup 2);
  Alcotest.(check bool) "new owner" true (Physmem.owner_of pm f = Some (Physmem.Cgroup 2));
  check Alcotest.int "counted" 1 (Physmem.domain_reassignments pm)

let test_frame_va_roundtrip () =
  check Alcotest.(option int) "roundtrip" (Some 17) (Physmem.frame_of_va (Physmem.frame_va 17))

(* No overlap between concurrently live blocks, and frees restore everything:
   a property over random alloc/free traces. *)
let buddy_trace_prop =
  QCheck.Test.make ~name:"buddy: no overlap, conservation of frames" ~count:60
    QCheck.(small_list (pair (int_bound 3) bool))
    (fun ops ->
      let pm = Physmem.create ~frames:64 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (order, do_free) ->
          if do_free then (
            match !live with
            | (f, o) :: rest ->
              Physmem.free_pages pm ~frame:f ~order:o;
              live := rest
            | [] -> ())
          else
            match Physmem.alloc_pages pm ~order Physmem.Kernel with
            | Some f ->
              (* overlap check against live blocks *)
              List.iter
                (fun (g, o) ->
                  let disjoint = f + (1 lsl order) <= g || g + (1 lsl o) <= f in
                  if not disjoint then ok := false)
                !live;
              live := (f, order) :: !live
            | None -> ())
        ops;
      let live_frames = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !live in
      !ok && Physmem.free_frames pm = 64 - live_frames)

(* --- slab allocator --- *)

let test_slab_class_rounding () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:33) in
  Alcotest.(check bool) "owner tracked" true
    (Slab.owner_of_object s va = Some (Physmem.Cgroup 1));
  check Alcotest.int "one live" 1 (Slab.live_objects s);
  check Alcotest.int "rounded to 64" 64 (Slab.active_bytes s)

let test_slab_secure_isolation () =
  let pm = Physmem.create ~frames:256 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let vas = ref [] in
  for i = 1 to 200 do
    let owner = Physmem.Cgroup (1 + (i mod 3)) in
    match Slab.kmalloc s ~owner ~size:32 with
    | Some va -> vas := va :: !vas
    | None -> Alcotest.fail "oom"
  done;
  List.iter
    (fun va ->
      Alcotest.(check bool) "no cross-owner collocation" false
        (Slab.shares_page_with_other_owner s va))
    !vas

let test_slab_shared_collocates () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Shared pm in
  let a = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:8) in
  let _b = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 2) ~size:8) in
  Alcotest.(check bool) "distrusting objects share a page" true
    (Slab.shares_page_with_other_owner s a)

let test_slab_page_return () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let free_before = Physmem.free_frames pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:128) in
  check Alcotest.int "page taken" (free_before - 1) (Physmem.free_frames pm);
  Slab.kfree s va;
  check Alcotest.int "page returned" free_before (Physmem.free_frames pm);
  check Alcotest.int "return counted" 1 (Slab.page_returns s);
  check Alcotest.int "free counted" 1 (Slab.total_frees s)

let test_slab_double_free () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:Physmem.Kernel ~size:64) in
  let vb = Option.get (Slab.kmalloc s ~owner:Physmem.Kernel ~size:64) in
  ignore vb;
  Slab.kfree s va;
  Alcotest.(check bool) "double free rejected" true
    (try Slab.kfree s va; false with Invalid_argument _ -> true)

let test_slab_oversize () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:10_000) in
  Alcotest.(check bool) "owner known" true
    (Slab.owner_of_object s va = Some (Physmem.Cgroup 1));
  Slab.kfree s va;
  check Alcotest.int "all frames back" 64 (Physmem.free_frames pm)

let test_slab_utilization () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  check (Alcotest.float 0.0) "empty = 1.0" 1.0 (Slab.utilization s);
  let _ = Slab.kmalloc s ~owner:Physmem.Kernel ~size:2048 in
  check (Alcotest.float 1e-9) "half page" 0.5 (Slab.utilization s)

let slab_accounting_prop =
  QCheck.Test.make ~name:"slab: live bytes consistent over random traces" ~count:60
    QCheck.(small_list (pair (int_bound 7) bool))
    (fun ops ->
      let pm = Physmem.create ~frames:256 in
      let s = Slab.create ~mode:Slab.Secure pm in
      let live = ref [] in
      let expected = ref 0 in
      List.iter
        (fun (cls_idx, do_free) ->
          if do_free then (
            match !live with
            | (va, bytes) :: rest ->
              Slab.kfree s va;
              expected := !expected - bytes;
              live := rest
            | [] -> ())
          else
            let size = Slab.size_classes.(cls_idx) in
            match Slab.kmalloc s ~owner:(Physmem.Cgroup (1 + cls_idx)) ~size with
            | Some va ->
              expected := !expected + size;
              live := (va, size) :: !live
            | None -> ())
        ops;
      Slab.active_bytes s = !expected && Slab.live_objects s = List.length !live)

(* --- cgroups / processes / sysno --- *)

let test_cgroup () =
  let c = Cgroup.create () in
  let a = Cgroup.add c "web" in
  let b = Cgroup.add c "db" in
  check Alcotest.int "dense ids" 1 a;
  check Alcotest.int "dense ids" 2 b;
  check Alcotest.string "name" "web" (Cgroup.name c a);
  check Alcotest.int "count" 2 (Cgroup.count c);
  check Alcotest.(list int) "ids" [ 1; 2 ] (Cgroup.ids c)

let test_process_pages () =
  let p = Process.create ~pid:1 ~asid:1 ~cgroup:1 in
  Process.map_page p ~va:0x1000 ~frame:7;
  check Alcotest.(option int) "mapped" (Some 7) (Process.frame_for p ~va:0x1234);
  check Alcotest.(option int) "unmap returns" (Some 7) (Process.unmap_page p ~va:0x1000);
  check Alcotest.(option int) "gone" None (Process.frame_for p ~va:0x1000)

let test_process_heap () =
  let p = Process.create ~pid:1 ~asid:1 ~cgroup:1 in
  let a = Process.fresh_heap_va p ~pages:2 in
  let b = Process.fresh_heap_va p ~pages:1 in
  check Alcotest.int "no overlap" (a + (2 * Layout.page_bytes)) b

let test_sysno () =
  check Alcotest.int "count" 340 Sysno.count;
  check Alcotest.string "read" "read" (Sysno.name Sysno.sys_read);
  check Alcotest.(option int) "lookup" (Some Sysno.sys_poll) (Sysno.lookup "poll");
  Alcotest.(check bool) "unknown" true (Sysno.lookup "nonexistent" = None);
  Alcotest.(check bool) "generic names" true (Sysno.name 300 = "sys_300")

(* --- callgraph --- *)

let graph = Callgraph.synthesize 42

let test_graph_shape () =
  check Alcotest.int "nodes" 28_000 (Callgraph.nnodes graph);
  for nr = 0 to Sysno.count - 1 do
    let e = Callgraph.entry_of_syscall graph nr in
    Alcotest.(check bool) "entry region" true (Callgraph.region graph e = `Entry);
    check Alcotest.(option int) "entry inverse" (Some nr) (Callgraph.syscall_of_entry graph e)
  done

let test_graph_determinism () =
  let g2 = Callgraph.synthesize 42 in
  check Alcotest.(list int) "same edges" (Callgraph.direct_callees graph 100)
    (Callgraph.direct_callees g2 100);
  let g3 = Callgraph.synthesize 43 in
  Alcotest.(check bool) "different seed differs" true
    (List.exists
       (fun n -> Callgraph.direct_callees graph n <> Callgraph.direct_callees g3 n)
       (List.init 500 (fun i -> i)))

let test_graph_static_reachability () =
  let entry = Callgraph.entry_of_syscall graph Sysno.sys_read in
  let reach = Callgraph.static_reachable graph [ entry ] in
  Alcotest.(check bool) "entry reachable" true (Bitset.mem reach entry);
  List.iter
    (fun v -> Alcotest.(check bool) "children reachable" true (Bitset.mem reach v))
    (Callgraph.direct_callees graph entry);
  Alcotest.(check bool) "not the whole kernel" true
    (Bitset.count reach < Callgraph.nnodes graph / 4)

let test_graph_indirect_only () =
  (* Indirect-pool nodes are invisible to static analysis but reachable once
     indirect edges are followed. *)
  let entries = List.init Sysno.count (fun nr -> Callgraph.entry_of_syscall graph nr) in
  let static = Callgraph.static_reachable graph entries in
  let full = Callgraph.reachable_with_indirect graph entries in
  Alcotest.(check bool) "static subset of full" true (Bitset.subset static full);
  let lo, hi = Callgraph.indirect_pool_bounds graph in
  let pool_static = ref 0 and pool_full = ref 0 in
  for n = lo to hi - 1 do
    if Bitset.mem static n then incr pool_static;
    if Bitset.mem full n then incr pool_full
  done;
  check Alcotest.int "pool invisible statically" 0 !pool_static;
  Alcotest.(check bool) "pool visible with indirect edges" true (!pool_full > 0);
  for n = lo to hi - 1 do
    if not (Bitset.mem static n) then
      Alcotest.(check bool) "indirect_only flag" true (Callgraph.indirect_only graph n)
  done

let test_graph_trace_subset () =
  let rng = Rng.create 1 in
  let installed = Callgraph.default_installed graph ~app_seed:1 in
  let entry = Callgraph.entry_of_syscall graph Sysno.sys_poll in
  let static = Callgraph.static_reachable graph [ entry ] in
  let full = Callgraph.reachable_with_indirect graph [ entry ] in
  for _ = 1 to 10 do
    let nodes = Callgraph.sample_trace graph rng ~syscall:Sysno.sys_poll ~installed in
    List.iter
      (fun n ->
        Alcotest.(check bool) "trace within indirect closure" true (Bitset.mem full n))
      nodes;
    ignore static
  done

let test_graph_installed_deterministic () =
  let site =
    (* find some dispatch site *)
    let rec go n =
      if Callgraph.indirect_targets graph n <> [] then n else go (n + 1)
    in
    go 0
  in
  let a = Callgraph.default_installed graph ~app_seed:5 site in
  let b = Callgraph.default_installed graph ~app_seed:5 site in
  Alcotest.(check bool) "deterministic" true (a = b);
  (match a with
  | Some t ->
    Alcotest.(check bool) "installed among candidates" true
      (List.mem t (Callgraph.indirect_targets graph site))
  | None -> Alcotest.fail "no installed target")

let test_graph_depths () =
  check Alcotest.int "entries at depth 0" 0 (Callgraph.depth graph 0);
  let lo, _ = Callgraph.indirect_pool_bounds graph in
  Alcotest.(check bool) "pool unreachable directly" true
    (Callgraph.depth graph lo = max_int)

(* --- tracing --- *)

let test_trace () =
  let t = Trace.create graph in
  Trace.record_syscall t ~ctx:1 Sysno.sys_read;
  Trace.record_nodes t ~ctx:1 [ 5; 6; 5 ];
  check Alcotest.int "nodes" 2 (Bitset.count (Trace.nodes t ~ctx:1));
  check Alcotest.(list int) "syscalls" [ Sysno.sys_read ] (Trace.syscalls_used t ~ctx:1);
  check Alcotest.int "count" 1 (Trace.syscall_count t ~ctx:1);
  check Alcotest.int "other ctx empty" 0 (Bitset.count (Trace.nodes t ~ctx:2));
  Trace.reset t ~ctx:1;
  check Alcotest.int "reset" 0 (Bitset.count (Trace.nodes t ~ctx:1))

(* --- codegen --- *)

let test_codegen_bodies_valid () =
  let shapes =
    [
      Codegen.Loop Codegen.simple_loop;
      Codegen.Leaf { loads = 4; stores = 2; alu = 3; shared = true };
      Codegen.Dispatch { slots = 8; post = Codegen.simple_loop };
    ]
  in
  List.iter
    (fun shape ->
      let body = Codegen.gen_body shape ~tail:`Ret in
      Alcotest.(check bool) "non-empty" true (Array.length body > 0);
      Alcotest.(check bool) "fits page" true
        (Array.length body <= Layout.max_insns_per_func);
      Alcotest.(check bool) "ends with ret" true
        (body.(Array.length body - 1) = Pv_isa.Insn.Ret))
    shapes

let test_codegen_loop_runs () =
  (* A generated loop body must execute architecturally and terminate. *)
  let body = Codegen.gen_body (Codegen.Loop Codegen.simple_loop) ~tail:`Ret in
  let main =
    Array.append
      [|
        Pv_isa.Insn.Limm (8, Layout.direct_map_va 0);
        Pv_isa.Insn.Limm (9, Layout.direct_map_va 4096);
        Pv_isa.Insn.Limm (10, Layout.kernel_global_base);
        Pv_isa.Insn.Limm (11, 16);
        Pv_isa.Insn.Limm (12, 1);
        Pv_isa.Insn.Limm (13, Layout.direct_map_va 8192);
        Pv_isa.Insn.Call 1;
      |]
      [| Pv_isa.Insn.Halt |]
  in
  let prog =
    Pv_isa.Program.of_funcs
      [
        { Pv_isa.Program.fid = 0; name = "m"; space = Layout.Kernel; body = main };
        { Pv_isa.Program.fid = 1; name = "loop"; space = Layout.Kernel; body };
      ]
  in
  let mem = Pv_isa.Mem.create () in
  Codegen.seed_page mem (Rng.create 1) (Layout.direct_map_va 0);
  let r = Pv_isa.Iss.run ~asid:1 ~mem prog ~start:0 in
  Alcotest.(check bool) "halts" true (r.Pv_isa.Iss.outcome = Pv_isa.Iss.Halted)

let test_codegen_pow2_validation () =
  Alcotest.(check bool) "bad shared_every rejected" true
    (try
       ignore
         (Codegen.gen_body
            (Codegen.Loop { Codegen.simple_loop with Codegen.shared_every = 3 })
            ~tail:`Ret);
       false
     with Invalid_argument _ -> true)

(* --- kernel facade + kimage --- *)

let test_kernel_spawn () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  Alcotest.(check bool) "has kstack" true (Process.kstack p <> None);
  Alcotest.(check bool) "has working set" true (Array.length (Process.data_frames p) > 0);
  Alcotest.(check bool) "kstack owned by cgroup" true
    (Physmem.owner_of (Kernel.phys k) (Option.get (Process.kstack p))
    = Some (Physmem.Cgroup (Process.cgroup p)))

let test_kernel_mmap_ownership () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  let eff = Kernel.exec_syscall k p ~nr:Sysno.sys_mmap ~args:[| 4 |] in
  check Alcotest.int "four frames" 4 (List.length eff.Kernel.new_frames);
  List.iter
    (fun f ->
      Alcotest.(check bool) "owned by caller" true
        (Physmem.owner_of (Kernel.phys k) f = Some (Physmem.Cgroup (Process.cgroup p))))
    eff.Kernel.new_frames;
  let eff2 = Kernel.exec_syscall k p ~nr:Sysno.sys_munmap ~args:[||] in
  check Alcotest.int "frames freed" 4 (List.length eff2.Kernel.freed_frames);
  List.iter
    (fun f ->
      Alcotest.(check bool) "free after munmap" true
        (Physmem.owner_of (Kernel.phys k) f = None))
    eff2.Kernel.freed_frames

let test_kernel_trace_feeds () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.exec_syscall k p ~nr:Sysno.sys_read ~args:[| 4096 |]);
  let ctx = Process.cgroup p in
  Alcotest.(check bool) "nodes traced" true
    (Bitset.count (Trace.nodes (Kernel.trace k) ~ctx) > 0);
  check Alcotest.(list int) "syscall recorded" [ Sysno.sys_read ]
    (Trace.syscalls_used (Kernel.trace k) ~ctx)

let test_kernel_owner_of_va () =
  let k = Kernel.create ~seed:1 () in
  Alcotest.(check bool) "shared base is kernel-owned" true
    (Kernel.owner_of_va k (Kernel.shared_base k) = Some Physmem.Kernel);
  Alcotest.(check bool) "global region unknown" true
    (Kernel.owner_of_va k (Kernel.unknown_base k) = Some Physmem.Unknown);
  Alcotest.(check bool) "user VA unresolved" true
    (Kernel.owner_of_va k Layout.user_data_base = None)

let test_kimage_structure () =
  let k = Kernel.create ~seed:1 () in
  let syscalls = [ Sysno.sys_read; Sysno.sys_poll; Sysno.sys_getpid ] in
  let img = Kimage.build (Kernel.graph k) ~seed:1 ~fid_base:0 ~syscalls in
  check Alcotest.(list int) "realized" (List.sort compare syscalls)
    (Kimage.realized_syscalls img);
  let funcs = Kimage.funcs img in
  Alcotest.(check bool) "functions generated" true (List.length funcs > 5);
  List.iteri
    (fun i f -> check Alcotest.int "dense fids" i f.Pv_isa.Program.fid)
    funcs;
  (* every realized syscall has an entry whose node maps back *)
  List.iter
    (fun nr ->
      match Kimage.desc img nr with
      | Some d ->
        check Alcotest.(option int) "fid/node roundtrip" (Some d.Kimage.entry_node)
          (Kimage.node_of_fid img d.Kimage.entry_fid);
        Alcotest.(check bool) "helpers exist" true (d.Kimage.helper_fids <> [])
      | None -> Alcotest.fail "missing desc")
    syscalls;
  (* poll gets a dispatch table; getpid does not *)
  let poll = Option.get (Kimage.desc img Sysno.sys_poll) in
  check Alcotest.int "table slots" Kimage.table_slots (Array.length poll.Kimage.table_nodes);
  let getpid = Option.get (Kimage.desc img Sysno.sys_getpid) in
  check Alcotest.int "no table" 0 (Array.length getpid.Kimage.table_nodes)

let test_kimage_program_valid () =
  let k = Kernel.create ~seed:1 () in
  let img =
    Kimage.build (Kernel.graph k) ~seed:1 ~fid_base:0
      ~syscalls:Pv_workloads.Lebench.all_syscalls
  in
  let prog = Pv_isa.Program.of_funcs (Kimage.funcs img) in
  Alcotest.(check bool) "validates" true (Pv_isa.Program.validate prog = Ok ())

(* Non-dispatch syscalls get r13 = shared data, not a dispatch table: a
   helper realized from a [Dispatch] shape (an icall through r13) would
   fetch from an invalid VA.  Seed 2024's page_fault once reused poll's
   dispatch helper this way. *)
let test_kimage_no_foreign_dispatch () =
  let has_icall (f : Pv_isa.Program.func) =
    Array.exists
      (function Pv_isa.Insn.Icall _ -> true | _ -> false)
      f.Pv_isa.Program.body
  in
  let syscall_sets =
    [
      Pv_workloads.Lebench.all_syscalls;
      Pv_workloads.Apps.all_syscalls;
      List.init Sysno.count Fun.id;
    ]
  in
  for seed = 1 to 64 do
    let graph = Callgraph.synthesize seed in
    List.iter
      (fun syscalls ->
        let img = Kimage.build graph ~seed ~fid_base:0 ~syscalls in
        let funcs = Array.of_list (Kimage.funcs img) in
        List.iter
          (fun nr ->
            match Kimage.desc img nr with
            | Some d when d.Kimage.table_nodes = [||] ->
              List.iter
                (fun fid ->
                  if has_icall funcs.(fid) then
                    Alcotest.failf "seed %d: %s helper fid %d is a dispatch body" seed
                      (Sysno.name nr) fid)
                d.Kimage.helper_fids
            | Some _ | None -> ())
          (Kimage.realized_syscalls img))
      syscall_sets
  done

(* --- shared callgraph --- *)

let small_graph =
  { Callgraph.default_config with nodes = 4_000; shared_core = 400; indirect_pool = 600 }

let test_shared_graph_same_key () =
  let a = Kernel.create ~seed:42 () in
  let b = Kernel.create ~seed:42 () in
  Alcotest.(check bool) "physically equal graphs" true (Kernel.graph a == Kernel.graph b);
  Alcotest.(check bool) "own physical memory" true (Kernel.phys a != Kernel.phys b)

let test_shared_graph_other_key () =
  let g42 = Kernel.graph (Kernel.create ~seed:42 ()) in
  let g43 = Kernel.graph (Kernel.create ~seed:43 ()) in
  Alcotest.(check bool) "other seed: fresh graph" true (g43 = Callgraph.synthesize 43);
  Alcotest.(check bool) "other seed: not the seed-42 graph" true (g43 != g42);
  let config = { Kernel.default_config with graph_config = small_graph } in
  let small = Kernel.graph (Kernel.create ~config ~seed:42 ()) in
  Alcotest.(check bool) "other graph_config: fresh graph" true
    (small = Callgraph.synthesize ~config:small_graph 42);
  Alcotest.(check int) "other graph_config: its node count" 4_000 (Callgraph.nnodes small)

let test_shared_graph_domains () =
  let config = { Kernel.default_config with frames = 1_024; graph_config = small_graph } in
  let expected = Array.init 2 (fun s -> Callgraph.synthesize ~config:small_graph (s + 1)) in
  let worker d () =
    let bad = ref 0 in
    for i = 0 to 49 do
      let s = (d + i) mod 2 in
      let k = Kernel.create ~config ~seed:(s + 1) () in
      if Kernel.graph k <> expected.(s) then incr bad
    done;
    !bad
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check Alcotest.int "kernels whose graph is another seed's" 0 bad

let suite =
  [
    ( "kernel.buddy",
      [
        Alcotest.test_case "alloc/free/owner" `Quick test_buddy_basic;
        Alcotest.test_case "alignment" `Quick test_buddy_alignment;
        Alcotest.test_case "exhaustion" `Quick test_buddy_exhaustion;
        Alcotest.test_case "coalescing" `Quick test_buddy_coalescing;
        Alcotest.test_case "double free" `Quick test_buddy_double_free;
        Alcotest.test_case "block ownership" `Quick test_buddy_owner_per_block;
        Alcotest.test_case "domain reassignment" `Quick test_buddy_reassignment;
        Alcotest.test_case "frame VA roundtrip" `Quick test_frame_va_roundtrip;
        QCheck_alcotest.to_alcotest buddy_trace_prop;
      ] );
    ( "kernel.slab",
      [
        Alcotest.test_case "class rounding" `Quick test_slab_class_rounding;
        Alcotest.test_case "secure isolation" `Quick test_slab_secure_isolation;
        Alcotest.test_case "shared collocates" `Quick test_slab_shared_collocates;
        Alcotest.test_case "page return" `Quick test_slab_page_return;
        Alcotest.test_case "double free" `Quick test_slab_double_free;
        Alcotest.test_case "oversize" `Quick test_slab_oversize;
        Alcotest.test_case "utilization" `Quick test_slab_utilization;
        QCheck_alcotest.to_alcotest slab_accounting_prop;
      ] );
    ( "kernel.procs",
      [
        Alcotest.test_case "cgroups" `Quick test_cgroup;
        Alcotest.test_case "process pages" `Quick test_process_pages;
        Alcotest.test_case "process heap" `Quick test_process_heap;
        Alcotest.test_case "syscall table" `Quick test_sysno;
      ] );
    ( "kernel.callgraph",
      [
        Alcotest.test_case "shape" `Quick test_graph_shape;
        Alcotest.test_case "determinism" `Quick test_graph_determinism;
        Alcotest.test_case "static reachability" `Quick test_graph_static_reachability;
        Alcotest.test_case "indirect pool invisibility" `Quick test_graph_indirect_only;
        Alcotest.test_case "trace subset" `Quick test_graph_trace_subset;
        Alcotest.test_case "installed determinism" `Quick test_graph_installed_deterministic;
        Alcotest.test_case "depths" `Quick test_graph_depths;
      ] );
    ("kernel.trace", [ Alcotest.test_case "recording" `Quick test_trace ]);
    ( "kernel.codegen",
      [
        Alcotest.test_case "bodies valid" `Quick test_codegen_bodies_valid;
        Alcotest.test_case "loop terminates" `Quick test_codegen_loop_runs;
        Alcotest.test_case "pow2 validation" `Quick test_codegen_pow2_validation;
      ] );
    ( "kernel.facade",
      [
        Alcotest.test_case "spawn" `Quick test_kernel_spawn;
        Alcotest.test_case "mmap ownership" `Quick test_kernel_mmap_ownership;
        Alcotest.test_case "tracing" `Quick test_kernel_trace_feeds;
        Alcotest.test_case "owner_of_va" `Quick test_kernel_owner_of_va;
        Alcotest.test_case "shared graph: same key" `Quick test_shared_graph_same_key;
        Alcotest.test_case "shared graph: other key" `Quick test_shared_graph_other_key;
        Alcotest.test_case "shared graph: 4 domains" `Quick test_shared_graph_domains;
      ] );
    ( "kernel.kimage",
      [
        Alcotest.test_case "structure" `Quick test_kimage_structure;
        Alcotest.test_case "program validates" `Quick test_kimage_program_valid;
        Alcotest.test_case "no dispatch body without a table" `Quick
          test_kimage_no_foreign_dispatch;
      ] );
  ]
