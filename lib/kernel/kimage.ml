module Program = Pv_isa.Program
module Layout = Pv_isa.Layout
module Rng = Pv_util.Rng

type sysdesc = {
  nr : int;
  entry_node : int;
  entry_fid : int;
  helper_fids : int list;
  table_nodes : int array;
}

type t = {
  mutable funcs_rev : Program.func list;
  mutable next : int;
  by_nr : (int, sysdesc) Hashtbl.t;
  node_fid : (int, int) Hashtbl.t;
  fid_node : (int, int) Hashtbl.t;
  dispatch_nodes : (int, unit) Hashtbl.t; (* realized from a [Dispatch] shape *)
}

let table_slots = 8

(* --- per-syscall timing shapes ------------------------------------- *)

let copy_loop ~stores =
  Codegen.
    {
      trips_shift = 0;
      min_trips = 4;
      unroll = 4;
      stride = 64;
      dep_chain = false;
      shared_every = 4;
      unknown_every = 0;
      store_every = (if stores then 2 else 0);
      branch_mask = 63;
      alu_pad = 1;
    }

let scan_loop =
  Codegen.
    {
      trips_shift = 0;
      min_trips = 8;
      unroll = 2;
      stride = 64;
      dep_chain = true;
      shared_every = 4;
      unknown_every = 8;
      store_every = 0;
      branch_mask = 7;
      alu_pad = 1;
    }

let touch_loop =
  Codegen.
    {
      trips_shift = 0;
      min_trips = 8;
      unroll = 1;
      stride = 64;
      dep_chain = false;
      shared_every = 8;
      unknown_every = 8;
      store_every = 1;
      branch_mask = 31;
      alu_pad = 2;
    }

let meta_leaf = Codegen.Leaf { loads = 6; stores = 2; alu = 8; shared = false }

let shared_leaf = Codegen.Leaf { loads = 5; stores = 1; alu = 6; shared = true }

let tiny_leaf = Codegen.Leaf { loads = 2; stores = 0; alu = 4; shared = true }

(* Helper shapes per syscall, in call order.  A [Dispatch] shape hosts the
   function-pointer dispatch (vfs/socket ops). *)
let shapes_for nr =
  let open Codegen in
  if nr = Sysno.sys_getpid || nr = Sysno.sys_clock_gettime then [ tiny_leaf ]
  else if nr = Sysno.sys_read || nr = Sysno.sys_fstat then
    [ Dispatch { slots = table_slots; post = copy_loop ~stores:true }; shared_leaf ]
  else if nr = Sysno.sys_write || nr = Sysno.sys_writev then
    [ Dispatch { slots = table_slots; post = copy_loop ~stores:true }; shared_leaf ]
  else if nr = Sysno.sys_select || nr = Sysno.sys_poll || nr = Sysno.sys_epoll_wait
  then [ Dispatch { slots = table_slots; post = scan_loop }; meta_leaf ]
  else if
    nr = Sysno.sys_mmap || nr = Sysno.sys_brk || nr = Sysno.sys_mprotect
    || nr = Sysno.sys_page_fault
  then [ Loop touch_loop; shared_leaf ]
  else if nr = Sysno.sys_munmap then [ meta_leaf; shared_leaf ]
  else if nr = Sysno.sys_fork || nr = Sysno.sys_thread_create then
    [ Loop touch_loop; Loop touch_loop; shared_leaf ]
  else if nr = Sysno.sys_send || nr = Sysno.sys_recv then
    [ Dispatch { slots = table_slots; post = copy_loop ~stores:false }; shared_leaf; meta_leaf ]
  else if nr = Sysno.sys_context_switch then [ shared_leaf; meta_leaf ]
  else [ meta_leaf ]

let target_shape node =
  (* Dispatch-target bodies (concrete ops implementations), mildly varied. *)
  match node mod 3 with
  | 0 -> Codegen.Leaf { loads = 5; stores = 1; alu = 4; shared = false }
  | 1 -> Codegen.Leaf { loads = 8; stores = 0; alu = 6; shared = false }
  | _ -> Codegen.Leaf { loads = 4; stores = 2; alu = 3; shared = true }

(* --- image construction -------------------------------------------- *)

let add_func t graph node body =
  let fid = t.next in
  t.next <- fid + 1;
  let f =
    { Program.fid; name = "k_" ^ Callgraph.node_name graph node; space = Layout.Kernel; body }
  in
  t.funcs_rev <- f :: t.funcs_rev;
  Hashtbl.replace t.node_fid node fid;
  Hashtbl.replace t.fid_node fid node;
  fid

let realize_target t graph node =
  match Hashtbl.find_opt t.node_fid node with
  | Some fid -> fid
  | None -> add_func t graph node (Codegen.gen_body (target_shape node) ~tail:`Ret)

(* Helper nodes for a syscall: breadth-first over direct callees of the
   entry.  Nodes already realized are reused as-is, except that [avoid]
   nodes are passed over (their callees are still visited). *)
let helper_nodes graph entry n ~avoid =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let q = Queue.create () in
  List.iter (fun v -> Queue.add v q) (Callgraph.direct_callees graph entry);
  while List.length !acc < n && not (Queue.is_empty q) do
    let u = Queue.pop q in
    if not (Hashtbl.mem seen u) then begin
      Hashtbl.replace seen u ();
      if not (avoid u) then acc := u :: !acc;
      List.iter (fun v -> Queue.add v q) (Callgraph.direct_callees graph u)
    end
  done;
  List.rev !acc

let dispatch_targets graph rng site =
  let pool_lo, pool_hi = Callgraph.indirect_pool_bounds graph in
  let candidates =
    match Callgraph.indirect_targets graph site with
    | [] ->
      (* No static dispatch site on this node: draw concrete ops
         implementations straight from the indirect pool. *)
      List.init 3 (fun _ -> Rng.in_range rng pool_lo (pool_hi - 1))
    | ts -> ts
  in
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  (* 6 of 8 slots hold the installed target; the rest hold alternates. *)
  Array.init table_slots (fun i ->
      if i < 6 || n = 1 then arr.(0) else arr.(1 + ((i - 6) mod (n - 1))))

let build graph ~seed ~fid_base ~syscalls =
  let rng = Rng.create (seed lxor 0x6B696D67) in
  let t =
    {
      funcs_rev = [];
      next = fid_base;
      by_nr = Hashtbl.create 32;
      node_fid = Hashtbl.create 256;
      fid_node = Hashtbl.create 256;
      dispatch_nodes = Hashtbl.create 16;
    }
  in
  let realize_syscall nr =
    if not (Hashtbl.mem t.by_nr nr) then begin
      let entry_node = Callgraph.entry_of_syscall graph nr in
      let shapes = shapes_for nr in
      (* A dispatch body icalls through r13, which only a syscall with its
         own dispatch table sets up: a syscall without one must not reuse
         such a body. *)
      let dispatches =
        List.exists
          (function Codegen.Dispatch _ -> true | Codegen.Loop _ | Codegen.Leaf _ -> false)
          shapes
      in
      let avoid node = (not dispatches) && Hashtbl.mem t.dispatch_nodes node in
      let nodes = helper_nodes graph entry_node (List.length shapes) ~avoid in
      let table = ref [||] in
      let n = min (List.length shapes) (List.length nodes) in
      let helper_fids =
        List.map2
          (fun node shape ->
            (match shape with
            | Codegen.Dispatch _ when !table = [||] ->
              let slots = dispatch_targets graph rng node in
              Array.iter (fun tgt -> ignore (realize_target t graph tgt)) slots;
              table := slots
            | Codegen.Dispatch _ | Codegen.Loop _ | Codegen.Leaf _ -> ());
            match Hashtbl.find_opt t.node_fid node with
            | Some fid -> fid
            | None ->
              (match shape with
              | Codegen.Dispatch _ -> Hashtbl.replace t.dispatch_nodes node ()
              | Codegen.Loop _ | Codegen.Leaf _ -> ());
              add_func t graph node (Codegen.gen_body shape ~tail:`Ret))
          (List.filteri (fun i _ -> i < n) nodes)
          (List.filteri (fun i _ -> i < n) shapes)
      in
      let entry_fid =
        add_func t graph entry_node (Codegen.gen_entry ~callees:helper_fids)
      in
      Hashtbl.replace t.by_nr nr
        { nr; entry_node; entry_fid; helper_fids; table_nodes = !table }
    end
  in
  List.iter realize_syscall syscalls;
  t

let funcs t = List.rev t.funcs_rev
let next_fid t = t.next
let desc t nr = Hashtbl.find_opt t.by_nr nr

let realized_syscalls t =
  Hashtbl.fold (fun nr _ acc -> nr :: acc) t.by_nr [] |> List.sort compare

let fid_of_node t node = Hashtbl.find_opt t.node_fid node
let node_of_fid t fid = Hashtbl.find_opt t.fid_node fid
