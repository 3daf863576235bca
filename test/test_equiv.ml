(* Golden commit-stream equivalence suite.

   The pipeline cycle loop was rewritten for speed (preallocated int-packed
   ROB pool, allocation-free cache paths); Perspective's security claims rest
   on exact microarchitectural state, so the rewrite must be provably
   byte-identical to the seed model.  Three gates enforce that:

   1. Pinned (workload x scheme) cells run through the full Machine and are
      compared — commit-stream digest, cycles, committed count, stall-class
      totals, fence counts and the metrics-snapshot JSON digest — against
      goldens recorded with the PRE-optimization seed pipeline (committed in
      test/equiv.golden; regenerate with
      [PV_EQUIV_RECORD=$PWD/test/equiv.golden dune exec test/main.exe -- test equiv]).

   2. Seeded random programs run through the optimized [Pipeline], the frozen
      seed copy [Pipeline_ref] and the in-order ISS: all three must agree on
      the architectural commit stream, final registers and memory; the two
      pipelines must also agree on cycle counts, stall attribution, squashes,
      speculative loads, fence counts and every guard call, which the ISS
      cannot check.  Each program also runs under test-local FENCE-, DOM- and
      STT-shaped guards and a stateful one, on the default config and on a
      tiny one (ROB 16, LSQ 4, width 2); pinned programs cover seq reuse
      after squashes and latencies beyond the completion wheel.

   3. A small lebench matrix is rendered at -j 1 and -j 4: the experiment
      tables must be byte-identical to each other and to the recorded golden
      digest. *)

module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Mem = Pv_isa.Mem
module Memsys = Pv_uarch.Memsys
module Guard = Pv_uarch.Guard
module Asm = Pv_isa.Asm
module Program = Pv_isa.Program
module Pipeline = Pv_uarch.Pipeline
module Pipeline_ref = Pv_uarch.Pipeline_ref
module Rng = Pv_util.Rng
module Metrics = Pv_util.Metrics
module Tab = Pv_util.Tab
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps

let check = Alcotest.check

(* --- incremental FNV-1a, so commit streams digest without buffering ----- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_str h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let hex h = Printf.sprintf "%016Lx" h

let digest s = hex (fnv_str fnv_offset s)

(* --- pinned cells ------------------------------------------------------- *)

(* Small but representative: two LEBench syscall tests and one app, each
   under the three headline schemes.  Scale is pinned; any change to these
   inputs invalidates the goldens. *)
let cell_scale = 0.05

let cell_specs =
  List.concat_map
    (fun scheme ->
      [ ("lebench", "read", scheme); ("lebench", "select", scheme) ])
    [ "UNSAFE"; "FENCE"; "PERSPECTIVE" ]
  @ [ ("apps", "httpd", "UNSAFE"); ("apps", "httpd", "PERSPECTIVE") ]

let stalls_field counters =
  Pipeline.stall_classes counters
  |> List.map (fun (name, v) -> Printf.sprintf "%s:%d" name v)
  |> String.concat ","

let run_cell (family, workload, scheme) =
  let variant = Schemes.find scheme in
  let h = ref fnv_offset in
  let on_commit fid idx _ = h := fnv_str !h (Printf.sprintf "%d:%d;" fid idx) in
  let r =
    match family with
    | "lebench" ->
      Perf.run_lebench ~scale:cell_scale ~on_commit variant (Lebench.find workload)
    | "apps" ->
      let app = List.find (fun a -> a.Apps.name = workload) Apps.all in
      Perf.run_app ~scale:cell_scale ~on_commit variant app
    | _ -> invalid_arg "run_cell: unknown family"
  in
  let key = Printf.sprintf "%s/%s/%s" family workload scheme in
  let line =
    Printf.sprintf "cell %s|cycles=%d|committed=%d|stream=%s|stalls=%s|fences=%d,%d,%d|metrics=%s"
      key r.Perf.cycles r.Perf.committed (hex !h)
      (stalls_field r.Perf.counters)
      r.Perf.counters.Pipeline.fences_isv r.Perf.counters.Pipeline.fences_dsv
      r.Perf.counters.Pipeline.fences_baseline
      (digest (Metrics.snapshot_to_json r.Perf.metrics))
  in
  (key, line)

(* --- small experiment matrix, -j 1 vs -j 4 ------------------------------ *)

let matrix_tests () = [ Lebench.find "read"; Lebench.find "select" ]

let matrix_variants = [ "UNSAFE"; "FENCE"; "PERSPECTIVE" ]

let run_matrix ~jobs =
  Perf.lebench_matrix ~scale:cell_scale ~jobs ~tests:(matrix_tests ())
    ~variants:(List.map Schemes.find matrix_variants) ()

let matrix_bytes m =
  Tab.to_string (Perf_report.fig_lebench m)
  ^ Tab.to_string (Perf_report.fence_breakdown m)
  ^ Tab.to_string (Perf_report.stall_breakdown m)

(* --- golden file -------------------------------------------------------- *)

(* Under [dune runtest] the cwd is the sandboxed test dir (the (deps) copy of
   equiv.golden sits beside the binary); under [dune exec test/main.exe] it is
   the workspace root. *)
let golden_path () =
  if Sys.file_exists "equiv.golden" then "equiv.golden" else "test/equiv.golden"

let record_path () = Sys.getenv_opt "PV_EQUIV_RECORD"

let read_goldens () =
  let ic = open_in (golden_path ()) in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line '|' with
         | Some i -> Hashtbl.replace tbl (String.sub line 0 i) line
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let golden_key line =
  match String.index_opt line '|' with
  | Some i -> String.sub line 0 i
  | None -> line

let current_lines () =
  let cells = List.map (fun spec -> snd (run_cell spec)) cell_specs in
  let m1 = run_matrix ~jobs:1 in
  let m4 = run_matrix ~jobs:4 in
  let b1 = matrix_bytes m1 in
  let b4 = matrix_bytes m4 in
  check Alcotest.string "lebench tables byte-identical for -j 1 and -j 4" b1 b4;
  cells @ [ Printf.sprintf "table lebench-matrix|digest=%s" (digest b1) ]

let test_goldens () =
  let lines = current_lines () in
  match record_path () with
  | Some path ->
    let oc = open_out path in
    output_string oc
      "# Pre-optimization golden equivalence records (seed pipeline).\n\
       # One line per pinned (workload x scheme) cell plus the rendered\n\
       # experiment-table digest.  Regenerate only when the cell inputs\n\
       # change, never to paper over a pipeline divergence:\n\
       #   PV_EQUIV_RECORD=$PWD/test/equiv.golden dune exec test/main.exe -- test equiv\n";
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "recorded %d golden lines to %s\n" (List.length lines) path
  | None ->
    let goldens = read_goldens () in
    List.iter
      (fun line ->
        let key = golden_key line in
        match Hashtbl.find_opt goldens key with
        | Some want -> check Alcotest.string key want line
        | None -> Alcotest.failf "no golden recorded for %s" key)
      lines

(* --- random programs: ISS vs optimized vs reference pipeline ------------ *)

(* The call log of a test guard: counts plus an order-sensitive digest of
   every [check], [notify_vp] and [spec_read] call, so a skipped, extra or
   reordered guard call shows up even when it changes no decision. *)
type calls = {
  mutable checks : int;
  mutable vps : int;
  mutable spec_reads : int;
  mutable digest : int;
}

let mix c x = c.digest <- (c.digest * 31) + x

(* Test-local guards, one fresh instance per pipeline run: the shapes of
   FENCE (block while speculative), DOM (block speculative L1 misses) and
   STT (block tainted addresses); a stateful guard whose decisions depend
   on how many times it was asked, so a skipped or extra re-query changes
   the timing; and a [spec_read] guard that redirects speculative loads to
   a [spec_lat]-cycle shadow access. *)
let make_guard ?(spec_lat = 0) kind =
  let c = { checks = 0; vps = 0; spec_reads = 0; digest = 17 } in
  let check q =
    c.checks <- c.checks + 1;
    mix c (q.Guard.insn_va lxor q.Guard.addr);
    mix c
      (Bool.to_int q.Guard.speculative
      + (2 * Bool.to_int q.Guard.l1_hit)
      + (4 * Bool.to_int q.Guard.tainted));
    match kind with
    | "fence" -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow
    | "dom" ->
      if q.Guard.speculative && not q.Guard.l1_hit then Guard.Block Guard.Baseline
      else Guard.Allow
    | "stt" -> if q.Guard.tainted then Guard.Block Guard.Baseline else Guard.Allow
    | "stateful" ->
      if q.Guard.speculative && c.checks mod 7 <> 0 then
        Guard.Block (if (q.Guard.insn_va lsr 2) land 1 = 0 then Guard.Isv else Guard.Dsv)
      else Guard.Allow
    | "spec_read" -> Guard.Allow
    | _ -> invalid_arg "make_guard"
  in
  let notify_vp ~insn_va ~addr ~asid:_ ~kernel_mode:_ =
    c.vps <- c.vps + 1;
    mix c (insn_va + addr)
  in
  let spec_read ~key ~asid:_ =
    c.spec_reads <- c.spec_reads + 1;
    mix c key;
    spec_lat
  in
  ( {
      Guard.name = kind;
      check;
      notify_vp = Some notify_vp;
      spec_read = (if kind = "spec_read" then Some spec_read else None);
      notify_squash = None;
      shadow_btb = false;
    },
    c )

let guard_kinds = [ "fence"; "dom"; "stt"; "stateful" ]

let run_opt ?(config = Pipeline.default_config) ?(mem_config = Memsys.default_config)
    ?guard prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let pipe = Pipeline.create ~config (Memsys.create ~config:mem_config mem) prog in
  Option.iter (Pipeline.set_guard pipe) guard;
  let hooks =
    {
      Pipeline.null_hooks with
      Pipeline.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  (r, List.rev !stream, mem, Pipeline.counters pipe)

let run_ref ?(config = Pipeline_ref.default_config)
    ?(mem_config = Memsys.default_config) ?guard prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let pipe = Pipeline_ref.create ~config (Memsys.create ~config:mem_config mem) prog in
  Option.iter (Pipeline_ref.set_guard pipe) guard;
  let hooks =
    {
      Pipeline_ref.null_hooks with
      Pipeline_ref.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline_ref.run ~hooks pipe ~asid:1 ~start:0 in
  (r, List.rev !stream, mem, Pipeline_ref.counters pipe)

let mem_words mem =
  List.init 64 (fun i ->
      Mem.load mem (Layout.phys_key ~asid:1 (Layout.user_data_base + (8 * i))))

let event_to_string (fid, idx) = Printf.sprintf "%d:%d" fid idx

(* One pipeline set-up: matching configs for both pipelines, the memory
   system and an optional test guard (see [make_guard]). *)
type setup = {
  name : string;
  opt_config : Pipeline.config;
  ref_config : Pipeline_ref.config;
  mem_config : Memsys.config;
  guard : string option;
  spec_lat : int;
}

let default_setup =
  {
    name = "allow_all";
    opt_config = Pipeline.default_config;
    ref_config = Pipeline_ref.default_config;
    mem_config = Memsys.default_config;
    guard = None;
    spec_lat = 0;
  }

(* ROB 16, LQ/SQ 4, every width 2: a full ROB, LSQ back-pressure and seq
   reuse after squashes all happen constantly. *)
let small_setup =
  {
    default_setup with
    name = "small";
    opt_config =
      {
        Pipeline.default_config with
        Pipeline.fetch_width = 2;
        issue_width = 2;
        commit_width = 2;
        rob_entries = 16;
        lq_entries = 4;
        sq_entries = 4;
      };
    ref_config =
      {
        Pipeline_ref.default_config with
        Pipeline_ref.fetch_width = 2;
        issue_width = 2;
        commit_width = 2;
        rob_entries = 16;
        lq_entries = 4;
        sq_entries = 4;
      };
  }

let with_guard kind s = { s with name = s.name ^ "/" ^ kind; guard = Some kind }

(* Far beyond the completion wheel's 256 buckets: every DRAM round trip
   and every speculative shadow read takes the overflow path. *)
let horizon_setup =
  {
    default_setup with
    name = "horizon";
    mem_config = { Memsys.default_config with Memsys.dram_latency = 2000 };
    guard = Some "spec_read";
    spec_lat = 600;
  }

(* Runs [prog] on the ISS and on both pipelines under [setup]; returns the
   reference pipeline's result and the optimized pipeline's guard log. *)
let assert_three_way ?(setup = default_setup) ~seed prog =
  let guard () =
    match setup.guard with
    | Some kind ->
      let g, c = make_guard ~spec_lat:setup.spec_lat kind in
      (Some g, Some c)
    | None -> (None, None)
  in
  let opt_guard, opt_calls = guard () in
  let ref_guard, ref_calls = guard () in
  let iss, iss_stream, iss_mem = Test_oracle.run_iss prog in
  let opt, opt_stream, opt_mem, opt_ctrs =
    run_opt ~config:setup.opt_config ~mem_config:setup.mem_config ?guard:opt_guard prog
  in
  let rf, ref_stream, ref_mem, ref_ctrs =
    run_ref ~config:setup.ref_config ~mem_config:setup.mem_config ?guard:ref_guard prog
  in
  let label fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) setup.name seed in
  Alcotest.(check bool)
    (label "all three halted")
    true
    (iss.Pv_isa.Iss.outcome = Pv_isa.Iss.Halted
    && opt.Pipeline.outcome = Pipeline.Halted
    && rf.Pipeline_ref.outcome = Pipeline_ref.Halted);
  check
    Alcotest.(list string)
    (label "optimized commit stream = ISS")
    (List.map event_to_string iss_stream)
    (List.map event_to_string opt_stream);
  check
    Alcotest.(list string)
    (label "optimized commit stream = reference")
    (List.map event_to_string ref_stream)
    (List.map event_to_string opt_stream);
  check Alcotest.(array int) (label "registers = ISS") iss.Pv_isa.Iss.regs opt.Pipeline.regs;
  check Alcotest.(array int) (label "registers = reference") rf.Pipeline_ref.regs
    opt.Pipeline.regs;
  check Alcotest.(list int) (label "memory = ISS") (mem_words iss_mem) (mem_words opt_mem);
  check Alcotest.(list int) (label "memory = reference") (mem_words ref_mem)
    (mem_words opt_mem);
  check Alcotest.int (label "cycle count = reference") rf.Pipeline_ref.cycles
    opt.Pipeline.cycles;
  check Alcotest.int (label "committed = reference") rf.Pipeline_ref.committed
    opt.Pipeline.committed;
  check
    Alcotest.(list (pair string int))
    (label "stall classes = reference")
    (Pipeline_ref.stall_classes ref_ctrs)
    (Pipeline.stall_classes opt_ctrs);
  check Alcotest.int (label "squashes = reference") ref_ctrs.Pipeline_ref.squashes
    opt_ctrs.Pipeline.squashes;
  check Alcotest.int (label "spec loads = reference") ref_ctrs.Pipeline_ref.spec_loads
    opt_ctrs.Pipeline.spec_loads;
  check
    Alcotest.(list int)
    (label "fences isv/dsv/baseline = reference")
    [
      ref_ctrs.Pipeline_ref.fences_isv;
      ref_ctrs.Pipeline_ref.fences_dsv;
      ref_ctrs.Pipeline_ref.fences_baseline;
    ]
    [
      opt_ctrs.Pipeline.fences_isv;
      opt_ctrs.Pipeline.fences_dsv;
      opt_ctrs.Pipeline.fences_baseline;
    ];
  (match (opt_calls, ref_calls) with
  | Some o, Some r ->
    check
      Alcotest.(list int)
      (label "guard checks/notify_vp/spec_read calls = reference")
      [ r.checks; r.vps; r.spec_reads ] [ o.checks; o.vps; o.spec_reads ];
    check Alcotest.int (label "guard call order = reference") r.digest o.digest
  | _ -> ());
  (rf, opt_calls)

let random_program ~seed =
  (* A different seed base from test_oracle, so the two suites cover
     disjoint program samples. *)
  Test_oracle.gen_program (Rng.create (0xE0_1D_5E + seed))

let test_random_three_way () =
  for seed = 1 to 40 do
    let prog = random_program ~seed in
    ignore (assert_three_way ~seed prog);
    List.iter
      (fun kind -> ignore (assert_three_way ~setup:(with_guard kind default_setup) ~seed prog))
      guard_kinds
  done

(* A pseudo-random branch picks one of two paths that each start with a
   load of a flushed line.  On a mispredict the wrong path's DRAM load is
   squashed and its seq reused by the right path's load, issued later with
   a later completion: the squashed load's wheel entry must not complete
   its successor. *)
let seq_reuse_program () =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  let join = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 40;
  Asm.li a 7 1;
  Asm.li a 8 Layout.user_data_base;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 1 2 done_;
  Asm.alui a I.Mul 7 7 1103515245;
  Asm.alui a I.Add 7 7 12345;
  Asm.alui a I.Shr 6 7 16;
  Asm.alui a I.And 6 6 1;
  Asm.branch a I.Ne 6 14 skip;
  Asm.load a 5 8 0;
  Asm.alui a I.Add 9 5 1;
  Asm.jump a join;
  Asm.place a skip;
  Asm.load a 5 8 64;
  Asm.alui a I.Add 9 5 2;
  Asm.place a join;
  Asm.store a 8 9 128;
  Asm.flush a 8 0;
  Asm.flush a 8 64;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  Program.of_funcs
    [ { Program.fid = 0; name = "seq_reuse"; space = Layout.User; body = Asm.finish a } ]

let test_small_config () =
  let check_all ~seed prog =
    List.iter
      (fun setup -> ignore (assert_three_way ~setup ~seed prog))
      (small_setup :: List.map (fun kind -> with_guard kind small_setup) guard_kinds)
  in
  check_all ~seed:0 (seq_reuse_program ());
  ignore (assert_three_way ~seed:0 (seq_reuse_program ()));
  for seed = 1 to 40 do
    check_all ~seed (random_program ~seed)
  done

(* A loop whose branch waits on a fresh DRAM line each iteration, with a
   speculative load behind it and a call whose return reads an uncached
   stack line: completions 2010 and 600 cycles out, far past the wheel. *)
let horizon_program () =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 6;
  Asm.li a 8 Layout.user_data_base;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 1 2 done_;
  Asm.alui a I.Mul 3 1 512;
  Asm.alu a I.Add 4 8 3;
  Asm.load a 5 4 0;
  Asm.alui a I.And 6 5 1;
  Asm.branch a I.Ne 6 14 skip;
  Asm.load a 7 4 64;
  Asm.alui a I.Add 9 7 1;
  Asm.store a 4 9 128;
  Asm.place a skip;
  Asm.call a 1;
  Asm.flush a 4 0;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let callee = Asm.create () in
  Asm.load callee 10 8 256;
  Asm.alui callee I.Add 11 10 3;
  Asm.ret callee;
  Program.of_funcs
    [
      { Program.fid = 0; name = "horizon"; space = Layout.User; body = Asm.finish a };
      { Program.fid = 1; name = "callee"; space = Layout.User; body = Asm.finish callee };
    ]

let test_wheel_horizon () =
  let rf, calls = assert_three_way ~setup:horizon_setup ~seed:0 (horizon_program ()) in
  Alcotest.(check bool)
    "a DRAM round trip is on the critical path" true
    (rf.Pipeline_ref.cycles > 2000);
  (match calls with
  | Some c -> Alcotest.(check bool) "speculative shadow reads happened" true (c.spec_reads > 0)
  | None -> Alcotest.fail "no guard log");
  for seed = 1 to 10 do
    ignore (assert_three_way ~setup:horizon_setup ~seed (random_program ~seed))
  done

let suite =
  [
    ( "equiv",
      [
        Alcotest.test_case "pinned cells + tables vs seed goldens" `Slow test_goldens;
        Alcotest.test_case "random programs: ISS = optimized = reference" `Slow
          test_random_three_way;
        Alcotest.test_case "small config: ROB 16, LSQ 4, width 2" `Slow test_small_config;
        Alcotest.test_case "wheel horizon: 2000-cycle DRAM, 600-cycle spec_read" `Slow
          test_wheel_horizon;
      ] );
  ]
