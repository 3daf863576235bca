(* Benchmark helper: the traced, in-process half of perfbench/run.py, plus
   the order statistics run.py reports.

     pvbench summarize
         stdin: one line per metric, "NAME v1 v2 ..."; stdout: one line per
         metric, "NAME n p10 median q1 q3 tail_pct tail_value max" (tail is
         "- -" when fewer than ten samples lie beyond every percentile).

     pvbench trace --workload perf|contracts|rerun --dir DIR
                   --contract-seeds S1,S2,... [--perf-seed N] [--scale F]
                   [--jobs N] [--cli-wall SECONDS]
         Drives the workload's cells through each layer's public calls,
         timing every call from outside, and cross-checks the result
         against the untraced CLI run whose outputs run.py left in DIR:
           perf.txt             perf tables (stdout of the CLI)
           perf.cycles          "<cell key> <pipeline.cycles>" per cell
           contracts-<S>.txt    contracts matrix for seed S
           contracts-<S>.journal, cache-perf/  (rerun: left by the cold runs)
         Writes DIR/trace-<workload>.json (Chrome Trace Event format),
         prints the per-layer self-time table, and ends with one JSON line
         {"attempted": N, "failed": F, "metrics": {NAME: VALUE, ...}}. *)

open Perfbench
module E = Pv_experiments
module Perf = E.Perf
module Schemes = E.Schemes
module Supervise = E.Supervise
module Machine = Pv_sim.Machine
module Pipeline = Pv_uarch.Pipeline
module Pipeline_ref = Pv_uarch.Pipeline_ref
module Memsys = Pv_uarch.Memsys
module Kernel = Pv_kernel.Kernel
module Slab = Pv_kernel.Slab
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps
module Defense = Perspective.Defense
module Svcache = Perspective.Svcache
module Contracts = Pv_contracts.Contracts
module Metrics = Pv_util.Metrics
module Rescache = Pv_util.Rescache
module Journal = Pv_util.Journal
module Pool = Pv_util.Pool
module Pool_ref = Pv_util.Pool_ref
module Tab = Pv_util.Tab
module Asm = Pv_isa.Asm
module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Mem = Pv_isa.Mem

let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("pvbench: " ^ m); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- per-run bookkeeping ---------------------------------------------- *)

let sp = Spans.create ()
let span name f = Spans.with_span sp name f
let attempted = ref 0
let failed = ref 0
let metrics : (string * float) list ref = ref []
let set name v = metrics := (name, v) :: !metrics

(* Summed duration of the spans recorded so far under [name]. *)
let busy name =
  List.fold_left
    (fun acc s -> if s.Spans.name = name then acc +. Spans.duration s else acc)
    0.0 (Spans.spans sp)

let fail_check fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      prerr_endline ("pvbench: check failed: " ^ m))
    fmt

(* Cells run on a work-stealing pool of [jobs] domains, like the CLI's -j.
   A raising cell becomes [None] and counts as failed. *)
let run_cells ~jobs f cells =
  let t0 = now () in
  let results, counters =
    Pool.with_pool ~jobs (fun p ->
        let r =
          Pool.map p
            (fun c ->
              match f c with
              | v -> Some v
              | exception e ->
                prerr_endline ("pvbench: cell failed: " ^ Printexc.to_string e);
                None)
            cells
        in
        (r, Pool.counters p))
  in
  let wall = now () -. t0 in
  attempted := !attempted + List.length cells;
  List.iter (fun r -> if r = None then incr failed) results;
  set "pool.utilization" (busy "cell" /. (wall *. float_of_int jobs));
  set "pool.steals" (float_of_int counters.Pool.steals);
  set "pool.parks" (float_of_int counters.Pool.parks);
  results

let compare_text ~what ~expected actual =
  if not (Sys.file_exists expected) then fail_check "%s: %s missing" what expected
  else if read_file expected <> actual then fail_check "%s differs from %s" what expected

let fresh_dir path =
  if Sys.file_exists path then die "%s already exists (stale run directory?)" path;
  Unix.mkdir path 0o755

(* --- perf: the Fig 9.2 + 9.3 sweep, layer by layer --------------------- *)

type perf_cell = {
  cell : Perf.run Supervise.cell;  (** key and cache descriptor, as the CLI declares them *)
  wname : string;
  syscalls : int list;
  sequence : (int * int array) list;
  iterations : int;
  user_work : int;
  variant : Schemes.variant;
}

let variants = Schemes.standard @ Schemes.hardware

let perf_cells ~seed ~scale =
  let inputs wname syscalls sequence iterations user_work =
    List.map
      (fun variant cell -> { cell; wname; syscalls; sequence; iterations; user_work; variant })
      variants
  in
  let zip family cells inputs =
    List.map2
      (fun (cell : _ Supervise.cell) input ->
        let pc = input cell in
        let want = Printf.sprintf "%s/%s/%s" family pc.wname pc.variant.Schemes.label in
        if cell.Supervise.key <> want then die "cell order changed: %s vs %s" cell.Supervise.key want;
        pc)
      cells inputs
  in
  let lebench =
    List.concat_map
      (fun t ->
        let t = Lebench.scaled t ~factor:scale in
        inputs t.Lebench.name Lebench.all_syscalls t.Lebench.sequence t.Lebench.iterations
          t.Lebench.user_work)
      Lebench.tests
  in
  let apps =
    List.concat_map
      (fun a ->
        let a = Apps.scaled a ~factor:scale in
        inputs a.Apps.name Apps.all_syscalls a.Apps.request a.Apps.requests a.Apps.user_work)
      Apps.all
  in
  ( zip "lebench" (Perf.lebench_cells ~seed ~scale ~variants ()) lebench,
    zip "apps" (Perf.apps_cells ~seed ~scale ~variants ()) apps )

(* Perf.execute's bookkeeping after the run: the record the CLI caches and
   renders.  Kept field for field so the traced tables can be compared
   byte for byte with the CLI's. *)
let export_run (pc : perf_cell) m h (result : Pipeline.result) delta =
  let slab = Kernel.slab (Machine.kernel m) in
  let hit_rate cache_of =
    match Machine.defense m with Some d -> Svcache.hit_rate (cache_of d) | None -> None
  in
  let ctx = Pv_kernel.Process.cgroup (Machine.process h) in
  let pages, meta_bytes =
    match Machine.defense m with
    | Some d ->
      ( Perspective.Isv_pages.populated_pages (Defense.isv_pages d) ~ctx,
        Perspective.Isv_pages.metadata_bytes (Defense.isv_pages d) ~ctx )
    | None -> (0, 0)
  in
  let reg = Metrics.create () in
  Pipeline.observe_metrics reg delta;
  (match Machine.defense m with
  | Some d ->
    Svcache.observe_metrics reg ~prefix:"svcache.isv" (Defense.isv_cache d);
    Svcache.observe_metrics reg ~prefix:"svcache.dsv" (Defense.dsv_cache d)
  | None -> ());
  Metrics.set_float reg "slab.secure.utilization" (Slab.utilization slab);
  Metrics.set_int reg "slab.secure.active_bytes" (Slab.active_bytes slab);
  Metrics.set_int reg "slab.secure.frag_bytes" (Slab.slab_bytes slab - Slab.active_bytes slab);
  Metrics.set_int reg "slab.secure.frees" (Slab.total_frees slab);
  Metrics.set_int reg "slab.secure.page_returns" (Slab.page_returns slab);
  Metrics.set_int reg "slab.secure.peak_pages" (Slab.peak_pages slab);
  Metrics.set_int reg "isv_pages.populated" pages;
  Metrics.set_int reg "isv_pages.metadata_bytes" meta_bytes;
  Metrics.set_int reg "workload.units" pc.iterations;
  {
    Perf.label = pc.variant.Schemes.label;
    workload = pc.wname;
    cycles = result.Pipeline.cycles;
    committed = result.Pipeline.committed;
    counters = delta;
    kernel_cycle_fraction =
      float_of_int delta.Pipeline.kernel_cycles /. float_of_int (max 1 delta.Pipeline.cycles);
    isv_hit_rate = hit_rate Defense.isv_cache;
    dsv_hit_rate = hit_rate Defense.dsv_cache;
    slab_utilization = Slab.utilization slab;
    slab_frees = Slab.total_frees slab;
    slab_page_returns = Slab.page_returns slab;
    isv_pages_populated = pages;
    isv_metadata_bytes = meta_bytes;
    units = pc.iterations;
    metrics = Metrics.snapshot reg;
    events = [];
  }

(* Perf's profiling repetitions (Perf.profile_reps, not exported); a
   drift between the two shows up as a cycle mismatch against the CLI. *)
let profile_reps = 25

(* One cell, in Machine.run_job's order: create, add_process + freeze,
   profile, plant (PERSPECTIVE++ only), install_defense, run. *)
let run_perf_cell ~seed rc (pc : perf_cell) =
  let desc = Option.get pc.cell.Supervise.cache in
  Spans.with_span sp ~cell:pc.cell.Supervise.key "cell" (fun () ->
      if (span "rescache.find" (fun () -> Rescache.find rc ~key:desc) : Perf.run option) <> None
      then failwith "cold cache hit";
      let pipe_config =
        { (pc.variant.Schemes.transform Pipeline.default_config) with Pipeline.trace_events = false }
      in
      let m =
        span "sim.create" (fun () -> Machine.create ~pipe_config ~seed ~syscalls:pc.syscalls ())
      in
      let h =
        span "sim.freeze" (fun () ->
            let h =
              Machine.add_process m ~name:pc.wname
                ~user_funcs:
                  (Pv_workloads.Driver.build ~iterations:pc.iterations ~sequence:pc.sequence
                     ~user_work:pc.user_work)
                ~entry:0
            in
            Machine.freeze m;
            h)
      in
      if pc.sequence <> [] then
        span "sim.profile" (fun () ->
            Machine.profile m h ~workload:pc.sequence ~repetitions:profile_reps);
      let gadget_nodes =
        match pc.variant.Schemes.scheme with
        | Defense.Perspective Perspective.Isv.Plus ->
          span "scanner.plant" (fun () ->
              Pv_scanner.Gadgets.nodes
                (Pv_scanner.Gadgets.plant (Kernel.graph (Machine.kernel m)) ~seed))
        | _ -> []
      in
      span "core.install" (fun () ->
          Machine.install_defense m ~gadget_nodes ~block_unknown:true ~isv_cache_entries:128
            ~dsv_cache_entries:128 pc.variant.Schemes.scheme);
      let result, delta = span "uarch.run" (fun () -> Machine.run m h) in
      Machine.check_result ~name:(pc.wname ^ "/" ^ pc.variant.Schemes.label) result;
      let run = span "sim.export" (fun () -> export_run pc m h result delta) in
      span "rescache.store" (fun () -> Rescache.store rc ~key:desc run);
      run)

let read_cycles path =
  let tbl = Hashtbl.create 256 in
  if Sys.file_exists path then
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ key; c ] -> Hashtbl.replace tbl key (int_of_string c)
        | _ -> ())
      (String.split_on_char '\n' (read_file path));
  tbl

let sweep_of cells results =
  let results = List.map2 (fun (pc : perf_cell) r -> (pc.cell.Supervise.key, r)) cells results in
  {
    Supervise.results;
    failures = [];
    restored = 0;
    cached = 0;
    deduped = 0;
    executed = List.length results;
  }

let lebench_names = List.map (fun t -> t.Lebench.name) Lebench.tests
let app_names = List.map (fun a -> a.Apps.name) Apps.all

let matrices lcells lruns acells aruns =
  let width = List.length variants in
  ( Perf.matrix_of_sweep ~names:lebench_names ~width (sweep_of lcells lruns),
    Perf.matrix_of_sweep ~names:app_names ~width (sweep_of acells aruns) )

(* The tables exactly as the perf subcommand prints them. *)
let render_perf (lebench, apps) =
  let labels = List.map (fun v -> v.Schemes.label) variants in
  Tab.to_string (E.Perf_report.fig_lebench_partial ~labels lebench)
  ^ Tab.to_string (E.Perf_report.fig_apps_partial ~labels apps)

let set_paper_error (lebench, apps) =
  let complete = List.map (fun (name, runs) -> (name, List.map Option.get runs)) in
  let all_ok m = List.for_all (fun (_, runs) -> List.for_all Option.is_some runs) m in
  if all_ok lebench && all_ok apps then
    set "paper_error_pp"
      (Summary.paper_error_pp ~lebench:(complete lebench) ~apps:(complete apps))
  else fail_check "paper_error_pp: the sweep has failed cells"

(* Simulated-statistics totals over the cells' counter deltas. *)
let set_counters runs =
  let total = Pipeline.zero_counters () in
  List.iter (Option.iter (fun (r : Perf.run) -> Pipeline.add_counters total r.Perf.counters)) runs;
  set "uarch.sim_cycles" (float_of_int total.Pipeline.cycles);
  set "uarch.committed" (float_of_int total.Pipeline.committed);
  set "uarch.stall_frac"
    (float_of_int total.Pipeline.stall_total /. float_of_int (max 1 total.Pipeline.cycles))

let trace_perf ~dir ~seed ~scale ~jobs =
  let lcells, acells = perf_cells ~seed ~scale in
  let cells = lcells @ acells in
  let traced = Filename.concat dir "traced" in
  fresh_dir traced;
  let rc = Rescache.open_dir (Filename.concat traced "cache") in
  let results = run_cells ~jobs (run_perf_cell ~seed rc) cells in
  let nl = List.length lcells in
  let lruns = List.filteri (fun i _ -> i < nl) results in
  let aruns = List.filteri (fun i _ -> i >= nl) results in
  let m = matrices lcells lruns acells aruns in
  let text =
    Spans.with_span sp ~cell:"render" "report" (fun () ->
        span "report.render" (fun () -> render_perf m))
  in
  compare_text ~what:"traced perf tables" ~expected:(Filename.concat dir "perf.txt") text;
  let cli_cycles = read_cycles (Filename.concat dir "perf.cycles") in
  List.iter2
    (fun (pc : perf_cell) r ->
      match r with
      | None -> ()
      | Some (run : Perf.run) -> (
        let key = pc.cell.Supervise.key in
        match Hashtbl.find_opt cli_cycles key with
        | Some c when c = run.Perf.counters.Pipeline.cycles -> ()
        | Some c -> fail_check "%s: traced %d cycles, CLI %d" key run.Perf.counters.Pipeline.cycles c
        | None -> fail_check "%s: no CLI cycle record" key))
    cells results;
  set_counters results;
  set_paper_error m;
  Filename.concat traced "cache"

(* --- contracts: the leakage-contract matrix over K seeds -------------- *)

let contract_specs seeds =
  List.concat_map
    (fun seed ->
      let pairs =
        List.concat_map
          (fun a -> List.map (fun s -> (a, s)) Contracts.scheme_labels)
          Contracts.attack_names
      in
      List.map2
        (fun (c : Contracts.result Supervise.cell) (attack, scheme) ->
          if c.Supervise.key <> Contracts.key ~attack ~scheme then
            die "contract cell order changed at %s" c.Supervise.key;
          (seed, c, attack, scheme))
        (Contracts.cells ~seed ()) pairs)
    seeds

let trace_contracts ~dir ~seeds ~jobs ~cli_wall =
  let traced = Filename.concat dir "traced" in
  fresh_dir traced;
  let rc = Rescache.open_dir (Filename.concat traced "cache") in
  let writers =
    List.map
      (fun s ->
        (s, Journal.open_writer (Filename.concat traced (Printf.sprintf "contracts-%d.journal" s))))
      seeds
  in
  let specs = contract_specs seeds in
  let cell (seed, (c : Contracts.result Supervise.cell), attack, scheme) =
    let desc = Option.get c.Supervise.cache in
    Spans.with_span sp ~cell:(Printf.sprintf "%d/%s" seed c.Supervise.key) "cell" (fun () ->
        if (span "rescache.find" (fun () -> Rescache.find rc ~key:desc) : Contracts.result option)
           <> None
        then failwith "cold cache hit";
        let r = span "contracts.check" (fun () -> Contracts.check ~seed ~attack ~scheme ()) in
        span "journal.append" (fun () ->
            Journal.append (List.assoc seed writers) ~key:c.Supervise.key r);
        span "rescache.store" (fun () -> Rescache.store rc ~key:desc r);
        r)
  in
  (* One domain: each CLI worker is a single-domain process, so this is
     how a worker pays for a cell (two domains would add their shared-GC
     pauses to every cell). *)
  let results = run_cells ~jobs:1 cell specs in
  List.iter (fun (_, w) -> Journal.close w) writers;
  List.iter
    (fun seed ->
      let rows =
        List.concat
          (List.map2
             (fun (s, (c : _ Supervise.cell), _, _) r ->
               if s = seed then [ (c.Supervise.key, r) ] else [])
             specs results)
      in
      let text =
        Spans.with_span sp ~cell:(Printf.sprintf "render/%d" seed) "report" (fun () ->
            span "report.render" (fun () -> Tab.to_string (Contracts.matrix_table rows)))
      in
      compare_text
        ~what:(Printf.sprintf "traced contracts matrix (seed %d)" seed)
        ~expected:(Filename.concat dir (Printf.sprintf "contracts-%d.txt" seed))
        text)
    seeds;
  (* The CLI ran these cells on [jobs] worker processes: the share of its
     wall time that the cells' own busy time cannot explain is process-pool
     overhead (spawn, dispatch, journal merge). *)
  Option.iter
    (fun w -> set "procpool.overhead_frac" ((w -. (busy "contracts.check" /. float_of_int jobs)) /. w))
    cli_wall;
  Filename.concat traced "cache"

(* --- rerun: replay perf from the cache and contracts from journals ----- *)

let trace_rerun ~dir ~seed ~scale ~seeds =
  let lcells, acells = perf_cells ~seed ~scale in
  let rc = Rescache.open_dir (Filename.concat dir "cache-perf") in
  (* Supervise consults the cache from the coordinator, in declaration
     order, before any pool work: so does the replay. *)
  let find (pc : perf_cell) =
    Spans.with_span sp ~cell:pc.cell.Supervise.key "cell" (fun () ->
        span "rescache.find" (fun () ->
            (Rescache.find rc ~key:(Option.get pc.cell.Supervise.cache) : Perf.run option)))
  in
  let lruns = List.map find lcells and aruns = List.map find acells in
  attempted := !attempted + List.length lcells + List.length acells;
  List.iter (fun r -> if r = None then fail_check "perf cell missing from the warm cache") (lruns @ aruns);
  let m = matrices lcells lruns acells aruns in
  let text =
    Spans.with_span sp ~cell:"render" "report" (fun () ->
        span "report.render" (fun () -> render_perf m))
  in
  compare_text ~what:"replayed perf tables" ~expected:(Filename.concat dir "perf.txt") text;
  set_counters (lruns @ aruns);
  set_paper_error m;
  List.iter
    (fun s ->
      let cells = Contracts.cells ~seed:s () in
      let path = Filename.concat dir (Printf.sprintf "contracts-%d.journal" s) in
      let tbl : (string, Contracts.result) Hashtbl.t =
        Spans.with_span sp ~cell:(Printf.sprintf "journal/%d" s) "cell" (fun () ->
            span "journal.load" (fun () -> Journal.load_table path))
      in
      let rows =
        List.map (fun (c : _ Supervise.cell) -> (c.Supervise.key, Hashtbl.find_opt tbl c.Supervise.key)) cells
      in
      attempted := !attempted + List.length rows;
      List.iter (fun (k, r) -> if r = None then fail_check "%d/%s missing from the journal" s k) rows;
      let text =
        Spans.with_span sp ~cell:(Printf.sprintf "render/%d" s) "report" (fun () ->
            span "report.render" (fun () -> Tab.to_string (Contracts.matrix_table rows)))
      in
      compare_text
        ~what:(Printf.sprintf "replayed contracts matrix (seed %d)" s)
        ~expected:(Filename.concat dir (Printf.sprintf "contracts-%d.txt" s))
        text)
    seeds;
  Filename.concat dir "cache-perf"

(* --- same-invocation oracles ------------------------------------------ *)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = (Summary.summarize xs).Summary.median

(* Interleaved repetitions of a fast and a reference implementation; the
   ratio of their median times is comparable across machines because both
   sides share whatever load the machine had.  [same] must hold for every
   pair of results. *)
let ref_ratio ~reps ~same ~fast ~reference =
  let fast_t = ref [] and ref_t = ref [] in
  for _ = 1 to reps do
    let a, ta = time fast in
    let b, tb = time reference in
    if not (same a b) then fail_check "oracle disagrees with the optimized path";
    fast_t := ta :: !fast_t;
    ref_t := tb :: !ref_t
  done;
  median !ref_t /. median !fast_t

(* Standalone ISA programs for the pipeline oracle: a data-dependent
   branchy loop over a small array, a call/fence loop, and a strided walk
   over a buffer larger than the L1D.  Pipeline_ref cannot run inside a
   Machine, so these are built here. *)
let oracle_programs =
  let func fid body = { Program.fid; name = Printf.sprintf "f%d" fid; space = Layout.User; body } in
  let loop ~trips emit_body =
    let a = Asm.create () in
    let top = Asm.fresh_label a and done_ = Asm.fresh_label a in
    Asm.li a 1 0;
    Asm.li a 2 trips;
    Asm.li a 7 12345;
    Asm.li a 8 Layout.user_data_base;
    Asm.li a 14 0;
    Asm.place a top;
    Asm.branch a I.Ge 1 2 done_;
    emit_body a;
    Asm.alui a I.Add 1 1 1;
    Asm.jump a top;
    Asm.place a done_;
    Asm.halt a;
    Asm.finish a
  in
  let lcg a =
    Asm.alui a I.Mul 7 7 1103515245;
    Asm.alui a I.Add 7 7 12345;
    Asm.alui a I.And 7 7 0x7fffffff
  in
  let branchy =
    loop ~trips:6000 (fun a ->
        let skip = Asm.fresh_label a in
        lcg a;
        Asm.alui a I.Shr 3 7 8;
        Asm.alui a I.And 3 3 0x1f8;
        Asm.alu a I.Add 4 8 3;
        Asm.load a 5 4 0;
        Asm.alu a I.Add 9 9 5;
        Asm.store a 4 1 0;
        Asm.alui a I.Shr 6 7 16;
        Asm.alui a I.And 6 6 1;
        Asm.branch a I.Ne 6 14 skip;
        Asm.alui a I.Add 10 10 1;
        Asm.place a skip)
  in
  let calls =
    loop ~trips:4000 (fun a ->
        lcg a;
        Asm.call a 1;
        Asm.fence a;
        Asm.alu a I.Add 9 9 5)
  in
  let callee =
    [| I.Alui (I.And, 3, 7, 0xff8); I.Alu (I.Add, 4, 8, 3); I.Load (5, 4, 0);
       I.Store (4, 7, 8); I.Ret |]
  in
  let strided =
    loop ~trips:6000 (fun a ->
        Asm.alui a I.Mul 3 1 4168;
        Asm.alui a I.And 3 3 0xfff8;
        Asm.alu a I.Add 4 8 3;
        Asm.load a 5 4 0;
        Asm.alu a I.Add 9 9 5;
        Asm.store a 4 9 64)
  in
  [
    Program.of_funcs [ func 0 branchy ];
    Program.of_funcs [ func 0 calls; func 1 callee ];
    Program.of_funcs [ func 0 strided ];
  ]

let run_opt prog =
  let r = Pipeline.run (Pipeline.create (Memsys.create (Mem.create ())) prog) ~asid:1 ~start:0 in
  (r.Pipeline.outcome = Pipeline.Halted, r.Pipeline.cycles, r.Pipeline.committed, r.Pipeline.regs)

let run_ref prog =
  let r =
    Pipeline_ref.run (Pipeline_ref.create (Memsys.create (Mem.create ())) prog) ~asid:1 ~start:0
  in
  ( r.Pipeline_ref.outcome = Pipeline_ref.Halted,
    r.Pipeline_ref.cycles,
    r.Pipeline_ref.committed,
    r.Pipeline_ref.regs )

let oracle_ratios ~seed =
  let same a b = List.for_all2 (fun ((halted, _, _, _) as x) y -> halted && x = y) a b in
  set "uarch.ref_speedup"
    (ref_ratio ~reps:5 ~same
       ~fast:(fun () -> List.map run_opt oracle_programs)
       ~reference:(fun () -> List.map run_ref oracle_programs));
  let specs = contract_specs [ seed ] in
  let check (seed, _, attack, scheme) = Contracts.check ~seed ~attack ~scheme () in
  set "pool.ref_speedup"
    (ref_ratio ~reps:3 ~same:( = )
       ~fast:(fun () -> Pool.with_pool ~jobs:2 (fun p -> Pool.map p check specs))
       ~reference:(fun () -> Pool_ref.with_pool ~jobs:2 (fun p -> Pool_ref.map p check specs)))

(* Cost of one span, measured here, times the spans recorded: the share of
   the traced wall time that tracing itself took. *)
let span_cost () =
  let probe = Spans.create () in
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    Spans.with_span probe "probe" ignore
  done;
  (now () -. t0) /. float_of_int n

(* --- layer metrics ------------------------------------------------------ *)

let layers =
  [
    "sim.create"; "sim.freeze"; "sim.profile"; "scanner.plant"; "core.install"; "uarch.run";
    "sim.export"; "contracts.check"; "rescache.find"; "rescache.store"; "journal.append";
    "journal.load"; "report.render";
  ]

let layer_metrics ~wall =
  let spans = Spans.spans sp in
  let totals = Spans.self_times spans in
  let roots = List.filter (fun s -> s.Spans.parent < 0) spans in
  let root_time = List.fold_left (fun acc s -> acc +. Spans.duration s) 0.0 roots in
  List.iter
    (fun name ->
      let calls, layer_busy =
        match List.find_opt (fun l -> l.Spans.layer = name) totals with
        | Some l -> (l.Spans.calls, l.Spans.busy)
        | None -> (0, 0.0)
      in
      set (name ^ ".calls") (float_of_int calls);
      set (name ^ ".share") (if root_time > 0.0 then layer_busy /. root_time else 0.0))
    layers;
  let root_self =
    List.fold_left
      (fun acc l -> if l.Spans.layer = "cell" || l.Spans.layer = "report" then acc +. l.Spans.self else acc)
      0.0 totals
  in
  set "trace.attributed_frac" (if root_time > 0.0 then 1.0 -. (root_self /. root_time) else 0.0);
  set "trace.busy_s" root_time;
  let run_busy = busy "uarch.run" in
  let cycles = Option.value (List.assoc_opt "uarch.sim_cycles" !metrics) ~default:0.0 in
  set "uarch.run.mcycles_per_s" (if run_busy > 0.0 then cycles /. run_busy /. 1e6 else 0.0);
  let cells =
    List.filter_map
      (fun s -> if s.Spans.name = "cell" then Some (Spans.duration s *. 1000.0) else None)
      spans
  in
  let n = List.length cells in
  set "supervise.cells" (float_of_int n);
  let pct p = if n = 0 then 0.0 else Pv_util.Stats.percentile cells ~p in
  set "supervise.cell_p50_ms" (pct 50.0);
  set "supervise.cell_p95_ms" (pct 95.0);
  set "supervise.cell_max_ms" (pct 100.0);
  set "trace.overhead_pct" (100.0 *. float_of_int (List.length spans) *. span_cost () /. wall);
  spans

let dir_bytes dir =
  match Sys.readdir dir with
  | names ->
    Array.fold_left
      (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
      0 names
  | exception Sys_error _ -> 0

let trace args =
  let workload = ref "" and dir = ref "" and perf_seed = ref 42 and scale = ref 0.3 in
  let jobs = ref 2 and seeds = ref "" and cli_wall = ref None in
  Arg.parse_argv args
    [
      ("--workload", Arg.Set_string workload, "perf|contracts|rerun");
      ("--dir", Arg.Set_string dir, "run directory");
      ("--perf-seed", Arg.Set_int perf_seed, "simulation seed of the perf sweep");
      ("--scale", Arg.Set_float scale, "perf workload scale");
      ("--jobs", Arg.Set_int jobs, "domains");
      ("--contract-seeds", Arg.Set_string seeds, "comma-separated contract seeds");
      ("--cli-wall", Arg.Float (fun w -> cli_wall := Some w), "untraced CLI wall seconds");
    ]
    (fun a -> die "unexpected argument %s" a)
    "pvbench trace";
  let dir = !dir in
  if dir = "" || not (Sys.file_exists dir) then die "--dir must name an existing directory";
  let seeds =
    List.filter_map
      (fun s -> if s = "" then None else Some (int_of_string s))
      (String.split_on_char ',' !seeds)
  in
  if seeds = [] then die "--contract-seeds is required";
  let t0 = now () in
  let cache =
    match !workload with
    | "perf" -> trace_perf ~dir ~seed:!perf_seed ~scale:!scale ~jobs:!jobs
    | "contracts" -> trace_contracts ~dir ~seeds ~jobs:!jobs ~cli_wall:!cli_wall
    | "rerun" -> trace_rerun ~dir ~seed:!perf_seed ~scale:!scale ~seeds
    | w -> die "unknown workload %S" w
  in
  (* A layer the workload does not reach reads 0 (e.g. no pool on rerun,
     no cycle counts through Contracts.check). *)
  List.iter
    (fun n -> if not (List.mem_assoc n !metrics) then set n 0.0)
    [
      "pool.utilization"; "pool.steals"; "pool.parks"; "procpool.overhead_frac";
      "paper_error_pp"; "uarch.sim_cycles"; "uarch.committed"; "uarch.stall_frac";
    ];
  let spans = layer_metrics ~wall:(now () -. t0) in
  set "rescache.bytes" (float_of_int (dir_bytes cache));
  oracle_ratios ~seed:(List.hd seeds);
  Spans.write_chrome ~file:(Filename.concat dir ("trace-" ^ !workload ^ ".json")) spans;
  Tab.print (Spans.self_time_table spans);
  let fields =
    List.rev_map (fun (k, v) -> Printf.sprintf "%s: %.17g" (Spans.json_string k) v) !metrics
  in
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" !attempted !failed
    (String.concat ", " fields)

(* --- summarize ----------------------------------------------------------- *)

let summarize () =
  In_channel.fold_lines
    (fun () line ->
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> ()
      | name :: values ->
        let s = Summary.summarize (List.map float_of_string values) in
        let tail =
          match s.Summary.tail with
          | Some (p, v) -> Printf.sprintf "%g %.17g" p v
          | None -> "- -"
        in
        Printf.printf "%s %d %.17g %.17g %.17g %.17g %s %.17g\n" name s.Summary.n s.Summary.p10
          s.Summary.median s.Summary.q1 s.Summary.q3 tail s.Summary.max)
    () stdin

let () =
  match Array.to_list Sys.argv with
  | _ :: "summarize" :: _ -> summarize ()
  | _ :: "trace" :: _ -> trace (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | _ -> die "usage: pvbench summarize | pvbench trace --workload W --dir DIR ..."
