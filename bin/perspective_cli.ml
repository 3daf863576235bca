(* Command-line interface for the Perspective reproduction.

   Subcommands:
     attack       run the transient-execution PoCs under a chosen scheme
     surface      ISV attack-surface study (Tables 8.1/8.2, Figure 9.1)
     perf         cycle-level performance runs (Figures 9.2/9.3, Table 10.1)
     service      open-loop load-latency curves (Figure 9.3-tail)
     security     PoC verdict matrix as a supervised sweep (Chapter 8)
     contracts    empirical leakage-contract matrix (attacks x schemes)
     sensitivity  view-cache capacity sweep, supervised
     hw           view-cache hardware characterization (Table 9.1)
     params       simulation parameters (Table 7.1)
     cves         the kernel CVE taxonomy (Table 4.1) *)

module E = Pv_experiments
module Tab = Pv_util.Tab
module Defense = Perspective.Defense
module Isv = Perspective.Isv
open Cmdliner

let scheme_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "UNSAFE" -> Ok Defense.Unsafe
    | "FENCE" -> Ok Defense.Fence
    | "DOM" -> Ok Defense.Dom
    | "STT" -> Ok Defense.Stt
    | "PERSPECTIVE-STATIC" -> Ok (Defense.Perspective Isv.Static)
    | "PERSPECTIVE" -> Ok (Defense.Perspective Isv.Dynamic)
    | "PERSPECTIVE++" -> Ok (Defense.Perspective Isv.Plus)
    | "PERSPECTIVE-ALL" | "DSV-ONLY" -> Ok (Defense.Perspective Isv.All)
    | "SAFESPEC" -> Ok Defense.Safespec
    | "SPECBOX" -> Ok Defense.Specbox
    | _ -> Error (`Msg ("unknown scheme: " ^ s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Defense.scheme_name s))

let scheme_arg =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Defense scheme: unsafe, fence, dom, stt, perspective-static, perspective, \
           perspective++, dsv-only, safespec, specbox.  Default: run all.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (iterations/requests).")

let jobs_arg =
  Arg.(
    value
    & opt int (Pv_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment runs.  Results are deterministic: \
           any N produces output identical to -j 1 (the serial path).  Default: \
           the recommended domain count of this machine.")

(* --- supervision flags (perf, surface, security, sensitivity, service) --- *)

type sup = {
  retries : int;
  fault : Pv_util.Fault.t;
  max_cycles : int option;
  checkpoint : string option;
  resume : bool;
  cache_dir : string option;
  no_cache : bool;
  cache_stats : bool;
  workers : int;
  hosts : string option;
  pool_stats : bool;
}

let fault_conv =
  let parse s =
    let module F = Pv_util.Fault in
    try
      let specs =
        List.map
          (fun item ->
            match String.split_on_char '@' item with
            | [ kind; index ] ->
              let index = int_of_string index in
              let kind, first_attempts =
                match kind with
                | "crash" -> (F.Crash, F.always)
                | "flaky" -> (F.Crash, 1)
                | "slow" -> (F.Slow, F.always)
                | "poison" -> (F.Poison, F.always)
                | "livelock" -> (F.Livelock, F.always)
                (* kill is flaky by construction: the lost attempt re-queues
                   on a respawned worker, where the next attempt number no
                   longer matches — a persistent kill would only burn the
                   respawn budget. *)
                | "kill" -> (F.Kill, 1)
                | _ -> failwith kind
              in
              { F.index; kind; first_attempts }
            | _ -> failwith item)
          (String.split_on_char ',' (String.trim s))
      in
      Ok (F.plan specs)
    with _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad fault spec %S (expected KIND@INDEX[,KIND@INDEX...] with KIND one of \
               crash, flaky, slow, poison, livelock, kill)"
              s))
  in
  Arg.conv
    ( parse,
      fun ppf f ->
        Format.pp_print_string ppf (if Pv_util.Fault.is_none f then "none" else "<plan>") )

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Extra attempts for transiently failing cells (crashes) before giving up.")

let fault_arg =
  Arg.(
    value
    & opt fault_conv Pv_util.Fault.none
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. $(b,crash@2,livelock@1): job index 2 \
           crashes on every attempt, job 1 livelocks (its run hits the cycle watchdog).  \
           $(b,flaky@N) crashes once and succeeds on retry; $(b,slow@N) and \
           $(b,poison@N) are also available.  With $(b,--workers), $(b,kill@N) \
           SIGKILLs the worker process mid-cell (after it writes a deliberately \
           torn journal record); the coordinator respawns it and retries.  \
           Indices are positions in the sweep's cell list, so a spec is \
           reproducible for any -j and any --workers.")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Cycle budget per simulation cell; a cell that exhausts it fails with a \
           structured timeout instead of hanging the sweep.  Default: the \
           simulator's own watchdog.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal completed cells to $(docv) as they finish.  Without $(b,--resume) \
           a stale journal is removed first.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Serve cells already present in the $(b,--checkpoint) journal instead of \
           re-running them; only the missing (e.g. previously failed or \
           interrupted) cells execute.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persistent result cache: before running, each cell looks its canonical \
           input descriptor up in $(docv) (reported as CACHED; fault injection and \
           retries are skipped), and stores its result after.  A warm re-run of an \
           unchanged sweep performs zero simulation and produces byte-identical \
           tables and metrics.  Corrupt or version-mismatched entries are dropped \
           and recomputed, never trusted.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache): neither consult nor write the result cache.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "After the run, print one line of result-cache counters \
           (hits/misses/writes/write_errors/corrupt_dropped) to stderr.  Requires \
           $(b,--cache).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Run sweep cells on $(docv) worker $(i,processes) (the CLI re-executes \
           itself in a hidden worker mode) instead of in-process domains.  The \
           coordinator survives worker death — including injected \
           $(b,--fault kill@I) — by respawning workers (bounded) and recovering \
           completed cells from each worker's crash-safe journal; tables and \
           $(b,--metrics) output are byte-identical to $(b,--workers 1).  \
           Composes with $(b,--cache): racing workers claim cells through the \
           shared result cache (lease, compute, atomic commit) instead of \
           double-computing.  With $(b,--hosts), $(docv) is the count of \
           $(i,local) workers and may be 0 (remote-only execution).")

let hosts_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "hosts" ] ~docv:"HOST:PORT[,HOST:PORT...]"
        ~doc:
          "Also dispatch sweep cells to standing remote workers started with \
           $(b,perspective_cli __worker --listen HOST:PORT), one connection per \
           listed address, over TCP.  Results never travel inside the control \
           protocol: each remote worker journals results locally and the \
           coordinator reads them from the shared filesystem (shared \
           $(b,--cache)/scratch) or pulls the journal's checksummed bytes over \
           the same connection after the sweep.  A dropped connection or \
           handshake timeout is arbitrated exactly like a killed local worker \
           (journal decides the in-flight cell), with a bounded per-host \
           reconnect budget; lost hosts are named on stderr and the sweep \
           completes on the remaining workers.")

let pool_stats_arg =
  Arg.(
    value & flag
    & info [ "pool-stats" ]
        ~doc:
          "Print the in-process pool's work-stealing scheduler counters (local \
           pops, steals, failed steals, parks, unparks) to stderr after each \
           sweep.  Diagnostics only: the counts depend on runtime \
           interleaving, so they never appear in tables or $(b,--metrics) \
           output.")

let sup_term =
  let mk retries fault max_cycles checkpoint resume cache_dir no_cache cache_stats workers
      hosts pool_stats =
    {
      retries;
      fault;
      max_cycles;
      checkpoint;
      resume;
      cache_dir;
      no_cache;
      cache_stats;
      workers;
      hosts;
      pool_stats;
    }
  in
  Cmdliner.Term.(
    const mk $ retries_arg $ fault_arg $ max_cycles_arg $ checkpoint_arg $ resume_arg
    $ cache_arg $ no_cache_arg $ cache_stats_arg $ workers_arg $ hosts_arg
    $ pool_stats_arg)

(* Validate the supervision flags, build the config, run [f] with it, and
   print the cache counters afterwards if asked.  Validation failures are
   one-line stderr diagnostics with exit code 2 (usage error) — notably a
   --resume pointing at a missing, empty or fully-torn checkpoint, which
   must not surface as an exception backtrace. *)
let with_sup_config sup ~jobs f =
  let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
  if sup.resume && sup.checkpoint = None then
    usage "--resume requires --checkpoint FILE"
  else if sup.cache_stats && (sup.cache_dir = None || sup.no_cache) then
    usage "--cache-stats requires --cache DIR (and not --no-cache)"
  else if sup.workers < 0 then usage "--workers must be >= 0"
  else if sup.workers = 0 && sup.hosts = None then
    usage "--workers 0 requires --hosts (no workers to run cells on)"
  else
    match
      match sup.hosts with
      | None -> Ok []
      | Some spec -> Pv_util.Transport.parse_hostspecs spec
    with
    | Error msg -> usage "%s" msg
    | Ok hosts ->
    if hosts = [] && sup.hosts <> None then usage "--hosts lists no addresses"
    else
    let resume_ok =
      match sup.checkpoint with
      | Some file when sup.resume -> (
        match Pv_util.Journal.resume_status file with
        | Pv_util.Journal.Usable { records; distinct } ->
          (* distinct is what the sweep will actually skip: duplicate keys
             arise when a cell re-ran after an earlier resume. *)
          Printf.eprintf "resuming from %S: %d record%s, %d distinct cell%s\n%!" file
            records
            (if records = 1 then "" else "s")
            distinct
            (if distinct = 1 then "" else "s");
          Ok ()
        | Pv_util.Journal.Missing ->
          Error (Printf.sprintf "cannot resume: checkpoint %S does not exist" file)
        | Pv_util.Journal.Unusable why ->
          Error (Printf.sprintf "cannot resume from %S: %s" file why))
      | _ -> Ok ()
    in
    match resume_ok with
    | Error msg -> usage "%s" msg
    | Ok () ->
      (* A fresh checkpointed run must not inherit a previous run's cells.
         Never in a worker: the "stale" file is the coordinator's live
         journal, and workers keep their own (named in their HELLO). *)
      (match sup.checkpoint with
      | Some f
        when (not sup.resume) && (not (Pv_util.Procpool.in_worker ()))
             && Sys.file_exists f ->
        Sys.remove f
      | _ -> ());
      let cache =
        match sup.cache_dir with
        | Some dir when not sup.no_cache -> Some (Pv_util.Rescache.open_dir dir)
        | _ -> None
      in
      let config =
        {
          E.Supervise.default with
          jobs;
          retries = sup.retries;
          fault = sup.fault;
          max_cycles = sup.max_cycles;
          checkpoint = sup.checkpoint;
          resume = sup.resume;
          cache;
          workers = sup.workers;
          hosts;
          pool_stats = sup.pool_stats;
        }
      in
      let code = f config in
      if sup.cache_stats then Option.iter Pv_util.Rescache.report cache;
      code

(* --- telemetry flags (perf) --- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export every cell's metric snapshot plus per-sweep summaries as JSON to \
           $(docv).  Deterministic: for a fixed workload the file is byte-identical \
           for any -j once the single wall-clock member is stripped \
           ($(b,grep -v '\"elapsed_s\"')).")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Record the pipeline's bounded event trace (squashes, fences, VP releases \
           with cycle stamps) for every cell and dump one JSONL file per cell into \
           $(docv).")

let write_traces ~dir (sweep : _ E.Supervise.sweep) =
  if Pv_util.Procpool.in_worker () then ()
  else begin
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun (key, run) ->
      match run with
      | None -> ()
      | Some r ->
        let file =
          Filename.concat dir
            (String.map (fun c -> if c = '/' then '_' else c) key ^ ".jsonl")
        in
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun ev ->
                output_string oc (Pv_uarch.Pipeline.event_to_json ev);
                output_char oc '\n')
              r.E.Perf.events))
    sweep.E.Supervise.results
  end

(* --- attack --- *)

let attack_kinds = [ "v1"; "v2"; "rsb"; "all" ]

let attack_cmd =
  let kind =
    Arg.(
      value & pos 0 (enum (List.map (fun k -> (k, k)) attack_kinds)) "all"
      & info [] ~docv:"ATTACK" ~doc:"v1 (active), v2 (passive), rsb (passive), or all.")
  in
  let run kind scheme seed =
    let verdict label secret leaked fences =
      Printf.printf "  %-22s secret=%3d leaked=%-4s fences=%-3d -> %s\n" label secret
        (match leaked with Some v -> string_of_int v | None -> "none")
        fences
        (if leaked = Some secret then "SECRET LEAKED" else "blocked")
    in
    let v1 s =
      let o = Pv_attacks.Spectre_v1.run ~seed ~scheme:s () in
      verdict o.Pv_attacks.Spectre_v1.scheme o.Pv_attacks.Spectre_v1.secret
        o.Pv_attacks.Spectre_v1.leaked o.Pv_attacks.Spectre_v1.fences
    in
    let v2 s =
      let o = Pv_attacks.Spectre_v2.run ~seed ~scheme:s () in
      verdict o.Pv_attacks.Spectre_v2.scheme o.Pv_attacks.Spectre_v2.secret
        o.Pv_attacks.Spectre_v2.leaked o.Pv_attacks.Spectre_v2.fences
    in
    let rsb s =
      let o = Pv_attacks.Spectre_rsb.run ~seed ~scheme:s () in
      verdict o.Pv_attacks.Spectre_rsb.scheme o.Pv_attacks.Spectre_rsb.secret
        o.Pv_attacks.Spectre_rsb.leaked o.Pv_attacks.Spectre_rsb.fences
    in
    let schemes =
      match scheme with
      | Some s -> [ s ]
      | None ->
        [
          Defense.Unsafe; Defense.Fence; Defense.Dom; Defense.Stt;
          Defense.Perspective Isv.All; Defense.Perspective Isv.Static;
          Defense.Perspective Isv.Dynamic; Defense.Perspective Isv.Plus;
          Defense.Safespec; Defense.Specbox;
        ]
    in
    let section name f =
      Printf.printf "%s:\n" name;
      List.iter f schemes
    in
    (match kind with
    | "v1" -> section "Spectre v1 (active)" v1
    | "v2" -> section "Spectre v2 (passive, type confusion)" v2
    | "rsb" -> section "Spectre-RSB (passive, ret2spec)" rsb
    | _ ->
      section "Spectre v1 (active)" v1;
      section "Spectre v2 (passive, type confusion)" v2;
      section "Spectre-RSB (passive, ret2spec)" rsb);
    0
  in
  let doc = "Run transient-execution attack PoCs on the simulator." in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ kind $ scheme_arg $ seed_arg)

(* --- surface --- *)

let surface_cmd =
  let run seed jobs sup =
    with_sup_config sup ~jobs (fun config ->
        let study = E.Isv_study.build ~seed () in
        Tab.print (E.Isv_study.surface_table study);
        Tab.print (E.Isv_study.gadget_table study);
        let sweep = E.Supervise.run ~config (E.Isv_study.speedup_cells ~seed study) in
        Tab.print (E.Isv_study.speedup_table_rows sweep.E.Supervise.results);
        E.Supervise.report ~label:"surface" sweep;
        E.Supervise.exit_code [ sweep ])
  in
  let doc = "ISV attack-surface study: Tables 8.1/8.2 and Figure 9.1." in
  Cmd.v (Cmd.info "surface" ~doc) Term.(const run $ seed_arg $ jobs_arg $ sup_term)

(* --- perf --- *)

let perf_cmd =
  let workload =
    Arg.(
      value & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"One LEBench test or app name; default: everything.")
  in
  let run workload scheme seed scale jobs sup metrics_file trace_dir =
    let variants =
      match scheme with
      | Some s ->
        (* UNSAFE is always prepended as the baseline; keep only the other
           variants of the requested scheme, so `-s unsafe` does not produce
           two UNSAFE cells (duplicate keys abort the sweep). *)
        E.Schemes.unsafe
        :: List.filter
             (fun v ->
               v.E.Schemes.scheme = s && v.E.Schemes.label <> E.Schemes.unsafe.E.Schemes.label)
             (E.Schemes.standard @ E.Schemes.hardware)
      | None -> E.Schemes.standard @ E.Schemes.hardware
    in
    let micro_tests =
      match workload with
      | None -> Pv_workloads.Lebench.tests
      | Some w -> (
        match List.find_opt (fun t -> t.Pv_workloads.Lebench.name = w) Pv_workloads.Lebench.tests with
        | Some t -> [ t ]
        | None -> [])
    in
    let apps =
      match workload with
      | None -> Pv_workloads.Apps.all
      | Some w -> List.filter (fun a -> a.Pv_workloads.Apps.name = w) Pv_workloads.Apps.all
    in
    if micro_tests = [] && apps = [] then begin
      Printf.eprintf "unknown workload\n";
      2
    end
    else
      (* The two sweeps share the checkpoint journal (their key spaces are
         disjoint), so the stale-journal removal must happen exactly once. *)
      with_sup_config sup ~jobs (fun config ->
      let trace = trace_dir <> None in
      let labels = List.map (fun v -> v.E.Schemes.label) variants in
      let width = List.length variants in
      let sweeps = ref [] in
      let exports = ref [] in
      let supervised ~label cells =
        let t0 = Unix.gettimeofday () in
        let sweep = E.Supervise.run ~config cells in
        (if metrics_file <> None then
           let elapsed = Unix.gettimeofday () -. t0 in
           exports :=
             E.Supervise.export ~elapsed
               ~metrics_of:(fun r -> r.E.Perf.metrics)
               ~label sweep
             :: !exports);
        Option.iter (fun dir -> write_traces ~dir sweep) trace_dir;
        sweep
      in
      if micro_tests <> [] then begin
        let sweep =
          supervised ~label:"lebench"
            (E.Perf.lebench_cells ~seed ~scale ~trace ~tests:micro_tests ~variants ())
        in
        let names = List.map (fun t -> t.Pv_workloads.Lebench.name) micro_tests in
        Tab.print
          (E.Perf_report.fig_lebench_partial ~labels
             (E.Perf.matrix_of_sweep ~names ~width sweep));
        E.Supervise.report ~label:"lebench" sweep;
        sweeps := sweep :: !sweeps
      end;
      if apps <> [] then begin
        let sweep =
          supervised ~label:"apps"
            (E.Perf.apps_cells ~seed ~scale ~trace ~apps ~variants ())
        in
        let names = List.map (fun a -> a.Pv_workloads.Apps.name) apps in
        Tab.print
          (E.Perf_report.fig_apps_partial ~labels
             (E.Perf.matrix_of_sweep ~names ~width sweep));
        E.Supervise.report ~label:"apps" sweep;
        sweeps := sweep :: !sweeps
      end;
      Option.iter (fun file -> E.Supervise.write_json ~file (List.rev !exports)) metrics_file;
      E.Supervise.exit_code !sweeps)
  in
  let doc = "Cycle-level performance runs (Figures 9.2/9.3)." in
  Cmd.v
    (Cmd.info "perf" ~doc)
    Term.(
      const run $ workload $ scheme_arg $ seed_arg $ scale_arg $ jobs_arg $ sup_term
      $ metrics_arg $ trace_dir_arg)

(* --- service --- *)

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")

let service_cmd =
  let app_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "app" ] ~docv:"NAMES"
          ~doc:"Comma-separated datacenter app names.  Default: all apps.")
  in
  let schemes_arg =
    Arg.(
      value
      & opt string "UNSAFE,FENCE,PERSPECTIVE"
      & info [ "schemes" ] ~docv:"LABELS"
          ~doc:
            "Comma-separated scheme labels (UNSAFE, FENCE, PERSPECTIVE-STATIC, \
             PERSPECTIVE, PERSPECTIVE++, DOM, STT).  UNSAFE is always included: it \
             calibrates the capacity every load fraction is relative to.")
  in
  let loads_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FRACTIONS"
          ~doc:
            "Comma-separated offered loads as fractions of the app's UNSAFE \
             capacity, e.g. $(b,0.5,0.9,1.2).  Default: \
             0.3,0.5,0.7,0.85,0.95,1.1,1.3.")
  in
  let cores_arg =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Simulated server cores.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Per-core admission bound (counting the request in service); an arrival \
             finding a full queue is shed.")
  in
  let dispatch_arg =
    Arg.(
      value & opt string "rr"
      & info [ "dispatch" ] ~docv:"POLICY"
          ~doc:"Dispatch policy: $(b,rr) (round-robin) or $(b,jsq) (join-shortest-queue).")
  in
  let requests_arg =
    Arg.(
      value & opt int 5000
      & info [ "requests" ] ~docv:"N" ~doc:"Open-loop arrivals per load point.")
  in
  let run app schemes loads cores queue_bound dispatch requests seed jobs sup metrics_file =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    match E.Loadsweep.Server.dispatch_of_string dispatch with
    | Error e -> usage "%s" e
    | Ok dispatch -> (
      let apps =
        match app with
        | None -> Ok Pv_workloads.Apps.all
        | Some names ->
          List.fold_left
            (fun acc name ->
              Result.bind acc (fun apps ->
                  match
                    List.find_opt
                      (fun a -> a.Pv_workloads.Apps.name = name)
                      Pv_workloads.Apps.all
                  with
                  | Some a -> Ok (apps @ [ a ])
                  | None -> Error name))
            (Ok []) (split_commas names)
      in
      match apps with
      | Error name -> usage "unknown app %S" name
      | Ok [] -> usage "no apps selected"
      | Ok apps -> (
        let labels = List.map String.uppercase_ascii (split_commas schemes) in
        let labels = if List.mem "UNSAFE" labels then labels else "UNSAFE" :: labels in
        (* First occurrence wins: a repeated label would declare duplicate
           cell keys and abort the sweep. *)
        let labels =
          List.rev
            (List.fold_left
               (fun acc l -> if List.mem l acc then acc else l :: acc)
               [] labels)
        in
        let variants =
          List.fold_left
            (fun acc label ->
              Result.bind acc (fun vs ->
                  match
                    List.find_opt
                      (fun v -> v.E.Schemes.label = label)
                      (E.Schemes.standard @ E.Schemes.hardware)
                  with
                  | Some v -> Ok (vs @ [ v ])
                  | None -> Error label))
            (Ok []) labels
        in
        match variants with
        | Error label -> usage "unknown scheme label %S for the service model" label
        | Ok variants -> (
          let loads =
            match loads with
            | None -> Ok E.Loadsweep.default_loads
            | Some s -> (
              try
                let ls = List.map float_of_string (split_commas s) in
                if ls = [] || List.exists (fun l -> Float.is_nan l || l <= 0.0) ls then
                  Error s
                else Ok ls
              with _ -> Error s)
          in
          match loads with
          | Error s -> usage "bad load list %S (expected positive fractions)" s
          | Ok loads ->
            if cores <= 0 then usage "--cores must be positive"
            else if queue_bound < 0 then
              usage "--queue-bound must be non-negative (0 sheds every arrival)"
            else if requests <= 0 then usage "--requests must be positive"
            else
              with_sup_config sup ~jobs (fun config ->
              let server = { E.Loadsweep.Server.cores; queue_bound; dispatch } in
              let t0 = Unix.gettimeofday () in
              let outcome =
                E.Loadsweep.run ~config ~seed ~requests ~server ~loads ~apps ~variants ()
              in
              Tab.print
                (E.Loadsweep.table ~server ~requests ~apps ~labels ~loads
                   outcome.E.Loadsweep.point_sweep);
              Tab.print
                (E.Loadsweep.knee_table ~apps ~labels ~loads
                   outcome.E.Loadsweep.point_sweep);
              E.Supervise.report ~label:"service-cal" outcome.E.Loadsweep.cal_sweep;
              E.Supervise.report ~label:"service" outcome.E.Loadsweep.point_sweep;
              Option.iter
                (fun file ->
                  let elapsed = Unix.gettimeofday () -. t0 in
                  E.Supervise.write_json ~file (E.Loadsweep.exports ~elapsed outcome))
                metrics_file;
              E.Loadsweep.exit_code outcome))))
  in
  let doc =
    "Open-loop request serving: load-latency curves, saturation knees and overload \
     shedding per defense scheme (Figure 9.3-tail)."
  in
  Cmd.v
    (Cmd.info "service" ~doc)
    Term.(
      const run $ app_arg $ schemes_arg $ loads_arg $ cores_arg $ queue_bound_arg
      $ dispatch_arg $ requests_arg $ seed_arg $ jobs_arg $ sup_term $ metrics_arg)

(* --- security --- *)

let security_cmd =
  let attacks_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attacks" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated attack families to run ($(b,v1), $(b,v2), $(b,rsb)).  \
             Default: all three.")
  in
  let run seed attacks jobs sup =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    let attacks = Option.map split_commas attacks in
    if attacks = Some [] then usage "--attacks lists no attack families"
    else
      match
        try Ok (E.Security.run_pocs_cells ~seed ?attacks ())
        with Invalid_argument msg -> Error msg
      with
      | Error msg -> usage "%s" msg
      | Ok cells ->
        with_sup_config sup ~jobs (fun config ->
            let sweep = E.Supervise.run ~config cells in
            Tab.print (E.Security.poc_table_partial sweep.E.Supervise.results);
            E.Supervise.report ~label:"pocs" sweep;
            E.Supervise.exit_code [ sweep ])
  in
  let doc =
    "Proof-of-concept transient-execution attacks under every scheme (Chapter 8), \
     as a supervised sweep."
  in
  Cmd.v (Cmd.info "security" ~doc)
    Term.(const run $ seed_arg $ attacks_arg $ jobs_arg $ sup_term)

(* --- contracts --- *)

let contracts_cmd =
  let module C = Pv_contracts.Contracts in
  let attacks_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attacks" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf "Comma-separated attack names (%s).  Default: all."
               (String.concat ", " C.attack_names)))
  in
  let schemes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schemes" ] ~docv:"LABELS"
          ~doc:
            (Printf.sprintf "Comma-separated scheme labels (%s).  Default: all."
               (String.concat ", " C.scheme_labels)))
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the matrix as CSV to $(docv).")
  in
  let run seed attacks schemes csv jobs sup =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    let attacks = Option.map split_commas attacks in
    let schemes = Option.map split_commas schemes in
    if attacks = Some [] then usage "--attacks lists no attack names"
    else if schemes = Some [] then usage "--schemes lists no scheme labels"
    else
      match
        (* Normalize scheme labels through the registry so matrix lookups
           match the canonical cell keys whatever the input case. *)
        try
          let schemes =
            Option.map (List.map (fun l -> Defense.scheme_name (C.find_scheme l))) schemes
          in
          Ok (schemes, C.cells ~seed ?attacks ?schemes ())
        with Invalid_argument msg -> Error msg
      with
      | Error msg -> usage "%s" msg
      | Ok (schemes, cells) ->
        with_sup_config sup ~jobs (fun config ->
            let sweep = E.Supervise.run ~config cells in
            let results = sweep.E.Supervise.results in
            Tab.print (C.matrix_table ?attacks ?schemes results);
            Option.iter
              (fun file ->
                let oc = open_out file in
                output_string oc (C.matrix_csv ?attacks ?schemes results);
                close_out oc)
              csv;
            E.Supervise.report ~label:"contracts" sweep;
            E.Supervise.exit_code [ sweep ])
  in
  let doc =
    "Empirical leakage-contract matrix: run every attack twice with differing \
     planted secrets under every scheme, diff the canonical observation traces \
     and classify each cell as ARCH-SEQ, CT-SEQ or CT-SPEC."
  in
  Cmd.v (Cmd.info "contracts" ~doc)
    Term.(const run $ seed_arg $ attacks_arg $ schemes_arg $ csv_arg $ jobs_arg $ sup_term)

(* --- sensitivity --- *)

let sensitivity_cmd =
  let run seed scale jobs sup =
    with_sup_config sup ~jobs (fun config ->
        let sweep = E.Supervise.run ~config (E.Sensitivity.cache_size_cells ~seed ~scale ()) in
        Tab.print (E.Sensitivity.cache_size_table sweep.E.Supervise.results);
        E.Supervise.report ~label:"cache-size" sweep;
        E.Supervise.exit_code [ sweep ])
  in
  let scale_arg =
    Arg.(
      value & opt float 0.6
      & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (iterations/requests).")
  in
  let doc = "View-cache capacity sensitivity sweep (32..512 entries), supervised." in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ jobs_arg $ sup_term)

(* --- small static commands --- *)

let table_cmd name doc table =
  let run () =
    Tab.print (table ());
    0
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

let hw_cmd = table_cmd "hw" "View-cache hardware characterization (Table 9.1)."
    E.Static_tables.hw_characterization

let params_cmd = table_cmd "params" "Simulation parameters (Table 7.1)." E.Static_tables.sim_params

let cves_cmd = table_cmd "cves" "Kernel CVE taxonomy (Table 4.1)." E.Security.cve_table

let () =
  let doc = "Perspective: pliable and secure speculation in operating systems (reproduction)" in
  let info = Cmd.info "perspective" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        attack_cmd; surface_cmd; perf_cmd; service_cmd; security_cmd; contracts_cmd;
        sensitivity_cmd; hw_cmd; params_cmd; cves_cmd;
      ]
  in
  (* Exit codes: 0 clean, 1 a sweep had failed cells (commands return it),
     2 usage error, 125 unexpected exception. *)
  let eval_list args =
    let argv =
      Array.of_list
        ((if Array.length Sys.argv > 0 then Sys.argv.(0) else "perspective") :: args)
    in
    match Cmd.eval_value ~argv group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125
  in
  (* Multi-process mode: a worker is this same binary re-executed under a
     hidden __worker argv marker.  Its first protocol line, a HELLO, carries
     the coordinator's argv, so it rebuilds the identical sweep, but
     Supervise hands it cells one at a time instead of running the whole
     sweep.  `__worker --listen HOST:PORT` is a standing TCP worker that
     reads a HELLO per connection.  The argv is recorded either way: the
     coordinator ships it in every HELLO. *)
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  match args with
  | marker :: rest when marker = Pv_util.Procpool.worker_arg ->
    Pv_util.Procpool.worker_main rest ~run:(fun ~argv ->
        Pv_util.Procpool.set_reexec_argv argv;
        eval_list argv)
  | _ ->
    Pv_util.Procpool.set_reexec_argv args;
    exit (eval_list args)
