(* The persistent content-addressed result cache: digest stability, store/
   find round trips, salt invalidation, corruption recovery, and the
   cold-run/warm-run byte-identity contract through supervised sweeps. *)

module Rescache = Pv_util.Rescache
module Supervise = Pv_experiments.Supervise
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Loadsweep = Pv_experiments.Loadsweep
module Journal = Pv_util.Journal
module Checksum = Pv_util.Checksum
module Tab = Pv_util.Tab
module Apps = Pv_workloads.Apps
module Lebench = Pv_workloads.Lebench

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = Filename.temp_file "pv_rescache" ".d" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")
  |> List.sort compare

(* --- the digest --------------------------------------------------------- *)

let test_digest_stability () =
  (* FNV-1a 64 known-answer vectors: entry file names must never drift, or
     every existing cache silently goes cold. *)
  check Alcotest.string "empty string = offset basis" "cbf29ce484222325"
    (Rescache.digest_hex "");
  check Alcotest.string "\"a\"" "af63dc4c8601ec8c" (Rescache.digest_hex "a");
  check Alcotest.string "\"foobar\"" "85944171f73967e8" (Rescache.digest_hex "foobar");
  check Alcotest.string "repeatable" (Rescache.digest_hex "perf/lebench|select")
    (Rescache.digest_hex "perf/lebench|select");
  Alcotest.(check bool) "distinct keys, distinct names" true
    (Rescache.digest_hex "k1" <> Rescache.digest_hex "k2")

(* --- store / find round trips ------------------------------------------- *)

let test_roundtrip () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      check Alcotest.(option int) "cold miss" None (Rescache.find c ~key:"k1");
      Rescache.store c ~key:"k1" 42;
      check Alcotest.(option int) "hit after store" (Some 42) (Rescache.find c ~key:"k1");
      check Alcotest.(option int) "other key still misses" None (Rescache.find c ~key:"k2");
      let s = Rescache.stats c in
      check Alcotest.int "hits" 1 s.Rescache.hits;
      check Alcotest.int "misses" 2 s.Rescache.misses;
      check Alcotest.int "writes" 1 s.Rescache.writes;
      check Alcotest.int "nothing corrupt" 0 s.Rescache.corrupt_dropped;
      (* persistence: a fresh handle on the same directory serves the entry *)
      let c2 = Rescache.open_dir dir in
      check Alcotest.(option int) "hit across handles" (Some 42) (Rescache.find c2 ~key:"k1"))

let test_store_replaces () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" "old";
      Rescache.store c ~key:"k" "new";
      check Alcotest.(option string) "last store wins" (Some "new") (Rescache.find c ~key:"k");
      check Alcotest.int "one entry file" 1 (List.length (entries dir)))

let test_salt_invalidation () =
  with_cache_dir (fun dir ->
      let a = Rescache.open_dir ~salt:"model-A" dir in
      Rescache.store a ~key:"k" 1;
      (* a different salt addresses a disjoint key space: the entry is
         unreachable, not deleted *)
      let b = Rescache.open_dir ~salt:"model-B" dir in
      check Alcotest.(option int) "other salt misses" None (Rescache.find b ~key:"k");
      let a2 = Rescache.open_dir ~salt:"model-A" dir in
      check Alcotest.(option int) "original salt still hits" (Some 1)
        (Rescache.find a2 ~key:"k"))

(* --- corruption recovery ------------------------------------------------ *)

let only_entry dir =
  match entries dir with
  | [ f ] -> Filename.concat dir f
  | es -> Alcotest.fail (Printf.sprintf "expected one cache entry, found %d" (List.length es))

let test_truncated_entry_recomputed () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" (3, "payload");
      let file = only_entry dir in
      let body = In_channel.with_open_bin file In_channel.input_all in
      Out_channel.with_open_bin file (fun ch ->
          Out_channel.output_string ch (String.sub body 0 17));
      check Alcotest.(option (pair int string)) "truncated entry is a miss" None
        (Rescache.find c ~key:"k");
      check Alcotest.int "counted as corrupt" 1 (Rescache.stats c).Rescache.corrupt_dropped;
      check Alcotest.int "damaged file deleted" 0 (List.length (entries dir));
      (* the recompute path: a fresh store makes the key hit again *)
      Rescache.store c ~key:"k" (3, "payload");
      check Alcotest.(option (pair int string)) "recomputed entry hits" (Some (3, "payload"))
        (Rescache.find c ~key:"k"))

let test_bitflipped_entry_recomputed () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" 99;
      let file = only_entry dir in
      let body = In_channel.with_open_bin file In_channel.input_all in
      (* flip one bit of the frame's Marshal payload (past the magic and the
         12-byte length + checksum header): the checksum must catch it *)
      let pos = String.length Journal.magic + 12 + 1 in
      let flipped = Bytes.of_string body in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 1));
      Out_channel.with_open_bin file (fun ch ->
          Out_channel.output_bytes ch flipped);
      check Alcotest.(option int) "bit-flipped entry is a miss, not a wrong value" None
        (Rescache.find c ~key:"k");
      check Alcotest.int "counted as corrupt" 1 (Rescache.stats c).Rescache.corrupt_dropped;
      Rescache.store c ~key:"k" 99;
      check Alcotest.(option int) "recomputed entry hits" (Some 99) (Rescache.find c ~key:"k"))

let test_digest_collision_kept () =
  (* Key A's entry at key B's path stands in for two descriptors whose
     digests collide: B misses honestly and the file, which may be A's
     live entry, is neither deleted nor counted as corrupt. *)
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"A" 1;
      let a_file = only_entry dir in
      Rescache.store c ~key:"B" 2;
      let b_file =
        match List.filter (fun f -> Filename.concat dir f <> a_file) (entries dir) with
        | [ f ] -> Filename.concat dir f
        | _ -> Alcotest.fail "expected a second entry for key B"
      in
      let a_body = In_channel.with_open_bin a_file In_channel.input_all in
      Out_channel.with_open_bin b_file (fun ch -> Out_channel.output_string ch a_body);
      check Alcotest.(option int) "colliding entry is a miss" None (Rescache.find c ~key:"B");
      check Alcotest.int "not counted as corrupt" 0 (Rescache.stats c).Rescache.corrupt_dropped;
      check Alcotest.string "file kept untouched" a_body
        (In_channel.with_open_bin b_file In_channel.input_all);
      check Alcotest.(option int) "key A still hits" (Some 1) (Rescache.find c ~key:"A"))

(* A pre-format-2 entry: the JSON envelope with a hex-encoded payload. *)
let legacy_envelope ~key v =
  let payload = Marshal.to_string v [] in
  Printf.sprintf
    "{\n  \"rescache_version\": 1,\n  \"salt\": \"v1|%s|\",\n  \"key\": \"%s\",\n\
    \  \"key_hex\": \"%s\",\n  \"payload_digest\": \"%s\",\n  \"payload_hex\": \"%s\"\n}\n"
    Rescache.code_salt key (Checksum.hex_of_string key) (Checksum.digest_hex payload)
    (Checksum.hex_of_string payload)

type damage =
  | Truncate of int
  | Flip of int * int
  | Append of string
  | Replace of string
  | Legacy

let show_damage = function
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Flip (i, x) -> Printf.sprintf "flip byte %d ^ %d" i x
  | Append s -> Printf.sprintf "append %S" s
  | Replace s -> Printf.sprintf "replace with %S" s
  | Legacy -> "pre-format-2 JSON envelope"

let test_hostile_entry_property =
  (* Whatever happens to an entry file, find returns the stored value or
     misses — never a wrong value, never an exception — and a file it
     rejects is deleted and counted.  Junk after the one verified frame is
     ignored like a journal's torn tail, so an append still hits. *)
  let damage =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Truncate n) nat;
          map2 (fun i x -> Flip (i, x)) nat (int_range 1 255);
          map (fun s -> Append s) (string_size (int_range 1 64));
          map (fun s -> Replace s) (string_size (int_range 0 128));
          return Legacy;
        ])
  in
  let arb =
    QCheck.make
      QCheck.Gen.(pair (pair small_nat (string_size (int_range 0 40))) damage)
      ~print:(fun ((n, s), d) -> Printf.sprintf "value (%d, %S), %s" n s (show_damage d))
  in
  let prop (v, d) =
    with_cache_dir (fun dir ->
        Rescache.store (Rescache.open_dir dir) ~key:"k" v;
        let file = only_entry dir in
        let body = In_channel.with_open_bin file In_channel.input_all in
        let len = String.length body in
        let damaged =
          match d with
          | Truncate n -> String.sub body 0 (n mod len)
          | Flip (i, x) ->
              let b = Bytes.of_string body in
              let i = i mod len in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
              Bytes.to_string b
          | Append junk -> body ^ junk
          | Replace junk -> junk
          | Legacy -> legacy_envelope ~key:"k" v
        in
        Out_channel.with_open_bin file (fun ch -> Out_channel.output_string ch damaged);
        let c = Rescache.open_dir dir in
        let found : (int * string) option = Rescache.find c ~key:"k" in
        let dropped = (Rescache.stats c).Rescache.corrupt_dropped in
        match (d, found) with
        | Append _, Some v' -> v' = v && dropped = 0 && Sys.file_exists file
        | (Truncate _ | Flip _ | Replace _ | Legacy), None ->
            dropped = 1 && not (Sys.file_exists file)
        | _ -> false)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"damaged entry: exact hit or dropped miss" ~count:300 arb prop)

(* --- supervised sweeps: dedup, CACHED, journaling ----------------------- *)

let test_dedup_runs_once () =
  (* Three cells declaring the same canonical descriptor are one simulation:
     the representative runs, the rest alias its value — with or without a
     cache directory configured. *)
  let runs = Atomic.make 0 in
  let cell k =
    Supervise.cell ~cache:"dup|desc" k (fun ~fuel:_ ->
        Atomic.incr runs;
        7)
  in
  let sweep =
    Supervise.run ~config:{ Supervise.default with jobs = 4 } [ cell "a"; cell "b"; cell "c" ]
  in
  check Alcotest.int "one execution" 1 (Atomic.get runs);
  check Alcotest.int "executed" 1 sweep.Supervise.executed;
  check Alcotest.int "deduped" 2 sweep.Supervise.deduped;
  check
    Alcotest.(list (pair string (option int)))
    "every alias reports the representative's value"
    [ ("a", Some 7); ("b", Some 7); ("c", Some 7) ]
    sweep.Supervise.results

let test_sweep_cold_then_warm () =
  with_cache_dir (fun dir ->
      let runs = Atomic.make 0 in
      let cells () =
        List.init 3 (fun i ->
            Supervise.cell
              ~cache:(Printf.sprintf "sq|seed=%d" i)
              (Printf.sprintf "sq/%d" i)
              (fun ~fuel:_ ->
                Atomic.incr runs;
                i * i))
      in
      let run () =
        Supervise.run
          ~config:{ Supervise.default with cache = Some (Rescache.open_dir dir) }
          (cells ())
      in
      let cold = run () in
      check Alcotest.int "cold run executes everything" 3 cold.Supervise.executed;
      check Alcotest.int "cold run hits nothing" 0 cold.Supervise.cached;
      let warm = run () in
      check Alcotest.int "warm run executes nothing" 0 warm.Supervise.executed;
      check Alcotest.int "warm run all CACHED" 3 warm.Supervise.cached;
      check Alcotest.int "simulations ran once in total" 3 (Atomic.get runs);
      Alcotest.(check bool) "identical results" true
        (cold.Supervise.results = warm.Supervise.results);
      (* provenance shows up in the stderr report, not in the results *)
      let report_file = Filename.temp_file "pv_rescache" ".report" in
      Fun.protect
        ~finally:(fun () -> Sys.remove report_file)
        (fun () ->
          let out = open_out report_file in
          Supervise.report ~out ~label:"sq" warm;
          close_out out;
          let text = In_channel.with_open_bin report_file In_channel.input_all in
          Alcotest.(check bool)
            (Printf.sprintf "report names the cache hits: %s" (String.trim text))
            true
            (contains ~sub:"3 CACHED" text && contains ~sub:"0 executed" text)))

let test_cache_hits_are_journaled () =
  (* A warm run with a checkpoint must journal its cache hits, so a later
     --resume works even with the cache gone. *)
  with_cache_dir (fun dir ->
      let path = Filename.temp_file "pv_rescache" ".journal" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let cells () =
            List.init 2 (fun i ->
                Supervise.cell
                  ~cache:(Printf.sprintf "jc|%d" i)
                  (Printf.sprintf "jc/%d" i)
                  (fun ~fuel:_ -> i + 10))
          in
          let cache () = Some (Rescache.open_dir dir) in
          ignore (Supervise.run ~config:{ Supervise.default with cache = cache () } (cells ()));
          let warm =
            Supervise.run
              ~config:{ Supervise.default with cache = cache (); checkpoint = Some path }
              (cells ())
          in
          check Alcotest.int "warm run all CACHED" 2 warm.Supervise.cached;
          (* resume with no cache configured: served from the journal *)
          let resumed =
            Supervise.run
              ~config:{ Supervise.default with checkpoint = Some path; resume = true }
              (cells ())
          in
          check Alcotest.int "resume restores the cached cells" 2 resumed.Supervise.restored;
          check Alcotest.int "resume executes nothing" 0 resumed.Supervise.executed;
          Alcotest.(check bool) "same results" true
            (warm.Supervise.results = resumed.Supervise.results)))

(* --- the acceptance contract: cold and warm runs are byte-identical ----- *)

let test_perf_cold_warm_byte_identical () =
  (* One real perf config, cold at -j1 then warm at -j4: the warm run must
     simulate nothing and both the figure and the metrics JSON must be
     byte-identical — cache keys are stable across worker counts. *)
  with_cache_dir (fun dir ->
      let tests = [ Lebench.find "select" ] in
      let variants = [ Schemes.unsafe; Schemes.perspective ] in
      let labels = List.map (fun v -> v.Schemes.label) variants in
      let names = List.map (fun (t : Lebench.test) -> t.Lebench.name) tests in
      let width = List.length variants in
      let cells () = Perf.lebench_cells ~scale:0.2 ~tests ~variants () in
      let render sweep =
        Tab.to_string
          (Perf_report.fig_lebench_partial ~labels (Perf.matrix_of_sweep ~names ~width sweep))
      in
      let json sweep =
        Supervise.render_json
          [ Supervise.export ~metrics_of:(fun r -> r.Perf.metrics) ~label:"lebench" sweep ]
      in
      let cold =
        Supervise.run
          ~config:{ Supervise.default with jobs = 1; cache = Some (Rescache.open_dir dir) }
          (cells ())
      in
      check Alcotest.int "cold: everything executed" 2 cold.Supervise.executed;
      check Alcotest.int "cold: nothing cached" 0 cold.Supervise.cached;
      let rc = Rescache.open_dir dir in
      let warm =
        Supervise.run ~config:{ Supervise.default with jobs = 4; cache = Some rc } (cells ())
      in
      check Alcotest.int "warm: zero simulations" 0 warm.Supervise.executed;
      check Alcotest.int "warm: all CACHED" 2 warm.Supervise.cached;
      check Alcotest.int "warm handle saw two hits" 2 (Rescache.stats rc).Rescache.hits;
      check Alcotest.string "figure bytes: cold -j1 = warm -j4" (render cold) (render warm);
      check Alcotest.string "metrics JSON bytes: cold = warm" (json cold) (json warm))

let test_loadsweep_cold_warm_byte_identical () =
  (* The fig-9.3-tail path: both phases (service-cal and service points) are
     cacheable, so a warm run recalibrates nothing and reproduces the tables
     byte-for-byte. *)
  with_cache_dir (fun dir ->
      let apps = [ Apps.redis ] in
      let variants = [ Schemes.unsafe; Schemes.fence ] in
      let labels = List.map (fun v -> v.Schemes.label) variants in
      let loads = [ 0.5; 1.2 ] in
      let run jobs =
        Loadsweep.run
          ~config:{ Supervise.default with jobs; cache = Some (Rescache.open_dir dir) }
          ~points:2 ~requests:200 ~loads ~apps ~variants ()
      in
      let render (o : Loadsweep.outcome) =
        Tab.to_string
          (Loadsweep.table ~requests:200 ~apps ~labels ~loads o.Loadsweep.point_sweep)
      in
      let cold = run 2 in
      check Alcotest.int "cold: calibrations executed" 2
        cold.Loadsweep.cal_sweep.Supervise.executed;
      let warm = run 1 in
      check Alcotest.int "warm: calibrations all CACHED" 2
        warm.Loadsweep.cal_sweep.Supervise.cached;
      check Alcotest.int "warm: points all CACHED" 4 warm.Loadsweep.point_sweep.Supervise.cached;
      check Alcotest.int "warm: zero simulations" 0
        (warm.Loadsweep.cal_sweep.Supervise.executed
        + warm.Loadsweep.point_sweep.Supervise.executed);
      check Alcotest.string "load-latency table bytes: cold = warm" (render cold) (render warm);
      check Alcotest.string "metrics JSON bytes: cold = warm"
        (Supervise.render_json (Loadsweep.exports cold))
        (Supervise.render_json (Loadsweep.exports warm)))

let suite =
  [
    ( "rescache.digest",
      [ Alcotest.test_case "FNV-1a 64 known answers" `Quick test_digest_stability ] );
    ( "rescache.store",
      [
        Alcotest.test_case "store/find round-trip" `Quick test_roundtrip;
        Alcotest.test_case "store replaces" `Quick test_store_replaces;
        Alcotest.test_case "salt invalidation" `Quick test_salt_invalidation;
      ] );
    ( "rescache.corruption",
      [
        Alcotest.test_case "truncated entry recomputed" `Quick test_truncated_entry_recomputed;
        Alcotest.test_case "bit-flipped entry recomputed" `Quick
          test_bitflipped_entry_recomputed;
        Alcotest.test_case "digest collision is kept" `Quick test_digest_collision_kept;
        test_hostile_entry_property;
      ] );
    ( "rescache.supervise",
      [
        Alcotest.test_case "in-run dedup runs once" `Quick test_dedup_runs_once;
        Alcotest.test_case "cold then warm sweep" `Quick test_sweep_cold_then_warm;
        Alcotest.test_case "cache hits are journaled" `Quick test_cache_hits_are_journaled;
      ] );
    ( "rescache.acceptance",
      [
        Alcotest.test_case "perf: cold -j1 = warm -j4, zero simulation" `Slow
          test_perf_cold_warm_byte_identical;
        Alcotest.test_case "loadsweep: cold = warm, zero simulation" `Slow
          test_loadsweep_cold_warm_byte_identical;
      ] );
  ]
