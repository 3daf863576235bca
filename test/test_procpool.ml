(* Crash-safe multi-process execution: the checksummed journal format
   (double-tear recovery, corruption quarantine, old-format rejection,
   merge), the result cache's cross-process lease protocol and write-error
   accounting, and the coordinator/worker pool itself (via fork-spawned
   workers: completion, kill-respawn recovery, budget exhaustion). *)

module Journal = Pv_util.Journal
module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool
module Transport = Pv_util.Transport
module Checksum = Pv_util.Checksum

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_path prefix suffix =
  let p = Filename.temp_file prefix suffix in
  Sys.remove p;
  p

let with_journal f =
  let path = temp_path "pv_procpool" ".journal" in
  let rm p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      rm (path ^ ".quarantine"))
    (fun () -> f path)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_path "pv_procpool" ".d" in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- checksummed journal: tear recovery --------------------------------- *)

let test_double_tear_recovery () =
  (* Kill mid-append, resume, kill mid-append again, resume: the second
     resume must see every record the first resume wrote.  This is the PR 3
     truncate-fix regression guard, replayed against the checksummed
     format with real torn frames (append_torn = header + half payload,
     exactly what a mid-append SIGKILL leaves). *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append w ~key:"b" 2;
      Journal.append_torn w ~key:"c" 3;
      Journal.close w;
      (* first resume: recovery truncates the tear, then writes c and tears d *)
      let w = Journal.open_writer path in
      Journal.append w ~key:"c" 3;
      Journal.append_torn w ~key:"d" 4;
      Journal.close w;
      (* second resume: must see a, b AND the c the first resume wrote *)
      check
        Alcotest.(list (pair string int))
        "second resume sees everything the first resume wrote"
        [ ("a", 1); ("b", 2); ("c", 3) ]
        (Journal.load path);
      let w = Journal.open_writer path in
      Journal.append w ~key:"d" 4;
      Journal.close w;
      check
        Alcotest.(list (pair string int))
        "post-second-resume appends land cleanly"
        [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]
        (Journal.load path))

let test_quarantine_preserves_torn_bytes () =
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append_torn w ~key:"b" 2;
      Journal.close w;
      let torn_size = (Unix.stat path).Unix.st_size in
      let w = Journal.open_writer path in
      Journal.close w;
      Alcotest.(check bool) "torn suffix copied to .quarantine" true
        (Sys.file_exists (path ^ ".quarantine"));
      let clean_size = (Unix.stat path).Unix.st_size in
      let quarantined = (Unix.stat (path ^ ".quarantine")).Unix.st_size in
      check Alcotest.int "no byte lost: clean + quarantined = torn file" torn_size
        (clean_size + quarantined))

let test_midfile_bitflip_quarantined () =
  (* The pre-checksum format only detected torn *tails*; a mid-file flip
     that still unmarshalled was served silently.  Now every frame is
     checksummed: a flip invalidates its record and everything after it. *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 11;
      Journal.append w ~key:"b" 22;
      Journal.append w ~key:"c" 33;
      Journal.close w;
      let body = read_file path in
      (* flip one payload byte inside the middle record *)
      let pos = String.length body / 2 in
      let b = Bytes.of_string body in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file path (Bytes.to_string b);
      let loaded : (string * int) list = Journal.load path in
      Alcotest.(check bool) "only a verified prefix survives" true
        (List.length loaded < 3);
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "surviving record %s is authentic" k)
            true
            (List.mem (k, v) [ ("a", 11); ("b", 22); ("c", 33) ]))
        loaded)

let test_corruption_property =
  (* Flip or truncate random bytes anywhere past the header: recovery must
     never surface a corrupt record — whatever loads is a prefix of what
     was written — and resume_status must never raise. *)
  let gen = QCheck.Gen.(triple (int_range 2 12) (int_range 0 2000) (int_range 0 255)) in
  let arb = QCheck.make gen ~print:(fun (n, pos, x) -> Printf.sprintf "(%d,%d,%d)" n pos x) in
  let prop (n, pos_seed, flip) =
    let path = temp_path "pv_jprop" ".journal" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove path with Sys_error _ -> ());
        try Sys.remove (path ^ ".quarantine") with Sys_error _ -> ())
      (fun () ->
        let written = List.init n (fun i -> (Printf.sprintf "cell/%d" i, i * 7)) in
        let w = Journal.open_writer path in
        List.iter (fun (k, v) -> Journal.append w ~key:k v) written;
        Journal.close w;
        let body = read_file path in
        let len = String.length body in
        let pos = String.length Journal.magic + (pos_seed mod max 1 (len - 8)) in
        let pos = min pos (len - 1) in
        (if flip mod 2 = 0 then begin
           (* bit damage *)
           let b = Bytes.of_string body in
           Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor max 1 (flip lsr 1)));
           write_file path (Bytes.to_string b)
         end
         else (* torn write: truncate mid-record *)
           write_file path (String.sub body 0 pos));
        let loaded : (string * int) list = Journal.load path in
        let rec is_prefix p l =
          match (p, l) with
          | [], _ -> true
          | x :: p', y :: l' -> x = y && is_prefix p' l'
          | _ :: _, [] -> false
        in
        let status_ok =
          match Journal.resume_status path with
          | Journal.Missing | Journal.Unusable _ -> true
          | Journal.Usable { records; distinct } ->
            records = List.length loaded && distinct <= records
        in
        is_prefix loaded written && status_ok)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random corruption never surfaces a corrupt record"
       ~count:200 arb prop)

let test_old_format_rejected () =
  (* A pre-checksum journal is bare Marshal records; it must be recognized
     by its magic and rejected with a one-line diagnostic, not misparsed. *)
  with_journal (fun path ->
      write_file path (Marshal.to_string ("key", 1) [] ^ Marshal.to_string ("k2", 2) []);
      (match Journal.load path with
      | (_ : (string * int) list) -> Alcotest.fail "old format must not load"
      | exception Journal.Incompatible msg ->
        Alcotest.(check bool)
          (Printf.sprintf "load diagnostic names the old format: %s" msg)
          true
          (contains ~sub:"pre-checksum" msg));
      (match Journal.open_writer path with
      | (_ : Journal.writer) -> Alcotest.fail "old format must not open for append"
      | exception Journal.Incompatible _ -> ());
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool) "preflight diagnostic names the old format" true
          (contains ~sub:"pre-checksum" why)
      | _ -> Alcotest.fail "old format must be Unusable for --resume")

let test_not_a_journal_rejected () =
  with_journal (fun path ->
      write_file path "{\"this\": \"is json, not a journal\"}";
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool) "diagnostic names the missing header" true
          (contains ~sub:"not a journal" why)
      | _ -> Alcotest.fail "foreign file must be Unusable")

let test_merge_into () =
  with_journal (fun target ->
      with_journal (fun src1 ->
          with_journal (fun src2 ->
              let w = Journal.open_writer src1 in
              Journal.append w ~key:"s1/a" 1;
              Journal.append w ~key:"s1/b" 2;
              Journal.close w;
              let w = Journal.open_writer src2 in
              Journal.append w ~key:"s2/a" 3;
              Journal.append_torn w ~key:"s2/torn" 4 (* killed mid-append *);
              Journal.close w;
              let w = Journal.open_writer target in
              Journal.append w ~key:"own" 0;
              check Alcotest.int "merged 2 from src1" 2 (Journal.merge_into w src1);
              check Alcotest.int "merged only verified records from src2" 1
                (Journal.merge_into w src2);
              check Alcotest.int "missing source merges nothing" 0
                (Journal.merge_into w "/nonexistent/worker.journal");
              Journal.close w;
              check
                Alcotest.(list (pair string int))
                "raw frame copy, in order"
                [ ("own", 0); ("s1/a", 1); ("s1/b", 2); ("s2/a", 3) ]
                (Journal.load target))))

(* --- rescache: claims and write errors ---------------------------------- *)

let test_claim_release_commit () =
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let lease =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "first claim must win"
      in
      (match Rescache.try_claim c ~key:"cell" with
      | `Busy (Some pid) -> check Alcotest.int "holder pid recorded" (Unix.getpid ()) pid
      | `Busy None -> Alcotest.fail "lease must record the holder pid"
      | `Claimed _ -> Alcotest.fail "second claim must lose");
      Rescache.release c lease;
      let lease2 =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "released lease must be claimable"
      in
      Rescache.commit c lease2 99;
      check Alcotest.(option int) "commit stored the value" (Some 99)
        (Rescache.find c ~key:"cell");
      match Rescache.try_claim c ~key:"cell" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "commit must release the lease")

let test_stale_lease_broken () =
  (* A lease naming a dead pid is a worker killed mid-compute; it must be
     broken and re-claimed, not honoured forever. *)
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let dead_pid =
        match Unix.fork () with
        | 0 -> Unix._exit 0
        | pid ->
          ignore (Unix.waitpid [] pid);
          pid
      in
      let lease =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "claim must win on empty dir"
      in
      (* forge the dead holder *)
      let lease_file =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun n -> Filename.check_suffix n ".lease")
      in
      write_file (Filename.concat dir lease_file) (string_of_int dead_pid ^ "\n");
      ignore lease;
      match Rescache.try_claim c ~key:"cell" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "dead holder's lease must be broken")

let test_compute_through () =
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let runs = ref 0 in
      let f () = incr runs; 7 in
      let v, how = Rescache.compute_through c ~key:"k" f in
      check Alcotest.int "computed value" 7 v;
      Alcotest.(check bool) "first call computes" true (how = `Computed);
      let v2, how2 = Rescache.compute_through c ~key:"k" f in
      check Alcotest.int "hit value" 7 v2;
      Alcotest.(check bool) "second call hits" true (how2 = `Hit);
      check Alcotest.int "computed exactly once" 1 !runs;
      (* patience: a wedged (live) holder must not deadlock the pool *)
      let lease =
        match Rescache.try_claim c ~key:"slow" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "claim must win"
      in
      let v3, how3 = Rescache.compute_through ~patience:0.05 ~poll:0.01 c ~key:"slow" f in
      check Alcotest.int "patience exhausted: computed anyway" 7 v3;
      Alcotest.(check bool) "reported as computed" true (how3 = `Computed);
      Rescache.release c lease;
      (* a raising compute releases the lease for the next claimant *)
      (match
         Rescache.compute_through c ~key:"boom" (fun () -> failwith "compute failed")
       with
      | (_ : int * _) -> Alcotest.fail "exception must propagate"
      | exception Failure _ -> ());
      match Rescache.try_claim c ~key:"boom" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "failed compute must release its lease")

let test_write_errors_counted () =
  (* A cache that cannot write must degrade (count + warn), not raise and
     not pretend the store happened. *)
  with_dir (fun parent ->
      let dir = Filename.concat parent "cache" in
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"ok" 1;
      check Alcotest.int "healthy store counted" 1 (Rescache.stats c).Rescache.writes;
      (* break the cache root: replace the directory with a regular file, so
         the temp-file open fails with ENOTDIR even for root *)
      rm_rf dir;
      write_file dir "not a directory";
      Rescache.store c ~key:"fails" 2;
      Rescache.store c ~key:"fails2" 3;
      let s = Rescache.stats c in
      check Alcotest.int "failed stores counted" 2 s.Rescache.write_errors;
      check Alcotest.int "successful writes unchanged" 1 s.Rescache.writes;
      let buf_path = Filename.concat parent "report.txt" in
      Out_channel.with_open_bin buf_path (fun oc -> Rescache.report ~out:oc c);
      Alcotest.(check bool) "report line carries write_errors" true
        (contains ~sub:"write_errors=2" (read_file buf_path)))

(* --- the process pool (fork-spawned workers) ----------------------------- *)

(* A worker body for fork_spawner: journals DOUBLE(value-of-key) for each
   cell, optionally SIGKILLing itself mid-append for chosen (key, attempt)
   pairs — the same realization Supervise uses for --fault kill. *)
let worker_body ~kill_on (ctx : Procpool.ctx) =
  let w = Journal.open_writer ctx.Procpool.journal in
  Procpool.serve ctx ~handle:(fun ~index ~attempt ~key ->
      ignore index;
      let v = 2 * int_of_string (Filename.basename key) in
      if List.mem (key, attempt) kill_on then begin
        Journal.append_torn w ~key v;
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      end
      else begin
        Journal.append w ~key v;
        Procpool.Done
      end)

let keys_of n = Array.init n (fun i -> Printf.sprintf "cell/%d" i)

let values_from journals =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun j -> List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (Journal.load j))
    journals;
  tbl

let test_pool_completes () =
  with_dir (fun scratch ->
      let keys = keys_of 6 in
      let outcomes, journals, _ =
        Procpool.run_jobs ~workers:3 ~respawns:0 ~retries:0 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[])) ~keys ()
      in
      Array.iteri
        (fun i o ->
          match o with
          | Procpool.Completed { attempts } ->
            check Alcotest.int (Printf.sprintf "cell %d one attempt" i) 1 attempts
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      let tbl = values_from journals in
      Array.iteri
        (fun i k ->
          check Alcotest.(option int)
            (Printf.sprintf "value of %s recovered from worker journals" k)
            (Some (2 * i)) (Hashtbl.find_opt tbl k))
        keys)

let test_pool_kill_respawn_recovers () =
  (* Worker SIGKILLs itself mid-append on cell/2's first attempt: the
     coordinator must reap it, respawn into the same journal (recovering
     the torn record), and retry the cell to completion. *)
  with_dir (fun scratch ->
      let keys = keys_of 4 in
      let outcomes, journals, _ =
        Procpool.run_jobs ~workers:2 ~respawns:4 ~retries:1 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[ ("cell/2", 0) ]))
          ~keys ()
      in
      (match outcomes.(2) with
      | Procpool.Completed { attempts } ->
        check Alcotest.int "killed cell retried once" 2 attempts
      | Procpool.Failed { reason; _ } ->
        Alcotest.fail (Printf.sprintf "killed cell must recover: %s" reason));
      Array.iteri
        (fun i o ->
          if i <> 2 then
            match o with
            | Procpool.Completed _ -> ()
            | Procpool.Failed { reason; _ } ->
              Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      let tbl = values_from journals in
      check Alcotest.(option int) "killed cell's value recovered" (Some 4)
        (Hashtbl.find_opt tbl "cell/2"))

let test_pool_budget_exhaustion_fails_cleanly () =
  (* A persistently killing cell with a tiny respawn budget: the pool must
     fail the cell (and only report transient loss) instead of hanging. *)
  with_dir (fun scratch ->
      let kill_on = List.init 10 (fun a -> ("cell/1", a)) in
      let keys = keys_of 3 in
      let outcomes, journals, _ =
        Procpool.run_jobs ~workers:2 ~respawns:1 ~retries:5 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on))
          ~keys ()
      in
      (match outcomes.(1) with
      | Procpool.Failed { transient; _ } ->
        Alcotest.(check bool) "loss reported transient" true transient
      | Procpool.Completed _ -> Alcotest.fail "persistently killed cell cannot complete");
      let tbl = values_from journals in
      check Alcotest.(option int) "poisonous cell left no value" None
        (Hashtbl.find_opt tbl "cell/1"))

(* --- the process pool over TCP (standing workers) ------------------------ *)

(* A standing worker for the tests: fork a listener on a kernel-picked
   loopback port whose serving children run the test's own worker body
   (via standing_accept, exactly the production accept/fork/serve loop,
   minus the CLI re-evaluation). *)
let with_tcp_worker ~serve f =
  match Transport.listen_on ~host:"127.0.0.1" ~port:0 with
  | Error e -> Alcotest.fail ("listen_on: " ^ e)
  | Ok (lfd, port) -> (
    match Unix.fork () with
    | 0 ->
      (try Procpool.standing_accept lfd ~serve with _ -> ());
      Unix._exit 0
    | pid ->
      Unix.close lfd;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () -> f port))

(* The production tcp_connector rebuilds the CLI argv; tests have no CLI, so
   this connector sends a HELLO with an empty argv — the serving side below
   ignores it and runs worker_body directly. *)
let test_connector ~wid ~journal ~host ~port ~timeout =
  match Transport.connect ~host ~port ~timeout with
  | Error e -> Error e
  | Ok fd ->
    let hello =
      { Procpool.h_wid = wid; h_sweep = 0; h_journal = journal;
        h_replay = None; h_argv = [] }
    in
    if Transport.send_line fd (Procpool.hello_line hello) then
      Ok (Transport.sock_link ~host ~port fd)
    else begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "handshake write to %s:%d failed" host port)
    end

(* A serving child bootstraps on its connection exactly as production does:
   the HELLO arrives on the socket and replies go back over it. *)
let bootstrap_conn conn =
  match Procpool.bootstrap ~cmd:conn ~reply:conn () with
  | Ok (ctx, _argv) -> ctx
  | Error e -> failwith e

let body_serve ~kill_on ~conn = worker_body ~kill_on (bootstrap_conn conn)

let test_tcp_pool_completes () =
  (* Mixed pool: one local pipe worker plus one TCP worker must complete a
     sweep with the same outcomes and journal contents as pipes alone. *)
  with_dir (fun scratch ->
      with_tcp_worker ~serve:(body_serve ~kill_on:[]) (fun port ->
          let keys = keys_of 6 in
          let outcomes, journals, dead =
            Procpool.run_jobs
              ~hosts:[ ("127.0.0.1", port) ]
              ~connect:test_connector ~workers:1 ~respawns:0 ~retries:0
              ~scratch
              ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[]))
              ~keys ()
          in
          Alcotest.(check int) "no dead hosts" 0 (List.length dead);
          Array.iteri
            (fun i o ->
              match o with
              | Procpool.Completed { attempts } ->
                check Alcotest.int (Printf.sprintf "cell %d one attempt" i) 1 attempts
              | Procpool.Failed { reason; _ } ->
                Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
            outcomes;
          let tbl = values_from journals in
          Array.iteri
            (fun i k ->
              check Alcotest.(option int)
                (Printf.sprintf "value of %s recovered" k)
                (Some (2 * i)) (Hashtbl.find_opt tbl k))
            keys))

let test_tcp_kill_reconnect_recovers () =
  (* SIGKILL the serving child mid-append over TCP: the coordinator must see
     the reset, arbitrate the inflight cell off the journal (absent = lost
     transient attempt), reconnect to the standing worker, and retry to
     completion — node loss handled exactly like a reaped local corpse. *)
  with_dir (fun scratch ->
      with_tcp_worker ~serve:(body_serve ~kill_on:[ ("cell/2", 0) ]) (fun port ->
          let keys = keys_of 4 in
          let outcomes, journals, dead =
            Procpool.run_jobs
              ~hosts:[ ("127.0.0.1", port) ]
              ~host_respawns:4 ~connect:test_connector ~workers:0 ~respawns:0
              ~retries:1 ~scratch
              ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[]))
              ~keys ()
          in
          Alcotest.(check int) "host survives within budget" 0 (List.length dead);
          (match outcomes.(2) with
          | Procpool.Completed { attempts } ->
            check Alcotest.int "killed cell retried once" 2 attempts
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "killed cell must recover: %s" reason));
          Array.iteri
            (fun i o ->
              if i <> 2 then
                match o with
                | Procpool.Completed _ -> ()
                | Procpool.Failed { reason; _ } ->
                  Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
            outcomes;
          let tbl = values_from journals in
          check Alcotest.(option int) "killed cell's value recovered" (Some 4)
            (Hashtbl.find_opt tbl "cell/2")))

(* A serving child that journals the cell, writes a torn half-reply ("OK <i>"
   with no terminating newline) and SIGKILLs itself mid-line. *)
let torn_reply_serve ~conn =
  let ctx = bootstrap_conn conn in
  let w = Journal.open_writer ctx.Procpool.journal in
  output_string ctx.Procpool.reply_out "RDY\n";
  flush ctx.Procpool.reply_out;
  match input_line ctx.Procpool.cmd_in with
  | line -> (
    match String.split_on_char ' ' line with
    | [ "RUN"; idx; _att; hexkey ] ->
      let key = Option.get (Checksum.string_of_hex hexkey) in
      Journal.append w ~key (2 * int_of_string (Filename.basename key));
      Journal.close w;
      output_string ctx.Procpool.reply_out ("OK " ^ idx);
      flush ctx.Procpool.reply_out;
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ())
  | exception End_of_file -> ()

let test_tcp_torn_line_discarded () =
  (* A reply torn mid-line by a dying peer must be discarded, not parsed;
     the journal record it raced with still counts the cell completed on
     its first attempt, and the sweep finishes over fresh connections. *)
  with_dir (fun scratch ->
      with_tcp_worker ~serve:torn_reply_serve (fun port ->
          let keys = keys_of 3 in
          let outcomes, journals, dead =
            Procpool.run_jobs
              ~hosts:[ ("127.0.0.1", port) ]
              ~host_respawns:6 ~connect:test_connector ~workers:0 ~respawns:0
              ~retries:1 ~scratch
              ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[]))
              ~keys ()
          in
          ignore dead;
          Array.iteri
            (fun i o ->
              match o with
              | Procpool.Completed { attempts } ->
                check Alcotest.int
                  (Printf.sprintf "cell %d completed on first attempt via journal" i)
                  1 attempts
              | Procpool.Failed { reason; _ } ->
                Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
            outcomes;
          let tbl = values_from journals in
          Array.iteri
            (fun i k ->
              check Alcotest.(option int)
                (Printf.sprintf "value of %s recovered" k)
                (Some (2 * i)) (Hashtbl.find_opt tbl k))
            keys))

let test_tcp_handshake_timeout_abandons_host () =
  (* A host that accepts TCP connections but never completes the handshake
     (this test binds a listener and never accepts, so connects sit in the
     backlog and RDY never comes) must be abandoned once its budget is
     spent and named in the dead-host report — while the sweep completes
     on the remaining pipe worker. *)
  (* the pipe worker is slowed per cell so cells are still pending when the
     handshake deadline expires — abandonment only happens mid-sweep *)
  let slow_body (ctx : Procpool.ctx) =
    let w = Journal.open_writer ctx.Procpool.journal in
    Procpool.serve ctx ~handle:(fun ~index:_ ~attempt:_ ~key ->
        Unix.sleepf 0.15;
        Journal.append w ~key (2 * int_of_string (Filename.basename key));
        Procpool.Done)
  in
  with_dir (fun scratch ->
      match Transport.listen_on ~host:"127.0.0.1" ~port:0 with
      | Error e -> Alcotest.fail ("listen_on: " ^ e)
      | Ok (lfd, port) ->
        Fun.protect
          ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
          (fun () ->
            let keys = keys_of 4 in
            let outcomes, journals, dead =
              Procpool.run_jobs
                ~hosts:[ ("127.0.0.1", port) ]
                ~host_respawns:0 ~handshake_timeout:0.3 ~connect:test_connector
                ~workers:1 ~respawns:0 ~retries:0 ~scratch
                ~spawn:(Procpool.fork_spawner slow_body)
                ~keys ()
            in
            (match dead with
            | [ d ] ->
              check Alcotest.string "dead host named" "127.0.0.1" d.Procpool.dh_host;
              check Alcotest.int "dead port named" port d.Procpool.dh_port;
              Alcotest.(check bool)
                (Printf.sprintf "reason mentions the handshake: %s" d.Procpool.dh_reason)
                true
                (contains ~sub:"handshake" d.Procpool.dh_reason
                && contains ~sub:"budget exhausted" d.Procpool.dh_reason)
            | ds ->
              Alcotest.fail
                (Printf.sprintf "expected exactly one dead host, got %d" (List.length ds)));
            Array.iteri
              (fun i o ->
                match o with
                | Procpool.Completed _ -> ()
                | Procpool.Failed { reason; _ } ->
                  Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
              outcomes;
            let tbl = values_from journals in
            Array.iteri
              (fun i k ->
                check Alcotest.(option int)
                  (Printf.sprintf "value of %s recovered from pipe worker" k)
                  (Some (2 * i)) (Hashtbl.find_opt tbl k))
              keys))

let test_tcp_silent_client_does_not_block () =
  (* A client that connects and never sends its HELLO must not stall the
     standing worker's accept loop: the handshake is read in the forked
     child, so a second coordinator's sweep on the same listener completes
     promptly instead of waiting out the 30 s HELLO deadline. *)
  with_dir (fun scratch ->
      with_tcp_worker ~serve:(body_serve ~kill_on:[]) (fun port ->
          match Transport.connect ~host:"127.0.0.1" ~port ~timeout:5.0 with
          | Error e -> Alcotest.fail ("silent connect: " ^ e)
          | Ok silent ->
            Fun.protect
              ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
              (fun () ->
                let keys = keys_of 3 in
                let t0 = Unix.gettimeofday () in
                let outcomes, journals, dead =
                  Procpool.run_jobs
                    ~hosts:[ ("127.0.0.1", port) ]
                    ~connect:test_connector ~workers:0 ~respawns:0 ~retries:0
                    ~scratch
                    ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[]))
                    ~keys ()
                in
                let elapsed = Unix.gettimeofday () -. t0 in
                Alcotest.(check bool)
                  (Printf.sprintf "sweep finished within 5 s (%.1fs)" elapsed)
                  true (elapsed < 5.0);
                Alcotest.(check int) "no dead hosts" 0 (List.length dead);
                Array.iteri
                  (fun i o ->
                    match o with
                    | Procpool.Completed { attempts } ->
                      check Alcotest.int (Printf.sprintf "cell %d one attempt" i) 1
                        attempts
                    | Procpool.Failed { reason; _ } ->
                      Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
                  outcomes;
                let tbl = values_from journals in
                Array.iteri
                  (fun i k ->
                    check Alcotest.(option int)
                      (Printf.sprintf "value of %s recovered" k)
                      (Some (2 * i)) (Hashtbl.find_opt tbl k))
                  keys)))

(* --- the shared HELLO bootstrap ------------------------------------------ *)

let test_bootstrap_valid_hello () =
  (* A local worker's view: HELLO then a RUN line on stdin, replies on
     stdout.  The child bootstraps on (stdin, stdout) exactly as a re-exec'd
     worker does and reports its context over the reply channel.  Checks the
     ctx fields, that the journal directory was created, that the RUN line
     behind the HELLO is still readable from cmd_in, and that stdout was
     muzzled (noise printed after the bootstrap never reaches the reply
     pipe). *)
  with_dir (fun dir ->
      let journal = Filename.concat dir "nested/sub/worker-3.journal" in
      let hello =
        { Procpool.h_wid = 3; h_sweep = 2; h_journal = journal;
          h_replay = Some "/tmp/replay file.journal";
          h_argv = [ "perf"; "-w"; "select"; "a b\nc" ] }
      in
      let cmd_r, cmd_w = Unix.pipe () in
      let reply_r, reply_w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        Unix.close cmd_w;
        Unix.close reply_r;
        Unix.dup2 cmd_r Unix.stdin;
        Unix.dup2 reply_w Unix.stdout;
        Unix.close cmd_r;
        Unix.close reply_w;
        (match Procpool.bootstrap ~cmd:Unix.stdin ~reply:Unix.stdout () with
        | Error e ->
          print_string ("ERROR " ^ e ^ "\n");
          flush stdout
        | Ok (ctx, argv) ->
          print_string "noise\n";
          flush stdout;
          let oc = ctx.Procpool.reply_out in
          Printf.fprintf oc "%d %d %s %s %s %b %b\n" ctx.Procpool.wid
            ctx.Procpool.sweep
            (Checksum.hex_of_string ctx.Procpool.journal)
            (Checksum.hex_of_string (Option.value ctx.Procpool.replay ~default:"-"))
            (Checksum.hex_of_string (String.concat "\000" argv))
            (Sys.file_exists (Filename.dirname journal))
            (Procpool.in_worker ());
          Printf.fprintf oc "%s\n" (input_line ctx.Procpool.cmd_in);
          flush oc);
        Unix._exit 0
      | pid ->
        Unix.close cmd_r;
        Unix.close reply_w;
        ignore (Transport.send_line cmd_w (Procpool.hello_line hello));
        ignore (Transport.send_line cmd_w "RUN 7 0 6b6579");
        Unix.close cmd_w;
        let ic = Unix.in_channel_of_descr reply_r in
        let lines = In_channel.input_all ic in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        let hex = Checksum.hex_of_string in
        check Alcotest.string "ctx fields, journal dir, RUN line left in cmd_in"
          (Printf.sprintf "3 2 %s %s %s true true\nRUN 7 0 6b6579\n" (hex journal)
             (hex "/tmp/replay file.journal")
             (hex (String.concat "\000" hello.Procpool.h_argv)))
          lines)

let bootstrap_error_cases =
  let hello =
    { Procpool.h_wid = 1; h_sweep = 0; h_journal = "/nonexistent/w.journal";
      h_replay = None; h_argv = [ "perf" ] }
  in
  let line = Procpool.hello_line hello in
  let with_field i v =
    String.split_on_char ' ' line
    |> List.mapi (fun j f -> if j = i then v else f)
    |> String.concat " "
  in
  (* (name, bytes written before the test stops writing, close the pipe?) *)
  [
    ("EOF before any byte", "", true);
    ("EOF mid-line", String.sub line 0 10, true);
    ("bad version", with_field 1 "2" ^ "\n", false);
    ("bad hex journal", with_field 4 "zz" ^ "\n", false);
    ("bad hex argv", line ^ " 0g\n", false);
    ("not a HELLO", "RUN 0 0 00\n", false);
    ("silence past the deadline", "", false);
  ]

let test_bootstrap_rejects () =
  List.iter
    (fun (name, bytes, close) ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.write_substring w bytes 0 (String.length bytes));
          if close then Unix.close w;
          let t0 = Unix.gettimeofday () in
          match Procpool.bootstrap ~timeout:0.3 ~cmd:r ~reply:Unix.stdout () with
          | Ok _ -> Alcotest.fail (name ^ ": accepted")
          | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: one-line diagnostic %S" name e)
              true
              (e <> "" && not (String.contains e '\n'));
            Alcotest.(check bool)
              (name ^ ": within the deadline") true
              (Unix.gettimeofday () -. t0 < 2.0)))
    bootstrap_error_cases;
  Alcotest.(check bool) "rejected HELLOs record no worker context" false
    (Procpool.in_worker ())

(* Pipe and TCP transports must yield identical arbitration: same per-cell
   outcomes (constructor and attempt counts) and same recovered values, for
   any single-kill scenario — the node-loss path is the kill path. *)
let outcome_digest (outcomes, journals, _) =
  let outs =
    Array.to_list outcomes
    |> List.map (function
         | Procpool.Completed { attempts } -> `Completed attempts
         | Procpool.Failed { attempts; transient; _ } -> `Failed (attempts, transient))
  in
  let tbl = values_from journals in
  let vals = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (outs, List.sort compare vals)

let tcp_matches_pipe_prop =
  let gen = QCheck.Gen.(pair (int_range 1 4) (int_range 0 7)) in
  let arb = QCheck.make gen ~print:(fun (n, k) -> Printf.sprintf "(n=%d,k=%d)" n k) in
  let prop (n, kill_seed) =
    let keys = keys_of n in
    let kill_on = [ (Printf.sprintf "cell/%d" (kill_seed mod n), 0) ] in
    let pipe_run =
      with_dir (fun scratch ->
          Procpool.run_jobs ~workers:1 ~respawns:8 ~retries:1 ~scratch
            ~spawn:(Procpool.fork_spawner (worker_body ~kill_on))
            ~keys ())
    in
    let tcp_run =
      with_dir (fun scratch ->
          with_tcp_worker ~serve:(body_serve ~kill_on) (fun port ->
              Procpool.run_jobs
                ~hosts:[ ("127.0.0.1", port) ]
                ~host_respawns:8 ~connect:test_connector ~workers:0 ~respawns:0
                ~retries:1 ~scratch
                ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[]))
                ~keys ()))
    in
    outcome_digest pipe_run = outcome_digest tcp_run
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"TCP arbitration matches pipe arbitration" ~count:8 arb prop)

let test_drain_timeout_kills_straggler () =
  (* A worker that survives FIN must be killed once the configured drain
     grace expires — promptly, with a warning naming it — instead of
     wedging the coordinator for the default 10 s. *)
  with_dir (fun scratch ->
      let keys = keys_of 2 in
      let stderr_copy = Filename.concat scratch "stderr.txt" in
      let saved = Unix.dup Unix.stderr in
      let fd =
        Unix.openfile stderr_copy [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let t0 = Unix.gettimeofday () in
      let outcomes, _, _ =
        Fun.protect
          ~finally:(fun () ->
            flush stderr;
            Unix.dup2 saved Unix.stderr;
            Unix.close saved)
          (fun () ->
            Procpool.run_jobs ~drain_timeout:0.2 ~workers:1 ~respawns:0 ~retries:0
              ~scratch
              ~spawn:
                (Procpool.fork_spawner (fun ctx ->
                     worker_body ~kill_on:[] ctx;
                     Unix.sleep 60))
              ~keys ())
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Array.iteri
        (fun i o ->
          match o with
          | Procpool.Completed _ -> ()
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      Alcotest.(check bool)
        (Printf.sprintf "returned promptly (%.1fs)" elapsed)
        true (elapsed < 5.0);
      Alcotest.(check bool) "warning names the straggler" true
        (contains ~sub:"did not exit within" (read_file stderr_copy)))

let suite =
  [
    ( "journal2.recovery",
      [
        Alcotest.test_case "double-tear recovery" `Quick test_double_tear_recovery;
        Alcotest.test_case "quarantine preserves torn bytes" `Quick
          test_quarantine_preserves_torn_bytes;
        Alcotest.test_case "mid-file bit flip quarantined" `Quick
          test_midfile_bitflip_quarantined;
        test_corruption_property;
      ] );
    ( "journal2.compat",
      [
        Alcotest.test_case "pre-checksum format rejected" `Quick test_old_format_rejected;
        Alcotest.test_case "foreign file rejected" `Quick test_not_a_journal_rejected;
        Alcotest.test_case "merge folds verified records" `Quick test_merge_into;
      ] );
    ( "rescache.claims",
      [
        Alcotest.test_case "claim/release/commit" `Quick test_claim_release_commit;
        Alcotest.test_case "stale lease broken" `Quick test_stale_lease_broken;
        Alcotest.test_case "compute_through protocol" `Quick test_compute_through;
        Alcotest.test_case "write errors counted" `Quick test_write_errors_counted;
      ] );
    ( "procpool",
      [
        Alcotest.test_case "pool completes and values recover" `Quick test_pool_completes;
        Alcotest.test_case "kill, respawn, recover" `Quick test_pool_kill_respawn_recovers;
        Alcotest.test_case "respawn budget exhaustion" `Quick
          test_pool_budget_exhaustion_fails_cleanly;
        Alcotest.test_case "drain timeout kills straggler" `Quick
          test_drain_timeout_kills_straggler;
      ] );
    ( "procpool.tcp",
      [
        Alcotest.test_case "mixed pipe+TCP pool completes" `Quick test_tcp_pool_completes;
        Alcotest.test_case "node kill, reconnect, recover" `Quick
          test_tcp_kill_reconnect_recovers;
        Alcotest.test_case "torn reply line discarded" `Quick test_tcp_torn_line_discarded;
        Alcotest.test_case "handshake timeout abandons host" `Quick
          test_tcp_handshake_timeout_abandons_host;
        Alcotest.test_case "silent client does not block the listener" `Quick
          test_tcp_silent_client_does_not_block;
        tcp_matches_pipe_prop;
      ] );
    ( "procpool.hello",
      [
        Alcotest.test_case "valid HELLO gives the worker context" `Quick
          test_bootstrap_valid_hello;
        Alcotest.test_case "bad or missing HELLO is a one-line error" `Quick
          test_bootstrap_rejects;
      ] );
  ]
