(* Persistent content-addressed result cache. See rescache.mli for the
   contract (digest keying, torn-write discipline, corrupt-entry policy,
   cross-process lease protocol). *)

let format_version = 2

(* Bump this the moment any marshalled result type or measured simulator
   behaviour changes. *)
let code_salt = "pv-rescache-2026-08"

let digest_hex = Checksum.digest_hex

(* --- cache handle ------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;
  corrupt_dropped : int;
}

type t = {
  root : string;
  salt : string; (* effective salt: version + code salt + user salt *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable corrupt_dropped : int;
  mutable tmp_counter : int;
  mutable warned_write_error : bool;
}

let open_dir ?(salt = "") root =
  Files.mkdir_p root;
  {
    root;
    salt = Printf.sprintf "v%d|%s|%s" format_version code_salt salt;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    write_errors = 0;
    corrupt_dropped = 0;
    tmp_counter = 0;
    warned_write_error = false;
  }

let dir t = t.root

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The salted descriptor: digested into the file name, and stored as the
   entry's one journal key so a digest collision is recognised. *)
let salted t ~key = t.salt ^ "\n" ^ key
let entry_base t ~key = digest_hex (salted t ~key)
let entry_path t ~key = Filename.concat t.root (entry_base t ~key ^ ".entry")
let lease_path t ~key = Filename.concat t.root (entry_base t ~key ^ ".lease")

let find (type a) t ~key : a option =
  let path = entry_path t ~key in
  with_lock t (fun () ->
      let found =
        match Files.read_file path with
        | None -> None
        | Some body -> (
            match (Journal.decode body : (string * a) list) with
            | [ (k, v) ] when k = salted t ~key -> Some v
            | [ _ ] -> None (* a digest collision: an honest miss, keep the file *)
            | _ | (exception Journal.Incompatible _) ->
                (try Sys.remove path with Sys_error _ -> ());
                t.corrupt_dropped <- t.corrupt_dropped + 1;
                None)
      in
      (match found with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
      found)

let note_write_error t ~what msg =
  t.write_errors <- t.write_errors + 1;
  if not t.warned_write_error then begin
    t.warned_write_error <- true;
    Printf.eprintf
      "rescache: warning: cache write failed (%s: %s); caching is degraded, \
       results are unaffected (counted as write_errors)\n%!"
      what msg
  end

let store t ~key v =
  let body = Journal.encode ~key:(salted t ~key) v in
  let path = entry_path t ~key in
  with_lock t (fun () ->
      t.tmp_counter <- t.tmp_counter + 1;
      let tmp =
        Filename.concat t.root
          (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ()) t.tmp_counter)
      in
      match
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc body);
        Unix.rename tmp path
      with
      | () -> t.writes <- t.writes + 1
      | exception Sys_error msg ->
          (try Sys.remove tmp with Sys_error _ -> ());
          note_write_error t ~what:"store" msg
      | exception Unix.Unix_error (err, fn, _) ->
          (try Sys.remove tmp with Sys_error _ -> ());
          note_write_error t ~what:fn (Unix.error_message err))

(* --- cross-process claims ---------------------------------------------- *)

type lease = { l_path : string; l_key : string }

let local_host = lazy (try Unix.gethostname () with Unix.Unix_error _ -> "localhost")

(* Lease body: "<pid> <hostname>\n".  The hostname matters once the cache
   root sits on a shared filesystem under multi-host sweeps (--hosts): a
   pid is only meaningful on the host that wrote it, so a claimant on
   another machine must not probe it with kill(2) — pid 4242 being free
   *here* says nothing about the holder over there.  Pre-PR-8 leases
   ("<pid>\n", no host) are treated as local, which preserves their old
   breaking behaviour. *)
let read_lease path =
  match Files.read_file path with
  | None -> None
  | Some body -> (
    match String.split_on_char ' ' (String.trim body) with
    | [ pid ] -> Option.map (fun p -> (p, None)) (int_of_string_opt pid)
    | [ pid; host ] -> Option.map (fun p -> (p, Some host)) (int_of_string_opt pid)
    | _ -> None)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> true

(* A lease is provably stale only when we can actually observe the holder:
   same host (or no host recorded) and the pid is gone.  A remote holder's
   lease is never broken here — its own machine's claimants will, or the
   compute_through patience deadline bounds the wait. *)
let holder_dead (pid, host) =
  (match host with None -> true | Some h -> h = Lazy.force local_host)
  && not (pid_alive pid)

let rec try_claim_n t ~key attempts =
  let path = lease_path t ~key in
  match Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
  | fd ->
      let holder =
        Printf.sprintf "%d %s\n" (Unix.getpid ()) (Lazy.force local_host)
      in
      (try ignore (Unix.write_substring fd holder 0 (String.length holder))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      `Claimed { l_path = path; l_key = key }
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
      match read_lease path with
      | Some holder when holder_dead holder ->
          (* The holder died mid-compute: break the lease and race to
             re-claim it.  If several processes break it at once, O_EXCL
             picks exactly one winner on the retry. *)
          (try Sys.remove path with Sys_error _ -> ());
          if attempts > 0 then try_claim_n t ~key (attempts - 1)
          else `Busy (Some (fst holder))
      | holder -> `Busy (Option.map fst holder))
  | exception Unix.Unix_error _ -> `Busy None

let try_claim t ~key = try_claim_n t ~key 3

let release _t lease = try Sys.remove lease.l_path with Sys_error _ -> ()

let commit t lease v =
  (* Order matters: the entry must be visible before the lease vanishes, so
     a poller that sees the lease disappear is guaranteed a hit (or, on a
     failed store, an honest recompute — never a torn read). *)
  store t ~key:lease.l_key v;
  release t lease

let compute_through ?(patience = 10.0) ?(poll = 0.02) t ~key f =
  match find t ~key with
  | Some v -> (v, `Hit)
  | None -> (
      let rec attempt deadline =
        match try_claim t ~key with
        | `Claimed lease -> (
            match f () with
            | v ->
                commit t lease v;
                (v, `Computed)
            | exception e ->
                release t lease;
                raise e)
        | `Busy _ -> (
            Unix.sleepf poll;
            match find t ~key with
            | Some v -> (v, `Raced)
            | None ->
                if Unix.gettimeofday () > deadline then
                  (* The holder is alive but slow (or wedged): duplicated
                     work beats a deadlock, and store is atomic either way. *)
                  (f (), `Computed)
                else attempt deadline)
      in
      attempt (Unix.gettimeofday () +. patience))

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        writes = t.writes;
        write_errors = t.write_errors;
        corrupt_dropped = t.corrupt_dropped;
      })

let report ?(out = stderr) t =
  let s = stats t in
  Printf.fprintf out
    "rescache: hits=%d misses=%d writes=%d write_errors=%d corrupt_dropped=%d dir=%s\n%!"
    s.hits s.misses s.writes s.write_errors s.corrupt_dropped t.root
