(* Persistent content-addressed result cache. See rescache.mli for the
   contract (digest keying, torn-write discipline, corrupt-entry policy,
   cross-process lease protocol). *)

let format_version = 1

(* NOT bumped for PR 7: the envelope format and every cached payload type
   are unchanged; only the journal (a different file family) changed
   format.  Bump this the moment any marshalled result type or measured
   simulator behaviour changes. *)
let code_salt = "pv-rescache-2026-08"

(* Digesting and the hex codec are delegated to Checksum (shared with the
   journal framing and the procpool wire encoding). *)
let digest_hex = Checksum.digest_hex
let hex_of_string = Checksum.hex_of_string
let string_of_hex = Checksum.string_of_hex

(* --- cache handle ------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;
  evictions : int;
  corrupt_dropped : int;
}

type t = {
  root : string;
  salt : string; (* effective salt: version + code salt + user salt *)
  max_entries : int option;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable evictions : int;
  mutable corrupt_dropped : int;
  mutable tmp_counter : int;
  mutable warned_write_error : bool;
}

let open_dir ?(salt = "") ?max_entries root =
  String.iter
    (fun c ->
      if c = '"' || c = '\\' || c = '\n' || c = '\r' then
        invalid_arg "Rescache.open_dir: salt must not contain quotes, backslashes or newlines")
    salt;
  (match max_entries with
  | Some n when n <= 0 -> invalid_arg "Rescache.open_dir: max_entries must be positive"
  | _ -> ());
  Files.mkdir_p root;
  {
    root;
    salt = Printf.sprintf "v%d|%s|%s" format_version code_salt salt;
    max_entries;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    write_errors = 0;
    evictions = 0;
    corrupt_dropped = 0;
    tmp_counter = 0;
    warned_write_error = false;
  }

let dir t = t.root

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_base t ~key = digest_hex (t.salt ^ "\n" ^ key)
let entry_path t ~key = Filename.concat t.root (entry_base t ~key ^ ".json")
let lease_path t ~key = Filename.concat t.root (entry_base t ~key ^ ".lease")

(* --- envelope ---------------------------------------------------------- *)

(* Salts are restricted and the key travels hex-encoded in the authoritative
   field, so only the human-readable ["key"] comment needs escaping. *)
let render_envelope t ~key payload =
  let b = Buffer.create (512 + (2 * String.length payload)) in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"rescache_version\": %d,\n" format_version);
  Buffer.add_string b (Printf.sprintf "  \"salt\": \"%s\"," t.salt);
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "  \"key\": \"%s\",\n" (Json.escape key));
  Buffer.add_string b (Printf.sprintf "  \"key_hex\": \"%s\",\n" (hex_of_string key));
  Buffer.add_string b (Printf.sprintf "  \"payload_digest\": \"%s\",\n" (digest_hex payload));
  Buffer.add_string b (Printf.sprintf "  \"payload_hex\": \"%s\"\n" (hex_of_string payload));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Extract the string value of ["field": "..."] from a flat envelope. The
   values we look up never contain escaped quotes (salt charset is enforced,
   hex fields are [0-9a-f]), so scanning to the closing quote is exact. *)
let extract_string body ~field =
  let pat = Printf.sprintf "\"%s\": \"" field in
  let plen = String.length pat in
  let blen = String.length body in
  let rec find i =
    if i + plen > blen then None
    else if String.sub body i plen = pat then
      let start = i + plen in
      match String.index_from_opt body start '"' with
      | Some stop -> Some (String.sub body start (stop - start))
      | None -> None
    else find (i + 1)
  in
  find 0

(* Parse an envelope; [Ok payload] only when every check passes for this
   cache's salt and the stored key equals [key]. [Error `Corrupt] covers
   damage and salt/version mismatch (both are dropped); [Error `Other_key]
   is a digest collision — an honest miss that must NOT delete the file. *)
let parse_envelope t ~key body =
  match
    ( extract_string body ~field:"salt",
      extract_string body ~field:"key_hex",
      extract_string body ~field:"payload_digest",
      extract_string body ~field:"payload_hex" )
  with
  | Some salt, Some key_hex, Some payload_digest, Some payload_hex -> (
      if salt <> t.salt then Error `Corrupt
      else
        match (string_of_hex key_hex, string_of_hex payload_hex) with
        | Some stored_key, Some payload ->
            if stored_key <> key then Error `Other_key
            else if digest_hex payload <> payload_digest then Error `Corrupt
            else Ok payload
        | _ -> Error `Corrupt)
  | _ -> Error `Corrupt

let find (type a) t ~key : a option =
  let path = entry_path t ~key in
  with_lock t (fun () ->
      match Files.read_file path with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some body -> (
          match parse_envelope t ~key body with
          | Ok payload -> (
              match (Marshal.from_string payload 0 : a) with
              | v ->
                  t.hits <- t.hits + 1;
                  Some v
              | exception _ ->
                  (try Sys.remove path with Sys_error _ -> ());
                  t.corrupt_dropped <- t.corrupt_dropped + 1;
                  t.misses <- t.misses + 1;
                  None)
          | Error `Other_key ->
              t.misses <- t.misses + 1;
              None
          | Error `Corrupt ->
              (try Sys.remove path with Sys_error _ -> ());
              t.corrupt_dropped <- t.corrupt_dropped + 1;
              t.misses <- t.misses + 1;
              None))

(* Only .json entries count toward the size bound — .lease files are
   transient claims, not content, and must never be evicted from under a
   live holder. *)
let entries t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> [||]
  | names -> Array.of_list (List.filter (fun n -> Filename.check_suffix n ".json") (Array.to_list names))

let evict_over_limit t =
  match t.max_entries with
  | None -> ()
  | Some limit ->
      let names = entries t in
      if Array.length names > limit then begin
        let stamped =
          Array.to_list names
          |> List.filter_map (fun n ->
                 let p = Filename.concat t.root n in
                 match Unix.stat p with
                 | st -> Some (st.Unix.st_mtime, n)
                 | exception Unix.Unix_error _ -> None)
          (* Explicit victim order: oldest mtime first, equal mtimes broken
             by digest filename.  Filesystems with 1-second mtime
             granularity make same-second entries tie constantly, and the
             set a warm run finds must not depend on readdir order —
             eviction is part of the byte-identity contract under
             max_entries. *)
          |> List.sort (fun (ta, na) (tb, nb) ->
                 match Float.compare ta tb with 0 -> String.compare na nb | c -> c)
        in
        let excess = List.length stamped - limit in
        List.iteri
          (fun i (_, n) ->
            if i < excess then begin
              (try Sys.remove (Filename.concat t.root n) with Sys_error _ -> ());
              t.evictions <- t.evictions + 1
            end)
          stamped
      end

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
  let payload = Marshal.to_string v [] in
  let body = render_envelope t ~key payload in
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
      | () ->
          t.writes <- t.writes + 1;
          evict_over_limit t
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
        evictions = t.evictions;
        corrupt_dropped = t.corrupt_dropped;
      })

let observe_metrics m ~prefix t =
  let s = stats t in
  Metrics.set_int m (prefix ^ ".hits") s.hits;
  Metrics.set_int m (prefix ^ ".misses") s.misses;
  Metrics.set_int m (prefix ^ ".writes") s.writes;
  Metrics.set_int m (prefix ^ ".write_errors") s.write_errors;
  Metrics.set_int m (prefix ^ ".evictions") s.evictions;
  Metrics.set_int m (prefix ^ ".corrupt_dropped") s.corrupt_dropped

let report ?(out = stderr) t =
  let s = stats t in
  Printf.fprintf out
    "rescache: hits=%d misses=%d writes=%d write_errors=%d evictions=%d corrupt_dropped=%d dir=%s\n%!"
    s.hits s.misses s.writes s.write_errors s.evictions s.corrupt_dropped t.root
