(* Coordinator/worker process pool.  See procpool.mli for the execution
   model; this file is deliberately mechanical — what a cell *is* and how a
   verdict is produced live in the experiment layer (Supervise), which hands
   [serve] a [handle] callback and interprets [run_jobs]' outcomes.

   Wire protocol (newline-framed ASCII, over two pipes per local worker or
   one TCP socket per remote one — see Transport):

     coordinator -> worker   HELLO <ver> <wid> <sweep> <journal> <replay> <argv...>
                                                    (first line, both transports)
                             RUN <index> <attempt> <hex key>
                             PULL
                             FIN
     worker -> coordinator   RDY
                             OK <index>
                             ERR <index> <T|P> <hex reason>
                             JNL <nbytes> followed by nbytes of raw journal

   Keys, failure reasons, paths and argv travel hex-encoded so they can
   never smuggle a newline or space into the framing.  Results never travel
   inside the control protocol: a worker journals the value, replies [OK],
   and the coordinator reads the value back from the worker's journal (on a
   shared filesystem) or pulls the journal's raw checksummed bytes with
   [PULL] after the sweep — so a kill between journal append and reply
   loses only the reply, and the coordinator recovers the value from the
   journal when it reaps the corpse. *)

exception Worker_failure of string

let () =
  Printexc.register_printer (function
    (* The reason is a worker-side [Printexc.to_string]; printing it
       verbatim keeps multi-process failure reports byte-identical to
       single-process ones. *)
    | Worker_failure reason -> Some reason
    | _ -> None)

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> default)
  | None -> default

let default_drain_timeout () = env_float "PV_PROCPOOL_DRAIN_S" 10.0
let default_handshake_timeout () = env_float "PV_PROCPOOL_HANDSHAKE_S" 10.0

(* --- worker-side context ----------------------------------------------- *)

type ctx = {
  wid : int;
  journal : string;
  sweep : int;
  replay : string option;
  cmd_in : in_channel;
  reply_out : out_channel;
}

let worker : ctx option ref = ref None
let worker_ctx () = !worker
let in_worker () = !worker <> None

let worker_arg = "__worker"
let listen_arg = "--listen"

(* --- HELLO: the one way a worker learns its context --------------------- *)

type hello = {
  h_wid : int;
  h_sweep : int;
  h_journal : string;
  h_replay : string option;
  h_argv : string list;
}

let hello_version = 1

let hello_line h =
  let hex = Checksum.hex_of_string in
  String.concat " "
    ([
       "HELLO";
       string_of_int hello_version;
       string_of_int h.h_wid;
       string_of_int h.h_sweep;
       hex h.h_journal;
       (match h.h_replay with None -> "-" | Some p -> hex p);
     ]
    @ List.map hex h.h_argv)

let parse_hello line =
  match String.split_on_char ' ' line with
  | "HELLO" :: ver :: wid :: sweep :: journal :: replay :: argv -> (
    match
      ( int_of_string_opt ver,
        int_of_string_opt wid,
        int_of_string_opt sweep,
        Checksum.string_of_hex journal )
    with
    | Some v, Some h_wid, Some h_sweep, Some h_journal when v = hello_version -> (
      let h_replay =
        if replay = "-" then Some None
        else match Checksum.string_of_hex replay with Some p -> Some (Some p) | None -> None
      in
      match h_replay with
      | None -> None
      | Some h_replay -> (
        let rec decode acc = function
          | [] -> Some (List.rev acc)
          | a :: rest -> (
            match Checksum.string_of_hex a with
            | Some s -> decode (s :: acc) rest
            | None -> None)
        in
        match decode [] argv with
        | Some h_argv -> Some { h_wid; h_sweep; h_journal; h_replay; h_argv }
        | None -> None))
    | _ -> None)
  | _ -> None

let hello_timeout = 30.0

(* Read and act on the HELLO.  The read is unbuffered (one byte at a time),
   so the RUN lines behind it stay in [cmd] for [cmd_in].  The reply channel
   is a private dup taken *before* stdout is pointed at /dev/null: the
   worker re-runs the whole CLI code path, which prints tables and reports
   as it goes, and none of that may leak into the protocol stream (or the
   user's terminal). *)
let bootstrap ?(timeout = hello_timeout) ~cmd ~reply () =
  match Transport.read_line_within cmd ~timeout with
  | None -> Error
      (Printf.sprintf "no HELLO line within %.0fs (silent, closed or oversized)"
         timeout)
  | Some line -> (
    match parse_hello line with
    | None -> Error "malformed HELLO line"
    | Some h -> (
      (* A genuinely remote worker does not share the coordinator's scratch
         tree. *)
      match Files.mkdir_p (Filename.dirname h.h_journal) with
      | exception Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "cannot create journal directory: %s"
             (Unix.error_message err))
      | () ->
        let reply_fd = Unix.dup reply in
        Unix.set_close_on_exec reply_fd;
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 devnull Unix.stdout;
        if Sys.getenv_opt "PV_PROCPOOL_DEBUG" = None then Unix.dup2 devnull Unix.stderr;
        Unix.close devnull;
        let ctx =
          {
            wid = h.h_wid;
            journal = h.h_journal;
            sweep = h.h_sweep;
            replay = h.h_replay;
            cmd_in = Unix.in_channel_of_descr cmd;
            reply_out = Unix.out_channel_of_descr reply_fd;
          }
        in
        worker := Some ctx;
        Ok (ctx, h.h_argv)))

(* Bootstrap, then re-evaluate the CLI on the HELLO's argv; the exit code. *)
let run_worker ~cmd ~reply ~run =
  match bootstrap ~cmd ~reply () with
  | Error e ->
    Printf.eprintf "procpool worker: %s\n%!" e;
    70
  | Ok (_, argv) -> run ~argv

(* --- worker-side serving ----------------------------------------------- *)

type verdict = Done | Fail of { transient : bool; reason : string }

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let serve ctx ~handle =
  send_line ctx.reply_out "RDY";
  let rec loop () =
    match input_line ctx.cmd_in with
    | exception End_of_file -> ()
    | "FIN" -> ()
    | "PULL" ->
      (* Ship the journal's raw checksummed bytes to a coordinator that
         cannot see our filesystem.  Every append flushed, so the file is
         the authoritative committed state; the coordinator re-verifies
         each frame's checksum on load either way. *)
      let body = Option.value (Files.read_file ctx.journal) ~default:"" in
      send_line ctx.reply_out (Printf.sprintf "JNL %d" (String.length body));
      output_string ctx.reply_out body;
      flush ctx.reply_out;
      loop ()
    | line -> (
      match String.split_on_char ' ' line with
      | [ "RUN"; idx; att; hexkey ] -> (
        match
          (int_of_string_opt idx, int_of_string_opt att, Checksum.string_of_hex hexkey)
        with
        | Some index, Some attempt, Some key ->
          (match handle ~index ~attempt ~key with
          | Done -> send_line ctx.reply_out (Printf.sprintf "OK %d" index)
          | Fail { transient; reason } ->
            send_line ctx.reply_out
              (Printf.sprintf "ERR %d %s %s" index
                 (if transient then "T" else "P")
                 (Checksum.hex_of_string reason)));
          loop ()
        | _ -> loop () (* malformed command: skip, stay alive *))
      | _ -> loop ())
  in
  loop ()

(* --- spawners (local pipe workers) -------------------------------------- *)

type spawner = wid:int -> journal:string -> Transport.link

let make_pipes () =
  let cmd_r, cmd_w = Unix.pipe () in
  let reply_r, reply_w = Unix.pipe () in
  (* Parent ends must not leak into workers spawned later: a worker holding
     a sibling's write end would keep that sibling's reply pipe open past
     its death.  (Only protects exec-based spawning; the fork spawner's
     coordinator relies on waitpid, not EOF, for death detection.) *)
  Unix.set_close_on_exec cmd_w;
  Unix.set_close_on_exec reply_r;
  (cmd_r, cmd_w, reply_r, reply_w)

let fork_spawner f : spawner =
 fun ~wid ~journal ->
  let cmd_r, cmd_w, reply_r, reply_w = make_pipes () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close reply_r;
    let ctx =
      {
        wid;
        journal;
        sweep = 0;
        replay = None;
        cmd_in = Unix.in_channel_of_descr cmd_r;
        reply_out = Unix.out_channel_of_descr reply_w;
      }
    in
    (match f ctx with () -> Unix._exit 0 | exception _ -> Unix._exit 71)
  | pid ->
    Unix.close cmd_r;
    Unix.close reply_w;
    Transport.pipe_link ~pid ~send:cmd_w ~recv:reply_r

let reexec_argv : string list option ref = ref None
let set_reexec_argv args = reexec_argv := Some args
let reexec_available () = !reexec_argv <> None

(* The HELLO for one slot, shared by both transports. *)
let hello_for ~sweep ~replay ~wid ~journal =
  match !reexec_argv with
  | Some h_argv ->
    { h_wid = wid; h_sweep = sweep; h_journal = journal; h_replay = replay; h_argv }
  | None -> invalid_arg "Procpool: set_reexec_argv not called"

let reexec_spawner ~sweep ~replay : spawner =
 fun ~wid ~journal ->
  let hello = hello_line (hello_for ~sweep ~replay ~wid ~journal) in
  let cmd_r, cmd_w, reply_r, reply_w = make_pipes () in
  let prog = Sys.executable_name in
  let pid = Unix.create_process prog [| prog; worker_arg |] cmd_r reply_w Unix.stderr in
  Unix.close cmd_r;
  Unix.close reply_w;
  (* A failed write means the child is already dead; waitpid will say so. *)
  ignore (Transport.send_line cmd_w hello);
  Transport.pipe_link ~pid ~send:cmd_w ~recv:reply_r

(* --- TCP connections and standing workers -------------------------------- *)

type connector =
  wid:int -> journal:string -> host:string -> port:int -> timeout:float ->
  (Transport.link, string) result

let tcp_connector ~sweep ~replay : connector =
 fun ~wid ~journal ~host ~port ~timeout ->
  let hello = hello_line (hello_for ~sweep ~replay ~wid ~journal) in
  match Transport.connect ~host ~port ~timeout with
  | Error e -> Error e
  | Ok fd ->
    if Transport.send_line fd hello then Ok (Transport.sock_link ~host ~port fd)
    else begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "handshake write to %s:%d failed" host port)
    end

(* Accept, fork, reap — nothing else.  The HELLO is read in the forked
   child, so a silent client stalls only its own serving process. *)
let standing_accept listen_fd ~serve =
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | _ -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  let rec loop () =
    reap ();
    (match Unix.accept listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | conn, _ -> (
      match Unix.fork () with
      | 0 ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (match serve ~conn with () -> Unix._exit 0 | exception _ -> Unix._exit 71)
      | _pid -> ( try Unix.close conn with Unix.Unix_error _ -> ())));
    loop ()
  in
  loop ()

let standing_worker ~listen ~run =
  match Transport.parse_hostspec listen with
  | Error e ->
    Printf.eprintf "procpool worker: %s\n%!" e;
    exit 70
  | Ok (host, port) -> (
    match Transport.listen_on ~host ~port with
    | Error e ->
      Printf.eprintf "procpool worker: cannot listen on %s:%d: %s\n%!" host port e;
      exit 70
    | Ok (fd, actual) ->
      Printf.eprintf "procpool: worker listening on %s:%d\n%!" host actual;
      standing_accept fd ~serve:(fun ~conn ->
          Unix._exit (run_worker ~cmd:conn ~reply:conn ~run)))

let worker_main args ~run =
  match args with
  | l :: spec :: _ when l = listen_arg -> standing_worker ~listen:spec ~run
  | _ -> exit (run_worker ~cmd:Unix.stdin ~reply:Unix.stdout ~run)

(* --- coordinator -------------------------------------------------------- *)

type outcome =
  | Completed of { attempts : int }
  | Failed of { attempts : int; transient : bool; reason : string }

type dead_host = { dh_host : string; dh_port : int; dh_reason : string }

type wstate = {
  ws_wid : int;
  ws_journal : string;
  mutable ws_link : Transport.link option;  (* None: never connected / closed *)
  ws_buf : Buffer.t;
  mutable ws_ready : bool;  (* sent RDY and has no inflight cell *)
  mutable ws_handshaken : bool;  (* current connection has sent RDY *)
  mutable ws_inflight : (int * int) option;  (* index, attempt *)
  mutable ws_alive : bool;
  mutable ws_eof : bool;  (* socket saw EOF/reset or a failed write *)
  mutable ws_deadline : float;  (* handshake deadline for current connection *)
  ws_remote : (string * int) option;  (* Some (host, port) for TCP slots *)
  mutable ws_budget : int;  (* per-host reconnect budget (TCP slots only) *)
  mutable ws_dead_reason : string;
}

let journal_has path key =
  match Journal.load path with
  | records -> List.exists (fun (k, _) -> k = key) records
  | exception (Journal.Incompatible _ | Sys_error _) -> false

let max_pull_bytes = 1 lsl 30

let run_jobs ?(hosts = []) ?host_respawns ?drain_timeout ?handshake_timeout
    ?connect ~workers ~respawns ~retries ~scratch ~spawn ~(keys : string array) () =
  if workers < 0 then invalid_arg "Procpool.run_jobs: workers must be >= 0";
  if workers = 0 && hosts = [] then
    invalid_arg "Procpool.run_jobs: need at least one worker or host";
  if hosts <> [] && connect = None then
    invalid_arg "Procpool.run_jobs: hosts given without a connector";
  let drain_timeout =
    match drain_timeout with Some t -> t | None -> default_drain_timeout ()
  in
  let handshake_timeout =
    match handshake_timeout with
    | Some t -> t
    | None -> default_handshake_timeout ()
  in
  let host_respawns = match host_respawns with Some r -> r | None -> respawns in
  let n = Array.length keys in
  let outcomes : outcome option array = Array.make n None in
  let dead_hosts = ref [] in
  if n = 0 then ([||], [], [])
  else begin
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add (i, 0) queue
    done;
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let respawn_budget = ref respawns in
    let npipe = min workers n in
    let journal_for wid =
      Filename.concat scratch (Printf.sprintf "worker-%d.journal" wid)
    in
    let spawn_pipe wid =
      let journal = journal_for wid in
      let link = spawn ~wid ~journal in
      {
        ws_wid = wid;
        ws_journal = journal;
        ws_link = Some link;
        ws_buf = Buffer.create 256;
        ws_ready = false;
        ws_handshaken = false;
        ws_inflight = None;
        ws_alive = true;
        ws_eof = false;
        ws_deadline = infinity;  (* pipe death is waitpid's business *)
        ws_remote = None;
        ws_budget = 0;
        ws_dead_reason = "";
      }
    in
    let connect_host ~wid ~host ~port =
      match connect with
      | None -> Error "no connector"
      | Some c ->
        c ~wid ~journal:(journal_for wid) ~host ~port ~timeout:handshake_timeout
    in
    (* TCP slots start disconnected; the death poll drives every connection
       attempt — initial and reconnect alike — out of one per-host budget of
       [host_respawns + 1] attempts, so a host that refuses the very first
       connect is arbitrated (and reported dead) exactly like one that
       drops mid-sweep. *)
    let spawn_tcp i (host, port) =
      let wid = npipe + i in
      {
        ws_wid = wid;
        ws_journal = journal_for wid;
        ws_link = None;
        ws_buf = Buffer.create 256;
        ws_ready = false;
        ws_handshaken = false;
        ws_inflight = None;
        ws_alive = false;
        ws_eof = false;
        ws_deadline = infinity;
        ws_remote = Some (host, port);
        ws_budget = host_respawns + 1;
        ws_dead_reason = "";
      }
    in
    let pool =
      Array.append
        (Array.init npipe spawn_pipe)
        (Array.of_list (List.mapi spawn_tcp hosts))
    in
    let unresolved () = Array.exists (fun o -> o = None) outcomes in
    let resolve idx o = if outcomes.(idx) = None then outcomes.(idx) <- Some o in
    let fail_or_retry idx attempt ~transient ~reason =
      if transient && attempt < retries then Queue.add (idx, attempt + 1) queue
      else resolve idx (Failed { attempts = attempt + 1; transient; reason })
    in
    let handle_reply w line =
      match String.split_on_char ' ' line with
      | [ "RDY" ] ->
        w.ws_ready <- true;
        w.ws_handshaken <- true
      | [ "OK"; idx ] -> (
        match int_of_string_opt idx with
        | Some i ->
          (match w.ws_inflight with
          | Some (j, attempt) when j = i ->
            resolve i (Completed { attempts = attempt + 1 });
            w.ws_inflight <- None;
            w.ws_ready <- true
          | _ -> resolve i (Completed { attempts = 1 }))
        | None -> ())
      | [ "ERR"; idx; cls; hexreason ] -> (
        match (int_of_string_opt idx, Checksum.string_of_hex hexreason) with
        | Some i, Some reason ->
          let transient = cls = "T" in
          let attempt =
            match w.ws_inflight with Some (j, a) when j = i -> a | _ -> 0
          in
          (match w.ws_inflight with
          | Some (j, _) when j = i ->
            w.ws_inflight <- None;
            w.ws_ready <- true
          | _ -> ());
          fail_or_retry i attempt ~transient ~reason
        | _ -> ())
      | _ -> ()
    in
    let drain_buffer w =
      let rec next () =
        let s = Buffer.contents w.ws_buf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some nl ->
          let line = String.sub s 0 nl in
          Buffer.clear w.ws_buf;
          Buffer.add_string w.ws_buf (String.sub s (nl + 1) (String.length s - nl - 1));
          handle_reply w line;
          next ()
      in
      next ()
    in
    (* A partial line left in the buffer when the peer dies (a reply torn by
       a mid-write kill or reset) is simply never completed by a newline —
       drain_buffer ignores it, so torn lines can never be misparsed. *)
    let read_some w =
      match w.ws_link with
      | None -> false
      | Some link -> (
        let b = Bytes.create 4096 in
        match Unix.read link.Transport.recv b 0 4096 with
        | 0 ->
          w.ws_eof <- true;
          false
        | k ->
          Buffer.add_subbytes w.ws_buf b 0 k;
          drain_buffer w;
          true
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          false
        | exception Unix.Unix_error _ ->
          w.ws_eof <- true;
          false)
    in
    let send_to w line =
      match w.ws_link with
      | None -> false
      | Some link ->
        let ok = Transport.send_line link.Transport.send line in
        if not ok then w.ws_eof <- true;
        ok
    in
    let close_link w =
      (match w.ws_link with Some l -> Transport.close_link l | None -> ());
      w.ws_link <- None
    in
    (* Shared arbitration for every death, local or remote: drain raced
       replies, then decide the fate of the inflight cell — if its record
       made it into the worker's journal the work *happened* (a kill between
       journal append and reply loses nothing); an unreadable or absent
       journal (node loss without a shared filesystem) is a lost transient
       attempt that re-queues under the retry budget. *)
    let reap_death w =
      (match w.ws_link with
      | Some l -> (
        try Unix.set_nonblock l.Transport.recv with Unix.Unix_error _ -> ())
      | None -> ());
      let rec drain () = if read_some w then drain () in
      (try drain () with _ -> ());
      (match w.ws_inflight with
      | Some (idx, attempt) when outcomes.(idx) = None ->
        if journal_has w.ws_journal keys.(idx) then
          resolve idx (Completed { attempts = attempt + 1 })
        else
          fail_or_retry idx attempt ~transient:true
            ~reason:(Printexc.to_string (Fault.Killed { index = idx; attempt }))
      | _ -> ());
      w.ws_inflight <- None;
      w.ws_alive <- false;
      w.ws_ready <- false;
      w.ws_handshaken <- false;
      w.ws_eof <- false;
      Buffer.clear w.ws_buf;
      close_link w
    in
    let mark_host_dead w reason =
      w.ws_dead_reason <- reason;
      match w.ws_remote with
      | Some (host, port) ->
        dead_hosts :=
          { dh_host = host; dh_port = port; dh_reason = reason } :: !dead_hosts
      | None -> ()
    in
    (* Node loss: reap like a corpse, then reconnect to the standing worker
       under the per-host budget (each attempt, successful or refused,
       consumes one).  The fresh serving process re-opens the same journal —
       open_writer quarantines any torn frame the loss left behind. *)
    let reconnect w ~why =
      let rec attempt () =
        if w.ws_budget <= 0 then
          mark_host_dead w
            (Printf.sprintf "%s; reconnect budget exhausted" why)
        else begin
          w.ws_budget <- w.ws_budget - 1;
          match w.ws_remote with
          | None -> ()
          | Some (host, port) -> (
            match connect_host ~wid:w.ws_wid ~host ~port with
            | Ok link ->
              w.ws_link <- Some link;
              w.ws_alive <- true;
              w.ws_eof <- false;
              w.ws_ready <- false;
              w.ws_handshaken <- false;
              w.ws_deadline <- Unix.gettimeofday () +. handshake_timeout
            | Error _ -> attempt ())
        end
      in
      attempt ()
    in
    let poll_deaths () =
      Array.iter
        (fun w ->
          if w.ws_alive then begin
            match (w.ws_link, w.ws_remote) with
            | Some link, None -> (
              (* local pipe worker: waitpid is authoritative *)
              let pid =
                match link.Transport.peer with
                | Transport.Proc { pid } -> pid
                | Transport.Sock _ -> assert false
              in
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _ ->
                reap_death w;
                (* Respawn into the same slot (and the same journal: the
                   fresh worker's open_writer quarantines and truncates any
                   torn record — the production torn-write recovery path). *)
                if unresolved () && !respawn_budget > 0 then begin
                  decr respawn_budget;
                  let fresh = spawn ~wid:w.ws_wid ~journal:w.ws_journal in
                  w.ws_link <- Some fresh;
                  w.ws_alive <- true;
                  w.ws_ready <- false;
                  w.ws_handshaken <- false
                end
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap_death w
              | exception Unix.Unix_error _ -> ())
            | _, Some (host, port) ->
              (* remote worker: EOF/reset or handshake silence is the corpse *)
              if w.ws_eof then begin
                reap_death w;
                if unresolved () then
                  reconnect w
                    ~why:(Printf.sprintf "connection to %s:%d lost" host port)
              end
              else if
                (not w.ws_handshaken) && Unix.gettimeofday () > w.ws_deadline
              then begin
                reap_death w;
                if unresolved () then
                  reconnect w
                    ~why:
                      (Printf.sprintf "handshake with %s:%d timed out after %.1fs"
                         host port handshake_timeout)
              end
            | None, None -> ()
          end
          else if
            (* disconnected TCP slot that is not yet abandoned: connect *)
            w.ws_remote <> None && w.ws_dead_reason = "" && unresolved ()
          then
            let host, port = Option.get w.ws_remote in
            reconnect w ~why:(Printf.sprintf "cannot connect to %s:%d" host port))
        pool
    in
    let dispatch () =
      Array.iter
        (fun w ->
          if
            w.ws_alive && w.ws_ready && w.ws_inflight = None
            && not (Queue.is_empty queue)
          then begin
            let idx, attempt = Queue.pop queue in
            if outcomes.(idx) <> None then ()
            else if
              send_to w
                (Printf.sprintf "RUN %d %d %s" idx attempt
                   (Checksum.hex_of_string keys.(idx)))
            then begin
              w.ws_ready <- false;
              w.ws_inflight <- Some (idx, attempt)
            end
            else (* dead pipe/socket: requeue, the death poll will reap it *)
              Queue.add (idx, attempt) queue
          end)
        pool
    in
    let select_replies () =
      let fds =
        Array.to_list pool
        |> List.filter_map (fun w ->
               match w.ws_link with
               | Some l when w.ws_alive -> Some l.Transport.recv
               | _ -> None)
      in
      if fds <> [] then
        match Unix.select fds [] [] 0.2 with
        | readable, _, _ ->
          Array.iter
            (fun w ->
              match w.ws_link with
              | Some l when w.ws_alive && List.mem l.Transport.recv readable ->
                ignore (read_some w)
              | _ -> ())
            pool
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      else Unix.sleepf 0.02 (* all slots dead-but-reconnectable: don't spin *)
    in
    let recoverable w =
      w.ws_alive || (w.ws_remote <> None && w.ws_budget > 0 && w.ws_dead_reason = "")
    in
    (* Main loop: runs until every cell has an outcome or the pool is
       unrecoverable (all workers dead or abandoned, budgets spent). *)
    (* Invariants: every unresolved cell is queued or inflight on a live
       worker; reaping a death either requeues/resolves its inflight cell
       and respawns/reconnects (budget permitting) or leaves the slot dead —
       so "unresolved but no recoverable worker" is exactly the
       unrecoverable state. *)
    while unresolved () && Array.exists recoverable pool do
      poll_deaths ();
      dispatch ();
      select_replies ()
    done;
    (* Anything still unresolved lost its workers: fail it rather than hang. *)
    Queue.iter
      (fun (idx, attempt) ->
        resolve idx
          (Failed
             {
               attempts = attempt;
               transient = true;
               reason = "worker pool exhausted (respawn budget spent)";
             }))
      queue;
    Array.iteri
      (fun idx o ->
        if o = None then
          outcomes.(idx) <-
            Some
              (Failed
                 {
                   attempts = 0;
                   transient = true;
                   reason = "worker pool exhausted (respawn budget spent)";
                 }))
      outcomes;
    (* Pull remote journal segments before FIN: on a shared filesystem the
       local file already exists and wins; without one, the pulled bytes
       materialize the worker's journal locally so value recovery and the
       checkpoint merge need no filesystem in common.  Stray lines (a late
       RDY from a reconnect that got no work) are dropped; the payload is
       raw checksummed frames that Journal.load re-verifies anyway. *)
    let pull_journal w =
      if w.ws_alive && w.ws_handshaken && w.ws_remote <> None && send_to w "PULL"
      then begin
        let deadline = Unix.gettimeofday () +. drain_timeout in
        let rec parse () =
          let s = Buffer.contents w.ws_buf in
          match String.index_opt s '\n' with
          | None -> `More
          | Some nl -> (
            let line = String.sub s 0 nl in
            match String.split_on_char ' ' line with
            | [ "JNL"; len ] -> (
              match int_of_string_opt len with
              | Some len when len >= 0 && len <= max_pull_bytes ->
                if String.length s - (nl + 1) >= len then
                  `Done (String.sub s (nl + 1) len)
                else `More
              | _ -> `Fail)
            | _ ->
              Buffer.clear w.ws_buf;
              Buffer.add_string w.ws_buf
                (String.sub s (nl + 1) (String.length s - nl - 1));
              parse ())
        in
        let rec wait () =
          match parse () with
          | `Done payload ->
            if (not (Sys.file_exists w.ws_journal)) && payload <> "" then begin
              try
                Files.mkdir_p (Filename.dirname w.ws_journal);
                let oc = open_out_bin w.ws_journal in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> output_string oc payload)
              with Sys_error _ -> ()
            end
          | `Fail -> ()
          | `More ->
            if Unix.gettimeofday () > deadline then ()
            else begin
              (match w.ws_link with
              | Some l -> (
                match Unix.select [ l.Transport.recv ] [] [] 0.2 with
                | [], _, _ -> ()
                | _ ->
                  (* raw read: do NOT drain_buffer — the payload is bytes *)
                  let b = Bytes.create 65536 in
                  (match Unix.read l.Transport.recv b 0 65536 with
                  | 0 -> w.ws_eof <- true
                  | k -> Buffer.add_subbytes w.ws_buf b 0 k
                  | exception Unix.Unix_error _ -> w.ws_eof <- true)
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
              | None -> w.ws_eof <- true);
              if w.ws_eof then () else wait ()
            end
        in
        wait ()
      end
    in
    Array.iter pull_journal pool;
    (* Orderly shutdown: FIN, grace period, then SIGKILL stragglers (with a
       one-line warning naming the worker).  TCP links just close — the
       remote serving process sees EOF and exits; its standing listener
       stays up for the next sweep. *)
    Array.iter (fun w -> if w.ws_alive then ignore (send_to w "FIN")) pool;
    Array.iter
      (fun w ->
        if w.ws_remote <> None then begin
          w.ws_alive <- false;
          close_link w
        end)
      pool;
    let deadline = Unix.gettimeofday () +. drain_timeout in
    let rec wait_exits () =
      let pending = Array.exists (fun w -> w.ws_alive) pool in
      if pending then begin
        Array.iter
          (fun w ->
            if w.ws_alive then
              let pid =
                match w.ws_link with
                | Some { Transport.peer = Transport.Proc { pid }; _ } -> pid
                | _ -> -1
              in
              if pid < 0 then begin
                w.ws_alive <- false;
                close_link w
              end
              else
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> ()
                | _ ->
                  w.ws_alive <- false;
                  close_link w
                | exception Unix.Unix_error _ ->
                  w.ws_alive <- false;
                  close_link w)
          pool;
        if Array.exists (fun w -> w.ws_alive) pool then
          if Unix.gettimeofday () > deadline then
            Array.iter
              (fun w ->
                if w.ws_alive then begin
                  (match w.ws_link with
                  | Some { Transport.peer = Transport.Proc { pid }; _ } ->
                    Printf.eprintf
                      "procpool: warning: worker %d (pid %d) did not exit within \
                       %.1fs of FIN (PV_PROCPOOL_DRAIN_S); killing it\n%!"
                      w.ws_wid pid drain_timeout;
                    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
                  | _ -> ());
                  w.ws_alive <- false;
                  close_link w
                end)
              pool
          else begin
            Unix.sleepf 0.02;
            wait_exits ()
          end
      end
    in
    wait_exits ();
    (match old_sigpipe with
    | Some b -> (try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
    | None -> ());
    let final =
      Array.map
        (function
          | Some o -> o
          | None ->
            Failed { attempts = 0; transient = true; reason = "unresolved cell" })
        outcomes
    in
    let journals =
      List.init (npipe + List.length hosts) journal_for
      |> List.filter Sys.file_exists
    in
    (final, journals, List.rev !dead_hosts)
  end
