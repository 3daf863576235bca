(* Worker transport abstraction.  See transport.mli for the model; this
   file is deliberately small: byte plumbing (pipes, sockets, newline
   framing, timeouts) lives here, while everything protocol-shaped (what a
   RUN means, how a death is arbitrated) stays in Procpool. *)

(* --- links -------------------------------------------------------------- *)

type peer =
  | Proc of { pid : int }
  | Sock of { host : string; port : int }

type link = { send : Unix.file_descr; recv : Unix.file_descr; peer : peer }

let close_link l =
  (try Unix.close l.send with Unix.Unix_error _ -> ());
  (* Sockets are one descriptor carried twice; pipes are two. *)
  if l.send <> l.recv then
    try Unix.close l.recv with Unix.Unix_error _ -> ()

(* --- line framing ------------------------------------------------------- *)

let send_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd data off (len - off) with
      | 0 -> false
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* Blocking single-line read with a deadline — used only for handshakes
   (listener reading HELLO, tests), never in the coordinator's main loop,
   which does its own select-driven buffering. *)
let read_line_within fd ~timeout =
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> None
        | _ ->
          if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
          else begin
            Buffer.add_char buf (Bytes.get b 0);
            if Buffer.length buf > 1 lsl 20 then None else go ()
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> None)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- host specs --------------------------------------------------------- *)

(* HOST:PORT with RFC 3986-style bracketing for IPv6 literals.  The old
   parser split on the *last* colon, so "[::1]:9000" died with a misleading
   "bad port" and a bare "::1:9000" silently parsed as host "::1" port 9000
   — plausible but almost certainly not what was meant.  Now "[addr]:port"
   is the one way to spell an IPv6 endpoint, and an unbracketed multi-colon
   spec is rejected with a hint instead of guessed at. *)
let parse_hostspec spec =
  let parse_port host port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 ->
      if host = "" then Error (Printf.sprintf "bad host spec %S (empty host)" spec)
      else Ok (host, p)
    | _ -> Error (Printf.sprintf "bad host spec %S (bad port %S)" spec port)
  in
  if String.length spec > 0 && spec.[0] = '[' then
    match String.index_opt spec ']' with
    | None ->
      Error (Printf.sprintf "bad host spec %S (missing ']' after '[')" spec)
    | Some close ->
      let host = String.sub spec 1 (close - 1) in
      let rest = String.sub spec (close + 1) (String.length spec - close - 1) in
      if String.length rest >= 1 && rest.[0] = ':' then
        parse_port host (String.sub rest 1 (String.length rest - 1))
      else
        Error
          (Printf.sprintf "bad host spec %S (expected [HOST]:PORT after ']')" spec)
  else
    match String.index_opt spec ':' with
    | None -> Error (Printf.sprintf "bad host spec %S (expected HOST:PORT)" spec)
    | Some i ->
      if String.rindex spec ':' <> i then
        Error
          (Printf.sprintf
             "bad host spec %S (IPv6 requires [host]:port)" spec)
      else
        parse_port (String.sub spec 0 i)
          (String.sub spec (i + 1) (String.length spec - i - 1))

let parse_hostspecs s =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc item ->
      Result.bind acc (fun hosts ->
          Result.map (fun h -> hosts @ [ h ]) (parse_hostspec item)))
    (Ok []) items

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Some addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> None
    | { Unix.h_addr_list; _ } -> Some h_addr_list.(0)
    | exception Not_found -> None)

(* --- TCP ---------------------------------------------------------------- *)

let listen_on ~host ~port =
  match resolve host with
  | None -> Error (Printf.sprintf "cannot resolve host %S" host)
  | Some addr -> (
    (* Socket family from the resolved address, so "[::1]:port" listens on
       an IPv6 socket instead of failing EAFNOSUPPORT on PF_INET. *)
    let fd =
      Unix.socket
        (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, port)))
        Unix.SOCK_STREAM 0
    in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 16;
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      Ok (fd, actual)
    with Unix.Unix_error (err, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err)))

let connect ~host ~port ~timeout =
  match resolve host with
  | None -> Error (Printf.sprintf "cannot resolve host %S" host)
  | Some addr -> (
    let fd =
      Unix.socket
        (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, port)))
        Unix.SOCK_STREAM 0
    in
    let fail fn err =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
    in
    try
      Unix.set_nonblock fd;
      (match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () -> ()
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
      match Unix.select [] [ fd ] [] timeout with
      | _, [], _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "connect to %s:%d timed out after %.1fs" host port timeout)
      | _ -> (
        match Unix.getsockopt_error fd with
        | Some err -> fail "connect" err
        | None ->
          Unix.clear_nonblock fd;
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          Ok fd)
    with Unix.Unix_error (err, fn, _) -> fail fn err)

let pipe_link ~pid ~send ~recv = { send; recv; peer = Proc { pid } }
let sock_link ~host ~port fd = { send = fd; recv = fd; peer = Sock { host; port } }
