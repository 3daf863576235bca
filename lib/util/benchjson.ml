(* BENCH_<date>.json trajectory entries: see benchjson.mli for the contract.
   The JSON subset used here (objects, arrays, strings, numbers, and nothing
   else) is parsed by a small recursive-descent reader so the repo keeps its
   zero-JSON-dependency rule. *)

type cell = {
  workload : string;
  scheme : string;
  sim_cycles : int;
  committed : int;
  wall_s : float;
  cps : float;
}

type t = {
  schema_version : int;
  date : string;
  label : string;
  scale : float;
  jobs : int;
  cells : cell list;
  total_sim_cycles : int;
  total_wall_s : float;
  agg_cps : float;
}

let schema_version = 1

let cps_of ~sim_cycles ~wall_s =
  if wall_s <= 0.0 then 0.0 else float_of_int sim_cycles /. wall_s

let cell ~workload ~scheme ~sim_cycles ~committed ~wall_s =
  { workload; scheme; sim_cycles; committed; wall_s; cps = cps_of ~sim_cycles ~wall_s }

let make ~date ~label ~scale ~jobs cells =
  let total_sim_cycles = List.fold_left (fun a c -> a + c.sim_cycles) 0 cells in
  let total_wall_s = List.fold_left (fun a c -> a +. c.wall_s) 0.0 cells in
  {
    schema_version;
    date;
    label;
    scale;
    jobs;
    cells;
    total_sim_cycles;
    total_wall_s;
    agg_cps = cps_of ~sim_cycles:total_sim_cycles ~wall_s:total_wall_s;
  }

(* --- emission ----------------------------------------------------------- *)

let float_str f = Printf.sprintf "%.6f" f

let cell_to_json c =
  Printf.sprintf
    {|{"workload":"%s","scheme":"%s","sim_cycles":%d,"committed":%d,"wall_s":%s,"cps":%s}|}
    (Json.escape c.workload) (Json.escape c.scheme) c.sim_cycles c.committed
    (float_str c.wall_s) (float_str c.cps)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema_version\": %d,\n" t.schema_version);
  Buffer.add_string buf (Printf.sprintf "  \"date\": \"%s\",\n" (Json.escape t.date));
  Buffer.add_string buf (Printf.sprintf "  \"label\": \"%s\",\n" (Json.escape t.label));
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %s,\n" (float_str t.scale));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" t.jobs);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf ("    " ^ cell_to_json c))
    t.cells;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"total_sim_cycles\": %d,\n" t.total_sim_cycles);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_s\": %s,\n" (float_str t.total_wall_s));
  Buffer.add_string buf (Printf.sprintf "  \"agg_cps\": %s\n" (float_str t.agg_cps));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ~path t =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "bench" ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_json t);
  close_out oc;
  Sys.rename tmp path

(* --- minimal JSON reader ------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'u' ->
          advance ();
          let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
          if !pos + 4 > n || not (String.for_all is_hex (String.sub s !pos 4)) then
            fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Jobj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Jarr (elems [])
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- decoding ----------------------------------------------------------- *)

let known_entry_fields =
  [ "schema_version"; "date"; "label"; "scale"; "jobs"; "cells";
    "total_sim_cycles"; "total_wall_s"; "agg_cps" ]

let known_cell_fields =
  [ "workload"; "scheme"; "sim_cycles"; "committed"; "wall_s"; "cps" ]

let get fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> raise (Bad ("missing field " ^ name))

let as_str name = function
  | Jstr s -> s
  | _ -> raise (Bad (name ^ ": expected string"))

let as_float name = function
  | Jnum f -> f
  | _ -> raise (Bad (name ^ ": expected number"))

let as_int name j =
  let f = as_float name j in
  if Float.is_integer f then int_of_float f
  else raise (Bad (name ^ ": expected integer"))

let reject_unknown ~known ~what fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then
        raise (Bad (Printf.sprintf "unknown %s field %S" what k)))
    fields

let decode_cell = function
  | Jobj fields ->
    reject_unknown ~known:known_cell_fields ~what:"cell" fields;
    {
      workload = as_str "workload" (get fields "workload");
      scheme = as_str "scheme" (get fields "scheme");
      sim_cycles = as_int "sim_cycles" (get fields "sim_cycles");
      committed = as_int "committed" (get fields "committed");
      wall_s = as_float "wall_s" (get fields "wall_s");
      cps = as_float "cps" (get fields "cps");
    }
  | _ -> raise (Bad "cell: expected object")

let decode = function
  | Jobj fields ->
    reject_unknown ~known:known_entry_fields ~what:"entry" fields;
    let cells =
      match get fields "cells" with
      | Jarr l -> List.map decode_cell l
      | _ -> raise (Bad "cells: expected array")
    in
    {
      schema_version = as_int "schema_version" (get fields "schema_version");
      date = as_str "date" (get fields "date");
      label = as_str "label" (get fields "label");
      scale = as_float "scale" (get fields "scale");
      jobs = as_int "jobs" (get fields "jobs");
      cells;
      total_sim_cycles = as_int "total_sim_cycles" (get fields "total_sim_cycles");
      total_wall_s = as_float "total_wall_s" (get fields "total_wall_s");
      agg_cps = as_float "agg_cps" (get fields "agg_cps");
    }
  | _ -> raise (Bad "entry: expected object")

let parse text =
  match decode (parse_json text) with
  | t -> Ok t
  | exception Bad msg -> Error msg

let load ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* --- validation --------------------------------------------------------- *)

let close_enough a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.schema_version <> schema_version then
    err "unsupported schema_version %d (want %d)" t.schema_version schema_version
  else if String.length t.date <> 10 then err "date %S is not YYYY-MM-DD" t.date
  else if t.label = "" then err "empty label"
  else if t.cells = [] then err "no cells"
  else if t.jobs < 1 then err "jobs < 1"
  else
    let rec check_cells = function
      | [] -> Ok ()
      | c :: rest ->
        if c.workload = "" || c.scheme = "" then err "cell with empty workload/scheme"
        else if c.sim_cycles < 0 || c.committed < 0 then
          err "%s/%s: negative counters" c.workload c.scheme
        else if c.wall_s < 0.0 then err "%s/%s: negative wall_s" c.workload c.scheme
        else if not (close_enough c.cps (cps_of ~sim_cycles:c.sim_cycles ~wall_s:c.wall_s))
        then err "%s/%s: cps inconsistent with sim_cycles/wall_s" c.workload c.scheme
        else check_cells rest
    in
    match check_cells t.cells with
    | Error _ as e -> e
    | Ok () ->
      let total_cycles = List.fold_left (fun a c -> a + c.sim_cycles) 0 t.cells in
      let total_wall = List.fold_left (fun a c -> a +. c.wall_s) 0.0 t.cells in
      if total_cycles <> t.total_sim_cycles then
        err "total_sim_cycles %d <> sum of cells %d" t.total_sim_cycles total_cycles
      else if not (close_enough total_wall t.total_wall_s) then
        err "total_wall_s inconsistent with cells"
      else if
        not (close_enough t.agg_cps (cps_of ~sim_cycles:total_cycles ~wall_s:total_wall))
      then err "agg_cps inconsistent with totals"
      else Ok ()

(* --- trajectory --------------------------------------------------------- *)

let filename ~date = Printf.sprintf "BENCH_%s.json" date

(* Secondary trajectories (label <> "cycles") carry the label in the
   basename so the families never collide on a date. *)
let filename_for ~label ~date =
  if label = "cycles" then filename ~date
  else Printf.sprintf "BENCH_%s_%s.json" label date

let is_bench_file name =
  String.length name > String.length "BENCH_.json"
  && String.sub name 0 6 = "BENCH_"
  && Filename.check_suffix name ".json"

let latest_in ~dir ?excluding ?label () =
  match Sys.readdir dir with
  | entries ->
    let candidates =
      Array.to_list entries
      |> List.filter (fun name -> is_bench_file name && Some name <> excluding)
      (* Newest first.  Within one label family the basenames share a prefix,
         so lexicographic order is date order; across families the [label]
         filter below decides, never the name comparison. *)
      |> List.sort (fun a b -> String.compare b a)
    in
    let wanted name =
      match label with
      | None -> true
      | Some l -> (
        match load ~path:(Filename.concat dir name) with
        | Ok t -> t.label = l
        | Error _ -> false)
    in
    Option.map (Filename.concat dir) (List.find_opt wanted candidates)
  | exception Sys_error _ -> None

let delta_pct ~prev ~cur =
  if prev.agg_cps <= 0.0 then 0.0
  else (cur.agg_cps /. prev.agg_cps -. 1.0) *. 100.0
