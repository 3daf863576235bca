(* Typed metric registry.  See metrics.mli for the contract; the key design
   constraint is determinism: snapshots are name-sorted and floats render
   through a fixed round-trip format, so exported JSON is byte-identical
   for any -j. *)

let nbuckets = 32

type hist_state = { counts : int array; mutable total : int; mutable sum : int }

type instrument =
  | I_int of int ref
  | I_float of float ref
  | I_hist of hist_state

type value =
  | Int of int
  | Float of float
  | Hist of { counts : int array; total : int; sum : int }

type snapshot = (string * value) list

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let type_conflict name =
  invalid_arg (Printf.sprintf "Metrics: %S already registered with another type" name)

let int_ref t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_int r) -> r
  | Some _ -> type_conflict name
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.tbl name (I_int r);
      r

let incr ?(by = 1) t name =
  let r = int_ref t name in
  r := !r + by

let set_int t name v = int_ref t name := v

let set_float t name v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Metrics: %S set to a non-finite float" name);
  match Hashtbl.find_opt t.tbl name with
  | Some (I_float r) -> r := v
  | Some _ -> type_conflict name
  | None -> Hashtbl.replace t.tbl name (I_float (ref v))

(* Bucket 0: v <= 0.  Bucket i >= 1: 2^(i-1) <= v <= 2^i - 1, i.e. i is the
   bit-length of v; the last bucket absorbs the overflow.  Computed in O(1)
   via a byte-wide bit-length table: values of 25+ bits all land in the
   overflow bucket (nbuckets = 32), so three shifts cover the whole range. *)
let msb8 =
  Array.init 256 (fun i ->
      let bits = ref 0 and x = ref i in
      while !x > 0 do
        bits := !bits + 1;
        x := !x lsr 1
      done;
      !bits)

let bucket_of v =
  if v <= 0 then 0
  else if v lsr 8 = 0 then Array.unsafe_get msb8 v
  else if v lsr 16 = 0 then 8 + Array.unsafe_get msb8 (v lsr 8)
  else if v lsr 24 = 0 then 16 + Array.unsafe_get msb8 (v lsr 16)
  else if v lsr 31 = 0 then 24 + Array.unsafe_get msb8 (v lsr 24)
  else nbuckets - 1

let bucket_lo i =
  if i <= 0 then min_int
  else 1 lsl (i - 1)

let hist_state t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_hist h) -> h
  | Some _ -> type_conflict name
  | None ->
      let h = { counts = Array.make nbuckets 0; total = 0; sum = 0 } in
      Hashtbl.replace t.tbl name (I_hist h);
      h

type hist = hist_state

let hist = hist_state

let hist_observe h v =
  let b = bucket_of v in
  Array.unsafe_set h.counts b (Array.unsafe_get h.counts b + 1);
  h.total <- h.total + 1;
  h.sum <- h.sum + v

let observe t name v = hist_observe (hist_state t name) v

let declare_hist t name = ignore (hist_state t name)

let snapshot t =
  Hashtbl.fold
    (fun name ins acc ->
      let v =
        match ins with
        | I_int r -> Int !r
        | I_float r -> Float !r
        | I_hist h -> Hist { counts = Array.copy h.counts; total = h.total; sum = h.sum }
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

(* %.17g round-trips any finite double and maps equal doubles to equal
   strings, which is all the determinism contract needs. *)
let float_to_json f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let value_to_json = function
  | Int n -> string_of_int n
  | Float f -> float_to_json f
  | Hist { counts; total; sum } ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf "{\"buckets\":[";
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int c))
        counts;
      Buffer.add_string buf (Printf.sprintf "],\"total\":%d,\"sum\":%d}" total sum);
      Buffer.contents buf

let snapshot_to_json ?(indent = 2) snap =
  let pad = String.make indent ' ' in
  let close_pad = String.make (max 0 (indent - 2)) ' ' in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf pad;
      Buffer.add_string buf (Printf.sprintf "\"%s\": %s" (Json.escape name) (value_to_json v)))
    snap;
  Buffer.add_char buf '\n';
  Buffer.add_string buf close_pad;
  Buffer.add_char buf '}';
  Buffer.contents buf
