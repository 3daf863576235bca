(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded from the benchmark's own code, around calls into each
   layer's public functions, never from inside the program.  Each span keeps
   its name, start and end (seconds since the epoch, as measured), the span
   that caused it, the sweep cell it belongs to and the domain that ran it.
   Nothing is written until the run ends: [write_chrome] dumps the spans as
   Chrome Trace Event JSON (Perfetto, chrome://tracing) and [self_times]
   aggregates them into per-layer busy and self time. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  cell : string;  (** the sweep cell the span belongs to; [""] if none *)
  domain : int;
}

type t = { next : int Atomic.t; lock : Mutex.t; mutable spans : span list }

let create () = { next = Atomic.make 0; lock = Mutex.create (); spans = [] }

(* The open spans of the running domain, innermost first, as (id, cell). *)
let open_spans : (int * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let with_span t ?cell name f =
  let stack = Domain.DLS.get open_spans in
  let parent, inherited = match !stack with (p, c) :: _ -> (p, c) | [] -> (-1, "") in
  let cell = Option.value cell ~default:inherited in
  let id = Atomic.fetch_and_add t.next 1 in
  stack := (id, cell) :: !stack;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    stack := List.tl !stack;
    record t
      { id; name; start; stop; parent; cell; domain = (Domain.self () :> int) }
  in
  Fun.protect ~finally:finish f

let spans t =
  Mutex.lock t.lock;
  let l = t.spans in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.id b.id) l

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of its interval
   that its child spans cover. *)
let self_time_of spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type layer = { layer : string; calls : int; busy : float; self : float }

(* Per-name totals, in order of first appearance. *)
let self_times spans =
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name { layer = s.name; calls = 1; busy = duration s; self }
      | Some l ->
        Hashtbl.replace tbl s.name
          { l with calls = l.calls + 1; busy = l.busy +. duration s; self = l.self +. self })
    (self_time_of spans);
  List.rev_map (Hashtbl.find tbl) !order

let self_time_table spans =
  let module Tab = Pv_util.Tab in
  let roots = List.fold_left (fun acc s -> if s.parent < 0 then acc +. duration s else acc) 0.0 spans in
  let tab =
    Tab.create ~title:"Per-layer self time (traced run)"
      ~header:
        [
          ("Span", Tab.Left); ("Calls", Tab.Right); ("Busy s", Tab.Right);
          ("Self s", Tab.Right); ("Self share", Tab.Right);
        ]
  in
  List.iter
    (fun l ->
      Tab.row tab
        [
          l.layer; string_of_int l.calls; Printf.sprintf "%.4f" l.busy;
          Printf.sprintf "%.4f" l.self;
          (if roots > 0.0 then Tab.pct (100.0 *. l.self /. roots) else "n/a");
        ])
    (self_times spans);
  Tab.caption tab
    "Self time = span duration minus the time its child spans cover.  Shares are \
     of the summed root-span time (sweep cells plus rendering steps).";
  tab

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome Trace Event format: one complete ("X") event per span, timestamps
   in microseconds from the first span, one thread lane per domain. *)
let write_chrome ~file spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"cell\":%s}}"
            (json_string s.name) s.domain
            ((s.start -. t0) *. 1e6)
            (duration s *. 1e6)
            s.id s.parent (json_string s.cell))
        spans;
      output_string oc "\n]}\n")
