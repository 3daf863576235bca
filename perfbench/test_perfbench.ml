(* Tests of the benchmark's own arithmetic: order statistics, span self
   time and the simulated-vs-paper error. *)

open Perfbench

let check = Alcotest.check
let close = Alcotest.float 1e-9

(* --- order statistics ---------------------------------------------------- *)

let floats n = List.init n (fun i -> float_of_int (n - i))

let test_quartiles () =
  let s = Summary.summarize [ 5.; 1.; 4.; 2.; 3. ] in
  check Alcotest.int "n" 5 s.Summary.n;
  check close "p10 of 5 is the least" 1. s.Summary.p10;
  check close "median" 3. s.Summary.median;
  check close "q1" 2. s.Summary.q1;
  check close "q3" 4. s.Summary.q3;
  check close "max" 5. s.Summary.max;
  (* nearest rank on 1..10: ceil(2.5) = 3, ceil(5) = 5, ceil(7.5) = 8 *)
  let s = Summary.summarize (floats 10) in
  check close "p10 of 10 is the 1st" 1. s.Summary.p10;
  check close "p10 of 11 is the 2nd" 2. (Summary.summarize (floats 11)).Summary.p10;
  check close "median of 10 is the 5th" 5. s.Summary.median;
  check close "q1 of 10 is the 3rd" 3. s.Summary.q1;
  check close "q3 of 10 is the 8th" 8. s.Summary.q3;
  (* even count: nearest rank picks the lower middle, a sample member *)
  check close "median of 2" 1. (Summary.summarize [ 2.; 1. ]).Summary.median;
  Alcotest.check_raises "empty" (Invalid_argument "Summary.summarize: no samples") (fun () ->
      ignore (Summary.summarize []))

let test_tail_rule () =
  let tail n = Summary.tail_percentile n in
  check Alcotest.(option (float 0.)) "10 samples: none leaves ten beyond" None (tail 10);
  check Alcotest.(option (float 0.)) "19 samples: still none" None (tail 19);
  check Alcotest.(option (float 0.)) "20 samples: the median" (Some 50.) (tail 20);
  check Alcotest.(option (float 0.)) "40 samples: p75" (Some 75.) (tail 40);
  check Alcotest.(option (float 0.)) "100 samples: p90" (Some 90.) (tail 100);
  check Alcotest.(option (float 0.)) "207 samples: p95" (Some 95.) (tail 207);
  check Alcotest.(option (float 0.)) "1000 samples: p99" (Some 99.) (tail 1000);
  check Alcotest.(option (float 0.)) "10000 samples: p99.9" (Some 99.9) (tail 10000);
  (* the value is the sample at that nearest rank, with >= 10 beyond it *)
  match (Summary.summarize (floats 100)).Summary.tail with
  | Some (p, v) ->
    check close "p90 of 1..100" 90. p;
    check close "value of p90" 90. v
  | None -> Alcotest.fail "100 samples must have a tail percentile"

(* --- span self time ------------------------------------------------------ *)

let mk id ?(parent = -1) name start stop =
  { Spans.id; name; start; stop; parent; cell = "c"; domain = 0 }

let test_self_time () =
  let spans =
    [
      mk 0 "cell" 0. 10.;
      mk 1 ~parent:0 "a" 1. 3.;
      mk 2 ~parent:0 "b" 2. 5.;
      (* overlaps [a]; the union counts once *)
      mk 3 ~parent:0 "a" 8. 12.;
      (* runs past its parent: clipped at 10 *)
      mk 4 ~parent:1 "leaf" 1.5 2.5;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_time_of spans) in
  check close "root: 10 - |[1,5] u [8,10]|" 4. (List.assoc 0 self);
  check close "child with a grandchild" 1. (List.assoc 1 self);
  check close "leaf b" 3. (List.assoc 2 self);
  check close "leaf past its parent" 4. (List.assoc 3 self);
  check close "grandchild" 1. (List.assoc 4 self);
  let by_name = List.map (fun l -> (l.Spans.layer, l)) (Spans.self_times spans) in
  let a = List.assoc "a" by_name in
  check Alcotest.int "a calls" 2 a.Spans.calls;
  check close "a busy" 6. a.Spans.busy;
  check close "a self" 5. a.Spans.self;
  check Alcotest.(list string) "first-appearance order" [ "cell"; "a"; "b"; "leaf" ]
    (List.map fst by_name)

let test_recorder () =
  let t = Spans.create () in
  (try
     Spans.with_span t ~cell:"k" "outer" (fun () ->
         Spans.with_span t "inner" ignore;
         Spans.with_span t "raises" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Spans.with_span t "after" ignore;
  match Spans.spans t with
  | [ outer; inner; raises; after ] ->
    check Alcotest.int "outer is a root" (-1) outer.Spans.parent;
    check Alcotest.int "inner's parent" outer.Spans.id inner.Spans.parent;
    check Alcotest.string "cell inherited" "k" inner.Spans.cell;
    check Alcotest.int "a raising span is still recorded" outer.Spans.id raises.Spans.parent;
    check Alcotest.int "the stack unwinds after an exception" (-1) after.Spans.parent;
    check Alcotest.string "no cell outside a cell" "" after.Spans.cell;
    let file = Filename.temp_file "spans" ".json" in
    Spans.write_chrome ~file [ outer; inner ];
    let text = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    let count sub =
      let n = ref 0 in
      String.iteri
        (fun i _ ->
          if i + String.length sub <= String.length text
             && String.sub text i (String.length sub) = sub
          then incr n)
        text;
      !n
    in
    check Alcotest.int "one complete event per span" 2 (count "\"ph\":\"X\"");
    check Alcotest.int "trace event array" 1 (count "\"traceEvents\":[")
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l)

(* --- paper error ----------------------------------------------------------- *)

let run label cycles =
  {
    Pv_experiments.Perf.label;
    workload = "w";
    cycles;
    committed = 0;
    counters = Pv_uarch.Pipeline.zero_counters ();
    kernel_cycle_fraction = 0.;
    isv_hit_rate = None;
    dsv_hit_rate = None;
    slab_utilization = 0.;
    slab_frees = 0;
    slab_page_returns = 0;
    isv_pages_populated = 0;
    isv_metadata_bytes = 0;
    units = 1;
    metrics = Pv_util.Metrics.snapshot (Pv_util.Metrics.create ());
    events = [];
  }

let row name cells = (name, List.map (fun (l, c) -> run l c) cells)

let test_paper_error () =
  (* LEBench overheads are mean execution-time overheads over the rows:
     FENCE (50 + 40) / 2 = 45, PERSPECTIVE-STATIC 4, PERSPECTIVE 3,
     PERSPECTIVE++ 3, DOM 20, STT 4. *)
  let lebench =
    [
      row "a"
        [ ("UNSAFE", 100); ("FENCE", 150); ("PERSPECTIVE-STATIC", 104); ("PERSPECTIVE", 103);
          ("PERSPECTIVE++", 103); ("DOM", 120); ("STT", 104) ];
      row "b"
        [ ("UNSAFE", 200); ("FENCE", 280); ("PERSPECTIVE-STATIC", 208); ("PERSPECTIVE", 206);
          ("PERSPECTIVE++", 206); ("DOM", 240); ("STT", 208) ];
    ]
  in
  (* Apps overheads are throughput losses 1 - base/run: FENCE 1 - 100/125
     = 20%, every Perspective variant 1 - 100/100 = 0%. *)
  let apps =
    [
      row "x"
        [ ("UNSAFE", 100); ("FENCE", 125); ("PERSPECTIVE-STATIC", 100); ("PERSPECTIVE", 100);
          ("PERSPECTIVE++", 100) ];
    ]
  in
  let gaps =
    [ 47.5 -. 45.; 4.1 -. 4.; 3.6 -. 3.; 3.5 -. 3.; 23.1 -. 20.; 4. -. 3.7;
      20. -. 5.7; 1.3; 1.2; 1.2 ]
  in
  let want = List.fold_left ( +. ) 0. gaps /. 10. in
  check (Alcotest.float 1e-6) "mean absolute gap in pp" want
    (Summary.paper_error_pp ~lebench ~apps);
  let no_dom = List.map (fun (n, runs) -> (n, List.filter (fun r -> r.Pv_experiments.Perf.label <> "DOM") runs)) lebench in
  Alcotest.check_raises "a paper column must be simulated"
    (Invalid_argument "Summary.paper_error_pp: no simulated column DOM") (fun () ->
      ignore (Summary.paper_error_pp ~lebench:no_dom ~apps))

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "median and quartiles by nearest rank" `Quick test_quartiles;
          Alcotest.test_case "highest percentile with ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "paper_error_pp on a hand-built matrix" `Quick test_paper_error;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts covered child time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting and chrome output" `Quick test_recorder;
        ] );
    ]
