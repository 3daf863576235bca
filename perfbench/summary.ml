(* The benchmark's own arithmetic: order statistics of timing samples and
   the simulated-vs-paper error.  Percentiles are nearest-rank, through
   [Pv_util.Stats.nearest_rank], so every figure is a member of the
   sample. *)

module Stats = Pv_util.Stats

let at_rank sorted p = sorted.(Stats.nearest_rank ~p ~n:(Array.length sorted) - 1)

(* Percentiles tried for the tail figure, highest first. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile of [tail_ladder] that leaves at least ten samples
   strictly beyond its rank; [None] when the sample is too small for any. *)
let tail_percentile n =
  List.find_opt (fun p -> n - Stats.nearest_rank ~p ~n >= 10) tail_ladder

type t = {
  n : int;
  p10 : float;
  median : float;
  q1 : float;
  q3 : float;
  tail : (float * float) option;  (** (percentile, value) *)
  max : float;
}

let summarize samples =
  if samples = [] then invalid_arg "Summary.summarize: no samples";
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  {
    n;
    p10 = at_rank sorted 10.0;
    median = at_rank sorted 50.0;
    q1 = at_rank sorted 25.0;
    q3 = at_rank sorted 75.0;
    tail = Option.map (fun p -> (p, at_rank sorted p)) (tail_percentile n);
    max = sorted.(n - 1);
  }

(* Average overheads (%) that the paper reports and Perf_report quotes in
   its figure captions: LEBench execution-time overhead and datacenter
   throughput loss, per scheme.  These are the paper's gem5 numbers, not
   measurements of real hardware. *)
let paper_lebench =
  [
    ("FENCE", 47.5); ("PERSPECTIVE-STATIC", 4.1); ("PERSPECTIVE", 3.6);
    ("PERSPECTIVE++", 3.5); ("DOM", 23.1); ("STT", 3.7);
  ]

let paper_apps =
  [ ("FENCE", 5.7); ("PERSPECTIVE-STATIC", 1.3); ("PERSPECTIVE", 1.2); ("PERSPECTIVE++", 1.2) ]

(* Mean absolute gap, in percentage points, between the simulated average
   overheads of the two matrices and the paper's.  Every paper figure must
   have a simulated counterpart. *)
let paper_error_pp ~lebench ~apps =
  let gaps simulated paper =
    List.map
      (fun (label, want) ->
        match List.assoc_opt label simulated with
        | Some got -> Float.abs (got -. want)
        | None -> invalid_arg ("Summary.paper_error_pp: no simulated column " ^ label))
      paper
  in
  Stats.mean
    (gaps (Pv_experiments.Perf_report.average_overhead lebench) paper_lebench
    @ gaps (Pv_experiments.Perf_report.average_throughput_overhead apps) paper_apps)
