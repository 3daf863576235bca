(* Unit and property tests for Pv_util: deterministic RNG, statistics,
   bitsets and table rendering. *)

module Rng = Pv_util.Rng
module Stats = Pv_util.Stats
module Bitset = Pv_util.Bitset
module Tab = Pv_util.Tab
module Metrics = Pv_util.Metrics
module Transport = Pv_util.Transport
module Benchjson = Pv_util.Benchjson

let check = Alcotest.check

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.bits a) (Rng.bits b)

let test_rng_split () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  let x = Rng.bits child and y = Rng.bits a in
  Alcotest.(check bool) "split streams differ" true (x <> y)

(* Known-answer tests against the published SplitMix64 reference outputs
   (Steele, Lea & Flood; also the Vigna reference implementation).  Values
   are the full unsigned 64-bit words, so compare their decimal renderings. *)
let kat seed expected () =
  let r = Rng.create seed in
  List.iter
    (fun want -> check Alcotest.string "splitmix64 word" want (Printf.sprintf "%Lu" (Rng.int64 r)))
    expected

let test_rng_kat_seed0 =
  kat 0 [ "16294208416658607535"; "7960286522194355700"; "487617019471545679" ]

let test_rng_kat_seed1234567 =
  kat 1234567
    [
      "6457827717110365317";
      "3203168211198807973";
      "9817491932198370423";
      "4593380528125082431";
      "16408922859458223821";
    ]

(* Split independence: draws from a child never perturb the parent's stream,
   and two children split at different points differ from each other. *)
let rng_split_independence_prop =
  QCheck.Test.make ~name:"rng split leaves the parent stream untouched" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, skip) ->
      let a = Rng.create seed and b = Rng.create seed in
      for _ = 1 to skip do
        ignore (Rng.bits a);
        ignore (Rng.bits b)
      done;
      let child = Rng.split a in
      ignore (Rng.split b);
      (* Drain the child; the parent must continue exactly like its twin. *)
      for _ = 1 to 16 do
        ignore (Rng.bits child)
      done;
      List.init 8 (fun _ -> Rng.bits a) = List.init 8 (fun _ -> Rng.bits b))

let rng_copy_prop =
  QCheck.Test.make ~name:"rng copy is a perfect fork" ~count:100 QCheck.small_nat
    (fun seed ->
      let a = Rng.create seed in
      ignore (Rng.bits a);
      let b = Rng.copy a in
      List.init 16 (fun _ -> Rng.bits a) = List.init 16 (fun _ -> Rng.bits b))

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_in_range () =
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.in_range r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 3 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0)

let test_rng_chance_rate () =
  let r = Rng.create 4 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_pick_weighted_bias () =
  let r = Rng.create 21 in
  let counts = Hashtbl.create 2 in
  let table = Rng.weighted [| ("a", 9.0); ("b", 1.0) |] in
  for _ = 1 to 10_000 do
    let v = Rng.pick r table in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  Alcotest.(check bool) "90/10 split approx" true (a > 8_700 && a < 9_300)

(* The linear-scan weighted choice that [Rng.pick] replaced, kept verbatim
   as the oracle: [pick] must return the same value and consume the same
   single draw, so every planted corpus stays byte-identical. *)
let oracle_pick_weighted t pairs =
  if Array.length pairs = 0 then invalid_arg "Rng.pick_weighted: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. Float.max w 0.0) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: non-positive total weight";
  let target = Rng.float t total in
  let rec go i acc =
    if i = Array.length pairs - 1 then fst pairs.(i)
    else
      let _, w = pairs.(i) in
      let acc = acc +. Float.max w 0.0 in
      if target < acc then fst pairs.(i) else go (i + 1) acc
  in
  go 0 0.0

(* Weights mixing zeros, negatives and ties; lengths 0 (rejected) and 1
   included. *)
let weights_arb =
  let open QCheck.Gen in
  let weight =
    frequency
      [
        (4, float_range 0.001 100.0);
        (2, return 0.0);
        (1, float_range (-50.0) (-0.001));
        (2, oneofl [ 1.0; 2.5 ]);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(array float)
    (frequency [ (1, array_size (return 1) weight); (6, array_size (int_range 0 40) weight) ])

let rng_pick_oracle_prop =
  QCheck.Test.make ~name:"Rng.pick = linear-scan oracle (value and RNG state)" ~count:500
    QCheck.(triple int weights_arb (int_range 1 20))
    (fun (seed, ws, draws) ->
      let pairs = Array.mapi (fun i w -> (i, w)) ws in
      let r_oracle = Rng.create seed and r_pick = Rng.create seed in
      match Rng.weighted pairs with
      | exception Invalid_argument _ -> (
        match oracle_pick_weighted r_oracle pairs with
        | exception Invalid_argument _ -> true
        | _ -> false)
      | table ->
        List.for_all
          (fun _ ->
            let expected = oracle_pick_weighted r_oracle pairs in
            let got = Rng.pick r_pick table in
            expected = got && Rng.int64 (Rng.copy r_oracle) = Rng.int64 (Rng.copy r_pick))
          (List.init draws Fun.id))

let test_shuffle_permutation () =
  let r = Rng.create 31 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  (* Regression: empty input used to return a silent 0.0, which flowed
     into tables as a fake measurement. *)
  Alcotest.check_raises "empty mean raises"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_stats_mean_opt () =
  (match Stats.mean_opt [] with
  | None -> ()
  | Some v -> Alcotest.failf "mean_opt [] = Some %f, expected None" v);
  match Stats.mean_opt [ 1.0; 3.0 ] with
  | Some v -> check (Alcotest.float 1e-9) "mean_opt" 2.0 v
  | None -> Alcotest.fail "mean_opt [1;3] = None"

let test_stats_geomean () =
  check (Alcotest.float 1e-9) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_geomean_rejects () =
  let reject name xs =
    Alcotest.check_raises name (Invalid_argument "Stats.geomean: non-positive input")
      (fun () -> ignore (Stats.geomean xs))
  in
  reject "zero" [ 1.0; 0.0; 4.0 ];
  reject "negative" [ 2.0; -3.0 ];
  reject "nan" [ 1.0; Float.nan ]

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant stddev" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "known stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  check (Alcotest.float 1e-9) "singleton stddev" 0.0 (Stats.stddev [ 42.0 ]);
  Alcotest.check_raises "empty stddev raises"
    (Invalid_argument "Stats.stddev: empty list") (fun () ->
      ignore (Stats.stddev []))

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  check (Alcotest.float 0.0) "min" 1.0 lo;
  check (Alcotest.float 0.0) "max" 3.0 hi

let test_stats_overhead () =
  check (Alcotest.float 1e-9) "overhead" 50.0 (Stats.percent_overhead ~baseline:100.0 150.0)

let test_stats_zero_baseline () =
  Alcotest.check_raises "percent_overhead"
    (Invalid_argument "Stats.percent_overhead: zero baseline") (fun () ->
      ignore (Stats.percent_overhead ~baseline:0.0 5.0));
  Alcotest.check_raises "normalized" (Invalid_argument "Stats.normalized: zero baseline")
    (fun () -> ignore (Stats.normalized ~baseline:0.0 5.0))

let test_stats_ratio_pct () =
  check (Alcotest.float 1e-9) "half" 50.0 (Stats.ratio_pct ~num:1 ~den:2);
  check (Alcotest.float 1e-9) "zero num" 0.0 (Stats.ratio_pct ~num:0 ~den:7);
  Alcotest.check_raises "zero den"
    (Invalid_argument "Stats.ratio_pct: zero denominator") (fun () ->
      ignore (Stats.ratio_pct ~num:3 ~den:0))

let pos_floats = QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.0))

let stats_geomean_prop =
  QCheck.Test.make ~name:"geomean lies between min and max" ~count:200 pos_floats
    (fun xs ->
      let g = Stats.geomean xs in
      let lo, hi = Stats.min_max xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let stats_geomean_scale_prop =
  QCheck.Test.make ~name:"geomean scales multiplicatively" ~count:200 pos_floats
    (fun xs ->
      let k = 3.0 in
      let scaled = Stats.geomean (List.map (fun x -> k *. x) xs) in
      abs_float (scaled -. (k *. Stats.geomean xs)) < 1e-6 *. (1.0 +. scaled))

let stats_stddev_prop =
  QCheck.Test.make ~name:"stddev is non-negative and shift-invariant" ~count:200 pos_floats
    (fun xs ->
      let s = Stats.stddev xs in
      let shifted = Stats.stddev (List.map (fun x -> x +. 100.0) xs) in
      s >= 0.0 && abs_float (s -. shifted) < 1e-6)

let stats_min_max_prop =
  QCheck.Test.make ~name:"min_max brackets every element" ~count:200 pos_floats
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      List.for_all (fun x -> lo <= x && x <= hi) xs)

let stats_mean_prop =
  QCheck.Test.make ~name:"mean of n copies is the value" ~count:200
    QCheck.(pair (float_range 0.5 100.0) (int_range 1 50))
    (fun (v, n) ->
      abs_float (Stats.mean (List.init n (fun _ -> v)) -. v) < 1e-9)

let test_counter () =
  let c = Stats.counter () in
  Stats.add c 2.0;
  Stats.add c 4.0;
  check Alcotest.int "count" 2 (Stats.count c);
  check (Alcotest.float 1e-9) "total" 6.0 (Stats.total c);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.counter_mean c)

let test_counter_moments () =
  let c = Stats.counter () in
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  List.iter (Stats.add c) xs;
  check (Alcotest.float 1e-9) "sum_sq" 232.0 (Stats.counter_sum_sq c);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.counter_min c);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.counter_max c);
  check (Alcotest.float 1e-6) "stddev matches list stddev" (Stats.stddev xs)
    (Stats.counter_stddev c);
  let empty = Stats.counter () in
  check (Alcotest.float 1e-9) "empty stddev" 0.0 (Stats.counter_stddev empty);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.counter_min: empty counter")
    (fun () -> ignore (Stats.counter_min empty));
  Alcotest.check_raises "empty max" (Invalid_argument "Stats.counter_max: empty counter")
    (fun () -> ignore (Stats.counter_max empty))

let test_percentile () =
  let xs = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  check (Alcotest.float 1e-9) "p5 is min" 15.0 (Stats.percentile xs ~p:5.0);
  check (Alcotest.float 1e-9) "p30" 20.0 (Stats.percentile xs ~p:30.0);
  check (Alcotest.float 1e-9) "p40" 20.0 (Stats.percentile xs ~p:40.0);
  check (Alcotest.float 1e-9) "p50" 35.0 (Stats.percentile xs ~p:50.0);
  check (Alcotest.float 1e-9) "p100 is max" 50.0 (Stats.percentile xs ~p:100.0);
  check (Alcotest.float 1e-9) "p0 is min" 15.0 (Stats.percentile xs ~p:0.0);
  check (Alcotest.float 1e-9) "singleton" 7.0 (Stats.percentile [ 7.0 ] ~p:99.0);
  check (Alcotest.float 1e-9) "unsorted input" 35.0
    (Stats.percentile [ 50.0; 15.0; 35.0; 40.0; 20.0 ] ~p:50.0)

let test_percentile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile [] ~p:50.0));
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [ 1.0 ] ~p:100.5));
  Alcotest.check_raises "p < 0" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [ 1.0 ] ~p:(-1.0)))

(* Known-answer tests for the nearest rank, over samples [1.; 2.; ...; n.]
   where the value at rank r is simply [float r].  The p70/n=10 case is the
   bug this PR fixes: the float rank path evaluated 0.7 *. 10. as
   7.000000000000001 and ceiled to rank 8, returning 8.0 instead of 7.0. *)
let test_percentile_kats () =
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  let kat ~p ~n expected_rank =
    check Alcotest.int
      (Printf.sprintf "nearest_rank p%g n=%d" p n)
      expected_rank
      (Stats.nearest_rank ~p ~n);
    check (Alcotest.float 0.0)
      (Printf.sprintf "percentile p%g n=%d" p n)
      (float_of_int expected_rank)
      (Stats.percentile (one_to n) ~p)
  in
  (* n = 3: ceil of 0.75 / 1.5 / 2.1 / 2.7 / 2.97 *)
  kat ~p:25.0 ~n:3 1;
  kat ~p:50.0 ~n:3 2;
  kat ~p:70.0 ~n:3 3;
  kat ~p:90.0 ~n:3 3;
  kat ~p:99.0 ~n:3 3;
  (* n = 10: ceil of 2.5 / 5 / 7 / 9 / 9.9 — p70 is the regression case *)
  kat ~p:25.0 ~n:10 3;
  kat ~p:50.0 ~n:10 5;
  kat ~p:70.0 ~n:10 7;
  kat ~p:90.0 ~n:10 9;
  kat ~p:99.0 ~n:10 10;
  (* n = 100: every rank boundary is exact *)
  kat ~p:25.0 ~n:100 25;
  kat ~p:50.0 ~n:100 50;
  kat ~p:70.0 ~n:100 70;
  kat ~p:90.0 ~n:100 90;
  kat ~p:99.0 ~n:100 99;
  (* fractional percentile as used by the load sweep's p999 column *)
  check Alcotest.int "nearest_rank p99.9 n=1000" 999
    (Stats.nearest_rank ~p:99.9 ~n:1000);
  check Alcotest.int "nearest_rank p99.9 n=10" 10 (Stats.nearest_rank ~p:99.9 ~n:10)

(* The integer rank must agree with exact rational arithmetic
   ceil(p*n/100) for every integer percentile — precisely the cases the
   float path got wrong. *)
let nearest_rank_exact_prop =
  QCheck.Test.make ~name:"nearest_rank matches exact rational ceil for integer p"
    ~count:500
    QCheck.(pair (int_range 0 100) (int_range 1 2000))
    (fun (p, n) ->
      let exact = max 1 (((p * n) + 99) / 100) in
      Stats.nearest_rank ~p:(float_of_int p) ~n = exact)

let percentile_monotone_prop =
  QCheck.Test.make ~name:"percentile is monotone in p and hits min/max" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 40) (float_range (-50.0) 50.0))
        (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let lo_v = Stats.percentile xs ~p:lo and hi_v = Stats.percentile xs ~p:hi in
      let min_v, max_v = Stats.min_max xs in
      lo_v <= hi_v
      && Stats.percentile xs ~p:0.0 = min_v
      && Stats.percentile xs ~p:100.0 = max_v
      && List.mem lo_v xs)

let percentile_member_prop =
  QCheck.Test.make ~name:"counter min/max agree with percentile extremes" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.1 1000.0))
    (fun xs ->
      let c = Stats.counter () in
      List.iter (Stats.add c) xs;
      Stats.counter_min c = Stats.percentile xs ~p:0.0
      && Stats.counter_max c = Stats.percentile xs ~p:100.0
      && abs_float (Stats.counter_stddev c -. Stats.stddev xs)
         < 1e-6 *. (1.0 +. Stats.stddev xs))

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check Alcotest.int "empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check Alcotest.int "three" 3 (Bitset.count b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 63);
  check Alcotest.int "two" 2 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob set" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 10)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  check Alcotest.(list int) "union" [ 1; 2; 3; 4 ] (Bitset.elements (Bitset.union a b));
  check Alcotest.(list int) "inter" [ 3 ] (Bitset.elements (Bitset.inter a b));
  check Alcotest.(list int) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  Alcotest.(check bool) "subset yes" true (Bitset.subset (Bitset.inter a b) a)

let test_bitset_copy_isolated () =
  let a = Bitset.of_list 8 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.set b 2;
  Alcotest.(check bool) "original untouched" false (Bitset.mem a 2)

let bitset_prop =
  QCheck.Test.make ~name:"bitset count matches elements"
    ~count:200
    QCheck.(small_list (int_bound 63))
    (fun l ->
      let b = Bitset.of_list 64 l in
      Bitset.count b = List.length (List.sort_uniq compare l))

let bitset_union_prop =
  QCheck.Test.make ~name:"bitset union is commutative and contains both"
    ~count:200
    QCheck.(pair (small_list (int_bound 63)) (small_list (int_bound 63)))
    (fun (l1, l2) ->
      let a = Bitset.of_list 64 l1 and b = Bitset.of_list 64 l2 in
      let u = Bitset.union a b in
      Bitset.equal u (Bitset.union b a) && Bitset.subset a u && Bitset.subset b u)

(* Set-algebra laws against the stdlib integer set as the reference model. *)
module IntSet = Set.Make (Int)

let bitset_pair = QCheck.(pair (small_list (int_bound 63)) (small_list (int_bound 63)))

let model_agrees op model (l1, l2) =
  let a = Bitset.of_list 64 l1 and b = Bitset.of_list 64 l2 in
  let sa = IntSet.of_list l1 and sb = IntSet.of_list l2 in
  Bitset.elements (op a b) = IntSet.elements (model sa sb)

let bitset_model_union_prop =
  QCheck.Test.make ~name:"bitset union matches Set.union" ~count:300 bitset_pair
    (model_agrees Bitset.union IntSet.union)

let bitset_model_inter_prop =
  QCheck.Test.make ~name:"bitset inter matches Set.inter" ~count:300 bitset_pair
    (model_agrees Bitset.inter IntSet.inter)

let bitset_model_diff_prop =
  QCheck.Test.make ~name:"bitset diff matches Set.diff" ~count:300 bitset_pair
    (model_agrees Bitset.diff IntSet.diff)

let bitset_model_subset_prop =
  QCheck.Test.make ~name:"bitset subset matches Set.subset" ~count:300 bitset_pair
    (fun (l1, l2) ->
      let a = Bitset.of_list 64 l1 and b = Bitset.of_list 64 l2 in
      Bitset.subset a b = IntSet.subset (IntSet.of_list l1) (IntSet.of_list l2))

let bitset_algebra_prop =
  QCheck.Test.make ~name:"bitset distributivity and De Morgan-ish laws" ~count:300
    QCheck.(triple (small_list (int_bound 63)) (small_list (int_bound 63))
              (small_list (int_bound 63)))
    (fun (l1, l2, l3) ->
      let a = Bitset.of_list 64 l1
      and b = Bitset.of_list 64 l2
      and c = Bitset.of_list 64 l3 in
      (* a ∩ (b ∪ c) = (a ∩ b) ∪ (a ∩ c) *)
      Bitset.equal (Bitset.inter a (Bitset.union b c))
        (Bitset.union (Bitset.inter a b) (Bitset.inter a c))
      (* a \ (b ∪ c) = (a \ b) ∩ (a \ c) *)
      && Bitset.equal (Bitset.diff a (Bitset.union b c))
           (Bitset.inter (Bitset.diff a b) (Bitset.diff a c)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_tab_render () =
  let t = Tab.create ~title:"T" ~header:[ ("a", Tab.Left); ("b", Tab.Right) ] in
  Tab.row t [ "x"; "1" ];
  Tab.row t [ "yy" ];
  Tab.caption t "some-note";
  let s = Tab.to_string t in
  Alcotest.(check bool) "title" true (contains s "== T ==");
  Alcotest.(check bool) "row padded" true (contains s "yy");
  Alcotest.(check bool) "caption" true (contains s "some-note")

let test_tab_csv () =
  let t = Tab.create ~title:"T" ~header:[ ("a", Tab.Left); ("b", Tab.Right) ] in
  Tab.row t [ "x,1"; "2" ];
  Tab.row t [ "he said \"hi\"" ];
  let csv = Tab.to_csv t in
  Alcotest.(check bool) "header line" true (contains csv "a,b\n");
  Alcotest.(check bool) "comma quoted" true (contains csv "\"x,1\",2");
  Alcotest.(check bool) "quotes doubled" true (contains csv "\"he said \"\"hi\"\"\"")

let test_tab_formats () =
  check Alcotest.string "pct" "3.5%" (Tab.pct 3.5);
  check Alcotest.string "times" "1.57x" (Tab.times 1.57);
  check Alcotest.string "fl" "2.00" (Tab.fl 2.0)

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_counters_and_gauges () =
  let r = Metrics.create () in
  Metrics.incr r "a.count";
  Metrics.incr ~by:4 r "a.count";
  Metrics.set_int r "a.gauge" 7;
  Metrics.set_float r "a.rate" 0.5;
  let s = Metrics.snapshot r in
  check Alcotest.(option bool) "counter" (Some true)
    (Option.map (( = ) (Metrics.Int 5)) (Metrics.find s "a.count"));
  check Alcotest.(option bool) "gauge" (Some true)
    (Option.map (( = ) (Metrics.Int 7)) (Metrics.find s "a.gauge"));
  check Alcotest.(option bool) "float" (Some true)
    (Option.map (( = ) (Metrics.Float 0.5)) (Metrics.find s "a.rate"))

let test_metrics_snapshot_sorted () =
  let r = Metrics.create () in
  List.iter (Metrics.incr r) [ "z.last"; "a.first"; "m.mid" ];
  let names = List.map fst (Metrics.snapshot r) in
  check Alcotest.(list string) "name order" [ "a.first"; "m.mid"; "z.last" ] names

let test_metrics_type_conflicts () =
  let r = Metrics.create () in
  Metrics.incr r "x";
  Alcotest.check_raises "int vs float"
    (Invalid_argument "Metrics: \"x\" already registered with another type")
    (fun () -> Metrics.set_float r "x" 1.0);
  Alcotest.check_raises "int vs hist"
    (Invalid_argument "Metrics: \"x\" already registered with another type")
    (fun () -> Metrics.observe r "x" 1)

let test_metrics_nonfinite_rejected () =
  let r = Metrics.create () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Metrics: \"y\" set to a non-finite float")
    (fun () -> Metrics.set_float r "y" Float.nan)

let test_metrics_hist_bucket_edges () =
  (* bucket 0: v <= 0; bucket i >= 1: [2^(i-1), 2^i - 1]; last absorbs. *)
  check Alcotest.int "nonpositive" 0 (Metrics.bucket_of 0);
  check Alcotest.int "negative" 0 (Metrics.bucket_of (-5));
  check Alcotest.int "one" 1 (Metrics.bucket_of 1);
  check Alcotest.int "two" 2 (Metrics.bucket_of 2);
  check Alcotest.int "three" 2 (Metrics.bucket_of 3);
  check Alcotest.int "four" 3 (Metrics.bucket_of 4);
  check Alcotest.int "seven" 3 (Metrics.bucket_of 7);
  check Alcotest.int "eight" 4 (Metrics.bucket_of 8);
  check Alcotest.int "1023" 10 (Metrics.bucket_of 1023);
  check Alcotest.int "1024" 11 (Metrics.bucket_of 1024);
  check Alcotest.int "overflow capped" (Metrics.nbuckets - 1)
    (Metrics.bucket_of max_int);
  (* bucket_lo inverts the low edge. *)
  check Alcotest.int "lo 0" min_int (Metrics.bucket_lo 0);
  check Alcotest.int "lo 1" 1 (Metrics.bucket_lo 1);
  check Alcotest.int "lo 3" 4 (Metrics.bucket_lo 3);
  for i = 1 to Metrics.nbuckets - 2 do
    check Alcotest.int
      (Printf.sprintf "lo %d is its own bucket" i)
      i
      (Metrics.bucket_of (Metrics.bucket_lo i))
  done

let test_metrics_hist_counts () =
  let r = Metrics.create () in
  Metrics.declare_hist r "h.declared";
  List.iter (Metrics.observe r "h") [ 0; 1; 2; 3; 1000 ];
  let s = Metrics.snapshot r in
  (match Metrics.find s "h" with
  | Some (Metrics.Hist { counts; total; sum }) ->
    check Alcotest.int "total" 5 total;
    check Alcotest.int "sum" 1006 sum;
    check Alcotest.int "bucket 0" 1 counts.(0);
    check Alcotest.int "bucket 1" 1 counts.(1);
    check Alcotest.int "bucket 2" 2 counts.(2);
    check Alcotest.int "bucket 10" 1 counts.(10);
    check Alcotest.int "bucket array shape" Metrics.nbuckets (Array.length counts)
  | _ -> Alcotest.fail "expected a histogram");
  match Metrics.find s "h.declared" with
  | Some (Metrics.Hist { total = 0; _ }) -> ()
  | _ -> Alcotest.fail "declared histogram must appear empty"

let test_metrics_json_deterministic () =
  let build () =
    let r = Metrics.create () in
    Metrics.set_int r "b.n" 3;
    Metrics.set_float r "a.f" 1.5;
    Metrics.observe r "c.h" 9;
    Metrics.snapshot_to_json ~indent:2 (Metrics.snapshot r)
  in
  let j = build () in
  check Alcotest.string "byte-identical re-render" j (build ());
  Alcotest.(check bool) "float rendered" true (contains j "\"a.f\": 1.5");
  Alcotest.(check bool) "int rendered" true (contains j "\"b.n\": 3");
  Alcotest.(check bool) "hist rendered" true (contains j "\"c.h\": {\"buckets\":[")

(* The table-driven bucket_of must agree everywhere with the bit-length
   definition it replaced. *)
let metrics_bucket_of_prop =
  QCheck.Test.make ~name:"bucket_of matches the bit-length reference" ~count:2000
    QCheck.int (fun v ->
      let reference v =
        if v <= 0 then 0
        else begin
          let bits = ref 0 and x = ref v in
          while !x > 0 do
            incr bits;
            x := !x lsr 1
          done;
          min !bits (Metrics.nbuckets - 1)
        end
      in
      Metrics.bucket_of v = reference v)

let test_metrics_handle_equiv () =
  let obs = [ -3; 0; 1; 7; 8; 255; 256; 65535; 65536; 1 lsl 40; max_int ] in
  let by_name = Metrics.create () and by_handle = Metrics.create () in
  List.iter (Metrics.observe by_name "h") obs;
  let h = Metrics.hist by_handle "h" in
  List.iter (Metrics.hist_observe h) obs;
  check Alcotest.string "handle and name observes render identically"
    (Metrics.snapshot_to_json (Metrics.snapshot by_name))
    (Metrics.snapshot_to_json (Metrics.snapshot by_handle))

(* Pin the exported bytes for a fixed observation set, so neither the O(1)
   bucket computation nor the handle API can drift the snapshot format. *)
let test_metrics_snapshot_json_pinned () =
  let r = Metrics.create () in
  Metrics.set_float r "f" 2.5;
  Metrics.set_int r "n" 5;
  let h = Metrics.hist r "h" in
  List.iter (Metrics.hist_observe h) [ 0; 1; 2; 3; 1000 ];
  let expected =
    "{\n\
    \  \"f\": 2.5,\n\
    \  \"h\": {\"buckets\":[1,1,2,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"total\":5,\"sum\":1006},\n\
    \  \"n\": 5\n\
     }"
  in
  check Alcotest.string "pinned snapshot JSON"
    expected
    (Metrics.snapshot_to_json ~indent:2 (Metrics.snapshot r))

(* KAT-style host-spec parses.  The bracketed-IPv6 cases are regressions:
   the old last-colon split read "[::1]:9000" as host "[" / bad port and
   "::1:9000" as host "::1" port 9000 without ever saying IPv6 needs
   brackets. *)
let test_transport_hostspec_ok () =
  let ok spec host port =
    match Transport.parse_hostspec spec with
    | Ok (h, p) ->
      check Alcotest.string (spec ^ " host") host h;
      check Alcotest.int (spec ^ " port") port p
    | Error e -> Alcotest.failf "parse_hostspec %S = Error %s" spec e
  in
  ok "localhost:9000" "localhost" 9000;
  ok "10.1.2.3:80" "10.1.2.3" 80;
  ok "[::1]:9000" "::1" 9000;
  ok "[fe80::2%eth0]:7777" "fe80::2%eth0" 7777;
  ok "[2001:db8::1]:65535" "2001:db8::1" 65535

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_transport_hostspec_errors () =
  let err spec needle =
    match Transport.parse_hostspec spec with
    | Ok (h, p) -> Alcotest.failf "parse_hostspec %S = Ok (%s, %d)" spec h p
    | Error e ->
      if not (contains_sub e needle) then
        Alcotest.failf "parse_hostspec %S error %S lacks %S" spec e needle
  in
  err "::1:9000" "IPv6 requires [host]:port";
  err "a:b:c" "IPv6 requires [host]:port";
  err "host" "expected HOST:PORT";
  err ":9000" "empty host";
  err "[]:9000" "empty host";
  err "[::1]" "expected [HOST]:PORT after ']'";
  err "[::1]x:1" "expected [HOST]:PORT after ']'";
  err "[::1" "missing ']'";
  err "host:" "bad port";
  err "host:65536" "bad port";
  err "host:x" "bad port";
  err "[::1]:x" "bad port"

let test_transport_hostspecs_list () =
  (match Transport.parse_hostspecs "a:1,,[::1]:2," with
  | Ok l ->
    Alcotest.(check (list (pair string int)))
      "list" [ ("a", 1); ("::1", 2) ] l
  | Error e -> Alcotest.failf "parse_hostspecs = Error %s" e);
  match Transport.parse_hostspecs "a:1,bad" with
  | Ok _ -> Alcotest.fail "parse_hostspecs accepted a bad item"
  | Error _ -> ()

(* --- Benchjson ------------------------------------------------------------ *)

let test_benchjson_bad_unicode_escape () =
  (* A \u escape needs four hex digits; anything else is a parse error, not
     an exception out of int_of_string. *)
  List.iter
    (fun text ->
      match Benchjson.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" text
      | exception e -> Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    [ {|{"date": "\uzzzz"}|}; {|{"date": "\u12"}|}; {|{"date": "\u1_2_"}|}; {|"\u00"|} ]

let test_benchjson_latest_skips_malformed () =
  let dir = Filename.temp_file "pv_benchjson" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cell =
        Benchjson.cell ~workload:"read" ~scheme:"UNSAFE" ~sim_cycles:10 ~committed:5 ~wall_s:1.0
      in
      Benchjson.write ~path:(path "BENCH_2026-01-01.json")
        (Benchjson.make ~date:"2026-01-01" ~label:"cycles" ~scale:0.5 ~jobs:1 [ cell ]);
      Out_channel.with_open_bin (path "BENCH_2026-01-02.json") (fun oc ->
          Out_channel.output_string oc {|{"label": "\uzz"}|});
      check Alcotest.(option string) "newest parsable entry of the label"
        (Some (path "BENCH_2026-01-01.json"))
        (Benchjson.latest_in ~dir ~label:"cycles" ()))

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split" `Quick test_rng_split;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "in_range bounds" `Quick test_rng_in_range;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_rng_chance_rate;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "weighted pick bias" `Quick test_pick_weighted_bias;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
        Alcotest.test_case "splitmix64 KAT seed 0" `Quick test_rng_kat_seed0;
        Alcotest.test_case "splitmix64 KAT seed 1234567" `Quick test_rng_kat_seed1234567;
        QCheck_alcotest.to_alcotest rng_split_independence_prop;
        QCheck_alcotest.to_alcotest rng_copy_prop;
        QCheck_alcotest.to_alcotest rng_pick_oracle_prop;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "mean_opt" `Quick test_stats_mean_opt;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "geomean rejects non-positive" `Quick test_geomean_rejects;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "min_max" `Quick test_stats_min_max;
        Alcotest.test_case "overhead" `Quick test_stats_overhead;
        Alcotest.test_case "zero baseline rejected" `Quick test_stats_zero_baseline;
        Alcotest.test_case "ratio_pct zero denominator rejected" `Quick test_stats_ratio_pct;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "counter moments" `Quick test_counter_moments;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile rejects" `Quick test_percentile_rejects;
        Alcotest.test_case "percentile rank KATs" `Quick test_percentile_kats;
        QCheck_alcotest.to_alcotest nearest_rank_exact_prop;
        QCheck_alcotest.to_alcotest percentile_monotone_prop;
        QCheck_alcotest.to_alcotest percentile_member_prop;
        QCheck_alcotest.to_alcotest stats_geomean_prop;
        QCheck_alcotest.to_alcotest stats_geomean_scale_prop;
        QCheck_alcotest.to_alcotest stats_stddev_prop;
        QCheck_alcotest.to_alcotest stats_min_max_prop;
        QCheck_alcotest.to_alcotest stats_mean_prop;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "set ops" `Quick test_bitset_ops;
        Alcotest.test_case "copy isolation" `Quick test_bitset_copy_isolated;
        QCheck_alcotest.to_alcotest bitset_prop;
        QCheck_alcotest.to_alcotest bitset_union_prop;
        QCheck_alcotest.to_alcotest bitset_model_union_prop;
        QCheck_alcotest.to_alcotest bitset_model_inter_prop;
        QCheck_alcotest.to_alcotest bitset_model_diff_prop;
        QCheck_alcotest.to_alcotest bitset_model_subset_prop;
        QCheck_alcotest.to_alcotest bitset_algebra_prop;
      ] );
    ( "util.tab",
      [
        Alcotest.test_case "render" `Quick test_tab_render;
        Alcotest.test_case "csv" `Quick test_tab_csv;
        Alcotest.test_case "formats" `Quick test_tab_formats;
      ] );
    ( "util.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_and_gauges;
        Alcotest.test_case "snapshot name order" `Quick test_metrics_snapshot_sorted;
        Alcotest.test_case "type conflicts" `Quick test_metrics_type_conflicts;
        Alcotest.test_case "non-finite rejected" `Quick test_metrics_nonfinite_rejected;
        Alcotest.test_case "hist bucket edges" `Quick test_metrics_hist_bucket_edges;
        Alcotest.test_case "hist counts" `Quick test_metrics_hist_counts;
        Alcotest.test_case "json determinism" `Quick test_metrics_json_deterministic;
        Alcotest.test_case "handle = named observe" `Quick test_metrics_handle_equiv;
        Alcotest.test_case "snapshot JSON pinned" `Quick test_metrics_snapshot_json_pinned;
        QCheck_alcotest.to_alcotest metrics_bucket_of_prop;
      ] );
    ( "util.transport",
      [
        Alcotest.test_case "hostspec KATs" `Quick test_transport_hostspec_ok;
        Alcotest.test_case "hostspec rejects" `Quick test_transport_hostspec_errors;
        Alcotest.test_case "hostspec lists" `Quick test_transport_hostspecs_list;
      ] );
    ( "util.benchjson",
      [
        Alcotest.test_case "bad \\u escape is an Error" `Quick test_benchjson_bad_unicode_escape;
        Alcotest.test_case "latest_in skips malformed" `Quick
          test_benchjson_latest_skips_malformed;
      ] );
  ]
