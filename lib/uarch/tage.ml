let history_lengths = [| 4; 12; 28; 60 |]

let num_tables = Array.length history_lengths

let table_bits = 10 (* 1024 entries per tagged table *)

let table_size = 1 lsl table_bits

let tag_bits = 9

let base_bits = 12 (* 4096-entry bimodal *)

type tagged_entry = { mutable tag : int; mutable ctr : int; mutable u : int }

type t = {
  base : int array; (* 2-bit counters, 0..3 *)
  tables : tagged_entry array array;
  mutable lookups : int;
  mutable alloc_tick : int; (* deterministic tie-breaking for allocation *)
}

type meta = {
  mutable provider : int; (* table index, -1 = base *)
  mutable provider_idx : int;
  mutable alt_pred : bool;
  mutable provider_pred : bool;
  indices : int array;
  tags : int array;
  mutable base_idx : int;
}

let meta_create () =
  {
    provider = -1;
    provider_idx = 0;
    alt_pred = false;
    provider_pred = false;
    indices = Array.make num_tables 0;
    tags = Array.make num_tables 0;
    base_idx = 0;
  }

let create () =
  {
    base = Array.make (1 lsl base_bits) 2;
    tables =
      Array.init num_tables (fun _ ->
          Array.init table_size (fun _ -> { tag = 0; ctr = 0; u = 0 }));
    lookups = 0;
    alloc_tick = 0;
  }

(* Fold [len] bits of history together with the pc into [bits] bits. *)
let fold pc hist len bits =
  let mask = (1 lsl bits) - 1 in
  let h = ref (if len >= 63 then hist else hist land ((1 lsl len) - 1)) in
  let folded = ref 0 in
  while !h <> 0 do
    folded := !folded lxor (!h land mask);
    h := !h lsr bits
  done;
  (!folded lxor (pc lsr 2) lxor (pc lsr (2 + bits))) land mask

let tag_of pc hist len =
  let mask = (1 lsl tag_bits) - 1 in
  (fold pc (hist * 3) len tag_bits lxor (pc lsr 4)) land mask

let base_index pc = (pc lsr 2) land ((1 lsl base_bits) - 1)

let predict_into t ~pc ~hist m =
  t.lookups <- t.lookups + 1;
  let indices = m.indices in
  let tags = m.tags in
  for i = 0 to num_tables - 1 do
    indices.(i) <- fold pc hist history_lengths.(i) table_bits;
    tags.(i) <- tag_of pc hist history_lengths.(i)
  done;
  let base_idx = base_index pc in
  let base_pred = t.base.(base_idx) >= 2 in
  (* Longest matching component provides; second longest is the alternate. *)
  let provider = ref (-1) in
  let altpred = ref base_pred in
  let pred = ref base_pred in
  for i = 0 to num_tables - 1 do
    let e = t.tables.(i).(indices.(i)) in
    if e.tag = tags.(i) then begin
      if !provider >= 0 then altpred := !pred;
      provider := i;
      pred := e.ctr >= 0
    end
  done;
  m.provider <- !provider;
  m.provider_idx <- (if !provider >= 0 then indices.(!provider) else base_idx);
  m.alt_pred <- !altpred;
  m.provider_pred <- !pred;
  m.base_idx <- base_idx;
  !pred

let predict t ~pc ~hist =
  let m = meta_create () in
  let pred = predict_into t ~pc ~hist m in
  (pred, m)

let sat_inc v hi = if v < hi then v + 1 else v

let sat_dec v lo = if v > lo then v - 1 else v

let update t ~pc:_ ~hist:_ meta ~taken =
  let mispred = meta.provider_pred <> taken in
  (* Update the provider (or base) counter. *)
  (if meta.provider >= 0 then begin
     let e = t.tables.(meta.provider).(meta.provider_idx) in
     e.ctr <- (if taken then sat_inc e.ctr 3 else sat_dec e.ctr (-4));
     (* Useful bit: provider differed from alternate and was right/wrong. *)
     if meta.provider_pred <> meta.alt_pred then
       e.u <- (if meta.provider_pred = taken then sat_inc e.u 3 else sat_dec e.u 0)
   end
   else
     t.base.(meta.base_idx) <-
       (if taken then sat_inc t.base.(meta.base_idx) 3
        else sat_dec t.base.(meta.base_idx) 0));
  (* Allocate a new entry in a longer-history table on misprediction. *)
  if mispred && meta.provider < num_tables - 1 then begin
    t.alloc_tick <- t.alloc_tick + 1;
    let start = meta.provider + 1 in
    let candidates = ref [] in
    for i = num_tables - 1 downto start do
      if t.tables.(i).(meta.indices.(i)).u = 0 then candidates := i :: !candidates
    done;
    match !candidates with
    | [] ->
      (* Nothing available: decay usefulness so progress is eventually made. *)
      for i = start to num_tables - 1 do
        let e = t.tables.(i).(meta.indices.(i)) in
        e.u <- sat_dec e.u 0
      done
    | cs ->
      let pick = List.nth cs (t.alloc_tick mod List.length cs) in
      let e = t.tables.(pick).(meta.indices.(pick)) in
      e.tag <- meta.tags.(pick);
      e.ctr <- (if taken then 0 else -1);
      e.u <- 0
  end

let lookups t = t.lookups
