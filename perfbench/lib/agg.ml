(* Small statistics used to turn per-op samples into reported metrics. *)

module Stats = Cbsp_util.Stats

let median xs = Stats.median (Array.of_list xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = sum xs /. float_of_int (List.length xs)

(* Samples per group, in group order. *)
let by_group (samples : (string * 'a) list) =
  List.map
    (fun g -> (g, List.filter_map (fun (k, v) -> if k = g then Some v else None) samples))
    (List.sort_uniq compare (List.map fst samples))

let geomean xs = Stats.geomean (Array.of_list xs)

(* The tail percentiles a run may report, highest first. *)
let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let min_beyond = 10

type tail = { tl_percentile : float; tl_value : float; tl_samples : int }

(* The highest candidate percentile with at least [min_beyond] samples
   strictly above its value; [None] when even the median has fewer, so a
   short run never reports a "p99" read off its one slowest op. *)
let tail xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let beyond v = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
  List.find_map
    (fun p ->
      let v = Stats.percentile a ~p in
      if n > 0 && beyond v >= min_beyond then
        Some { tl_percentile = p; tl_value = v; tl_samples = n }
      else None)
    tail_candidates

(* Failures are counted against attempted ops: every op, whatever made
   it fail (a refused request, a shed or quota-denied one, a failed
   check), is one attempt and at most one failure. *)
type tally = { attempted : int; failed : int }

let tally oks =
  { attempted = List.length oks;
    failed = List.length (List.filter (fun ok -> not ok) oks) }

let failed_ratio t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted
