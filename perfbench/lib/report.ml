(* Batch results on the wire (child -> parent, one JSON line) and the
   run's final report. *)

module Jsonx = Cbsp_json.Jsonx

let num x = Jsonx.Num x
let nums xs = Jsonx.List (List.map num xs)

let obj_of_table tbl f =
  Jsonx.Obj
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []))

let json_of_op (o : Work.op) =
  Jsonx.Obj
    [ ("key", Jsonx.Str o.Work.o_key); ("s", num o.Work.o_seconds);
      ("insts", num (float_of_int o.Work.o_insts));
      ("digest", Jsonx.Str o.Work.o_digest);
      ("error", match o.Work.o_error with None -> Jsonx.Null | Some e -> Jsonx.Str e) ]

let json_of_batch (b : Work.batch) =
  Jsonx.Obj
    [ ("setup", nums b.Work.b_setup);
      ("ops", Jsonx.List (List.map json_of_op b.Work.b_ops));
      ("refused", num (float_of_int b.Work.b_refused));
      ("accuracy", Jsonx.Obj (List.map (fun (k, v) -> (k, num v)) b.Work.b_accuracy));
      ("sums", obj_of_table b.Work.b_layers.Layers.sums num);
      ("lists", obj_of_table b.Work.b_layers.Layers.lists (fun vs -> nums (List.rev vs)));
      ("rss_mb", num b.Work.b_rss_mb) ]

exception Bad_batch of string

let field name j =
  match Jsonx.member name j with Some v -> v | None -> raise (Bad_batch name)

let to_num j = match j with Jsonx.Num x -> x | Jsonx.Null -> nan | _ -> raise (Bad_batch "number")
let to_list j = match j with Jsonx.List l -> l | _ -> raise (Bad_batch "list")
let to_obj j = match j with Jsonx.Obj kvs -> kvs | _ -> raise (Bad_batch "object")
let to_str j = match j with Jsonx.Str s -> s | _ -> raise (Bad_batch "string")

let batch_of_json j : Work.batch =
  let op o =
    { Work.o_key = to_str (field "key" o); o_seconds = to_num (field "s" o);
      o_insts = int_of_float (to_num (field "insts" o));
      o_digest = to_str (field "digest" o);
      o_error = (match field "error" o with Jsonx.Null -> None | e -> Some (to_str e)) }
  in
  let acc = Layers.create () in
  List.iter (fun (k, v) -> Layers.add acc k (to_num v)) (to_obj (field "sums" j));
  List.iter
    (fun (k, vs) -> List.iter (fun v -> Layers.push acc k (to_num v)) (to_list vs))
    (to_obj (field "lists" j));
  { Work.b_setup = List.map to_num (to_list (field "setup" j));
    b_ops = List.map op (to_list (field "ops" j));
    b_refused = int_of_float (to_num (field "refused" j));
    b_accuracy = List.map (fun (k, v) -> (k, to_num v)) (to_obj (field "accuracy" j));
    b_layers = acc; b_rss_mb = to_num (field "rss_mb" j) }

(* --- the run's report ---------------------------------------------------- *)

(* Name, unit; the order BENCHMARK.json lists them in. *)
let end_to_end =
  [ ("setup_s", "s"); ("latency_p50_s", "s"); ("ops_per_s", "1/s");
    ("sim_minsts_per_s", "Minst/s"); ("peak_rss_mb", "MB") ]

type summary = {
  tally : Agg.tally;
  metrics : (string * float * string) list;
  detail : Jsonx.t;   (* sample counts, tail, failures, accuracy, host *)
}

let metric_json metrics =
  Jsonx.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Jsonx.Obj [ ("value", num value); ("unit", Jsonx.Str unit) ]))
       metrics)

(* Every attempted op (including a request the server refused before it
   ran) is one sample of [attempted]; a failed check, an error response
   or a refusal is one [failed]. *)
let tally_of (batches : Work.batch list) =
  let ops = List.concat_map (fun b -> b.Work.b_ops) batches in
  let refused = List.fold_left (fun a b -> a + b.Work.b_refused) 0 batches in
  Agg.tally
    (List.map (fun (o : Work.op) -> o.Work.o_error = None) ops
    @ List.init refused (fun _ -> false))

let summarize ~workload ~seed ~trace (batches : Work.batch list) =
  let ops = List.concat_map (fun b -> b.Work.b_ops) batches in
  let seconds = List.map (fun (o : Work.op) -> o.Work.o_seconds) ops in
  let setups = List.concat_map (fun b -> b.Work.b_setup) batches in
  let rss = List.map (fun b -> b.Work.b_rss_mb) batches in
  let tally = tally_of batches in
  let accuracy = match batches with b :: _ -> b.Work.b_accuracy | [] -> [] in
  (* Ops group by what they computed, less the input: "gcc@123" -> "gcc". *)
  let group (o : Work.op) =
    match String.index_opt o.Work.o_key '@' with
    | Some i -> String.sub o.Work.o_key 0 i
    | None -> o.Work.o_key
  in
  (* Per group (program, or serve key less its input): median latency
     and mean instructions.  One rotation visits every group once, so
     the rotation's throughput at median latencies is robust to the
     tail, which the detail line reports on its own. *)
  let groups =
    List.map
      (fun (g, os) ->
        ( g,
          Agg.median (List.map (fun (o : Work.op) -> o.Work.o_seconds) os),
          Agg.mean (List.map (fun (o : Work.op) -> float_of_int o.Work.o_insts) os) ))
      (Agg.by_group (List.map (fun o -> (group o, o)) ops))
  in
  let rotation_s = Agg.sum (List.map (fun (_, s, _) -> s) groups) in
  let rotation_insts = Agg.sum (List.map (fun (_, _, i) -> i) groups) in
  let metrics =
    if trace then begin
      let acc = Layers.create () in
      List.iter (fun b -> Layers.merge ~into:acc b.Work.b_layers) batches;
      Layers.derive acc
        ~ops:(int_of_float (Layers.get acc "ops"))
        ~setups:(List.length setups) ~accuracy
    end
    else
      let values =
        [ ("setup_s", Agg.median setups);
          ("latency_p50_s", Agg.geomean (List.map (fun (_, s, _) -> s) groups));
          ("ops_per_s", float_of_int (List.length groups) /. rotation_s);
          ("sim_minsts_per_s", rotation_insts /. rotation_s /. 1e6);
          ("peak_rss_mb", Agg.median rss) ]
      in
      List.map (fun (name, unit) -> (name, List.assoc name values, unit)) end_to_end
  in
  let tail =
    match Agg.tail seconds with
    | None -> Jsonx.Null
    | Some t ->
      Jsonx.Obj
        [ ("value", num t.Agg.tl_value); ("unit", Jsonx.Str "s");
          ("percentile", num t.Agg.tl_percentile);
          ("samples", num (float_of_int t.Agg.tl_samples)) ]
  in
  let errors =
    List.filter_map (fun (o : Work.op) -> Option.map (fun e -> o.Work.o_key ^ ": " ^ e) o.Work.o_error) ops
  in
  let detail =
    Jsonx.Obj
      [ ("workload", Jsonx.Str workload); ("seed", num (float_of_int seed));
        ("trace", Jsonx.Bool trace);
        ("batches", num (float_of_int (List.length batches)));
        ( "samples",
          Jsonx.Obj
            [ ("ops", num (float_of_int (List.length ops)));
              ("setups", num (float_of_int (List.length setups)));
              ("rss", num (float_of_int (List.length rss))) ] );
        ("latency_p50_s_by_group",
         Jsonx.Obj (List.map (fun (g, s, _) -> (g, num s)) groups));
        ("latency_tail_s", tail);
        ("failed_ratio", num (Agg.failed_ratio tally));
        ("errors", Jsonx.List (List.map (fun e -> Jsonx.Str e) errors));
        ("accuracy", Jsonx.Obj (List.map (fun (k, v) -> (k, num v)) accuracy));
        ( "host",
          Jsonx.Obj
            [ ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
              ("ocaml", Jsonx.Str Sys.ocaml_version) ] ) ]
  in
  { tally; metrics; detail }

let result_line s =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("correct", Jsonx.Bool (s.tally.Agg.failed = 0));
         ("attempted", num (float_of_int s.tally.Agg.attempted));
         ("failed", num (float_of_int s.tally.Agg.failed));
         ("metrics", metric_json s.metrics) ])
