(* The cbsp-serve/1 wire protocol: one JSON object per line, both ways.

   Requests:
     {"op":"points","workload":W,"method":"vli"|"fli","tenant":T,
      "target":N,"scale":S,"seed":R,"max_k":K,"static":B}
     {"op":"sample","workload":W,"tenant":T,"target":N,"scale":S,
      "seed":R,"n":N2,"level":L}
     {"op":"validate","workload":W,"tenant":T,"target":N,"scale":S,
      "seed":R,"max_k":K,"n":N2}
     {"op":"metrics"}   {"op":"ping"}

   Responses always carry "schema", "status" ("ok"|"error") and echo
   "op".  Errors carry "retriable" — true means the client may retry
   (queue shed, quota exhausted), optionally after "retry_after_s";
   false means the request itself is bad.  [points] answers with the
   chosen simulation points, per-binary weights and CPI estimates;
   [sample] adds the samplers' confidence intervals. *)

module Jsonx = Cbsp_json.Jsonx
module Pipeline = Cbsp.Pipeline
module Config = Cbsp_compiler.Config
module Sampler = Cbsp_sampling.Sampler
module Metrics = Cbsp_obs.Metrics

let schema = "cbsp-serve/1"

(* --- requests ---------------------------------------------------------- *)

type points_req = {
  p_workload : string;
  p_method : [ `Fli | `Vli ];
  p_target : int;
  p_scale : int;
  p_seed : int;
  p_max_k : int;
  p_static : bool;
}

type sample_req = {
  s_workload : string;
  s_target : int;
  s_scale : int;
  s_seed : int;
  s_n : int;
  s_level : float;
}

type validate_req = {
  v_workload : string;
  v_target : int;
  v_scale : int;
  v_seed : int;
  v_max_k : int;
  v_n : int;
}

type request =
  | Ping
  | Metrics_req
  | Points of points_req
  | Sample of sample_req
  | Validate of validate_req

type parsed = { pr_tenant : string; pr_request : request }

let default_tenant = "anonymous"

let parse_request line =
  match Jsonx.of_string line with
  | exception Jsonx.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | json -> (
    let tenant = Jsonx.str_member "tenant" json ~default:default_tenant in
    let workload () =
      match Jsonx.member "workload" json with
      | Some (Jsonx.Str w) -> Ok w
      | _ -> Error "missing \"workload\""
    in
    let target = Jsonx.int_member "target" json ~default:20_000 in
    let scale = Jsonx.int_member "scale" json ~default:3 in
    let seed = Jsonx.int_member "seed" json ~default:2007 in
    match Jsonx.str_member "op" json ~default:"" with
    | "ping" -> Ok { pr_tenant = tenant; pr_request = Ping }
    | "metrics" -> Ok { pr_tenant = tenant; pr_request = Metrics_req }
    | "points" -> (
      match workload () with
      | Error e -> Error e
      | Ok w -> (
        match Jsonx.str_member "method" json ~default:"vli" with
        | ("vli" | "fli") as m ->
          Ok
            { pr_tenant = tenant;
              pr_request =
                Points
                  { p_workload = w;
                    p_method = (if m = "fli" then `Fli else `Vli);
                    p_target = target; p_scale = scale; p_seed = seed;
                    p_max_k = Jsonx.int_member "max_k" json ~default:10;
                    p_static =
                      (match Jsonx.member "static" json with
                      | Some (Jsonx.Bool b) -> b
                      | _ -> false) } }
        | m -> Error (Printf.sprintf "unknown method %S" m)))
    | "sample" -> (
      match workload () with
      | Error e -> Error e
      | Ok w ->
        let level =
          match Jsonx.member "level" json with
          | Some (Jsonx.Num l) when l > 0.0 && l < 1.0 -> l
          | _ -> 0.95
        in
        Ok
          { pr_tenant = tenant;
            pr_request =
              Sample
                { s_workload = w; s_target = target; s_scale = scale;
                  s_seed = seed;
                  s_n = Jsonx.int_member "n" json ~default:20;
                  s_level = level } })
    | "validate" -> (
      match workload () with
      | Error e -> Error e
      | Ok w ->
        Ok
          { pr_tenant = tenant;
            pr_request =
              Validate
                { v_workload = w; v_target = target; v_scale = scale;
                  v_seed = seed;
                  v_max_k = Jsonx.int_member "max_k" json ~default:10;
                  v_n = Jsonx.int_member "n" json ~default:20 } })
    | "" -> Error "missing \"op\""
    | op -> Error (Printf.sprintf "unknown op %S" op))

let request_op = function
  | Ping -> "ping"
  | Metrics_req -> "metrics"
  | Points _ -> "points"
  | Sample _ -> "sample"
  | Validate _ -> "validate"

(* --- request builders (client side) ------------------------------------ *)

let json_of_points_req ~tenant (r : points_req) =
  Jsonx.Obj
    [ ("schema", Jsonx.Str schema); ("op", Jsonx.Str "points");
      ("workload", Jsonx.Str r.p_workload);
      ("method", Jsonx.Str (match r.p_method with `Fli -> "fli" | `Vli -> "vli"));
      ("tenant", Jsonx.Str tenant);
      ("target", Jsonx.Num (float_of_int r.p_target));
      ("scale", Jsonx.Num (float_of_int r.p_scale));
      ("seed", Jsonx.Num (float_of_int r.p_seed));
      ("max_k", Jsonx.Num (float_of_int r.p_max_k));
      ("static", Jsonx.Bool r.p_static) ]

let json_of_sample_req ~tenant (r : sample_req) =
  Jsonx.Obj
    [ ("schema", Jsonx.Str schema); ("op", Jsonx.Str "sample");
      ("workload", Jsonx.Str r.s_workload);
      ("tenant", Jsonx.Str tenant);
      ("target", Jsonx.Num (float_of_int r.s_target));
      ("scale", Jsonx.Num (float_of_int r.s_scale));
      ("seed", Jsonx.Num (float_of_int r.s_seed));
      ("n", Jsonx.Num (float_of_int r.s_n));
      ("level", Jsonx.Num r.s_level) ]

let json_of_validate_req ~tenant (r : validate_req) =
  Jsonx.Obj
    [ ("schema", Jsonx.Str schema); ("op", Jsonx.Str "validate");
      ("workload", Jsonx.Str r.v_workload);
      ("tenant", Jsonx.Str tenant);
      ("target", Jsonx.Num (float_of_int r.v_target));
      ("scale", Jsonx.Num (float_of_int r.v_scale));
      ("seed", Jsonx.Num (float_of_int r.v_seed));
      ("max_k", Jsonx.Num (float_of_int r.v_max_k));
      ("n", Jsonx.Num (float_of_int r.v_n)) ]

let json_of_request ~tenant = function
  | Ping ->
    Jsonx.Obj
      [ ("schema", Jsonx.Str schema); ("op", Jsonx.Str "ping");
        ("tenant", Jsonx.Str tenant) ]
  | Metrics_req ->
    Jsonx.Obj
      [ ("schema", Jsonx.Str schema); ("op", Jsonx.Str "metrics");
        ("tenant", Jsonx.Str tenant) ]
  | Points r -> json_of_points_req ~tenant r
  | Sample r -> json_of_sample_req ~tenant r
  | Validate r -> json_of_validate_req ~tenant r

(* --- responses --------------------------------------------------------- *)

let response_base ~op fields =
  Jsonx.Obj
    (("schema", Jsonx.Str schema) :: ("status", Jsonx.Str "ok")
     :: ("op", Jsonx.Str op) :: fields)

let error_response ?retry_after_s ~retriable reason =
  Jsonx.Obj
    (("schema", Jsonx.Str schema)
     :: ("status", Jsonx.Str "error")
     :: ("retriable", Jsonx.Bool retriable)
     :: ("reason", Jsonx.Str reason)
     ::
     (match retry_after_s with
     | None -> []
     | Some s -> [ ("retry_after_s", Jsonx.Num s) ]))

let is_ok json =
  match Jsonx.member "status" json with
  | Some (Jsonx.Str "ok") -> true
  | _ -> false

let is_retriable json =
  match Jsonx.member "retriable" json with
  | Some (Jsonx.Bool b) -> b
  | _ -> false

let json_of_binary (br : Pipeline.binary_result) =
  Jsonx.Obj
    [ ("config", Jsonx.Str (Config.label br.Pipeline.br_config));
      ("true_cpi", Jsonx.Num br.Pipeline.br_truth.Pipeline.t_cpi);
      ("est_cpi", Jsonx.Num br.Pipeline.br_est_cpi);
      ("cpi_error", Jsonx.Num br.Pipeline.br_cpi_error);
      ("n_points", Jsonx.Num (float_of_int br.Pipeline.br_n_points));
      ("n_intervals", Jsonx.Num (float_of_int br.Pipeline.br_n_intervals));
      ("weights",
       Jsonx.List
         (Array.to_list
            (Array.map
               (fun ph -> Jsonx.Num ph.Pipeline.ph_weight)
               br.Pipeline.br_phases))) ]

let json_of_vli ~workload ~elapsed_s (r : Pipeline.vli_result) =
  let points = r.Pipeline.vli_points in
  response_base ~op:"points"
    [ ("workload", Jsonx.Str workload); ("method", Jsonx.Str "vli");
      ("elapsed_s", Jsonx.Num elapsed_s);
      ("n_boundaries", Jsonx.Num (float_of_int r.Pipeline.vli_n_boundaries));
      ("n_points",
       Jsonx.Num (float_of_int (Array.length points.Pipeline.pt_reps)));
      ("rep_intervals",
       Jsonx.List
         (Array.to_list
            (Array.map
               (fun rep -> Jsonx.Num (float_of_int rep))
               points.Pipeline.pt_reps)));
      ("binaries", Jsonx.List (List.map json_of_binary r.Pipeline.vli_binaries))
    ]

let json_of_fli ~workload ~elapsed_s (r : Pipeline.fli_result) =
  response_base ~op:"points"
    [ ("workload", Jsonx.Str workload); ("method", Jsonx.Str "fli");
      ("elapsed_s", Jsonx.Num elapsed_s);
      ("binaries", Jsonx.List (List.map json_of_binary r.Pipeline.fli_binaries))
    ]

let json_of_sampling ~workload ~elapsed_s (r : Pipeline.sampling_result) =
  let json_of_run (run : Pipeline.sampler_run) =
    let e = run.Pipeline.sr_estimate in
    Jsonx.Obj
      [ ("seed", Jsonx.Num (float_of_int run.Pipeline.sr_seed));
        ("cpi", Jsonx.Num e.Sampler.e_point);
        ("ci_low", Jsonx.Num (e.Sampler.e_point -. e.Sampler.e_half));
        ("ci_high", Jsonx.Num (e.Sampler.e_point +. e.Sampler.e_half));
        ("level", Jsonx.Num e.Sampler.e_level);
        ("n", Jsonx.Num (float_of_int e.Sampler.e_n)) ]
  in
  let json_of_method (mr : Pipeline.method_runs) =
    Jsonx.Obj
      [ ("method", Jsonx.Str mr.Pipeline.mr_method);
        ("runs", Jsonx.List (List.map json_of_run mr.Pipeline.mr_runs)) ]
  in
  let json_of_sb (sb : Pipeline.sampling_binary) =
    Jsonx.Obj
      [ ("config", Jsonx.Str (Config.label sb.Pipeline.sb_config));
        ("true_cpi", Jsonx.Num sb.Pipeline.sb_truth.Pipeline.t_cpi);
        ("sp_cpi", Jsonx.Num sb.Pipeline.sb_sp_cpi);
        ("n_intervals", Jsonx.Num (float_of_int sb.Pipeline.sb_n_intervals));
        ("methods", Jsonx.List (List.map json_of_method sb.Pipeline.sb_methods))
      ]
  in
  response_base ~op:"sample"
    [ ("workload", Jsonx.Str workload);
      ("elapsed_s", Jsonx.Num elapsed_s);
      ("level", Jsonx.Num r.Pipeline.smp_level);
      ("binaries", Jsonx.List (List.map json_of_sb r.Pipeline.smp_binaries)) ]

let json_of_metrics_snapshot items =
  let json_of_item (it : Metrics.item) =
    let kind, value =
      match it.Metrics.it_sample with
      | Metrics.Counter_sample v -> ("counter", Jsonx.Num (float_of_int v))
      | Metrics.Gauge_sample v -> ("gauge", Jsonx.Num (float_of_int v))
      | Metrics.Histogram_sample h ->
        ( "histogram",
          Jsonx.Obj
            [ ("count", Jsonx.Num (float_of_int h.Metrics.hs_count));
              ("sum", Jsonx.Num h.Metrics.hs_sum) ] )
    in
    Jsonx.Obj
      [ ("name", Jsonx.Str it.Metrics.it_name);
        ("labels",
         Jsonx.Obj
           (List.map (fun (k, v) -> (k, Jsonx.Str v)) it.Metrics.it_labels));
        ("kind", Jsonx.Str kind); ("value", value) ]
  in
  response_base ~op:"metrics"
    [ ("metrics", Jsonx.List (List.map json_of_item items)) ]

let json_of_validation ~workload ~elapsed_s ~mode matrix board =
  match Cbsp_validate.Leaderboard.to_json ~mode matrix board with
  | Jsonx.Obj fields ->
    response_base ~op:"validate"
      [ ("workload", Jsonx.Str workload); ("elapsed_s", Jsonx.Num elapsed_s);
        ("validate", Jsonx.Obj fields) ]
  | _ -> assert false (* to_json always builds an object *)

let pong ~uptime_s =
  response_base ~op:"ping" [ ("uptime_s", Jsonx.Num uptime_s) ]
