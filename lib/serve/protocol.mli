(** The [cbsp-serve/1] wire protocol: one JSON object per line in each
    direction.

    Requests name an operation ([ping] / [metrics] / [points] /
    [sample] / [validate]), a tenant (for quotas) and, for the pipeline operations, a
    workload from the registry plus its sizing knobs.  Responses echo
    the operation under ["status": "ok"], or carry ["status": "error"]
    with a [retriable] flag — [true] (queue shed, quota exhausted) means
    "back off and retry", optionally after [retry_after_s]; [false]
    means the request itself is invalid. *)

val schema : string
(** ["cbsp-serve/1"]. *)

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
  v_n : int;  (** Per-run sample size for the sampling methods. *)
}

type request =
  | Ping
  | Metrics_req
  | Points of points_req
  | Sample of sample_req
  | Validate of validate_req

type parsed = { pr_tenant : string; pr_request : request }

val default_tenant : string
(** ["anonymous"] — used when a request names no tenant. *)

val parse_request : string -> (parsed, string) result
(** Parse one request line; [Error] is a human-readable reason suitable
    for a non-retriable {!error_response}. *)

val request_op : request -> string

val json_of_request : tenant:string -> request -> Cbsp_json.Jsonx.t
(** The client-side encoder; [parse_request] of its [to_string] is the
    identity on the carried request. *)

val response_base :
  op:string -> (string * Cbsp_json.Jsonx.t) list -> Cbsp_json.Jsonx.t

val error_response :
  ?retry_after_s:float -> retriable:bool -> string -> Cbsp_json.Jsonx.t

val is_ok : Cbsp_json.Jsonx.t -> bool

val is_retriable : Cbsp_json.Jsonx.t -> bool

val json_of_vli :
  workload:string -> elapsed_s:float -> Cbsp.Pipeline.vli_result ->
  Cbsp_json.Jsonx.t

val json_of_fli :
  workload:string -> elapsed_s:float -> Cbsp.Pipeline.fli_result ->
  Cbsp_json.Jsonx.t

val json_of_sampling :
  workload:string ->
  elapsed_s:float ->
  Cbsp.Pipeline.sampling_result ->
  Cbsp_json.Jsonx.t

val json_of_validation :
  workload:string ->
  elapsed_s:float ->
  mode:string ->
  Cbsp_validate.Matrix.t ->
  Cbsp_validate.Leaderboard.t ->
  Cbsp_json.Jsonx.t
(** One workload's matrix row as a [validate] response: the full
    [cbsp-validate/1] document under a ["validate"] key. *)

val json_of_metrics_snapshot : Cbsp_obs.Metrics.item list -> Cbsp_json.Jsonx.t

val pong : uptime_s:float -> Cbsp_json.Jsonx.t
