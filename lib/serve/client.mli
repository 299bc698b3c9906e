(** cbsp-serve/1 client: one JSON line out, one JSON line back.

    {!request} retries retriable failures (connection refused while the
    daemon boots, queue shed, quota denial) honouring the server's
    [retry_after_s] hint with a deterministic quadratic backoff;
    {!stress} hammers a server from several domains — the CI smoke
    job's tool, and a convenient cache-warming loop. *)

val request :
  ?tenant:string ->
  ?attempts:int ->
  address:Server.address ->
  Protocol.request ->
  (Cbsp_json.Jsonx.t, string) result
(** A successful ([status = "ok"]) response, or a final error after at
    most [attempts] (default 8) tries.  [tenant] defaults to
    {!Protocol.default_tenant}. *)

type stress_report = {
  sr_total : int;
  sr_ok : int;
  sr_failed : int;  (** Requests that failed even after retries. *)
  sr_elapsed_s : float;
}

val stress :
  ?domains:int ->
  ?attempts:int ->
  address:Server.address ->
  (string * Protocol.request) list ->
  stress_report
(** Issue every [(tenant, request)] job from a pool of client domains
    (default 4, clamped to the job count), retrying each job up to
    [attempts] (default 12) times.  [sr_ok + sr_failed = sr_total]. *)
