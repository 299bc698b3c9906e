(* The cbsp-serve daemon: a bounded queue between one accepting domain
   and a pool of worker domains, all sharing one engine.

   Life of a request: the accept loop polls the listener (select with a
   short tick so the stop flag is honoured), and either enqueues the
   connection or — when the queue is at capacity — sheds it right there
   with a retriable error (admission control: the queue bounds latency,
   the shed path bounds the queue).  A worker pops the connection,
   reads one request line, checks the tenant's token bucket, runs the
   operation through a per-request fork of the shared engine (same
   artifact and result stores — concurrent identical requests coalesce
   into one compute — but a private timing sink, so each request gets
   its own stage report), writes one response line and closes.

   Graceful drain on SIGTERM: stop accepting, serve everything already
   queued, join the workers, write the final manifest.  Nothing
   in-flight is dropped. *)

module Jsonx = Cbsp_json.Jsonx
module Pipeline = Cbsp.Pipeline
module Config = Cbsp_compiler.Config
module Input = Cbsp_source.Input
module Simpoint = Cbsp_simpoint.Simpoint
module Registry = Cbsp_workloads.Registry
module Metrics = Cbsp_obs.Metrics
module Tracer = Cbsp_obs.Tracer
module Manifest = Cbsp_obs.Manifest
module Timing = Cbsp_engine.Timing
module Matrix = Cbsp_validate.Matrix
module Leaderboard = Cbsp_validate.Leaderboard

type address = Unix_socket of string | Tcp of int

type config = {
  sv_address : address;
  sv_workers : int;
  sv_queue_cap : int;
  sv_quota_rate : float;   (* tokens/second per tenant *)
  sv_quota_burst : float;
  sv_cache_dir : string option;  (* None: no persistence, memory only *)
  sv_cache_budget : int;
  sv_jobs : int;           (* scheduler width inside one request *)
  sv_max_target : int;     (* request clamp: interval size *)
  sv_max_scale : int;      (* request clamp: input scale *)
  sv_manifest_dir : string option;
}

let default_config address =
  { sv_address = address; sv_workers = 2; sv_queue_cap = 64;
    sv_quota_rate = 50.0; sv_quota_burst = 100.0; sv_cache_dir = None;
    sv_cache_budget = 256 * 1024 * 1024; sv_jobs = 1;
    sv_max_target = 1_000_000; sv_max_scale = 8; sv_manifest_dir = None }

type state = {
  st_config : config;
  st_listener : Unix.file_descr;
  st_stop : bool Atomic.t;      (* stop accepting *)
  st_draining : bool Atomic.t;  (* workers exit once the queue is dry *)
  st_queue : Unix.file_descr Queue.t;
  st_qmutex : Mutex.t;
  st_qcond : Condition.t;
  st_engine : Pipeline.engine;
  st_quota : Quota.t;
  st_timing : Timing.sink;      (* union of every request's records *)
  st_req_id : int Atomic.t;
  st_t0 : float;
  st_queued : Metrics.gauge;
  st_active : Metrics.gauge;
  st_shed : Metrics.counter;
  st_requests : Metrics.counter;
  st_errors : Metrics.counter;
  st_latency : Metrics.histogram;
}

type t = {
  h_state : state;
  h_accept : unit Domain.t;
  h_workers : unit Domain.t list;
}

let max_line_bytes = 1 lsl 20

(* --- line IO ----------------------------------------------------------- *)

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec write_all off =
    if off < len then
      match Unix.write fd data off (len - off) with
      | 0 -> ()
      | n -> write_all (off + n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  write_all 0

let recv_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    if Buffer.length buf > max_line_bytes then None
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      | n -> (
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i ->
          Buffer.add_subbytes buf chunk 0 i;
          Some (Buffer.contents buf)
        | None ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ())
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNRESET), _, _) ->
        None
  in
  loop ()

(* --- the operations ---------------------------------------------------- *)

let clamp lo hi v = max lo (min hi v)

let run_points st (r : Protocol.points_req) =
  let entry = Registry.find r.Protocol.p_workload in
  let target = clamp 1_000 st.st_config.sv_max_target r.Protocol.p_target in
  let scale = clamp 1 st.st_config.sv_max_scale r.Protocol.p_scale in
  let max_k = clamp 2 20 r.Protocol.p_max_k in
  let program = entry.Registry.build () in
  let configs =
    Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
  in
  let input = Input.make ~seed:r.Protocol.p_seed ~scale () in
  let sp_config = { Simpoint.default_config with Simpoint.max_k } in
  let eng = Pipeline.fork_engine st.st_engine in
  let t0 = Unix.gettimeofday () in
  let response =
    match r.Protocol.p_method with
    | `Vli ->
      let result =
        Pipeline.run_vli ~sp_config ~static:r.Protocol.p_static ~engine:eng
          program ~configs ~input ~target
      in
      Protocol.json_of_vli ~workload:entry.Registry.name
        ~elapsed_s:(Unix.gettimeofday () -. t0)
        result
    | `Fli ->
      let result =
        Pipeline.run_fli ~sp_config ~engine:eng program ~configs ~input
          ~target
      in
      Protocol.json_of_fli ~workload:entry.Registry.name
        ~elapsed_s:(Unix.gettimeofday () -. t0)
        result
  in
  (response, eng)

let run_sample st (r : Protocol.sample_req) =
  let entry = Registry.find r.Protocol.s_workload in
  let target = clamp 1_000 st.st_config.sv_max_target r.Protocol.s_target in
  let scale = clamp 1 st.st_config.sv_max_scale r.Protocol.s_scale in
  let n = clamp 2 200 r.Protocol.s_n in
  let program = entry.Registry.build () in
  let configs =
    Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
  in
  let input = Input.make ~seed:r.Protocol.s_seed ~scale () in
  let eng = Pipeline.fork_engine st.st_engine in
  let t0 = Unix.gettimeofday () in
  let result =
    Pipeline.run_sampling ~engine:eng ~level:r.Protocol.s_level
      ~seeds:[ r.Protocol.s_seed ] program ~configs ~input ~target ~n
  in
  ( Protocol.json_of_sampling ~workload:entry.Registry.name
      ~elapsed_s:(Unix.gettimeofday () -. t0)
      result,
    eng )

let run_validate st (r : Protocol.validate_req) =
  let entry = Registry.find r.Protocol.v_workload in
  let target = clamp 1_000 st.st_config.sv_max_target r.Protocol.v_target in
  let scale = clamp 1 st.st_config.sv_max_scale r.Protocol.v_scale in
  let max_k = clamp 2 20 r.Protocol.v_max_k in
  let n = clamp 2 200 r.Protocol.v_n in
  let options =
    { Matrix.default_options with
      Matrix.mo_target = target; mo_scale = scale; mo_seed = r.Protocol.v_seed;
      mo_max_k = max_k; mo_sample_n = n }
  in
  let eng = Pipeline.fork_engine st.st_engine in
  let t0 = Unix.gettimeofday () in
  let row = Matrix.run_workload ~engine:eng ~options entry.Registry.name in
  let matrix = { Matrix.m_workloads = [ row ]; m_options = options; m_jobs = 1 } in
  let board = Leaderboard.build matrix in
  ( Protocol.json_of_validation ~workload:entry.Registry.name
      ~elapsed_s:(Unix.gettimeofday () -. t0)
      ~mode:"serve" matrix board,
    eng )

(* Fold a request engine's records into the server-wide sink (for the
   final manifest) and write the per-request manifest if configured. *)
let absorb_request st ~req_id ~op ~tenant eng =
  let records = Timing.records eng.Pipeline.eng_timing in
  List.iter (Timing.record st.st_timing) records;
  match st.st_config.sv_manifest_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "req-%06d.json" req_id) in
    Manifest.write ~tool:"cbsp-serve"
      ~config:[ ("op", op); ("tenant", tenant) ]
      ~stages:(Timing.manifest_stages records)
      ~failures:(Timing.manifest_failures records)
      ~path ()

let dispatch st ~req_id (parsed : Protocol.parsed) =
  let op = Protocol.request_op parsed.Protocol.pr_request in
  Tracer.with_span ~name:("serve." ^ op) ~cat:"serve"
    ~attrs:[ ("tenant", parsed.Protocol.pr_tenant) ]
  @@ fun () ->
  match parsed.Protocol.pr_request with
  | Protocol.Ping ->
    Protocol.pong ~uptime_s:(Unix.gettimeofday () -. st.st_t0)
  | Protocol.Metrics_req ->
    Protocol.json_of_metrics_snapshot (Metrics.snapshot ())
  | Protocol.Points r ->
    let response, eng = run_points st r in
    absorb_request st ~req_id ~op ~tenant:parsed.Protocol.pr_tenant eng;
    response
  | Protocol.Sample r ->
    let response, eng = run_sample st r in
    absorb_request st ~req_id ~op ~tenant:parsed.Protocol.pr_tenant eng;
    response
  | Protocol.Validate r ->
    let response, eng = run_validate st r in
    absorb_request st ~req_id ~op ~tenant:parsed.Protocol.pr_tenant eng;
    response

let handle_conn st fd =
  Metrics.set st.st_active 1;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.set st.st_active 0;
      Metrics.observe st.st_latency (Unix.gettimeofday () -. t0))
    (fun () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 15.0
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 15.0
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      match recv_line fd with
      | None -> () (* client vanished or sent nothing usable *)
      | Some line ->
        Metrics.incr st.st_requests;
        let response =
          match Protocol.parse_request line with
          | Error reason ->
            Metrics.incr st.st_errors;
            Protocol.error_response ~retriable:false reason
          | Ok parsed -> (
            match Quota.admit st.st_quota ~tenant:parsed.Protocol.pr_tenant with
            | Quota.Denied wait_s ->
              Protocol.error_response ~retriable:true ~retry_after_s:wait_s
                (Printf.sprintf "tenant %S over quota"
                   parsed.Protocol.pr_tenant)
            | Quota.Granted -> (
              let req_id = Atomic.fetch_and_add st.st_req_id 1 in
              match dispatch st ~req_id parsed with
              | response -> response
              | exception Not_found ->
                Metrics.incr st.st_errors;
                Protocol.error_response ~retriable:false "unknown workload"
              | exception Invalid_argument msg ->
                Metrics.incr st.st_errors;
                Protocol.error_response ~retriable:false msg
              | exception e ->
                Metrics.incr st.st_errors;
                Protocol.error_response ~retriable:false
                  ("internal error: " ^ Printexc.to_string e)))
        in
        send_line fd (Jsonx.to_string response))

(* --- queue ------------------------------------------------------------- *)

let enqueue st fd =
  let shed =
    Mutex.protect st.st_qmutex (fun () ->
        if Queue.length st.st_queue >= st.st_config.sv_queue_cap then true
        else begin
          Queue.push fd st.st_queue;
          Metrics.set st.st_queued (Queue.length st.st_queue);
          Condition.signal st.st_qcond;
          false
        end)
  in
  if shed then begin
    Metrics.incr st.st_shed;
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    send_line fd
      (Jsonx.to_string
         (Protocol.error_response ~retriable:true ~retry_after_s:0.1
            "queue full: request shed"));
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

let accept_loop st =
  let rec loop () =
    if not (Atomic.get st.st_stop) then begin
      (match Unix.select [ st.st_listener ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept st.st_listener with
        | fd, _ -> enqueue st fd
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close st.st_listener with Unix.Unix_error _ -> ());
  match st.st_config.sv_address with
  | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()

let worker_loop st =
  let rec next () =
    let job =
      Mutex.protect st.st_qmutex (fun () ->
          let rec get () =
            if not (Queue.is_empty st.st_queue) then begin
              let fd = Queue.pop st.st_queue in
              Metrics.set st.st_queued (Queue.length st.st_queue);
              Some fd
            end
            else if Atomic.get st.st_draining then None
            else begin
              Condition.wait st.st_qcond st.st_qmutex;
              get ()
            end
          in
          get ())
    in
    match job with
    | None -> ()
    | Some fd ->
      (try handle_conn st fd with _ -> ());
      next ()
  in
  next ()

(* --- lifecycle --------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let listen_on = function
  | Unix_socket path ->
    (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    fd

let next_instance = Atomic.make 0

let start config =
  if config.sv_workers < 1 then
    invalid_arg "Server.start: need at least 1 worker";
  let labels =
    [ ("instance", string_of_int (Atomic.fetch_and_add next_instance 1)) ]
  in
  if config.sv_queue_cap < 1 then
    invalid_arg "Server.start: need queue capacity >= 1";
  (* A worker writing to a client that already hung up must get EPIPE as
     a result, not a process kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Option.iter mkdir_p config.sv_manifest_dir;
  let listener = listen_on config.sv_address in
  let engine =
    Pipeline.create_engine ~jobs:config.sv_jobs
      ?cache_dir:config.sv_cache_dir ~cache_budget:config.sv_cache_budget ()
  in
  let st =
    { st_config = config; st_listener = listener;
      st_stop = Atomic.make false; st_draining = Atomic.make false;
      st_queue = Queue.create (); st_qmutex = Mutex.create ();
      st_qcond = Condition.create (); st_engine = engine;
      st_quota =
        Quota.create ~rate:config.sv_quota_rate ~burst:config.sv_quota_burst;
      st_timing = Timing.create (); st_req_id = Atomic.make 0;
      st_t0 = Unix.gettimeofday ();
      (* Instance-labeled, like the store series: two servers in one
         process (tests, embeddings) must not share counters. *)
      st_queued = Metrics.gauge ~labels "serve.queued";
      st_active = Metrics.gauge ~labels "serve.active";
      st_shed = Metrics.counter ~labels "serve.shed";
      st_requests = Metrics.counter ~labels "serve.requests";
      st_errors = Metrics.counter ~labels "serve.errors";
      st_latency = Metrics.histogram ~labels "serve.latency_seconds" }
  in
  let h_accept = Domain.spawn (fun () -> accept_loop st) in
  let h_workers =
    List.init config.sv_workers (fun _ ->
        Domain.spawn (fun () -> worker_loop st))
  in
  { h_state = st; h_accept; h_workers }

let engine h = h.h_state.st_engine

let requests h = Metrics.value h.h_state.st_requests

let shed h = Metrics.value h.h_state.st_shed

let write_final_manifest st =
  match st.st_config.sv_manifest_dir with
  | None -> ()
  | Some dir ->
    let records = Timing.records st.st_timing in
    Manifest.write ~tool:"cbsp-serve"
      ~config:
        [ ("requests", string_of_int (Metrics.value st.st_requests));
          ("shed", string_of_int (Metrics.value st.st_shed));
          ("errors", string_of_int (Metrics.value st.st_errors)) ]
      ~stages:(Timing.manifest_stages records)
      ~failures:(Timing.manifest_failures records)
      ~path:(Filename.concat dir "serve-manifest.json")
      ()

let stop h =
  let st = h.h_state in
  (* Phase 1: stop accepting (the accept domain also closes the
     listener, so new connects are refused, not silently queued). *)
  Atomic.set st.st_stop true;
  Domain.join h.h_accept;
  (* Phase 2: drain — workers finish everything already queued. *)
  Atomic.set st.st_draining true;
  Mutex.protect st.st_qmutex (fun () -> Condition.broadcast st.st_qcond);
  List.iter Domain.join h.h_workers;
  write_final_manifest st

let run config =
  let h = start config in
  let st = h.h_state in
  let request_stop _ = Atomic.set st.st_stop true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  (* The main domain just watches the stop flag: signal handlers run
     here, the accept loop polls the same flag from its own domain. *)
  while not (Atomic.get st.st_stop) do
    try Unix.sleepf 0.2
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop h;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int
