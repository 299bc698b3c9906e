(* One-shot client for cbsp-serve/1, plus the stress driver the CI smoke
   job uses.  A request is: connect, send one JSON line, read one JSON
   line, close.  Retriable failures — connection refused (daemon still
   starting, backlog full), queue shed, quota denial — are retried with
   the server's [retry_after_s] hint plus a deterministic backoff. *)

module Jsonx = Cbsp_json.Jsonx

let connect = function
  | Server.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd
  | Server.Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd

let send_all fd data =
  let len = Bytes.length data in
  let rec loop off =
    if off < len then
      match Unix.write fd data off (len - off) with
      | 0 -> ()
      | n -> loop (off + n)
  in
  loop 0

let recv_line fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n -> (
      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
      | Some i ->
        Buffer.add_subbytes buf chunk 0 i;
        Buffer.contents buf
      | None ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ())
    | exception
        Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Buffer.contents buf
  in
  loop ()

(* A shed connection is answered and closed by the server while we may
   still be writing: without this, the client dies of SIGPIPE; with it,
   the write fails with EPIPE and the shed response is still readable
   from the socket buffer. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let one_shot ~address ~tenant request =
  Lazy.force ignore_sigpipe;
  match connect address with
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
    Error `Connect
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        (try
           send_all fd
             (Bytes.of_string
                (Jsonx.to_string (Protocol.json_of_request ~tenant request)
                ^ "\n"))
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        let line = recv_line fd in
        if line = "" then Error `Closed
        else
          match Jsonx.of_string line with
          | json -> Ok json
          | exception Jsonx.Parse_error msg -> Error (`Malformed msg))

let reason json =
  match Jsonx.member "reason" json with
  | Some (Jsonx.Str r) -> r
  | _ -> "unspecified error"

let retry_delay json ~attempt =
  let hint =
    match Jsonx.member "retry_after_s" json with
    | Some (Jsonx.Num s) when s > 0.0 -> s
    | _ -> 0.02
  in
  (* Deterministic backoff on top of the server's hint; capped so a
     stress run over a tiny queue still converges quickly. *)
  Float.min 1.0 (hint +. (0.01 *. float_of_int (attempt * attempt)))

let request ?(tenant = Protocol.default_tenant) ?(attempts = 8) ~address
    req =
  let rec go attempt =
    let retry json =
      if attempt >= attempts then
        Error
          (Printf.sprintf "gave up after %d attempts: %s" attempts
             (reason json))
      else begin
        Unix.sleepf (retry_delay json ~attempt);
        go (attempt + 1)
      end
    in
    match one_shot ~address ~tenant req with
    | Ok json when Protocol.is_ok json -> Ok json
    | Ok json when Protocol.is_retriable json -> retry json
    | Ok json -> Error (reason json)
    | Error `Connect ->
      if attempt >= attempts then
        Error (Printf.sprintf "gave up after %d attempts: connect" attempts)
      else begin
        Unix.sleepf (retry_delay Jsonx.Null ~attempt);
        go (attempt + 1)
      end
    | Error `Closed -> Error "connection closed before a response"
    | Error (`Malformed msg) -> Error ("malformed response: " ^ msg)
  in
  go 0

(* --- stress ------------------------------------------------------------ *)

type stress_report = {
  sr_total : int;
  sr_ok : int;
  sr_failed : int;
  sr_elapsed_s : float;
}

let stress ?(domains = 4) ?(attempts = 12) ~address jobs =
  let jobs = Array.of_list jobs in
  let total = Array.length jobs in
  let domains = max 1 (min domains total) in
  let next = Atomic.make 0 in
  let ok = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let tenant, req = jobs.(i) in
        (match request ~tenant ~attempts ~address req with
        | Ok _ -> Atomic.incr ok
        | Error _ -> Atomic.incr failed);
        loop ()
      end
    in
    loop ()
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  { sr_total = total; sr_ok = Atomic.get ok; sr_failed = Atomic.get failed;
    sr_elapsed_s = Unix.gettimeofday () -. t0 }
