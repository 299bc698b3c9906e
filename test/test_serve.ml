(* The cbsp-serve/1 stack bottom-up: JSON round-trips, protocol
   encode/parse identity, token-bucket quotas under an injected clock,
   and a real in-process daemon on a unix socket — duplicate requests
   coalescing to one compute, a tiny queue shedding under load, and a
   clean drain on stop. *)

module Jsonx = Cbsp_json.Jsonx
module Protocol = Cbsp_serve.Protocol
module Quota = Cbsp_serve.Quota
module Server = Cbsp_serve.Server
module Client = Cbsp_serve.Client
module Pipeline = Cbsp.Pipeline

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)

let test_jsonx_roundtrip_cases () =
  let cases =
    [ Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Bool false;
      Jsonx.Num 0.0;
      Jsonx.Num 42.0;
      Jsonx.Num (-17.25);
      Jsonx.Num 1e-9;
      Jsonx.Num 1.0000000000000002;
      Jsonx.Str "";
      Jsonx.Str "plain";
      Jsonx.Str "quote \" backslash \\ newline \n tab \t";
      Jsonx.Str "control \001\031 bytes";
      Jsonx.List [];
      Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "two"; Jsonx.Null ];
      Jsonx.Obj [];
      Jsonx.Obj
        [ ("a", Jsonx.Num 1.0);
          ("nested", Jsonx.Obj [ ("l", Jsonx.List [ Jsonx.Bool false ]) ]) ]
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonx.to_string v in
      Tutil.check_bool
        (Printf.sprintf "round-trip %s" s)
        true
        (Jsonx.of_string s = v);
      Tutil.check_bool
        (Printf.sprintf "one line: %s" s)
        false
        (String.contains s '\n'))
    cases

let prop_jsonx_string_roundtrip =
  QCheck.Test.make ~name:"jsonx escapes any string" ~count:200
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      let v = Jsonx.Str s in
      Jsonx.of_string (Jsonx.to_string v) = v
      && Jsonx.quote s = Jsonx.to_string v)

let test_jsonx_rejects_malformed () =
  List.iter
    (fun s ->
      Tutil.check_bool ("rejects " ^ s) true
        (match Jsonx.of_string s with
        | (_ : Jsonx.t) -> false
        | exception Jsonx.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; "{} trailing" ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let roundtrip_request req =
  let line =
    Jsonx.to_string (Protocol.json_of_request ~tenant:"team-a" req)
  in
  match Protocol.parse_request line with
  | Error e -> Alcotest.failf "parse failed on %s: %s" line e
  | Ok parsed ->
    Alcotest.(check string) "tenant carried" "team-a" parsed.Protocol.pr_tenant;
    Tutil.check_bool
      ("request identity: " ^ Protocol.request_op req)
      true
      (parsed.Protocol.pr_request = req)

let test_protocol_roundtrip () =
  roundtrip_request Protocol.Ping;
  roundtrip_request Protocol.Metrics_req;
  roundtrip_request
    (Protocol.Points
       { Protocol.p_workload = "gcc"; p_method = `Vli; p_target = 20_000;
         p_scale = 3; p_seed = 2007; p_max_k = 10; p_static = true });
  roundtrip_request
    (Protocol.Points
       { Protocol.p_workload = "apsi"; p_method = `Fli; p_target = 5_000;
         p_scale = 1; p_seed = 7; p_max_k = 4; p_static = false });
  roundtrip_request
    (Protocol.Sample
       { Protocol.s_workload = "applu"; s_target = 10_000; s_scale = 2;
         s_seed = 11; s_n = 30; s_level = 0.99 })

let test_protocol_rejects () =
  List.iter
    (fun line ->
      Tutil.check_bool ("rejects " ^ line) true
        (match Protocol.parse_request line with
        | Error _ -> true
        | Ok _ -> false))
    [ "not json at all";
      "{}";
      "{\"op\": \"frobnicate\"}";
      "{\"op\": \"points\"}" (* no workload *);
      "{\"op\": \"points\", \"workload\": \"gcc\", \"method\": \"bogus\"}" ]

let test_error_response_shape () =
  let shed = Protocol.error_response ~retriable:true ~retry_after_s:0.25 "full" in
  Tutil.check_bool "error is not ok" false (Protocol.is_ok shed);
  Tutil.check_bool "shed is retriable" true (Protocol.is_retriable shed);
  Tutil.check_bool "carries the hint" true
    (Jsonx.member "retry_after_s" shed = Some (Jsonx.Num 0.25));
  let fatal = Protocol.error_response ~retriable:false "bad request" in
  Tutil.check_bool "fatal not retriable" false (Protocol.is_retriable fatal)

(* ------------------------------------------------------------------ *)
(* Quota                                                               *)

let test_quota_burst_then_deny () =
  let q = Quota.create ~rate:1.0 ~burst:3.0 in
  let now = 1000.0 in
  for i = 1 to 3 do
    Tutil.check_bool
      (Printf.sprintf "burst request %d admitted" i)
      true
      (Quota.admit ~now q ~tenant:"t" = Quota.Granted)
  done;
  (match Quota.admit ~now q ~tenant:"t" with
  | Quota.Granted -> Alcotest.fail "fourth request should be denied"
  | Quota.Denied wait ->
    Tutil.check_bool "retry hint ~1 token away" true (wait > 0.0 && wait <= 1.0));
  (* Another tenant has its own bucket. *)
  Tutil.check_bool "other tenant unaffected" true
    (Quota.admit ~now q ~tenant:"u" = Quota.Granted);
  Tutil.check_int "grants counted" 4 (Quota.granted q);
  Tutil.check_int "denial counted" 1 (Quota.denied q);
  Tutil.check_int "two tenants seen" 2 (Quota.tenants q)

let test_quota_refills () =
  let q = Quota.create ~rate:2.0 ~burst:2.0 in
  let t0 = 50.0 in
  Tutil.check_bool "spend 1" true (Quota.admit ~now:t0 q ~tenant:"t" = Quota.Granted);
  Tutil.check_bool "spend 2" true (Quota.admit ~now:t0 q ~tenant:"t" = Quota.Granted);
  Tutil.check_bool "empty" true
    (match Quota.admit ~now:t0 q ~tenant:"t" with
    | Quota.Denied _ -> true
    | Quota.Granted -> false);
  (* Half a second at 2 tokens/s accrues exactly one token. *)
  Tutil.check_bool "refilled after 0.5s" true
    (Quota.admit ~now:(t0 +. 0.5) q ~tenant:"t" = Quota.Granted);
  Tutil.check_bool "but only one token" true
    (match Quota.admit ~now:(t0 +. 0.5) q ~tenant:"t" with
    | Quota.Denied _ -> true
    | Quota.Granted -> false);
  (* Refill caps at burst: a long idle stretch doesn't bank tokens. *)
  Tutil.check_bool "cap at burst 1" true
    (Quota.admit ~now:(t0 +. 1000.0) q ~tenant:"t" = Quota.Granted);
  Tutil.check_bool "cap at burst 2" true
    (Quota.admit ~now:(t0 +. 1000.0) q ~tenant:"t" = Quota.Granted);
  Tutil.check_bool "cap at burst 3 denied" true
    (match Quota.admit ~now:(t0 +. 1000.0) q ~tenant:"t" with
    | Quota.Denied _ -> true
    | Quota.Granted -> false)

(* ------------------------------------------------------------------ *)
(* Live server                                                         *)

let test_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cbsp-test-%s-%d.sock" tag (Unix.getpid ()))

let points_req ?(seed = 2007) () =
  Protocol.Points
    { Protocol.p_workload = "gcc"; p_method = `Vli; p_target = 2_000;
      p_scale = 1; p_seed = seed; p_max_k = 4; p_static = false }

let with_server config f =
  let srv = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let test_server_ping_and_metrics () =
  let path = test_socket "ping" in
  let address = Server.Unix_socket path in
  with_server (Server.default_config address) @@ fun _srv ->
  (match Client.request ~address Protocol.Ping with
  | Error e -> Alcotest.failf "ping failed: %s" e
  | Ok json ->
    Tutil.check_bool "pong ok" true (Protocol.is_ok json);
    Tutil.check_bool "uptime present" true
      (Jsonx.member "uptime_s" json <> None));
  match Client.request ~address Protocol.Metrics_req with
  | Error e -> Alcotest.failf "metrics failed: %s" e
  | Ok json ->
    Tutil.check_bool "metrics ok" true (Protocol.is_ok json);
    Tutil.check_bool "snapshot is a list" true
      (match Jsonx.member "metrics" json with
      | Some (Jsonx.List _) -> true
      | _ -> false)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let test_server_coalesces_duplicates () =
  let path = test_socket "coalesce" in
  let address = Server.Unix_socket path in
  (* A cache directory gives the engine whole-result stores, whose
     compute/hit counters are the coalescing evidence below. *)
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cbsp-test-serve-cache-%d" (Unix.getpid ()))
  in
  let config =
    { (Server.default_config address) with
      Server.sv_cache_dir = Some cache_dir }
  in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir)
  @@ fun () ->
  with_server config @@ fun srv ->
  (* Identical concurrent requests from several client domains: the
     shared engine's result store must compute once and serve the rest
     as hits, and every response must be byte-identical. *)
  let jobs =
    List.init 6 (fun i -> (Printf.sprintf "tenant-%d" (i mod 2), points_req ()))
  in
  let report = Client.stress ~domains:3 ~address jobs in
  Tutil.check_int "all requests succeeded" 6 report.Client.sr_ok;
  Tutil.check_int "none failed" 0 report.Client.sr_failed;
  (match Pipeline.result_stats (Server.engine srv) with
  | None -> Alcotest.fail "expected a result cache on the server engine"
  | Some (computes, hits) ->
    Tutil.check_int "exactly one compute for six identical requests" 1
      computes;
    Tutil.check_int "five coalesced hits" 5 hits);
  Tutil.check_int "all six reached workers" 6 (Server.requests srv);
  (* Same payload for everyone (only [elapsed_s], the per-request wall
     time, may differ): re-request twice and compare. *)
  let payload req =
    match Client.request ~address req with
    | Ok (Jsonx.Obj fields) ->
      Jsonx.to_string
        (Jsonx.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
    | Ok json -> Alcotest.failf "non-object response: %s" (Jsonx.to_string json)
    | Error e -> Alcotest.failf "request failed: %s" e
  in
  Alcotest.(check string)
    "cached response identical" (payload (points_req ())) (payload (points_req ()))

let test_server_sheds_under_load () =
  let path = test_socket "shed" in
  let address = Server.Unix_socket path in
  let config =
    { (Server.default_config address) with
      Server.sv_workers = 1;
      sv_queue_cap = 1;
      sv_quota_rate = 1000.0;
      sv_quota_burst = 1000.0 }
  in
  with_server config @@ fun srv ->
  (* One worker, queue of one, and a burst of distinct slow-ish requests
     from four domains: some connections must be shed — and every one of
     them must still succeed after client retries. *)
  let jobs =
    List.init 12 (fun i -> ("hammer", points_req ~seed:(100 + i) ()))
  in
  let report = Client.stress ~domains:4 ~attempts:20 ~address jobs in
  Tutil.check_int "all eventually ok" 12 report.Client.sr_ok;
  Tutil.check_int "no hard failures" 0 report.Client.sr_failed;
  Tutil.check_bool "queue shed at least once" true (Server.shed srv > 0)

let test_server_clean_drain () =
  let path = test_socket "drain" in
  let address = Server.Unix_socket path in
  let srv = Server.start (Server.default_config address) in
  (match Client.request ~address Protocol.Ping with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping before stop: %s" e);
  Server.stop srv;
  Tutil.check_bool "socket file removed" false (Sys.file_exists path);
  Tutil.check_bool "connections refused after stop" true
    (match Client.request ~attempts:1 ~address Protocol.Ping with
    | Error _ -> true
    | Ok _ -> false)

let test_server_rejects_unknown_workload () =
  let path = test_socket "badreq" in
  let address = Server.Unix_socket path in
  with_server (Server.default_config address) @@ fun _srv ->
  match
    Client.request ~address
      (Protocol.Points
         { Protocol.p_workload = "no-such-workload"; p_method = `Vli;
           p_target = 2_000; p_scale = 1; p_seed = 1; p_max_k = 4;
           p_static = false })
  with
  | Ok json -> Alcotest.failf "expected an error, got %s" (Jsonx.to_string json)
  | Error reason ->
    Tutil.check_bool "non-retriable unknown-workload error" true
      (let h = reason and n = "unknown workload" in
       let lh = String.length h and ln = String.length n in
       let rec at i = i + ln <= lh && (String.sub h i ln = n || at (i + 1)) in
       at 0)

let () =
  Alcotest.run "serve"
    [ ( "jsonx",
        [ Tutil.quick "value round-trips" test_jsonx_roundtrip_cases;
          Tutil.qcheck_case prop_jsonx_string_roundtrip;
          Tutil.quick "rejects malformed" test_jsonx_rejects_malformed ] );
      ( "protocol",
        [ Tutil.quick "encode/parse identity" test_protocol_roundtrip;
          Tutil.quick "rejects bad requests" test_protocol_rejects;
          Tutil.quick "error responses" test_error_response_shape ] );
      ( "quota",
        [ Tutil.quick "burst then deny" test_quota_burst_then_deny;
          Tutil.quick "refill and cap" test_quota_refills ] );
      ( "server",
        [ Tutil.quick "ping + metrics" test_server_ping_and_metrics;
          Alcotest.test_case "duplicate requests coalesce" `Slow
            test_server_coalesces_duplicates;
          Alcotest.test_case "sheds under load" `Slow
            test_server_sheds_under_load;
          Tutil.quick "clean drain" test_server_clean_drain;
          Tutil.quick "unknown workload rejected"
            test_server_rejects_unknown_workload ] ) ]
