(* cbsp-manifest/1: the machine-readable record every top-level run
   leaves behind — what was asked for (tool, argv, config pairs), what
   ran (per-stage timing with failure counts), what broke (failure
   records, the fatal error if any), and the full metrics snapshot. *)

module Jsonx = Cbsp_json.Jsonx

type stage = {
  m_stage : string;
  m_jobs : int;
  m_failed : int;
  m_seconds : float;
  m_max_seconds : float;
  m_in_size : int;
  m_out_size : int;
}

type failure = { f_stage : string; f_label : string }

let schema = "cbsp-manifest/1"

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let sample_json (s : Metrics.sample) =
  match s with
  | Metrics.Counter_sample v ->
    Printf.sprintf "\"kind\": \"counter\", \"value\": %d" v
  | Metrics.Gauge_sample v ->
    Printf.sprintf "\"kind\": \"gauge\", \"value\": %d" v
  | Metrics.Histogram_sample h ->
    Printf.sprintf
      "\"kind\": \"histogram\", \"count\": %d, \"sum\": %s, \"min\": %s, \
       \"max\": %s"
      h.Metrics.hs_count (json_float h.Metrics.hs_sum)
      (json_float h.Metrics.hs_min) (json_float h.Metrics.hs_max)

let write ?(version = "1.0.0") ?(argv = []) ?(config = []) ?error ~tool
    ~stages ~failures ~path () =
  Cbsp_util.Io.with_out_file path (fun oc ->
      let pf fmt = Printf.fprintf oc fmt in
      pf "{\n  \"schema\": %s,\n" (Jsonx.quote schema);
      pf "  \"tool\": %s,\n  \"version\": %s,\n" (Jsonx.quote tool)
        (Jsonx.quote version);
      pf "  \"created_unix\": %.3f,\n" (Unix.gettimeofday ());
      pf "  \"argv\": [%s],\n"
        (String.concat ", " (List.map Jsonx.quote argv));
      pf "  \"config\": {%s},\n"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s: %s" (Jsonx.quote k) (Jsonx.quote v))
              config));
      pf "  \"error\": %s,\n"
        (match error with None -> "null" | Some e -> Jsonx.quote e);
      pf "  \"stages\": [";
      List.iteri
        (fun i (s : stage) ->
          pf
            "%s\n    { \"stage\": %s, \"jobs\": %d, \"failed\": %d, \
             \"seconds\": %s, \"max_seconds\": %s, \"in\": %d, \"out\": %d }"
            (if i = 0 then "" else ",")
            (Jsonx.quote s.m_stage) s.m_jobs s.m_failed
            (json_float s.m_seconds) (json_float s.m_max_seconds) s.m_in_size
            s.m_out_size)
        stages;
      pf "\n  ],\n";
      pf "  \"failures\": [";
      List.iteri
        (fun i (f : failure) ->
          pf "%s\n    { \"stage\": %s, \"label\": %s }"
            (if i = 0 then "" else ",")
            (Jsonx.quote f.f_stage) (Jsonx.quote f.f_label))
        failures;
      pf "\n  ],\n";
      pf "  \"metrics\": [";
      List.iteri
        (fun i (it : Metrics.item) ->
          pf "%s\n    { \"name\": %s, \"labels\": {%s}, %s }"
            (if i = 0 then "" else ",")
            (Jsonx.quote it.Metrics.it_name)
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "%s: %s" (Jsonx.quote k) (Jsonx.quote v))
                  it.Metrics.it_labels))
            (sample_json it.Metrics.it_sample))
        (Metrics.snapshot ());
      pf "\n  ]\n}\n")
