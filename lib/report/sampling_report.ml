module Pipeline = Cbsp.Pipeline
module Sampler = Cbsp_sampling.Sampler
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Stats = Cbsp_util.Stats
module Scheduler = Cbsp_engine.Scheduler
module Timing = Cbsp_engine.Timing
module Jsonx = Cbsp_json.Jsonx

type workload_sampling = {
  ws_name : string;
  ws_result : Pipeline.sampling_result;
  ws_seconds : float;
  ws_timings : Timing.record list;
}

type t = {
  sr_workloads : workload_sampling list;
  sr_target : int;
  sr_n : int;
  sr_level : float;
  sr_seeds : int list;
}

let run_suite ?names ?(target = Pipeline.default_target)
    ?(input = Cbsp_source.Input.ref_input) ?sp_config ?(jobs = 1)
    ?(level = 0.95) ?(seeds = [ 2007 ]) ?(progress = fun _ -> ()) ~n () =
  let entries =
    match names with
    | None -> Registry.all
    | Some names -> List.map Registry.find names
  in
  let results =
    Scheduler.parallel_map ~jobs
      (fun (entry : Registry.entry) ->
        progress entry.Registry.name;
        let t0 = Unix.gettimeofday () in
        let engine = Pipeline.create_engine ~jobs () in
        let program = entry.Registry.build () in
        let configs =
          Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()
        in
        let result =
          Pipeline.run_sampling ?sp_config ~engine ~level ~seeds program
            ~configs ~input ~target ~n
        in
        { ws_name = entry.Registry.name; ws_result = result;
          ws_seconds = Unix.gettimeofday () -. t0;
          ws_timings = Pipeline.timings engine })
      entries
  in
  { sr_workloads = results; sr_target = target; sr_n = n; sr_level = level;
    sr_seeds = seeds }

let find t name = List.find (fun ws -> ws.ws_name = name) t.sr_workloads

(* ------------------------------------------------------------------ *)
(* Aggregates: pool every (binary, seed) run of one method.            *)

let method_runs (sb : Pipeline.sampling_binary) ~method_ =
  let mr =
    List.find (fun mr -> mr.Pipeline.mr_method = method_) sb.Pipeline.sb_methods
  in
  mr.Pipeline.mr_runs

(* Fold [f truth estimate] over every (binary, seed) run of [method_]. *)
let fold_runs ws ~method_ f =
  List.concat_map
    (fun (sb : Pipeline.sampling_binary) ->
      List.map
        (fun (run : Pipeline.sampler_run) ->
          f sb.Pipeline.sb_truth.Pipeline.t_cpi run.Pipeline.sr_estimate)
        (method_runs sb ~method_))
    ws.ws_result.Pipeline.smp_binaries

let coverage ws ~method_ =
  let hits = fold_runs ws ~method_ (fun truth e -> Sampler.covers e ~truth) in
  let n = List.length hits in
  if n = 0 then 0.0
  else
    float_of_int (List.length (List.filter Fun.id hits)) /. float_of_int n

let mean_abs_error ws ~method_ =
  fold_runs ws ~method_ (fun truth e ->
      Stats.relative_error ~truth ~estimate:e.Sampler.e_point)
  |> Array.of_list |> Stats.mean

let mean_rel_half ws ~method_ =
  let halves =
    fold_runs ws ~method_ (fun truth e ->
        if Float.is_finite e.Sampler.e_half && truth > 0.0 then
          Some (e.Sampler.e_half /. truth)
        else None)
    |> List.filter_map Fun.id
  in
  match halves with [] -> nan | _ -> Stats.mean (Array.of_list halves)

let mean_cost_fraction ws ~method_ =
  List.map
    (fun (sb : Pipeline.sampling_binary) ->
      let total = float_of_int sb.Pipeline.sb_truth.Pipeline.t_insts in
      let runs = method_runs sb ~method_ in
      let fractions =
        List.map
          (fun (run : Pipeline.sampler_run) ->
            if total = 0.0 then 0.0
            else run.Pipeline.sr_estimate.Sampler.e_cost_insts /. total)
          runs
      in
      Stats.mean (Array.of_list fractions))
    ws.ws_result.Pipeline.smp_binaries
  |> Array.of_list |> Stats.mean

let simpoint_error ws =
  List.map
    (fun (sb : Pipeline.sampling_binary) -> sb.Pipeline.sb_sp_error)
    ws.ws_result.Pipeline.smp_binaries
  |> Array.of_list |> Stats.mean

let simpoint_cost_fraction ws =
  List.map
    (fun (sb : Pipeline.sampling_binary) ->
      let total = float_of_int sb.Pipeline.sb_truth.Pipeline.t_insts in
      if total = 0.0 then 0.0 else sb.Pipeline.sb_sp_cost_insts /. total)
    ws.ws_result.Pipeline.smp_binaries
  |> Array.of_list |> Stats.mean

let overall_coverage t ~method_ =
  let hits =
    List.concat_map
      (fun ws ->
        fold_runs ws ~method_ (fun truth e -> Sampler.covers e ~truth))
      t.sr_workloads
  in
  let n = List.length hits in
  if n = 0 then 0.0
  else
    float_of_int (List.length (List.filter Fun.id hits)) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let first_seed t = List.hd t.sr_seeds

let first_run (sb : Pipeline.sampling_binary) ~method_ =
  List.hd (method_runs sb ~method_)

let render t ppf =
  let level_pct = 100.0 *. t.sr_level in
  Fmt.pf ppf "SimPoint vs statistical sampling — n = %d intervals/run, %d \
              seed(s), %g%% confidence@.@."
    t.sr_n (List.length t.sr_seeds) level_pct;
  (* Per-workload estimate lines: first seed, every binary x method. *)
  List.iter
    (fun ws ->
      Fmt.pf ppf "%s:@." ws.ws_name;
      List.iter
        (fun (sb : Pipeline.sampling_binary) ->
          Fmt.pf ppf "  %-4s true CPI %.4f | SimPoint %.4f (err %s)@."
            (Config.label sb.Pipeline.sb_config)
            sb.Pipeline.sb_truth.Pipeline.t_cpi sb.Pipeline.sb_sp_cpi
            (Table.pct sb.Pipeline.sb_sp_error);
          List.iter
            (fun method_ ->
              let e = (first_run sb ~method_).Pipeline.sr_estimate in
              Fmt.pf ppf "       %-11s %.4f ± %.4f (n=%d/%d)@." method_
                e.Sampler.e_point e.Sampler.e_half e.Sampler.e_n
                e.Sampler.e_population)
            Pipeline.sampling_methods)
        ws.ws_result.Pipeline.smp_binaries;
      Fmt.pf ppf "@.")
    t.sr_workloads;
  (* The comparison table: error AND coverage AND width AND cost. *)
  let columns =
    Table.
      [ { header = "workload"; align = Left };
        { header = "method"; align = Left };
        { header = "CPI err"; align = Right };
        { header = "coverage"; align = Right };
        { header = "CI half"; align = Right };
        { header = "sim cost"; align = Right } ]
  in
  let rows =
    List.concat_map
      (fun ws ->
        let sp_row =
          [ ws.ws_name; "simpoint";
            Table.pct (simpoint_error ws); "-"; "-";
            Table.pct (simpoint_cost_fraction ws) ]
        in
        let method_row method_ =
          let half = mean_rel_half ws ~method_ in
          [ ws.ws_name; method_;
            Table.pct (mean_abs_error ws ~method_);
            Table.pct (coverage ws ~method_);
            (if Float.is_nan half then "-" else Table.pct half);
            Table.pct (mean_cost_fraction ws ~method_) ]
        in
        sp_row :: List.map method_row Pipeline.sampling_methods)
      t.sr_workloads
  in
  Table.render ~columns ~rows ppf;
  Fmt.pf ppf "@.(coverage = fraction of %d runs whose %g%% CI contains the \
              true CPI; CI half = mean half-width / true CPI; sim cost = \
              instructions simulated in detail / total)@.@."
    (List.length t.sr_seeds
    * (match t.sr_workloads with
      | ws :: _ -> List.length ws.ws_result.Pipeline.smp_binaries
      | [] -> 0))
    level_pct;
  (* Cross-binary speedups with propagated confidence. *)
  Fmt.pf ppf "Estimated speedups with %g%% confidence (strat-phase, seed %d):@."
    level_pct (first_seed t);
  let pairs =
    Experiment.paper_pairs_same_platform @ Experiment.paper_pairs_cross_platform
  in
  List.iter
    (fun ws ->
      List.iter
        (fun (a, b) ->
          match
            Pipeline.sampling_speedup ws.ws_result ~a ~b ~method_:"strat-phase"
              ~seed:(first_seed t)
          with
          | ratio ->
            let truth =
              let ta =
                (Pipeline.find_sampling_binary ws.ws_result ~label:a)
                  .Pipeline.sb_truth
              and tb =
                (Pipeline.find_sampling_binary ws.ws_result ~label:b)
                  .Pipeline.sb_truth
              in
              ta.Pipeline.t_cycles /. tb.Pipeline.t_cycles
            in
            Fmt.pf ppf "  %-8s %s→%s  %.3fx ± %.3f (true %.3fx)@." ws.ws_name a
              b ratio.Sampler.r_point ratio.Sampler.r_half truth
          | exception Not_found -> ())
        pairs)
    t.sr_workloads;
  Fmt.pf ppf "@."

(* ------------------------------------------------------------------ *)
(* cbsp-sampling/1: the machine-readable document the CI job checks.   *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_json t ~path ~mode =
  (* Exception-safe: a failure mid-document must still close (and flush
     what it can of) the channel rather than leak the descriptor. *)
  Cbsp_util.Io.with_out_file path @@ fun oc ->
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n  \"schema\": \"cbsp-sampling/1\",\n";
  pf "  \"mode\": %s,\n" (Jsonx.quote mode);
  pf "  \"target\": %d,\n  \"n\": %d,\n  \"level\": %s,\n" t.sr_target t.sr_n
    (json_float t.sr_level);
  pf "  \"seeds\": [%s],\n"
    (String.concat ", " (List.map string_of_int t.sr_seeds));
  pf "  \"methods\": [%s],\n"
    (String.concat ", "
       (List.map Jsonx.quote Pipeline.sampling_methods));
  pf "  \"overall_coverage\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: %s" (Jsonx.quote m)
              (json_float (overall_coverage t ~method_:m)))
          Pipeline.sampling_methods));
  pf "  \"workloads\": [";
  List.iteri
    (fun wi ws ->
      pf "%s\n    { \"name\": %s,\n" (if wi = 0 then "" else ",")
        (Jsonx.quote ws.ws_name);
      pf "      \"seconds\": %s,\n" (json_float ws.ws_seconds);
      pf "      \"simpoint_error\": %s,\n" (json_float (simpoint_error ws));
      pf "      \"simpoint_cost_fraction\": %s,\n"
        (json_float (simpoint_cost_fraction ws));
      pf "      \"aggregates\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun m ->
                Printf.sprintf
                  "{ \"method\": %s, \"coverage\": %s, \"mean_abs_error\": \
                   %s, \"mean_rel_half\": %s, \"mean_cost_fraction\": %s }"
                  (Jsonx.quote m)
                  (json_float (coverage ws ~method_:m))
                  (json_float (mean_abs_error ws ~method_:m))
                  (json_float (mean_rel_half ws ~method_:m))
                  (json_float (mean_cost_fraction ws ~method_:m)))
              Pipeline.sampling_methods));
      pf "      \"binaries\": [";
      List.iteri
        (fun bi (sb : Pipeline.sampling_binary) ->
          pf "%s\n        { \"label\": %s,\n"
            (if bi = 0 then "" else ",")
            (Jsonx.quote (Config.label sb.Pipeline.sb_config));
          pf "          \"true_cpi\": %s,\n"
            (json_float sb.Pipeline.sb_truth.Pipeline.t_cpi);
          pf "          \"simpoint_cpi\": %s,\n"
            (json_float sb.Pipeline.sb_sp_cpi);
          pf "          \"n_intervals\": %d, \"n_live\": %d,\n"
            sb.Pipeline.sb_n_intervals sb.Pipeline.sb_n_live;
          pf "          \"runs\": [";
          let first = ref true in
          List.iter
            (fun (mr : Pipeline.method_runs) ->
              List.iter
                (fun (run : Pipeline.sampler_run) ->
                  let e = run.Pipeline.sr_estimate in
                  pf "%s\n            { \"method\": %s, \"seed\": %d, \
                      \"point\": %s, \"half\": %s, \"df\": %d, \"n\": %d, \
                      \"covers\": %b }"
                    (if !first then "" else ",")
                    (Jsonx.quote mr.Pipeline.mr_method) run.Pipeline.sr_seed
                    (json_float e.Sampler.e_point)
                    (json_float e.Sampler.e_half) e.Sampler.e_df e.Sampler.e_n
                    (Sampler.covers e
                       ~truth:sb.Pipeline.sb_truth.Pipeline.t_cpi);
                  first := false)
                mr.Pipeline.mr_runs)
            sb.Pipeline.sb_methods;
          pf "\n          ] }")
        ws.ws_result.Pipeline.smp_binaries;
      pf "\n      ] }")
    t.sr_workloads;
  pf "\n  ]\n}\n"
