(* Per-layer accounting for traced runs: counter deltas from the metrics
   registry, stage records from the engine's timing sink, and a split of
   the interval-collection stage into executor, cache-model and profile
   self time obtained by re-running the public observers on an op's own
   binaries. *)

module Pipeline = Cbsp.Pipeline
module Metrics = Cbsp_obs.Metrics
module Timing = Cbsp_engine.Timing
module Stage = Cbsp_engine.Stage
module Executor = Cbsp_exec.Executor
module Cpu = Cbsp_cache.Cpu
module Hierarchy = Cbsp_cache.Hierarchy
module Cache = Cbsp_cache.Cache
module Interval = Cbsp_profile.Interval
module Streamprof = Cbsp.Streamprof
module Binary = Cbsp_compiler.Binary
module Simpoint = Cbsp_simpoint.Simpoint
module Matching = Cbsp.Matching

(* Raw sums over a run's traced ops, plus sample lists for the metrics
   reported as medians.  Children of one run add theirs together. *)
type acc = {
  sums : (string, float) Hashtbl.t;
  lists : (string, float list) Hashtbl.t;
}

let create () = { sums = Hashtbl.create 64; lists = Hashtbl.create 8 }

let add acc name v =
  Hashtbl.replace acc.sums name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc.sums name))

let push acc name v =
  Hashtbl.replace acc.lists name
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.lists name))

let get acc name = Option.value ~default:0.0 (Hashtbl.find_opt acc.sums name)

let samples acc name =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt acc.lists name))

let merge ~into acc =
  Hashtbl.iter (fun k v -> add into k v) acc.sums;
  Hashtbl.iter
    (fun k vs -> List.iter (push into k) (List.rev vs))
    acc.lists

(* --- metrics registry deltas ------------------------------------------ *)

(* Totals of a series name over all its label sets: counters and gauges
   by value, histograms by sum ([name ^ ".sum"]) and count
   ([name ^ ".count"]). *)
let totals () =
  let t = Hashtbl.create 64 in
  let bump k v =
    Hashtbl.replace t k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t k))
  in
  List.iter
    (fun (it : Metrics.item) ->
      match it.Metrics.it_sample with
      | Metrics.Counter_sample v | Metrics.Gauge_sample v ->
        bump it.Metrics.it_name (float_of_int v)
      | Metrics.Histogram_sample h ->
        bump (it.Metrics.it_name ^ ".sum") h.Metrics.hs_sum;
        bump (it.Metrics.it_name ^ ".count") (float_of_int h.Metrics.hs_count))
    (Metrics.snapshot ());
  t

let total t name = Option.value ~default:0.0 (Hashtbl.find_opt t name)

(* The registry series whose per-op delta feeds a layer metric. *)
let delta_series =
  [ "executor.runs"; "executor.insts"; "executor.accesses"; "kmeans.runs";
    "kmeans.iterations"; "kmeans.distance_evals"; "analysis.candidates";
    "analysis.proved_mappable"; "store.hits"; "store.computes";
    "store.disk_hits"; "store.wait_seconds.sum"; "store.quarantined";
    "serve.requests"; "serve.shed"; "serve.quota_denied" ]

let add_deltas acc ~before ~after =
  List.iter
    (fun name -> add acc name (total after name -. total before name))
    delta_series

(* --- stage records ------------------------------------------------------ *)

let add_stages acc (records : Timing.record list) =
  List.iter
    (fun (r : Timing.record) ->
      let stage = Stage.name r.Timing.tr_stage in
      add acc ("stage." ^ stage) r.Timing.tr_seconds;
      add acc ("stage." ^ stage ^ ".jobs") 1.0;
      add acc ("stage." ^ stage ^ ".in") (float_of_int r.Timing.tr_in_size))
    records

(* --- interval-collection split ----------------------------------------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let timed_pass name (binary : Binary.t) f =
  Cbsp_obs.Tracer.with_span ~name:("perfbench." ^ name) ~cat:"perfbench"
    ~attrs:[ ("binary", Cbsp_compiler.Config.label binary.Binary.config) ]
    (fun () -> time f)

let add_cache_stats acc ~passes cpu =
  let scale = float_of_int passes in
  let hier = Cpu.hierarchy cpu in
  List.iteri
    (fun i (ls : Hierarchy.level_stats) ->
      let st = ls.Hierarchy.ls_stats in
      let lv = Printf.sprintf "cache.l%d" (i + 1) in
      add acc (lv ^ ".accesses") (scale *. float_of_int st.Cache.accesses);
      add acc (lv ^ ".hits") (scale *. float_of_int st.Cache.hits);
      add acc "cache.writebacks" (scale *. float_of_int st.Cache.writebacks))
    (Hierarchy.stats hier);
  add acc "cache.dram" (scale *. float_of_int (Hierarchy.dram_accesses hier));
  add acc "cache.insts" (scale *. float_of_int (Cpu.insts cpu))

(* Time one binary three ways — executor with a counting observer,
   executor + [Cpu], and the two full passes the pipeline composes (an
   FLI builder and the op's VLI recorder or follower, each feeding a
   [Streamprof] collector) — and charge the differences to the exec,
   cache and profile layers, weighted by how many FLI- and VLI-shaped
   collection passes the op ran on this binary. *)
let split_binary acc ~input ~target ~(vli : Pipeline.vli_result) ~n_fli
    ~n_vli i (binary : Binary.t) =
  let n_blocks = binary.Binary.n_blocks in
  let t_exec, _ =
    timed_pass "exec_pass" binary (fun () ->
        Executor.run binary input (fst (Executor.counting_observer ())))
  in
  let cpu = Cpu.create () in
  let t_cpu, totals =
    timed_pass "cache_pass" binary (fun () -> Executor.run binary input (Cpu.observer cpu))
  in
  let full_pass name make_obs =
    let cpu = Cpu.create () in
    let obs, finish =
      make_obs ~cycles:(fun () -> Cpu.cycles cpu)
        ~extras:(fun () -> Cpu.extra_counters cpu)
    in
    fst
      (timed_pass name binary (fun () ->
           ignore (Executor.run binary input (Executor.compose [ obs; Cpu.observer cpu ]));
           finish ()))
  in
  let t_fli =
    full_pass "fli_pass" (fun ~cycles ~extras ->
        let col = Streamprof.create ~sp_config:Simpoint.default_config ~n_blocks () in
        let obs, finish =
          Interval.fli_stream ~n_blocks ~target ~cycles ~extras
            ~emit:(Streamprof.emit col) ()
        in
        (obs, fun () -> ignore (finish ())))
  in
  let t_vli =
    full_pass "vli_pass" (fun ~cycles ~extras ->
        if i = vli.Pipeline.vli_primary then begin
          let col = Streamprof.create ~sp_config:Simpoint.default_config ~n_blocks () in
          let obs, finish =
            Interval.vli_recorder_stream ~n_blocks ~target
              ~mappable:(Matching.is_mappable vli.Pipeline.vli_mappable)
              ~cycles ~extras ~emit:(Streamprof.emit col) ()
          in
          (obs, fun () -> ignore (finish ()))
        end
        else begin
          let col = Streamprof.create_stats_only () in
          let obs, finish =
            Interval.vli_follower_stream
              ~boundaries:vli.Pipeline.vli_points.Pipeline.pt_boundaries
              ~cycles ~extras ~emit:(Streamprof.emit col) ()
          in
          (obs, fun () -> ignore (finish ()))
        end)
  in
  let passes = n_fli + n_vli in
  let p = float_of_int passes in
  add acc "t.exec" (p *. t_exec);
  add acc "t.cache" (p *. (t_cpu -. t_exec));
  add acc "t.profile"
    ((float_of_int n_fli *. (t_fli -. t_cpu)) +. (float_of_int n_vli *. (t_vli -. t_cpu)));
  add acc "cache.accesses" (p *. float_of_int totals.Executor.accesses);
  add_cache_stats acc ~passes cpu

let split acc ~binaries ~input ~target ~vli ~n_fli ~n_vli =
  List.iteri (split_binary acc ~input ~target ~vli ~n_fli ~n_vli) binaries;
  let m = vli.Pipeline.vli_mappable in
  add acc "match.mappable" (float_of_int (Matching.cardinal m));
  add acc "match.candidates" (float_of_int m.Matching.candidates)

(* --- derived per-layer metrics ----------------------------------------- *)

(* Name, unit; the order BENCHMARK.json lists them in. *)
let metrics =
  [ ("exec.passes", "count"); ("exec.insts", "count");
    ("exec.accesses", "count"); ("exec.self_s", "s");
    ("cache.passes", "count"); ("cache.self_s", "s");
    ("cache.ns_per_access", "ns"); ("cache.l1d_hit_ratio", "ratio");
    ("cache.l2d_hit_ratio", "ratio"); ("cache.llc_hit_ratio", "ratio");
    ("cache.dram_per_kinst", "1/kinst"); ("cache.writebacks", "count");
    ("profile.interval_s", "s"); ("profile.intervals", "count");
    ("profile.scratch_intervals", "count"); ("profile.structprof_s", "s");
    ("collection.stage_s", "s"); ("collection.accounted_ratio", "ratio");
    ("simpoint.clustering_s", "s"); ("simpoint.kmeans_iterations", "count");
    ("simpoint.distance_evals", "count"); ("simpoint.pruned_ratio", "ratio");
    ("analysis.prover_s", "s"); ("analysis.proved_ratio", "ratio");
    ("analysis.fingerprint_s", "s"); ("core.matching_s", "s");
    ("core.mappable_ratio", "ratio"); ("core.summarize_s", "s");
    ("sampling.sampling_s", "s"); ("core.fli_speedup_err_pct", "%");
    ("core.vli_speedup_err_pct", "%"); ("core.vli_cpi_err_pct", "%");
    ("engine.store_hit_ratio", "ratio"); ("engine.disk_hits", "count");
    ("engine.store_wait_s", "s"); ("engine.store_bytes", "bytes");
    ("engine.quarantined", "count"); ("serve.server_latency_p50_s", "s");
    ("serve.client_overhead_s", "s"); ("serve.retries", "count");
    ("serve.shed", "count"); ("serve.quota_denied", "count");
    ("compiler.compile_s", "s"); ("compiler.memo_hits", "count");
    ("obs.trace_overhead_ratio", "ratio") ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median_or_zero = function [] -> 0.0 | xs -> Agg.median xs

(* [accuracy] is the run's first-batch accuracy (name -> value); [ops]
   the number of traced ops the sums cover; [setups] the number of
   set-ups.  Every workload clusters with the default max_k. *)
let derive acc ~ops ~setups ~accuracy =
  let per_op name = ratio (get acc name) (float_of_int ops) in
  let stage s = "stage." ^ Stage.name s in
  let t_exec = get acc "t.exec" and t_cache = get acc "t.cache"
  and t_profile = get acc "t.profile" in
  let l n what = get acc (Printf.sprintf "cache.l%d.%s" n what) in
  let cluster_jobs = get acc (stage Stage.Clustering ^ ".jobs") in
  let kmeans_passes = get acc "kmeans.iterations" +. get acc "kmeans.runs" in
  let mean_points = ratio (get acc (stage Stage.Clustering ^ ".in")) cluster_jobs in
  let mean_k = (1.0 +. float_of_int Simpoint.default_config.Simpoint.max_k) /. 2.0 in
  let store_hits = get acc "store.hits" in
  let traced = samples acc "op.traced" and untraced = samples acc "op.untraced" in
  let server = samples acc "serve.server_s" and client = samples acc "serve.client_s" in
  let values =
    [ ("exec.passes", per_op "executor.runs");
      ("exec.insts", per_op "executor.insts");
      ("exec.accesses", per_op "executor.accesses");
      ("exec.self_s", per_op "t.exec");
      ("cache.passes", per_op (stage Stage.Interval_collection ^ ".jobs"));
      ("cache.self_s", per_op "t.cache");
      ("cache.ns_per_access", 1e9 *. ratio t_cache (get acc "cache.accesses"));
      ("cache.l1d_hit_ratio", ratio (l 1 "hits") (l 1 "accesses"));
      ("cache.l2d_hit_ratio", ratio (l 2 "hits") (l 2 "accesses"));
      ("cache.llc_hit_ratio", ratio (l 3 "hits") (l 3 "accesses"));
      ("cache.dram_per_kinst", 1000.0 *. ratio (get acc "cache.dram") (get acc "cache.insts"));
      ("cache.writebacks", per_op "cache.writebacks");
      ("profile.interval_s", per_op "t.profile");
      ("profile.intervals", per_op (stage Stage.Summarize ^ ".in"));
      ("profile.scratch_intervals", List.fold_left max 0.0 (samples acc "profile.scratch"));
      ("profile.structprof_s", per_op (stage Stage.Struct_profile));
      ("collection.stage_s", per_op (stage Stage.Interval_collection));
      ("collection.accounted_ratio",
       ratio (t_exec +. t_cache +. t_profile) (get acc (stage Stage.Interval_collection)));
      ("simpoint.clustering_s", per_op (stage Stage.Clustering));
      ("simpoint.kmeans_iterations", per_op "kmeans.iterations");
      ("simpoint.distance_evals", per_op "kmeans.distance_evals");
      ("simpoint.pruned_ratio",
       ratio (get acc "kmeans.distance_evals") (mean_points *. mean_k *. kmeans_passes));
      ("analysis.prover_s", per_op (stage Stage.Analysis));
      ("analysis.proved_ratio",
       ratio (get acc "analysis.proved_mappable") (get acc "analysis.candidates"));
      ("analysis.fingerprint_s", per_op (stage Stage.Fingerprint));
      ("core.matching_s", per_op (stage Stage.Matching));
      ("core.mappable_ratio", ratio (get acc "match.mappable") (get acc "match.candidates"));
      ("core.summarize_s", per_op (stage Stage.Summarize));
      ("sampling.sampling_s", per_op (stage Stage.Sampling));
      ("core.fli_speedup_err_pct", List.assoc "fli_speedup_err_pct" accuracy);
      ("core.vli_speedup_err_pct", List.assoc "vli_speedup_err_pct" accuracy);
      ("core.vli_cpi_err_pct", List.assoc "vli_cpi_err_pct" accuracy);
      ("engine.store_hit_ratio", ratio store_hits (store_hits +. get acc "store.computes"));
      ("engine.disk_hits", per_op "store.disk_hits");
      ("engine.store_wait_s", per_op "store.wait_seconds.sum");
      ("engine.store_bytes", ratio (get acc "setup.store_bytes") (float_of_int setups));
      ("engine.quarantined", per_op "store.quarantined");
      ("serve.server_latency_p50_s", median_or_zero server);
      ("serve.client_overhead_s",
       median_or_zero (List.map2 (fun c s -> c -. s) client server));
      ("serve.retries",
       ratio (get acc "serve.requests" +. get acc "serve.shed" -. get acc "serve.ops")
         (float_of_int ops));
      ("serve.shed", per_op "serve.shed");
      ("serve.quota_denied", per_op "serve.quota_denied");
      ("compiler.compile_s", ratio (get acc "setup.compile_s") (float_of_int setups));
      ("compiler.memo_hits", per_op "compile.memo_hits");
      ("obs.trace_overhead_ratio",
       ratio (median_or_zero traced) (median_or_zero untraced)) ]
  in
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) metrics
