(* The three workloads.  A run is a sequence of batches, each in a fresh
   process; one batch sets up (several times where that is cheap), runs
   its ops, checks every op, and, when traced, also feeds the per-layer
   accumulator. *)

module Pipeline = Cbsp.Pipeline
module Registry = Cbsp_workloads.Registry
module Config = Cbsp_compiler.Config
module Lower = Cbsp_compiler.Lower
module Input = Cbsp_source.Input
module Rng = Cbsp_util.Rng
module Simpoint = Cbsp_simpoint.Simpoint
module Matrix = Cbsp_validate.Matrix
module Errors = Cbsp_validate.Errors
module Leaderboard = Cbsp_validate.Leaderboard
module Tracer = Cbsp_obs.Tracer
module Server = Cbsp_serve.Server
module Client = Cbsp_serve.Client
module Protocol = Cbsp_serve.Protocol
module Jsonx = Cbsp_json.Jsonx

type op = {
  o_key : string;          (* what the op computed, e.g. "gcc@1234" *)
  o_seconds : float;       (* host wall time of the op alone *)
  o_insts : int;           (* instructions of every binary it estimated *)
  o_digest : string;       (* {!Check.digest} of its simulated statistics *)
  o_error : string option; (* [Some reason] when the op failed *)
}

type batch = {
  b_setup : float list;    (* seconds of each set-up *)
  b_ops : op list;
  b_refused : int;         (* server-side refusals (shed, quota-denied) *)
  b_accuracy : (string * float) list;
  b_layers : Layers.acc;
  b_rss_mb : float;
}

type ctx = {
  seed : int;
  index : int;        (* batch number within the run *)
  trace : bool;
  pins : Check.pins;
  out_dir : string;   (* scratch space for caches, sockets and traces *)
  seconds : float;    (* time slice of a batch that runs for a duration *)
}

let workloads = [ "cold-dram"; "validate-resident"; "warm-serve" ]

let default_seed = 42

let now = Unix.gettimeofday

(* --- seeds ------------------------------------------------------------- *)

let rotation ~seed names =
  let a = Array.of_list names in
  Rng.shuffle (Rng.create ~seed) a;
  Array.to_list a

(* Each batch simulates a different input drawn from the run seed, so a
   run's timings average over several inputs rather than one. *)
let batch_input_seed ~seed ~index = 1 + (Rng.hash2 seed index mod 999_983)

(* --- shared pieces ------------------------------------------------------ *)

let configs_of (entry : Registry.entry) =
  Config.paper_four ~loop_splitting:entry.Registry.loop_splitting ()

(* Set-up: build every program of the workload and compile its four
   binaries.  Returns (seconds, compile seconds). *)
let build_and_compile names =
  let t0 = now () in
  let compile_s = ref 0.0 in
  let programs =
    List.map
      (fun name ->
        let entry = Registry.find name in
        let program = entry.Registry.build () in
        let t = now () in
        List.iter (fun c -> ignore (Lower.compile program c)) (configs_of entry);
        compile_s := !compile_s +. (now () -. t);
        (entry, program))
      names
  in
  (now () -. t0, !compile_s, programs)

let repeat_setup acc ~reps names =
  let runs = List.init reps (fun _ -> build_and_compile names) in
  List.iter (fun (_, c, _) -> Layers.add acc "setup.compile_s" c) runs;
  let _, _, programs = List.hd runs in
  (List.map (fun (s, _, _) -> s) runs, programs)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          List.find_map
            (fun line ->
              Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
            (In_channel.input_lines ic))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0

let safely key f =
  let t0 = now () in
  match f () with
  | r -> r
  | exception e ->
    ( { o_key = key; o_seconds = now () -. t0; o_insts = 0; o_digest = "";
        o_error = Some ("raised " ^ Printexc.to_string e) },
      ignore )

let op_of ~pins ~workload ~key ~seconds ~stats ~invariants =
  let digest = Check.digest stats in
  { o_key = key; o_seconds = seconds; o_insts = Check.insts stats;
    o_digest = digest;
    o_error =
      (match Check.verify ~pins ~workload ~key ~digest ~invariants with
      | Ok () -> None
      | Error e -> Some e) }

let with_tracer f =
  Tracer.enable ();
  Fun.protect ~finally:Tracer.disable f

(* Run [f] with the tracer on, adding the registry deltas it caused. *)
let traced acc f =
  let before = Layers.totals () in
  let r = with_tracer f in
  Layers.add_deltas acc ~before ~after:(Layers.totals ());
  r

(* A span around one call into the system under test, recorded from
   the benchmark's side of the boundary. *)
let span name key f =
  Tracer.with_span ~name:("perfbench." ^ name) ~cat:"perfbench" ~attrs:[ ("key", key) ] f

(* An op in a traced run: once untraced (the overhead baseline), once
   traced, the traced one feeding the layer accumulator.  [run] returns
   the op and the layer work to do after it, outside the traced window
   (re-running passes there would pollute the op's counter deltas). *)
let both acc run =
  let plain, _ = run () in
  let op, after = traced acc run in
  with_tracer after;
  Layers.push acc "op.untraced" plain.o_seconds;
  Layers.push acc "op.traced" op.o_seconds;
  Layers.add acc "ops" 1.0;
  [ plain; op ]

let run_ops ctx acc run programs =
  List.concat_map
    (fun p -> if ctx.trace then both acc (run p) else [ fst (run p ()) ])
    programs

let add_engine_layers acc engine =
  Layers.add_stages acc (Pipeline.timings engine);
  Layers.add acc "compile.memo_hits" (float_of_int (snd (Pipeline.compile_stats engine)))

let accuracy cells =
  [ ("fli_speedup_err_pct", Check.mean_error_pct ~method_:"fli" ~speedup:true cells);
    ("vli_speedup_err_pct", Check.mean_error_pct ~method_:"vli" ~speedup:true cells);
    ("vli_cpi_err_pct", Check.mean_error_pct ~method_:"vli" ~speedup:false cells) ]

let cells_of_records records =
  Errors.cpi_cells ~workload:"" records
  @ Errors.speedup_cells ~workload:"" ~pairs:Matrix.pairs records

let note_scratch acc =
  Layers.push acc "profile.scratch"
    (Layers.total (Layers.totals ()) "profile.scratch_intervals")

(* --- cold-dram ---------------------------------------------------------- *)

let cold_programs = [ "gcc"; "mcf"; "equake"; "bzip2" ]

(* One registry program through [run_fli] + [run_vli] on the paper's four
   binaries with a fresh in-memory engine. *)
let cold_op ~pins ~input ~target (entry, program) =
  let key = Printf.sprintf "%s@%d" entry.Registry.name input.Input.seed in
  let configs = configs_of entry in
  let engine = Pipeline.create_engine () in
  let t0 = now () in
  let fli, vli =
    span "cold_op" key (fun () ->
        ( Pipeline.run_fli ~engine program ~configs ~input ~target,
          Pipeline.run_vli ~engine program ~configs ~input ~target ))
  in
  let seconds = now () -. t0 in
  let records =
    Pipeline.estimate_records_fli fli @ Pipeline.estimate_records_vli vli
  in
  let op =
    op_of ~pins ~workload:"cold-dram" ~key ~seconds
      ~stats:(Check.stats_of_records records)
      ~invariants:(Check.record_invariants records)
  in
  (op, engine, vli, cells_of_records records)

let cold_dram ctx =
  let acc = Layers.create () in
  let names = rotation ~seed:ctx.seed cold_programs in
  let setup, programs = repeat_setup acc ~reps:80 names in
  let input =
    Input.make ~name:"scale10"
      ~seed:(batch_input_seed ~seed:ctx.seed ~index:ctx.index)
      ~scale:10 ()
  in
  let target = Pipeline.default_target in
  let cells = ref [] in
  let run1 ((entry, program) as ep) () =
    safely entry.Registry.name (fun () ->
        let op, engine, vli, c = cold_op ~pins:ctx.pins ~input ~target ep in
        cells := !cells @ c;
        ( op,
          fun () ->
            add_engine_layers acc engine;
            note_scratch acc;
            let binaries = List.map (Lower.compile program) (configs_of entry) in
            Layers.split acc ~binaries ~input ~target ~vli ~n_fli:1 ~n_vli:1 ))
  in
  let ops = run_ops ctx acc run1 programs in
  { b_setup = setup; b_ops = ops; b_refused = 0; b_accuracy = accuracy !cells;
    b_layers = acc; b_rss_mb = peak_rss_mb () }

(* --- validate-resident -------------------------------------------------- *)

let resident_programs = [ "art"; "crafty" ]

let validate_options ~seed =
  { Matrix.default_options with
    Matrix.mo_target = 5000; mo_scale = 4; mo_seed = seed }

(* One validation-matrix row (all nine methods) for one program. *)
let validate_op ~pins ~options (entry : Registry.entry) =
  let key = Printf.sprintf "%s@%d" entry.Registry.name options.Matrix.mo_seed in
  let engine = Pipeline.create_engine () in
  let t0 = now () in
  let row =
    span "validate_op" key (fun () ->
        Matrix.run_workload ~engine ~options entry.Registry.name)
  in
  let seconds = now () -. t0 in
  let op =
    op_of ~pins ~workload:"validate-resident" ~key ~seconds
      ~stats:(Check.stats_of_row row) ~invariants:(Check.row_invariants row)
  in
  (op, engine, row)

let validate_resident ctx =
  let acc = Layers.create () in
  let names = rotation ~seed:ctx.seed resident_programs in
  let setup, programs = repeat_setup acc ~reps:80 names in
  let options =
    validate_options ~seed:(batch_input_seed ~seed:ctx.seed ~index:ctx.index)
  in
  let cells = ref [] in
  let run1 (entry, program) () =
    safely entry.Registry.name (fun () ->
        let op, engine, row = validate_op ~pins:ctx.pins ~options entry in
        cells := !cells @ row.Matrix.w_cells;
        ( op,
          fun () ->
            add_engine_layers acc engine;
            note_scratch acc;
            (* The split needs the op's VLI boundaries, which a matrix
               row does not return: recompute the dynamic VLI result.
               Per binary the row ran two FLI-shaped passes (fli,
               sampling) and three VLI-shaped ones (vli, vli-static,
               vli-recovered). *)
            let configs = configs_of entry in
            let input =
              Input.make
                ~name:(Printf.sprintf "scale%d" options.Matrix.mo_scale)
                ~seed:options.Matrix.mo_seed ~scale:options.Matrix.mo_scale ()
            in
            let target = options.Matrix.mo_target in
            let vli = Pipeline.run_vli program ~configs ~input ~target in
            let binaries = List.map (Lower.compile program) configs in
            Layers.split acc ~binaries ~input ~target ~vli ~n_fli:2 ~n_vli:3 ))
  in
  let ops = run_ops ctx acc run1 programs in
  { b_setup = setup; b_ops = ops; b_refused = 0; b_accuracy = accuracy !cells;
    b_layers = acc; b_rss_mb = peak_rss_mb () }

(* --- warm-serve --------------------------------------------------------- *)

type kind = Fli | Vli | Sample | Validate

let kind_name = function
  | Fli -> "fli" | Vli -> "vli" | Sample -> "sample" | Validate -> "validate"

type key = { k_kind : kind; k_workload : string; k_seed : int }

let key_name k = Printf.sprintf "%s:%s@%d" (kind_name k.k_kind) k.k_workload k.k_seed

(* Small sizing: every key's pipeline takes well under a second cold. *)
let serve_target = 20_000
let serve_scale = 1
let serve_max_k = 10
let serve_n = 24
let serve_programs = [ "art"; "apsi" ]

(* One key per (kind, program), each with an input seed drawn from
   [seed]: the mix of request kinds and programs is the same in every
   run, only the inputs change. *)
let serve_keys ~seed =
  let rng = Rng.create ~seed in
  List.concat_map
    (fun kind ->
      List.map
        (fun w -> { k_kind = kind; k_workload = w; k_seed = 1 + Rng.int rng ~bound:999_983 })
        serve_programs)
    [ Fli; Vli; Sample; Validate ]

let request_of k =
  match k.k_kind with
  | Fli | Vli ->
    Protocol.Points
      { Protocol.p_workload = k.k_workload;
        p_method = (if k.k_kind = Fli then `Fli else `Vli);
        p_target = serve_target; p_scale = serve_scale; p_seed = k.k_seed;
        p_max_k = serve_max_k; p_static = false }
  | Sample ->
    Protocol.Sample
      { Protocol.s_workload = k.k_workload; s_target = serve_target;
        s_scale = serve_scale; s_seed = k.k_seed; s_n = serve_n; s_level = 0.95 }
  | Validate ->
    Protocol.Validate
      { Protocol.v_workload = k.k_workload; v_target = serve_target;
        v_scale = serve_scale; v_seed = k.k_seed; v_max_k = serve_max_k;
        v_n = serve_n }

(* Response equality ignoring [elapsed_s], without building a copy:
   the check runs between requests and must not add garbage the
   daemon's domains then pay for. *)
let rec same_result a b =
  match (a, b) with
  | Jsonx.Obj xs, Jsonx.Obj ys -> same_fields xs ys
  | Jsonx.List xs, Jsonx.List ys -> List.equal same_result xs ys
  | _ -> a = b

and same_fields xs ys =
  match (xs, ys) with
  | ("elapsed_s", _) :: xs, ys | xs, ("elapsed_s", _) :: ys -> same_fields xs ys
  | (k, v) :: xs, (k', v') :: ys -> k = k' && same_result v v' && same_fields xs ys
  | [], [] -> true
  | _ -> false

(* The direct [Pipeline]/[Matrix] result for a key, computed exactly as
   the daemon computes it, as (expected response, digest stats,
   invariants, fli/vli cells). *)
let direct ~engine k =
  let entry = Registry.find k.k_workload in
  let program = entry.Registry.build () in
  let configs = configs_of entry in
  let input = Input.make ~seed:k.k_seed ~scale:serve_scale () in
  let sp_config = { Simpoint.default_config with Simpoint.max_k = serve_max_k } in
  let workload = entry.Registry.name in
  match k.k_kind with
  | Fli ->
    let r =
      Pipeline.run_fli ~sp_config ~engine program ~configs ~input ~target:serve_target
    in
    let records = Pipeline.estimate_records_fli r in
    ( Protocol.json_of_fli ~workload ~elapsed_s:0.0 r,
      Check.stats_of_records records, Check.record_invariants records,
      cells_of_records records )
  | Vli ->
    let r =
      Pipeline.run_vli ~sp_config ~engine program ~configs ~input ~target:serve_target
    in
    let records = Pipeline.estimate_records_vli r in
    ( Protocol.json_of_vli ~workload ~elapsed_s:0.0 r,
      Check.stats_of_records records, Check.record_invariants records,
      cells_of_records records )
  | Sample ->
    let r =
      Pipeline.run_sampling ~engine ~level:0.95 ~seeds:[ k.k_seed ] program ~configs
        ~input ~target:serve_target ~n:serve_n
    in
    let records = Pipeline.estimate_records_sampling r in
    ( Protocol.json_of_sampling ~workload ~elapsed_s:0.0 r,
      Check.stats_of_records records, Check.record_invariants records, [] )
  | Validate ->
    let options =
      { Matrix.default_options with
        Matrix.mo_target = serve_target; mo_scale = serve_scale; mo_seed = k.k_seed;
        mo_max_k = serve_max_k; mo_sample_n = serve_n }
    in
    let row = Matrix.run_workload ~engine ~options workload in
    let matrix = { Matrix.m_workloads = [ row ]; m_options = options; m_jobs = 1 } in
    ( Protocol.json_of_validation ~workload ~elapsed_s:0.0 ~mode:"serve" matrix
        (Leaderboard.build matrix),
      Check.stats_of_row row, Check.row_invariants row, [] )

type expected = {
  e_key : key;
  e_request : Protocol.request;
  e_response : Jsonx.t;  (* direct result, as the wire would carry it *)
  e_insts : int;
  e_digest : string;
  e_error : string option;  (* digest or invariant failure of the direct result *)
}

(* One request through [Client.request] with no retries: a refused,
   shed or quota-denied request is a failed op.  ([attempts] counts
   retries after the first try.) *)
let serve_op ~address ~check ~key ~insts ~digest req =
  let t0 = now () in
  let response =
    span "serve_op" key (fun () -> Client.request ~attempts:0 ~address req)
  in
  let seconds = now () -. t0 in
  { o_key = key; o_seconds = seconds; o_insts = insts; o_digest = digest;
    o_error =
      (match response with
      | Error e -> Some ("request failed: " ^ e)
      | Ok json -> ( match check json with Ok () -> None | Error e -> Some e)) }

let check_expected e json =
  match e.e_error with
  | Some err -> Error err
  | None ->
    if same_result json e.e_response then Ok ()
    else Error "response differs from the direct Pipeline result"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let server_config ~address ~cache_dir =
  { (Server.default_config address) with
    Server.sv_workers = 1; sv_queue_cap = 64; sv_quota_rate = 1e6;
    sv_quota_burst = 1e6; sv_cache_dir = Some cache_dir; sv_jobs = 1 }

(* Set-up: compile the key set's programs and populate a fresh cache
   directory through a separate engine (the cold write path). *)
let serve_setup ctx acc ~keys ~cache_dir =
  let t0 = now () in
  let names = List.sort_uniq compare (List.map (fun k -> k.k_workload) keys) in
  let _, compile_s, _ = build_and_compile names in
  Layers.add acc "setup.compile_s" compile_s;
  let before = Layers.totals () in
  let engine = Pipeline.create_engine ~cache_dir () in
  let expected =
    List.map
      (fun k ->
        let json, stats, invariants, cells = direct ~engine k in
        let key = key_name k in
        let digest = Check.digest stats in
        ( { e_key = k; e_request = request_of k; e_response = Jsonx.of_string (Jsonx.to_string json);
            e_insts = Check.insts stats; e_digest = digest;
            e_error =
              (match
                 Check.verify ~pins:ctx.pins ~workload:"warm-serve" ~key ~digest
                   ~invariants
               with
              | Ok () -> None
              | Error e -> Some e) },
          cells ))
      keys
  in
  let bytes =
    Layers.total (Layers.totals ()) "store.bytes" -. Layers.total before "store.bytes"
  in
  Layers.add acc "setup.store_bytes" bytes;
  (now () -. t0, expected)

let histogram_count name = Layers.total (Layers.totals ()) (name ^ ".count")

(* The server records a request's latency after closing the connection,
   so the client may see the response first: wait (briefly) for it. *)
let await_count name target =
  let deadline = now () +. 0.5 in
  while histogram_count name < target && now () < deadline do
    Unix.sleepf 0.0002
  done

let warm_serve ctx =
  let acc = Layers.create () in
  let keys = serve_keys ~seed:ctx.seed in
  let base = Filename.concat ctx.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf base;
  Unix.mkdir base 0o755;
  let cache_dir = Filename.concat base "cache" in
  Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
  let setup_s, expected_cells = serve_setup ctx acc ~keys ~cache_dir in
  let expected = Array.of_list (List.map fst expected_cells) in
  let order = Array.init (Array.length expected) Fun.id in
  Rng.shuffle (Rng.create ~seed:(Rng.hash2 ctx.seed ctx.index)) order;
  let address = Server.Unix_socket (Filename.concat base "s.sock") in
  let before = Layers.totals () in
  let server = Server.start (server_config ~address ~cache_dir) in
  let ops = ref [] in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      let deadline = now () +. ctx.seconds in
      let i = ref 0 in
      while now () < deadline do
        let e = expected.(order.(!i mod Array.length order)) in
        let run () =
          serve_op ~address ~check:(check_expected e) ~key:(key_name e.e_key)
            ~insts:e.e_insts ~digest:e.e_digest e.e_request
        in
        if ctx.trace then begin
          (* Traced first, so a key's first touch (the disk read) is
             seen by the traced request's store deltas. *)
          let server_engine = Server.engine server in
          let memo0 = snd (Pipeline.compile_stats server_engine) in
          let count0 = histogram_count "serve.latency_seconds" in
          let sum0 = Layers.total (Layers.totals ()) "serve.latency_seconds.sum" in
          let op = traced acc run in
          await_count "serve.latency_seconds" (count0 +. 1.0);
          let server_s =
            Layers.total (Layers.totals ()) "serve.latency_seconds.sum" -. sum0
          in
          Layers.push acc "serve.server_s" server_s;
          Layers.push acc "serve.client_s" op.o_seconds;
          let plain = run () in
          Layers.push acc "op.untraced" plain.o_seconds;
          Layers.push acc "op.traced" op.o_seconds;
          Layers.add acc "ops" 1.0;
          Layers.add acc "serve.ops" 1.0;
          Layers.add acc "compile.memo_hits"
            (float_of_int (snd (Pipeline.compile_stats server_engine) - memo0));
          ops := op :: plain :: !ops
        end
        else ops := run () :: !ops;
        incr i
      done);
  let after = Layers.totals () in
  let refused name = int_of_float (Layers.total after name -. Layers.total before name) in
  let cells = List.concat_map snd expected_cells in
  { b_setup = [ setup_s ]; b_ops = List.rev !ops;
    b_refused = refused "serve.shed" + refused "serve.quota_denied";
    b_accuracy = accuracy cells; b_layers = acc; b_rss_mb = peak_rss_mb () }

let run_batch ~workload ctx =
  match workload with
  | "cold-dram" -> cold_dram ctx
  | "validate-resident" -> validate_resident ctx
  | "warm-serve" -> warm_serve ctx
  | w -> invalid_arg ("unknown workload " ^ w)
