(* Tests for the offline-tooling I/O: SimPoint-format BBV files and
   executor event traces. *)

module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Executor = Cbsp_exec.Executor
module Trace = Cbsp_exec.Trace
module Interval = Cbsp_profile.Interval
module Bbv_file = Cbsp_profile.Bbv_file
module Structprof = Cbsp_profile.Structprof

let input = Tutil.test_input

let with_temp f =
  let path = Filename.temp_file "cbsp_io" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let intervals_of binary =
  let obs, read =
    Interval.fli_observer ~n_blocks:binary.Binary.n_blocks ~target:20_000 ()
  in
  let (_ : Executor.totals) = Executor.run binary input obs in
  read ()

(* --- BBV files -------------------------------------------------------- *)

let test_bbv_roundtrip () =
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_32 Config.O0)
  in
  let intervals = intervals_of binary in
  let text = Bbv_file.to_string intervals in
  let bbvs = Bbv_file.of_string ~n_blocks:binary.Binary.n_blocks text in
  Tutil.check_int "same interval count" (Array.length intervals) (Array.length bbvs);
  Array.iteri
    (fun i iv ->
      Alcotest.(check (array (float 0.5)))
        (Printf.sprintf "interval %d vector" i)
        iv.Interval.bbv bbvs.(i))
    intervals

let test_bbv_file_roundtrip () =
  let binary =
    Lower.compile (Tutil.single_loop_program ~trips:100 ()) (Config.v Isa.X86_32 Config.O2)
  in
  let intervals = intervals_of binary in
  with_temp (fun path ->
      Bbv_file.save ~path intervals;
      let bbvs = Bbv_file.load ~n_blocks:binary.Binary.n_blocks ~path () in
      Tutil.check_int "count preserved" (Array.length intervals) (Array.length bbvs))

let test_bbv_format_shape () =
  let text =
    Bbv_file.to_string
      [| { Interval.insts = 5; cycles = 0.0; extras = [||];
           bbv = [| 3.0; 0.0; 2.0 |] } |]
  in
  Alcotest.(check string) "sparse, 1-based ids" "T:1:3 :3:2 \n" text

let test_bbv_parse_errors () =
  let bad text =
    match Bbv_file.of_string text with
    | (_ : float array array) -> Alcotest.fail "expected Parse_error"
    | exception Bbv_file.Parse_error _ -> ()
  in
  bad "X:1:3";
  bad "T:0:3 ";
  bad "T:1:abc ";
  bad "Tgarbage";
  (* id above declared dimensionality *)
  match Bbv_file.of_string ~n_blocks:2 "T:5:1 \n" with
  | (_ : float array array) -> Alcotest.fail "expected Parse_error"
  | exception Bbv_file.Parse_error _ -> ()

let test_bbv_dim_inference () =
  let bbvs = Bbv_file.of_string "T:2:7 \nT:4:1 \n" in
  Tutil.check_int "dim = max id" 4 (Array.length bbvs.(0));
  Tutil.check_float "entry placed" 7.0 bbvs.(0).(1)

(* --- traces ----------------------------------------------------------- *)

let test_trace_roundtrip_totals () =
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_64 Config.O2)
  in
  with_temp (fun path ->
      let events = Cbsp_obs.Metrics.counter "trace.replay.events" in
      let events0 = Cbsp_obs.Metrics.value events in
      let live = Trace.record ~path binary input in
      let replayed = Trace.replay ~path Executor.null_observer in
      Tutil.check_bool "totals identical" true (live = replayed);
      (* One replay event per trace line: every block, access and marker
         the recorder wrote was observed by the obs counter. *)
      Tutil.check_int "trace.replay.events counted every line"
        (live.Executor.blocks + live.Executor.accesses + live.Executor.markers)
        (Cbsp_obs.Metrics.value events - events0))

let test_trace_drives_profilers () =
  (* a structure profile computed from the trace equals the live one *)
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_32 Config.O0)
  in
  let live = Structprof.profile binary input in
  with_temp (fun path ->
      let (_ : Executor.totals) = Trace.record ~path binary input in
      let obs, read = Structprof.observer () in
      let (_ : Executor.totals) = Trace.replay ~path obs in
      let replayed = read () in
      Tutil.check_bool "profiles equal" true
        (Cbsp_compiler.Marker.Map.equal ( = ) live replayed))

let test_trace_drives_cache_model () =
  (* cycle counts from trace replay equal the live simulation *)
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_32 Config.O2)
  in
  let live_cpu = Cbsp_cache.Cpu.create () in
  let (_ : Executor.totals) =
    Executor.run binary input (Cbsp_cache.Cpu.observer live_cpu)
  in
  with_temp (fun path ->
      let (_ : Executor.totals) = Trace.record ~path binary input in
      let cpu = Cbsp_cache.Cpu.create () in
      let (_ : Executor.totals) = Trace.replay ~path (Cbsp_cache.Cpu.observer cpu) in
      Tutil.check_close ~eps:1e-9 "same cycles" (Cbsp_cache.Cpu.cycles live_cpu)
        (Cbsp_cache.Cpu.cycles cpu))

let test_trace_parse_errors () =
  let parse_errors = Cbsp_obs.Metrics.counter "trace.replay.parse_errors" in
  let errors0 = Cbsp_obs.Metrics.value parse_errors in
  let bad text =
    let path = Filename.temp_file "cbsp_bad" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        match Trace.replay ~path Executor.null_observer with
        | (_ : Executor.totals) -> Alcotest.fail "expected Parse_error"
        | exception Trace.Parse_error _ -> ())
  in
  bad "B 1\n";
  bad "A xyz r\n";
  bad "A 12 q\n";
  bad "M nonsense\n";
  bad "Z 1 2\n";
  Tutil.check_int "every malformed line counted" 5
    (Cbsp_obs.Metrics.value parse_errors - errors0)

let test_trace_negative_fields () =
  (* The file format has no negative fields: a negative block id,
     instruction count or address is corrupt, not a value to charge. *)
  List.iter
    (fun text ->
      let path = Filename.temp_file "cbsp_neg" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Cbsp_util.Io.with_out_file path (fun oc -> output_string oc text);
          match Trace.replay ~path Executor.null_observer with
          | (_ : Executor.totals) -> Alcotest.failf "accepted %S" text
          | exception Trace.Parse_error _ -> ()))
    [ "B 0 -5\n"; "B -1 3\n"; "B 0 3\nA -64 r\n"; "B 0 3\nA 8 r\nA -1 w\n" ]

(* Block, count and marker events in order, as a list. *)
let count_stream () =
  let evs = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_block = (fun id n -> evs := `B (id, n) :: !evs);
      on_access_count = (fun n -> evs := `C n :: !evs);
      on_marker = (fun k -> evs := `M k :: !evs) }
  in
  (obs, fun () -> List.rev !evs)

let test_trace_count_events () =
  (* A replayed file delivers each block's access count where the
     executor does, to an observer that reads no addresses. *)
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_32 Config.O0)
  in
  let obs, read = count_stream () in
  let (_ : Executor.totals) = Executor.run binary input obs in
  let live = read () in
  with_temp (fun path ->
      let (_ : Executor.totals) = Trace.record ~path binary input in
      let obs, read = count_stream () in
      let (_ : Executor.totals) = Trace.replay ~path obs in
      Tutil.check_bool "has counts" true
        (List.exists (function `C _ -> true | _ -> false) live);
      Tutil.check_bool "same block, count and marker events" true
        (read () = live))

let test_trace_drives_cycletrace () =
  (* A cycle trace recorded live replays over the trace file to the live
     cycles and extra counters. *)
  let module Cycletrace = Cbsp_cache.Cycletrace in
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_64 Config.O0)
  in
  let live = Cycletrace.live () in
  let (_ : Executor.totals) =
    Executor.run binary input (Cycletrace.observer live)
  in
  let trace = Cycletrace.finish live in
  with_temp (fun path ->
      let (_ : Executor.totals) = Trace.record ~path binary input in
      let sim = Cycletrace.replay trace in
      let (_ : Executor.totals) = Trace.replay ~path (Cycletrace.observer sim) in
      Tutil.check_bool "every record read" true (Cycletrace.finish sim == trace);
      Tutil.check_bool "cycles" true (Cycletrace.cycles sim = Cycletrace.cycles live);
      Tutil.check_bool "some misses" true
        ((Cycletrace.extra_counters live).(0) > 0.0);
      Tutil.check_bool "extras" true
        (Cycletrace.extra_counters sim = Cycletrace.extra_counters live))

let () =
  Alcotest.run "io"
    [ ( "bbv files",
        [ Tutil.quick "roundtrip" test_bbv_roundtrip;
          Tutil.quick "file roundtrip" test_bbv_file_roundtrip;
          Tutil.quick "format shape" test_bbv_format_shape;
          Tutil.quick "parse errors" test_bbv_parse_errors;
          Tutil.quick "dim inference" test_bbv_dim_inference ] );
      ( "traces",
        [ Tutil.quick "roundtrip totals" test_trace_roundtrip_totals;
          Tutil.quick "drives profilers" test_trace_drives_profilers;
          Tutil.quick "drives cache model" test_trace_drives_cache_model;
          Tutil.quick "parse errors" test_trace_parse_errors;
          Tutil.quick "negative fields" test_trace_negative_fields;
          Tutil.quick "count events" test_trace_count_events;
          Tutil.quick "drives cycle trace" test_trace_drives_cycletrace ] ) ]
