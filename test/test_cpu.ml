module Cpu = Cbsp_cache.Cpu
module Cycletrace = Cbsp_cache.Cycletrace
module Hierarchy = Cbsp_cache.Hierarchy
module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Lower = Cbsp_compiler.Lower
module Executor = Cbsp_exec.Executor

let test_base_cpi_is_one () =
  (* a program with no memory accesses runs at exactly CPI 1.0 *)
  let program = Tutil.single_loop_program ~trips:100 ~insts:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let cpu = Cpu.create () in
  let totals = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_int "cpu saw all insts" totals.Executor.insts (Cpu.insts cpu);
  Tutil.check_close ~eps:1e-9 "cpi exactly 1" 1.0 (Cpu.cpi cpu)

(* Note: at O0 the same program has spill traffic, so CPI > 1. *)
let test_spills_raise_cpi () =
  let program = Tutil.single_loop_program ~trips:100 ~insts:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_bool "O0 cpi > 1 (spill stalls)" true (Cpu.cpi cpu > 1.0);
  Tutil.check_bool "spills are L1-friendly: cpi < 3" true (Cpu.cpi cpu < 3.0)

let test_memory_bound_cpi_higher () =
  let program = Tutil.two_phase_program () in
  let config = Config.v Isa.X86_64 Config.O2 in
  let binary = Lower.compile program config in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Tutil.check_bool "random traffic pushes cpi well above 1" true (Cpu.cpi cpu > 1.3)

let test_cpi_before_run () =
  (* cpi is total: nan (not an exception) before any instruction, so it
     can flow into Stats.relative_error / Stats.percentile unguarded. *)
  let cpu = Cpu.create () in
  Tutil.check_bool "nan before any instruction" true
    (Float.is_nan (Cpu.cpi cpu));
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input (Cpu.observer cpu)
  in
  Tutil.check_bool "finite after a run" true (Float.is_finite (Cpu.cpi cpu));
  Cpu.reset cpu;
  Tutil.check_bool "nan again after reset" true (Float.is_nan (Cpu.cpi cpu))

(* Totality over arbitrary observer event streams: cpi never raises, is
   nan exactly while no instruction has retired, and is >= 1 otherwise
   (base cycle per instruction plus non-negative stalls). *)
let prop_cpi_total =
  QCheck.Test.make ~name:"cpi total over arbitrary event streams" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 60)
        (pair (int_range 0 50) (int_range 0 1_000_000)))
    (fun events ->
      let cpu = Cpu.create () in
      let obs = Cpu.observer cpu in
      List.iter
        (fun (insts, addr) ->
          obs.Executor.on_block 0 insts;
          Option.get obs.Executor.on_access addr (addr mod 2 = 0))
        events;
      let cpi = Cpu.cpi cpu in
      if Cpu.insts cpu = 0 then Float.is_nan cpi
      else Float.is_finite cpi && cpi >= 1.0)

let test_extra_counters_monotone () =
  (* every extra counter is a monotone snapshot during a run *)
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let last = ref (Cpu.extra_counters cpu) in
  let watcher =
    { Executor.null_observer with
      Executor.on_block =
        (fun _ _ ->
          let now = Cpu.extra_counters cpu in
          Array.iteri
            (fun i v ->
              if v < !last.(i) then
                Alcotest.failf "counter %d went backwards" i)
            now;
          last := now) }
  in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input
      (Executor.compose [ watcher; Cpu.observer cpu ])
  in
  Tutil.check_bool "saw traffic" true
    (Array.exists (fun v -> v > 0.0) (Cpu.extra_counters cpu))

let test_reset () =
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let cpu = Cpu.create () in
  let (_ : Executor.totals) = Executor.run binary Tutil.test_input (Cpu.observer cpu) in
  Cpu.reset cpu;
  Tutil.check_int "insts cleared" 0 (Cpu.insts cpu);
  Tutil.check_float "cycles cleared" 0.0 (Cpu.cycles cpu)

let test_custom_config () =
  (* with an absurdly small hierarchy, the same program costs more *)
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let run config =
    let cpu = Cpu.create ?config () in
    let (_ : Executor.totals) =
      Executor.run binary Tutil.test_input (Cpu.observer cpu)
    in
    Cpu.cpi cpu
  in
  let default = run None in
  let tiny = run (Some (Hierarchy.scaled_config ~factor:64)) in
  Tutil.check_bool "smaller caches, higher cpi" true (tiny > default)

let test_cycles_monotone () =
  let program = Tutil.single_loop_program ~trips:50 () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let cpu = Cpu.create () in
  let last = ref 0.0 in
  let watcher =
    { Executor.null_observer with
      Executor.on_block =
        (fun _ _ ->
          let now = Cpu.cycles cpu in
          if now < !last then Alcotest.fail "cycles went backwards";
          last := now) }
  in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input (Executor.compose [ watcher; Cpu.observer cpu ])
  in
  Tutil.check_bool "progressed" true (Cpu.cycles cpu > 0.0)

(* --- cycle traces --------------------------------------------------- *)

(* A model's (cycles, extras) at every block and marker event, read
   before the model sees the event (the interval builders' vantage
   point), plus once at the end. *)
let samples binary ~cycles ~extras model =
  let acc = ref [] in
  let note () = acc := (cycles (), extras ()) :: !acc in
  let probe =
    { Executor.null_observer with
      Executor.on_block = (fun _ _ -> note ());
      on_marker = (fun _ -> note ()) }
  in
  let (_ : Executor.totals) =
    Executor.run binary Tutil.test_input (Executor.compose [ probe; model ])
  in
  note ();
  List.rev !acc

let one_level =
  { Hierarchy.levels = [ List.hd Hierarchy.paper_table1.Hierarchy.levels ];
    dram_latency = 250 }

let no_levels = { Hierarchy.levels = []; dram_latency = 250 }

(* Deeper than the three levels a record's first byte covers, with two
   varint levels so the "only when the level above missed" chain runs. *)
let five_levels =
  let level name kib latency =
    { Hierarchy.lv_name = name; lv_capacity = kib * 1024; lv_assoc = 16;
      lv_line = 64; lv_latency = latency;
      lv_replacement = Cbsp_cache.Cache.Lru }
  in
  { Hierarchy.paper_table1 with
    Hierarchy.levels =
      Hierarchy.paper_table1.Hierarchy.levels
      @ [ level "L4" 2048 60; level "L5" 4096 90 ] }

(* Blocks that miss far more than a record's first byte holds: 40 and
   300 random accesses per block into an array well beyond every cache,
   so the counts escape to one- and two-byte varints; and a block whose
   misses stop below the third level. *)
let escape_program () =
  let module B = Cbsp_source.Builder in
  let b = B.create ~name:"escape" in
  let big = B.data_array b ~name:"big" ~elem_bytes:8 ~length:1_000_000 in
  let small = B.data_array b ~name:"small" ~elem_bytes:8 ~length:64 in
  (* 1.5 MB: repeated sweeps thrash the paper's 1 MB last level under
     LRU but hit in a deeper level that holds it. *)
  let mid = B.data_array b ~name:"mid" ~elem_bytes:8 ~length:196_608 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Cbsp_source.Ast.Fixed 40)
        [ B.work b ~insts:20 ~accesses:[ B.rand ~arr:big ~count:40 () ] ();
          B.work b ~insts:10 ~accesses:[ B.seq ~arr:small ~count:8 () ] ();
          B.work b ~insts:30 ~accesses:[ B.rand ~arr:big ~count:300 () ] () ];
      B.loop b ~trips:(Cbsp_source.Ast.Fixed 1_500)
        [ B.work b ~insts:10 ~accesses:[ B.seq ~arr:mid ~count:400 () ] () ]
    ];
  B.finish b ~main:"main"

(* Live recording and replay both reproduce Cpu's cycles and counters at
   every event, whatever the hierarchy depth. *)
let check_trace_exact ~name binary config =
  let cpu = Cpu.create ~config () in
  let want =
    samples binary
      ~cycles:(fun () -> Cpu.cycles cpu)
      ~extras:(fun () -> Cpu.extra_counters cpu)
      (Cpu.observer cpu)
  in
  let sim = Cycletrace.live ~config () in
  let live =
    samples binary
      ~cycles:(fun () -> Cycletrace.cycles sim)
      ~extras:(fun () -> Cycletrace.extra_counters sim)
      (Cycletrace.observer sim)
  in
  let trace = Cycletrace.finish sim in
  let rsim = Cycletrace.replay trace in
  let replayed =
    samples binary
      ~cycles:(fun () -> Cycletrace.cycles rsim)
      ~extras:(fun () -> Cycletrace.extra_counters rsim)
      (Cycletrace.observer rsim)
  in
  Tutil.check_bool (name ^ ": live = Cpu at every event") true (live = want);
  Tutil.check_bool (name ^ ": replay = Cpu at every event") true
    (replayed = want);
  Alcotest.(check (list string))
    (name ^ ": counter names") (Cpu.extra_counter_names cpu)
    (Cycletrace.extra_counter_names rsim);
  Tutil.check_bool (name ^ ": replay consumed the whole trace") true
    (Cycletrace.finish rsim == trace);
  want

let test_trace_escape () =
  let binary =
    Lower.compile (escape_program ()) (Config.v Isa.X86_64 Config.O2)
  in
  List.iter
    (fun (name, config) ->
      let want = check_trace_exact ~name binary config in
      (* The escape is exercised: some block missed the first level more
         than 14 times (and more than 127 + 15, a two-byte varint). *)
      if config.Hierarchy.levels <> [] then begin
        let max_step =
          List.fold_left
            (fun (m, prev) (_, extras) ->
              (max m (extras.(0) -. prev), extras.(0)))
            (0.0, 0.0) want
          |> fst
        in
        Tutil.check_bool (name ^ ": a block misses > 142 times") true
          (max_step > 142.0)
      end)
    [ ("paper", Hierarchy.paper_table1);
      ("scaled", Hierarchy.scaled_config ~factor:16);
      ("one level", one_level);
      ("five levels", five_levels);
      ("no levels", no_levels) ]

let test_trace_size () =
  let binary =
    Lower.compile (Tutil.two_phase_program ()) (Config.v Isa.X86_64 Config.O2)
  in
  (* blocks followed by at least one access *)
  let with_access = ref 0 and open_block = ref false in
  let counter =
    { Executor.null_observer with
      Executor.on_block = (fun _ _ -> open_block := true);
      on_access =
        Some
          (fun _ _ ->
            if !open_block then incr with_access;
            open_block := false) }
  in
  let sim = Cycletrace.live () in
  let totals =
    Executor.run binary Tutil.test_input
      (Executor.compose [ counter; Cycletrace.observer sim ])
  in
  let trace = Cycletrace.finish sim in
  Tutil.check_bool "some blocks have no access" true
    (!with_access < totals.Executor.blocks);
  Tutil.check_int "one record per block with accesses" !with_access
    (Cycletrace.records trace);
  Tutil.check_bool "a few bytes per record" true
    (Cycletrace.byte_size trace >= Cycletrace.records trace
    && Cycletrace.byte_size trace <= 3 * Cycletrace.records trace);
  Tutil.check_int "insts" totals.Executor.insts (Cycletrace.insts sim)

let test_trace_wrong_binary () =
  (* A trace replayed over another binary's event stream runs short or
     long, and finish says so instead of returning wrong numbers. *)
  let program = Tutil.two_phase_program () in
  let record config =
    let binary = Lower.compile program config in
    let sim = Cycletrace.live () in
    let (_ : Executor.totals) =
      Executor.run binary Tutil.test_input (Cycletrace.observer sim)
    in
    Cycletrace.finish sim
  in
  let trace = record (Config.v Isa.X86_64 Config.O2) in
  let other = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let sim = Cycletrace.replay trace in
  Tutil.check_bool "mismatched replay rejected" true
    (match
       Executor.run other Tutil.test_input (Cycletrace.observer sim)
     with
     | (_ : Executor.totals) -> (
       match Cycletrace.finish sim with
       | (_ : Cycletrace.t) -> false
       | exception Invalid_argument _ -> true)
     | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "cpu"
    [ ( "cpi model",
        [ Tutil.quick "base cpi 1.0" test_base_cpi_is_one;
          Tutil.quick "spills raise cpi" test_spills_raise_cpi;
          Tutil.quick "memory-bound cpi" test_memory_bound_cpi_higher;
          Tutil.quick "cpi before run" test_cpi_before_run;
          Tutil.quick "reset" test_reset;
          Tutil.quick "custom config" test_custom_config;
          Tutil.quick "cycles monotone" test_cycles_monotone;
          Tutil.quick "extra counters monotone" test_extra_counters_monotone;
          Tutil.qcheck_case prop_cpi_total ] );
      ( "cycle trace",
        [ Tutil.quick "escape + hierarchy depths" test_trace_escape;
          Tutil.quick "size" test_trace_size;
          Tutil.quick "wrong binary" test_trace_wrong_binary ] ) ]
