module B = Cbsp_source.Builder
module Ast = Cbsp_source.Ast
module Config = Cbsp_compiler.Config
module Isa = Cbsp_compiler.Isa
module Costmodel = Cbsp_compiler.Costmodel
module Lower = Cbsp_compiler.Lower
module Binary = Cbsp_compiler.Binary
module Marker = Cbsp_compiler.Marker
module Executor = Cbsp_exec.Executor

let input = Tutil.test_input

let run binary obs = Executor.run binary input obs

(* Analytic instruction count for a single fixed loop at O0/32:
   header + trips * (work + backedge). *)
let test_analytic_insts () =
  let trips = 10 and insts = 50 in
  let program = Tutil.single_loop_program ~trips ~insts () in
  let config = Config.v Isa.X86_32 Config.O0 in
  let binary = Lower.compile program config in
  let totals = run binary Executor.null_observer in
  let expected =
    Costmodel.loop_header_insts config
    + (trips * (Costmodel.work_insts config insts + Costmodel.backedge_insts config))
  in
  Tutil.check_int "analytic instruction count" expected totals.Executor.insts

let test_determinism () =
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_64 Config.O2) in
  let t1 = run binary Executor.null_observer in
  let t2 = run binary Executor.null_observer in
  Tutil.check_bool "totals identical across runs" true (t1 = t2)

let test_zero_trip_loop () =
  let b = B.create ~name:"z" in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 0) [ B.work b ~insts:10 () ];
      B.work b ~insts:5 () ]
  |> ignore;
  let program = B.finish b ~main:"main" in
  let config = Config.v Isa.X86_32 Config.O2 in
  let binary = Lower.compile program config in
  let entries = ref 0 and backs = ref 0 in
  let obs =
    { Executor.null_observer with
      Executor.on_marker =
        (fun key ->
          match key with
          | Marker.Loop_entry _ -> incr entries
          | Marker.Loop_back _ -> incr backs
          | Marker.Proc_entry _ -> ()) }
  in
  let totals = run binary obs in
  Tutil.check_int "loop entered" 1 !entries;
  Tutil.check_int "no back edges" 0 !backs;
  let expected =
    Costmodel.loop_header_insts config + Costmodel.work_insts config 5
  in
  Tutil.check_int "header + tail only" expected totals.Executor.insts

let marker_counts binary =
  let obs, read = Cbsp_profile.Structprof.observer () in
  let (_ : Executor.totals) = run binary obs in
  read ()

let test_loop_marker_counts () =
  let trips = 10 in
  let program = Tutil.single_loop_program ~trips () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let profile = marker_counts binary in
  let line = List.hd (Ast.loop_lines program) in
  Tutil.check_int "one entry" 1
    (Cbsp_profile.Structprof.count profile (Marker.Loop_entry line));
  Tutil.check_int "one back per iteration" trips
    (Cbsp_profile.Structprof.count profile (Marker.Loop_back line));
  Tutil.check_int "main entered once" 1
    (Cbsp_profile.Structprof.count profile (Marker.Proc_entry "main"))

(* Unrolling: back-edge marker fires ceil(trips/U) times per entry. *)
let test_unrolled_backedge_count () =
  let b = B.create ~name:"u" in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 10) ~unrollable:true [ B.work b ~insts:20 () ] ];
  let program = B.finish b ~main:"main" in
  let config = Config.v Isa.X86_32 Config.O2 in
  let u = Costmodel.unroll_factor config in
  let binary = Lower.compile program config in
  let profile = marker_counts binary in
  let line = List.hd (Ast.loop_lines program) in
  Tutil.check_int "machine back edges = ceil(trips/U)"
    ((10 + u - 1) / u)
    (Cbsp_profile.Structprof.count profile (Marker.Loop_back line))

(* The semantic-equivalence invariant: the sequence of data-memory
   addresses is identical across optimization levels of the same ISA, and
   differs across ISAs only through the layout of pointer arrays. *)
let collect_data_addrs binary =
  let layout = binary.Binary.layout in
  let stack_floor = Cbsp_compiler.Layout.stack_addr layout ~depth:0 ~slot:0 in
  let addrs = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_access =
        Some (fun addr _ -> if addr < stack_floor then addrs := addr :: !addrs) }
  in
  let (_ : Executor.totals) = run binary obs in
  List.rev !addrs

let test_data_stream_invariant_across_opt () =
  let program = Tutil.two_phase_program () in
  let o0 = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let o2 = Lower.compile program (Config.v Isa.X86_32 Config.O2) in
  Tutil.check_bool "same data addresses O0 vs O2" true
    (collect_data_addrs o0 = collect_data_addrs o2)

let test_data_stream_invariant_across_isa () =
  (* with only 8-byte data arrays, even the ISA change is invisible *)
  let program = Tutil.two_phase_program () in
  let b32 = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let b64 = Lower.compile program (Config.v Isa.X86_64 Config.O0) in
  Tutil.check_bool "same data addresses 32 vs 64 (data arrays only)" true
    (collect_data_addrs b32 = collect_data_addrs b64)

(* Marker-stream equivalence: the subsequence of mappable marker events is
   identical across all four binaries, split or not. *)
let marker_stream binary ~mappable =
  let events = ref [] in
  let obs =
    { Executor.null_observer with
      Executor.on_marker =
        (fun key -> if mappable key then events := key :: !events) }
  in
  let (_ : Executor.totals) = run binary obs in
  List.rev !events

let check_marker_streams program ~loop_splitting =
  let binaries = Tutil.compile_all ~loop_splitting program in
  let profiles =
    List.map (fun b -> Cbsp_profile.Structprof.profile b input) binaries
  in
  let mappable = Cbsp.Matching.find ~binaries ~profiles () in
  let streams =
    List.map (fun b -> marker_stream b ~mappable:(Cbsp.Matching.is_mappable mappable))
      binaries
  in
  match streams with
  | first :: rest ->
    Tutil.check_bool "nonempty stream" true (first <> []);
    List.iteri
      (fun i s ->
        Tutil.check_bool
          (Printf.sprintf "binary %d matches primary stream" (i + 1))
          true (s = first))
      rest
  | [] -> Alcotest.fail "no binaries"

let test_marker_stream_equivalence () =
  check_marker_streams (Tutil.two_phase_program ()) ~loop_splitting:false;
  check_marker_streams (Tutil.splittable_program ()) ~loop_splitting:true

(* Split loops must preserve source-level totals: same data accesses (as a
   multiset — order is permuted by distribution) and same trip sums. *)
let test_split_preserves_access_multiset () =
  let program = Tutil.splittable_program () in
  let plain = Lower.compile program (Config.v Isa.X86_32 Config.O2) in
  let split =
    Lower.compile program (Config.v ~loop_splitting:true Isa.X86_32 Config.O2)
  in
  let sorted b = List.sort compare (collect_data_addrs b) in
  Tutil.check_bool "same address multiset" true (sorted plain = sorted split)

let test_select_counts () =
  let b = B.create ~name:"s" in
  let arms = 3 in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 100)
        [ B.select b
            (Array.init arms (fun i -> [ B.work b ~insts:(10 + i) () ])) ] ];
  let program = B.finish b ~main:"main" in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let blocks = ref 0 in
  let obs =
    { Executor.null_observer with
      Executor.on_block = (fun _ _ -> incr blocks) }
  in
  let totals = run binary obs in
  Tutil.check_int "observer saw all blocks" totals.Executor.blocks !blocks;
  (* 100 dispatches + 100 arm bodies + 100 backedges + 1 header *)
  Tutil.check_int "block events" (100 + 100 + 100 + 1) totals.Executor.blocks

let test_compose_order () =
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  (* Every block event must reach the observers in list order, for a
     pair and for longer lists alike. *)
  List.iter
    (fun n ->
      let order = ref [] in
      let observers =
        List.init n (fun i ->
            { Executor.null_observer with
              Executor.on_block = (fun _ _ -> order := i :: !order) })
      in
      let totals = run binary (Executor.compose observers) in
      let seen = List.rev !order in
      let expected =
        List.concat (List.init totals.Executor.blocks (fun _ -> List.init n Fun.id))
      in
      Tutil.check_bool "composition saw events" true (seen <> []);
      if seen <> expected then
        Alcotest.failf "%d observers not called in list order" n)
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Flat interpreter vs tree-walking reference.                         *)

type event =
  | EBlock of int * int
  | EAccess of int * bool
  | ECount of int
  | EMarker of Marker.key

(* Every event, with addresses when [addresses], without otherwise. *)
let event_stream ?(addresses = true) run_fn binary =
  let evs = ref [] in
  let obs =
    { Executor.on_block = (fun id insts -> evs := EBlock (id, insts) :: !evs);
      on_access =
        (if addresses then Some (fun addr w -> evs := EAccess (addr, w) :: !evs)
         else None);
      on_access_count = (fun n -> evs := ECount n :: !evs);
      on_marker = (fun k -> evs := EMarker k :: !evs) }
  in
  let totals = run_fn binary input obs in
  (totals, List.rev !evs)

let check_flat_matches_tree program ~loop_splitting =
  List.iteri
    (fun i binary ->
      let t_flat, e_flat = event_stream Executor.run binary in
      let t_tree, e_tree = event_stream Tree_exec.run binary in
      let tag msg = Printf.sprintf "binary %d: %s" i msg in
      Tutil.check_bool (tag "stream nonempty") true (e_flat <> []);
      Tutil.check_bool (tag "has count events") true
        (List.exists (function ECount _ -> true | _ -> false) e_flat);
      Tutil.check_bool (tag "event streams identical") true (e_flat = e_tree);
      Tutil.check_bool (tag "totals identical") true (t_flat = t_tree))
    (Tutil.compile_all ~loop_splitting program)

let test_flat_matches_tree () =
  check_flat_matches_tree (Tutil.two_phase_program ()) ~loop_splitting:false;
  check_flat_matches_tree (Tutil.splittable_program ()) ~loop_splitting:true

(* An address-free run skips all address computation; its block, count
   and marker events and its totals must still agree with a run that
   reads addresses, and each count must be the number of accesses the
   block delivered. *)
let test_fast_path_totals () =
  List.iter
    (fun binary ->
      let fast, e_fast = event_stream ~addresses:false Executor.run binary in
      let observed, e_full = event_stream Executor.run binary in
      Tutil.check_bool "fast-path totals equal observed-run totals" true
        (fast = observed);
      Tutil.check_bool "same events but the addresses" true
        (e_fast = List.filter (function EAccess _ -> false | _ -> true) e_full);
      let pending =
        List.fold_left
          (fun pending ev ->
            match ev with
            | EAccess _ -> pending + 1
            | ECount n ->
              Tutil.check_int "count = accesses since the block" pending n;
              0
            | EBlock _ | EMarker _ ->
              Tutil.check_int "count fired before the next event" 0 pending;
              0)
          0 e_full
      in
      Tutil.check_int "no accesses after the last count" 0 pending;
      Tutil.check_int "null observer totals" observed.Executor.accesses
        (Executor.run binary input Executor.null_observer).Executor.accesses)
    (Tutil.compile_all (Tutil.two_phase_program ()))

(* Regression: a Hot window wider than its array must still yield
   addresses inside the array's span (the index wraps mod length in both
   interpreters), even when interleaved Seq accesses on the same array
   push the shared cursor toward the end. *)
let test_hot_window_exceeds_length () =
  let len = 32 in
  let b = B.create ~name:"hotwrap" in
  let arr = B.data_array b ~name:"buf" ~elem_bytes:8 ~length:len in
  B.proc b ~name:"main"
    [ B.loop b ~trips:(Ast.Fixed 200)
        [ B.work b ~insts:10
            ~accesses:
              [ B.seq ~arr ~stride:7 ~count:3 ();
                B.hot ~arr ~window:(4 * len) ~count:3 () ]
            () ] ];
  let program = B.finish b ~main:"main" in
  List.iter
    (fun binary ->
      let layout = binary.Binary.layout in
      let base = Cbsp_compiler.Layout.array_base layout ~array_id:0 in
      let span = len * Cbsp_compiler.Layout.array_elem_bytes layout ~array_id:0 in
      let stack_floor = Cbsp_compiler.Layout.stack_addr layout ~depth:0 ~slot:0 in
      let seen = ref 0 in
      let obs =
        { Executor.null_observer with
          Executor.on_access =
            Some
              (fun addr _ ->
                if addr < stack_floor then begin
                  incr seen;
                  if addr < base || addr >= base + span then
                    Alcotest.failf "address %#x outside array span" addr
                end) }
      in
      List.iter
        (fun run_fn -> ignore (run_fn binary input obs))
        [ Executor.run; Tree_exec.run ];
      Tutil.check_bool "hot/seq accesses observed" true (!seen > 0))
    (Tutil.compile_all program)

(* A composite reads addresses iff one of its parts does, and hands each
   access only to the parts that read it. *)
let test_compose_addresses () =
  let reader seen =
    { Executor.null_observer with Executor.on_access = Some (fun _ _ -> incr seen) }
  in
  let free = Executor.null_observer in
  let reads parts = Option.is_some (Executor.compose parts).Executor.on_access in
  List.iter
    (fun (parts, want) ->
      Tutil.check_bool "compose reads addresses iff a part does" want (reads parts))
    [ ([], false); ([ free ], false); ([ free; free ], false);
      ([ free; free; free ], false); ([ reader (ref 0) ], true);
      ([ free; reader (ref 0) ], true); ([ reader (ref 0); free ], true);
      ([ free; reader (ref 0); free ], true);
      ([ reader (ref 0); reader (ref 0) ], true) ];
  let program = Tutil.two_phase_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let a = ref 0 and b = ref 0 in
  let counts = ref 0 in
  let counter =
    { Executor.null_observer with
      Executor.on_access_count = (fun n -> counts := !counts + n) }
  in
  let totals =
    run binary (Executor.compose [ reader a; counter; free; reader b ])
  in
  Tutil.check_int "first reader saw every access" totals.Executor.accesses !a;
  Tutil.check_int "second reader saw every access" totals.Executor.accesses !b;
  Tutil.check_int "counts sum to the accesses" totals.Executor.accesses !counts

let test_counting_observer () =
  let program = Tutil.single_loop_program () in
  let binary = Lower.compile program (Config.v Isa.X86_32 Config.O0) in
  let obs, read = Executor.counting_observer () in
  let totals = run binary obs in
  Tutil.check_int "counting observer matches totals" totals.Executor.insts (read ())

let () =
  Alcotest.run "exec"
    [ ( "counting",
        [ Tutil.quick "analytic insts" test_analytic_insts;
          Tutil.quick "determinism" test_determinism;
          Tutil.quick "zero-trip loop" test_zero_trip_loop;
          Tutil.quick "loop marker counts" test_loop_marker_counts;
          Tutil.quick "unrolled back edges" test_unrolled_backedge_count;
          Tutil.quick "select counts" test_select_counts ] );
      ( "equivalence",
        [ Tutil.quick "data stream across opt" test_data_stream_invariant_across_opt;
          Tutil.quick "data stream across isa" test_data_stream_invariant_across_isa;
          Tutil.quick "marker stream equality" test_marker_stream_equivalence;
          Tutil.quick "split preserves accesses" test_split_preserves_access_multiset ] );
      ( "flat interpreter",
        [ Tutil.quick "flat matches tree" test_flat_matches_tree;
          Tutil.quick "fast-path totals" test_fast_path_totals;
          Tutil.quick "hot window wraps" test_hot_window_exceeds_length ] );
      ( "observers",
        [ Tutil.quick "compose order" test_compose_order;
          Tutil.quick "compose addresses" test_compose_addresses;
          Tutil.quick "counting observer" test_counting_observer ] ) ]
