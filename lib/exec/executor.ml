module Input = Cbsp_source.Input
module Binary = Cbsp_compiler.Binary
module Layout = Cbsp_compiler.Layout
module Marker = Cbsp_compiler.Marker
module Rng = Cbsp_util.Rng

type observer = {
  on_block : int -> int -> unit;
  on_access : (int -> bool -> unit) option;
  on_access_count : int -> unit;
  on_marker : Marker.key -> unit;
}

and totals = { insts : int; blocks : int; accesses : int; markers : int }

let null_observer =
  { on_block = (fun _ _ -> ());
    on_access = None;
    on_access_count = (fun _ -> ());
    on_marker = (fun _ -> ()) }

let compose observers =
  (* Nested pairs: each event makes a fixed chain of direct calls, with
     no list walk per event.  Accesses go only to the parts that read
     them, so an address-free part costs nothing per access. *)
  let pair a b =
    { on_block = (fun id insts -> a.on_block id insts; b.on_block id insts);
      on_access =
        (match (a.on_access, b.on_access) with
         | Some f, Some g -> Some (fun addr w -> f addr w; g addr w)
         | (Some _ as f), None | None, (Some _ as f) -> f
         | None, None -> None);
      on_access_count =
        (fun n -> a.on_access_count n; b.on_access_count n);
      on_marker = (fun key -> a.on_marker key; b.on_marker key) }
  in
  let rec fold = function
    | [] -> null_observer
    | [ obs ] -> obs
    | obs :: rest -> pair obs (fold rest)
  in
  fold observers

let counting_observer () =
  let count = ref 0 in
  ( { null_observer with on_block = (fun _ insts -> count := !count + insts) },
    fun () -> !count )

(* ------------------------------------------------------------------ *)
(* Flat interpreter.

   Walks [Binary.flat]: contiguous statement arrays, pre-decoded access
   patterns (the per-access match is performed once per access site, not
   once per element), pre-allocated marker keys, inline address
   arithmetic, and a dense [int array] for the per-line dynamic counters.

   Addresses are generated only when the observer reads them.  The
   cursors, chase counters and per-array RNG streams feed nothing but
   addresses (control flow draws from [Input] alone), so an address-free
   run skips them entirely and still emits the same block, marker and
   count events and the same totals. *)

type fstate = {
  f_input : Input.t;
  f_obs : observer;
  f_bodies : Binary.fstmt array array;
  f_layout : Layout.t;                (* for spill-slot addressing *)
  f_bases : int array;
  f_ebytes : int array;
  f_lengths : int array;
  f_cursors : int array;
  f_chase : int array;
  f_rand : Rng.t array;
  f_lines : int array;                (* dense per-line dynamic counters *)
  mutable f_depth : int;
  mutable f_insts : int;
  mutable f_blocks : int;
  mutable f_accesses : int;
  mutable f_markers : int;
}

let f_emit_block st id insts =
  st.f_insts <- st.f_insts + insts;
  st.f_blocks <- st.f_blocks + 1;
  st.f_obs.on_block id insts

let f_emit_marker st key =
  st.f_markers <- st.f_markers + 1;
  st.f_obs.on_marker key

let f_access st on_access (a : Binary.faccess) =
  let n = a.fa_count in
  let aid = a.fa_array in
  let base = st.f_bases.(aid) in
  let eb = st.f_ebytes.(aid) in
  let len = st.f_lengths.(aid) in
  let tenths = a.fa_write_tenths in
  if a.fa_kind = Binary.pat_seq then begin
    let stride = a.fa_param in
    let c = ref st.f_cursors.(aid) in
    for i = 0 to n - 1 do
      let idx = !c in
      c := (idx + stride) mod len;
      on_access (base + (idx * eb)) (i mod 10 < tenths)
    done;
    st.f_cursors.(aid) <- !c
  end
  else if a.fa_kind = Binary.pat_rand then begin
    let rng = st.f_rand.(aid) in
    for i = 0 to n - 1 do
      let idx = Rng.int rng ~bound:len in
      on_access (base + (idx * eb)) (i mod 10 < tenths)
    done
  end
  else if a.fa_kind = Binary.pat_chase then begin
    let c = ref st.f_chase.(aid) in
    for i = 0 to n - 1 do
      let idx = Rng.hash2 !c (aid + 1) mod len in
      incr c;
      on_access (base + (idx * eb)) (i mod 10 < tenths)
    done;
    st.f_chase.(aid) <- !c
  end
  else begin
    (* Hot: the window was clamped to [len] at flatten time. *)
    let w = a.fa_param in
    let cur = st.f_cursors.(aid) in
    let rng = st.f_rand.(aid) in
    for i = 0 to n - 1 do
      let idx = (cur + Rng.int rng ~bound:w) mod len in
      on_access (base + (idx * eb)) (i mod 10 < tenths)
    done
  end

let f_spills st on_access n =
  for slot = 0 to n - 1 do
    let addr = Layout.stack_addr st.f_layout ~depth:st.f_depth ~slot in
    on_access addr (slot land 1 = 1)
  done

(* The block event, its accesses (data, then spills), then their count. *)
let f_exec_block st (b : Binary.fblock) =
  f_emit_block st b.fb_id b.fb_insts;
  let accs = b.fb_accesses in
  let n = ref b.fb_spills in
  (match st.f_obs.on_access with
   | None ->
     for i = 0 to Array.length accs - 1 do
       n := !n + accs.(i).Binary.fa_count
     done
   | Some on_access ->
     for i = 0 to Array.length accs - 1 do
       let a = accs.(i) in
       n := !n + a.Binary.fa_count;
       f_access st on_access a
     done;
     if b.fb_spills > 0 then f_spills st on_access b.fb_spills);
  if !n > 0 then begin
    st.f_accesses <- st.f_accesses + !n;
    st.f_obs.on_access_count !n
  end

let rec f_exec_stmts st (code : Binary.fstmt array) =
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Binary.FBlock b -> f_exec_block st b
    | Binary.FCall { fc_overhead; fc_proc; fc_marker } ->
      f_exec_block st fc_overhead;
      f_emit_marker st fc_marker;
      st.f_depth <- st.f_depth + 1;
      f_exec_stmts st st.f_bodies.(fc_proc);
      st.f_depth <- st.f_depth - 1
    | Binary.FSelect s ->
      f_exec_block st s.fs_dispatch;
      let exec_index = st.f_lines.(s.fs_slot) in
      st.f_lines.(s.fs_slot) <- exec_index + 1;
      let arm =
        Input.select_arm st.f_input ~line:s.fs_line ~exec_index
          ~arms:(Array.length s.fs_arms)
      in
      f_exec_stmts st s.fs_arms.(arm)
    | Binary.FLoop l -> f_exec_loop st l
  done

and f_exec_loop st (l : Binary.floop) =
  f_emit_marker st l.fo_entry_marker;
  f_exec_block st l.fo_header;
  let machine_entry = st.f_lines.(l.fo_slot) in
  st.f_lines.(l.fo_slot) <- machine_entry + 1;
  let entry_index = machine_entry / l.fo_split_arity in
  let trips =
    Input.eval_trips l.fo_trips st.f_input ~line:l.fo_src_line ~entry_index
  in
  let unroll = l.fo_unroll in
  let header_id = l.fo_header.Binary.fb_id in
  let back_insts = l.fo_backedge_insts in
  for i = 0 to trips - 1 do
    f_exec_stmts st l.fo_body;
    if i mod unroll = unroll - 1 || i = trips - 1 then begin
      f_emit_block st header_id back_insts;
      f_emit_marker st l.fo_back_marker
    end
  done

(* Executor totals feed the obs registry once per run (never per event:
   the hot loops stay untouched, so the counters are free at the block
   granularity the interpreter actually works at). *)
let m_runs = lazy (Cbsp_obs.Metrics.counter "executor.runs")
let m_insts = lazy (Cbsp_obs.Metrics.counter "executor.insts")
let m_blocks = lazy (Cbsp_obs.Metrics.counter "executor.blocks")
let m_accesses = lazy (Cbsp_obs.Metrics.counter "executor.accesses")
let m_markers = lazy (Cbsp_obs.Metrics.counter "executor.markers")

(* Registered eagerly so that a zero shows in every manifest: CI checks
   that only live cache-model passes generate addresses. *)
let m_address_runs = Cbsp_obs.Metrics.counter "executor.address_runs"

let observe_totals obs (t : totals) =
  Cbsp_obs.Metrics.incr (Lazy.force m_runs);
  if Option.is_some obs.on_access then Cbsp_obs.Metrics.incr m_address_runs;
  Cbsp_obs.Metrics.incr ~by:t.insts (Lazy.force m_insts);
  Cbsp_obs.Metrics.incr ~by:t.blocks (Lazy.force m_blocks);
  Cbsp_obs.Metrics.incr ~by:t.accesses (Lazy.force m_accesses);
  Cbsp_obs.Metrics.incr ~by:t.markers (Lazy.force m_markers)

let run binary input obs =
  let flat = binary.Binary.flat in
  let layout = binary.Binary.layout in
  let n_arrays = Layout.n_arrays layout in
  let st =
    { f_input = input; f_obs = obs;
      f_bodies = flat.Binary.fp_bodies; f_layout = layout;
      f_bases = Array.init n_arrays (fun i -> Layout.array_base layout ~array_id:i);
      f_ebytes =
        Array.init n_arrays (fun i -> Layout.array_elem_bytes layout ~array_id:i);
      f_lengths =
        Array.init n_arrays (fun i -> Layout.array_length layout ~array_id:i);
      f_cursors = Array.make n_arrays 0;
      f_chase = Array.make n_arrays 0;
      f_rand =
        (if Option.is_none obs.on_access then [||]
         else
           Array.init n_arrays (fun i ->
               Rng.split (Rng.create ~seed:input.Input.seed) ~tag:(i + 1)));
      f_lines = Array.make flat.Binary.fp_n_slots 0; f_depth = 0;
      f_insts = 0; f_blocks = 0; f_accesses = 0; f_markers = 0 }
  in
  f_emit_marker st flat.Binary.fp_main_marker;
  f_exec_stmts st st.f_bodies.(flat.Binary.fp_main);
  let totals =
    { insts = st.f_insts; blocks = st.f_blocks; accesses = st.f_accesses;
      markers = st.f_markers }
  in
  observe_totals obs totals;
  totals
