module Executor = Cbsp_exec.Executor
module Metrics = Cbsp_obs.Metrics

(* Registered eagerly, not on first use, so both counters appear in
   every manifest — a zero is the signal a pass-count gate reads. *)
let m_sim_passes = Metrics.counter "cache.sim_passes"
let m_replay_passes = Metrics.counter "cache.replay_passes"

let chunk_bytes = 65_536

type t = {
  tr_config : Hierarchy.config;
  tr_chunks : Bytes.t array;  (* at least one; all full but the last *)
  tr_bytes : int;
  tr_records : int;
}

(* The byte stream: appended to by a live sim, consumed by a replay. *)
type cursor = {
  mutable full : Bytes.t list;  (* writer: completed chunks, newest first *)
  mutable chunks : Bytes.t array;  (* reader: the trace's chunks *)
  mutable next_chunk : int;
  mutable chunk : Bytes.t;
  mutable pos : int;
}

type sim = {
  s_config : Hierarchy.config;
  n_levels : int;
  lat : int array;        (* hit latency by depth; lat.(n_levels) = DRAM *)
  hier : Hierarchy.t option;  (* [None] when replaying *)
  replaying : t option;
  cur : int array;        (* live: the open block's accesses by depth *)
  misses : int array;     (* per-level misses of all closed blocks *)
  mutable insts : int;
  mutable accesses : int; (* accesses of all closed blocks *)
  mutable records : int;
  cur_bytes : cursor;
}

let make config ~hier ~replaying ~cursor =
  Metrics.incr (if replaying = None then m_sim_passes else m_replay_passes);
  let n = List.length config.Hierarchy.levels in
  let lat =
    Array.of_list
      (List.map (fun l -> l.Hierarchy.lv_latency) config.Hierarchy.levels
      @ [ config.Hierarchy.dram_latency ])
  in
  { s_config = config; n_levels = n; lat; hier; replaying;
    cur = Array.make (n + 1) 0; misses = Array.make n 0; insts = 0;
    accesses = 0; records = 0; cur_bytes = cursor }

let live ?(config = Hierarchy.paper_table1) () =
  make config ~hier:(Some (Hierarchy.create config)) ~replaying:None
    ~cursor:
      { full = []; chunks = [||]; next_chunk = 0;
        chunk = Bytes.create chunk_bytes; pos = 0 }

let replay trace =
  make trace.tr_config ~hier:None ~replaying:(Some trace)
    ~cursor:
      { full = []; chunks = trace.tr_chunks; next_chunk = 1;
        chunk = trace.tr_chunks.(0); pos = 0 }

(* --- byte stream ------------------------------------------------------ *)

let put_byte c b =
  if c.pos = chunk_bytes then begin
    c.full <- c.chunk :: c.full;
    c.chunk <- Bytes.create chunk_bytes;
    c.pos <- 0
  end;
  Bytes.unsafe_set c.chunk c.pos (Char.unsafe_chr b);
  c.pos <- c.pos + 1

let rec put_varint c v =
  if v < 0x80 then put_byte c v
  else begin
    put_byte c (v land 0x7f lor 0x80);
    put_varint c (v lsr 7)
  end

let get_byte c =
  if c.pos = Bytes.length c.chunk then begin
    if c.next_chunk >= Array.length c.chunks then
      invalid_arg "Cycletrace: replay ran past the end of its trace";
    c.chunk <- c.chunks.(c.next_chunk);
    c.next_chunk <- c.next_chunk + 1;
    c.pos <- 0
  end;
  let b = Char.code (Bytes.unsafe_get c.chunk c.pos) in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec go acc shift =
    let b = get_byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go acc (shift + 7)
  in
  go 0 0

(* --- records ---------------------------------------------------------- *)

(* A record's first byte is a dictionary code for the miss counts of the
   first three levels (absent levels count 0): every triple
   [9 >= m0 >= m1 >= m2 >= 0] in lexicographic order, 220 codes.  Deeper
   levels miss no more than shallower ones, so the triple is always
   ordered.  Larger counts escape: byte 255, then one varint per level
   of the triple. *)
let dict_max = 9

let code_of m0 m1 m2 =
  (m0 * (m0 + 1) * (m0 + 2) / 6) + (m1 * (m1 + 1) / 2) + m2

let escape = 255

let decode_table =
  let t = Array.make (code_of (dict_max + 1) 0 0) (0, 0, 0) in
  for m0 = 0 to dict_max do
    for m1 = 0 to m0 do
      for m2 = 0 to m1 do
        t.(code_of m0 m1 m2) <- (m0, m1, m2)
      done
    done
  done;
  t

(* Close the open block: turn its per-depth access counts into per-level
   miss counts (level k missed for every access that went deeper than
   k), fold them into the totals and append the record.  A block without
   accesses (every loop back-edge, for one) has no record at all. *)
let close_block s =
  let n = s.n_levels in
  let c = s.cur_bytes in
  let deeper = ref 0 in
  for k = n downto 1 do
    deeper := !deeper + s.cur.(k);
    (* reuse cur.(k) for level k-1's misses *)
    s.cur.(k) <- !deeper
  done;
  let accesses = !deeper + s.cur.(0) in
  if accesses > 0 then begin
    s.accesses <- s.accesses + accesses;
    s.cur.(0) <- 0;
    s.records <- s.records + 1
  end;
  if accesses > 0 && n > 0 then begin
    let miss k = if k < n then s.cur.(k + 1) else 0 in
    let m0 = miss 0 and m1 = miss 1 and m2 = miss 2 in
    if m0 <= dict_max then put_byte c (code_of m0 m1 m2)
    else begin
      put_byte c escape;
      for k = 0 to min n 3 - 1 do
        put_varint c (miss k)
      done
    end;
    for k = 3 to n - 1 do
      if miss (k - 1) > 0 then put_varint c (miss k)
    done;
    for k = 1 to n do
      s.misses.(k - 1) <- s.misses.(k - 1) + s.cur.(k);
      s.cur.(k) <- 0
    done
  end

let read_block s =
  let n = s.n_levels in
  if n > 0 then begin
    let c = s.cur_bytes in
    let b = get_byte c in
    let m0, m1, m2 =
      if b = escape then begin
        let m0 = get_varint c in
        let m1 = if n >= 2 then get_varint c else 0 in
        let m2 = if n >= 3 then get_varint c else 0 in
        (m0, m1, m2)
      end
      else decode_table.(b)
    in
    s.misses.(0) <- s.misses.(0) + m0;
    if n >= 2 then s.misses.(1) <- s.misses.(1) + m1;
    if n >= 3 then s.misses.(2) <- s.misses.(2) + m2;
    (* Deeper levels: present only when the level above missed. *)
    let above = ref m2 in
    for k = 3 to n - 1 do
      if !above > 0 then begin
        let m = get_varint c in
        s.misses.(k) <- s.misses.(k) + m;
        above := m
      end
    done
  end;
  s.records <- s.records + 1

(* Both modes settle a block at its access-count event, which fires
   only for blocks with accesses: a live sim closes the block and writes
   its record, a replay reads the record back.  Blocks without accesses
   cost neither a byte nor a decode, and no mode reads anything per
   access but the live hierarchy.  Either way a block's misses are
   counted before the next block or marker event, the only points where
   interval builders read the model. *)
let observer s =
  let on_block _ insts = s.insts <- s.insts + insts in
  match s.hier with
  | Some hier ->
    { Executor.null_observer with
      Executor.on_block;
      on_access =
        Some
          (fun addr is_write ->
            let d = Hierarchy.access_depth hier ~addr ~is_write in
            s.cur.(d) <- s.cur.(d) + 1);
      on_access_count = (fun _ -> close_block s) }
  | None ->
    { Executor.null_observer with
      Executor.on_block;
      on_access_count =
        (fun n ->
          read_block s;
          s.accesses <- s.accesses + n) }

(* --- model readings --------------------------------------------------- *)

(* Readings see closed blocks only.  A block closes at its count event,
   before the next block or marker event, so every point where interval
   builders read the model sees all the accesses so far. *)
let cycles s =
  (* Every access pays the first latency; each level it misses adds the
     step to the next one. *)
  let c = ref (s.insts + (s.accesses * s.lat.(0))) in
  for k = 0 to s.n_levels - 1 do
    c := !c + (s.misses.(k) * (s.lat.(k + 1) - s.lat.(k)))
  done;
  float_of_int !c

let insts s = s.insts

let extra_counter_names s =
  List.map
    (fun l -> l.Hierarchy.lv_name ^ "_misses")
    s.s_config.Hierarchy.levels
  @ [ "dram_accesses"; "accesses" ]

let extra_counters s =
  let n = s.n_levels in
  Array.init (n + 2) (fun i ->
      if i < n then float_of_int s.misses.(i)
      else if i = n then
        float_of_int (if n = 0 then s.accesses else s.misses.(n - 1))
      else if n = 0 then 0.0 (* no first level to count accesses *)
      else float_of_int s.accesses)

let finish s =
  match s.replaying with
  | Some trace ->
    let c = s.cur_bytes in
    if
      s.records <> trace.tr_records
      || c.pos <> Bytes.length c.chunk
      || c.next_chunk <> Array.length c.chunks
    then
      invalid_arg
        (Printf.sprintf
           "Cycletrace.finish: replay read %d of %d records — the pass ran \
            a different binary or input"
           s.records trace.tr_records);
    trace
  | None ->
    close_block s;
    let c = s.cur_bytes in
    (* The open chunk is never empty once anything was written: a full
       chunk is only retired by the write that follows it. *)
    let last = Bytes.sub c.chunk 0 c.pos in
    let chunks = Array.of_list (List.rev (last :: c.full)) in
    { tr_config = s.s_config; tr_chunks = chunks;
      tr_bytes = (List.length c.full * chunk_bytes) + c.pos;
      tr_records = s.records }

let records t = t.tr_records

let byte_size t = t.tr_bytes
