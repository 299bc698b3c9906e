(* Each key owns a cell; the table mutex only guards cell creation, so a
   slow computation for one key never blocks lookups of another.  The
   cell's own mutex/condition implements "first caller computes, the
   rest wait".

   With an attached {!Diskcache} the owner consults disk before
   computing and publishes after, and coalesces across processes via
   the cache's per-key lock files: first process computes, the others
   poll for the published entry.  Values cross the disk boundary as
   [Marshal] bytes under the cache's checksummed framing; a payload
   that passes the checksums but fails to unmarshal is quarantined like
   any other corruption.  Only successful computations are persisted —
   exceptions are cached in memory for this process only.

   Counters live in the obs metrics registry instead of bespoke atomics:
   every store instance gets its own [store.computes]/[store.hits]
   series (labeled by store name plus a unique instance id, so several
   engines in one process never share counts) plus a [store.wait_seconds]
   histogram of how long waiters blocked on in-flight computations.
   Disk-level series ([store.disk_hits]/[store.misses]/
   [store.evictions]/[store.quarantined]/[store.bytes]) belong to the
   attached cache. *)

module Metrics = Cbsp_obs.Metrics

type 'v outcome = Value of 'v | Raised of exn

type 'v cell = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable c_outcome : 'v outcome option;
}

type 'v t = {
  s_mutex : Mutex.t;
  s_table : (string, 'v cell) Hashtbl.t;
  s_disk : Diskcache.t option;
  s_computes : Metrics.counter;
  s_hits : Metrics.counter;
  s_wait : Metrics.histogram;
}

let next_id = Atomic.make 0

let create ?(name = "store") ?disk () =
  let labels =
    [ ("store", name);
      ("instance", string_of_int (Atomic.fetch_and_add next_id 1)) ]
  in
  { s_mutex = Mutex.create (); s_table = Hashtbl.create 64;
    s_disk = disk;
    s_computes = Metrics.counter ~labels "store.computes";
    s_hits = Metrics.counter ~labels "store.hits";
    s_wait = Metrics.histogram ~labels "store.wait_seconds" }

let disk t = t.s_disk

let digest v = Digest.string (Marshal.to_string v [])

(* Decode a persisted payload; unmarshalable bytes are payload-level
   corruption the framing checksums cannot see, so quarantine and treat
   as a miss. *)
let decode_payload disk ~key payload =
  match Marshal.from_string payload 0 with
  | v -> Some v
  | exception _ ->
    Diskcache.quarantine disk ~key;
    None

let disk_find disk ~key =
  match Diskcache.find disk ~key with
  | None -> None
  | Some payload -> decode_payload disk ~key payload

(* The owner's path once the in-memory cell is created: serve from
   disk, else coalesce with other processes via the per-key lock file,
   else compute (and publish on success). *)
let compute_with_disk t ~key f =
  let compute_and_publish disk =
    Metrics.incr t.s_computes;
    match f () with
    | v ->
      (match disk with
      | None -> ()
      | Some d -> Diskcache.put d ~key (Marshal.to_string v []));
      Value v
    | exception e -> Raised e
  in
  match t.s_disk with
  | None -> compute_and_publish None
  | Some d -> (
    match disk_find d ~key with
    | Some v ->
      Metrics.incr t.s_hits;
      Value v
    | None ->
      if Diskcache.try_lock d ~key then
        Fun.protect
          ~finally:(fun () -> Diskcache.unlock d ~key)
          (fun () -> compute_and_publish (Some d))
      else (
        (* Another process owns the compute: wait for its publication,
           falling back to computing ourselves if it dies or stalls. *)
        match Diskcache.wait d ~key () with
        | Some payload -> (
          match decode_payload d ~key payload with
          | Some v ->
            Metrics.incr t.s_hits;
            Value v
          | None -> compute_and_publish (Some d))
        | None -> compute_and_publish (Some d)))

let find_or_compute t ~key f =
  let cell, owner =
    Mutex.protect t.s_mutex (fun () ->
        match Hashtbl.find_opt t.s_table key with
        | Some c -> (c, false)
        | None ->
          let c =
            { c_mutex = Mutex.create (); c_cond = Condition.create ();
              c_outcome = None }
          in
          Hashtbl.add t.s_table key c;
          (c, true))
  in
  if owner then begin
    let outcome = compute_with_disk t ~key f in
    Mutex.protect cell.c_mutex (fun () ->
        cell.c_outcome <- Some outcome;
        Condition.broadcast cell.c_cond);
    match outcome with Value v -> v | Raised e -> raise e
  end
  else begin
    Metrics.incr t.s_hits;
    let t0 = Unix.gettimeofday () in
    let outcome =
      Mutex.protect cell.c_mutex (fun () ->
          while cell.c_outcome = None do
            Condition.wait cell.c_cond cell.c_mutex
          done;
          Option.get cell.c_outcome)
    in
    Metrics.observe t.s_wait (Unix.gettimeofday () -. t0);
    match outcome with Value v -> v | Raised e -> raise e
  end

(* [c_outcome] is written by the owner under the CELL mutex, so reading
   it here must take the cell mutex too — holding only the table mutex
   (as this function once did) is a data race under domains: the table
   mutex orders nothing against the owner's write. *)
let mem t ~key =
  match
    Mutex.protect t.s_mutex (fun () -> Hashtbl.find_opt t.s_table key)
  with
  | None -> false
  | Some cell ->
    Mutex.protect cell.c_mutex (fun () ->
        match cell.c_outcome with
        | Some (Value _) -> true
        | Some (Raised _) | None -> false)

let computes t = Metrics.value t.s_computes

let hits t = Metrics.value t.s_hits

let evictions t =
  match t.s_disk with None -> 0 | Some d -> Diskcache.evictions d

let quarantined t =
  match t.s_disk with None -> 0 | Some d -> Diskcache.quarantined d
