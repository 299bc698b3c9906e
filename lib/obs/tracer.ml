(* Span tracer.  Completed spans are recorded into a per-domain buffer
   (domain-local storage; every buffer is registered in a global list so
   export sees all of them) and exported as Chrome trace_event JSON —
   loadable in chrome://tracing and Perfetto, one row per domain.

   Recording is off by default: [emit]/[with_span] are a single
   [Atomic.get] when disabled, so instrumented hot paths cost nothing
   measurable without --trace.  Spans carry explicit begin/end timestamps
   ([emit]), so a caller that must measure wall-clock anyway (the timing
   sink) records the span from the same two timestamps it reports —
   traces and stage summaries cannot disagree. *)

module Jsonx = Cbsp_json.Jsonx

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_t0 : float;                       (* Unix.gettimeofday seconds *)
  sp_t1 : float;
  sp_ok : bool;
  sp_attrs : (string * string) list;
  sp_seq : int;                        (* per-domain completion order *)
}

type buffer = {
  buf_mutex : Mutex.t;
  mutable buf_spans : span list;
  mutable buf_seq : int;
}

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let buffers_mutex = Mutex.create ()

let buffers : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { buf_mutex = Mutex.create (); buf_spans = []; buf_seq = 0 } in
      Mutex.protect buffers_mutex (fun () -> buffers := b :: !buffers);
      b)

let emit ?(attrs = []) ?(ok = true) ~name ~cat ~t0 ~t1 () =
  if Atomic.get enabled_flag then begin
    let b = Domain.DLS.get buffer_key in
    let tid = (Domain.self () :> int) in
    Mutex.protect b.buf_mutex (fun () ->
        let seq = b.buf_seq in
        b.buf_seq <- seq + 1;
        b.buf_spans <-
          { sp_name = name; sp_cat = cat; sp_tid = tid; sp_t0 = t0;
            sp_t1 = t1; sp_ok = ok; sp_attrs = attrs; sp_seq = seq }
          :: b.buf_spans)
  end

let with_span ?attrs ~name ~cat f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    match f () with
    | v ->
      emit ?attrs ~name ~cat ~t0 ~t1:(Unix.gettimeofday ()) ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      emit ?attrs ~ok:false ~name ~cat ~t0 ~t1:(Unix.gettimeofday ()) ();
      Printexc.raise_with_backtrace e bt
  end

let spans () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.concat_map
    (fun b -> Mutex.protect b.buf_mutex (fun () -> b.buf_spans))
    bufs

let span_count () = List.length (spans ())

let reset () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.iter
    (fun b ->
      Mutex.protect b.buf_mutex (fun () ->
          b.buf_spans <- [];
          b.buf_seq <- 0))
    bufs

(* --- Chrome trace_event export ------------------------------------------ *)

type event = { ev_ph : char; ev_ts : float; ev_span : span }

(* Rebuild a balanced, properly nested B/E sequence for one domain.
   Within a domain spans obey stack discipline (one thread of
   execution), so sorting by (t0 ascending, t1 descending) yields the
   pre-order of the nesting forest; a stack walk then closes every span
   at the right place.  This is what keeps equal-timestamp events (zero
   -duration spans, children starting exactly at their parent's begin)
   ordered B-before-E. *)
let events_of_domain spans =
  let ordered =
    List.sort
      (fun a b ->
        match Float.compare a.sp_t0 b.sp_t0 with
        | 0 -> (
          match Float.compare b.sp_t1 a.sp_t1 with
          | 0 -> Int.compare a.sp_seq b.sp_seq
          | c -> c)
        | c -> c)
      spans
  in
  let out = ref [] in
  let push ev = out := ev :: !out in
  let stack = ref [] in
  let close s = push { ev_ph = 'E'; ev_ts = s.sp_t1; ev_span = s } in
  List.iter
    (fun s ->
      let rec unwind () =
        match !stack with
        | top :: rest when top.sp_t1 <= s.sp_t0 ->
          close top;
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      push { ev_ph = 'B'; ev_ts = s.sp_t0; ev_span = s };
      stack := s :: !stack)
    ordered;
  List.iter close !stack;
  List.rev !out

let export ~path =
  let all = spans () in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid s.sp_tid) in
      Hashtbl.replace by_tid s.sp_tid (s :: prev))
    all;
  let tids =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] |> List.sort Int.compare
  in
  let epoch =
    List.fold_left (fun acc s -> Float.min acc s.sp_t0) infinity all
  in
  Cbsp_util.Io.with_out_file path (fun oc ->
      let pf fmt = Printf.fprintf oc fmt in
      pf "{ \"traceEvents\": [";
      let first = ref true in
      List.iter
        (fun tid ->
          List.iter
            (fun ev ->
              let s = ev.ev_span in
              pf "%s\n  { \"ph\": \"%c\", \"pid\": 0, \"tid\": %d, \"ts\": \
                  %.1f, \"name\": %s, \"cat\": %s"
                (if !first then "" else ",")
                ev.ev_ph tid
                ((ev.ev_ts -. epoch) *. 1e6)
                (Jsonx.quote s.sp_name) (Jsonx.quote s.sp_cat);
              if ev.ev_ph = 'B' then begin
                pf ", \"args\": { \"ok\": %b" s.sp_ok;
                List.iter
                  (fun (k, v) ->
                    pf ", %s: %s" (Jsonx.quote k) (Jsonx.quote v))
                  s.sp_attrs;
                pf " }"
              end;
              pf " }";
              first := false)
            (events_of_domain (Hashtbl.find by_tid tid)))
        tids;
      pf "\n] }\n")
