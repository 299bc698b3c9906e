(* Per-op correctness: reduce an op's simulated statistics to a digest,
   compare it with the pinned one when the op's inputs have a pin, and
   check the invariants that hold for every seed. *)

module Pipeline = Cbsp.Pipeline
module Errors = Cbsp_validate.Errors
module Truth = Cbsp_validate.Truth

(* What an op's digest covers: per-binary true instructions and cycles,
   and every method's estimated CPI per binary. *)
type stats = { truth : Truth.entry list; cpi_cells : Errors.cell list }

let stats_of_records records =
  { truth = Truth.table records;
    cpi_cells = Errors.cpi_cells ~workload:"" records }

let stats_of_row (row : Cbsp_validate.Matrix.workload_result) =
  { truth = row.Cbsp_validate.Matrix.w_truth;
    cpi_cells =
      List.filter
        (fun (c : Errors.cell) ->
          match c.Errors.cl_kind with Errors.Cpi _ -> true | _ -> false)
        row.Cbsp_validate.Matrix.w_cells }

let digest s =
  let b = Buffer.create 512 in
  List.iter
    (fun (e : Truth.entry) ->
      Printf.bprintf b "truth %s %d %h\n" e.Truth.tr_label e.Truth.tr_insts
        e.Truth.tr_cycles)
    s.truth;
  List.iter
    (fun (c : Errors.cell) ->
      Printf.bprintf b "cpi %s %s %h\n" c.Errors.cl_method
        (Errors.kind_name c.Errors.cl_kind)
        c.Errors.cl_estimate)
    s.cpi_cells;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Dynamic instructions of every binary the op estimated, once per
   binary however many passes ran. *)
let insts s = List.fold_left (fun a (e : Truth.entry) -> a + e.Truth.tr_insts) 0 s.truth

(* Pinned digests: one "<workload> <op key> <hex digest>" line each. *)
type pins = (string, string) Hashtbl.t

let pin_key ~workload ~key = workload ^ " " ^ key

let load_pins path : pins =
  let pins = Hashtbl.create 64 in
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        List.iter
          (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ w; k; d ] when w <> "" && w.[0] <> '#' ->
              Hashtbl.replace pins (pin_key ~workload:w ~key:k) d
            | _ -> ())
          (In_channel.input_lines ic));
  pins

(* [Ok ()] or the first failure.  [invariants] are (name, holds) pairs
   checked for every seed; the digest is checked only where pinned. *)
let verify ~(pins : pins) ~workload ~key ~digest:d ~invariants =
  match List.find_opt (fun (_, holds) -> not holds) invariants with
  | Some (name, _) -> Error ("invariant failed: " ^ name)
  | None -> (
    match Hashtbl.find_opt pins (pin_key ~workload ~key) with
    | Some pinned when pinned <> d ->
      Error (Printf.sprintf "digest %s differs from pinned %s" d pinned)
    | _ -> Ok ())

(* Invariants every op's estimate records satisfy. *)
let record_invariants records =
  [ ("same truth across methods", Truth.mismatches records = []);
    ("non-empty", records <> []) ]

let row_invariants (row : Cbsp_validate.Matrix.workload_result) =
  [ ("w_mismatches empty", row.Cbsp_validate.Matrix.w_mismatches = []);
    ("w_failed empty", row.Cbsp_validate.Matrix.w_failed = []);
    ("cells present", row.Cbsp_validate.Matrix.w_cells <> []) ]

(* Mean relative error (in %) of the [method_]'s cells of one kind. *)
let mean_error_pct ~method_ ~speedup cells =
  let errs =
    List.filter_map
      (fun (c : Errors.cell) ->
        let is_speedup =
          match c.Errors.cl_kind with Errors.Speedup _ -> true | Errors.Cpi _ -> false
        in
        if c.Errors.cl_method = method_ && is_speedup = speedup
           && not (Errors.is_skipped c)
        then Some (100.0 *. c.Errors.cl_error)
        else None)
      cells
  in
  match errs with [] -> nan | _ -> Agg.sum errs /. float_of_int (List.length errs)
