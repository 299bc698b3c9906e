(* perfbench: the repository's end-to-end and per-layer benchmark.

     main.exe run   --workload W --seed N --seconds S --trace 0|1
     main.exe batch --workload W --seed N --index I --slice S --trace 0|1
     main.exe pin   --workload W [--batches B]

   [run] measures one workload for about S seconds as a sequence of
   batches, each a fresh [batch] child process, then prints a detail
   line (sample counts, tail latency, failures, accuracy, host) and, as
   its last line, the result object.  [pin] prints the digest lines of
   the default seed's first B batches, the format of digests.txt.  Run
   from the repository root; scratch files go to perfbench/out/. *)

module Jsonx = Cbsp_json.Jsonx
open Perfbench

let out_dir = Filename.concat "perfbench" "out"
let pins_path = Filename.concat "perfbench" "digests.txt"

(* Longest a run keeps starting batches: the whole run must end well
   inside three minutes. *)
let run_budget_s = 150.0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let args_of argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ -> die "unexpected argument %S" k
  in
  go [] argv

let get args ?default name =
  match (List.assoc_opt name args, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> die "missing --%s" name

let int_arg args ?default name =
  let v = get args ?default name in
  match int_of_string_opt v with Some i -> i | None -> die "--%s: not an integer: %S" name v

let float_arg args ?default name =
  let v = get args ?default name in
  match float_of_string_opt v with Some f -> f | None -> die "--%s: not a number: %S" name v

let workload_arg args =
  let w = get args "workload" in
  if not (List.mem w Work.workloads) then
    die "unknown workload %S (one of %s)" w (String.concat ", " Work.workloads);
  w

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ctx ~seed ~index ~trace ~seconds =
  { Work.seed; index; trace; pins = Check.load_pins pins_path; out_dir; seconds }

let batch args =
  let workload = workload_arg args in
  let trace = int_arg args ~default:"0" "trace" = 1 in
  let index = int_arg args "index" in
  let c =
    ctx ~seed:(int_arg args "seed") ~index ~trace
      ~seconds:(float_arg args ~default:"0" "slice")
  in
  mkdir_p out_dir;
  let b = Work.run_batch ~workload c in
  if trace then
    Cbsp_obs.Tracer.export
      ~path:(Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload index));
  print_endline (Jsonx.to_string (Report.json_of_batch b))

(* One batch in a child process; its last stdout line is the batch. *)
let spawn ~workload ~seed ~trace ~index ~slice =
  let exe = Sys.executable_name in
  let argv =
    [| exe; "batch"; "--workload"; workload; "--seed"; string_of_int seed;
       "--index"; string_of_int index; "--slice"; Printf.sprintf "%.3f" slice;
       "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe argv in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
    | last :: _ -> (
      try Report.batch_of_json (Jsonx.of_string last)
      with Jsonx.Parse_error e | Report.Bad_batch e -> die "batch %d: bad output (%s)" index e)
    | [] -> die "batch %d printed nothing" index)
  | _ -> die "batch %d of %s failed" index workload

(* warm-serve splits its time over a fixed number of batches (each one
   set-up); the simulating workloads run whole batches until the time
   is used. *)
let serve_batches = 3

let run args =
  let workload = workload_arg args in
  let seed = int_arg args "seed" in
  let seconds = float_arg args "seconds" in
  let trace = int_arg args ~default:"0" "trace" = 1 in
  if not (Sys.file_exists pins_path) then die "%s not found: run from the repository root" pins_path;
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let fixed = workload = "warm-serve" in
  let slice = if fixed then seconds /. float_of_int serve_batches else 0.0 in
  let rec loop index last acc =
    let more =
      if fixed then index < serve_batches
      else index = 0 || (elapsed () < seconds && elapsed () +. last < run_budget_s)
    in
    if not more then List.rev acc
    else begin
      let s = Unix.gettimeofday () in
      let b = spawn ~workload ~seed ~trace ~index ~slice in
      loop (index + 1) (Unix.gettimeofday () -. s) (b :: acc)
    end
  in
  let batches = loop 0 0.0 [] in
  let s = Report.summarize ~workload ~seed ~trace batches in
  print_endline (Jsonx.to_string s.Report.detail);
  print_endline (Report.result_line s)

let pin args =
  let workload = workload_arg args in
  let n = int_arg args ~default:"8" "batches" in
  let seen = Hashtbl.create 16 in
  mkdir_p out_dir;
  for index = 0 to n - 1 do
    let c = { (ctx ~seed:Work.default_seed ~index ~trace:false ~seconds:0.05) with Work.pins = Hashtbl.create 1 } in
    let b = Work.run_batch ~workload c in
    List.iter
      (fun (o : Work.op) ->
        match o.Work.o_error with
        | Some e -> die "%s: %s" o.Work.o_key e
        | None ->
          if not (Hashtbl.mem seen o.Work.o_key) then begin
            Hashtbl.add seen o.Work.o_key ();
            Printf.printf "%s %s %s\n%!" workload o.Work.o_key o.Work.o_digest
          end)
      b.Work.b_ops
  done

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (args_of rest)
  | _ :: "batch" :: rest -> batch (args_of rest)
  | _ :: "pin" :: rest -> pin (args_of rest)
  | _ -> die "usage: main.exe (run|batch|pin) --workload W ..."
