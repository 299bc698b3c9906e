(* Tests of the benchmark's own logic: the tail-percentile rule, failure
   accounting, and the per-op digest check. *)

open Perfbench
module Registry = Cbsp_workloads.Registry
module Input = Cbsp_source.Input
module Server = Cbsp_serve.Server
module Protocol = Cbsp_serve.Protocol

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_refused () =
  Alcotest.(check bool) "15 samples: no tail" true (Agg.tail (floats 15) = None);
  Alcotest.(check bool) "19 samples: no tail" true (Agg.tail (floats 19) = None);
  Alcotest.(check bool) "all-equal samples: none beyond" true
    (Agg.tail (List.init 500 (fun _ -> 1.0)) = None)

let test_tail_highest () =
  let pct xs =
    match Agg.tail xs with Some t -> t.Agg.tl_percentile | None -> nan
  in
  Alcotest.(check (float 0.0)) "20 samples: p50" 50.0 (pct (floats 20));
  Alcotest.(check (float 0.0)) "1000 samples: p99" 99.0 (pct (floats 1000));
  Alcotest.(check (float 0.0)) "100 samples: p90" 90.0 (pct (floats 100));
  match Agg.tail (floats 1000) with
  | Some t -> Alcotest.(check int) "sample count" 1000 t.Agg.tl_samples
  | None -> Alcotest.fail "expected a tail"

let op ?error () =
  { Work.o_key = "k"; o_seconds = 0.1; o_insts = 1; o_digest = ""; o_error = error }

let batch ~ops ~refused =
  { Work.b_setup = [ 0.1 ]; b_ops = ops; b_refused = refused; b_accuracy = [];
    b_layers = Layers.create (); b_rss_mb = 1.0 }

let test_refusals_counted () =
  let t = Report.tally_of [ batch ~ops:[ op (); op () ] ~refused:1 ] in
  Alcotest.(check int) "attempted" 3 t.Agg.attempted;
  Alcotest.(check int) "failed" 1 t.Agg.failed;
  let t = Report.tally_of [ batch ~ops:[ op (); op ~error:"bad" () ] ~refused:0 ] in
  Alcotest.(check int) "failed check" 1 t.Agg.failed;
  Alcotest.(check (float 1e-12)) "ratio" 0.5 (Agg.failed_ratio t)

(* A live daemon whose quota admits one request: the second is denied,
   and the benchmark's serve op counts it as a failed attempt. *)
let test_quota_denied_fails () =
  let address = Server.Unix_socket "perfbench-test.sock" in
  let server =
    Server.start
      { (Server.default_config address) with
        Server.sv_workers = 1; sv_quota_rate = 1e-6; sv_quota_burst = 1.0 }
  in
  let ops =
    Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
        List.init 2 (fun _ ->
            Work.serve_op ~address ~check:(fun _ -> Ok ()) ~key:"ping" ~insts:0
              ~digest:"" Protocol.Ping))
  in
  let t = Agg.tally (List.map (fun (o : Work.op) -> o.Work.o_error = None) ops) in
  Alcotest.(check int) "attempted" 2 t.Agg.attempted;
  Alcotest.(check int) "quota-denied request failed" 1 t.Agg.failed;
  Alcotest.(check bool) "the first was served" true ((List.hd ops).Work.o_error = None)

let small_op pins =
  let entry = Registry.find "art" in
  let input = Input.make ~seed:5 ~scale:1 () in
  let op, _, _, _ =
    Work.cold_op ~pins ~input ~target:20_000 (entry, entry.Registry.build ())
  in
  op

let pins_of key digest =
  let pins = Hashtbl.create 1 in
  Hashtbl.replace pins (Check.pin_key ~workload:"cold-dram" ~key) digest;
  pins

let test_digest () =
  let op = small_op (Hashtbl.create 1) in
  Alcotest.(check bool) "unpinned op passes" true (op.Work.o_error = None);
  let pinned = small_op (pins_of op.Work.o_key op.Work.o_digest) in
  Alcotest.(check bool) "matching pin passes" true (pinned.Work.o_error = None);
  Alcotest.(check string) "digest is deterministic" op.Work.o_digest pinned.Work.o_digest;
  let d = Bytes.of_string op.Work.o_digest in
  Bytes.set d 0 (if Bytes.get d 0 = '0' then '1' else '0');
  let perturbed = small_op (pins_of op.Work.o_key (Bytes.to_string d)) in
  Alcotest.(check bool) "perturbed digest fails the op" true
    (perturbed.Work.o_error <> None)

let test_digest_covers_stats () =
  let entry = Registry.find "art" in
  let records =
    Cbsp.Pipeline.estimate_records_fli
      (Cbsp.Pipeline.run_fli (entry.Registry.build ())
         ~configs:(Work.configs_of entry)
         ~input:(Input.make ~seed:5 ~scale:1 ())
         ~target:20_000)
  in
  let s = Check.stats_of_records records in
  let bump (r : Cbsp.Pipeline.estimate_record) =
    { r with Cbsp.Pipeline.er_est_cpi = Float.succ r.Cbsp.Pipeline.er_est_cpi }
  in
  let s' = Check.stats_of_records (bump (List.hd records) :: List.tl records) in
  Alcotest.(check bool) "one ulp of one CPI changes the digest" true
    (Check.digest s <> Check.digest s');
  Alcotest.(check bool) "truth mismatch breaks the invariant" true
    (Check.verify ~pins:(Hashtbl.create 1) ~workload:"cold-dram" ~key:"k"
       ~digest:(Check.digest s)
       ~invariants:
         (Check.record_invariants
            (records
            @ List.map
                (fun (r : Cbsp.Pipeline.estimate_record) ->
                  { r with
                    Cbsp.Pipeline.er_method = "vli";
                    er_truth =
                      { r.Cbsp.Pipeline.er_truth with
                        Cbsp.Pipeline.t_cycles =
                          r.Cbsp.Pipeline.er_truth.Cbsp.Pipeline.t_cycles +. 1.0 } })
                records))
    <> Ok ())

let test_same_result () =
  let module J = Cbsp_json.Jsonx in
  let doc elapsed cpi =
    J.Obj
      [ ("op", J.Str "points"); ("elapsed_s", J.Num elapsed);
        ("binaries", J.List [ J.Obj [ ("est_cpi", J.Num cpi) ] ]) ]
  in
  Alcotest.(check bool) "elapsed_s ignored" true
    (Work.same_result (doc 0.1 2.5) (doc 7.0 2.5));
  Alcotest.(check bool) "a changed estimate differs" false
    (Work.same_result (doc 0.1 2.5) (doc 0.1 (Float.succ 2.5)))

let () =
  Alcotest.run "perfbench"
    [ ( "tail",
        [ Alcotest.test_case "refused under ten beyond" `Quick test_tail_refused;
          Alcotest.test_case "highest qualifying percentile" `Quick test_tail_highest ] );
      ( "failures",
        [ Alcotest.test_case "refusals count as attempted and failed" `Quick
            test_refusals_counted;
          Alcotest.test_case "quota-denied request fails the op" `Quick
            test_quota_denied_fails ] );
      ( "digest",
        [ Alcotest.test_case "perturbed pinned digest fails the op" `Quick test_digest;
          Alcotest.test_case "digest covers the statistics" `Quick
            test_digest_covers_stats;
          Alcotest.test_case "serve response compared ignoring elapsed_s" `Quick
            test_same_result ] ) ]
