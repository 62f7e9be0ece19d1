(* Unit tests of the benchmark's own rules: quantiles, the tail rule,
   seeding, the host probe and the golden file. *)

open Perfbench

let checkf msg expected got =
  Alcotest.(check (float 1e-9)) msg expected got

(* --- quantiles ---------------------------------------------------------- *)

let test_quantile () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  checkf "p0" 1. (Stats.quantile xs 0.);
  checkf "p100" 10. (Stats.quantile xs 100.);
  checkf "median" 5.5 (Stats.median xs);
  checkf "p90 interpolates" 9.1 (Stats.quantile xs 90.);
  checkf "one sample" 7. (Stats.quantile [ 7. ] 98.)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let check3 msg (a, b, c) (x, y, z) =
    checkf (msg ^ " q1") a x;
    checkf (msg ^ " q2") b y;
    checkf (msg ^ " q3") c z
  in
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check3 "1..10" (2.75, 5.5, 8.25) (q ten);
  check3 "three" (1., 2., 3.) (q [ 3.; 1.; 2. ]);
  check3 "two" (0., 3., 6.) (q [ 5.; 1. ]);
  checkf "iqr share" (5.5 /. 5.5) (Stats.iqr_share ten);
  checkf "iqr share of one sample" 0. (Stats.iqr_share [ 1. ])

(* --- the tail rule ------------------------------------------------------ *)

(* [rounds] rounds of [blocks] bugs: bug [b] always takes about [b+1]
   milliseconds, so sorted latencies form one block per bug. *)
let blocky ~rounds ~blocks =
  List.concat_map
    (fun r ->
      List.init blocks (fun b ->
          ( Fmt.str "bug%02d" b,
            (float_of_int (b + 1) *. 1e-3) +. (float_of_int r *. 1e-7) )))
    (List.init rounds Fun.id)

let test_tail_holds () =
  (* 20 rounds of 29 bugs: p98 has 11 samples beyond it, well inside the
     slowest bug's 20-sample block. *)
  let t = Stats.tail ~percentile:98. (blocky ~rounds:20 ~blocks:29) in
  Alcotest.(check string) "slowest block" "bug28" t.label;
  Alcotest.(check bool) ">= 10 beyond" true (t.beyond >= 10);
  Alcotest.(check bool)
    "off the boundary" true
    (t.margin >= Stats.min_margin);
  Alcotest.(check bool) "ok" true t.ok

let test_tail_too_few () =
  (* 10 rounds: only 5 samples beyond p98. *)
  let t = Stats.tail ~percentile:98. (blocky ~rounds:10 ~blocks:29) in
  Alcotest.(check bool) "< 10 beyond" true (t.beyond < 10);
  Alcotest.(check bool) "rejected" false t.ok

let test_tail_on_boundary () =
  (* p96.6 of 20x29 samples sits right at the lower edge of the slowest
     block: enough samples beyond, but on a block boundary. *)
  let t = Stats.tail ~percentile:96.6 (blocky ~rounds:20 ~blocks:29) in
  Alcotest.(check bool) ">= 10 beyond" true (t.beyond >= 10);
  Alcotest.(check bool) "on the boundary" true (t.margin < Stats.min_margin);
  Alcotest.(check bool) "rejected" false t.ok

let test_highest_percentile () =
  checkf "580 samples" (100. *. 570. /. 580.)
    (Stats.highest_percentile ~n:580 ~min_beyond:10);
  checkf "too few" 0. (Stats.highest_percentile ~n:10 ~min_beyond:10);
  (* Every workload's fixed tail percentile leaves ten samples beyond
     it at the fewest requests a default 45 s run makes on a slow host:
     30 corpus rounds, 60 pruned rounds, 3 triage rounds. *)
  List.iter
    (fun (w, n) ->
      Alcotest.(check bool)
        (Workload.name w ^ " tail percentile")
        true
        (Workload.tail_percentile w
        <= Stats.highest_percentile ~n ~min_beyond:10))
    Workload.
      [ (Corpus, 30 * 29); (Corpus_pruned, 60 * 29); (Triage, 3 * 245) ]

(* Each fixed tail percentile sits near the middle of the slowest block
   in whole rounds, not just off its edge: cve-2017-15649 is 1 request in
   29 on the corpus workloads; on [triage] its cheap arrival order is the
   second-slowest block of 5 inputs in 245, under the 5 of the expensive
   order. *)
let test_tail_mid_block () =
  let check w ~rounds ~blocks ~slow_rank =
    let t =
      Stats.tail
        ~percentile:(Workload.tail_percentile w)
        (blocky ~rounds ~blocks)
    in
    Alcotest.(check string)
      (Workload.name w ^ " block")
      (Fmt.str "bug%02d" (blocks - slow_rank))
      t.label;
    Alcotest.(check bool)
      (Workload.name w ^ " margin")
      true
      (t.margin >= rounds / 3)
  in
  check Workload.Corpus ~rounds:40 ~blocks:29 ~slow_rank:1;
  check Workload.Corpus_pruned ~rounds:80 ~blocks:29 ~slow_rank:1;
  (* 5 rounds of 49 blocks of 5: one block is 5 of 245 requests. *)
  let t =
    Stats.tail
      ~percentile:(Workload.tail_percentile Workload.Triage)
      (List.concat_map
         (fun (l, x) ->
           List.init 5 (fun i -> (l, x +. (float_of_int i *. 1e-9))))
         (blocky ~rounds:5 ~blocks:49))
  in
  Alcotest.(check string) "triage block" "bug47" t.label;
  Alcotest.(check bool) "triage margin" true (t.margin >= 8)

(* --- seeds -------------------------------------------------------------- *)

let sequence seed =
  let rng = Rng.make seed in
  List.concat_map
    (fun _ ->
      let a = Array.init 29 Fun.id in
      Rng.shuffle rng a;
      Array.to_list a)
    [ 1; 2; 3 ]

let test_same_seed_same_sequence () =
  Alcotest.(check (list int)) "seed 7 twice" (sequence 7) (sequence 7);
  Alcotest.(check bool) "seed 7 vs 8" false (sequence 7 = sequence 8);
  let a = sequence 7 in
  Alcotest.(check (list int)) "a permutation per round"
    (List.init 29 Fun.id)
    (List.sort compare (List.filteri (fun i _ -> i < 29) a))

let small_bugs () =
  List.filter_map Bugs.Registry.find [ "fig1"; "fig5"; "cve-2017-2636" ]

let test_triage_seed () =
  let bugs = small_bugs () in
  let a = Triage.generate ~bugs ~seed:3 () in
  let b = Triage.generate ~bugs ~seed:3 () in
  let c = Triage.generate ~bugs ~seed:4 () in
  Alcotest.(check bool) "inputs generated" true (a <> []);
  Alcotest.(check string) "same seed, same digest" (Triage.digest a)
    (Triage.digest b);
  Alcotest.(check (list string)) "same seed, same ids"
    (List.map (fun (i : Triage.input) -> i.in_id) a)
    (List.map (fun (i : Triage.input) -> i.in_id) b);
  Alcotest.(check bool) "another seed, other inputs" false
    (Triage.digest a = Triage.digest c)

(* --- the host probe ---------------------------------------------------- *)

let test_probe () =
  Alcotest.(check bool) "a probe takes time" true (Host.probe () > 0.);
  let twice = 2. *. Host.nominal_probe in
  checkf "a host at half speed halves times" 0.5
    (Host.nominal_factor ~before:twice ~after:twice);
  checkf "the mean of the two probes" 1.
    (Host.nominal_factor ~before:(0.5 *. Host.nominal_probe)
       ~after:(1.5 *. Host.nominal_probe))

(* --- the golden file ---------------------------------------------------- *)

let test_golden_file () =
  match Golden.load "../golden/corpus.tsv" with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    let tbl, errors = Golden.check rows in
    List.iter (fun (id, e) -> Alcotest.failf "%s: %s" id e) errors;
    Alcotest.(check int) "every corpus bug" (List.length Bugs.Registry.all)
      (Hashtbl.length tbl)

let test_golden_roundtrip () =
  let row =
    { Golden.id = "x";
      outcome =
        { Workload.exit = 0; chain = Some "(A1 => B1) --> null-ptr-deref";
          interleavings = 1; chain_races = 1; ambiguous = true } }
  in
  match Golden.parse (Golden.row_to_line row) with
  | Ok [ r ] -> Alcotest.(check bool) "same row" true (r = row)
  | Ok _ -> Alcotest.fail "one row expected"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ( "tail",
        [ Alcotest.test_case "holds" `Quick test_tail_holds;
          Alcotest.test_case "too few beyond" `Quick test_tail_too_few;
          Alcotest.test_case "on a boundary" `Quick test_tail_on_boundary;
          Alcotest.test_case "highest percentile" `Quick
            test_highest_percentile;
          Alcotest.test_case "mid-block" `Quick test_tail_mid_block ] );
      ( "seed",
        [ Alcotest.test_case "request sequence" `Quick
            test_same_seed_same_sequence;
          Alcotest.test_case "triage inputs" `Quick test_triage_seed ] );
      ("probe", [ Alcotest.test_case "nominal host" `Quick test_probe ]);
      ( "golden",
        [ Alcotest.test_case "committed file" `Quick test_golden_file;
          Alcotest.test_case "round trip" `Quick test_golden_roundtrip ] ) ]
