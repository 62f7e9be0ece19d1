(* The AITIA benchmark.

     aitia_bench --workload corpus|corpus-pruned|triage --seed N
                 --seconds S --trace 0|1 [--golden FILE]
     aitia_bench golden > perfbench/golden/corpus.tsv

   Run from the repository root (see perfbench/README.md).  The last
   line of standard output is the JSON result. *)

let usage () =
  prerr_endline
    "usage: aitia_bench --workload corpus|corpus-pruned|triage --seed N \
     --seconds S --trace 0|1 [--golden FILE]\n\
    \       aitia_bench golden";
  exit 2

let golden_cmd () =
  let rows = Perfbench.Golden.generate () in
  let bad = ref false in
  List.iter
    (fun (r : Perfbench.Golden.row) ->
      match Bugs.Registry.find r.id with
      | None -> ()
      | Some bug -> (
        match Perfbench.Golden.expectation_errors bug r.outcome with
        | [] -> ()
        | es ->
          bad := true;
          Printf.eprintf "%s: %s\n" r.id (String.concat "; " es)))
    rows;
  print_endline Perfbench.Golden.header;
  List.iter (fun r -> print_endline (Perfbench.Golden.row_to_line r)) rows;
  if !bad then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "golden" ] -> golden_cmd ()
  | _ :: args ->
    let rec parse acc = function
      | [] -> acc
      | key :: v :: rest
        when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = List.assoc_opt k opts in
    let int_opt k d =
      match get k with
      | None -> d
      | Some v -> (
        match int_of_string_opt v with Some i -> i | None -> usage ())
    in
    let workload =
      match Option.bind (get "workload") Perfbench.Workload.of_name with
      | Some w -> w
      | None -> usage ()
    in
    let seed = int_opt "seed" 1 in
    let seconds = float_of_int (int_opt "seconds" 45) in
    let golden =
      Option.value ~default:"perfbench/golden/corpus.tsv" (get "golden")
    in
    if seconds <= 0. then usage ();
    let code =
      match int_opt "trace" 0 with
      | 0 -> Perfbench.E2e.run workload ~seed ~seconds ~golden
      | 1 -> Perfbench.Layers.run workload ~seed ~seconds ~golden
      | _ -> usage ()
    in
    exit code
  | [] -> usage ()
