(* The per-bug golden outcome the corpus workloads are checked against.

   Generated once with the reference engine (the semantic oracle) by
   [aitia_bench golden], and cross-checked against every bug's
   [Bug.expectation] both when generated and when loaded. *)

type row = { id : string; outcome : Workload.outcome }

let header = "# id\texit\tinterleavings\tchain_races\tambiguous\tchain"

let row_to_line { id; outcome = o } =
  String.concat "\t"
    [ id; string_of_int o.exit; string_of_int o.interleavings;
      string_of_int o.chain_races; string_of_bool o.ambiguous;
      Option.value ~default:"-" o.chain ]

let row_of_line line =
  match String.split_on_char '\t' line with
  | [ id; exit; inter; races; amb; chain ] -> (
    match
      ( int_of_string_opt exit, int_of_string_opt inter,
        int_of_string_opt races, bool_of_string_opt amb )
    with
    | Some exit, Some interleavings, Some chain_races, Some ambiguous ->
      Ok
        { id;
          outcome =
            { exit; interleavings; chain_races; ambiguous;
              chain = (if chain = "-" then None else Some chain) } }
    | _ -> Error (Fmt.str "malformed golden row %S" line))
  | _ -> Error (Fmt.str "malformed golden row %S" line)

let parse (text : string) : (row list, string) result =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.fold_left
       (fun acc l ->
         Result.bind acc (fun rows ->
             Result.map (fun r -> r :: rows) (row_of_line l)))
       (Ok [])
  |> Result.map List.rev

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

(* Disagreements between a golden outcome and the bug's published
   expectation: interleaving count, races in the chain, ambiguity. *)
let expectation_errors (bug : Bugs.Bug.t) (o : Workload.outcome) =
  let e = bug.expectation in
  List.filter_map Fun.id
    [ (if o.exit <> 0 then Some (Fmt.str "exit %d, expected 0" o.exit)
       else None);
      (if o.interleavings <> e.exp_interleavings then
         Some
           (Fmt.str "%d interleavings, expected %d" o.interleavings
              e.exp_interleavings)
       else None);
      (match e.exp_chain_races with
      | Some n when n <> o.chain_races ->
        Some (Fmt.str "%d chain races, expected %d" o.chain_races n)
      | _ -> None);
      (if o.ambiguous <> e.exp_ambiguous then
         Some
           (Fmt.str "ambiguity %b, expected %b" o.ambiguous e.exp_ambiguous)
       else None) ]

(* The golden outcome of every corpus bug, or the reasons a bug's row is
   missing or contradicts its expectation (its requests then fail). *)
let check (rows : row list) :
    (string, Workload.outcome) Hashtbl.t * (string * string) list =
  let tbl = Hashtbl.create 32 in
  let errors = ref [] in
  List.iter
    (fun (bug : Bugs.Bug.t) ->
      match List.find_opt (fun r -> String.equal r.id bug.id) rows with
      | None -> errors := (bug.id, "no golden row") :: !errors
      | Some r -> (
        match expectation_errors bug r.outcome with
        | [] -> Hashtbl.replace tbl bug.id r.outcome
        | es -> errors := (bug.id, String.concat "; " es) :: !errors))
    Bugs.Registry.all;
  (tbl, List.rev !errors)

let generate () : row list =
  let knobs =
    { (Workload.knobs Workload.Corpus) with engine = Ksim.Engine.Reference }
  in
  List.map
    (fun (bug : Bugs.Bug.t) ->
      { id = bug.id; outcome = Workload.diagnose_bug knobs bug })
    Bugs.Registry.all
