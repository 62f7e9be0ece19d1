(* The syzbot-style triage queue: crash histories produced by seeded
   fuzzing campaigns over the corpus workloads, each diagnosed as one
   [aitia batch] manifest entry.

   The workload seed picks the fuzzing seeds, so it changes the inputs
   themselves, not just their order. *)

type input = {
  in_id : string;  (** unique: [<bug>.<campaign>] *)
  bug : Bugs.Bug.t;
  arrival : string;
      (** the order in which the history's threads enter their first
          system call *)
  case : Aitia.Diagnose.case;  (** the bug's guest with the fuzzed history *)
}

(* The latency block of an input: its bug and arrival order.  LIFS
   explores serial orders in history order, so the two arrival orders
   of one bug can differ in cost by 2x (cve-2017-15649: 885 vs 1885
   schedules). *)
let label i = i.bug.id ^ "/" ^ i.arrival

let per_arrival = 5
let max_per_bug = 10
let max_campaigns = 40

(* Setup threads run serially first, as [aitia fuzz] does. *)
let prologue_of (group : Ksim.Program.group) =
  List.concat
    (List.mapi
       (fun i (s : Ksim.Program.thread_spec) ->
         if String.equal s.spec_name "init" then [ i ] else [])
       group.Ksim.Program.threads)

let arrival_of (h : Trace.History.t) =
  List.fold_left
    (fun seen (e : Trace.Event.t) ->
      match e.kind with
      | Trace.Event.Syscall_enter { thread; _ }
        when not (List.mem thread seen) ->
        thread :: seen
      | _ -> seen)
    [] (Trace.History.events h)
  |> List.rev |> String.concat ","

(* Seeded fuzzing campaigns per bug, in the order the workload seed
   draws their fuzzing seeds.  A crash joins the queue unless its bug
   already has [per_arrival] crashes with the same arrival order; a bug
   stops at [max_per_bug] crashes or [max_campaigns] campaigns.  The
   quota keeps the mix of cheap and expensive arrival orders the same
   for every seed, while the histories themselves change with it. *)
let generate ?(bugs = Bugs.Registry.all) ~seed () : input list =
  let rng = Rng.make seed in
  List.concat_map
    (fun (bug : Bugs.Bug.t) ->
      let counts = Hashtbl.create 4 in
      let rec campaign k acc =
        if k >= max_campaigns || List.length acc >= max_per_bug then
          List.rev acc
        else
          let fuzz_seed = 1 + Rng.int rng 1_000_000_000 in
          let case = bug.case () in
          match
            Fuzz.Fuzzer.run ~seed:fuzz_seed ~prologue:(prologue_of case.group)
              ~subsystem:bug.subsystem case.group
          with
          | Error _ -> campaign (k + 1) acc
          | Ok f ->
            let arrival = arrival_of f.history in
            let n =
              Option.value ~default:0 (Hashtbl.find_opt counts arrival)
            in
            if n >= per_arrival then campaign (k + 1) acc
            else (
              Hashtbl.replace counts arrival (n + 1);
              campaign (k + 1)
                ({ in_id = Fmt.str "%s.%d" bug.id k; bug; arrival;
                   case = { case with history = f.history } }
                :: acc))
      in
      campaign 0 [])
    bugs

(* A bug's own registry history as a triage input.  It is the same for
   every seed, so set-up warms with it: the first generated input
   changes with the seed, and so would the set-up time. *)
let of_bug (bug : Bugs.Bug.t) : input =
  let case = bug.case () in
  { in_id = bug.id; bug; arrival = arrival_of case.history; case }

(* A digest of every generated history (events and crash report), so a
   change that alters the inputs is visible rather than measured. *)
let digest (inputs : input list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string b i.in_id;
      List.iter
        (fun e -> Buffer.add_string b (Fmt.str "|%a" Trace.Event.pp e))
        (Trace.History.events i.case.history);
      Buffer.add_string b
        (Fmt.str "|%a\n" Trace.Crash.pp (Trace.History.crash i.case.history)))
    inputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The manifest entry of one input, every knob pinned. *)
let manifest_entry ?(engine = Ksim.Engine.Compiled) (k : Workload.knobs) ~id
    ~bug =
  Telemetry.Json.obj
    [ ("id", Telemetry.Json.str id);
      ("bug", Telemetry.Json.str bug);
      ("jobs", Telemetry.Json.int k.jobs);
      ("prune", Telemetry.Json.str (Workload.prune_name k.prune));
      ("order", Telemetry.Json.str (Workload.order_name k.order));
      ("snapshot_cache", Telemetry.Json.bool k.snapshot_cache);
      ("engine", Telemetry.Json.str (Ksim.Engine.to_string engine)) ]

(* Batch resolves a request by its [bug] field; every manifest here
   carries a single request, so resolution hands back that input's
   generated case. *)
let resolver (i : input) id =
  if String.equal id i.bug.id then Some (i.case, i.bug.max_interleavings)
  else None

let outcome_of_batch (o : Aitia.Batch.outcome) : Workload.outcome =
  { Workload.error_outcome with exit = o.o_exit; chain = o.o_chain }

(* One triage request: parse the manifest entry, run it through
   [Batch.run], return its outcome.  With [journal_dir] the request
   keeps an isolated journal there. *)
let request ?journal_dir (k : Workload.knobs) (i : input) : Workload.outcome =
  let entry = manifest_entry k ~id:i.in_id ~bug:i.bug.id in
  match Aitia.Batch.manifest_of_string ("[" ^ entry ^ "]") with
  | Error _ -> Workload.error_outcome
  | Ok rqs -> (
    match
      (Aitia.Batch.run ~jobs:1 ?journal_dir ~resolve:(resolver i) rqs)
        .outcomes
    with
    | [ o ] -> outcome_of_batch o
    | _ | (exception _) -> Workload.error_outcome)

(* The reference pass: every input diagnosed on the reference engine
   with no pool, cache or journal, two requests at a time.  Its exit
   codes and chains are what the timed requests must reproduce. *)
let reference (k : Workload.knobs) (inputs : input list) :
    (string, Workload.outcome) Hashtbl.t =
  let tbl = Hashtbl.create 512 in
  let oracle_knobs = { k with jobs = 1; snapshot_cache = false } in
  let manifest =
    "["
    ^ String.concat ","
        (List.map
           (fun i ->
             manifest_entry ~engine:Ksim.Engine.Reference oracle_knobs
               ~id:i.in_id ~bug:i.bug.id)
           inputs)
    ^ "]"
  in
  let by_id = Hashtbl.create 512 in
  List.iter (fun i -> Hashtbl.replace by_id i.in_id i) inputs;
  (match Aitia.Batch.manifest_of_string manifest with
  | Error _ -> ()
  | Ok rqs ->
    (* Batch resolves by bug id; the reference pass needs per-input
       cases, so each request's bug field is rewritten to its input id. *)
    let rqs =
      List.map
        (fun (rq : Aitia.Batch.request) -> { rq with rq_bug = rq.rq_id })
        rqs
    in
    let resolve id =
      Option.map
        (fun i -> (i.case, i.bug.Bugs.Bug.max_interleavings))
        (Hashtbl.find_opt by_id id)
    in
    List.iter
      (fun (o : Aitia.Batch.outcome) ->
        Hashtbl.replace tbl o.o_id (outcome_of_batch o))
      (Aitia.Batch.run ~jobs:2 ~resolve rqs).outcomes);
  tbl
