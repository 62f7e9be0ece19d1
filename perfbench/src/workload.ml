(* The three workloads and the knobs each one pins.

   Every knob is spelled out here, never left to a library or CLI
   default, so a later change of a default does not silently change
   what a workload measures. *)

type t = Corpus | Corpus_pruned | Triage

let all = [ Corpus; Corpus_pruned; Triage ]

let name = function
  | Corpus -> "corpus"
  | Corpus_pruned -> "corpus-pruned"
  | Triage -> "triage"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

type knobs = {
  engine : Ksim.Engine.kind;
  prune : Aitia.Causality.prune;
  order : Aitia.Causality.order;
  jobs : int;  (** intra-diagnosis workers *)
  snapshot_cache : bool;
  journal : bool;
}

let knobs = function
  | Corpus ->
    { engine = Ksim.Engine.Compiled; prune = `None; order = `Fixed; jobs = 1;
      snapshot_cache = false; journal = false }
  | Corpus_pruned ->
    { engine = Ksim.Engine.Compiled; prune = `Invariants; order = `Fixed;
      jobs = 1; snapshot_cache = false; journal = false }
  | Triage ->
    { engine = Ksim.Engine.Compiled; prune = `None; order = `Fixed; jobs = 1;
      snapshot_cache = true; journal = false }

(* The fixed tail percentile of [request_s.tail].  Chosen per workload
   so that a run of the default length leaves at least ten samples
   beyond it and the percentile falls near the middle of the slowest
   bug's latency block, away from both of its edges (see README.md);
   every run re-checks both conditions. *)
let tail_percentile = function
  | Corpus -> 98.
  | Corpus_pruned -> 98.
  | Triage -> 97.

let prune_name : Aitia.Causality.prune -> string = function
  | `None -> "none"
  | `Flipfeas -> "flipfeas"
  | `Invariants -> "invariants"

let order_name : Aitia.Causality.order -> string = function
  | `Fixed -> "backward"
  | `Gain -> "gain"

let pp_knobs ppf k =
  Fmt.pf ppf
    "engine=%s prune=%s order=%s jobs=%d snapshot_cache=%b journal=%b"
    (Ksim.Engine.to_string k.engine)
    (prune_name k.prune) (order_name k.order) k.jobs k.snapshot_cache
    k.journal

(* --- what a request returns ----------------------------------------- *)

(* The observable result of one diagnosis, in the CLI's exit-code
   vocabulary: 0 diagnosed, 1 clean non-reproduction, 2 request error,
   3 degraded. *)
type outcome = {
  exit : int;
  chain : string option;
  interleavings : int;
  chain_races : int;
  ambiguous : bool;
}

let error_outcome =
  { exit = 2; chain = None; interleavings = 0; chain_races = 0;
    ambiguous = false }

let exit_of_report (r : Aitia.Diagnose.report) =
  if r.degraded then 3 else if Aitia.Diagnose.reproduced r then 0 else 1

let outcome_of_report (r : Aitia.Diagnose.report) =
  { exit = exit_of_report r;
    chain = Option.map Aitia.Chain.to_string r.chain;
    interleavings = r.lifs.stats.interleavings;
    chain_races =
      (match r.chain with Some c -> Aitia.Chain.length c | None -> 0);
    ambiguous =
      (match r.causality with
      | Some ca -> ca.Aitia.Causality.ambiguous <> []
      | None -> false) }

(* One corpus request: build the case, diagnose it with the pinned
   knobs, render the chain. *)
let diagnose_bug ?journal (k : knobs) (bug : Bugs.Bug.t) : outcome =
  match
    Aitia.Diagnose.diagnose ?max_interleavings:bug.max_interleavings
      ~prune:k.prune ~order:k.order ~jobs:k.jobs
      ~snapshot_cache:k.snapshot_cache ~engine:k.engine ?journal
      (bug.case ())
  with
  | r -> outcome_of_report r
  | exception _ -> error_outcome
