(* The execution-engine selector: one name for "which Machine
   implementation runs the guest", threaded from the CLI through Vm into
   every layer that boots machines.  The interface deliberately mirrors
   how the executor and the snapshot cache consume machines — step,
   snapshot, restore, fingerprint — so those layers need never
   pattern-match on machine internals. *)

type kind = Reference | Compiled

let default = Compiled

let to_string = function Reference -> "reference" | Compiled -> "compiled"

let of_string = function
  | "reference" -> Ok Reference
  | "compiled" -> Ok Compiled
  | s -> Error (Fmt.str "unknown engine %S (expected reference|compiled)" s)

let pp ppf k = Fmt.string ppf (to_string k)

let boot = function
  | Reference -> Machine.create
  | Compiled -> Machine.create_compiled

let kind_of m = if Machine.compiled m then Compiled else Reference

let step = Machine.step

(* A snapshot is the machine value itself: the reference engine is
   persistent, and the compiled engine is frozen so the shared arena is
   only ever read.  A restore clones and rewinds it once; the restored
   machine is then a live tip that steps and answers queries in place. *)
type snapshot = Machine.t

let snapshot m =
  Machine.freeze m;
  m

let restore = Machine.materialize

let seal = Machine.seal

let snapshot_cost ?prev (m : Machine.t) = Machine.snapshot_cost ?prev m

let fingerprint = Machine.fingerprint
