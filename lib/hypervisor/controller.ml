(* The generic schedule-enforcement loop.

   This is our KVM/QEMU analogue.  The AITIA hypervisor installs
   breakpoints at a schedule's switch points, lets the guest run freely
   between them, and parks the threads it does not run in a trampoline.
   Likewise our controller asks a policy which thread to run only at a
   breakpoint, and the policy says how long that choice holds; between
   breakpoints the chosen thread steps without consulting anyone.  A
   thread the policy does not pick is exactly a trampoline-suspended
   thread: it stays responsive (its lock state and spawn events remain
   visible) but makes no progress. *)

type verdict =
  | Completed                    (* every thread ran to the end, no failure *)
  | Failed of Ksim.Failure.t
  | Deadlock                     (* live threads but none runnable *)
  | Step_limit                   (* watchdog: the run did not converge *)

type outcome = {
  verdict : verdict;
  trace : Ksim.Machine.event list;  (* in execution order *)
  final : Ksim.Machine.t;
  steps : int;
}

let is_failure o = match o.verdict with Failed _ -> true | _ -> false

(* How long a decision holds.  [Step]: one instruction, then ask again.
   [Run]: until the chosen thread spawns, takes or releases a lock,
   blocks, exits or fails — the only events that can change which
   thread a run-queue policy picks.  [Run_until iid]: as [Run], and
   also until instruction [iid] executes — a pending switch's trigger,
   the breakpoint the hypervisor would set.  [While f]: until the
   thread blocks, exits or fails, or [f] returns [false] on an executed
   event; [f] sees every event the decision covers, the first
   included, so a policy can keep its own bookkeeping in step. *)
type hold =
  | Step
  | Run
  | Run_until of Ksim.Access.Iid.t
  | While of (Ksim.Machine.event -> bool)

(* A policy sees the machine and the runnable set and picks a thread
   plus how long the choice holds, or [None] to give up (treated as
   deadlock if threads remain). *)
type policy = Ksim.Machine.t -> int list -> (int * hold) option

let stepwise pick m runnable =
  match pick m runnable with Some tid -> Some (tid, Step) | None -> None

let one_step (policy : policy) : policy =
 fun m runnable ->
  match policy m runnable with
  | Some (tid, _) -> Some (tid, Step)
  | None -> None

(* Does executing [ev] reach a breakpoint of [hold]? *)
let ends_hold hold (ev : Ksim.Machine.event) =
  match hold with
  | Step -> true
  | Run -> ev.spawned <> [] || ev.lock_op <> None
  | Run_until trigger ->
    ev.spawned <> [] || ev.lock_op <> None
    || Ksim.Access.Iid.equal ev.iid trigger
  | While f -> not (f ev)

(* An observer sees every successfully executed step: the machine after
   the step, the trace so far in reverse order, and the step count.  The
   snapshot cache uses it to capture prefix states as they are produced;
   when absent the loop is unchanged. *)
type observer = Ksim.Machine.t -> Ksim.Machine.event list -> int -> unit

(* A resumable position inside a run: the machine after [start_steps]
   steps together with the reversed trace that produced it.  Resuming
   from a start is bit-identical to re-executing the prefix because the
   machine is a snapshot of the mid-run state, restored before use. *)
type start = {
  start_machine : Ksim.Machine.t;
  start_trace_rev : Ksim.Machine.event list;
  start_steps : int;
}

let default_max_steps = 200_000

(* A hardware interrupt handler that has started, among the runnable
   threads.  On the CPU that took the interrupt the handler is not
   preemptible, but it races freely with threads on other CPUs — which
   is exactly the bug class of the paper's §4.6 — so this is exposed for
   policies that model a single-CPU guest, not enforced globally. *)
let irq_in_progress m runnable =
  List.find_opt
    (fun tid ->
      Ksim.Machine.thread_context m tid = Ksim.Program.Hardirq
      && Ksim.Machine.has_started m tid)
    runnable

let verdict_name = function
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Deadlock -> "deadlock"
  | Step_limit -> "step-limit"

(* Context switches of a trace: the scheduling analogue of the
   hypervisor's breakpoint-hit count — each switch is one trampoline
   interception in the paper's setup.  [prev] is the event just before
   the trace, when it continues a run: a change of thread across that
   boundary is a switch too. *)
let context_switches ?(prev : Ksim.Machine.event option)
    (trace : Ksim.Machine.event list) =
  let rec go prev n = function
    | [] -> n
    | (e : Ksim.Machine.event) :: rest ->
      let tid = e.iid.Ksim.Access.Iid.tid in
      go (Some tid)
        (if prev = Some tid || prev = None then n else n + 1)
        rest
  in
  let tid (e : Ksim.Machine.event) = e.iid.Ksim.Access.Iid.tid in
  go (Option.map tid prev) 0 trace

(* Run under [policy] until completion, failure, deadlock or the step
   watchdog, starting from an arbitrary resumable position.  The one
   loop consults the policy at breakpoints only: [held] is the thread
   the last decision still holds, stepped until its hold ends.  A held
   thread that blocks or exits ends its hold without a step, and the
   policy decides at that same state — exactly where a per-step policy
   would first have chosen differently.  Returns the outcome and the
   number of policy decisions.  The final machine is sealed: snapshots
   captured along the run keep its undo log alive for as long as they
   live, and a retained outcome holds only the tip state. *)
let run_from ?(max_steps = default_max_steps) ?observe (start : start)
    (policy : policy) : outcome * int =
  let decisions = ref 0 in
  let finish verdict m acc steps =
    ({ verdict; trace = List.rev acc; final = Ksim.Engine.seal m; steps },
     !decisions)
  in
  let stop m acc steps =
    let m = Ksim.Machine.check_leaks m in
    match Ksim.Machine.failed m with
    | Some f -> finish (Failed f) m acc steps
    | None ->
      finish
        (if Ksim.Machine.all_done m then Completed else Deadlock)
        m acc steps
  in
  let rec loop m acc steps held =
    if steps >= max_steps then finish Step_limit m acc steps
    else
      match Ksim.Machine.failed m with
      | Some f -> finish (Failed f) m acc steps
      | None -> (
        match held with
        | Some (tid, hold) -> (
          match Ksim.Engine.step m tid with
          | Ok (m, ev) -> advance m ev acc steps tid hold
          | Error _ -> decide m acc steps)
        | None -> decide m acc steps)
  and decide m acc steps =
    match Ksim.Machine.runnable m with
    | [] -> stop m acc steps
    | runnable -> (
      incr decisions;
      match policy m runnable with
      | None -> stop m acc steps
      | Some (tid, hold) -> (
        match Ksim.Engine.step m tid with
        | Ok (m, ev) -> advance m ev acc steps tid hold
        | Error (Ksim.Machine.Blocked_on_lock _ | Thread_not_runnable) ->
          (* The policy picked a thread that cannot step; treat as
             deadlock rather than spinning — policies are expected to
             consult the runnable set. *)
          finish Deadlock m acc steps
        | Error Machine_failed -> (
          match Ksim.Machine.failed m with
          | Some f -> finish (Failed f) m acc steps
          | None -> assert false)))
  and advance m ev acc steps tid hold =
    let acc = ev :: acc in
    let steps = steps + 1 in
    (match observe with Some f -> f m acc steps | None -> ());
    loop m acc steps (if ends_hold hold ev then None else Some (tid, hold))
  in
  loop start.start_machine start.start_trace_rev start.start_steps None

(* The instrumented entry point: one span per enforced schedule, plus
   the step-loop counters (instructions stepped, policy decisions,
   context switches — our breakpoint hits).  The counters are derived
   after the run from local state, so the disabled path costs one ref
   read. *)
let run ?max_steps ?observe (m : Ksim.Machine.t) (policy : policy) : outcome =
  Telemetry.Probe.span_begin ~cat:"hypervisor" "controller.run";
  let o, decisions =
    run_from ?max_steps ?observe
      { start_machine = m; start_trace_rev = []; start_steps = 0 }
      policy
  in
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count "controller.runs";
    Telemetry.Probe.count ~by:o.steps "controller.instructions";
    Telemetry.Probe.count ~by:decisions "controller.decisions";
    Telemetry.Probe.count
      ~by:(context_switches o.trace)
      "controller.context_switches";
    Telemetry.Probe.count ("controller.verdict." ^ verdict_name o.verdict);
    Telemetry.Probe.span_end
      ~args:
        [ ("verdict", verdict_name o.verdict);
          ("steps", string_of_int o.steps) ]
      ());
  o

(* A resumed run restores the start's machine — the one clone a
   compiled-engine snapshot costs — and executes only the suffix beyond
   it: the span and the instruction, decision and context-switch
   counters cover the divergent steps (plus the switch across the
   restore boundary), never the restored prefix — that is the saving
   the snapshot cache exists to make. *)
let resume ?max_steps ?observe (start : start) (policy : policy) : outcome =
  Telemetry.Probe.span_begin ~cat:"hypervisor" "controller.resume";
  let restored =
    Ksim.Engine.restore (Ksim.Engine.snapshot start.start_machine)
  in
  let o, decisions =
    run_from ?max_steps ?observe
      { start with start_machine = restored }
      policy
  in
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count "controller.resumed_runs";
    Telemetry.Probe.count ~by:(o.steps - start.start_steps)
      "controller.instructions";
    Telemetry.Probe.count ~by:decisions "controller.decisions";
    let rec suffix n l =
      match l with _ :: rest when n > 0 -> suffix (n - 1) rest | _ -> l
    in
    let prev =
      match start.start_trace_rev with e :: _ -> Some e | [] -> None
    in
    Telemetry.Probe.count
      ~by:(context_switches ?prev (suffix start.start_steps o.trace))
      "controller.context_switches";
    Telemetry.Probe.count ("controller.verdict." ^ verdict_name o.verdict);
    Telemetry.Probe.span_end
      ~args:
        [ ("verdict", verdict_name o.verdict);
          ("prefix_steps", string_of_int start.start_steps);
          ("steps", string_of_int o.steps) ]
      ());
  o

let pp_verdict ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Failed f -> Fmt.pf ppf "failed: %a" Ksim.Failure.pp f
  | Deadlock -> Fmt.string ppf "deadlock"
  | Step_limit -> Fmt.string ppf "step-limit"
