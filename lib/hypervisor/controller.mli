(** The generic schedule-enforcement loop — the KVM/QEMU analogue.

    Where the AITIA hypervisor sets breakpoints at a schedule's switch
    points and lets the guest run freely between them, this controller
    consults a policy only at breakpoints: each decision names a thread
    and how long the choice holds, and the chosen thread steps without
    further consultation until the hold ends.  A thread the policy does
    not pick is exactly a trampoline-suspended thread. *)

type verdict =
  | Completed                   (** every thread ran to the end *)
  | Failed of Ksim.Failure.t
  | Deadlock                    (** live threads, none runnable *)
  | Step_limit                  (** watchdog *)

type outcome = {
  verdict : verdict;
  trace : Ksim.Machine.event list;  (** execution order *)
  final : Ksim.Machine.t;
  steps : int;
}

val is_failure : outcome -> bool

type hold =
  | Step  (** one instruction, then consult the policy again *)
  | Run
      (** until the thread spawns, takes or releases a lock, blocks,
          exits or fails *)
  | Run_until of Ksim.Access.Iid.t
      (** as [Run], and also until this instruction executes — a pending
          switch's trigger *)
  | While of (Ksim.Machine.event -> bool)
      (** until the thread blocks, exits or fails, or the function
          returns [false] on an executed event; it sees every event the
          decision covers, the first included *)
(** How long a decision holds.  A [Run]/[Run_until] decision must be
    the one a per-step consultation would repeat at every state inside
    the hold; then the run is identical to consulting at every step. *)

type policy = Ksim.Machine.t -> int list -> (int * hold) option
(** A policy sees the machine and the runnable set and picks a thread
    and its hold; [None] gives up (deadlock if threads remain). *)

val stepwise : (Ksim.Machine.t -> int list -> int option) -> policy
(** A policy that decides every instruction anew. *)

val one_step : policy -> policy
(** The same choices, each held for one instruction only: the policy is
    consulted before every step. *)

type observer = Ksim.Machine.t -> Ksim.Machine.event list -> int -> unit
(** Called after every successfully executed step with the machine
    after the step, the trace so far in {e reverse} order, and the step
    count.  The snapshot cache captures prefix states through this; when
    absent the loop is unchanged. *)

type start = {
  start_machine : Ksim.Machine.t;
  start_trace_rev : Ksim.Machine.event list;  (** reversed prefix trace *)
  start_steps : int;
}
(** A resumable mid-run position: the machine after its prefix.
    Resuming is bit-identical to re-executing the prefix from a fresh
    boot. *)

val default_max_steps : int

val irq_in_progress : Ksim.Machine.t -> int list -> int option
(** A started hardware-interrupt handler among the runnable threads.  On
    its own CPU a handler is not preemptible, but it races freely with
    threads on other CPUs (the paper's §4.6 bug class); policies modeling
    a single-CPU guest can use this to run it to completion. *)

val run :
  ?max_steps:int -> ?observe:observer -> Ksim.Machine.t -> policy -> outcome
(** Runs under a [controller.run] telemetry span with step-loop
    counters (instructions stepped, policy decisions, context
    switches); when no sink is installed the instrumentation is a
    no-op and the outcome is bit-identical.  The final machine is
    sealed ({!Ksim.Engine.seal}): it keeps only its tip state, while
    positions an observer captured stay valid. *)

val resume : ?max_steps:int -> ?observe:observer -> start -> policy -> outcome
(** Continue a run from a snapshot position.  The start's machine is
    restored once ({!Ksim.Engine.restore}); the outcome's trace and
    step count cover the whole run (prefix + suffix), exactly as [run]
    would report, but only the suffix instructions execute — the
    telemetry instruction, decision and context-switch counters reflect
    the suffix alone (a switch across the restore boundary included). *)

val context_switches :
  ?prev:Ksim.Machine.event -> Ksim.Machine.event list -> int
(** Context switches of a trace — the scheduling analogue of the
    hypervisor's breakpoint-hit count.  [prev] is the event the trace
    continues from, if any; a change of thread across it counts. *)

val verdict_name : verdict -> string
(** Short stable name ([completed], [failed], …) for telemetry args. *)

val pp_verdict : verdict Fmt.t
