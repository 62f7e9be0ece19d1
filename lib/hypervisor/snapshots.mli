(** Prefix-sharing snapshot cache — the analogue of AITIA's VM snapshot
    tree.

    The machine is persistent, so a snapshot is the machine value
    reached after a step of a run (copy-on-write through the persistent
    maps, no deep copy).  A run's snapshots form one vector keyed by its
    schedule; a child schedule (one more switch, or a flip plan
    permuting the same trace) restores the longest cached prefix and
    executes only the divergent suffix.

    A vector holds only the positions its run captured — the executor
    captures next to steps that access memory: LIFS switches fire right
    after one and flip plans diverge right before one — and a vector
    stored by a resumed run links to the parent vector it resumed from
    instead of copying the shared prefix.
    A lookup for a position that was not captured misses.

    Two invariants are enforced at lookup time: a preemption hit
    requires the parent policy's pending-switch list to be empty at the
    divergence point (so resuming with only the new switch pending is
    bit-identical to a fresh run), and a {e poisoned} snapshot — one
    whose machine already carries a failure verdict — is never
    returned, so the faulting step always re-executes.  With a zero
    byte budget the cache is disabled and callers take the plain
    reboot path, bit-identical to no cache at all.

    The byte budget bounds the estimated footprint of every resident
    vector: a vector that a resident child links to is not evicted.

    The cache is safe to share between the workers of a {!Pool}: every
    operation holds one cache-wide lock (a no-op on the single-domain
    build), machines are persistent so restores never mutate shared
    state, and per-vector generation counters close the hit→store
    window — a child vector whose restored prefix came from a vector
    poisoned or evicted in between is silently dropped. *)

module Iid = Ksim.Access.Iid

type snap = {
  machine : Ksim.Machine.t;
  trace_rev : Ksim.Machine.event list;  (** events so far, reversed *)
  steps : int;
  queue : int list;  (** policy run queue dumped after the step *)
  pending : Schedule.switch list;  (** switches not yet consumed *)
}

type vector
(** The captured snapshots of one run, in step order, possibly sharing
    a prefix with the parent vector its run resumed from. *)

type link
(** Where a resumed run's vector attaches to its parent vector. *)

type t
(** An LRU cache of vectors under an estimated byte budget. *)

val default_budget_bytes : int

val create : ?budget_bytes:int -> unit -> t

val enabled : t -> bool
(** False when the budget is zero or negative: every lookup misses and
    nothing is stored. *)

type preemption_hit = {
  start : Controller.start;  (** restored position *)
  resume_queue : int list;
  resume_switches : Schedule.switch list;
      (** exactly the child's new switch, still pending *)
  from : link;  (** what the resumed run's vector will link to *)
  vector_key : string;
      (** the cache key of the vector the start was restored from —
          what {!poison} takes when the restore turns out corrupted *)
  parent_generation : int;
      (** that vector's generation at hit time; {!store} drops the
          child when a poisoning lands between hit and store *)
}

val store :
  t ->
  key:string ->
  ?parent:preemption_hit ->
  suffix_rev:snap list ->
  unit ->
  unit
(** Record the snapshot vector of a completed preemption run under the
    schedule's key.  [suffix_rev] is what the controller observer
    captured, newest first.  [parent] is the {!preemption_hit} the run
    resumed from: the vector is stored linked to that parent, sharing
    its prefix.  If the parent has been poisoned or evicted since the
    hit (concurrent workers only), the store is silently dropped — the
    prefix is suspect or no longer accounted.  Evicts least-recently
    used leaf vectors once over budget.  Counts the captured positions
    as [snapshot.captured] and runs under a [snapshot.store] span. *)

val poison : t -> key:string -> unit
(** Mark the entry under [key] unusable — a restore from it was
    detected as corrupted.  Future lookups refuse the whole vector (and
    count {!poisoned_refusals}), so callers degrade gracefully to the
    reboot path.  No-op for an absent or already-poisoned key. *)

val find_preemption : t -> Schedule.preemption -> preemption_hit option
(** The longest reusable prefix of a preemption schedule: the cached
    run of the same schedule minus its last switch, restored just after
    the step that triggers that switch.  [None] on any soundness doubt
    — unfired parent switches, an uncaptured trigger, poisoned
    snapshot, cold cache.  Runs under a [snapshot.find] span. *)

type plan_hit = {
  plan_start : Controller.start;
  suffix : Schedule.plan;  (** what remains to be enforced *)
  matched : int;  (** plan events satisfied by the restored prefix *)
}

val find_plan : t -> key:string -> Schedule.plan -> plan_hit option
(** The longest prefix of the plan coinciding with the stored run under
    [key] — for Causality Analysis, the failure run the flip permutes —
    restored at the last captured position inside it.  Restoring it and
    enforcing only the suffix plan is bit-identical to a fresh run.
    Runs under a [snapshot.find] span. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val restored_instrs : t -> int
(** Prefix instructions obtained by restore instead of re-execution. *)

val poisonings : t -> int
(** Entries explicitly poisoned via {!poison}. *)

val poisoned_refusals : t -> int
(** Lookups refused because the snapshot they needed lies in a
    poisoned (or failing) region of its vector.  Also surfaced as the
    [snapshot.poisoned_refusals] telemetry counter, so degraded-mode
    runs are observable in [aitia stats]. *)

val cached_vectors : t -> int
val cached_bytes : t -> int
