(* Prefix-sharing snapshot cache (our analogue of AITIA's VM snapshot
   tree).

   The machine is a persistent value, so a "snapshot" is just keeping
   the machine reached after a step of a run — copy-on-write through
   the persistent maps, no deep copy.  A run's snapshots form one
   vector, keyed by the schedule that produced it.  Consecutive
   schedules explored by LIFS differ by one appended switch, so a child
   run restores the parent's snapshot at its divergence point and
   executes only the suffix.  Causality Analysis flip plans likewise
   share a long prefix with the failure trace they permute, so each flip
   restores a snapshot just before the flipped race instead of
   rebooting.

   Vector layout.  A vector holds only the positions its own run
   captured.  The executor captures a position only when the step
   before or after it accessed memory: LIFS places every switch right
   after such a step, so every preemption trigger is still a captured
   position, and Causality Analysis flips diverge right before one, so
   plan lookups, which resume at the last captured position inside
   their matched prefix, lose almost nothing.  A vector stored by a
   resumed run does not copy its parent's prefix: it links to the
   parent vector, records how many parent positions it shares, and the
   one switch it added.  Reading a shared position walks the link and
   appends the added switches to the pending list there ([vget]);
   storing a child costs only its own suffix.

   Soundness rests on two invariants, both checked at lookup time:

   - {e policy-state capture}: a snapshot stores not just the machine
     but the enforcement policy's run queue and not-yet-consumed
     switches, dumped right after the decision that produced the step.
     A preemption hit requires the pending list at the divergence point
     to be empty — every parent switch already consumed — so resuming
     with exactly the child's new switch pending is bit-identical to a
     fresh run (schedules whose switches fire out of order simply miss
     and fall back to a full run).  A trigger at a position that was
     not captured is a miss too, never a wrong restore.

   - {e poisoning}: a failing run's final snapshot carries the failure
     verdict; restoring it would skip the failure manifestation path.
     Lookups never return a failed snapshot — [healthy] caps how deep a
     prefix may be reused, so the faulting step itself always
     re-executes.

   Budget.  A vector's byte estimate covers its own positions only.  A
   linked parent stays resident while any resident child links to it —
   eviction takes least-recently-used {e leaves} — so the sum over
   resident vectors bounds everything the cache keeps alive.

   Shared tier: every public operation takes one cache-wide lock (a
   no-op mutex on the single-domain build), so one cache can back all
   workers of a pool.  Machines are persistent values — restoring a
   snapshot never mutates it — so sharing needs no copying; the only
   new hazard under contention is the hit→store window: worker A
   restores a prefix from a parent vector, worker B poisons (or evicts)
   that vector, and A would then store a child linked to a bad or
   unaccounted prefix.  Each vector therefore carries a generation
   counter, bumped on poison; a preemption hit records the parent and
   its generation, and [store ~parent] silently drops the child unless
   that very vector is still resident at that generation. *)

module Iid = Ksim.Access.Iid

type snap = {
  machine : Ksim.Machine.t;
  trace_rev : Ksim.Machine.event list;  (* events 1..steps, reversed *)
  steps : int;
  queue : int list;                     (* policy run queue after the step *)
  pending : Schedule.switch list;       (* switches not yet consumed *)
}

type vector = {
  link : link option;  (* the parent vector a resumed run shares *)
  own : snap array;    (* positions this run captured, in step order *)
  mutable iids : Iid.t array option;
      (* executed instructions up to the last position; built on the
         first plan lookup *)
  mutable healthy : int;  (* leading positions whose machine has not
                             failed; forced to 0 when poisoned *)
  mutable generation : int;  (* bumped on poison; a hit records it so a
                                later store can detect the stale prefix *)
  bytes : int;         (* estimated footprint of [own], for the budget *)
  mutable tick : int;  (* LRU recency stamp *)
  mutable children : int;  (* resident vectors linking to this one *)
}

and link = {
  parent : vector;
  prefix : int;  (* positions 0..prefix-1 are the parent's *)
  extra : Schedule.switch list;  (* still pending at every shared position *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable restored_instrs : int;  (* prefix instructions not re-executed *)
  mutable poisonings : int;           (* entries poisoned explicitly *)
  mutable poisoned_refusals : int;    (* lookups refused by poisoning *)
}

type t = {
  budget_bytes : int;
  tbl : (string, vector) Hashtbl.t;
  lock : Pool_backend.Lock.t;  (* guards tbl, stats, clock, totals *)
  mutable total_bytes : int;
  mutable clock : int;
  stats : stats;
}

let default_budget_bytes = 512 * 1024 * 1024

let create ?(budget_bytes = default_budget_bytes) () =
  { budget_bytes;
    tbl = Hashtbl.create 256;
    lock = Pool_backend.Lock.create ();
    total_bytes = 0;
    clock = 0;
    stats =
      { hits = 0; misses = 0; evictions = 0; restored_instrs = 0;
        poisonings = 0; poisoned_refusals = 0 } }

let locked t f = Pool_backend.Lock.protect t.lock f

(* A zero (or negative) budget disables the cache entirely: callers take
   the plain reboot path and behaviour is bit-identical to no cache. *)
let enabled t = t.budget_bytes > 0

let hits t = locked t (fun () -> t.stats.hits)
let misses t = locked t (fun () -> t.stats.misses)
let evictions t = locked t (fun () -> t.stats.evictions)
let restored_instrs t = locked t (fun () -> t.stats.restored_instrs)
let poisonings t = locked t (fun () -> t.stats.poisonings)
let poisoned_refusals t = locked t (fun () -> t.stats.poisoned_refusals)
let cached_vectors t = locked t (fun () -> Hashtbl.length t.tbl)
let cached_bytes t = locked t (fun () -> t.total_bytes)

(* --- positions -------------------------------------------------------- *)

let shared v = match v.link with Some l -> l.prefix | None -> 0
let length v = shared v + Array.length v.own

(* Position [k] as its run captured it, without the pending adjustment:
   machine, trace and step count are all a lookup needs to locate a
   position or restore it for a plan. *)
let rec raw v k =
  match v.link with
  | Some l when k < l.prefix -> raw l.parent k
  | Some _ | None -> v.own.(k - shared v)

(* Position [k] as this vector's own run would have captured it: at a
   shared position, the switches the child added are still pending. *)
let rec vget v k =
  match v.link with
  | Some l when k < l.prefix ->
    let s = vget l.parent k in
    { s with pending = s.pending @ l.extra }
  | Some _ | None -> v.own.(k - shared v)

let iid_of (s : snap) =
  match s.trace_rev with
  | e :: _ -> e.Ksim.Machine.iid
  | [] -> assert false (* a snap always follows >= 1 step *)

(* The position whose step executed [iid], if that step was captured.
   Instruction ids are unique within a run, so the first match is the
   only one. *)
let rec position_of v iid =
  let off = shared v in
  let rec scan j =
    if j >= Array.length v.own then None
    else if Iid.equal (iid_of v.own.(j)) iid then Some (off + j)
    else scan (j + 1)
  in
  match scan 0 with
  | Some _ as found -> found
  | None -> (
    match v.link with
    | Some l -> (
      match position_of l.parent iid with
      | Some k when k < l.prefix -> Some k
      | Some _ | None -> None)
    | None -> None)

(* The last position reached within the first [n] steps, or -1.  Step
   counts strictly increase along a vector. *)
let last_within v n =
  let rec go lo hi =
    (* invariant: positions < lo are within, positions > hi are not *)
    if lo > hi then hi
    else
      let mid = (lo + hi) / 2 in
      if (raw v mid).steps <= n then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (length v - 1)

let executed_iids v =
  match v.iids with
  | Some a -> a
  | None ->
    let last = raw v (length v - 1) in
    let a =
      Array.of_list
        (List.rev_map (fun (e : Ksim.Machine.event) -> e.iid) last.trace_rev)
    in
    v.iids <- Some a;
    a

(* --- storage ---------------------------------------------------------- *)

(* Rough footprint of a vector's own positions, for the LRU budget.  The
   budget bounds an estimate, not exact bytes, but the estimate must
   track the engine's actual representation: reference-engine snapshots
   share persistent map structure, so each one costs a handful of
   rewritten spine nodes (a flat per-position constant); compiled-engine
   snapshots sharing one arena cost their marginal undo-log delta, while
   a snapshot opening a fresh arena is charged a full clone.
   [Ksim.Machine.snapshot_cost] measures each machine against its
   predecessor — for the first own position of a linked vector, the
   parent position it resumed from — and a fixed overhead covers the
   vector bookkeeping.  For a reference-engine vector of n own positions
   this reduces to 1024 + 256*n. *)
let estimate_bytes ?prev (own : snap array) =
  let total = ref 1024 in
  Array.iteri
    (fun k s ->
      let prev = if k = 0 then prev else Some own.(k - 1).machine in
      total := !total + Ksim.Engine.snapshot_cost ?prev s.machine)
    own;
  !total

let touch t v =
  t.clock <- t.clock + 1;
  v.tick <- t.clock

let lookup t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Telemetry.Probe.count "snapshot.misses";
    None
  | Some v ->
    touch t v;
    Some v

(* Evict the least-recently-used leaf.  A vector some resident child
   still links to is never evicted: the child would keep it alive
   outside the budget.  Every non-empty cache has a leaf, since links
   only point at older vectors. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key v acc ->
        if v.children > 0 then acc
        else
          match acc with
          | Some (_, best) when best.tick <= v.tick -> acc
          | _ -> Some (key, v))
      t.tbl None
  in
  match victim with
  | None -> false
  | Some (key, v) ->
    Hashtbl.remove t.tbl key;
    (match v.link with
    | Some l -> l.parent.children <- l.parent.children - 1
    | None -> ());
    t.total_bytes <- t.total_bytes - v.bytes;
    t.stats.evictions <- t.stats.evictions + 1;
    Telemetry.Probe.count "snapshot.evictions";
    true

(* --- preemption lookups ----------------------------------------------- *)

type preemption_hit = {
  start : Controller.start;
  resume_queue : int list;
  resume_switches : Schedule.switch list;
  from : link;  (* what a vector stored by the resumed run links to *)
  vector_key : string;  (* the vector the start was restored from *)
  parent_generation : int;  (* its generation at hit time, for store *)
}

let start_of_snap (s : snap) : Controller.start =
  { Controller.start_machine = s.machine;
    start_trace_rev = s.trace_rev;
    start_steps = s.steps }

(* A lookup walked into the poisoned (or failing) region of a vector
   and was refused: degraded-mode runs show up in [aitia stats] through
   this counter instead of failing silently. *)
let refuse_poisoned t =
  t.stats.poisoned_refusals <- t.stats.poisoned_refusals + 1;
  Telemetry.Probe.count "snapshot.poisoned_refusals"

let hit t (s : snap) =
  t.stats.hits <- t.stats.hits + 1;
  t.stats.restored_instrs <- t.stats.restored_instrs + s.steps;
  if Telemetry.Probe.installed () then (
    Telemetry.Probe.count "snapshot.hits";
    Telemetry.Probe.count ~by:s.steps "snapshot.restored_instrs")

(* The longest reusable prefix of a preemption schedule: the run of the
   same schedule minus its last switch, restored just after the step
   that triggers that switch. *)
let find_preemption t (sched : Schedule.preemption) : preemption_hit option =
  if not (enabled t) then None
  else
    match List.rev sched.Schedule.switches with
    | [] -> None (* a serial schedule has no parent prefix *)
    | last :: parent_rev ->
      Telemetry.Probe.with_span ~cat:"snapshot" "snapshot.find" @@ fun () ->
      locked t (fun () ->
          let parent =
            { sched with Schedule.switches = List.rev parent_rev }
          in
          let parent_key = Schedule.preemption_key parent in
          match lookup t parent_key with
          | None -> None
          | Some v -> (
            match position_of v last.Schedule.after with
            | None ->
              (* the trigger never executed in the parent run, or its
                 step was not captured *)
              None
            | Some i ->
              let s = vget v i in
              if i >= v.healthy || s.pending <> [] then (
                (* poisoned snapshot, or parent switches not all consumed
                   by the divergence point: fall back to a full run *)
                if i >= v.healthy then refuse_poisoned t;
                None)
              else (
                hit t s;
                Some
                  { start = start_of_snap s;
                    resume_queue = s.queue;
                    resume_switches = [ last ];
                    from = { parent = v; prefix = i + 1; extra = [ last ] };
                    vector_key = parent_key;
                    parent_generation = v.generation })))

(* Store the snapshot vector of a completed preemption run.
   [suffix_rev] is what the controller observer captured, newest first.
   A resumed run passes the [parent] hit it resumed from and is stored
   linked to that vector, sharing its prefix.  If that vector has since
   been poisoned or evicted — possible only with concurrent workers —
   the child would rest on a suspect or unaccounted prefix and is
   silently dropped. *)
let store t ~key ?(parent : preemption_hit option) ~(suffix_rev : snap list)
    () =
  Telemetry.Probe.with_span ~cat:"snapshot" "snapshot.store" @@ fun () ->
  locked t (fun () ->
      let parent_ok =
        match parent with
        | None -> true
        | Some h -> (
          match Hashtbl.find_opt t.tbl h.vector_key with
          | Some pv ->
            pv == h.from.parent && pv.generation = h.parent_generation
          | None -> false)
      in
      let link = Option.map (fun h -> h.from) parent in
      let own = Array.of_list (List.rev suffix_rev) in
      let prefix = match link with Some l -> l.prefix | None -> 0 in
      Telemetry.Probe.count ~by:(Array.length own) "snapshot.captured";
      if
        parent_ok && enabled t
        && prefix + Array.length own > 0
        && not (Hashtbl.mem t.tbl key)
      then (
        (* Capture through the engine interface before publishing: a
           compiled-engine machine is frozen and gives up its in-place
           fast path, so concurrent restores from other workers only
           ever read the shared arena.  No-op for reference machines. *)
        Array.iter
          (fun s ->
            ignore (Ksim.Engine.snapshot s.machine : Ksim.Engine.snapshot))
          own;
        let leading_ok =
          let rec go k =
            if
              k < Array.length own
              && Ksim.Machine.failed own.(k).machine = None
            then go (k + 1)
            else k
          in
          go 0
        in
        let prev =
          Option.map (fun l -> (raw l.parent (l.prefix - 1)).machine) link
        in
        let bytes = estimate_bytes ?prev own in
        let v =
          { link; own; iids = None; healthy = prefix + leading_ok;
            generation = 0; bytes; tick = 0; children = 0 }
        in
        (match link with
        | Some l -> l.parent.children <- l.parent.children + 1
        | None -> ());
        touch t v;
        Hashtbl.replace t.tbl key v;
        t.total_bytes <- t.total_bytes + bytes;
        while t.total_bytes > t.budget_bytes && evict_lru t do
          ()
        done))

(* Explicitly poison an entry — a restore from it was detected as
   corrupted (fault injection, or any future integrity check).  Forcing
   [healthy] to 0 makes every future lookup refuse the vector, so
   callers degrade to the reboot path; the entry stays resident (and
   counted) rather than deleted, mirroring the paper's quarantined
   snapshots. *)
let poison t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> ()
      | Some v ->
        if v.healthy > 0 then (
          v.healthy <- 0;
          v.generation <- v.generation + 1;
          t.stats.poisonings <- t.stats.poisonings + 1;
          Telemetry.Probe.count "snapshot.poisonings"))

(* --- plan lookups ------------------------------------------------------ *)

type plan_hit = {
  plan_start : Controller.start;
  suffix : Schedule.plan;
  matched : int;  (* plan events satisfied by the restored prefix *)
}

(* The longest prefix of the plan that coincides with the stored run
   under [key] (for Causality Analysis: the failure run being
   permuted), restored at its last captured healthy position.  Along
   such a prefix the plan policy matches every event immediately and
   resets its state at each match, so restoring the snapshot and
   enforcing only the remaining plan is bit-identical to a fresh run. *)
let find_plan t ~key (plan : Schedule.plan) : plan_hit option =
  if not (enabled t) then None
  else
    Telemetry.Probe.with_span ~cat:"snapshot" "snapshot.find" @@ fun () ->
    locked t (fun () ->
        match lookup t key with
        | None -> None
        | Some v ->
          let iids = executed_iids v in
          let rec matched k = function
            | ev :: rest
              when k < Array.length iids && Iid.equal iids.(k) ev ->
              matched (k + 1) rest
            | _ -> k
          in
          let p = last_within v (matched 0 plan.Schedule.events) in
          (* Poisoning (or the failure itself) refused the deepest
             matched position: fall back to the last healthy one. *)
          if p >= v.healthy then refuse_poisoned t;
          let p = min p (v.healthy - 1) in
          if p < 0 then None
          else (
            let s = raw v p in
            hit t s;
            Some
              { plan_start = start_of_snap s;
                suffix = Schedule.plan_drop plan s.steps;
                matched = s.steps }))
