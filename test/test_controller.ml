(* Run-to-switch execution: the controller consults its policy only at
   breakpoints, and a compiled-engine restore clones its snapshot once.

   - Equivalence: on generated programs under random preemption and
     plan schedules, the breakpoint loop and a run forced to one
     decision per step ([Controller.one_step]) give identical traces,
     verdicts, step counts, final fingerprints and — for preemption
     schedules — identical captured [(queue, pending)] policy dumps at
     every step, on both engines.  Schedules cover spawns, locks,
     prologue threads, triggers that fire out of order or never, and
     step-limit cut-offs; a coverage case asserts each was exercised.
   - Restores: a resumed run from a frozen position clones exactly
     once, queries on a frozen arena's tip clone never, and a sealed
     final answers every query exactly as an unsealed one while every
     surviving handle into the run's arena (captured positions, the
     caller's boot handle) stays valid.
   - Counters: [vm.boots + vm.snapshot_restores = vm.runs] with the
     snapshot cache on and off, and decisions stay below instructions.

   QCHECK_SEED fixes the generator seed; QCHECK_LONG multiplies the
   iteration count. *)

open Ksim.Program.Build
module Engine = Ksim.Engine
module Machine = Ksim.Machine
module Iid = Ksim.Access.Iid
module Controller = Hypervisor.Controller
module Schedule = Hypervisor.Schedule

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let engines = [ Engine.Reference; Engine.Compiled ]

(* --- schedule generation ----------------------------------------------- *)

(* A seeded random run supplies the iids schedules are built from, so
   triggers name instructions that really execute (in some order). *)
let random_trace group st =
  let pick _ runnable =
    Some (List.nth runnable (Random.State.int st (List.length runnable)))
  in
  (Controller.run ~max_steps:400
     (Engine.boot Engine.Reference group)
     (Controller.stepwise pick))
    .trace

let shuffle st l =
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort compare |> List.map snd

type case = {
  sched : Schedule.preemption;
  plan : Schedule.plan;
  prologue : int list;
  max_steps : int;
}

let pp_case ppf c =
  Fmt.pf ppf "%a@.plan=%a budget=%d@.prologue=[%a] max_steps=%d"
    Schedule.pp_preemption c.sched Schedule.pp_plan c.plan
    c.plan.run_through_budget
    (Fmt.list ~sep:Fmt.comma Fmt.int) c.prologue c.max_steps

let derive group seed =
  let st = Random.State.make [| seed |] in
  let trace = Array.of_list (random_trace group st) in
  let n = Array.length trace in
  let top = List.length group.Ksim.Program.threads in
  let iid k = trace.(k).Ksim.Machine.iid in
  (* A trigger that never fires: an occurrence far past any loop, or a
     thread that never exists. *)
  let never () =
    if n > 0 && Random.State.bool st then
      let i = iid (Random.State.int st n) in
      { i with Iid.occ = i.Iid.occ + 50 }
    else Iid.make ~tid:(top + 5) ~label:"nowhere" ~occ:1
  in
  let switch () =
    let after =
      if n = 0 || Random.State.int st 5 = 0 then never ()
      else iid (Random.State.int st n)
    in
    (* Switch targets are top-level threads, which always exist, as in
       the schedules LIFS builds. *)
    { Schedule.after; switch_to = Random.State.int st top }
  in
  let sched =
    { Schedule.order = shuffle st (List.init top Fun.id);
      switches = List.init (Random.State.int st 5) (fun _ -> switch ()) }
  in
  let prologue =
    if Random.State.int st 3 = 0 then [ Random.State.int st top ] else []
  in
  let max_steps =
    if Random.State.int st 4 = 0 then 1 + Random.State.int st 40
    else Controller.default_max_steps
  in
  (* Plans: the random run's order, perturbed by swaps, drops and a
     never-executing event, under a budget small enough to run out. *)
  let events = Array.map (fun (e : Ksim.Machine.event) -> e.iid) trace in
  for _ = 1 to Random.State.int st 4 do
    if n > 1 then (
      let a = Random.State.int st n and b = Random.State.int st n in
      let t = events.(a) in
      events.(a) <- events.(b);
      events.(b) <- t)
  done;
  let events =
    Array.to_list events
    |> List.filter (fun _ -> Random.State.int st 10 > 0)
    |> fun l -> if Random.State.bool st then l @ [ never () ] else l
  in
  let budget = List.nth [ 0; 1; 2; 3; 2_000 ] (Random.State.int st 5) in
  { sched; plan = Schedule.plan ~run_through_budget:budget events; prologue;
    max_steps }

(* --- coverage ----------------------------------------------------------- *)

let covered = Hashtbl.create 8
let cover what = Hashtbl.replace covered what ()

let note_coverage c (o : Controller.outcome) =
  if List.exists (fun (e : Ksim.Machine.event) -> e.spawned <> []) o.trace
  then cover "spawn";
  if List.exists (fun (e : Ksim.Machine.event) -> e.lock_op <> None) o.trace
  then cover "lock";
  if c.prologue <> [] then cover "prologue";
  if o.verdict = Controller.Step_limit then cover "step limit";
  let index_of (i : Iid.t) =
    let rec go k = function
      | [] -> None
      | (e : Ksim.Machine.event) :: rest ->
        if Iid.equal e.iid i then Some k else go (k + 1) rest
    in
    go 0 o.trace
  in
  let fired =
    List.map (fun (s : Schedule.switch) -> index_of s.after) c.sched.switches
  in
  if List.mem None fired then cover "never-firing trigger";
  let rec out_of_order = function
    | Some a :: (Some b :: _ as rest) -> a > b || out_of_order rest
    | _ :: rest -> out_of_order rest
    | [] -> false
  in
  if out_of_order fired then cover "out-of-order triggers"

(* --- equivalence -------------------------------------------------------- *)

type result = {
  verdict : Controller.verdict;
  trace : Ksim.Machine.event list;
  steps : int;
  fingerprint : string;
  dumps : (int * (int list * Schedule.switch list)) list;
}

let result_of ?(dumps = []) (o : Controller.outcome) =
  { verdict = o.verdict; trace = o.trace; steps = o.steps;
    fingerprint = Engine.fingerprint o.final; dumps }

(* One preemption run: the breakpoint loop or one decision per step,
   with the policy's state dumped after every step (an observer) or not
   (the final machine is then sealed). *)
let run_preemption engine group c ~per_step ~observed =
  let policy, dump = Schedule.preemption_policy_tracked c.sched in
  let policy = Schedule.with_prologue c.prologue policy in
  let policy = if per_step then Controller.one_step policy else policy in
  let dumps = ref [] in
  let observe =
    if observed then
      Some (fun _ _ steps -> dumps := (steps, dump ()) :: !dumps)
    else None
  in
  let o =
    Controller.run ~max_steps:c.max_steps ?observe (Engine.boot engine group)
      policy
  in
  (o, result_of ~dumps:(List.rev !dumps) o)

let run_plan engine group c ~per_step =
  let policy =
    Schedule.with_prologue c.prologue (Schedule.plan_policy c.plan)
  in
  let policy = if per_step then Controller.one_step policy else policy in
  result_of
    (Controller.run ~max_steps:c.max_steps (Engine.boot engine group) policy)

let describe what a b =
  if a.verdict <> b.verdict then what ^ ": verdicts differ"
  else if a.steps <> b.steps then
    Fmt.str "%s: steps %d vs %d" what a.steps b.steps
  else if a.trace <> b.trace then what ^ ": traces differ"
  else if a.fingerprint <> b.fingerprint then what ^ ": fingerprints differ"
  else if a.dumps <> b.dumps then what ^ ": policy dumps differ"
  else ""

let arb_case =
  QCheck.make
    ~print:(fun (g, seed) ->
      Fmt.str "%a@.%s" pp_case (derive g seed) (Oracle_gen.render_group g))
    QCheck.Gen.(pair Oracle_gen.gen_engine_group (int_range 0 1_000_000))

let prop_preemption =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"preemption: breakpoint loop == one decision per step" arb_case
    (fun (group, seed) ->
      let c = derive group seed in
      List.for_all
        (fun engine ->
          let what = Engine.to_string engine in
          let o, held =
            run_preemption engine group c ~per_step:false ~observed:true
          in
          let _, stepped =
            run_preemption engine group c ~per_step:true ~observed:true
          in
          let _, sealed =
            run_preemption engine group c ~per_step:false ~observed:false
          in
          note_coverage c o;
          let diff = describe what held stepped in
          let diff =
            if diff <> "" then diff
            else describe (what ^ " sealed") { held with dumps = [] } sealed
          in
          diff = "" || QCheck.Test.fail_report diff)
        engines)

let prop_plan =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"plan: breakpoint loop == one decision per step" arb_case
    (fun (group, seed) ->
      let c = derive group seed in
      List.for_all
        (fun engine ->
          let diff =
            describe (Engine.to_string engine)
              (run_plan engine group c ~per_step:false)
              (run_plan engine group c ~per_step:true)
          in
          diff = "" || QCheck.Test.fail_report diff)
        engines)

let test_coverage () =
  List.iter
    (fun what -> checkb what true (Hashtbl.mem covered what))
    [ "spawn"; "lock"; "prologue"; "step limit"; "never-firing trigger";
      "out-of-order triggers" ]

(* --- restores and sealing ----------------------------------------------- *)

let group () =
  Ksim.Program.group ~name:"restore"
    ~globals:[ ("g0", Ksim.Value.Int 0); ("g1", Ksim.Value.Int 0) ]
    [ { Ksim.Program.spec_name = "A";
        context = Ksim.Program.Syscall { call = "A"; sysno = 0 };
        program =
          Ksim.Program.make ~name:"A"
            [ store "a1" (g "g0") (cint 1);
              alloc ~fields:[ ("val", cint 7) ] "a2" "p" "obj";
              store "a3" (g "g1") (reg "p");
              load "a4" "r" (g "g0");
              nop "a5" ];
        resources = [] };
      { Ksim.Program.spec_name = "B";
        context = Ksim.Program.Syscall { call = "B"; sysno = 0 };
        program =
          Ksim.Program.make ~name:"B"
            [ load "b1" "q" (g "g1");
              store "b2" (g "g0") (cint 2);
              nop "b3" ];
        resources = [] } ]

let serial () = Schedule.preemption_policy (Schedule.serial [ 0; 1 ])

let rec step_n m tid n =
  if n = 0 then m
  else
    match Engine.step m tid with
    | Ok (m, _) -> step_n m tid (n - 1)
    | Error _ -> Alcotest.fail "unexpected step error"

let clones_during f =
  let before = Machine.clones () in
  let x = f () in
  (x, Machine.clones () - before)

(* Every inspection query, rendered: two machines answering all of them
   identically render identically. *)
let inspect m =
  let tids = Machine.thread_ids m in
  Fmt.str "%s|%a|%b|%d|%d|%a|%a"
    (Engine.fingerprint m)
    (Fmt.list ~sep:Fmt.comma Fmt.int) (Machine.runnable m)
    (Machine.all_done m) (Machine.clock m) (Machine.live_objects m)
    (Fmt.list ~sep:Fmt.semi (fun ppf tid ->
         Fmt.pf ppf "%d:%b:%b:%a:%a:%d:%a" tid (Machine.is_done m tid)
           (Machine.has_started m tid)
           Fmt.(option string) (Machine.next_label m tid)
           Fmt.(option string) (Machine.blocked_on m tid)
           (Machine.occurrences m tid "a1")
           Fmt.(option Ksim.Value.pp) (Machine.reg m tid "r")))
    tids
    (Fmt.list ~sep:Fmt.comma Ksim.Value.pp)
    [ Machine.mem_read m (Ksim.Addr.Global "g0");
      Machine.mem_read m (Ksim.Addr.Global "g1") ]

let test_resume_clones_once () =
  let grp = group () in
  let m = step_n (Engine.boot Engine.Compiled grp) 0 3 in
  (* A frozen mid-run position whose arena tip has moved on, as in the
     snapshot cache: the restore must rewind. *)
  ignore (step_n m 0 1);
  ignore (Engine.snapshot m);
  let m2 = step_n (Engine.boot Engine.Compiled grp) 0 3 in
  let start =
    { Controller.start_machine = m; start_trace_rev = []; start_steps = 3 }
  in
  let o, clones =
    clones_during (fun () -> Controller.resume start (serial ()))
  in
  checki "one clone per resume" 1 clones;
  let fresh = Controller.run m2 (serial ()) in
  checks "resumed == fresh" (inspect fresh.final) (inspect o.final)

let test_frozen_tip_queries () =
  let m = step_n (Engine.boot Engine.Compiled (group ())) 0 4 in
  ignore (Engine.snapshot m);
  let _, clones = clones_during (fun () -> ignore (inspect m)) in
  checki "queries on a frozen tip clone nothing" 0 clones;
  let _, clones = clones_during (fun () -> ignore (Machine.check_leaks m)) in
  checki "leak check on a frozen tip clones nothing" 0 clones;
  (* Below the tip a query still needs a rewound copy. *)
  let below = step_n (Engine.boot Engine.Compiled (group ())) 0 2 in
  ignore (step_n below 0 2);
  let _, clones =
    clones_during (fun () -> ignore (Machine.runnable below))
  in
  checki "a query below the tip clones once" 1 clones

(* Replay the first [n] events of a trace on a fresh compiled machine,
   stepping the engine directly: an unsealed tip at that position. *)
let replay grp (trace : Ksim.Machine.event list) n =
  List.filteri (fun i _ -> i < n) trace
  |> List.fold_left
       (fun m (e : Ksim.Machine.event) -> step_n m e.iid.Iid.tid 1)
       (Engine.boot Engine.Compiled grp)

let test_sealed_final () =
  let grp = group () in
  let boot = Engine.boot Engine.Compiled grp in
  let boot_view = inspect boot in
  let captured = ref [] in
  let observed =
    Controller.run
      ~observe:(fun m _ steps -> captured := (steps, m) :: !captured)
      (Engine.boot Engine.Compiled grp) (serial ())
  in
  let unsealed = replay grp observed.trace observed.steps in
  checkb "an unsealed tip has an undo log" true
    (Machine.undo_entries unsealed > 0);
  checki "a finished run's final keeps no undo log" 0
    (Machine.undo_entries observed.final);
  checks "sealed final answers every query as the unsealed one"
    (inspect unsealed) (inspect observed.final);
  (* The log survives for the handles still pointing into the run's
     arena: every captured position still reads its own state. *)
  List.iter
    (fun (steps, m) ->
      checks
        (Fmt.str "captured position %d intact" steps)
        (inspect (replay grp observed.trace steps))
        (inspect m))
    !captured;
  (* So does the caller's boot handle of an unobserved run. *)
  let sealed = Controller.run boot (serial ()) in
  checks "boot handle still reads the boot state" boot_view (inspect boot);
  let again = Controller.run boot (serial ()) in
  checks "boot handle still runs" (inspect sealed.final)
    (inspect again.final);
  (* Stepping a sealed machine clones first and leaves it untouched. *)
  let before = inspect sealed.final in
  ignore (Machine.check_leaks sealed.final);
  (match Machine.runnable sealed.final with
  | [] -> ()
  | tid :: _ -> ignore (Engine.step sealed.final tid));
  checks "sealed final unchanged" before (inspect sealed.final);
  (* Sealing a handle that is not its arena's live tip is the identity. *)
  match !captured with
  | _ :: (_, older) :: _ ->
    let undo = Machine.undo_entries older in
    checkb "non-tip handle not sealed" true
      (undo > 0 && Machine.undo_entries (Engine.seal older) = undo)
  | _ -> Alcotest.fail "expected captured positions"

(* --- counters ----------------------------------------------------------- *)

let test_counters () =
  List.iter
    (fun snapshot_cache ->
      let r = Telemetry.Recorder.create () in
      ignore
        (Telemetry.Probe.with_sink (Telemetry.Recorder.sink r) (fun () ->
             Aitia.Diagnose.diagnose ~snapshot_cache
               (Bugs.Fig5_search.bug.case ())));
      let c = Telemetry.Recorder.counter r in
      let mode = if snapshot_cache then "cache on" else "cache off" in
      checki (mode ^ ": boots + restores = runs") (c "vm.runs")
        (c "vm.boots" + c "vm.snapshot_restores");
      checki (mode ^ ": restores = resumes") (c "vm.resumes")
        (c "vm.snapshot_restores");
      checkb (mode ^ ": resumes only with the cache") snapshot_cache
        (c "vm.resumes" > 0);
      checkb (mode ^ ": fewer decisions than instructions") true
        (c "controller.decisions" < c "controller.instructions"))
    [ false; true ]

let () =
  Alcotest.run "controller"
    [ ( "run-to-switch",
        [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_preemption;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_plan;
          Alcotest.test_case "schedule coverage" `Quick test_coverage ] );
      ( "restore",
        [ Alcotest.test_case "resume clones once" `Quick
            test_resume_clones_once;
          Alcotest.test_case "frozen tip queries clone nothing" `Quick
            test_frozen_tip_queries;
          Alcotest.test_case "sealed final" `Quick test_sealed_final ] );
      ( "counters",
        [ Alcotest.test_case "vm and controller" `Quick test_counters ] ) ]
