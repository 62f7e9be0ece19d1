(* The traced run: per-layer figures, timed from outside.

   Each request of a pass is re-driven through the public stages of the
   pipeline on benchmark-owned VMs — [Slicer.slices] and
   [Diagnose.realize], the analysis passes, [Lifs.search],
   [Causality.analyze], [Chain.of_causality] — and its chain must equal
   the untraced request's chain.  The schedules those stages executed
   are then replayed one layer down at a time: through [Executor.run_*],
   through [Controller.run] on a freshly booted machine, and through
   [Engine.step] alone.  A layer's self time is its span minus the
   replay of the layer below.  Layers reachable only inside
   [Diagnose.diagnose] — the pool, the journal, the snapshot cache — are
   measured as on/off differences over the same requests.  Every time
   is a span of this file; counts come from result records and
   [Vm]/[Snapshots]/[Gc] accessors. *)

type acc = {
  mutable requests : int;
  (* spans of the re-drive, seconds *)
  mutable slice_s : float;
  mutable analysis_s : float;  (** Candidates + Absdom + static proofs *)
  mutable proof_s : float;  (** static proofs, re-timed outside CA *)
  mutable lifs_s : float;
  mutable causality_s : float;
  mutable chain_s : float;
  (* replays *)
  mutable exec_lifs_s : float;  (** as configured (cache on or off) *)
  mutable exec_flips_s : float;
  mutable exec_plain_s : float;  (** cache off *)
  mutable exec_cached_s : float;  (** cache on; 0 when the cache is off *)
  mutable controller_s : float;
  mutable engine_s : float;
  mutable engine_minor_words : float;
  mutable replayed_instrs : int;
  (* counts *)
  mutable instrs : int;
  mutable runs : int;
  mutable switches : int;
  mutable reboots : int;
  mutable sim_s : float;
  mutable hits : int;
  mutable misses : int;
  mutable restored : int;
  mutable cached_bytes : int;
  mutable lifs_schedules : int;
  mutable lifs_pruned : int;
  mutable flips_executed : int;
  mutable flips_pruned : int;
  mutable runs_avoided : int;
  mutable slices_tried : int;
  (* untraced requests and on/off differences *)
  mutable jobs1_s : float;  (** requests on one worker *)
  mutable jobs1_cpu : float;
  mutable pool_s : float;  (** the same requests on [pool_jobs] workers *)
  mutable pool_cpu : float;
  mutable journal_on_s : float;  (** the configured request, journal on *)
  mutable journal_off_s : float;
      (** the configured request, journal off: also the untraced
          counterpart of the re-drive *)
  mutable journal_bytes : int;
  mutable manifest_s : float;
  mutable minor_words : float;
  mutable major_words : float;
}

let zero () =
  { requests = 0; slice_s = 0.; analysis_s = 0.; proof_s = 0.; lifs_s = 0.;
    causality_s = 0.; chain_s = 0.; exec_lifs_s = 0.; exec_flips_s = 0.;
    exec_plain_s = 0.; exec_cached_s = 0.; controller_s = 0.; engine_s = 0.;
    engine_minor_words = 0.; replayed_instrs = 0; instrs = 0; runs = 0;
    switches = 0; reboots = 0; sim_s = 0.; hits = 0; misses = 0;
    restored = 0; cached_bytes = 0; lifs_schedules = 0; lifs_pruned = 0;
    flips_executed = 0; flips_pruned = 0; runs_avoided = 0; slices_tried = 0;
    jobs1_s = 0.; jobs1_cpu = 0.; pool_s = 0.; pool_cpu = 0.;
    journal_on_s = 0.; journal_off_s = 0.; journal_bytes = 0;
    manifest_s = 0.;
    minor_words = 0.; major_words = 0. }

(* --- replays one layer down --------------------------------------------- *)

let engine_replay kind group (o : Hypervisor.Controller.outcome) =
  ignore
    (List.fold_left
       (fun m (e : Ksim.Machine.event) ->
         match Ksim.Engine.step m e.iid.Ksim.Access.Iid.tid with
         | Ok (m, _) -> m
         | Error _ -> m)
       (Ksim.Engine.boot kind group)
       o.trace)

let count_vm acc vm =
  acc.runs <- acc.runs + Hypervisor.Vm.runs vm;
  acc.reboots <- acc.reboots + Hypervisor.Vm.failures vm;
  acc.sim_s <- acc.sim_s +. Hypervisor.Vm.simulated_seconds vm

let count_cache acc c =
  acc.hits <- acc.hits + Hypervisor.Snapshots.hits c;
  acc.misses <- acc.misses + Hypervisor.Snapshots.misses c;
  acc.restored <- acc.restored + Hypervisor.Snapshots.restored_instrs c;
  acc.cached_bytes <- acc.cached_bytes + Hypervisor.Snapshots.cached_bytes c

(* Replay the executed preemption runs and flip plans of one slice
   attempt through the executor (cache off and on), the controller and
   the engine.  The [snapshots.*] figures come from the cached replay,
   so they describe the cache on this workload's schedules whether or
   not the workload enables it. *)
let replay acc (k : Workload.knobs) group prologue ~key
    ~(lifs_runs :
       (Hypervisor.Schedule.preemption * Hypervisor.Controller.outcome) list)
    ~(flips : (Hypervisor.Schedule.plan * Hypervisor.Controller.outcome) list)
    =
  let engine = k.engine in
  let executor ?cache () =
    let vm = Hypervisor.Vm.create ~engine group in
    let (), t_lifs =
      Host.time (fun () ->
          List.iter
            (fun (s, _) ->
              ignore
                (Aitia.Executor.run_preemption ~prologue ?snapshots:cache vm
                   s))
            lifs_runs)
    in
    let (), t_flips =
      Host.time (fun () ->
          List.iter
            (fun (p, _) ->
              ignore
                (Aitia.Executor.run_plan ~prologue
                   ?snapshots:(Option.map (fun c -> (c, key)) cache)
                   vm p))
            flips)
    in
    (t_lifs, t_flips)
  in
  let p_lifs, p_flips = executor () in
  acc.exec_plain_s <- acc.exec_plain_s +. p_lifs +. p_flips;
  let cache = Hypervisor.Snapshots.create () in
  let c_lifs, c_flips = executor ~cache () in
  acc.exec_cached_s <- acc.exec_cached_s +. c_lifs +. c_flips;
  count_cache acc cache;
  let x_lifs, x_flips =
    if k.snapshot_cache then (c_lifs, c_flips) else (p_lifs, p_flips)
  in
  acc.exec_lifs_s <- acc.exec_lifs_s +. x_lifs;
  acc.exec_flips_s <- acc.exec_flips_s +. x_flips;
  let with_prologue = Aitia.Executor.with_prologue prologue in
  let (), t =
    Host.time (fun () ->
        List.iter
          (fun (s, _) ->
            ignore
              (Hypervisor.Controller.run
                 (Ksim.Engine.boot engine group)
                 (with_prologue (Hypervisor.Schedule.preemption_policy s))))
          lifs_runs;
        List.iter
          (fun (p, _) ->
            ignore
              (Hypervisor.Controller.run
                 (Ksim.Engine.boot engine group)
                 (with_prologue (Hypervisor.Schedule.plan_policy p))))
          flips)
  in
  acc.controller_s <- acc.controller_s +. t;
  let outcomes = List.map snd lifs_runs @ List.map snd flips in
  let w0 = Gc.minor_words () in
  let (), t =
    Host.time (fun () -> List.iter (engine_replay engine group) outcomes)
  in
  acc.engine_minor_words <-
    acc.engine_minor_words +. (Gc.minor_words () -. w0);
  acc.engine_s <- acc.engine_s +. t;
  List.iter
    (fun (o : Hypervisor.Controller.outcome) ->
      acc.replayed_instrs <- acc.replayed_instrs + List.length o.trace;
      acc.switches <-
        acc.switches + Hypervisor.Controller.context_switches o.trace)
    outcomes

(* The flip-feasibility and error-invariant proofs Causality Analysis
   runs on each race before executing its flip, re-timed outside it in
   the same order. *)
let static_proofs acc (k : Workload.knobs) group prologue
    (success : Aitia.Lifs.success) =
  match k.prune with
  | `None -> ()
  | `Flipfeas | `Invariants ->
    let trace = success.outcome.trace in
    let races = Aitia.Causality.test_order success.races in
    let plans = List.map (Aitia.Causality.flip_plan trace) races in
    let (), t =
      Host.time (fun () ->
          let engine =
            match k.prune with
            | `Invariants -> Some (Analysis.Invariants.create ~prologue group)
            | `None | `Flipfeas -> None
          in
          List.iter2
            (fun (r : Aitia.Race.t) (plan : Hypervisor.Schedule.plan) ->
              match
                Analysis.Flipfeas.prunable
                  (Analysis.Flipfeas.analyze ~trace ~plan:plan.events
                     ~first:r.first ~second:r.second)
              with
              | Some _ -> ()
              | None ->
                Option.iter
                  (fun e ->
                    ignore
                      (Analysis.Invariants.prune e ~key:(Aitia.Race.key r)
                         ~trace ~plan:plan.events
                         ~run_through_budget:plan.run_through_budget))
                  engine)
            races plans)
    in
    acc.proof_s <- acc.proof_s +. t;
    acc.analysis_s <- acc.analysis_s +. t

(* --- the re-drive ------------------------------------------------------- *)

(* [Diagnose.diagnose] stage by stage, without pool or journal:
   returns the rendered chain and the re-drive's own wall time (its
   stage spans, without the replays). *)
let redrive acc (k : Workload.knobs) ~max_interleavings
    (case : Aitia.Diagnose.case) : string option * float =
  let spent = ref 0. in
  let span f =
    let x, dt = Host.time f in
    spent := !spent +. dt;
    (x, dt)
  in
  let crash = Trace.History.crash case.history in
  let target = Trace.Crash.matches crash in
  let slices, dt = span (fun () -> Trace.Slicer.slices case.history) in
  acc.slice_s <- acc.slice_s +. dt;
  let rec attempt = function
    | [] -> None
    | slice :: rest -> (
      let realized, dt = span (fun () -> Aitia.Diagnose.realize case slice) in
      acc.slice_s <- acc.slice_s +. dt;
      match realized with
      | None -> attempt rest
      | Some (group, prologue) -> (
        acc.slices_tried <- acc.slices_tried + 1;
        let (hints, invariants), dt =
          span (fun () ->
              ( (if k.prune <> `None then
                   Some (Aitia.Diagnose.hints_of_group group prologue)
                 else None),
                match k.prune with
                | `Invariants -> Some (Analysis.Absdom.of_group group)
                | `None | `Flipfeas -> None ))
        in
        acc.analysis_s <- acc.analysis_s +. dt;
        let focus =
          Option.bind crash.Trace.Crash.location (fun label ->
              List.find_index
                (fun (spec : Ksim.Program.thread_spec) ->
                  List.mem label (Ksim.Program.labels spec.program))
                group.Ksim.Program.threads)
        in
        let snapshots =
          if k.snapshot_cache then Some (Hypervisor.Snapshots.create ())
          else None
        in
        let lifs_vm = Hypervisor.Vm.create ~engine:k.engine group in
        let lifs, dt =
          span (fun () ->
              Aitia.Lifs.search ?max_interleavings ~prologue
                ?static_hints:hints ?invariants ?focus ~order:k.order
                ?snapshots lifs_vm ~target ())
        in
        acc.lifs_s <- acc.lifs_s +. dt;
        count_vm acc lifs_vm;
        let st = lifs.stats in
        acc.lifs_schedules <- acc.lifs_schedules + st.schedules;
        acc.lifs_pruned <- acc.lifs_pruned + st.pruned;
        acc.runs_avoided <-
          acc.runs_avoided + st.static_pruned + st.invariant_pruned;
        acc.instrs <- acc.instrs + st.executed_instrs;
        match lifs.found with
        | None ->
          replay acc k group prologue ~key:"" ~lifs_runs:lifs.runs ~flips:[];
          attempt rest
        | Some success ->
          let key = Hypervisor.Schedule.preemption_key success.schedule in
          let ca_vm = Hypervisor.Vm.create ~engine:k.engine group in
          let ca, dt =
            span (fun () ->
                Aitia.Causality.analyze ~prologue ~prune:k.prune
                  ~order:k.order
                  ?snapshots:(Option.map (fun c -> (c, key)) snapshots)
                  ca_vm ~failing:success.outcome ~races:success.races ())
          in
          acc.causality_s <- acc.causality_s +. dt;
          count_vm acc ca_vm;
          let cs = ca.stats in
          acc.instrs <- acc.instrs + cs.executed_instrs;
          acc.flips_pruned <-
            acc.flips_pruned + cs.flips_statically_pruned
            + cs.flips_invariant_pruned;
          acc.runs_avoided <-
            acc.runs_avoided + cs.flips_statically_pruned
            + cs.flips_invariant_pruned;
          let chain, dt =
            span (fun () ->
                Aitia.Chain.to_string
                  (Aitia.Chain.of_causality ca ~failure:success.failure))
          in
          acc.chain_s <- acc.chain_s +. dt;
          static_proofs acc k group prologue success;
          let flips =
            List.filter_map
              (fun (t : Aitia.Causality.tested) ->
                Option.map
                  (fun o ->
                    ( Aitia.Causality.flip_plan success.outcome.trace t.race,
                      o ))
                  t.flip_outcome)
              ca.tested
          in
          acc.flips_executed <- acc.flips_executed + List.length flips;
          replay acc k group prologue ~key ~lifs_runs:lifs.runs ~flips;
          Some chain))
  in
  let chain = attempt slices in
  (chain, !spent)

(* --- one pass ----------------------------------------------------------- *)

(* An untraced request, with its wall and CPU time and allocation. *)
let measured f =
  let g0 = Gc.quick_stat () and c0 = Host.cpu () in
  let o, wall = Host.time f in
  let g1 = Gc.quick_stat () in
  (o, wall, Host.cpu () -. c0, g1.minor_words -. g0.minor_words,
   g1.major_words -. g0.major_words)

(* Workers of the pool side of [pool.speedup]: the configured request
   on one worker against the same request on two. *)
let pool_jobs = 2

type req = {
  key : string;
  max_interleavings : int option;
  case : unit -> Aitia.Diagnose.case;
  manifest : string;  (** the request as an [aitia batch] manifest entry *)
  request : jobs:int -> journal_dir:string option -> Workload.outcome;
      (** the untraced request on [jobs] workers, journaling into
          [<journal_dir>/<key>.journal.json]; every other knob pinned *)
}

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* One request of a pass: the configured untraced request, the same
   request with the worker count and the journal toggled, then the
   re-drive.  Returns whether every check held, and the re-drive's wall
   time. *)
let one acc (k : Workload.knobs) ~dir ~expected (r : req) =
  acc.requests <- acc.requests + 1;
  let journal_dir = if k.journal then Some dir else None in
  let o, wall, cpu, minor, major =
    measured (fun () -> r.request ~jobs:k.jobs ~journal_dir)
  in
  acc.minor_words <- acc.minor_words +. minor;
  acc.major_words <- acc.major_words +. major;
  let _, t =
    Host.time (fun () ->
        Aitia.Batch.manifest_of_string ("[" ^ r.manifest ^ "]"))
  in
  acc.manifest_s <- acc.manifest_s +. t;
  let other_jobs = if k.jobs = 1 then pool_jobs else 1 in
  let _, w, c, _, _ =
    measured (fun () -> r.request ~jobs:other_jobs ~journal_dir)
  in
  let (w1, c1), (wn, cn) =
    if k.jobs = 1 then ((wall, cpu), (w, c)) else ((w, c), (wall, cpu))
  in
  acc.jobs1_s <- acc.jobs1_s +. w1;
  acc.jobs1_cpu <- acc.jobs1_cpu +. c1;
  acc.pool_s <- acc.pool_s +. wn;
  acc.pool_cpu <- acc.pool_cpu +. cn;
  let other_dir = if k.journal then None else Some dir in
  let _, t =
    Host.time (fun () -> r.request ~jobs:k.jobs ~journal_dir:other_dir)
  in
  let on, off = if k.journal then (wall, t) else (t, wall) in
  acc.journal_on_s <- acc.journal_on_s +. on;
  acc.journal_off_s <- acc.journal_off_s +. off;
  acc.journal_bytes <-
    acc.journal_bytes
    + file_size (Filename.concat dir (r.key ^ ".journal.json"));
  let chain, spent =
    redrive acc k ~max_interleavings:r.max_interleavings (r.case ())
  in
  let traced_ok = chain = o.chain && (chain <> None) = (o.exit = 0) in
  let expected_ok = o.exit < 2 && Hashtbl.find_opt expected r.key = Some o in
  if not (traced_ok && expected_ok) then
    Fmt.pr "FAILED %s: exit %d chain %s, traced chain %s@." r.key o.exit
      (Option.value ~default:"-" o.chain)
      (Option.value ~default:"-" chain);
  (traced_ok && expected_ok, spent)

(* --- metrics ------------------------------------------------------------ *)

let metrics acc ~passes ~traced_s =
  let per x = x /. float_of_int passes in
  let peri x = per (float_of_int x) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let ksim_s = acc.engine_s in
  let controller_self = acc.controller_s -. ksim_s in
  let executor_self = acc.exec_plain_s -. acc.controller_s in
  let lifs_self = acc.lifs_s -. acc.exec_lifs_s in
  let causality_self = acc.causality_s -. acc.exec_flips_s -. acc.proof_s in
  let m = Output.m in
  [ m "ksim.instrs" "count" (peri acc.instrs);
    m "ksim.instrs_per_s" "1/s"
      (ratio (float_of_int acc.replayed_instrs) ksim_s);
    m "ksim.minor_words_per_instr" "words"
      (ratio acc.engine_minor_words (float_of_int acc.replayed_instrs));
    m "controller.runs" "count" (peri acc.runs);
    m "controller.switches" "count" (peri acc.switches);
    m "controller.self_s" "s" (per controller_self);
    m "controller.self_ns_per_instr" "ns"
      (ratio (1e9 *. controller_self) (float_of_int acc.replayed_instrs));
    m "vm.reboots" "count" (peri acc.reboots);
    m "vm.sim_s" "sim_s" (per acc.sim_s);
    m "snapshots.hit_ratio" "ratio"
      (ratio (float_of_int acc.hits) (float_of_int (acc.hits + acc.misses)));
    m "snapshots.restored_instrs" "count" (peri acc.restored);
    m "snapshots.cached_mb" "MB"
      (per (float_of_int acc.cached_bytes /. 1048576.));
    m "snapshots.net_s" "s" (per (acc.exec_cached_s -. acc.exec_plain_s));
    m "pool.speedup" "x" (ratio acc.jobs1_s acc.pool_s);
    m "pool.cpu_overhead" "ratio" (ratio acc.pool_cpu acc.jobs1_cpu -. 1.);
    m "executor.self_s" "s" (per executor_self);
    m "lifs.schedules" "count" (peri acc.lifs_schedules);
    m "lifs.pruned" "count" (peri acc.lifs_pruned);
    m "lifs.self_s" "s" (per lifs_self);
    m "causality.flips_executed" "count" (peri acc.flips_executed);
    m "causality.flips_pruned" "count" (peri acc.flips_pruned);
    m "causality.self_s" "s" (per causality_self);
    m "analysis.s" "s" (per acc.analysis_s);
    m "analysis.runs_avoided" "count" (peri acc.runs_avoided);
    m "analysis.ms_per_run_avoided" "ms"
      (1000. *. acc.analysis_s /. float_of_int (max 1 acc.runs_avoided));
    m "trace.slice_s" "s" (per acc.slice_s);
    m "trace.slices_tried" "count" (peri acc.slices_tried);
    m "journal.bytes" "B" (peri acc.journal_bytes);
    m "journal.s" "s" (per (acc.journal_on_s -. acc.journal_off_s));
    m "batch.manifest_s" "s" (per acc.manifest_s);
    m "gc.minor_words" "words" (per acc.minor_words);
    m "gc.major_words" "words" (per acc.major_words);
    m "gc.top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.);
    m "tracing.overhead" "ratio" (ratio traced_s acc.journal_off_s -. 1.) ]

(* --- the traced run ----------------------------------------------------- *)

let run (w : Workload.t) ~seed ~seconds ~golden : int =
  let k = Workload.knobs w in
  Fmt.pr "traced workload %s seed %d: %a@." (Workload.name w) seed
    Workload.pp_knobs k;
  let dir = E2e.fresh_dir (Workload.name w ^ "-traced") in
  let reqs, expected, golden_ok =
    match w with
    | Workload.Corpus | Workload.Corpus_pruned ->
      let p = E2e.corpus_setup ~golden k in
      let reqs =
        List.map
          (fun (bug : Bugs.Bug.t) ->
            { key = bug.id; max_interleavings = bug.max_interleavings;
              case = bug.case;
              manifest = Triage.manifest_entry k ~id:bug.id ~bug:bug.id;
              request =
                (fun ~jobs ~journal_dir ->
                  let journal =
                    Option.map
                      (fun d ->
                        Aitia.Journal.create
                          (Filename.concat d (bug.id ^ ".journal.json")))
                      journal_dir
                  in
                  Workload.diagnose_bug ?journal { k with jobs } bug) })
          Bugs.Registry.all
      in
      (reqs, p.expected_golden, p.golden_errors = [])
    | Workload.Triage ->
      (* One input per bug: the first crash its campaigns produced. *)
      let inputs = Triage.generate ~seed () in
      Fmt.pr "triage inputs: %d generated, digest %s@." (List.length inputs)
        (Triage.digest inputs);
      let firsts =
        List.filter_map
          (fun (bug : Bugs.Bug.t) ->
            List.find_opt
              (fun (i : Triage.input) -> String.equal i.bug.id bug.id)
              inputs)
          Bugs.Registry.all
      in
      let reqs =
        List.map
          (fun (i : Triage.input) ->
            { key = i.in_id; max_interleavings = i.bug.max_interleavings;
              case = (fun () -> i.case);
              manifest = Triage.manifest_entry k ~id:i.in_id ~bug:i.bug.id;
              request =
                (fun ~jobs ~journal_dir ->
                  Triage.request ?journal_dir { k with jobs } i) })
          firsts
      in
      (reqs, Triage.reference k firsts, true)
  in
  let acc = zero () in
  let passes = ref 0 and failed = ref 0 and traced_s = ref 0. in
  let t0 = Host.now () in
  while !passes = 0 || Host.now () -. t0 < seconds do
    List.iter
      (fun r ->
        let ok, spent = one acc k ~dir ~expected r in
        if not ok then incr failed;
        traced_s := !traced_s +. spent)
      reqs;
    incr passes
  done;
  E2e.cleanup_dir dir;
  Fmt.pr "passes: %d of %d requests in %.2f s; %d failed@." !passes
    (List.length reqs) (Host.now () -. t0) !failed;
  let metrics = metrics acc ~passes:!passes ~traced_s:!traced_s in
  List.iter
    (fun (x : Output.metric) ->
      Fmt.pr "  %-32s %14.6g %s@." x.name x.value x.unit_)
    metrics;
  print_endline
    (Output.result_line
       ~correct:(!failed = 0 && golden_ok)
       ~attempted:acc.requests ~failed:!failed metrics);
  0
