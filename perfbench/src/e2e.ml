(* The untraced run: set-up, the closed loop, verification and the six
   end-to-end metrics. *)

type item = {
  key : string;  (** what the expected outcome is looked up by *)
  label : string;  (** the latency block the request belongs to: its bug *)
  run : unit -> Workload.outcome;
}

type sample = {
  item : item;
  latency : float;  (** nominal-host seconds (see [closed_loop]) *)
  raw_latency : float;  (** wall seconds as measured *)
  outcome : Workload.outcome;
}

(* --- set-up ------------------------------------------------------------ *)

type prepared = {
  items : item array;
  golden_errors : (string * string) list;
      (** corpus bugs whose golden row is missing or contradicts the
          bug's expectation: every request of theirs fails *)
  expected_golden : (string, Workload.outcome) Hashtbl.t;
  warm : item;  (** the request set-up runs once before timing *)
}

let corpus_setup ~golden (k : Workload.knobs) : prepared =
  let rows = match Golden.load golden with Ok r -> r | Error _ -> [] in
  let expected_golden, golden_errors = Golden.check rows in
  let item_of (bug : Bugs.Bug.t) =
    { key = bug.id; label = bug.id;
      run = (fun () -> Workload.diagnose_bug k bug) }
  in
  let items = Array.of_list (List.map item_of Bugs.Registry.all) in
  { items; golden_errors; expected_golden; warm = items.(0) }

(* The warm-up request is the first registry bug's own history, not a
   generated input, so set-up does the same work for every seed. *)
let triage_warm () = Triage.of_bug (List.hd Bugs.Registry.all)

let triage_setup ?journal_dir (k : Workload.knobs)
    (inputs : Triage.input list) : prepared =
  let item_of (i : Triage.input) =
    { key = i.in_id; label = Triage.label i;
      run = (fun () -> Triage.request ?journal_dir k i) }
  in
  let items = Array.of_list (List.map item_of inputs) in
  { items; golden_errors = []; expected_golden = Hashtbl.create 1;
    warm = item_of (triage_warm ()) }

(* --- the closed loop ---------------------------------------------------- *)

type loop = {
  samples : sample list;  (** request order *)
  wall : float;  (** timed nominal-host seconds: the sum of latencies *)
  cpu : float;  (** nominal-host CPU seconds *)
  raw_wall : float;  (** the same spans in wall seconds *)
  raw_cpu : float;
  rounds : int;
  probes : float list;  (** host probe after each segment *)
}

(* Timed work between two host probes. *)
let probe_every = 1.0

(* One client, one request at a time, in whole rounds: every item once
   per round in a fresh seeded shuffle, until [seconds] of timed wall
   time have passed.

   The host probe runs off the clock at the start and then whenever
   [probe_every] seconds of timed work have passed since the last one.
   Each request's latency and each segment's CPU time are scaled to
   the nominal host by the mean of the two probes around its segment,
   so a host phase that slows the program and the probe alike does not
   move the metrics, while a change to the program does. *)
let closed_loop ~seconds ~rng (items : item array) : loop =
  let samples = ref [] and probes = ref [] and rounds = ref 0 in
  let wall = ref 0. and cpu = ref 0. and raw_wall = ref 0.
  and raw_cpu = ref 0. in
  let before = ref (Host.probe ()) in
  let segment = ref [] and seg_wall = ref 0. in
  let seg_cpu0 = ref (Host.cpu ()) in
  let close_segment () =
    let seg_cpu = Host.cpu () -. !seg_cpu0 in
    let after = Host.probe () in
    let f = Host.nominal_factor ~before:!before ~after in
    List.iter
      (fun (item, raw_latency, outcome) ->
        samples :=
          { item; latency = raw_latency *. f; raw_latency; outcome }
          :: !samples)
      (List.rev !segment);
    wall := !wall +. (!seg_wall *. f);
    cpu := !cpu +. (seg_cpu *. f);
    raw_wall := !raw_wall +. !seg_wall;
    raw_cpu := !raw_cpu +. seg_cpu;
    probes := after :: !probes;
    before := after;
    segment := [];
    seg_wall := 0.;
    seg_cpu0 := Host.cpu ()
  in
  while !raw_wall +. !seg_wall < seconds do
    let order = Array.copy items in
    Rng.shuffle rng order;
    Array.iter
      (fun item ->
        let outcome, latency = Host.time item.run in
        segment := (item, latency, outcome) :: !segment;
        seg_wall := !seg_wall +. latency;
        if !seg_wall >= probe_every then close_segment ())
      order;
    incr rounds
  done;
  if !segment <> [] then close_segment ();
  { samples = List.rev !samples; wall = !wall; cpu = !cpu;
    raw_wall = !raw_wall; raw_cpu = !raw_cpu; rounds = !rounds;
    probes = List.rev !probes }

(* A request passes when it neither erred nor degraded (exit 2 or 3)
   and its outcome equals the expected one. *)
let passes expected s =
  s.outcome.exit < 2
  && Hashtbl.find_opt expected s.item.key = Some s.outcome

(* --- one run ------------------------------------------------------------ *)

let setup_reps = 101

let journal_root = ".perfbench_tmp"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat journal_root (Fmt.str "%s-%d" name (Unix.getpid ()))
  in
  remove_tree dir;
  if not (Sys.file_exists journal_root) then Sys.mkdir journal_root 0o755;
  Sys.mkdir dir 0o755;
  dir

let cleanup_dir dir =
  remove_tree dir;
  try Sys.rmdir journal_root with Sys_error _ -> ()

let spread xs =
  let lo = List.fold_left Float.min Float.infinity xs
  and hi = List.fold_left Float.max Float.neg_infinity xs in
  (lo, Stats.median xs, hi)

let pp_spread unit_scale ppf xs =
  let lo, mid, hi = spread xs in
  Fmt.pf ppf "min %.4g median %.4g max %.4g (n %d)" (lo *. unit_scale)
    (mid *. unit_scale) (hi *. unit_scale) (List.length xs)

let run (w : Workload.t) ~seed ~seconds ~golden : int =
  let k = Workload.knobs w in
  Fmt.pr "workload %s seed %d: %a@." (Workload.name w) seed Workload.pp_knobs
    k;
  (* Input generation is not set-up: a triage queue arrives from the
     fuzzer. *)
  let inputs =
    match w with
    | Workload.Triage ->
      let (inputs : Triage.input list), gen_s =
        Host.time (fun () -> Triage.generate ~seed ())
      in
      Fmt.pr "triage inputs: %d generated in %.2f s, digest %s@."
        (List.length inputs) gen_s (Triage.digest inputs);
      inputs
    | Workload.Corpus | Workload.Corpus_pruned -> []
  in
  let journal_dir =
    if k.journal then Some (fresh_dir (Workload.name w)) else None
  in
  let setup () =
    let p =
      match w with
      | Workload.Triage -> triage_setup ?journal_dir k inputs
      | Workload.Corpus | Workload.Corpus_pruned -> corpus_setup ~golden k
    in
    let warm =
      { item = p.warm; latency = 0.; raw_latency = 0.;
        outcome = p.warm.run () }
    in
    (p, warm)
  in
  (* Input generation's garbage is not set-up's to collect. *)
  Gc.full_major ();
  let before = Host.probe () in
  let reps = List.init setup_reps (fun _ -> Host.time setup) in
  let after = Host.probe () in
  let p, warm = fst (List.nth reps (setup_reps - 1)) in
  let raw_setup_s = Stats.median (List.map snd reps) in
  let setup_s = raw_setup_s *. Host.nominal_factor ~before ~after in
  let rss_before_loop = Host.peak_rss_mb () in
  let loop = closed_loop ~seconds ~rng:(Rng.make seed) p.items in
  let peak_rss_mb = Host.peak_rss_mb () in
  (* Verification, off the clock. *)
  let expected =
    match w with
    | Workload.Triage ->
      let tbl, ref_s =
        Host.time (fun () -> Triage.reference k (triage_warm () :: inputs))
      in
      Fmt.pr
        "reference pass: %d inputs (warm-up included) on the reference \
         engine in %.2f s@."
        (Hashtbl.length tbl) ref_s;
      tbl
    | Workload.Corpus | Workload.Corpus_pruned ->
      List.iter
        (fun (id, e) -> Fmt.pr "golden mismatch %s: %s@." id e)
        p.golden_errors;
      p.expected_golden
  in
  Option.iter cleanup_dir journal_dir;
  let checked = warm :: loop.samples in
  let mismatches = List.filter (fun s -> not (passes expected s)) checked in
  List.iteri
    (fun i s ->
      if i < 5 then
        Fmt.pr "FAILED %s: exit %d chain %s@." s.item.key s.outcome.exit
          (Option.value ~default:"-" s.outcome.chain))
    mismatches;
  let attempted = List.length checked and failed = List.length mismatches in
  let n = List.length loop.samples in
  let lat = List.map (fun s -> s.latency) loop.samples in
  let raw_lat = List.map (fun s -> s.raw_latency) loop.samples in
  let tail_of latency =
    Stats.tail ~percentile:(Workload.tail_percentile w)
      (List.map (fun s -> (s.item.label, latency s)) loop.samples)
  in
  let tail = tail_of (fun s -> s.latency) in
  Fmt.pr "requests: %d in %d rounds over %.3f s timed (%.3f nominal-host \
          s); %d failed of %d attempted (warm-up included)@."
    n loop.rounds loop.raw_wall loop.wall failed attempted;
  Fmt.pr "request_s.tail: p%g = %.6f s with %d samples beyond it (highest \
          percentile with %d beyond at %d requests: p%.2f), inside the %s \
          block (margin %d samples): %s@."
    tail.percentile tail.value tail.beyond Stats.min_beyond n
    (Stats.highest_percentile ~n ~min_beyond:Stats.min_beyond)
    tail.label tail.margin
    (if tail.ok then "rule holds" else "RULE VIOLATED");
  (* The slowest latency blocks: what the tail percentile is made of. *)
  let blocks = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l = s.item.label in
      let prev = Option.value ~default:[] (Hashtbl.find_opt blocks l) in
      Hashtbl.replace blocks l (s.latency :: prev))
    loop.samples;
  let blocks =
    Hashtbl.fold (fun l xs acc -> (l, Stats.median xs, List.length xs) :: acc)
      blocks []
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  Fmt.pr "slowest blocks (median s, samples):%a@."
    Fmt.(list ~sep:nop (fun ppf (l, m, c) -> pf ppf " %s %.4f (%d)" l m c))
    (List.filteri (fun i _ -> i < 4) blocks);
  let q1, q2, q3 = Stats.quartiles lat in
  Fmt.pr "within-run spread: request_s q1 %.6f median %.6f q3 %.6f@." q1 q2
    q3;
  Fmt.pr "host probe ms: %a (nominal %g); peak rss before loop %.1f MB@."
    (pp_spread 1000.) loop.probes
    (1000. *. Host.nominal_probe)
    rss_before_loop;
  let nf = float_of_int n in
  (* The same figures in wall seconds as measured, for comparison with
     the nominal-host ones the result line carries. *)
  Fmt.pr "%s@."
    (Telemetry.Json.obj
       [ ("probe_ms_median",
          Output.number (1000. *. Stats.median loop.probes));
         ("probe_iqr_share", Output.number (Stats.iqr_share loop.probes));
         ("request_s_iqr_share", Output.number (Stats.iqr_share lat));
         ("tail_beyond", Telemetry.Json.int tail.beyond);
         ("tail_ok", Telemetry.Json.bool tail.ok);
         ("wall.diagnoses_per_s", Output.number (nf /. loop.raw_wall));
         ("wall.request_s.p50", Output.number (Stats.median raw_lat));
         ("wall.request_s.tail",
          Output.number (tail_of (fun s -> s.raw_latency)).value);
         ("wall.cpu_s_per_diagnosis", Output.number (loop.raw_cpu /. nf));
         ("wall.setup_s", Output.number raw_setup_s) ]);
  let metrics =
    [ Output.m "diagnoses_per_s" "1/s" (nf /. loop.wall);
      Output.m "request_s.p50" "s" (Stats.median lat);
      Output.m "request_s.tail" "s" tail.value;
      Output.m "cpu_s_per_diagnosis" "s" (loop.cpu /. nf);
      Output.m "peak_rss_mb" "MB" peak_rss_mb;
      Output.m "setup_s" "s" setup_s ]
  in
  let correct = failed = 0 && p.golden_errors = [] in
  print_endline (Output.result_line ~correct ~attempted ~failed metrics);
  0
