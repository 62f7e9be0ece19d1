(* Clocks, process counters and the host-noise probe. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM (peak resident set) of this process, in MiB; 0 where /proc is
   unavailable. *)
let peak_rss_mb () =
  let status = "/proc/self/status" in
  match In_channel.with_open_text status In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match
            List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v))
          with
          | kb :: _ -> (
            match float_of_string_opt kb with
            | Some kb -> kb /. 1024.
            | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' text)

(* --- the host-speed probe --------------------------------------------- *)

(* A shared host moves between fast and slow phases lasting minutes, and
   this allocation-heavy program slows about twice as much as a plain
   integer loop does.  The probe therefore does what the program does
   most, in miniature, and calls none of its code: it builds a
   60k-entry balanced map of pseudo-random keys (allocation, promotion,
   pointer chasing) and folds over it.  It runs in the benchmark's own
   process, on the same processor and heap as the requests it
   brackets; in trials a probe in a child process followed the host
   less than half as closely.  Its collections do a fixed amount of
   major-heap work, set by its own allocation. *)
module Probe_map = Map.Make (Int)

let probe_work () =
  let m = ref Probe_map.empty and x = ref 0x2545F491 in
  for i = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := Probe_map.add (!x land 0xfffff) i !m
  done;
  ignore
    (Sys.opaque_identity (Probe_map.fold (fun k v a -> a + k + v) !m 0))

let probe () =
  let t0 = now () in
  probe_work ();
  now () -. t0

(* The probe duration, in seconds, of the nominal host that normalized
   times are expressed on: about the median of this probe on a 2-vCPU
   Intel Xeon VM at 2.1 GHz. *)
let nominal_probe = 0.050

(* The factor that turns a span measured between two probes into
   nominal-host seconds. *)
let nominal_factor ~before ~after = nominal_probe /. ((before +. after) /. 2.)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
