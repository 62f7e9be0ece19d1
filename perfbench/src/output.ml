(* The result line the benchmark ends with, and metric descriptors. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|}
              (Telemetry.Json.str x.name) (number x.value)
              (Telemetry.Json.str x.unit_))
          metrics))
