(** Seeded SplitMix64 generator: the same seed yields the same stream on
    every platform and compiler version. *)

type t

val make : int -> t

val int : t -> int -> int
(** [int t bound] is uniform-ish in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
